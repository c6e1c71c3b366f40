"""A process loads only what it runs.

An SFU or service process never scores PointSSIM, so importing the
service app and the fleet must not pull in ``repro.core.session``, the
metric or its ``scipy.spatial`` stack; ``repro.core`` exports resolve
lazily instead.  The codec runs on numpy alone (its DCT is a matrix
product), so those processes load no scipy module at all.  No package
imports its submodules, so the hosts, the report invariants and the
LiVo session each load no module their runs never execute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after(imports: str, prefixes: tuple[str, ...]) -> list[str]:
    """Modules under ``prefixes`` a fresh interpreter holds after ``imports``."""
    probe = (
        "import json, sys\n"
        f"import {imports}\n"
        f"prefixes = {prefixes!r}\n"
        "print(json.dumps(sorted(name for name in sys.modules\n"
        "    if any(name == p or name.startswith(p + '.') for p in prefixes))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(result.stdout)


def test_service_and_fleet_leave_the_quality_stack_unloaded():
    names = ("repro.core.session", "repro.metrics.pointssim", "scipy.spatial")
    assert _loaded_after("repro.service.app, repro.sfu.fleet", names) == []


def test_service_fleet_and_codec_load_no_scipy():
    assert _loaded_after("repro.service.app, repro.sfu.fleet, repro.codec.video", ("scipy",)) == []


# What a fleet or service process never runs: the scenario engine, the
# 3D baselines, the two-party channel's packetizer, FEC and reliable
# stream, the MLP predictor, and the export, table and model modules.
UNRUN_BY_HOSTS = (
    "repro.scenario",
    "repro.compression",
    "repro.depthcodec.packing",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.metrics.latency",
    "repro.metrics.mos",
    "repro.obs.export",
    "repro.obs.timeline",
    "repro.prediction.mlp",
    "repro.analysis.tracetools",
    "repro.transport.channel",
    "repro.transport.fec",
    "repro.transport.rtp",
    "repro.transport.tcp",
)


@pytest.mark.parametrize("entry", ["repro.sfu.fleet", "repro.service.app"])
def test_hosts_load_only_what_they_run(entry):
    # A package imports none of its submodules, so a host pays only for
    # the modules its own imports name.
    assert _loaded_after(entry, UNRUN_BY_HOSTS) == []


def test_report_invariants_load_no_host():
    names = ("repro.sfu", "repro.service", "repro.scenario.runner")
    assert _loaded_after("repro.scenario.invariants", names) == []


def test_livo_session_loads_no_baseline():
    names = ("repro.compression", "repro.core.baselines", "repro.transport.tcp")
    assert _loaded_after("repro.core.session", names) == []


def test_core_exports_resolve():
    for name in repro.core.__all__:
        assert getattr(repro.core, name) is not None
    from repro.core import LiVoSession, SessionConfig
    from repro.core.config import SessionConfig as config_class
    from repro.core.session import LiVoSession as session_class

    assert (LiVoSession, SessionConfig) == (session_class, config_class)


def test_unknown_core_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'NoSuchThing'"):
        repro.core.NoSuchThing
