"""A hosted conference loads only its media plane.

An SFU or service process never scores PointSSIM, so importing the
service app and the fleet must not pull in ``repro.core.session``, the
metric or its ``scipy.spatial`` stack; ``repro.core`` exports resolve
lazily instead.
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


def test_service_and_fleet_leave_the_quality_stack_unloaded():
    probe = (
        "import json, sys\n"
        "import repro.service.app, repro.sfu.fleet\n"
        "names = ('repro.core.session', 'repro.metrics.pointssim', 'scipy.spatial')\n"
        "print(json.dumps([name for name in names if name in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert json.loads(result.stdout) == []


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
