"""Fixtures shared across the test modules."""

from __future__ import annotations

import pytest

from repro.codec import video
from repro.runtime import batchplane
from tests.reference import dct as reference_dct


@pytest.fixture
def oracle_transform(monkeypatch):
    """Run the codec on the ``scipy.fft`` DCT the twin digests were recorded with."""
    monkeypatch.setattr(batchplane, "forward_dct", reference_dct.forward_dct)
    monkeypatch.setattr(batchplane, "inverse_dct", reference_dct.inverse_dct)
    monkeypatch.setattr(video, "inverse_dct", reference_dct.inverse_dct)


@pytest.fixture
def fleet_shape(monkeypatch):
    """Shrink the fleet for one test: ``fleet_shape(receivers=2,
    churn_every=3, sample_budget=1500, unicast_control=1)`` patches the
    matching ``repro.sfu.fleet`` constants (``RECEIVERS``, ...)."""
    from repro.sfu import fleet

    def apply(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(fleet, name.upper(), value)

    return apply
