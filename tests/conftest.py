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
