import pytest

from optomech import io as omio


@pytest.fixture
def small_ranges(monkeypatch):
    """CSV pool thresholds small enough for records of a few thousand rows:
    bodies of 64 KiB or more are parsed in 16 KiB ranges."""
    monkeypatch.setattr(omio, "_POOL_MIN_BYTES", 1 << 16)
    monkeypatch.setattr(omio, "_RANGE_BYTES", 1 << 14)
