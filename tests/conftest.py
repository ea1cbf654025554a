import pytest

from optomech import io as omio


@pytest.fixture
def small_ranges(monkeypatch):
    """CSV ranges small enough for records of a few thousand rows: bodies
    longer than 16 KiB are parsed and streamed in 16 KiB ranges."""
    monkeypatch.setattr(omio, "_RANGE_BYTES", 1 << 14)
