import threading

import pytest

from ccprobe import netsim
from ccprobe.netsim import BandwidthTrace, SimConfig


@pytest.fixture
def short_sim():
    return SimConfig(episode_duration_s=5.0)


@pytest.fixture
def const_trace():
    # 48 Mbps for 5 s at the default 100 ms interval
    return BandwidthTrace(interval_ms=100.0, values=[48.0] * 50)


@pytest.fixture
def started_threads(monkeypatch):
    """The threads `map_jobs` creates in this process during the test, in
    order."""
    made, real = [], threading.Thread

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(netsim.threading, "Thread", spy)
    return made


@pytest.fixture
def no_thread_left():
    """A check that no thread started since the test began is still alive."""
    before = set(threading.enumerate())
    return lambda: set(threading.enumerate()) <= before
