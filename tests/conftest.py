import os

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
def forked_pids(monkeypatch):
    """The pids of the children `map_jobs` forks in this process during the
    test, in order."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(netsim.os, "fork", spy)
    return pids
