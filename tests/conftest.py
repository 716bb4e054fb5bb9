"""Fixtures for the tests of the fork-based split (``--jobs``)."""

import os

import pytest


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the process may run on k CPUs."""

    def set_cpus(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return set_cpus


@pytest.fixture
def forks(monkeypatch):
    """Real forks, recorded by pid in the parent."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
