"""Fixtures for the tests of the fork-based split (``--jobs``), and the
environment for tests that run Python in a subprocess."""

import os
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def pytest_collection_modifyitems(items):
    # A warning in a test under tests/ is an error.
    for item in items:
        if Path(item.path).resolve().is_relative_to(TESTS):
            item.add_marker(pytest.mark.filterwarnings("error"))


def child_env(**overrides: str) -> dict[str, str]:
    """This process's environment with ``src`` first on ``PYTHONPATH``, so a
    child Python imports this checkout's agglorank; then ``overrides``."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


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
