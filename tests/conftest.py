"""Fixtures for the tests of the fork-based split (``--jobs``), and the
environment for tests that run Python in a subprocess."""

import contextlib
import os
import warnings
from pathlib import Path

import pytest

# Hypothesis's pytest plugin imports this module when a test fails, and the
# import warns (libcst on mypy_extensions.TypedDict).  Under the "error" filter
# below, that warning aborted the whole run in place of reporting the failure.
# Imported here, outside any test, with only its own deprecations ignored.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

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
