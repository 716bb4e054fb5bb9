"""The fork-based split of the per-node contractions (``--jobs``).

Every input here is above the size below which ranking stays serial, so the
split really forks; inputs below it must never fork.
"""

import os
import random
import threading

import pytest

from agglorank import agglomeration
from agglorank.agglomeration import imc_all, usable_cpus
from agglorank.cli import build_parser, main
from agglorank.families import LollipopSpec, PathSpec, generate
from agglorank.graph import Graph, from_edge_list, to_edge_list
from agglorank.verify import verify_family


def sparse_graph(n: int, seed: int) -> Graph:
    """A random spanning tree plus n random extra edges (average degree ~4)."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < 2 * n - 1:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return from_edge_list(sorted(edges), n=n)


SPARSE = sparse_graph(120, seed=3)
INPUTS = {
    "sparse-120": SPARSE,
    "P(250)": generate(PathSpec(250)).graph,
    "lollipop(80,20)": generate(LollipopSpec(80, 20)).graph,
}


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


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_inputs_are_above_the_serial_size():
    for g in INPUTS.values():
        assert g.n * g.n >= agglomeration._FORK_MIN_WORK


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("jobs", [2, 3])
def test_split_report_equals_serial(name, jobs, cpus, forks):
    cpus(3)
    g = INPUTS[name]
    assert imc_all(g, jobs=jobs) == imc_all(g)
    assert len(forks) == jobs - 1
    assert_reaped(forks)


def test_small_input_stays_serial(monkeypatch):
    def no_fork():
        raise AssertionError("a 20-node ranking forked")

    monkeypatch.setattr(os, "fork", no_fork)
    g = sparse_graph(20, seed=1)
    assert imc_all(g, jobs=8) == imc_all(g)
    two = from_edge_list([(0, 1)])
    assert imc_all(two, jobs=8) == imc_all(two)


def test_verify_report_equals_serial(cpus, forks):
    cpus(2)
    ranges = {"s": (3, 10), "t": (4, 12)}
    assert verify_family("comet", ranges, jobs=2) == verify_family("comet", ranges)
    assert len(forks) == 1
    assert_reaped(forks)


def test_cli_stdout_is_identical_with_jobs_1_and_the_default(tmp_path, capsys, cpus, forks):
    cpus(2)
    source = tmp_path / "sparse.txt"
    source.write_text(to_edge_list(SPARSE))
    commands = (["rank", str(source), "--format", "json"], ["verify", "comet"])
    for command in commands:
        assert main(command + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(command) == 0
        assert capsys.readouterr().out == serial
    assert len(forks) == len(commands)
    assert_reaped(forks)


def _fail_in_children(monkeypatch, failure):
    # Make every worker's share fail as ``failure`` says; the parent is unaffected.
    parent = os.getpid()
    real = agglomeration._contracted_sum

    def contracted_sum(item):
        if os.getpid() != parent:
            failure()
        return real(item)

    monkeypatch.setattr(agglomeration, "_contracted_sum", contracted_sum)


@pytest.mark.parametrize("failure", [
    lambda: os._exit(3),  # dies with a non-zero status before writing
    lambda: os._exit(0),  # exits cleanly but writes nothing
    lambda: 1 / 0,  # raises
])
def test_failed_worker_share_is_computed_by_the_parent(monkeypatch, cpus, forks, failure):
    cpus(3)
    expected = imc_all(SPARSE)
    _fail_in_children(monkeypatch, failure)
    assert imc_all(SPARSE, jobs=3) == expected
    assert len(forks) == 2
    assert_reaped(forks)


def test_parent_failure_kills_and_reaps_every_worker(monkeypatch, cpus, forks):
    cpus(3)
    parent = os.getpid()
    real = agglomeration._contracted_sum

    def contracted_sum(item):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(item)

    monkeypatch.setattr(agglomeration, "_contracted_sum", contracted_sum)
    with pytest.raises(KeyboardInterrupt):
        imc_all(SPARSE, jobs=3)
    assert len(forks) == 2
    assert_reaped(forks)


def test_no_fork_means_serial(monkeypatch, cpus):
    cpus(2)
    expected = imc_all(SPARSE)
    monkeypatch.delattr(os, "fork")

    def no_pipe():
        raise AssertionError("a pipe was opened without os.fork")

    monkeypatch.setattr(os, "pipe", no_pipe)
    assert imc_all(SPARSE, jobs=2) == expected


def test_a_process_with_other_threads_stays_serial(monkeypatch, cpus):
    cpus(2)
    expected = imc_all(SPARSE)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        assert imc_all(SPARSE, jobs=2) == expected
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()


def test_huge_jobs_starts_at_most_usable_minus_one_workers(tmp_path, capsys, monkeypatch, cpus):
    # No process starts: the fake fork hands out pids of no process, and each
    # fake worker "exits" with status 1, so the parent computes every share.
    cpus(3)
    started = []

    def fake_fork():
        started.append(4_000_000 + len(started))
        return started[-1]

    def fake_waitpid(pid, options):
        assert pid in started
        return pid, 1 << 8

    source = tmp_path / "sparse.txt"
    source.write_text(to_edge_list(SPARSE))
    assert main(["rank", str(source), "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(os, "fork", fake_fork)
    monkeypatch.setattr(os, "waitpid", fake_waitpid)
    monkeypatch.setattr(os, "kill", lambda pid, sig: pytest.fail("kill called"))
    assert main(["rank", str(source), "--jobs", "100000"]) == 0
    assert capsys.readouterr().out == serial
    assert len(started) == usable_cpus() - 1 == 2


def test_usable_cpus_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert usable_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert usable_cpus() == 1


def test_cli_jobs_defaults_to_usable_cpus(cpus):
    cpus(7)
    parser = build_parser()
    assert parser.parse_args(["rank", "g.txt"]).jobs == 7
    assert parser.parse_args(["verify", "path"]).jobs == 7
