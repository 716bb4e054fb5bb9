"""The fork-based split of the per-node contractions (``--jobs``).

Workers write their sums into one shared mapping.  Every way a worker can
fail ends in the serial report, and a failure of the parent kills them all;
either way every worker is reaped.  Every input here is above the size below
which ranking stays serial, so the split really forks, except on trees, which
are ranked without contracting; inputs below that size must never fork.  The
``cpus`` and ``forks`` fixtures are in ``conftest.py``.
"""

import mmap
import os
import random
import threading
from pathlib import Path

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
    tree = g.edge_count() == g.n - 1  # trees are ranked without contracting
    assert len(forks) == (0 if tree else jobs - 1)
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
    assert forks == []  # comets are trees
    assert verify_family("lollipop", jobs=2) == verify_family("lollipop")
    assert len(forks) == 1
    assert_reaped(forks)


def test_cli_stdout_is_identical_with_jobs_1_and_the_default(tmp_path, capsys, cpus, forks):
    cpus(2)
    source = tmp_path / "sparse.txt"
    source.write_text(to_edge_list(SPARSE))
    commands = {  # command: the forks its default run makes
        ("rank", str(source), "--format", "json"): 1,
        ("verify", "lollipop"): 1,
        ("verify", "comet"): 0,  # comets are trees
    }
    for command, forked in commands.items():
        assert main([*command, "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        before = len(forks)
        assert main(list(command)) == 0
        assert capsys.readouterr().out == serial
        assert len(forks) - before == forked
    assert_reaped(forks)


def _fail_in_children(monkeypatch, failure):
    # Make every worker's share fail as ``failure`` says; the parent is unaffected.
    parent = os.getpid()
    real = agglomeration._contracted_sum

    def contracted_sum(item):
        return failure() if os.getpid() != parent else real(item)

    monkeypatch.setattr(agglomeration, "_contracted_sum", contracted_sum)


@pytest.mark.parametrize("failure", [
    lambda: os._exit(3),  # dies with a non-zero status before writing
    lambda: os._exit(0),  # exits cleanly but writes nothing
    lambda: 1 / 0,  # raises
    lambda: (1, 2**64),  # returns a sum too large for a slot
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


def test_interrupt_while_reaping_kills_and_reaps_every_worker(monkeypatch, cpus, forks):
    cpus(3)
    real_waitpid = os.waitpid
    calls = []

    def waitpid(pid, options):
        calls.append(pid)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(KeyboardInterrupt):
        imc_all(SPARSE, jobs=3)
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="no /proc/self/fd")
def test_forked_ranking_leaves_no_descriptor_open(cpus, forks):
    cpus(2)
    before = sorted(os.listdir("/proc/self/fd"))
    imc_all(SPARSE, jobs=2)
    assert len(forks) == 1
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_no_fork_means_serial(monkeypatch, cpus):
    cpus(2)
    expected = imc_all(SPARSE)
    monkeypatch.delattr(os, "fork")

    def no_mapping(*args, **kwargs):
        raise AssertionError("a shared mapping was made without os.fork")

    monkeypatch.setattr(mmap, "mmap", no_mapping)
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
