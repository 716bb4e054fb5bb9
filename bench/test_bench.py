"""Self-tests of the benchmark on tiny configurations of its four workloads.

They check that a run emits exactly the metrics BENCHMARK.json names, with
their units; that a corrupted stdout is counted as a failed invocation; that
tracing a function which no longer exists reports zero calls instead of
crashing; and that the two distance oracles agree.
"""

import functools
import importlib
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(ROOT / "tests"))

TINY = {
    "rank": workloads.combine(
        functools.partial(workloads.rank_sparse, sizes=(12, 20)),
        functools.partial(workloads.rank_shapes, families=(
            ("path", "--n", "6"), ("lollipop", "--n", "7", "--d", "3")))),
    "verify-graph": workloads.combine(
        functools.partial(workloads.verify_grids, grids=(
            ("path", {"n": (4, 6)}), ("lollipop", {"d": (4, 5), "nd": (2, 3)}))),
        functools.partial(workloads.graph_large, phi_n=workloads.MINPLUS_MAX_N + 1,
                          contract_n=60)),
}


@pytest.fixture
def tiny(monkeypatch, capsys):
    """Run the benchmark's entry point on a tiny workload; returns the parsed result."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)

    def bench(workload: str, trace: int) -> dict:
        monkeypatch.setitem(workloads.WORKLOADS, workload, TINY[workload])
        assert run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    return bench


def _spec_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_emits_every_named_metric_with_its_unit(tiny, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = tiny(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == _spec_units(kind)
        if trace == 0:
            assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_stdout_counts_as_failed(tiny, monkeypatch, workload):
    def drop_last_line(path):
        return b"".join(path.read_bytes().splitlines(keepends=True)[:-1])

    monkeypatch.setattr(run, "read_output", drop_last_line)
    result = tiny(workload, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_trace_counts_n_plus_one_distance_sums_per_rank(tiny, monkeypatch):
    monkeypatch.setitem(TINY, "rank", functools.partial(workloads.rank_sparse, sizes=(12, 20)))
    metrics = tiny("rank", 1)["metrics"]
    assert metrics["graph.distance_sum.calls"]["value"] == (12 + 1) + (20 + 1)
    assert metrics["contraction.contract.calls"]["value"] == 12 + 20


def test_missing_function_reports_zero_calls(tiny, monkeypatch):
    import agglorank.agglomeration
    import agglorank.contraction
    import agglorank.graph

    monkeypatch.delattr(agglorank.contraction, "contract")
    result = tiny("rank", 1)
    assert result["correct"]
    assert result["metrics"]["contraction.contract.calls"]["value"] == 0
    assert result["metrics"]["graph.distance_sum.calls"]["value"] > 0
    assert agglorank.agglomeration.distance_sum is agglorank.graph.distance_sum


def test_trace_leaves_no_wrapper_in_a_module_imported_while_traced(monkeypatch):
    import agglorank
    import agglorank.graph

    monkeypatch.delitem(sys.modules, "agglorank.cli", raising=False)
    monkeypatch.delattr(agglorank, "cli", raising=False)
    with tracing.Tracer().installed():
        cli = importlib.import_module("agglorank.cli")
    assert cli.parse_edge_list is agglorank.graph.parse_edge_list


def test_frontier_oracle_agrees_with_minplus(monkeypatch):
    rng = random.Random(7)
    for n in (2, 5, 30):
        edges = workloads.sparse_graph(rng, n, avg_degree=3 if n > 2 else 1)
        minplus = workloads.distance_profile(n, edges)
        monkeypatch.setattr(workloads, "MINPLUS_MAX_N", 0)
        assert workloads.distance_profile(n, edges) == minplus
        monkeypatch.undo()


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rank",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
