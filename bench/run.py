"""Benchmark of the agglorank CLI: time to a result on seeded workloads.

    python3 bench/run.py --workload rank --seed 0 --seconds 50 --trace 0

The measured tree is the directory that holds ``bench/``.  The benchmark
generates the workload's inputs from the seed, then runs the tree's own
``src`` as ``PYTHONPATH=src python -m agglorank ...``, one invocation at a
time (a closed loop with one client), for ``--seconds`` seconds of whole
passes over the workload's invocation list, after one untimed warm-up
invocation.  Every output is checked outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, as
medians over passes; with ``--trace 1`` it calls ``agglorank.cli.main``
in-process instead, with every module traced (see tracing.py), and reports
the per-layer metrics as medians over passes.  The last stdout line is the
JSON result; the line before it is the machine and run record, with every
sample.  Exit code 2 means the tree has no ``src/agglorank`` or
``tests/oracles.py`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, span_cost_ns
from workloads import DEFAULT_SEED, WORKLOADS, Invocation

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_max_s": "s",
    "nodes_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
# Per-layer metrics: (layer, field) pairs read from the tracer's totals.
LAYER_TIMES = {
    "graph.distance_sum": ("s", "calls"),
    "graph.parse": ("s",),
    "graph.to_edge_list": ("s",),
    "graph.bfs_distances": ("s", "calls"),
    "contraction.contract": ("s", "calls"),
    "agglomeration.imc_all": ("s", "self_s", "calls"),
    "agglomeration.phi": ("s", "calls"),
    "agglomeration.average_path_length": ("s",),
    "families.generate": ("s", "calls"),
    "families.scan_class_comments": ("s",),
    "closed_forms": ("s", "calls"),
    "verify.verify_family": ("s", "self_s"),
    "reports.render": ("s",),
    "cli.main": ("s",),
}
COUNTERS = {
    "graph.distance_sum.nodes": "count",
    "graph.distance_sum.arc_scans": "count",
    "graph.parse.bytes": "bytes",
    "contraction.contract.nodes_out": "count",
    "contraction.contract.edges_out": "count",
    "agglomeration.imc_den_bits_max": "bits",
    "families.generate.nodes": "count",
    "verify.specs": "count",
    "verify.rows": "count",
    "verify.mismatches": "count",
    "reports.render.bytes": "bytes",
}
INPUT_COUNTERS = ("input.n_max", "input.m_max", "input.diameter_max", "input.degree_max")


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{field}": "count" if field == "calls" else "s"
             for layer, fields in LAYER_TIMES.items() for field in fields}
    units.update(COUNTERS)
    units["cli.import_s"] = "s"
    units.update({name: "count" for name in INPUT_COUNTERS})
    units["trace.overhead_s"] = "s"
    return units


def summary(values: list[float]) -> dict:
    """Median, sample count, the highest percentile with >= 10 samples beyond it,
    and the samples in the order they were taken."""
    ordered = sorted(values)
    out = {"median": statistics.median(ordered), "n": len(ordered), "values": values}
    for pct in (99.9, 99, 90, 50):
        if len(ordered) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]
            break
    return out


def another_pass(started: float, passes: int, seconds: float) -> bool:
    """Run at least one pass, and another only if half of it fits in ``seconds``."""
    elapsed = time.perf_counter() - started
    return passes == 0 or elapsed + elapsed / passes / 2 < seconds


class Judge:
    """Checks each output once per distinct stdout digest and counts failures.

    Recorded digests hold for the default seed, and for every seed where an
    invocation's output does not depend on it.
    """

    def __init__(self, digests: dict[str, str], seed: int):
        self.digests = digests
        self.seed = seed
        self.seen: dict[str, str] = {}
        self.verdicts: dict[str, str | None] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, invocation: Invocation, code: int, out: bytes) -> bool:
        self.attempted += 1
        digest = hashlib.sha256(out).hexdigest()
        recorded = (self.digests.get(invocation.label)
                    if self.seed == DEFAULT_SEED or not invocation.seeded else None)
        error = None
        if code != 0:
            error = f"exit code {code}"
        elif recorded is not None and digest != recorded:
            error = "stdout differs from the recorded digest"
        elif self.seen.setdefault(invocation.label, digest) != digest:
            error = "stdout differs between passes"
        else:
            if digest not in self.verdicts:
                try:
                    self.verdicts[digest] = invocation.check(out.decode())
                except (ValueError, IndexError, KeyError, TypeError) as exc:
                    self.verdicts[digest] = f"unparseable output: {exc!r}"
            error = self.verdicts[digest]
        if error:
            self.failures.append(f"{invocation.label}: {error}")
        return error is None


def read_output(path: Path) -> bytes:
    return path.read_bytes()


def cli_env() -> dict[str, str]:
    """The environment that makes ``python -m agglorank`` run this tree's ``src``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs invocations through spawn.py, so that wait4 reports each one's own peak RSS."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], out_path: Path) -> tuple[float, int, int]:
        """Run one invocation; returns (wall seconds, peak RSS in KiB, exit code)."""
        request = {"argv": [sys.executable, "-m", "agglorank", *argv], "cwd": str(ROOT),
                   "env": cli_env(), "out": str(out_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["seconds"], reply["maxrss_kib"], reply["code"]


def two_node_invocation(workdir: Path) -> Invocation:
    path = workdir / "two-node.txt"
    path.write_text("0 1\n")
    expected = "phi 1/2\nL 1\nnode  imc  imc_decimal\n0     1/2  0.500000\n1     1/2  0.500000\n"
    return Invocation("setup-two-node", ["rank", str(path)], 2,
                      lambda out: None if out == expected else "unexpected two-node ranking")


def measure(inputs, seconds: float, workdir: Path, judge: Judge,
            spawner: Spawner) -> tuple[dict, dict]:
    """End-to-end metrics over subprocess passes, tracing off."""
    run_cli = spawner.run
    out_path = workdir / "stdout"
    run_cli(inputs.invocations[0].argv, out_path)  # warm-up: bytecode and file cache

    setup = two_node_invocation(workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, _, code = run_cli(setup.argv, out_path)
        if judge(setup, code, read_output(out_path)):
            setup_times.append(elapsed)

    walls, maxes, rates, rss = [], [], [], []
    per_call: dict[str, list[float]] = {inv.label: [] for inv in inputs.invocations}
    nodes = sum(inv.nodes for inv in inputs.invocations)
    started = time.perf_counter()
    while another_pass(started, len(walls), seconds):
        times, peak = [], 0
        for inv in inputs.invocations:
            elapsed, maxrss, code = run_cli(inv.argv, out_path)
            judge(inv, code, read_output(out_path))
            times.append(elapsed)
            per_call[inv.label].append(elapsed)
            peak = max(peak, maxrss)
        walls.append(sum(times))
        maxes.append(max(times))
        rates.append(nodes / sum(times))
        rss.append(peak / 1024)

    samples = {"setup_s": setup_times, "wall_s": walls, "cmd_max_s": maxes,
               "nodes_per_s": rates, "peak_rss_mb": rss}
    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    detail = {name: summary(values) for name, values in samples.items() if values}
    detail.update({f"call.{label}": summary(values) for label, values in per_call.items()})
    return metrics, {"passes": len(walls), "samples": detail}


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    import agglorank.cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = agglorank.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue().encode()


def import_seconds() -> list[float]:
    env = cli_env()
    probe = ("import time; t = time.perf_counter_ns(); import agglorank.cli; "
             "print(time.perf_counter_ns() - t)")
    return [int(subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, check=True,
                               capture_output=True, text=True).stdout) / 1e9
            for _ in range(IMPORT_REPEATS)]


def measure_traced(inputs, seconds: float, judge: Judge) -> tuple[dict, dict]:
    """Per-layer metrics over traced in-process passes."""
    import agglorank

    if Path(agglorank.__file__).resolve().parent != SRC / "agglorank":
        raise SystemExit(f"error: agglorank imported from {agglorank.__file__}, not {SRC}")

    span_ns = span_cost_ns()
    passes, layer_values = [], []
    missing, counter_errors = set(), 0
    started = time.perf_counter()
    while another_pass(started, len(passes), seconds):
        tracer = Tracer()
        with tracer.installed():
            pass_start = time.perf_counter()
            for inv in inputs.invocations:
                with tracer.span("cli.main"):
                    result = run_in_process(inv.argv)
                judge(inv, *result)
            passes.append(time.perf_counter() - pass_start)
        totals = tracer.totals()
        values = {f"{layer}.{field}": getattr(totals[layer], field)
                  for layer, fields in LAYER_TIMES.items() for field in fields}
        values.update({name: tracer.counters[name] for name in COUNTERS})
        values["trace.overhead_s"] = tracer.overhead_s(span_ns)
        values["spans"] = len(tracer.spans)
        layer_values.append(values)
        missing.update(tracer.missing)
        counter_errors += tracer.counter_errors

    metrics = {name: statistics.median(v[name] for v in layer_values)
               for name in layer_values[0]}
    spans = metrics.pop("spans")
    imports = import_seconds()
    metrics["cli.import_s"] = statistics.median(imports)
    metrics.update(inputs.counters)
    detail = {"traced_pass_s": summary(passes), "cli.import_s": summary(imports)}
    return metrics, {"passes": len(passes), "samples": detail, "spans_per_pass": spans,
                     "span_cost_ns": span_ns, "missing_layers": sorted(missing),
                     "counter_errors": counter_errors}


def tree_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    with contextlib.suppress(OSError):
        workdir.parent.rmdir()  # only once no other run is using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for required in (SRC / "agglorank" / "__main__.py", ROOT / "tests" / "oracles.py"):
        if not required.is_file():
            print(f"error: {required} not found; bench/ must sit in an agglorank source tree",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # The spawner starts first, while this process is still small.
    with Spawner() as spawner, contextlib.ExitStack() as cleanup:
        cleanup.callback(_remove_workdir, workdir)
        inputs = WORKLOADS[args.workload](args.seed, workdir, cli_env())
        recorded = json.loads((BENCH / "digests.json").read_text()).get(args.workload, {})
        judge = Judge(recorded, args.seed)
        if args.trace:
            metrics, run = measure_traced(inputs, args.seconds, judge)
            units = per_layer_units()
        else:
            metrics, run = measure(inputs, args.seconds, workdir, judge, spawner)
            units = END_TO_END

    failed = len(judge.failures)
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "tree": tree_record(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one process at a time",
        "attempted": judge.attempted, "failed": failed,
        "failed_ratio": {"value": failed / judge.attempted, "unit": "ratio"},
        "failures": judge.failures[:20],
        "stdout_sha256": judge.seen,
        **run,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": judge.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
