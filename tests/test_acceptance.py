"""Acceptance suite: one test per criterion, exact equalities, stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion as it completes.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from agglorank import closed_forms as cf
from agglorank.agglomeration import imc_all, phi
from agglorank.families import (
    CometSpec,
    DoubleCometSpec,
    LollipopSpec,
    NodeClass,
    PathSpec,
    generate,
)
from agglorank.contraction import contract
from agglorank.verify import grid_specs, resolve_ranges

from conftest import child_env
from oracles import distance_signature, oracle_distance_sum, random_connected_graph

NC = NodeClass


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def _class_values(lg, report):
    values = {}
    for v, node_class in enumerate(lg.classes):
        imc_v = next(e.imc for e in report.entries if e.node == v)
        assert values.setdefault(node_class, imc_v) == imc_v, (
            f"{lg.spec.label()}: nodes of class {node_class.value} disagree"
        )
    return values


def test_criterion_1_path_reproduction():
    started = time.perf_counter()
    for n in range(4, 41):
        lg = generate(PathSpec(n))
        report = imc_all(lg.graph)
        assert report.phi == Fraction(3, n * (n + 1)) == cf.phi_path(n)
        for entry in report.entries:
            expected = (
                Fraction(2, n + 1)
                if lg.classes[entry.node] is NC.PATH_END
                else Fraction(2 * (2 * n - 1), n * (n + 1))
            )
            assert entry.imc == expected
            assert entry.imc >= 0
    elapsed = time.perf_counter() - started
    assert elapsed < 0.25, f"path sweep took {elapsed:.2f}s"
    _passed("1 path reproduction (n=4..40, exact)")


def test_criterion_2_comet_reproduction():
    started = time.perf_counter()
    for s in range(3, 11):
        for t in range(4, 13):
            lg = generate(CometSpec(s, t))
            report = imc_all(lg.graph)
            assert report.phi == cf.phi_comet(s, t)
            values = _class_values(lg, report)
            for node_class, value in values.items():
                assert value == cf.imc_comet(s, t, node_class)
                assert value >= 0
            assert (
                values[NC.COMET_CENTER]
                > values[NC.COMET_PATH_INNER]
                > values[NC.COMET_PATH_END]
                > values[NC.COMET_STAR_LEAF]
            ), f"ordering failed at C({s},{t})"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"comet sweep took {elapsed:.2f}s"
    _passed("2 comet reproduction (s=3..10, t=4..12, exact + ordering)")


def test_criterion_3_double_comet_reproduction():
    started = time.perf_counter()
    for a in range(2, 7):
        for b in range(2, 7):
            for k in range(4, 11):
                n = a + b + k
                lg = generate(DoubleCometSpec(n, a, b))
                report = imc_all(lg.graph)
                assert report.phi == cf.phi_double_comet(n, a, b)
                values = _class_values(lg, report)
                for node_class, value in values.items():
                    assert value == cf.imc_double_comet(n, a, b, node_class)
                    assert value == cf.imc_double_comet_condensed(n, a, b, node_class)
                    assert value >= 0
                end_a, end_b = values[NC.DC_END_A], values[NC.DC_END_B]
                inner = values[NC.DC_INNER]
                leaf_a, leaf_b = values[NC.DC_LEAF_A], values[NC.DC_LEAF_B]
                where = f"DC({n},{a},{b})"
                if a > b:
                    assert end_a > end_b > inner > leaf_b > leaf_a, where
                elif b > a:
                    assert end_b > end_a > inner > leaf_a > leaf_b, where
                else:
                    assert end_a == end_b and leaf_a == leaf_b, where
                    assert end_a > inner > leaf_a, where
    # frozen spot values, derived via the contraction engine
    spot = {e.node: e.imc for e in imc_all(generate(DoubleCometSpec(8, 2, 2)).graph).entries}
    assert phi(generate(DoubleCometSpec(8, 2, 2)).graph) == Fraction(7, 148)
    assert spot[4] == Fraction(85, 148)   # first path node
    assert spot[5] == Fraction(167, 370)  # inner path node
    assert spot[0] == Fraction(20, 111)   # pendant
    elapsed = time.perf_counter() - started
    assert elapsed < 3.0, f"double-comet sweep took {elapsed:.2f}s"
    _passed("3 double-comet reproduction (a,b=2..6, k=4..10, both forms + orderings)")


def test_criterion_4_lollipop_reproduction():
    started = time.perf_counter()
    exceptions_seen = {}
    for d in range(4, 13):
        for nd in range(2, 9):
            n = d + nd
            lg = generate(LollipopSpec(n, d))
            report = imc_all(lg.graph)
            assert report.phi == cf.phi_lollipop(n, d)
            values = _class_values(lg, report)
            for node_class, value in values.items():
                assert value == cf.imc_lollipop(n, d, node_class)
                assert value >= 0
            junction = values[NC.LP_JUNCTION]
            inner = values[NC.LP_PATH_INNER]
            end = values[NC.LP_PATH_END]
            clique = values[NC.LP_CLIQUE]
            where = f"L({n},{d})"
            assert junction > max(inner, end, clique), where
            assert inner > end and clique > end, where
            if nd == 2:
                assert inner > clique, where
            elif (n, d) in {(7, 4), (8, 5)}:
                assert not clique > inner, f"expected exception absent at {where}"
                exceptions_seen[(n, d)] = (clique, inner)
            else:
                assert clique > inner, where
    assert set(exceptions_seen) == {(7, 4), (8, 5)}
    for (n, d), (clique, inner) in sorted(exceptions_seen.items()):
        print(f"  lollipop exception L({n},{d}): imc(clique)={clique}, imc(inner)={inner}")
    # frozen spot values
    lp = generate(LollipopSpec(6, 4))
    spot = {e.node: e.imc for e in imc_all(lp.graph).entries}
    assert phi(lp.graph) == Fraction(5, 62)
    assert spot[3] == Fraction(21, 31)  # junction
    assert spot[4] == Fraction(43, 93)  # clique node
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"lollipop sweep took {elapsed:.2f}s"
    _passed("4 lollipop reproduction (d=4..12, n-d=2..8, exceptions at (7,4),(8,5))")


def test_criterion_5_oracle_equivalence_and_nonnegativity():
    rng = random.Random(186282)
    negative = []
    for _ in range(10_000):
        g = random_connected_graph(rng, rng.randint(4, 8))
        assert phi(g) == Fraction(g.n - 1, oracle_distance_sum(g))
        for entry in imc_all(g).entries:
            if entry.imc < 0:
                negative.append((list(g.edges()), entry.node, entry.imc))
    assert not negative, f"negative importance counterexamples: {negative[:5]}"
    _passed("5 oracle equivalence + importance nonnegativity (10000 random graphs)")


def test_criterion_6_cross_family_identities():
    for t in range(2, 31):
        assert phi(generate(CometSpec(1, t)).graph) == phi(generate(PathSpec(t + 1)).graph)
    for n in range(4, 31):
        assert phi(generate(DoubleCometSpec(n, 1, 1)).graph) == phi(generate(PathSpec(n)).graph)
    for d in range(2, 31):
        assert phi(generate(LollipopSpec(d + 1, d)).graph) == phi(generate(PathSpec(d + 1)).graph)
    _passed("6 cross-family agglomeration identities (ranges 2..30)")


def _contraction_target(spec, node_class):
    if isinstance(spec, PathSpec):
        return PathSpec(spec.n - 1) if node_class is NC.PATH_END else PathSpec(spec.n - 2)
    if isinstance(spec, CometSpec):
        return {
            NC.COMET_PATH_END: CometSpec(spec.s, spec.t - 1),
            NC.COMET_PATH_INNER: CometSpec(spec.s, spec.t - 2),
            NC.COMET_CENTER: PathSpec(spec.t - 1),
            NC.COMET_STAR_LEAF: CometSpec(spec.s - 1, spec.t),
        }[node_class]
    if isinstance(spec, DoubleCometSpec):
        n, a, b = spec.n, spec.a, spec.b
        k = spec.path_len
        return {
            NC.DC_LEAF_A: DoubleCometSpec(n - 1, a - 1, b),
            NC.DC_LEAF_B: DoubleCometSpec(n - 1, a, b - 1),
            NC.DC_END_A: CometSpec(b, k - 1),
            NC.DC_END_B: CometSpec(a, k - 1),
            NC.DC_INNER: DoubleCometSpec(n - 2, a, b),
        }[node_class]
    return {
        NC.LP_PATH_END: LollipopSpec(spec.n - 1, spec.d - 1),
        NC.LP_PATH_INNER: LollipopSpec(spec.n - 2, spec.d - 2),
        NC.LP_JUNCTION: PathSpec(spec.d - 1),
        NC.LP_CLIQUE: PathSpec(spec.d),
    }[node_class]


def test_criterion_7_contraction_structure_over_grids():
    target_signatures = {}
    checked = 0
    for family in ("path", "comet", "double_comet", "lollipop"):
        for spec in grid_specs(family, resolve_ranges(family, None)):
            lg = generate(spec)
            for v, node_class in enumerate(lg.classes):
                target = _contraction_target(spec, node_class)
                expected = target_signatures.get(target)
                if expected is None:
                    expected = distance_signature(generate(target).graph)
                    target_signatures[target] = expected
                actual = distance_signature(contract(lg.graph, v).graph)
                assert actual == expected, (
                    f"{spec.label()} at node {v} ({node_class.value}) "
                    f"is not a {target.label()}"
                )
                checked += 1
    assert checked > 5000
    _passed(f"7 contraction structure over full grids ({checked} contractions)")


def _cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "agglorank", *argv],
        capture_output=True, env=child_env(), **kwargs,
    )


def test_criterion_8_cli_contract(tmp_path):
    comet_file = tmp_path / "comet.edges"
    result = _cli("gen", "comet", "--s", "3", "--t", "5", "--output", str(comet_file))
    assert result.returncode == 0

    # byte determinism across repeated runs and parallelism settings
    rank_runs = [
        _cli("rank", str(comet_file), "--format", "json", "--jobs", jobs).stdout
        for jobs in ("1", "1", "4")
    ]
    assert rank_runs[0] == rank_runs[1] == rank_runs[2] and rank_runs[0]
    verify_runs = [
        _cli("verify", "lollipop", "--d", "4..6", "--nd", "2..4", "--jobs", jobs).stdout
        for jobs in ("1", "4")
    ]
    assert verify_runs[0] == verify_runs[1] and verify_runs[0]

    # exit-code contract
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n1 1\n")
    malformed = _cli("rank", str(bad))
    assert malformed.returncode == 2
    assert b"line 2" in malformed.stderr

    disconnected = tmp_path / "dis.edges"
    disconnected.write_text("0 1\n2 3\n")
    assert _cli("rank", str(disconnected)).returncode == 3
    assert _cli("phi", str(disconnected)).returncode == 3

    below_floor = _cli("verify", "comet", "--s", "1..5")
    assert below_floor.returncode == 2
    assert b"s >= 3" in below_floor.stderr

    ok = _cli("verify", "path", "--n", "4..8")
    assert ok.returncode == 0
    assert b"mismatches=0" in ok.stdout
    _passed("8 CLI determinism and exit-code contract")
