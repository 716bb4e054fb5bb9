"""CLI behavior: subcommands, formats, exit codes, determinism."""

import json
import time
from fractions import Fraction

import pytest

from agglorank import graph
from agglorank.cli import GEN_MAX_SIZE, main
from agglorank.families import FAMILIES
from agglorank.reports import decimal6

PATH4 = "0 1\n1 2\n2 3\n"
K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
DISCONNECTED = "0 1\n2 3\n"
TWO_TRIANGLES = "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text)
    return str(target)


class TestGen:
    def test_path(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "--n", "4")
        assert code == 0
        assert "# family path n=4" in out
        assert "# class 0 path_end" in out
        assert out.endswith("0 1\n1 2\n2 3\n")

    def test_comet(self, capsys):
        code, out, _ = run(capsys, "gen", "comet", "--s", "3", "--t", "4")
        assert code == 0
        assert "# class 3 comet_center" in out
        assert out.count("\n") == 1 + 7 + 6  # family + classes + edges

    def test_lollipop_figure_sizes(self, capsys):
        code, out, _ = run(capsys, "gen", "lollipop", "--n", "10", "--d", "5")
        assert code == 0
        edges = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(edges) == 4 + 5 + 10  # tail, junction-to-clique, clique pairs

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "double-comet", "--n", "4", "--a", "2", "--b", "1")
        assert code == 2
        assert "n - a - b >= 2" in err

    @pytest.fixture
    def no_build(self, monkeypatch):
        def build(spec):
            raise AssertionError(f"{spec.label()} was built")

        for cls in FAMILIES.values():
            monkeypatch.setattr(cls, "build", build)

    @pytest.mark.parametrize("argv", [
        ("path", "--n", "300000000"),
        ("lollipop", "--n", "100000", "--d", "2"),
        ("path", "--n", str(GEN_MAX_SIZE // 2 + 1)),  # one over: n + (n - 1)
    ])
    def test_oversized_family_exits_2_before_building(self, capsys, no_build, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert f"gen builds at most {GEN_MAX_SIZE} nodes plus edges" in err
        assert "Traceback" not in err

    def test_family_at_the_limit_is_built(self, capsys, no_build):
        with pytest.raises(AssertionError, match="was built"):
            main(["gen", "path", "--n", str(GEN_MAX_SIZE // 2)])

    def test_largest_family_in_use_is_admitted(self, capsys):
        code, out, _ = run(capsys, "gen", "lollipop", "--n", "200", "--d", "20")
        assert code == 0
        assert sum(not line.startswith("#") for line in out.splitlines()) == 16_309

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "p.edges"
        code, out, _ = run(capsys, "gen", "path", "--n", "3", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().endswith("0 1\n1 2\n")


class TestRank:
    def test_comet_pipeline_top_node_is_center(self, capsys, tmp_path):
        target = tmp_path / "comet.edges"
        assert main(["gen", "comet", "--s", "3", "--t", "4", "--output", str(target)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "rank", str(target))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "phi 3/46"
        assert lines[1] == "L 46/21"
        first = lines[3].split()
        assert first[:3] == ["3", "comet_center", "17/23"]

    def test_two_node_graph(self, capsys, tmp_path):
        source = write(tmp_path, "p2.edges", "0 1\n")
        code, out, _ = run(capsys, "rank", source)
        assert code == 0
        entry_lines = out.splitlines()[3:]
        assert [line.split()[:2] for line in entry_lines] == [["0", "1/2"], ["1", "1/2"]]

    def test_json_schema_and_round_trip(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, out, _ = run(capsys, "rank", source, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == "3/20"
        assert doc["avg_path_length"] == "5/3"
        assert [e["node"] for e in doc["entries"]] == [1, 2, 0, 3]
        assert all("class" not in e for e in doc["entries"])
        assert doc["entries"][0]["imc"] == "7/10"
        assert doc["entries"][0]["imc_decimal"] == "0.700000"
        resorted = sorted(
            doc["entries"], key=lambda e: (-Fraction(e["imc"]), e["node"])
        )
        assert resorted == doc["entries"]

    def test_csv(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, out, _ = run(capsys, "rank", source, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# phi 3/20"
        assert lines[2] == "node,imc,imc_decimal"
        assert lines[3] == "1,7/10,0.700000"

    def test_disconnected_exit_3(self, capsys, tmp_path):
        source = write(tmp_path, "dis.edges", DISCONNECTED)
        code, _, err = run(capsys, "rank", source)
        assert code == 3
        assert "unreachable" in err

    def test_parse_error_exit_2_with_line(self, capsys, tmp_path):
        source = write(tmp_path, "bad.edges", "0 1\n1 1\n")
        code, _, err = run(capsys, "rank", source)
        assert code == 2
        assert "line 2" in err

    def test_single_node_exit_2(self, capsys, tmp_path):
        source = write(tmp_path, "one.edges", "# n=1\n")
        code, _, err = run(capsys, "rank", source)
        assert code == 2

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "rank", str(tmp_path / "nope.edges"))
        assert code == 2

    def test_deterministic_across_jobs(self, capsys, tmp_path):
        target = tmp_path / "dc.edges"
        main(["gen", "double-comet", "--n", "9", "--a", "2", "--b", "3",
              "--output", str(target)])
        capsys.readouterr()
        outputs = set()
        for jobs in ("1", "1", "4"):
            code, out, _ = run(capsys, "rank", str(target), "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_bad_jobs(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, _, err = run(capsys, "rank", source, "--jobs", "0")
        assert code == 2


class TestPhi:
    def test_path10(self, capsys, tmp_path):
        source = write(tmp_path, "p10.edges", "".join(f"{i} {i+1}\n" for i in range(9)))
        code, out, _ = run(capsys, "phi", source)
        assert code == 0
        assert out.splitlines()[0] == "phi 3/110"

    def test_complete4(self, capsys, tmp_path):
        source = write(tmp_path, "k4.edges", K4)
        code, out, _ = run(capsys, "phi", source)
        assert code == 0
        assert out == "phi 1/4\nL 1\n"

    def test_single_node_has_phi_one(self, capsys, tmp_path):
        source = write(tmp_path, "one.edges", "# n=1\n")
        code, out, _ = run(capsys, "phi", source)
        assert code == 0
        assert out == "phi 1\n"

    def test_json(self, capsys, tmp_path):
        source = write(tmp_path, "k4.edges", K4)
        code, out, _ = run(capsys, "phi", source, "--format", "json")
        assert json.loads(out) == {"phi": "1/4", "avg_path_length": "1"}


class TestContract:
    def test_path_end(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, out, _ = run(capsys, "contract", source, "--node", "0")
        assert code == 0
        edges = [line for line in out.splitlines() if not line.startswith("#")]
        # survivors 2,3 become 0,1; the merged node takes id 2 and hangs off
        # old node 2, so the result is the 3-node path 1-0-2
        assert edges == ["0 1", "0 2"]
        assert "# merged 2" in out
        assert "# map 2 0" in out and "# map 3 1" in out

    def test_comet_center_to_path(self, capsys, tmp_path):
        target = tmp_path / "comet.edges"
        main(["gen", "comet", "--s", "3", "--t", "4", "--output", str(target)])
        capsys.readouterr()
        code, out, _ = run(capsys, "contract", str(target), "--node", "3")
        assert code == 0
        edges = [line for line in out.splitlines() if not line.startswith("#")]
        assert edges == ["0 1", "1 2"]

    def test_complete_collapses_to_declared_single_node(self, capsys, tmp_path):
        source = write(tmp_path, "k4.edges", K4)
        code, out, _ = run(capsys, "contract", source, "--node", "2")
        assert code == 0
        assert "# n=1" in out
        assert not [line for line in out.splitlines() if not line.startswith("#")]

    def test_bad_node_exit_2(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, _, err = run(capsys, "contract", source, "--node", "9")
        assert code == 2
        assert "out of range" in err

    def test_disconnected_exit_3(self, capsys, tmp_path):
        source = write(tmp_path, "dis.edges", DISCONNECTED)
        code, _, _ = run(capsys, "contract", source, "--node", "0")
        assert code == 3


class TestConnectivityPrecondition:
    """rank, phi and contract need a connected graph, so they refuse one that
    has fewer than n - 1 edges before allocating its n adjacency lists."""

    ARGS = {"rank": (), "phi": (), "contract": ("--node", "0")}

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_large_id_in_a_tiny_file_exits_3_quickly(self, capsys, tmp_path, command):
        source = write(tmp_path, "far.edges", "0 2000000")
        started = time.perf_counter()
        code, _, err = run(capsys, command, source, *self.ARGS[command])
        assert time.perf_counter() - started < 0.5
        assert code == 3
        assert "ids not dense" in err and "unreachable" in err

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_huge_declared_order_exits_3_before_allocating(self, capsys, tmp_path,
                                                           monkeypatch, command):
        build = graph._build

        def bounded_build(n, pairs):
            if n > 10**6:
                raise AssertionError(f"allocated the adjacency of {n} nodes")
            return build(n, pairs)

        monkeypatch.setattr(graph, "_build", bounded_build)
        source = write(tmp_path, "huge.edges", "# n=1000000000000\n")
        code, _, err = run(capsys, command, source, *self.ARGS[command])
        assert code == 3
        assert "ids not dense" in err

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_enough_edges_but_disconnected_names_the_node(self, capsys, tmp_path, command):
        source = write(tmp_path, "two.edges", TWO_TRIANGLES)
        code, _, err = run(capsys, command, source, *self.ARGS[command])
        assert code == 3
        assert err == "error: node 3 is unreachable from node 0\n"


class TestVerify:
    def test_path_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "path", "--n", "4..10")
        assert code == 0
        assert "mismatches=0" in out

    def test_single_value_range(self, capsys):
        code, out, _ = run(capsys, "verify", "comet", "--s", "3", "--t", "4")
        assert code == 0
        assert "C(3,4)" in out

    def test_below_formula_floor_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "comet", "--s", "2..5")
        assert code == 2
        assert "s >= 3" in err

    def test_lollipop_notes_in_output(self, capsys):
        code, out, _ = run(capsys, "verify", "lollipop", "--d", "4..5", "--nd", "3")
        assert code == 0
        assert "note: L(7,4)" in out
        assert "note: L(8,5)" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "path", "--n", "4..6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {"total": 9, "mismatches": 0}
        assert all(row["match"] for row in doc["rows"])

    def test_deterministic_across_jobs(self, capsys):
        outputs = set()
        for jobs in ("1", "3"):
            code, out, _ = run(capsys, "verify", "comet", "--s", "3..4", "--t", "4..5",
                               "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_bad_range_syntax(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "path", "--n", "4..x"])
        assert info.value.code == 2


class TestDecimalDisplay:
    def test_exact_values(self):
        assert decimal6(Fraction(7, 10)) == "0.700000"
        assert decimal6(Fraction(17, 23)) == "0.739130"
        assert decimal6(Fraction(1)) == "1.000000"

    def test_round_half_even(self):
        assert decimal6(Fraction(5, 10**7)) == "0.000000"   # ties to even (down)
        assert decimal6(Fraction(15, 10**7)) == "0.000002"  # ties to even (up)

    def test_negative(self):
        assert decimal6(Fraction(-1, 3)) == "-0.333333"
