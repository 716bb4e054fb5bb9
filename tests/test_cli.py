"""CLI behavior: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agglorank import agglomeration, cli, graph
from agglorank.cli import _range_arg, main
from agglorank.contraction import contract, contract_text
from agglorank.families import (FAMILIES, MAX_SIZE, LollipopSpec, NodeClass, PathSpec, generate,
                                 read_labeled, write_labeled)
from agglorank.graph import parse_edge_list, to_edge_list
from agglorank.reports import decimal6
from agglorank.verify import grid_specs

from conftest import child_env
from oracles import (drain_tuple_free_lists, graph_bytes, random_connected_graph,
                     random_edge_text)

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


@pytest.fixture
def no_build(monkeypatch):
    def build(spec):
        raise AssertionError(f"{spec.label()} was built")

    for cls in FAMILIES.values():
        monkeypatch.setattr(cls, "build", build)


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

    @pytest.mark.parametrize("argv", [
        ("path", "--n", "300000000"),
        ("lollipop", "--n", "100000", "--d", "2"),
        ("path", "--n", str(MAX_SIZE // 2 + 1)),  # one over: n + (n - 1)
    ])
    def test_oversized_family_exits_2_before_building(self, capsys, no_build, argv):
        code, out, err = run(capsys, "gen", *argv)
        assert code == 2 and out == ""
        assert f"gen builds at most {MAX_SIZE} nodes plus edges" in err
        assert "Traceback" not in err

    def test_family_at_the_limit_is_built(self, capsys, no_build):
        with pytest.raises(AssertionError, match="was built"):
            main(["gen", "path", "--n", str(MAX_SIZE // 2)])

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

    def test_crlf_labeled_file_parses_in_bulk_and_ranks_the_same(self, capsys, tmp_path,
                                                                 monkeypatch):
        lg = generate(LollipopSpec(12, 4))
        lf = write_labeled(lg)
        crlf = lf.replace("\n", "\r\n")

        def no_lines(text, connected):
            raise AssertionError("CRLF text went line by line")

        monkeypatch.setattr(graph, "_parse_lines", no_lines)
        assert read_labeled(crlf) == lg
        outputs = []
        for name, text in (("lf.edges", lf), ("crlf.edges", crlf)):
            (tmp_path / name).write_bytes(text.encode())
            outputs.append(run(capsys, "rank", str(tmp_path / name)))
        assert outputs[0][0] == 0 and "lp_junction" in outputs[0][1]
        assert outputs[1] == outputs[0]

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

    def test_declared_order_zero_exit_2_with_line(self, capsys, tmp_path):
        source = write(tmp_path, "zero.edges", "# n=0\n0 1\n")
        assert run(capsys, "rank", source) == (
            2, "", "error: line 1: declared order must be at least 1\n")

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "rank", str(tmp_path / "nope.edges"))
        assert code == 2

    def test_deterministic_across_jobs(self, capsys, tmp_path, cpus, forks):
        cpus(2)
        target = tmp_path / "dc.edges"
        main(["gen", "double-comet", "--n", "80", "--a", "2", "--b", "3",
              "--output", str(target)])
        capsys.readouterr()
        assert 80 * 80 >= agglomeration._FORK_MIN_WORK
        outputs = set()
        for jobs in ("1", "1", "4"):
            code, out, _ = run(capsys, "rank", str(target), "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        assert forks == []  # a double comet is a tree, ranked without contracting
        target = tmp_path / "lollipop.edges"
        main(["gen", "lollipop", "--n", "80", "--d", "20", "--output", str(target)])
        capsys.readouterr()
        outputs = set()
        for jobs in ("1", "1", "4"):
            code, out, _ = run(capsys, "rank", str(target), "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        assert len(forks) == 1

    def test_bad_jobs(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, _, err = run(capsys, "rank", source, "--jobs", "0")
        assert code == 2
        assert err == "error: --jobs must be at least 1\n"


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


def contract_both_ways(text, node):
    """``contract``'s (exit code, stdout, stderr, --output bytes) on text, first
    as the command runs, then with ``contract_text`` declining, so that the
    text goes parse_edge_list, bfs_distances, contract as it did before."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        source, target = Path(tmp, "in.edges"), Path(tmp, "out.edges")
        source.write_bytes(text.encode())
        argv = ["contract", str(source), "--node", str(node)]
        for declined in (False, True):
            with mock.patch.object(cli, "contract_text", lambda text, v: None) if declined \
                    else contextlib.nullcontext():
                target.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                    assert main([*argv, "--output", str(target)]) == code
                written = target.read_bytes() if target.exists() else None
            outcomes.append((code, out.getvalue(), err.getvalue(), written))
    return outcomes


def assert_contract_as_before(text, node, new_path):
    """The new path (when ``new_path``) and the old give the same bytes, the
    same errors and the same exit codes; a success prints ``contract``'s result."""
    new, old = contract_both_ways(text, node)
    assert new == old
    assert (contract_text(text, node) is not None) == new_path
    code, out, err, written = new
    if code == 0:
        result = contract(parse_edge_list(text), node)
        expected = (f"# merged {result.merged_into}\n"
                    + "".join(f"# map {old} {new}\n" for old, new in result.old_to_new.items())
                    + to_edge_list(result.graph))
        assert (out, err, written) == (expected, "", expected.encode())


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

    def test_whole_output_with_map_lines_in_old_id_order(self, capsys, tmp_path):
        source = write(tmp_path, "p6.edges", "0 1\n1 2\n2 3\n3 4\n4 5\n")
        code, out, _ = run(capsys, "contract", source, "--node", "2")
        assert code == 0
        assert out == "# merged 3\n# map 0 0\n# map 4 1\n# map 5 2\n0 3\n1 2\n1 3\n"

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

    # 10,000 old ids write their "# map" lines in three blocks; contracting a
    # node of K4 leaves the 1-node graph, written with "# n=1".
    @pytest.mark.parametrize("text,node", [(random_edge_text(10_000, 20_000), 0), (K4, 2)],
                             ids=["three-map-blocks", "one-node"])
    def test_stdout_and_output_file_are_merged_then_map_then_edges(self, capsys, tmp_path,
                                                                    text, node):
        result = contract(parse_edge_list(text), node)
        expected = (f"# merged {result.merged_into}\n"
                    + "".join(f"# map {old} {new}\n" for old, new in result.old_to_new.items())
                    + to_edge_list(result.graph))
        source = write(tmp_path, "in.edges", text)
        target = tmp_path / "out.edges"
        assert run(capsys, "contract", source, "--node", str(node)) == (0, expected, "")
        assert run(capsys, "contract", source, "--node", str(node), "--output", str(target)) \
            == (0, "", "")
        assert target.read_bytes() == expected.encode()

    def test_peak_memory_stays_near_one_graph(self, tmp_path):
        # contract builds only the contracted graph, from the text's id blocks,
        # and writes its text in blocks: no input graph, no id map, no
        # whole-output string, no encoded copy.  The bound is the parse's own.
        text = random_edge_text(20_000, 40_000)
        g = parse_edge_list(text, connected=True)
        size = graph_bytes(g)
        hub = max(range(g.n), key=lambda v: len(g.adj[v]))
        source = write(tmp_path, "sparse.edges", text)
        del g, text
        held = drain_tuple_free_lists()
        tracemalloc.start()
        try:
            code = main(["contract", source, "--node", str(hub),
                         "--output", str(tmp_path / "out.edges")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del held
        assert code == 0
        assert peak < 2 * size, f"contract peak {peak} B for an input graph of {size} B"

    def test_bad_node_exit_2(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, _, err = run(capsys, "contract", source, "--node", "9")
        assert code == 2
        assert err == "error: node 9 out of range for graph of order 4\n"

    def test_an_id_too_long_for_int_exit_2_with_line(self, capsys, tmp_path):
        # int() refuses a 5,000-digit id, so the line that holds v cannot be
        # read without the line path, which names it.
        text = f"0 1\n1 {'9' * 5000}\n"
        assert contract_text(text, 1) is None
        source = write(tmp_path, "long.edges", text)
        code, out, err = run(capsys, "contract", source, "--node", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: non-integer node id in '1 999")

    def test_disconnected_exit_3(self, capsys, tmp_path):
        source = write(tmp_path, "dis.edges", DISCONNECTED)
        code, _, _ = run(capsys, "contract", source, "--node", "0")
        assert code == 3

    # contract of plain, connected text builds G/v without G; every other
    # input goes the old way, and both ways agree to the byte.
    @given(st.integers(2, 14), st.integers(0, 2**32 - 1),
           st.sampled_from(["hub", "leaf", "zero", "everything"]))
    @settings(max_examples=150, deadline=None)
    def test_new_path_agrees_on_connected_graphs(self, n, seed, pick):
        rng = random.Random(seed)
        g = random_connected_graph(rng, n)
        edges = list(g.edges())
        if pick == "everything":  # N[v] is all of V, so the result is "# n=1"
            node = rng.randrange(n)
            edges = sorted({(min(node, w), max(node, w)) for w in range(n) if w != node}
                           | set(edges))
        elif pick == "zero":
            node = 0
        else:
            degrees = [len(nbrs) for nbrs in g.adj]
            node = degrees.index((max if pick == "hub" else min)(degrees))
        rng.shuffle(edges)
        text = "".join(f"{u} {w}\n" if rng.random() < 0.5 else f"{w} {u}\n" for u, w in edges)
        assert_contract_as_before(text, node, new_path=True)

    @pytest.mark.parametrize("text,node,new_path", [
        ("0 1\n", 0, True),                                 # P2: one node
        ("0 1\n", 1, True),
        (K4, 2, True),
        ("# class 0 x\n00 01\n# 1 7\n01 2\n2 3", 1, True),  # comments, zeros, no last break
        ("0 1\r\n1 2\r\n2 3\r\n", 1, True),                 # CRLF reads in bulk
        ("0 1\n1 1\n1 2\n", 0, False),                      # self-loop inside S
        ("0 1\n1 2\n2 1\n", 0, False),                      # duplicate survivor-S edge
        ("0 1\n1 0\n1 2\n", 0, False),                      # duplicate inside S
        ("0 1\n1 2\n2 3\n3 3\n", 0, False),                 # self-loop between survivors
        ("0 1\n1 2\n2 3\n3 2\n", 0, False),                 # duplicate between survivors
        (TWO_TRIANGLES, 4, False),                          # S unreachable, and it holds node 3
        (TWO_TRIANGLES, 0, False),                          # S reachable, node 3 is not
        ("0 1\n1 2\n3 4\n4 5\n5 3\n", 0, False),            # S and a survivor, then a triangle
        ("0 1\n1 2\n2 0\n3 4\n", 4, False),                 # too few edges for the order
        ("0 1\n1 3\n", 2, False),                           # v is in no edge
        (PATH4, 4, False),                                  # --node at n
        (PATH4, 9, False),                                  # --node above n
        (PATH4, -1, False),
        ("0\t1\n1\t2\n", 1, False),                         # tab-separated
        ("# n=3\n0 1\n1 2\n", 0, False),                    # order header
        ("# n=4\n0 1\n1 2\n", 0, False),
        ("0 1\n1 2x\n", 1, False),                          # a line that is no edge
        ("1 2\n2 3\n", 2, False),                           # node 0 is in no edge
    ])
    def test_new_path_agrees_with_the_old(self, text, node, new_path):
        assert_contract_as_before(text, node, new_path)


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
    def test_an_id_that_is_no_ascii_decimal_exits_2(self, capsys, tmp_path, command):
        # int() reads "1_0" as 10, which would name 11 nodes for one edge.
        source = write(tmp_path, "underscore.edges", "1_0 2\n")
        code, _, err = run(capsys, command, source, *self.ARGS[command])
        assert (code, err) == (2, "error: line 1: non-integer node id in '1_0 2'\n")

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_huge_declared_order_exits_3_before_allocating(self, capsys, tmp_path,
                                                           monkeypatch, command):
        build = graph._from_blocks

        def bounded_build(blocks, limit, order=0, **flags):
            if order > 10**6:
                raise AssertionError(f"allocated the adjacency of {order} nodes")
            return build(blocks, limit, order, **flags)

        monkeypatch.setattr(graph, "_from_blocks", bounded_build)
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


class TestEncoding:
    """rank, phi and contract read their input as UTF-8."""

    ARGS = TestConnectivityPrecondition.ARGS

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_non_utf8_file_exits_2_naming_the_path(self, capsys, tmp_path, command):
        source = tmp_path / "bytes.edges"
        source.write_bytes(b"\xff\xfe0 1\n")
        code, out, err = run(capsys, command, str(source), *self.ARGS[command])
        assert code == 2
        assert out == ""
        assert err == (f"error: {source}: not UTF-8 text ('utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte)\n")

    ASCII_LOCALE = child_env(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")

    def run_in_ascii_locale(self, *argv):
        return subprocess.run([sys.executable, "-m", "agglorank", *argv], capture_output=True,
                              env=self.ASCII_LOCALE, timeout=60)

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_utf8_is_read_whatever_the_locale(self, tmp_path, command):
        source = tmp_path / "accents.edges"
        source.write_bytes("# caf\u00e9 \u2014 \u0663\n0 1\n1 2\n".encode())
        proc = self.run_in_ascii_locale(command, str(source), *self.ARGS[command])
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_utf8_is_written_whatever_the_locale(self, tmp_path):
        source = tmp_path / "classes.edges"
        source.write_bytes("# class 0 caf\u00e9\n0 1\n1 2\n".encode())
        expected = ("phi 1/4\n"
                    "L 4/3\n"
                    "node  class  imc  imc_decimal\n"
                    "1     -      3/4  0.750000\n"
                    "0     caf\u00e9   1/2  0.500000\n"
                    "2     -      1/2  0.500000\n").encode()
        proc = self.run_in_ascii_locale("rank", str(source))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")
        target = tmp_path / "ranking.txt"
        proc = self.run_in_ascii_locale("rank", str(source), "--output", str(target))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert target.read_bytes() == expected


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

    def test_deterministic_across_jobs(self, capsys, cpus, forks):
        cpus(3)
        specs = grid_specs("comet", {"s": (3, 4), "t": (4, 20)})
        assert sum(spec.order**2 for spec in specs) >= agglomeration._FORK_MIN_WORK
        outputs = set()
        for jobs in ("1", "3"):
            code, out, _ = run(capsys, "verify", "comet", "--s", "3..4", "--t", "4..20",
                               "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        assert forks == []  # comets are trees, ranked without contracting
        outputs = set()
        for jobs in ("1", "3"):
            code, out, _ = run(capsys, "verify", "lollipop", "--jobs", jobs)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1
        assert len(forks) == 2

    @pytest.mark.parametrize("argv", [
        ("path", "--n", "4..20000"),
        ("path", "--n", "4..1000000000000"),
        ("path", "--n", "1000001"),  # one over: n + (n - 1)
        ("lollipop", "--d", "4", "--nd", "2000"),  # one graph of about 2 M edges
        ("comet", "--s", "3..2000", "--t", "4..2000"),  # more points than the limit
    ])
    def test_oversized_grid_exits_2_before_building(self, capsys, no_build, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: the ")
        assert f"nodes plus edges; verify builds at most {MAX_SIZE}" in err
        assert "Traceback" not in err

    def test_ordering_violation_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(PathSpec, "expected_order",
                            lambda self: [(NodeClass.PATH_END, ">", NodeClass.PATH_INNER)])
        code, out, err = run(capsys, "verify", "path", "--n", "4..4")
        assert (code, err) == (4, "")
        assert "violation: P(4): expected imc(path_end) > imc(path_inner)\n" in out
        assert out.endswith("summary total=3 mismatches=1\n")

    def test_bad_jobs(self, capsys):
        assert run(capsys, "verify", "path", "--jobs", "0") == (
            2, "", "error: --jobs must be at least 1\n")

    def test_bad_range_syntax(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "path", "--n", "4..x"])
        assert info.value.code == 2

    # Non-ASCII digits, which int() reads, and a trailing newline, which "$" allows.
    @pytest.mark.parametrize("text", ["٤..٦", "１", "4..٦", "4..6\n", "5\n", " 5", "4..",
                                      "..6", "4...6", ""])
    def test_a_range_is_ascii_decimal(self, capsys, no_build, text):
        with pytest.raises(SystemExit) as info:
            main(["verify", "path", "--n", text])
        assert info.value.code == 2
        assert f"expected N or LO..HI, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("text,bounds", [("4..6", (4, 6)), ("5", (5, 5)), ("07..010", (7, 10))])
    def test_a_range_reads_n_or_lo_hi(self, text, bounds):
        assert _range_arg(text) == bounds


class TestStartup:
    """A command imports only the modules it runs; the package loads each
    public name on first use."""

    def test_rank_loads_neither_verify_nor_the_closed_forms(self, tmp_path):
        source = write(tmp_path, "p2.edges", "0 1\n")
        probe = ("import sys\nfrom agglorank.cli import main\n"
                 f"assert main(['rank', {source!r}, '--jobs', '1']) == 0\n"
                 "print(' '.join(sorted(m for m in sys.modules if m.startswith('agglorank'))))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=child_env(), check=True)
        loaded = done.stdout.splitlines()[-1].split()
        assert "agglorank.cli" in loaded
        assert "agglorank.verify" not in loaded and "agglorank.closed_forms" not in loaded

    def test_every_public_name_resolves_and_is_listed(self):
        import agglorank

        listed = dir(agglorank)
        for name in agglorank.__all__:
            assert getattr(agglorank, name) is not None and name in listed
        assert agglorank.closed_forms is sys.modules["agglorank.closed_forms"]
        assert agglorank.contract is contract
        with pytest.raises(AttributeError):
            agglorank.no_such_name


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
