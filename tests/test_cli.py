"""CLI behavior: subcommands, formats, exit codes, determinism."""

import array
import codecs
import contextlib
import io
import json
import os
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

from agglorank import agglomeration, cli, contraction, graph, reports, verify
from agglorank.cli import _range_arg, main
from agglorank.contraction import contract, contract_text
from agglorank.errors import ConnectivityError, EdgeListError
from agglorank.families import (FAMILIES, MAX_SIZE, LollipopSpec, NodeClass, PathSpec, generate,
                                 read_labeled, write_labeled)
from agglorank.graph import from_edge_list, parse_edge_list, to_edge_list
from agglorank.options import FORMATS
from agglorank.reports import decimal6
from agglorank.verify import grid_specs

from conftest import child_env
from oracles import (drain_tuple_free_lists, graph_bytes, random_connected_graph,
                     random_edge_text)

PATH4 = "0 1\n1 2\n2 3\n"
K4 = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
DISCONNECTED = "0 1\n2 3\n"
TWO_TRIANGLES = "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"
# A field one digit longer than int() reads; with no limit, such cases skip.
_LONG = "9" * (sys.get_int_max_str_digits() + 1)
_ANY_LENGTH = pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                                 reason="int() reads any length")


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
    as the command runs, then with ``contract_text`` declining (handing the
    text back), so that the text goes parse_edge_list, bfs_distances, contract
    as it did before."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        source, target = Path(tmp, "in.edges"), Path(tmp, "out.edges")
        source.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = ["contract", str(source), "--node", str(node)]
        for declined in (False, True):
            with mock.patch.object(cli, "contract_text", _declined) if declined \
                    else contextlib.nullcontext():
                target.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                    assert main([*argv, "--output", str(target)]) == code
                written = target.read_bytes() if target.exists() else None
            outcomes.append((code, out.getvalue(), err.getvalue(), written))
    return outcomes


def _declined(text, v):
    return text


def assert_contract_as_before(text, node, new_path):
    """The new path (when ``new_path``) and the old give the same bytes, the
    same errors and the same exit codes; a success prints ``contract``'s result."""
    new, old = contract_both_ways(text, node)
    assert new == old
    assert (contract_text(text, node) is not text) == new_path
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
        # in flat int arrays, and writes its text in blocks: no input graph, no
        # list per node, no id map, no whole-output string, no encoded copy,
        # and no whole text, which it reads in pieces.  Once imported, it
        # peaks at about 0.43 times the input graph's size; holding the text
        # whole it read 0.60 times, and built as one list per node 1.96 times.
        text = random_edge_text(20_000, 40_000)
        g = parse_edge_list(text, connected=True)
        size = graph_bytes(g)
        hub = max(range(g.n), key=lambda v: len(g.adj[v]))
        source = write(tmp_path, "sparse.edges", text)
        del g, text
        argv = ["contract", source, "--node", str(hub), "--output", str(tmp_path / "out.edges")]
        main(argv)  # imports and compiled patterns
        held = drain_tuple_free_lists()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del held
        assert code == 0
        assert peak < 0.5 * size, f"contract peak {peak} B for an input graph of {size} B"

    def test_plain_connected_text_is_written_without_a_graph(self, capsys, monkeypatch,
                                                            tmp_path):
        # G/v is written from the builder's sorted neighbour lists, so no
        # Graph is made, and the bytes are those of the parse-then-contract path.
        text = random_edge_text(2_000, 4_000)
        g = parse_edge_list(text, connected=True)
        hub = max(range(g.n), key=lambda v: len(g.adj[v]))
        source = write(tmp_path, "sparse.edges", text)
        with mock.patch.object(cli, "contract_text", _declined):
            fallback = run(capsys, "contract", source, "--node", str(hub))
        assert fallback[0] == 0
        monkeypatch.setattr(graph, "Graph", _no_graph)
        assert run(capsys, "contract", source, "--node", str(hub)) == fallback

    def test_bad_node_exit_2(self, capsys, tmp_path):
        source = write(tmp_path, "p4.edges", PATH4)
        code, _, err = run(capsys, "contract", source, "--node", "9")
        assert code == 2
        assert err == "error: node 9 out of range for graph of order 4\n"

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_a_node_wider_than_64_bits_is_named_by_its_digit_count(self, capsys, tmp_path,
                                                                   sign):
        # As every other message names a number wider than 64 bits.
        source = write(tmp_path, "p3.edges", "0 1\n1 2\n")
        assert run(capsys, "contract", source, "--node", sign + "9" * 100) \
            == (2, "", f"error: node {sign}<100 digits> out of range for graph of order 3\n")

    @_ANY_LENGTH
    @pytest.mark.parametrize("command", ["rank", "phi", "contract"])
    def test_an_id_too_long_for_int_exit_2_with_line(self, capsys, tmp_path, command):
        # int() refuses the id, so the line that holds it cannot be read
        # without the line path, which names it by its digit count.
        text = f"0 1\n1 {_LONG}\n"
        assert contract_text(text, 1) is text
        source = write(tmp_path, "long.edges", text)
        assert run(capsys, command, source, *TestConnectivityPrecondition.ARGS[command]) \
            == (2, "", f"error: line 2: node id of {len(_LONG)} digits is too long\n")

    @_ANY_LENGTH
    def test_an_id_too_long_for_int_away_from_v_exits_as_the_line_parser(self, capsys, tmp_path):
        # The lines that hold v read, but the block with the long id does not,
        # so contract_text declines and the line parser names the line.
        text = f"0 1\n1 2\n2 {_LONG}\n"
        assert contract_text(text, 0) is text
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text, connected=True)
        source = write(tmp_path, "long.edges", text)
        assert run(capsys, "contract", source, "--node", "0") == (2, "", f"error: {info.value}\n")

    def test_disconnected_exit_3(self, capsys, tmp_path):
        source = write(tmp_path, "dis.edges", DISCONNECTED)
        code, _, _ = run(capsys, "contract", source, "--node", "0")
        assert code == 3

    # contract of plain, connected text builds G/v without G; every other
    # input goes the old way, and both ways agree to the byte.  The lines
    # come shuffled with either end first, canonical (sorted, the smaller end
    # first), or shuffled with one duplicate or self-loop put in.
    @given(st.integers(2, 14), st.integers(0, 2**32 - 1),
           st.sampled_from(["hub", "leaf", "zero", "everything"]),
           st.sampled_from(["shuffled", "canonical", "repeat"]))
    @settings(max_examples=150, deadline=None)
    def test_new_path_agrees_on_connected_graphs(self, n, seed, pick, form):
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
        if form == "canonical":
            text = "".join(f"{u} {w}\n" for u, w in sorted(edges))
        else:
            rng.shuffle(edges)
            if form == "repeat":
                u = rng.randrange(n)
                edges.insert(rng.randrange(len(edges) + 1),
                             rng.choice([(u, u), rng.choice(edges)]))
            text = "".join(f"{u} {w}\n" if rng.random() < 0.5 else f"{w} {u}\n"
                           for u, w in edges)
        assert_contract_as_before(text, node, new_path=form != "repeat")

    @pytest.mark.parametrize("text,node,new_path", [
        ("0 1\n", 0, True),                                 # P2: one node
        ("0 1\n", 1, True),
        (K4, 2, True),
        ("# class 0 x\n00 01\n# 1 7\n01 2\n2 3", 1, True),  # comments, zeros, no last break
        ("1 0\n# see 1\n2 001\n2 3\n", 1, True),          # v first on line 1, a comment
        ("0 1\r\n1 2\r\n2 3\r\n", 1, True),                 # CRLF reads in bulk
        ("0 1\n1 1\n1 2\n", 0, False),                      # self-loop inside S
        ("0 1\n1 2\n2 1\n", 0, False),                      # duplicate survivor-S edge
        ("0 1\n1 0\n1 2\n", 0, False),                      # duplicate inside S
        ("0 1\n1 2\n2 3\n3 3\n", 0, False),                 # self-loop between survivors
        ("0 1\n1 2\n2 3\n3 2\n", 0, False),                 # duplicate between survivors
        ("3 3\n2 3\n1 2\n0 1\n", 0, False),                 # the same, in lines sorted after
        ("3 2\n0 1\n1 2\n2 3\n", 0, False),
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


class TestContractNumbering:
    """contract_text renumbers the old ids in the builder's node table, with
    the merged node entering as old id top + 1; the output is contract's."""

    # Plain text's id bound is lines + 1, with lines = newlines + 1: 4 here.
    # Id 4 leaves a node in no edge, so every node declines before the
    # connectivity search starts.
    @pytest.mark.parametrize("node", [0, 1, 4])
    def test_an_id_at_the_bound_declines(self, node):
        text = "0 1\n1 4\n"
        with mock.patch("agglorank.contraction._check_connected", _no_search):
            assert contract_text(text, node) is text
        assert_contract_as_before(text, node, new_path=False)
        # Run once to stdout and once with --output, each with the same error.
        error = "error: 2 edges cannot connect 5 nodes (ids not dense?): a node is unreachable\n"
        assert contract_both_ways(text, node)[0] == (3, "", 2 * error, None)

    @pytest.mark.parametrize("node", [0, 1, 5, 6], ids=["bottom", "bottom, 0 a survivor",
                                                         "top, 6 a survivor", "top"])
    def test_the_contracted_set_at_either_end_of_the_ids(self, node):
        text = "3 4\n0 1\n5 6\n1 2\n2 3\n4 5\n"
        assert_contract_as_before(text, node, new_path=True)

    @pytest.mark.parametrize("text,node", [("0 1\n0 2\n0 3\n", 0), ("3 1\n2 3\n0 3\n", 3),
                                           ("1 0\n", 1), (K4, 3)])
    def test_the_one_node_result(self, text, node):
        assert rows_of(contract_text(text, node)) == parse_edge_list("# n=1\n").adj
        assert_contract_as_before(text, node, new_path=True)

    def test_survivors_touch_the_contracted_set_from_below_and_above(self):
        # N[3] = {1, 3, 5}; survivors 0 and 2 lie below parts of it, 4 between
        # and 6 above all of it, and each is joined once to the merged node.
        text = "3 1\n3 5\n0 1\n2 1\n4 5\n6 5\n2 4\n0 6\n2 5\n"
        contracted = contract_text(text, 3)
        assert rows_of(contracted) \
            == from_edge_list([(0, 4), (1, 4), (2, 4), (3, 4), (1, 2), (0, 3)]).adj
        assert list(contracted[2]) == [0, 2, 4, 6]
        assert_contract_as_before(text, 3, new_path=True)

    @pytest.mark.parametrize("text,node", [
        ("0 2\n3 2\n0 3\n5 0\n1 4\n4 5\n1 6\n", 1),      # S = N[1] = {1, 4, 6}
        ("0 1\n0 6\n1 2\n2 3\n3 4\n4 5\n5 6\n", 0),      # S = {0, 1, 6}, at both ends
        ("0 5\n1 2\n1 5\n2 3\n3 4\n4 5\n5 6\n", 5),      # S = {0, 1, 4, 5, 6}
    ], ids=["shuffled", "canonical", "canonical, S in a run"])
    def test_renumbering_runs_once_per_node_of_the_table(self, monkeypatch, text, node):
        # The node table grows over blocks of a few lines, by ranges between
        # the members of S, and holds u minus the members of S below it for
        # every old id u, 0..top, once each.  The merged node takes the last
        # new id outside it.
        monkeypatch.setattr(graph, "_BLOCK_CHARS", 8)
        made = []

        class Recorded(array.array):
            def __new__(cls, *args):
                made.append(super().__new__(cls, *args))
                return made[-1]

        g = parse_edge_list(text, connected=True)
        members = {node, *g.adj[node]}
        with monkeypatch.context() as patch:
            patch.setattr(array, "array", Recorded)
            contracted = contract_text(text, node)
        assert rows_of(contracted) == contract(g, node).graph.adj
        node_table = made[0]
        assert list(node_table) == [u - sum(s < u for s in members) for u in range(g.n)]

    # Canonical lines need no sort.  Any other order, even sorted lines with
    # the larger end first, is sorted into canonical columns once.
    @pytest.mark.parametrize("order,sorts", [("canonical", 0), ("larger end first", 1),
                                             ("shuffled", 1)])
    def test_edges_are_sorted_once_for_any_other_line_order(self, monkeypatch, order, sorts):
        g = parse_edge_list(random_edge_text(300, 900), connected=True)
        edges = list(g.edges())
        if order != "canonical":
            edges = [(w, u) for u, w in edges]
        if order == "shuffled":
            random.Random(order).shuffle(edges)
        text = "".join(f"{u} {w}\n" for u, w in edges)
        hub = max(range(g.n), key=lambda v: len(g.adj[v]))
        calls = []
        sorted_edges = contraction._sorted_edges
        monkeypatch.setattr(contraction, "_sorted_edges",
                            lambda *args: calls.append(0) or sorted_edges(*args))
        assert rows_of(contract_text(text, hub)) == contract(g, hub).graph.adj
        assert len(calls) == sorts
        assert_contract_as_before(text, hub, new_path=True)


def _no_sort(ids, n):
    raise AssertionError("canonical text was sorted")


class TestSortedText:
    """Canonical text (u < w on each line, lines strictly ascending) is
    contracted without a sort: its edge array is written as it stands, and G
    is checked connected by a union-find over it.  Text with any line out of
    place is sorted into the same canonical columns first.  The bytes, the
    errors and the exit codes are those of the parser of record."""

    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_canonical_text_contracts_as_the_parser_of_record_at_every_node(self, n, seed):
        g = random_connected_graph(random.Random(seed), n)
        text = to_edge_list(g)
        with mock.patch.object(contraction, "_sorted_edges", _no_sort):
            for node in range(n):
                assert_contract_as_before(text, node, new_path=True)

    @pytest.mark.parametrize("text,node", [
        ("0 1\r\n0 2\r\n1 3\r\n2 3\r\n3 4\r\n", 1),        # CRLF
        ("# class 0 x\n0 1\n# 2 1\n0 2\n1 3\n#\n2 3\n3 4", 3),  # comments, no last break
        (K4, 1),                                               # the one-node result
        ("0 1\n0 4\n1 2\n2 3\n3 4\n4 5\n", 0),                # S at the bottom of the ids
        ("0 1\n0 4\n1 2\n2 3\n3 4\n4 5\n", 5),                # S at the top
        ("0 1\n1 2\n1 3\n1 4\n", 1),                           # every survivor next to S
    ], ids=["crlf", "comments", "one node", "S at the bottom", "S at the top", "star"])
    def test_canonical_forms_take_no_sort(self, text, node):
        with mock.patch.object(contraction, "_sorted_edges", _no_sort):
            assert_contract_as_before(text, node, new_path=True)

    def test_a_line_out_of_order_after_a_block_boundary_is_sorted(self, monkeypatch):
        # Blocks of two lines: lines 1 and 2 are swapped, so each block is in
        # order and only the first line of the second block is out of place.
        monkeypatch.setattr(graph, "_BLOCK_CHARS", 8)
        text = "0 1\n2 3\n1 2\n3 4\n4 5\n5 6\n"
        assert [block for block in graph._plain_blocks(text)][:2] == [[0, 1, 2, 3], [1, 2, 3, 4]]
        sorts = []
        sorted_edges = contraction._sorted_edges
        monkeypatch.setattr(contraction, "_sorted_edges", lambda *args: sorts.append(0)
                            or sorted_edges(*args))
        for node in (0, 3, 6):
            assert_contract_as_before(text, node, new_path=True)
        assert sorts

    # A repeated line breaks the strict ascent, so the text is not canonical;
    # either a repeat that touches S or the sort finds it, and the text goes
    # back to the parser of record, which names the line.
    @pytest.mark.parametrize("node", [0, 2], ids=["repeat away from S", "repeat in S's edges"])
    def test_a_duplicate_in_a_sorted_run_declines(self, node):
        text = "0 1\n1 2\n2 3\n2 3\n3 4\n"
        assert_contract_as_before(text, node, new_path=False)
        assert contract_both_ways(text, node)[0][:3] == (
            2, "", 2 * "error: line 4: duplicate edge 2 3\n")

    # Disconnected plain text, in any line order, is read to its end, then
    # the union-find finds it disconnected: contract_text raises the error of
    # the parser of record, which names the lowest node not joined to node 0,
    # with no parse.
    @pytest.mark.parametrize("text,node,unreachable", [
        ("0 1\n0 2\n1 2\n3 4\n", 0, 3),    # node 0 in N[v]
        ("0 1\n0 2\n1 2\n3 4\n", 1, 3),
        ("0 1\n0 2\n1 2\n3 4\n", 3, 3),    # node 0 a survivor, the lowest unjoined in S
        ("0 1\n0 2\n1 2\n2 4\n", 0, 3),    # node 3 is in no edge, below the bound
        ("0 1\n0 2\n1 2\n2 4\n", 4, 3),
        (TWO_TRIANGLES, 4, 3),                # out of order: S unreachable, and it holds node 3
        (TWO_TRIANGLES, 0, 3),                # S reachable, node 3 is not
        ("0 1\n1 2\n3 4\n4 5\n5 3\n", 0, 3),  # S and a survivor, then a triangle
        ("0 1\n1 2\n2 0\n3 4\n", 4, 3),       # too few edges for the order
    ])
    def test_disconnected_text_raises_the_error_of_the_parser_of_record(
            self, capsys, monkeypatch, tmp_path, text, node, unreachable):
        with pytest.raises(ConnectivityError) as parsed:
            graph.bfs_distances(parse_edge_list(text, connected=True), 0)
        with pytest.raises(ConnectivityError) as contracted:
            contract_text(text, node)
        assert (str(contracted.value), contracted.value.unreachable) \
            == (str(parsed.value), parsed.value.unreachable) \
            == (f"node {unreachable} is unreachable from node 0", unreachable)
        source = write(tmp_path, "dis.edges", text)
        with mock.patch.object(cli, "contract_text", _declined):
            expected = run(capsys, "contract", source, "--node", str(node))
        assert expected == (3, "", f"error: {parsed.value}\n")
        monkeypatch.setattr(cli, "parse_edge_list", _no_parse)
        assert run(capsys, "contract", source, "--node", str(node)) == expected

    @pytest.mark.parametrize("order", ["canonical", "shuffled"])
    def test_the_text_is_freed_once_parsed(self, monkeypatch, tmp_path, order):
        # The command keeps no reference to the text, and contract_text drops
        # its own once the last block is read and, in any other order, the
        # edges are sorted, so while G is checked connected and G/v is written
        # the traced memory holds G/v's edge columns (8 bytes an edge) and a
        # block of lines, not the text (21 characters an edge here); a text
        # held past parsing overshoots the bound.
        g = parse_edge_list(random_edge_text(20_000, 40_000), connected=True)
        text = to_edge_list(g)
        if order == "shuffled":  # the lines shuffled, each either way round
            rng = random.Random(order)
            edges = list(g.edges())
            rng.shuffle(edges)
            text = "".join(f"{u} {w}\n" if rng.random() < 0.5 else f"{w} {u}\n" for u, w in edges)
        hub = max(range(g.n), key=lambda v: len(g.adj[v]))
        bound = 8 * g.edge_count() + len(text) // 2
        source = write(tmp_path, f"{order}.edges", text)
        del g, text
        argv = ["contract", source, "--node", str(hub), "--output", str(tmp_path / "out.edges")]
        main(argv)  # imports and compiled patterns
        held = []
        emit = cli._emit

        def traced_emit(args, blocks):
            def traced():
                for block in blocks:
                    held.append(tracemalloc.get_traced_memory()[0])
                    yield block
            emit(args, traced())

        check = contraction._check_connected
        monkeypatch.setattr(cli, "_emit", traced_emit)
        monkeypatch.setattr(contraction, "_check_connected", lambda *args: held.append(
            tracemalloc.get_traced_memory()[0]) or check(*args))
        tracemalloc.start()
        try:
            code = main(argv)
        finally:
            tracemalloc.stop()
        assert code == 0 and len(held) > 2
        assert max(held) < bound, f"{max(held)} B held after parsing, bound {bound} B"


# The line breaks of str.splitlines(); text mode reads "\r\n" and "\r" as "\n".
_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", " ", " "]


@st.composite
def edge_files(draw):
    """(file bytes, --node, piece length, whether contract_text takes the
    file): a connected graph's lines in some order, perhaps with a fault or
    a second component, comment lines, a byte-order mark, and line breaks of
    one kind or mixed."""
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = list(random_connected_graph(rng, n).edges())
    form = draw(st.sampled_from(["canonical", "larger end first", "shuffled"] * 2
                                + ["repeat", "disconnected"]))
    if form == "larger end first":
        edges = [(w, u) for u, w in edges]
    elif form != "canonical":
        rng.shuffle(edges)
        edges = [(w, u) if rng.random() < 0.5 else (u, w) for u, w in edges]
        if form == "repeat":  # a self-loop or a duplicate, at S or not
            u = rng.randrange(n)
            edges.insert(rng.randrange(len(edges) + 1), rng.choice([(u, u), rng.choice(edges)]))
        elif form == "disconnected":
            edges.insert(rng.randrange(len(edges) + 1), (n + 1, n))
    lines = [f"{u} {w}" for u, w in edges]
    piece = draw(st.sampled_from(range(1, 65)))
    comments = draw(st.lists(st.sampled_from(["#", "# 0 1", "#é 1 0"]), max_size=2))
    if draw(st.integers(0, 3)) == 0:  # a comment line longer than a piece
        comments.append("# " + "x" * 2 * piece)
    for comment in comments:
        lines.insert(draw(st.integers(0, len(lines))), comment)
    # Mostly one break that streams, else any one break or a mix of them.
    style = draw(st.sampled_from(["\n", "\r\n"] if draw(st.integers(0, 3))
                                 else [*_BREAKS, "mixed"]))
    breaks = [draw(st.sampled_from(_BREAKS)) if style == "mixed" else style for _ in lines]
    text = "".join(map(str.__add__, lines, breaks))
    if draw(st.booleans()):
        text = text[:-len(breaks[-1])]  # no break after the last line
    bom = draw(st.booleans())
    node = draw(st.one_of(st.integers(0, n - 1), st.integers(-1, n + 2)))
    data = codecs.BOM_UTF8 * bom + text.encode()
    # A regular file of plain, connected text streams; any line that is not
    # plain, a fault or a node in no edge declines, and so may a line of more
    # than a piece and a byte, or "\r" alone, which ends no piece.
    streams = (form in ("canonical", "larger end first", "shuffled") and 0 <= node < n
               and style in ("\n", "\r\n")
               and max(len(line) + 1 for line in data.split(b"\n")) <= piece + 1)
    return data, node, piece, streams


class TestStreamedText:
    """contract reads a regular file twice in pieces of whole lines, never the
    whole text at once: the first pass checks each piece plain, counts edge
    lines and finds N(v); the second renumbers the ids.  Any other file, a
    piece that is not UTF-8, a line longer than a piece, a file changed
    between the passes and any text that the whole-text path would send to
    the parser of record are read whole, as before, so stdout, stderr and
    the exit code are those of the whole text."""

    @given(edge_files())
    @settings(max_examples=500, deadline=None)
    def test_a_file_read_in_pieces_contracts_as_its_whole_text(self, case):
        data, node, piece, streams = case
        with mock.patch.object(contraction, "_PIECE", piece):
            streamed, whole = contract_both_ways(data, node)
            assert streamed == whole
            if streams:
                with tempfile.TemporaryFile() as file:
                    file.write(data)
                    assert isinstance(contract_text(file, node), tuple)

    # Joining the pieces of one line, again and again, would read in
    # quadratic time, and a piece cut inside a line could start with what
    # reads as an edge line: here, with pieces of 4 bytes, "0 2" after
    # "# abcdef".  The text is read whole instead.
    @pytest.mark.parametrize("text,piece", [
        ("0 1\n1 2\n# abcdef0 2\n", 4),
        *((f"0 1\n# {'x' * 3 * piece}\n1 2\n", piece) for piece in (1, 7, 64)),
    ], ids=["a cut comment", "piece 1", "piece 7", "piece 64"])
    def test_a_line_longer_than_a_piece_declines(self, capsys, monkeypatch, tmp_path, text,
                                                 piece):
        source = write(tmp_path, "long.edges", text)
        monkeypatch.setattr(contraction, "_PIECE", piece)
        with open(source, "rb") as file:
            assert contract_text(file, 0) is file
        assert run(capsys, "contract", source, "--node", "0") \
            == (0, "# merged 1\n# map 2 0\n0 1\n", "")

    def test_a_byte_that_is_no_utf8_deep_in_the_file_is_named_at_its_offset(self, capsys,
                                                                           tmp_path):
        # Many pieces of plain text read first, so the message must come from
        # the whole text: its position is the byte's offset in the file.
        text = random_edge_text(20_000, 40_000).encode()
        source = tmp_path / "bytes.edges"
        source.write_bytes(text + b"# \xff\n")
        with open(source, "rb") as file:
            assert contract_text(file, 0) is file
        assert run(capsys, "contract", str(source), "--node", "0") == (
            2, "", f"error: {source}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in "
                   f"position {len(text) + 2}: invalid start byte)\n")

    def test_a_pipe_is_not_read_in_pieces(self):
        # A pipe cannot be read twice: contract_text hands it back unread.
        read_end, write_end = os.pipe()
        with open(read_end, "rb") as file:
            with open(write_end, "wb") as sink:
                sink.write(PATH4.encode())
            assert contract_text(file, 1) is file
            assert file.read() == PATH4.encode()

    @pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
    def test_piped_input_through_dev_stdin_contracts_as_the_file(self, tmp_path):
        text = random_edge_text(20_000, 40_000)  # several pieces
        source = write(tmp_path, "sparse.edges", text)

        def contracted(path, data=None):
            done = subprocess.run([sys.executable, "-m", "agglorank", "contract", path,
                                   "--node", "0"], input=data, capture_output=True,
                                  env=child_env(), timeout=120)
            return done.returncode, done.stdout, done.stderr

        expected = contracted(source)
        assert expected[0] == 0 and expected[1].startswith(b"# merged ")
        assert contracted("/dev/stdin", text.encode()) == expected

    # The file is rewritten as the second pass starts, keeping its size and
    # modification time where it can: each piece the second pass reads must
    # be the one the first read, so the text declines and is read whole.
    @pytest.mark.parametrize("change", ["same size and time", "grown", "shrunk"])
    def test_a_file_changed_between_the_passes_is_read_whole(self, capsys, monkeypatch,
                                                             tmp_path, change):
        text = "".join(f"{u} {u + 1}\n" for u in range(40))
        changed = {"same size and time": text.replace("0 1\n", "1 0\n"),
                   "grown": text + "40 41\n",
                   "shrunk": text[:-6]}[change]
        source = Path(write(tmp_path, "path.edges", text))
        monkeypatch.setattr(contraction, "_PIECE", 16)
        pieces, passes = contraction._pieces, []

        def rewriting(file):
            if passes:
                stat = source.stat()
                source.write_text(changed)
                os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            passes.append(file)
            return pieces(file)

        monkeypatch.setattr(contraction, "_pieces", rewriting)
        with open(source, "rb") as file:
            assert contract_text(file, 3) is file
        assert len(passes) == 2
        passes.clear()
        got = run(capsys, "contract", str(source), "--node", "3")
        monkeypatch.setattr(contraction, "_pieces", pieces)
        with mock.patch.object(cli, "contract_text", _declined):
            assert got == run(capsys, "contract", str(source), "--node", "3")
        assert got[0] == 0

    @pytest.mark.parametrize("text", [PATH4 * 1, "# n=4\n0 1\n1 2\n2 3\n"],
                             ids=["streamed", "read whole"])
    def test_the_output_may_name_the_input(self, capsys, monkeypatch, tmp_path, text):
        # Both passes, and a whole read, end before the output is opened.
        monkeypatch.setattr(contraction, "_PIECE", 4)
        source = write(tmp_path, "p4.edges", text)
        code, expected, _ = run(capsys, "contract", source, "--node", "1")
        assert code == 0
        assert run(capsys, "contract", source, "--node", "1", "--output", source) == (0, "", "")
        assert Path(source).read_text() == expected


def rows_of(contracted):
    # The rows of contract_text's G/v as tuples, as a Graph holds them, read
    # back from its text, which is canonical.
    n, edges, _ = contracted
    text = "".join(edges)
    g = parse_edge_list(text)
    assert (g.n, to_edge_list(g)) == (n, text)
    return g.adj


def _no_search(*args):
    raise AssertionError("the connectivity check ran")


def _no_parse(text, connected=False):
    raise AssertionError("the text was parsed")


def _no_graph(*args, **kwargs):
    raise AssertionError("a Graph was made")


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

    @pytest.mark.parametrize("command", sorted(ARGS))
    def test_a_byte_order_mark_is_no_part_of_the_text(self, capsys, tmp_path, monkeypatch,
                                                       command):
        # A UTF-8 byte-order mark, as some editors write, gives what the file
        # gives without it: the class line it precedes is read, and contract
        # still takes the plain path.
        text = "# class 0 path_end\n0 1\n1 2\n2 3\n".encode()
        bare, marked = tmp_path / "bare.edges", tmp_path / "marked.edges"
        bare.write_bytes(text)
        marked.write_bytes(codecs.BOM_UTF8 + text)
        expected = run(capsys, command, str(bare), *self.ARGS[command])
        assert expected[0] == 0
        if command == "contract":
            monkeypatch.setattr(cli, "parse_edge_list", _no_parse)
        assert run(capsys, command, str(marked), *self.ARGS[command]) == expected

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


# Hostile inputs: (bytes, the commands that read the fault, exit code).  phi
# and contract do not read "# class" lines, and rank reads them only once the
# graph has parsed, so the long class id is rank's alone.
_HOSTILE = {
    "long order header": (f"# n={_LONG}\n0 1\n".encode(), ("rank", "phi", "contract"), 2),
    "long class id": (f"# class {_LONG} x\n0 1\n".encode(), ("rank",), 2),
    "long node id": (f"0 1\n1 {_LONG}\n".encode(), ("rank", "phi", "contract"), 2),
    # The longest id int() reads: 1 + it is an order too long for str() to write.
    "long node id that int() reads": (
        f"0 1\n1 {_LONG[1:]}\n".encode(), ("rank", "phi", "contract"), 3),
    "long third field": (f"0 1\n1 2 {_LONG}\n".encode(), ("rank", "phi", "contract"), 2),
    "lone huge order header": (b"# n=1000000000000\n", ("rank", "phi", "contract"), 3),
    "labeled text under a huge order header": (
        (write_labeled(generate(PathSpec(4))) + "# n=1000000\n").encode(),
        ("rank", "phi", "contract"), 3),
    "non-UTF-8 bytes": (b"0 1\n\xff 2\n", ("rank", "phi", "contract"), 2),
    "empty file": (b"", ("rank", "phi", "contract"), 2),
    "self-loop": (b"0 1\n1 1\n", ("rank", "phi", "contract"), 2),
    "tab-separated duplicate": (b"0\t1\n1\t0\n", ("rank", "phi", "contract"), 2),
}


@pytest.mark.parametrize("case, command", [
    pytest.param(case, command, marks=[_ANY_LENGTH] if case.startswith("long ") else [])
    for case, (_, commands, _) in _HOSTILE.items() for command in commands])
def test_hostile_input_exits_with_one_error_line(capsys, tmp_path, case, command):
    data, _, expected = _HOSTILE[case]
    source = tmp_path / "hostile.edges"
    source.write_bytes(data)
    code, out, err = run(capsys, command, str(source),
                         *TestConnectivityPrecondition.ARGS[command])
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err) < 200  # a long field is named by its length, not quoted


# A number option longer than int() reads is named by its digit count, not
# quoted, and not as a value of the parser's private type function.
@_ANY_LENGTH
@pytest.mark.parametrize("argv", [
    ("verify", "path", "--n", _LONG), ("verify", "path", "--n", f"4..{_LONG}"),
    ("contract", "in.edges", "--node", _LONG), ("rank", "in.edges", "--jobs", _LONG),
    ("gen", "path", "--n", _LONG)], ids=["verify-n", "verify-n-hi", "node", "jobs", "gen-n"])
def test_an_over_long_number_option_exits_2_with_a_short_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert "_range_arg" not in captured.err
    error = captured.err.splitlines()[-1]
    assert error.endswith(f": a number of {len(_LONG)} digits is too long")
    assert len(error) <= 200


# An option value that is no number and longer than a message quotes is
# named by its length; one of graph._QUOTED characters is quoted as before.
_NO_NUMBER = "x" * 5000


@pytest.mark.parametrize("argv,message", [
    (("verify", "path", "--n", _NO_NUMBER), "expected N or LO..HI, got {}"),
    (("verify", "path", "--n", f"4..{_NO_NUMBER}"), "expected N or LO..HI, got {}"),
    (("contract", "in.edges", "--node", _NO_NUMBER), "invalid int value: {}"),
    (("rank", "in.edges", "--jobs", _NO_NUMBER), "invalid int value: {}"),
    (("gen", "path", "--n", _NO_NUMBER), "invalid int value: {}"),
], ids=["verify-n", "verify-n-hi", "node", "jobs", "gen-n"])
@pytest.mark.parametrize("length", [graph._QUOTED, None], ids=["quoted", "long"])
def test_a_long_value_that_is_no_number_exits_2_with_a_short_error(capsys, argv, message,
                                                                   length):
    value = argv[-1][:length]
    with pytest.raises(SystemExit) as info:
        main([*argv[:-1], value])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    shown = repr(value) if length else f"a value of {len(value)} characters"
    error = captured.err.splitlines()[-1]
    assert error.endswith(f": {message.format(shown)}")
    assert len(error) < 200


@st.composite
def hostile_texts(draw):
    """A valid connected edge list with one fault: a long field, a sign, a
    non-ASCII digit, a NUL or a stray separator in an edge line, an order
    header that is wrong, repeated or huge, or a large order named by an edge
    to an id up to 10^12 (after up to 10^4 comment or blank lines), by a
    "# n=" header up to 10^12 or by a second header.  Each names at most a
    few thousand ids, so nothing large is built unless a refusal comes late."""
    n = draw(st.integers(2, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    lines = [f"{u} {v}" for u, v in draw(st.permutations(edges))]
    at = draw(st.integers(0, len(lines) - 1))
    line = lines[at]
    fields = line.split(" ")
    field = draw(st.integers(0, 1))
    fault = draw(st.sampled_from(["long field", "sign", "non-ASCII digit", "NUL", "separator",
                                  "header", "huge order", "far edge", "far header",
                                  "second header"]))
    if fault == "long field":
        long = draw(st.sampled_from("123456789")) + "9" * draw(st.integers(20, 5000))
        fields = fields + [long] if draw(st.booleans()) else [*fields[:field], long,
                                                               *fields[field + 1:]]
    elif fault == "sign":
        fields[field] = draw(st.sampled_from("+-")) + fields[field]
    elif fault == "non-ASCII digit":
        digit = draw(st.characters(categories=["Nd"]).filter(lambda c: not c.isascii()))
        i = draw(st.integers(0, len(fields[field]) - 1))
        fields[field] = fields[field][:i] + digit + fields[field][i + 1:]
    if fault in ("NUL", "separator"):
        stray = "\x00" if fault == "NUL" else draw(st.sampled_from(",;:|/-+=_.()"))
        i = draw(st.integers(0, len(line)))
        lines[at] = line[:i] + stray + line[i:]
    else:
        lines[at] = " ".join(fields)
    if fault == "header":
        orders = st.integers(0, 2 * n).filter(lambda k: k != n)
        headers = [f"# n={draw(orders)}"] if draw(st.booleans()) else [f"# n={n}"] * 2
        for header in headers:
            lines.insert(draw(st.integers(0, len(lines))), header)
    elif fault == "huge order":
        lines.insert(draw(st.integers(0, len(lines))), "# n=" + "9" * draw(st.integers(19, 5000)))
    elif fault == "far edge":
        # An id above n leaves n edges short of connecting its order.
        far = (draw(st.integers(0, n - 1)), draw(st.integers(n + 1, 10**12)))
        filler = [draw(st.sampled_from(["#", "", "# x"]))] * draw(st.integers(0, 10**4))
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [*filler, "{} {}".format(*far[::draw(st.sampled_from((1, -1)))])]
    elif fault == "far header":
        lines.insert(draw(st.integers(0, len(lines))), f"# n={draw(st.integers(n + 1, 10**12))}")
    elif fault == "second header":
        for _ in range(2):
            lines.insert(draw(st.integers(0, len(lines))),
                         f"# n={draw(st.integers(1, 10**12))}")
    return "".join(f"{line}\n" for line in lines)


@_ANY_LENGTH
@given(hostile_texts(), st.sampled_from(sorted(TestConnectivityPrecondition.ARGS)))
@settings(max_examples=300, deadline=None)
def test_any_hostile_text_exits_with_one_short_error_line(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp, "hostile.edges")
        source.write_bytes(text.encode())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(source), *TestConnectivityPrecondition.ARGS[command]])
    err = err.getvalue()
    assert code in (2, 3) and out.getvalue() == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err) <= 200


def _traced(call):
    """What call returns, or the EdgeListError or ConnectivityError it raises,
    and the traced peak of the memory it allocates, in bytes."""
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except (EdgeListError, ConnectivityError) as exc:
            outcome = exc
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The line path holds the text's lines (str.splitlines()): a pointer and a
# str object, 8 + 49 + L + 1 bytes for an ASCII line of L >= 2 characters and
# none for a shorter one, which CPython shares, so at most 20 bytes per
# character of the line and its newline.  A hostile text has at most one line
# that is not ASCII.  The bulk path holds less: one block's split at a time and
# at most one copy of the text.  What remains is a constant (a compiled
# pattern, the error), well below an allocation per node of the order a far id
# or header names.
_BYTES_PER_CHAR, _CONSTANT_BYTES = 20, 32 << 10


@given(hostile_texts())
@settings(max_examples=300, deadline=None)
def test_any_hostile_text_is_refused_in_memory_linear_in_its_length(text):
    bound = _BYTES_PER_CHAR * len(text) + _CONSTANT_BYTES
    error, peak = _traced(lambda: parse_edge_list(text, connected=True))
    assert isinstance(error, (EdgeListError, ConnectivityError)) and peak <= bound
    contracted, peak = _traced(lambda: contract_text(text, 0))
    assert contracted is text and peak <= bound


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
        ("path", "--n", "4..99999999999999999999"),  # more points than sys.maxsize
        ("comet", "--s", "3..4", "--t", "4..99999999999999999999"),
    ])
    def test_oversized_grid_exits_2_before_building(self, capsys, no_build, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: the ")
        assert f"nodes plus edges; verify builds at most {MAX_SIZE}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_stdout_is_the_rendered_report_written_in_blocks(self, capsys, fmt):
        # 5,929 rows: the table and CSV grids span two blocks.
        ranges = {"a": (2, 8), "b": (2, 8), "k": (4, 14)}
        report = verify.verify_family("double_comet", ranges)
        assert report.total > graph._BLOCK_LINES
        if fmt != "json":
            assert len(list(reports.verify_blocks(report, fmt))) == 4  # head, 2 blocks, tail
        code, out, err = run(capsys, "verify", "double-comet", "--a", "2..8", "--b", "2..8",
                             "--k", "4..14", "--format", fmt)
        assert (code, out, err) == (0, "".join(reports.verify_blocks(report, fmt)), "")

    def test_peak_memory_stays_near_one_chunk(self, tmp_path):
        # verify generates, ranks and checks one chunk of specs at a time and
        # writes its table in blocks, so only the report's rows grow with the
        # grid.  P(4)..P(300) peaked at about 1.2 MB traced; holding every
        # graph and ranking of the grid, and the rendered rows, it read 16.2 MB.
        out = str(tmp_path / "verify.txt")
        main(["verify", "path", "--n", "4..5", "--output", out])  # imports
        tracemalloc.start()
        try:
            code = main(["verify", "path", "--n", "4..300", "--jobs", "1", "--output", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 3_000_000, f"verify peak {peak} B"

    def test_ordering_violation_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(PathSpec, "expected_order",
                            lambda self: [(NodeClass.PATH_END, ">", NodeClass.PATH_INNER)])
        code, out, err = run(capsys, "verify", "path", "--n", "4..4")
        assert (code, err) == (4, "")
        assert "violation: P(4): expected imc(path_end) > imc(path_inner)\n" in out
        assert out.endswith("summary total=3 mismatches=1\n")

    def test_an_imc_that_differs_within_a_class_exits_4(self, capsys, monkeypatch):
        rank = verify.rank_graphs

        def skewed(graphs, *, jobs):
            # Node 3 of P(4), a path end as node 0 is, gets another imc.
            reports = rank(graphs, jobs=jobs)
            entries = tuple(entry._replace(imc=entry.imc + 1) if entry.node == 3 else entry
                            for entry in reports[0].entries)
            return [reports[0]._replace(entries=entries), *reports[1:]]

        monkeypatch.setattr(verify, "rank_graphs", skewed)
        code, out, err = run(capsys, "verify", "path", "--n", "4..4")
        assert (code, err) == (4, "")
        assert "violation: P(4): engine imc differs between nodes of class path_end\n" in out
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

    @staticmethod
    def loaded_by(argv):
        # The modules a fresh interpreter holds after main(argv) returns 0.
        probe = ("import sys\nfrom agglorank.cli import main\n"
                 f"assert main({argv!r}) == 0\n"
                 "print(' '.join(sorted(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=child_env(), check=True)
        return done.stdout.splitlines()[-1].split()

    @pytest.fixture(scope="class")
    def bare(self):
        # The modules a bare interpreter of this environment loads at start-up.
        done = subprocess.run([sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
                              capture_output=True, text=True, env=child_env(), check=True)
        return done.stdout.split()

    @pytest.mark.parametrize("command", ["rank", "rank labeled json", "phi", "contract"])
    def test_an_edge_list_command_loads_no_family_code(self, tmp_path, bare, command):
        plain = write(tmp_path, "p4.edges", PATH4)
        labeled = write(tmp_path, "p4.labeled", write_labeled(generate(PathSpec(4))))
        argv = {"rank": ["rank", plain, "--jobs", "1"],
                "rank labeled json": ["rank", labeled, "--format", "json", "--jobs", "1"],
                "phi": ["phi", plain],
                "contract": ["contract", plain, "--node", "1"]}[command]
        loaded = self.loaded_by(argv)
        assert "agglorank.cli" in loaded
        for module in ("agglorank.families", "agglorank.verify", "agglorank.closed_forms"):
            assert module not in loaded
        if "dataclasses" not in bare:
            assert "dataclasses" not in loaded
        # Only contract builds flat arrays (G/v); rank and phi need no array.
        if "array" not in bare:
            assert ("array" in loaded) == (command == "contract")

    @pytest.mark.parametrize("text", [PATH4, "# n=4\n0 1\n1 2\n2 3\n"],
                             ids=["plain", "parsed"])
    def test_contract_loads_neither_the_engine_nor_the_reports(self, tmp_path, bare, text):
        # Plain text contracts from its lines; a header sends it through the
        # parser of record and contract().  Neither path ranks or renders.
        source = write(tmp_path, "p4.edges", text)
        loaded = self.loaded_by(["contract", source, "--node", "1"])
        for module in ("agglorank.agglomeration", "agglorank.reports", "fractions", "decimal"):
            if module not in bare:
                assert module not in loaded

    @pytest.mark.parametrize("command", ["gen", "verify"])
    def test_gen_and_verify_load_neither_dataclasses_nor_inspect(self, tmp_path, bare, command):
        out = str(tmp_path / "out.txt")
        argv = {"gen": ["gen", "double-comet", "--n", "6", "--a", "2", "--b", "2"],
                "verify": ["verify", "lollipop", "--d", "4", "--nd", "2..3", "--jobs", "1"]}
        loaded = self.loaded_by([*argv[command], "--output", out])
        assert "agglorank.families" in loaded
        for module in ("dataclasses", "inspect"):
            if module not in bare:
                assert module not in loaded

    def test_gen_and_verify_load_the_family_registry(self, tmp_path):
        out = str(tmp_path / "out.txt")
        assert "agglorank.families" in self.loaded_by(["gen", "path", "--n", "3", "--output", out])
        assert "agglorank.families" in self.loaded_by(
            ["verify", "path", "--n", "4", "--jobs", "1", "--output", out])

    def test_the_class_scan_is_one_function_under_every_name(self):
        import agglorank
        from agglorank import families

        assert agglorank.scan_class_comments is graph.scan_class_comments
        assert families.scan_class_comments is graph.scan_class_comments

    @pytest.mark.parametrize("command", ["rank", "phi", "contract"])
    def test_a_parser_for_one_edge_list_command_helps_as_the_full_one(self, monkeypatch,
                                                                       command):
        monkeypatch.setenv("COLUMNS", "200")

        def help_text(parser, *argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
                parser.parse_args([*argv, "--help"])
            assert info.value.code == 0
            return out.getvalue()

        full, lean = cli.build_parser(), cli.build_parser(command)
        assert help_text(lean) == help_text(full)
        assert help_text(lean, command) == help_text(full, command)

    @pytest.mark.parametrize("argv, usage, error", [
        (["gen"], "agglorank gen [-h] {path,comet,double-comet,lollipop} ...",
         "agglorank gen: error: the following arguments are required: family"),
        (["verify"], "agglorank verify [-h] {path,comet,double-comet,lollipop} ...",
         "agglorank verify: error: the following arguments are required: family"),
        ([], "agglorank [-h] {gen,rank,phi,contract,verify} ...",
         "agglorank: error: the following arguments are required: command"),
    ])
    def test_a_missing_subcommand_is_a_usage_error(self, capsys, monkeypatch, argv, usage,
                                                   error):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr() == ("", f"usage: {usage}\n{error}\n")

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
