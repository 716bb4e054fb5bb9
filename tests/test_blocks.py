"""The one block joiner: every text writer hands its lines to ``graph._blocks``,
which joins them ``graph._BLOCK_LINES`` at a time, and the joined blocks are
the text a writer built without blocks gives."""

import csv
import io
from fractions import Fraction

import pytest

from agglorank import cli, families, graph, reports
from agglorank.contraction import contract
from agglorank.families import PathSpec, generate, write_labeled
from agglorank.graph import from_edge_list, parse_edge_list, to_edge_list
from agglorank.reports import verify_blocks
from agglorank.verify import VerifyReport, VerifyRow

from oracles import random_edge_text

SIZE = graph._BLOCK_LINES


def edge_text(g):
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def verify_report():
    # More rows than two blocks, of varying widths, with mismatches, quoted
    # CSV cells, a note and a violation.
    rows = [VerifyRow(f"DC({i},{i % 7},3)", "dc_inner" if i % 3 else "phi",
                      Fraction(i, 7), Fraction(i + (i % 11 == 0), 7)) for i in range(2 * SIZE + 5)]
    return VerifyReport(rows=rows, notes=["L(7,4): a known exception"],
                        violations=["DC(1,1,3): expected imc(a) > imc(b)"])


def verify_text(report, fmt):
    cells = [["spec", "class", "analytic", "engine", "match"]]
    cells += [[row.spec, row.check, str(row.analytic), str(row.engine),
               "yes" if row.match else "NO"] for row in report.rows]
    tail = [f"note: {note}" for note in report.notes]
    tail += [f"violation: {violation}" for violation in report.violations]
    tail.append(f"summary total={report.total} mismatches={report.mismatches}")
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        return buf.getvalue() + "".join(f"# {line}\n" for line in tail)
    widths = [max(map(len, column)) for column in zip(*cells)]
    grid = "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                   for row in cells)
    return grid + "".join(f"{line}\n" for line in tail)


def contract_stdout(capsys, tmp_path):
    # 10,000 old ids: three blocks of "# map" lines.
    text = random_edge_text(10_000, 20_000)
    source = tmp_path / "in.edges"
    source.write_text(text)
    assert cli.main(["contract", str(source), "--node", "0"]) == 0
    result = contract(parse_edge_list(text), 0)
    expected = (f"# merged {result.merged_into}\n"
                + "".join(f"# map {old} {new}\n" for old, new in result.old_to_new.items())
                + edge_text(result.graph))
    return capsys.readouterr().out, expected


def edge_list(capsys, tmp_path):
    # Two isolated nodes after the edges: a "# n=" header, then three blocks.
    g = from_edge_list([(v, v + 1) for v in range(2 * SIZE + 5)], n=2 * SIZE + 8)
    return to_edge_list(g), f"# n={g.n}\n" + edge_text(g)


def labeled(capsys, tmp_path):
    lg = generate(PathSpec(2 * SIZE + 5))
    return write_labeled(lg), (f"# family {lg.spec.comment_fields()}\n"
                               + "".join(f"# class {v} {c.value}\n"
                                         for v, c in enumerate(lg.classes))
                               + edge_text(lg.graph))


def verify_in(fmt):
    def written(capsys, tmp_path):
        report = verify_report()
        return "".join(verify_blocks(report, fmt)), verify_text(report, fmt)
    return written


@pytest.fixture
def runs(monkeypatch):
    """The blocks of each call of the joiner, recorded in every module that calls it."""
    calls = []
    joiner = graph._blocks

    def recorded(lines):
        calls.append(run := [])
        for block in joiner(lines):
            run.append(block)
            yield block

    for module in (graph, cli, families, reports):
        monkeypatch.setattr(module, "_blocks", recorded)
    return calls


@pytest.mark.parametrize("writer", [edge_list, contract_stdout, labeled, verify_in("table"),
                                    verify_in("csv")],
                         ids=["to_edge_list", "contract", "write_labeled", "verify-table",
                              "verify-csv"])
def test_every_writer_cuts_its_lines_in_full_blocks(capsys, tmp_path, runs, writer):
    text, expected = writer(capsys, tmp_path)
    assert text == expected
    assert any(len(run) > 2 for run in runs)
    for run in runs:
        *full, last = [block.count("\n") for block in run]
        assert full == [SIZE] * len(full)
        assert 0 < last <= SIZE
        assert all(block.endswith("\n") for block in run)
