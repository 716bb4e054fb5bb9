"""Rendering of rank, phi and verify results as table, csv or json text.

Rationals render as reduced "p/q" (bare "p" when the denominator is 1); the
decimal column is display-only, rounded half-even to 6 places by exact integer
arithmetic, and never participates in comparisons.  All renderings are pure
functions of their inputs, so identical inputs give byte-identical output.

One function, ``_render``, picks the format.  JSON is the result document
alone.  The table is a grid of rows, with the lines that frame it (rank's
``phi`` and ``L`` before it, verify's notes, violations and summary after it)
printed as they are; CSV writes the same rows and turns each framing line
into a ``# `` comment.  ``phi``'s table is ``key value`` lines, with no grid.
Each format builds only what it writes: the JSON document for JSON, the
grid's cells for the table and CSV.  The grid goes out in blocks of
``_BLOCK_ROWS`` rows; ``verify_blocks`` hands them to the writer one at a
time, and ``render_verify`` joins them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .agglomeration import ImcEntry, RankReport

if TYPE_CHECKING:
    from .verify import VerifyReport

FORMATS = ("table", "csv", "json")

_SCALE = 10**6

# The rows of a table or CSV grid written in one block.
_BLOCK_ROWS = 4096


def decimal6(x: Fraction) -> str:
    """Round |x| * 10^6 half-to-even, exactly, and format with 6 decimals."""
    sign = "-" if x < 0 else ""
    scaled, rem = divmod(abs(x.numerator) * _SCALE, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and scaled % 2 == 1):
        scaled += 1
    return f"{sign}{scaled // _SCALE}.{scaled % _SCALE:06d}"


def _render(fmt: str, doc: Callable[[], dict], header: list[str],
            rows: Callable[[], Iterable[list[str]]],
            head: list[str] = (), tail: list[str] = ()) -> Iterator[str]:
    """The one place that picks a format; see the module docstring for the rule.

    ``doc()`` is called for JSON alone and ``rows()``, the grid's cells row by
    row, for the table and CSV alone.  The table calls ``rows()`` twice, for
    its widths and then for its blocks, so it holds one block's cells at most.
    """
    if fmt == "json":
        import json

        yield json.dumps(doc(), indent=2) + "\n"
        return
    if fmt == "csv":
        import csv
        import io

        def block(grid: Iterable[list[str]]) -> str:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(grid)
            return buf.getvalue()

        mark = "# "
    else:
        widths = list(map(len, header))
        for row in rows():
            widths = list(map(max, widths, map(len, row)))

        def block(grid: Iterable[list[str]]) -> str:
            return "".join(["  ".join(map(str.ljust, row, widths)).rstrip() + "\n"
                            for row in grid])

        mark = ""
    yield "".join(f"{mark}{line}\n" for line in head)
    grid = chain([header], rows())
    while text := block(islice(grid, _BLOCK_ROWS)):
        yield text
    yield "".join(f"{mark}{line}\n" for line in tail)


def render_rank(report: RankReport, classes: dict[int, str] | None, fmt: str) -> str:
    """Render a ranking; the class column appears only when classes are known.

    A node without a class shows as "-" in the table and CSV, and has no
    "class" key in JSON.
    """
    header = ["node"] + (["class"] if classes else []) + ["imc", "imc_decimal"]

    def item(entry: ImcEntry) -> dict:
        out = {"node": entry.node}
        if classes and entry.node in classes:
            out["class"] = classes[entry.node]
        out["imc"], out["imc_decimal"] = str(entry.imc), decimal6(entry.imc)
        return out

    def cells(entry: ImcEntry) -> list[str]:
        klass = [classes.get(entry.node, "-")] if classes else []
        return [str(entry.node), *klass, str(entry.imc), decimal6(entry.imc)]

    phi_s, length_s = str(report.phi), str(report.avg_path_length)
    return "".join(_render(
        fmt, lambda: {"phi": phi_s, "avg_path_length": length_s,
                      "entries": list(map(item, report.entries))},
        header, lambda: map(cells, report.entries), head=[f"phi {phi_s}", f"L {length_s}"]))


def render_phi(phi: Fraction, length: Fraction | None, fmt: str) -> str:
    header, doc = ["phi"], {"phi": str(phi)}
    if length is not None:
        header.append("L")
        doc["avg_path_length"] = str(length)
    row = list(doc.values())
    if fmt == "table":
        return "".join(f"{key} {value}\n" for key, value in zip(header, row))
    return "".join(_render(fmt, lambda: doc, header, lambda: [row]))


def verify_blocks(report: VerifyReport, fmt: str) -> Iterator[str]:
    """``render_verify``'s text in blocks, to be written one at a time."""
    header = ["spec", "class", "analytic", "engine", "match"]
    total, mismatches = report.total, report.mismatches

    def doc() -> dict:
        return {
            "rows": [{"spec": row.spec, "class": row.check, "analytic": str(row.analytic),
                      "engine": str(row.engine), "match": row.match} for row in report.rows],
            "notes": list(report.notes),
            "violations": list(report.violations),
            "summary": {"total": total, "mismatches": mismatches},
        }

    def rows() -> Iterator[list[str]]:
        for row in report.rows:
            yield [row.spec, row.check, str(row.analytic), str(row.engine),
                   "yes" if row.match else "NO"]

    tail = [f"note: {note}" for note in report.notes]
    tail += [f"violation: {violation}" for violation in report.violations]
    tail.append(f"summary total={total} mismatches={mismatches}")
    return _render(fmt, doc, header, rows, tail=tail)


def render_verify(report: VerifyReport, fmt: str) -> str:
    return "".join(verify_blocks(report, fmt))
