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
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .agglomeration import RankReport

if TYPE_CHECKING:
    from .verify import VerifyReport

FORMATS = ("table", "csv", "json")

_SCALE = 10**6


def decimal6(x: Fraction) -> str:
    """Round |x| * 10^6 half-to-even, exactly, and format with 6 decimals."""
    sign = "-" if x < 0 else ""
    scaled, rem = divmod(abs(x.numerator) * _SCALE, x.denominator)
    if 2 * rem > x.denominator or (2 * rem == x.denominator and scaled % 2 == 1):
        scaled += 1
    return f"{sign}{scaled // _SCALE}.{scaled % _SCALE:06d}"


def _table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = []
    for row in [header] + rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "".join(line + "\n" for line in out)


def _render(fmt: str, doc: dict, header: list[str], rows: list[list[str]],
            head: list[str] = (), tail: list[str] = ()) -> str:
    """The one place that picks a format; see the module docstring for the rule."""
    if fmt == "json":
        import json

        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        body, mark = buf.getvalue(), "# "
    else:
        body, mark = _table(header, rows), ""
    return ("".join(f"{mark}{line}\n" for line in head) + body
            + "".join(f"{mark}{line}\n" for line in tail))


def render_rank(report: RankReport, classes: dict[int, str] | None, fmt: str) -> str:
    """Render a ranking; the class column appears only when classes are known.

    A node without a class shows as "-" in the table and CSV, and has no
    "class" key in JSON.
    """
    header = ["node"] + (["class"] if classes else []) + ["imc", "imc_decimal"]
    rows, items = [], []
    for entry in report.entries:
        cells, item = [str(entry.node)], {"node": entry.node}
        if classes:
            cells.append(classes.get(entry.node, "-"))
            if entry.node in classes:
                item["class"] = classes[entry.node]
        cells += [str(entry.imc), decimal6(entry.imc)]
        item["imc"], item["imc_decimal"] = cells[-2:]
        rows.append(cells)
        items.append(item)
    phi_s, length_s = str(report.phi), str(report.avg_path_length)
    doc = {"phi": phi_s, "avg_path_length": length_s, "entries": items}
    return _render(fmt, doc, header, rows, head=[f"phi {phi_s}", f"L {length_s}"])


def render_phi(phi: Fraction, length: Fraction | None, fmt: str) -> str:
    header, doc = ["phi"], {"phi": str(phi)}
    if length is not None:
        header.append("L")
        doc["avg_path_length"] = str(length)
    row = list(doc.values())
    if fmt == "table":
        return "".join(f"{key} {value}\n" for key, value in zip(header, row))
    return _render(fmt, doc, header, [row])


def render_verify(report: VerifyReport, fmt: str) -> str:
    header = ["spec", "class", "analytic", "engine", "match"]
    rows, items = [], []
    for row in report.rows:
        cells = [row.spec, row.check, str(row.analytic), str(row.engine)]
        items.append(dict(zip(header, cells), match=row.match))
        rows.append(cells + ["yes" if row.match else "NO"])
    total, mismatches = report.total, report.mismatches
    doc = {
        "rows": items,
        "notes": list(report.notes),
        "violations": list(report.violations),
        "summary": {"total": total, "mismatches": mismatches},
    }
    tail = [f"note: {note}" for note in report.notes]
    tail += [f"violation: {violation}" for violation in report.violations]
    tail.append(f"summary total={total} mismatches={mismatches}")
    return _render(fmt, doc, header, rows, tail=tail)
