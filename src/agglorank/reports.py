"""Rendering of rank, phi and verify results as table, csv or json text.

Rationals render as reduced "p/q" (bare "p" when the denominator is 1); the
decimal column is display-only, rounded half-even to 6 places by exact integer
arithmetic, and never participates in comparisons.  All renderings are pure
functions of their inputs, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .agglomeration import RankReport
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


def _csv(header: list[str], rows: list[list[str]], preamble: list[str] = ()) -> str:
    buf = io.StringIO()
    for line in preamble:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_rank(report: RankReport, classes: dict[int, str] | None, fmt: str) -> str:
    """Render a ranking; the class column appears only when classes are known."""
    with_class = bool(classes)
    phi_s = str(report.phi)
    length_s = str(report.avg_path_length)

    def entry_cells(entry) -> list[str]:
        cells = [str(entry.node)]
        if with_class:
            cells.append(classes.get(entry.node, "-"))
        cells += [str(entry.imc), decimal6(entry.imc)]
        return cells

    if fmt == "json":
        doc: dict = {"phi": phi_s, "avg_path_length": length_s, "entries": []}
        for entry in report.entries:
            item: dict = {"node": entry.node}
            if with_class and entry.node in classes:
                item["class"] = classes[entry.node]
            item["imc"] = str(entry.imc)
            item["imc_decimal"] = decimal6(entry.imc)
            doc["entries"].append(item)
        return json.dumps(doc, indent=2) + "\n"

    header = ["node"] + (["class"] if with_class else []) + ["imc", "imc_decimal"]
    rows = [entry_cells(entry) for entry in report.entries]
    if fmt == "csv":
        return _csv(header, rows, preamble=[f"# phi {phi_s}", f"# L {length_s}"])
    return f"phi {phi_s}\nL {length_s}\n" + _table(header, rows)


def render_phi(phi: Fraction, length: Fraction | None, fmt: str) -> str:
    phi_s = str(phi)
    if fmt == "json":
        doc = {"phi": phi_s}
        if length is not None:
            doc["avg_path_length"] = str(length)
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        header, row = ["phi"], [phi_s]
        if length is not None:
            header.append("L")
            row.append(str(length))
        return _csv(header, [row])
    out = f"phi {phi_s}\n"
    if length is not None:
        out += f"L {length}\n"
    return out


def render_verify(report: VerifyReport, fmt: str) -> str:
    header = ["spec", "class", "analytic", "engine", "match"]
    rows = [
        [row.spec, row.check, str(row.analytic), str(row.engine),
         "yes" if row.match else "NO"]
        for row in report.rows
    ]
    summary = f"summary total={report.total} mismatches={report.mismatches}"
    if fmt == "json":
        doc = {
            "rows": [
                {
                    "spec": row.spec,
                    "class": row.check,
                    "analytic": str(row.analytic),
                    "engine": str(row.engine),
                    "match": row.match,
                }
                for row in report.rows
            ],
            "notes": list(report.notes),
            "violations": list(report.violations),
            "summary": {"total": report.total, "mismatches": report.mismatches},
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        tail = [f"# note: {n}" for n in report.notes]
        tail += [f"# violation: {v}" for v in report.violations]
        tail.append(f"# {summary}")
        return _csv(header, rows) + "".join(line + "\n" for line in tail)
    out = _table(header, rows)
    for note in report.notes:
        out += f"note: {note}\n"
    for violation in report.violations:
        out += f"violation: {violation}\n"
    return out + summary + "\n"
