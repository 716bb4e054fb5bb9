"""Golden renderings: the exact text of rank, phi and verify in every format."""

from fractions import Fraction

import pytest

from agglorank.agglomeration import imc_all, phi_and_length
from agglorank.graph import parse_edge_list
from agglorank.reports import render_phi, render_rank, verify_blocks
from agglorank.verify import VerifyReport, VerifyRow

# P(4) with a class for node 0, none for 1 and 3, and one that needs CSV quoting.
RANK_CLASSES = {0: "hub", 2: "a,b"}

RANK_GOLDEN = {
    "table": (
        "phi 3/20\n"
        "L 5/3\n"
        "node  class  imc   imc_decimal\n"
        "1     -      7/10  0.700000\n"
        "2     a,b    7/10  0.700000\n"
        "0     hub    2/5   0.400000\n"
        "3     -      2/5   0.400000\n"
    ),
    "csv": (
        "# phi 3/20\n"
        "# L 5/3\n"
        "node,class,imc,imc_decimal\n"
        "1,-,7/10,0.700000\n"
        '2,"a,b",7/10,0.700000\n'
        "0,hub,2/5,0.400000\n"
        "3,-,2/5,0.400000\n"
    ),
    "json": """\
{
  "phi": "3/20",
  "avg_path_length": "5/3",
  "entries": [
    {
      "node": 1,
      "imc": "7/10",
      "imc_decimal": "0.700000"
    },
    {
      "node": 2,
      "class": "a,b",
      "imc": "7/10",
      "imc_decimal": "0.700000"
    },
    {
      "node": 0,
      "class": "hub",
      "imc": "2/5",
      "imc_decimal": "0.400000"
    },
    {
      "node": 3,
      "imc": "2/5",
      "imc_decimal": "0.400000"
    }
  ]
}
""",
}

PHI_GOLDEN = {
    ("# n=1\n", "table"): "phi 1\n",
    ("# n=1\n", "csv"): "phi\n1\n",
    ("# n=1\n", "json"): '{\n  "phi": "1"\n}\n',
    ("0 1\n1 2\n", "table"): "phi 1/4\nL 4/3\n",
    ("0 1\n1 2\n", "csv"): "phi,L\n1/4,4/3\n",
    ("0 1\n1 2\n", "json"): '{\n  "phi": "1/4",\n  "avg_path_length": "4/3"\n}\n',
}

VERIFY_REPORT = VerifyReport(
    rows=[
        VerifyRow("P(3)", "phi", Fraction(1, 4), Fraction(1, 4)),
        VerifyRow("P(3)", "path_end", Fraction(1, 3), Fraction(2, 5)),
    ],
    notes=["L(7,4): a note"],
    violations=["P(3): expected x"],
)

VERIFY_GOLDEN = {
    "table": (
        "spec  class     analytic  engine  match\n"
        "P(3)  phi       1/4       1/4     yes\n"
        "P(3)  path_end  1/3       2/5     NO\n"
        "note: L(7,4): a note\n"
        "violation: P(3): expected x\n"
        "summary total=2 mismatches=2\n"
    ),
    "csv": (
        "spec,class,analytic,engine,match\n"
        "P(3),phi,1/4,1/4,yes\n"
        "P(3),path_end,1/3,2/5,NO\n"
        "# note: L(7,4): a note\n"
        "# violation: P(3): expected x\n"
        "# summary total=2 mismatches=2\n"
    ),
    "json": """\
{
  "rows": [
    {
      "spec": "P(3)",
      "class": "phi",
      "analytic": "1/4",
      "engine": "1/4",
      "match": true
    },
    {
      "spec": "P(3)",
      "class": "path_end",
      "analytic": "1/3",
      "engine": "2/5",
      "match": false
    }
  ],
  "notes": [
    "L(7,4): a note"
  ],
  "violations": [
    "P(3): expected x"
  ],
  "summary": {
    "total": 2,
    "mismatches": 2
  }
}
""",
}


@pytest.mark.parametrize("fmt", sorted(RANK_GOLDEN))
def test_rank_golden(fmt):
    report = imc_all(parse_edge_list("0 1\n1 2\n2 3\n"))
    assert render_rank(report, RANK_CLASSES, fmt) == RANK_GOLDEN[fmt]


@pytest.mark.parametrize("text, fmt", sorted(PHI_GOLDEN))
def test_phi_golden(text, fmt):
    value, length = phi_and_length(parse_edge_list(text))
    assert render_phi(value, length, fmt) == PHI_GOLDEN[text, fmt]


@pytest.mark.parametrize("fmt", sorted(VERIFY_GOLDEN))
def test_verify_golden(fmt):
    assert "".join(verify_blocks(VERIFY_REPORT, fmt)) == VERIFY_GOLDEN[fmt]
