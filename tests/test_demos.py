"""Each demo runs to completion and prints a line it is known for (matched as a prefix)."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"

KNOWN_LINE = {
    "01_rank_a_network.py": "agglomeration phi = 3/46",
    "02_contraction_step_by_step.py": "phi = 1/14",
    "03_closed_forms_vs_engine.py": "spec     phi",
    "04_your_own_graph.py": "phi = 3/46,  L = 46/21",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(KNOWN_LINE)


@pytest.mark.parametrize("name", sorted(KNOWN_LINE))
def test_demo_runs(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(KNOWN_LINE[name]) for line in proc.stdout.splitlines())
