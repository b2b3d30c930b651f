"""The four demos print what they printed when their golden files were
recorded (tests/golden/<demo>.txt); a deliberate change of output re-records
the file in the same change."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_stdout_matches_its_golden_file(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (ROOT / "tests" / "golden" / f"{demo.stem}.txt").read_text()
