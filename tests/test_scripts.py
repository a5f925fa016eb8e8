"""Scripts under scripts/ run end to end."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_group_census_matches_closed_forms():
    proc = subprocess.run(
        [sys.executable, "scripts/group_census.py", "--dims", "2", "3", "4", "5", "6"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:5] for row in rows] == [
        ["2", "16", "192", "8", "24"],
        ["3", "27", "2592", "12", "216"],
        ["4", "128", "6144", "8", "768"],
        ["5", "125", "30000", "10", "3000"],
        ["6", "432", "124416", "24", "5184"],
    ]
