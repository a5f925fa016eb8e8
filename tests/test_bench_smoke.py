"""The benchmark's own smoke test, run as a tier-1 test.

``bench/smoke.py`` traces small instances of every benchmark job through
the package, so it fails when the package stops offering what the tracer
wraps (``UMatrix.rows``, ``Ray.__init__``), when a traced return value
changes shape (the 4-tuple of ``interference_candidates``, the
``(kept, rejected)`` pair of ``rationality_filter``), when a known count
moves or when a job's stdout no longer matches its pinned digest.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke ok" in proc.stdout
