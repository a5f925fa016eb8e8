"""Smoke test of the benchmark itself, on small instances.

Usage (from the repository root): python3 bench/smoke.py

Runs the ``smoke`` job list (PCL(3), ``cqs --dim 2 --steps 1``, the
dimension-6 shift alignment, ``mub --dim 3``) once untraced and twice
traced through ``bench/run.py``, and checks that

* every job passes its correctness gate;
* every metric that BENCHMARK.json names is emitted, with its unit;
* count metrics repeat exactly between the two traced runs, and the
  counts read at layer boundaries match the known small-instance values;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# PCL(3) has 216 elements and CL(2), closed for the center phases, 192;
# both close under 3 generators.  Step 1 in dimension 2 forms 96 raw and
# 48 distinct candidates and keeps 24.
KNOWN_COUNTS = {
    "qgroups.group_closure.calls": 2,
    "qgroups.closure.elements": 216 + 192,
    "qgroups.closure.products": 3 * (216 + 192),
    "states.candidates_raw": 96,
    "states.candidates_deduped": 48,
    "states.kept": 24,
    "states.skipped_pairs": 0,
}


def run(trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    runs = [run(trace) for trace in (0, 1, 1)]
    plain, *traced = [result_of(out) for _, out in runs]
    for (code, _), res in zip(runs, [plain, *traced]):
        if code or not res["correct"] or res["failed"]:
            problems.append(f"run exited {code}: {res['failed']} of {res['attempted']} failed")
    for res, declared in ((plain, spec["end_to_end"]), (traced[0], spec["per_layer"])):
        for metric in declared:
            got = res["metrics"].get(metric["name"])
            if got is None:
                problems.append(f"metric {metric['name']} missing")
            elif got["unit"] != metric["unit"]:
                problems.append(f"metric {metric['name']} has unit {got['unit']}")
        extra = set(res["metrics"]) - {m["name"] for m in declared}
        if extra:
            problems.append(f"undeclared metrics {sorted(extra)}")
    for name, value in traced[0]["metrics"].items():
        if value["unit"] in ("count", "bytes", "ratio"):
            if value != traced[1]["metrics"][name]:
                problems.append(f"{name} differs between traced runs")
    for name, want in KNOWN_COUNTS.items():
        got = traced[0]["metrics"].get(name, {}).get("value")
        if got != want:
            problems.append(f"{name} is {got}, expected {want}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(0, cwd=bare)
    shutil.rmtree(bare)
    last = out.strip().splitlines()[-1:]
    if code == 0 or (last and last[0].startswith("{")):
        problems.append(f"without sources the benchmark exited {code} and printed {out[-200:]!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
