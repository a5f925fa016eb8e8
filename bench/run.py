"""finiteqm benchmark: time the CLI workloads end to end, or trace their layers.

Usage (from the repository root):

    python3 bench/run.py --workload closure --seed 1 --seconds 40 --trace 0

Every job runs in a fresh interpreter (``bench/worker.py``); the seed
sets the order of the first round.  ``--trace 0`` then keeps running the
job with the least total time so far while it fits in ``--seconds`` and
reports the end-to-end metrics, each a median over a job's executions.
``--trace 1`` alternates untraced and traced passes over the job list,
runs the seeded scalar microbenchmarks once and reports the per-layer
metrics.  Every job execution is checked (``jobs.check``).  The last
stdout line is the JSON result; the lines above it are the machine
record, the sample counts and a table.  Spans of a traced run are written
to ``.bench_out/``.  ``--workload smoke`` runs the small jobs that
``bench/smoke.py`` uses.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from jobs import JOBS, SMOKE, WORKLOADS, check
from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB_TIMEOUT_S = 120  # with --seconds 40, a hung job still ends the run within 180 s


def _blas_record() -> dict:
    """BLAS library and its runtime thread count, left at its default."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                record["threads"] = fn()
                return record
    return record


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(src: Path, seed: int) -> dict:
    cpu = None
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_record(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(src),
        "seed": seed,
    }


def run_job(src: Path, name: str, trace: bool) -> dict:
    """One job in a fresh interpreter: timings, peak memory, check result."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(src), name, str(int(trace))],
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"name": name, "wall_s": perf_counter() - t0,
                "failures": [f"{name}: timed out after {JOB_TIMEOUT_S}s"]}
    wall = perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"name": name, "wall_s": wall,
                "failures": [f"{name}: worker exit {proc.returncode}: {tail}"]}
    rec = json.loads(lines[-1])
    return {
        "name": name,
        "wall_s": wall,
        "setup_s": rec["t_imported"] - t0,
        "job_s": rec["job_s"],
        "rss_mb": rec["rss_kb"] / 1024,
        "stdout_bytes": sum(len(o.get("stdout", "").encode()) for o in rec["outputs"]),
        "spans": rec.get("spans", []),
        "failures": check(JOBS[name], rec["outputs"]),
    }


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def balanced_runs(src: Path, order: list[str], seconds: float) -> dict[str, list[dict]]:
    """Untraced executions per job, balancing the time spent on each job.

    After one execution of every job, a job with a single sample runs
    next, then the job with the least total time so far, while its
    expected duration still fits in the time budget.  Short jobs thus get
    more samples than long ones, and every job's median rests on about
    the same measured time.
    """
    t0 = perf_counter()
    runs = {name: [run_job(src, name, trace=False)] for name in order}
    while True:
        spent = {name: sum(r["wall_s"] for r in rs) for name, rs in runs.items()}
        name = min(order, key=lambda n: (len(runs[n]) > 1, spent[n]))
        if perf_counter() - t0 + spent[name] / len(runs[name]) > seconds:
            return runs
        runs[name].append(run_job(src, name, trace=False))


def end_to_end(runs: dict[str, list[dict]], slots: tuple[str, ...]) -> dict:
    """wall_s is the job list run once: the sum of each job's median wall time."""
    ok = {name: [r for r in rs if "job_s" in r] for name, rs in runs.items()}
    metrics = {
        "wall_s": (sum(_median(r["wall_s"] for r in rs) for rs in ok.values()), "s"),
        "setup_s": (_median(r["setup_s"] for rs in ok.values() for r in rs), "s"),
        "peak_rss_mb": (max(_median(r["rss_mb"] for r in rs) for rs in ok.values()), "MB"),
    }
    for k, name in enumerate(slots, 1):
        metrics[f"job{k}_s"] = (_median(r["job_s"] for r in ok[name]), "s")
    return metrics


def run_pass(src: Path, order: list[str], trace: bool) -> dict:
    t0 = perf_counter()
    results = [run_job(src, name, trace) for name in order]
    return {"wall_s": perf_counter() - t0, "jobs": {r["name"]: r for r in results}}


def traced_passes(src: Path, order: list[str], seconds: float):
    """Pairs of an untraced and a traced pass, while another pair fits."""
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = perf_counter()
    while True:
        plain.append(run_pass(src, order, trace=False))
        traced.append(run_pass(src, order, trace=True))
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


def per_layer(plain: list[dict], traced: list[dict], costs: dict) -> tuple[dict, bool]:
    """Median per-layer metrics over traced passes; also whether counts repeat."""
    summaries = []
    for p in traced:
        spans = [s for r in p["jobs"].values() for s in r.get("spans", [])]
        m = summarize(spans)
        m["cli.stdout_bytes"] = (sum(r.get("stdout_bytes", 0) for r in p["jobs"].values()), "bytes")
        summaries.append(m)
    metrics = {
        name: (_median(s[name][0] for s in summaries), unit)
        for name, (_, unit) in summaries[0].items()
    }
    counts = [{k: v for k, v in s.items() if v[1] not in ("s", "1/s")} for s in summaries]
    repeat = all(c == counts[0] for c in counts)
    overhead = _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, value in costs.items():
        metrics[name] = (value, "us")
    return metrics, repeat


def scalar_costs(src: Path, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(src), "micro", str(seed)],
        capture_output=True, text=True, timeout=JOB_TIMEOUT_S, cwd=ROOT, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["costs"]


def run_workload(src: Path, jobs: tuple[str, ...], seed: int, seconds: float, trace: bool):
    """Measure a workload: (metrics, samples per job, executions, counts repeat)."""
    order = list(jobs)
    random.Random(seed).shuffle(order)
    if trace:
        plain, traced = traced_passes(src, order, seconds)
        executions = [r for p in plain + traced for r in p["jobs"].values()]
        metrics, repeat = per_layer(plain, traced, scalar_costs(src, seed))
        metrics["fail_ratio"] = (
            sum(1 for r in executions if r["failures"]) / len(executions), "ratio"
        )
        _write_spans(traced, seed)
        samples = {name: len(traced) for name in jobs}
    else:
        runs = balanced_runs(src, order, seconds)
        executions = [r for rs in runs.values() for r in rs]
        metrics, repeat = end_to_end(runs, jobs[:3]), True
        samples = {name: len(rs) for name, rs in runs.items()}
    return metrics, samples, executions, repeat


def _write_spans(traced: list[dict], seed: int) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans_seed{seed}_{os.getpid()}.jsonl"
    with path.open("w") as f:
        for k, p in enumerate(traced):
            for r in p["jobs"].values():
                for s in r.get("spans", []):
                    f.write(json.dumps({"pass": k, **s}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["smoke"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "finiteqm" / "__init__.py").is_file():
        print(f"error: no finiteqm package under {src}", file=sys.stderr)
        return 2

    jobs = SMOKE if args.workload == "smoke" else WORKLOADS[args.workload]
    print("machine " + json.dumps(machine_record(src, args.seed), sort_keys=True))
    metrics, samples, executions, repeat = run_workload(
        src, jobs, args.seed, args.seconds, bool(args.trace)
    )
    failed = sum(1 for r in executions if r["failures"])
    for r in executions:
        for f in r["failures"]:
            print(f"FAIL {f}")
    if not repeat:
        print("FAIL count metrics differ between traced passes")
    print("samples " + json.dumps(samples))
    labels = {f"job{k}_s": JOBS[name] for k, name in enumerate(jobs[:3], 1)}
    for name, (value, unit) in metrics.items():
        job = labels.get(name)
        note = ""
        if job is not None:
            note = f"  {job.label}: " + (
                "; ".join(" ".join(c) for c in job.calls) or f"align({job.align_dim})"
            )
        print(f"{args.workload:9s} {name:46s} {value:16.6f} {unit}{note}")
    result = {
        "correct": failed == 0 and repeat,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
