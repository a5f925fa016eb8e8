"""Run one benchmark job in this (fresh) interpreter and print its record.

Usage: python3 bench/worker.py SRC JOB TRACE
       python3 bench/worker.py SRC micro SEED

SRC is the directory holding the ``finiteqm`` package.  JOB names an
entry of ``jobs.JOBS``; TRACE is 1 to record spans.  The record is one
JSON line on stdout; the job's own stdout is captured in memory and
returned inside it.  ``t_imported`` is read from the system-wide monotonic
clock, so the parent can subtract its own spawn time from it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _import_finiteqm(src: Path):
    sys.path.insert(0, str(src))
    import finiteqm
    import finiteqm.cli

    if not Path(finiteqm.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"finiteqm was imported from {finiteqm.__file__}, not {src}")
    return finiteqm.cli


def _run(job, cli) -> list[dict]:
    from jobs import align

    if job.align_dim is not None:
        return [{"equal": bool(align(job.align_dim))}]
    outputs = []
    for argv in job.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        outputs.append({"argv": list(argv), "rc": rc, "stdout": buf.getvalue()})
    return outputs


def main(argv: list[str]) -> int:
    src, name, arg = Path(argv[0]), argv[1], argv[2]
    cli = _import_finiteqm(src)
    t_imported = perf_counter()
    if name == "micro":
        from micro import scalar_costs

        print(json.dumps({"costs": scalar_costs(int(arg))}))
        return 0

    from jobs import JOBS

    job = JOBS[name]
    tracer = None
    if arg == "1":
        from tracer import Tracer

        tracer = Tracer(name)
        tracer.install()
        root = tracer.open("job")
    t0 = perf_counter()
    outputs = _run(job, cli)
    job_s = perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
    record = {
        "t_imported": t_imported,
        "job_s": job_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": outputs,
    }
    if tracer is not None:
        record["spans"] = tracer.export()
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
