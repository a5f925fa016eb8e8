"""Job catalogue: what each benchmark job runs and how its output is checked.

A job runs in a fresh interpreter, so the per-process caches of finiteqm
(conductor contexts, center phases, matrix rows, ray norms) start cold,
as they do for a user of the ``finiteqm`` command.  CLI jobs call
``finiteqm.cli.main(argv)`` in-process with stdout captured; the library
job ``align*`` has no CLI command and calls the public API.

Job inputs are fixed and never drawn from the seed: the expected values
and stdout digests below were recorded at the commit that introduced the
benchmark, and the north star requires that stdout stays byte-stable.
This module imports nothing from finiteqm at load time, so run.py can
read the catalogue without importing the package under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Job:
    """One unit of timed work; ``calls`` is empty for a library job."""

    name: str
    label: str
    calls: tuple[tuple[str, ...], ...] = ()
    align_dim: int | None = None


def _cli(name: str, label: str, *calls: str) -> Job:
    return Job(name, label, tuple(tuple(c.split()) for c in calls))


JOBS = {
    job.name: job
    for job in (
        _cli("cl5", "cl5_s", "group --dim 5 --which clifford"),
        _cli("cl6", "cl6_s", "group --dim 6 --which clifford"),
        _cli("pcl7", "pcl7_s", "group --dim 7 --which projective"),
        _cli("cqs2", "cqs2_s", "cqs --dim 2 --steps 2"),
        _cli("cqs3", "cqs3_s", "cqs --dim 3 --steps 1"),
        _cli("orbit7", "orbit7_s", "mub --dim 7 --from-orbit"),
        Job("align26", "align26_s", align_dim=26),
        _cli("crt6", "crt6_s", "crt --dim 6 --mode projective"),
        _cli("mub", "mub_s", "mub --dim 7", "mub --dim 9"),
        # small instances for the benchmark's own smoke test
        _cli("pcl3", "pcl3_s", "group --dim 3 --which projective"),
        _cli("cqs21", "cqs21_s", "cqs --dim 2 --steps 1"),
        Job("align6", "align6_s", align_dim=6),
        _cli("mub3", "mub3_s", "mub --dim 3"),
    )
}

# Workload -> jobs.  The position of a job in its tuple is its metric slot
# (job1_s, job2_s, job3_s); the seed only permutes the order they run in.
WORKLOADS = {
    "closure": ("cl5", "cl6", "pcl7"),
    "generate": ("cqs2", "cqs3", "orbit7"),
    "structure": ("align26", "crt6", "mub"),
}
SMOKE = ("pcl3", "cqs21", "align6", "mub3")

# SHA-256 of each CLI call's stdout at the commit that introduced the
# benchmark.
STDOUT_SHA256 = {
    "group --dim 5 --which clifford": (
        "7d85e848725ca7c3c8252ff429afd7e7"
        "e7e876e02ea77a38d9abc61e45d1b9f2"
    ),
    "group --dim 6 --which clifford": (
        "57f55c6107f89484811344eb2c3b98a1"
        "277a2716331b87679bce4e14d6fb4598"
    ),
    "group --dim 7 --which projective": (
        "ffa1021b0ad11d1184c83bbe148b7583"
        "4806c4d097f1efb5118a2f157a5e4d61"
    ),
    "group --dim 3 --which projective": (
        "23603d0b8fbcf7fca175067279aae665"
        "acf21a38bdf5eb6d4ac54730877ea4a7"
    ),
    "cqs --dim 2 --steps 2": (
        "3e5a9dde34847d5c82bf70c0dabff34d"
        "ab8973609fc4cf4234f3cf75eaa143ba"
    ),
    "cqs --dim 3 --steps 1": (
        "42d9e6687d75aaf86190c0b192beac30"
        "037a58da71a1bb6e8372fa74969098bf"
    ),
    "cqs --dim 2 --steps 1": (
        "cb819a64a80128c33a49e197331defc7"
        "bf27866dbd470d87b6327e32f1b53ccc"
    ),
    "crt --dim 6 --mode projective": (
        "9fb149b8185c998f465c982a32c45802"
        "b8d25ba7b6422ec541263cdf9ffe881e"
    ),
    "mub --dim 7": (
        "89760be6df38a158286659dda508c37a"
        "04f05e69b11f7f15558ee758ec5e0aa8"
    ),
    "mub --dim 9": (
        "423ea54d5aa16fda96c7a63436bb41c1"
        "21f617d8c49324f57ed74b092e01e3f3"
    ),
    "mub --dim 7 --from-orbit": (
        "0afba8cdf644d028061e734d19812dc8"
        "e3670f5b54dede6e57f19064adfa39f3"
    ),
    "mub --dim 3": (
        "3935779daaddbcb091b77cee0bd09899"
        "4c6574529ed5e8b581c34be05d0856e0"
    ),
}

# Independent copies of the calibrated generation counts: step -> fields.
_STEPS = {
    2: {
        0: {"new_states": 6},
        1: {"deduped_candidates": 48, "kept": 24, "orbit_sizes": [24]},
        2: {"orbit_sizes": [24] * 16, "new_states": 384},
    },
    3: {
        0: {"new_states": 12},
        1: {"kept": 153, "new_states": 153, "orbit_sizes": [9, 36, 108]},
    },
}
_TOTAL_STATES = {(2, 1): 30, (2, 2): 414, (3, 1): 165}
_GROUP_ORDERS = {
    (5, "clifford"): 30000,
    (6, "clifford"): 124416,
    (3, "projective"): 216,
    (7, "projective"): 16464,
}


def appleby_projective_order(n: int) -> int:
    """|PCL(n)| = n^2 |SL(2, Z_n)| (Appleby 2005), for odd n."""
    sl2 = Fraction(n**3)
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            sl2 *= 1 - Fraction(1, p * p)
    return n * n * int(sl2)


def align(n: int) -> bool:
    """P X_n P^dagger == X_(n_1) (x) X_(n_2) (x) ... through public calls."""
    from finiteqm import crt_permutation, crt_split, kron, wh_generators
    from finiteqm.cyclotomic import conductor_for

    split = crt_split(n)
    m = conductor_for(n)
    perm = crt_permutation(split)
    _, x_n, _ = wh_generators(n)
    tensor = None
    for f in split.factors:
        _, x_f, _ = wh_generators(f, m)
        tensor = x_f if tensor is None else kron(tensor, x_f)
    return (perm @ x_n @ perm.dagger()) == tensor


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_call(argv: list[str], rc: int, stdout: str) -> list[str]:
    cmd = " ".join(argv)
    failures = []
    want = STDOUT_SHA256.get(cmd)
    got = hashlib.sha256(stdout.encode()).hexdigest()
    if want != got:
        failures.append(f"{cmd}: stdout sha256 {got[:16]} != pinned {str(want)[:16]}")
    if rc != 0:
        failures.append(f"{cmd}: exit code {rc}")
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return failures + [f"{cmd}: stdout is not JSON"]
    if out.get("ok") is not True:
        failures.append(f"{cmd}: ok is {out.get('ok')!r}")
    kind = argv[0]
    dim = int(_option(argv, "--dim"))
    if kind == "group":
        which = _option(argv, "--which")
        want_order = _GROUP_ORDERS[(dim, which)]
        if out.get("order") != want_order:
            failures.append(f"{cmd}: order {out.get('order')} != {want_order}")
        if which == "projective" and out.get("order") != appleby_projective_order(dim):
            failures.append(f"{cmd}: order differs from Appleby's closed form")
    elif kind == "cqs":
        steps = int(_option(argv, "--steps"))
        reports = {r["step"]: r for r in out.get("reports", [])}
        for step in range(steps + 1):
            for field, value in _STEPS[dim][step].items():
                got_value = reports.get(step, {}).get(field)
                if got_value != value:
                    failures.append(f"{cmd}: step {step} {field} {got_value} != {value}")
        if out.get("count") != _TOTAL_STATES[(dim, steps)]:
            failures.append(f"{cmd}: {out.get('count')} states")
        reqs = out.get("requirements", {})
        if len(reqs) != 3 or not all(v is True for v in reqs.values()):
            failures.append(f"{cmd}: requirements {reqs}")
    elif kind == "crt":
        pc = out.get("product_check", {})
        expected = {
            "projective_global_order": 5184,
            "projective_product": 24 * 216,
            "projective_matches": True,
            "shift_tensor_ok": True,
            "clock_tensor_ok": True,
        }
        for field, value in expected.items():
            if pc.get(field) != value:
                failures.append(f"{cmd}: {field} {pc.get(field)} != {value}")
    elif kind == "mub":
        if out.get("n_bases") != dim + 1 or out.get("verified") is not True:
            failures.append(
                f"{cmd}: n_bases {out.get('n_bases')} verified {out.get('verified')}"
            )
    return failures


def check(job: Job, outputs: list[dict]) -> list[str]:
    """Failures of one job execution; an empty list means it passed."""
    if job.align_dim is not None:
        if outputs != [{"equal": True}]:
            return [f"{job.name}: tensor alignment returned {outputs}"]
        return []
    if len(outputs) != len(job.calls):
        return [f"{job.name}: {len(outputs)} outputs for {len(job.calls)} calls"]
    failures = []
    for out in outputs:
        failures += _check_call(out["argv"], out["rc"], out["stdout"])
    return failures
