"""Seeded scalar microbenchmarks of ``Cyclotomic`` operations.

Operands are drawn from the seed in the fields the workloads run in:
Q(zeta_24) is the field of every dimension-2 and dimension-3 job (the
conductor is lcm(24, 2N)), and Q(zeta_168) is the field of ``mub --dim 7``
and of the PCL(7) closure, whose projective canonicalization inverts
entries.  An operand is a short sum of roots of unity with small integer
weights over a small denominator, the shape of the matrix entries and ray
amplitudes these jobs produce.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# metric -> (conductor, operation, operands per timed loop)
SPECS = {
    "cyclotomic.mul_us.m24": (24, "mul", 4000),
    "cyclotomic.mul_us.m168": (168, "mul", 400),
    "cyclotomic.conj_us.m24": (24, "conj", 4000),
    "cyclotomic.inv_us.m168": (168, "inv", 10),
}
_REPEATS = 5


def _operand(rng: random.Random, m: int):
    from finiteqm.cyclotomic import Cyclotomic, zeta

    while True:
        acc = Cyclotomic.zero(m)
        for _ in range(rng.randint(1, 3)):
            acc = acc + zeta(m, rng.randrange(m)) * rng.choice((-2, -1, 1, 2))
        if not acc.is_zero():
            return acc / rng.choice((1, 2, 3))


def scalar_costs(seed: int) -> dict[str, float]:
    """Median microseconds per operation over a few timed loops."""
    rng = random.Random(seed)
    costs = {}
    for metric, (m, op, count) in SPECS.items():
        xs = [_operand(rng, m) for _ in range(count)]
        ys = [_operand(rng, m) for _ in range(count)]
        if op == "mul":
            def loop():
                for x, y in zip(xs, ys):
                    x * y
        elif op == "conj":
            def loop():
                for x in xs:
                    x.conj()
        else:
            def loop():
                for x in xs:
                    x.inv()
        loop()  # warm-up: builds the conductor's reduction tables
        samples = []
        for _ in range(_REPEATS):
            t0 = perf_counter()
            loop()
            samples.append((perf_counter() - t0) / count * 1e6)
        costs[metric] = statistics.median(samples)
    return costs
