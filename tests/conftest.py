"""Shared strategies and the floating-point embedding oracle.

The oracle evaluates a cyclotomic element numerically from its canonical
coefficients, independently of the exact arithmetic paths under test, so
exact identities can be cross-checked against complex floats.
"""

import cmath
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from finiteqm.cyclotomic import Cyclotomic, euler_phi
from finiteqm.rays import Ray
from finiteqm.states import StateSet

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

# one PASS/FAIL line per acceptance criterion, echoed in the run summary
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def embed(z: Cyclotomic) -> complex:
    """Independent numeric embedding: sum c_k exp(2 pi i k / m)."""
    acc = 0j
    for k, c in enumerate(z.coeffs):
        if c:
            acc += float(c) * cmath.exp(2j * cmath.pi * k / z.m)
    return acc


def rationals(max_abs: int = 8, max_den: int = 6):
    return st.builds(
        Fraction,
        st.integers(-max_abs, max_abs),
        st.integers(1, max_den),
    )


def cyclotomics(m: int, max_abs: int = 8):
    phi = euler_phi(m)
    return st.lists(rationals(max_abs), min_size=phi, max_size=phi).map(
        lambda cs: Cyclotomic.make(m, cs)
    )


def nonzero_cyclotomics(m: int):
    return cyclotomics(m).filter(lambda z: not z.is_zero())


def rays(n: int, m: int):
    return (
        st.lists(cyclotomics(m, max_abs=4), min_size=n, max_size=n)
        .filter(lambda amps: any(not a.is_zero() for a in amps))
        .map(Ray)
    )


def shuffled_stateset(ss: StateSet, rng) -> StateSet:
    """A copy of ss whose states, orbits and orbit members come in an order
    drawn from rng; generation from it must not depend on that order."""
    out = StateSet(dim=ss.dim, conductor=ss.conductor, reports=list(ss.reports))
    out.orbits = [rng.sample(orbit, len(orbit)) for orbit in ss.orbits]
    rng.shuffle(out.orbits)
    out.states = {ray: ss.states[ray] for ray in rng.sample(list(ss.states), len(ss))}
    return out
