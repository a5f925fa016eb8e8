"""Mutually unbiased bases: construction, verification, orbit extraction.

Two orthonormal bases are mutually unbiased when every cross-basis
transition probability is exactly 1/N.  In prime power dimension
N = p^l a complete set of N+1 such bases exists.  The construction here
uses the commuting families of shift/phase operators indexed by a Galois
field slope s: the joint eigenvectors of { X_a Z_{s a} } form one basis
per slope, and the computational basis completes the set.  Every
eigenvector amplitude is a root of unity zeta_m^k, and its exponent k
comes from an exact count along an F_p-basis of the field (one trace per
field element and slope), never from numeric eigendecomposition; the rays
are reduction rows of those exponents, canonical as built.  verify_mub is
the final arbiter either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import _context, conductor_for
from .galois import GaloisField, GFElement, gf_build, gf_trace_int, is_prime
from .rays import Ray, ontic_ray, probabilities

__all__ = [
    "BasisSet",
    "MubExtractionError",
    "MubReport",
    "extract_mubs_from_orbit",
    "mub_complete_set",
    "verify_mub",
]


class MubExtractionError(ValueError):
    """An orbit could not be partitioned into mutually unbiased bases."""

    def __init__(self, message: str, bases=None, leftover=None):
        super().__init__(message)
        self.bases = bases or []
        self.leftover = leftover or []


@dataclass
class BasisSet:
    """A list of orthonormal bases over one field, each a list of N rays."""

    dim: int
    bases: list[list[Ray]]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "bases": [[ray.to_json() for ray in basis] for basis in self.bases],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BasisSet":
        return cls(
            dim=obj["dim"],
            bases=[[Ray.from_json(r) for r in basis] for basis in obj["bases"]],
        )


@dataclass
class MubReport:
    """Outcome of an exact unbiasedness check."""

    dim: int
    n_bases: int
    ok: bool
    violations: list[str]


def verify_mub(bs: BasisSet) -> MubReport:
    """Exact check: orthonormal within bases, probability 1/N across."""
    flat = [ray for basis in bs.bases for ray in basis]
    rows, lo = [], 0
    for basis in bs.bases:
        rows.append(range(lo, lo + len(basis)))
        lo += len(basis)
    violations = _mub_violations(bs.dim, rows, probabilities(flat, flat))
    return MubReport(
        dim=bs.dim, n_bases=len(bs.bases), ok=not violations, violations=violations
    )


def _mub_violations(n: int, bases, probs) -> list[str]:
    """verify_mub's violations for bases given as row positions of probs."""
    violations: list[str] = []
    for bi, basis in enumerate(bases):
        if len(basis) != n:
            violations.append(f"basis {bi} has {len(basis)} rays, expected {n}")
            continue
        for i in range(n):
            row = probs[basis[i]]
            for j in range(i + 1, n):
                p = row[basis[j]]
                if p != 0:
                    violations.append(
                        f"basis {bi}: rays {i},{j} not orthogonal (P={p})"
                    )
    for bi, one in enumerate(bases):
        for bj in range(bi + 1, len(bases)):
            for i, a in enumerate(one):
                row = probs[a]
                for j, b in enumerate(bases[bj]):
                    p = row[b]
                    if p is None or p.numerator != 1 or p.denominator != n:
                        violations.append(
                            f"bases {bi},{bj}: rays {i},{j} have P={p}, want 1/{n}"
                        )
    return violations


def _slope_basis(field: GaloisField, slope: GFElement, m: int) -> list[Ray]:
    """Joint eigenbasis of the commuting family {X_a Z_(slope*a)}.

    Every amplitude is a root of unity zeta_m^k, so the basis is a (q, q)
    table of exponents mod m.  For a unit e_j = x^j of the field, the
    eigenvector recursion is v[g + e_j] = lam_j^-1 * chi(slope*e_j*g) * v[g]
    with chi the trace character; consistency around each additive cycle
    forces lam_j^p = chi(slope * e_j^2 * p(p-1)/2), so lam_j = zeta_m^k_j
    with k_j = base_j + (m/p) * digit_j(t) for eigenvalue tuple t, where
    base_j is 0 for odd p and (m/4) * Tr(slope * e_j^2) for p = 2.

    Fill v[g] by peeling the lowest nonzero digit, g = (g - e_j) + e_j,
    down to 0.  The character factors depend on g alone and sum to the
    exponent phase(g); each unit e_j is peeled exactly digit_j(g) times,
    so the exponent of v_t[g] is phase(g) - sum_j digit_j(g) * k_j(t).
    v_t[0] = 1 and every amplitude is a reduction row of one power of
    zeta_m, so each ray is already in canonical form over denominator 1.
    """
    p, q = field.p, field.order
    step = m // p
    elements = field.elements()
    units = [field.from_index(p**j) for j in range(field.ell)]
    digits = np.array([g.coeffs for g in elements], dtype=np.int64)  # (q, ell)
    if p % 2:
        base = np.zeros(field.ell, dtype=np.int64)
    else:
        base = np.array([(m // 4) * gf_trace_int(slope * e * e) for e in units])
    phase = [0] * q
    for idx, gamma in enumerate(elements[1:], start=1):
        j = next(k for k, c in enumerate(gamma.coeffs) if c)
        prev = gamma - units[j]
        phase[idx] = phase[prev.index] + step * gf_trace_int(slope * units[j] * prev)
    k = base + step * digits  # k[t, j]
    exps = (np.array(phase) - k @ digits.T) % m  # exps[t, gamma]
    nums = _context(m).powers[exps]
    return [Ray._from_canonical(m, num, 1) for num in nums]


def mub_complete_set(p: int, ell: int = 1) -> BasisSet:
    """N+1 mutually unbiased bases in dimension N = p^ell.

    The computational basis plus one slope basis per field element.  The
    returned set always passes verify_mub for the supported inputs; the
    caller can re-verify since the check is exact and cheap.
    """
    if not is_prime(p):
        raise ValueError(f"dimension base {p} is not prime")
    if ell < 1:
        raise ValueError("exponent must be >= 1")
    field = gf_build(p, ell)
    n = field.order
    m = conductor_for(n)
    bases = [[ontic_ray(n, k, m) for k in range(n)]]
    for slope in field.elements():
        bases.append(_slope_basis(field, slope, m))
    return BasisSet(dim=n, bases=bases)


def extract_mubs_from_orbit(rays) -> BasisSet:
    """Greedily partition rays into orthonormal bases, then verify.

    Succeeds exactly when the input is a disjoint union of mutually
    unbiased bases; otherwise raises MubExtractionError naming the
    obstruction and carrying any bases built so far.
    """
    pool = sorted(set(rays), key=Ray.key)
    if not pool:
        raise MubExtractionError("empty orbit")
    n = pool[0].dim
    probs = probabilities(pool, pool)
    picked: list[list[int]] = []  # each basis as positions in pool
    bases: list[list[Ray]] = []
    remaining = list(range(len(pool)))
    while remaining:
        basis = [remaining[0]]
        for cand in remaining[1:]:
            if len(basis) == n:
                break
            row = probs[cand]
            if all(row[b] == 0 for b in basis):
                basis.append(cand)
        if len(basis) != n:
            raise MubExtractionError(
                f"could not complete an orthonormal basis from ray "
                f"{pool[basis[0]].key()}: found only {len(basis)} of {n}",
                bases=bases,
                leftover=[pool[k] for k in remaining],
            )
        chosen = set(basis)
        remaining = [k for k in remaining if k not in chosen]
        picked.append(basis)
        bases.append([pool[k] for k in basis])
    result = BasisSet(dim=n, bases=bases)
    violations = _mub_violations(n, picked, probs)
    if violations:
        raise MubExtractionError(
            "partition found but unbiasedness fails: " + "; ".join(violations[:3]),
            bases=bases,
        )
    return result
