"""Iterative generation of Clifford-invariant rational-probability states.

Starting from the orbit of |0>, each step superposes unordered pairs of
current states with every phase from the scalar subgroup of the Clifford
group, keeps the candidates whose transition probabilities against the
frozen pre-step set are all rational, closes the kept set under the
Clifford action, and then re-checks pairwise rationality of the union.
The re-check is an assertion, not a repair: a violation raises.

Every orbit, of the seed, of a closed set or of a step's kept states,
comes from one search, `clifford_orbits`: a single breadth-first search
from all seeds at once, split into orbits by a union-find.

The re-check needs one representative per new orbit.  Each generator
X, F, S is a scalar times a unitary, so the transition probability
P(a, b) = |<a|b>|^2 / (|a|^2 |b|^2) satisfies P(g a, g b) = P(a, b).  The
union is closed under the generators, and the group is finite, so it is
closed under their inverses too; hence P(g r, b) = P(r, g^-1 b) with
g^-1 b in the union, and checking each representative r against the
whole union checks every pair with a new state.  A fresh run is closed
by construction; a resumed set is checked for closure once.  On a
failure the literal pair-by-pair check runs, so the error names the same
pair as before.  `verify_requirements` stays the literal all-pairs check.

A step runs on coefficient arrays: the candidates of a whole group of
pairs and all phases come from one exact kernel product per chunk (see
`interference_candidates`), the filter and the re-check are Gram kernel
calls, and the orbit closure maps whole frontiers.

Superpositions are taken between unit representatives, with equal weight
and a scalar-subgroup relative phase.  Two refinements pin down which
emissions count as formed candidates, both validated against the known
dimension-2 and dimension-3 step counts (48/24 and 153 in orbits
9/36/108): an emission must be commensurable (rational squared norm of
the balanced sum; incommensurable sums provably never survive the
filter), and an orthogonal pair superposes only when it spans a proper
subspace, which excludes exactly the complete-basis pairs of dimension 2.

Canonical rays in a valid set always have rational squared norm (the
first amplitude is 1, so |v|^2 = 1 / P(v, e_pivot)), hence the norm ratio
sqrt(r_a/r_b) needed for unit balancing is the square root of a rational
and usually stays inside the working field; pairs whose ratio does not
embed are skipped and counted.

Candidate counts per step are reported (raw / deduplicated / kept), never
assumed; callers that expect specific counts must check the report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .cyclotomic import (
    Cyclotomic,
    SqrtConstructionError,
    _context,
    conductor_for,
    sqrt_rational,
)
from .qgroups import (
    _GRAM_BUDGET,
    _exact_matmul,
    _int_array,
    _right_operator,
    center_of,
    clifford_generators,
    clifford_group,
)
from .rays import (
    Ray,
    _canonical_rays,
    _norm_sq,
    apply_all,
    first_irrational,
    ontic_ray,
    probabilities,
    transition_probability,
)

__all__ = [
    "IntegrityError",
    "StateSet",
    "StepReport",
    "clifford_orbit",
    "clifford_orbits",
    "generate_states",
    "interference_candidates",
    "orbit_decompose",
    "rationality_filter",
    "RejectedCandidate",
    "center_phases",
    "seed_orbit",
    "verify_requirements",
]


class IntegrityError(RuntimeError):
    """The closed state set violated pairwise rationality."""


@dataclass
class StepReport:
    """Calibration counts for one generation step."""

    step: int
    raw_candidates: int
    deduped_candidates: int
    kept: int
    rejected: int
    new_states: int
    orbit_sizes: list[int]
    skipped_pairs: int = 0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "StepReport":
        # reports written before skipped_pairs existed take its default
        return cls(**obj)


@dataclass
class RejectedCandidate:
    """A filtered-out superposition with one irrational witness pair."""

    candidate: Ray
    against: Ray

    @cached_property
    def probability(self) -> Cyclotomic:
        """The witness's irrational transition probability, on first read."""
        return transition_probability(self.candidate, self.against)


@dataclass
class StateSet:
    """States generated so far, with orbit partition and step reports."""

    dim: int
    conductor: int
    states: dict[Ray, int] = field(default_factory=dict)  # ray -> generation step
    orbits: list[list[Ray]] = field(default_factory=list)
    reports: list[StepReport] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.states)

    def sorted_states(self) -> list[Ray]:
        return sorted(self.states, key=Ray.key)

    def to_json(self) -> dict:
        orbits = sorted(
            (sorted(orbit, key=Ray.key) for orbit in self.orbits),
            key=lambda rays: (self.states[rays[0]], rays[0].key()),
        )
        return {
            "dim": self.dim,
            "conductor": self.conductor,
            "count": len(self.states),
            "orbits": [
                {
                    "size": len(rays),
                    "generation": self.states[rays[0]],
                    "rays": [r.to_json() for r in rays],
                }
                for rays in orbits
            ],
            "reports": [r.to_json() for r in self.reports],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StateSet":
        ss = cls(dim=obj["dim"], conductor=obj["conductor"])
        for orbit in obj["orbits"]:
            rays = [Ray.from_json(r) for r in orbit["rays"]]
            ss.orbits.append(rays)
            for r in rays:
                ss.states[r] = orbit["generation"]
        ss.reports = [StepReport.from_json(r) for r in obj.get("reports", [])]
        return ss


_PHASES_CACHE: dict[int, list[Cyclotomic]] = {}


def center_phases(n: int) -> list[Cyclotomic]:
    """Scalar subgroup of the dimension-n Clifford group, computed once."""
    phases = _PHASES_CACHE.get(n)
    if phases is None:
        table = clifford_group(n)
        phases = center_of(table)
        _PHASES_CACHE[n] = phases
    return phases


def clifford_orbits(seeds, n: int) -> list[list[Ray]]:
    """The orbits under X, F, S that meet the seeds, each sorted canonically.

    One breadth-first search runs from all distinct seeds at once, and each
    generator maps the whole frontier in one batch.  For a finite group the
    orbit of a ray is what the generators reach from it, so a union-find
    over the edges ray -> g.ray groups the reached rays into orbits.  The
    orbits are sorted by their first ray, which is their smallest key.
    """
    gens = list(clifford_generators(n).values())
    index: dict[Ray, int] = {}
    for ray in seeds:
        index.setdefault(ray, len(index))
    parent = list(range(len(index)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    frontier = list(index)
    while frontier:
        nxt = []
        for g in gens:
            for ray, img in zip(frontier, apply_all(g, frontier)):
                a = root(index[ray])
                b = index.get(img)
                if b is None:
                    index[img] = len(parent)
                    parent.append(a)
                    nxt.append(img)
                else:
                    parent[root(b)] = a
        frontier = nxt
    orbits: dict[int, list[Ray]] = {}
    for ray, i in index.items():
        orbits.setdefault(root(i), []).append(ray)
    return sorted(
        (sorted(orbit, key=Ray.key) for orbit in orbits.values()),
        key=lambda orbit: orbit[0].key(),
    )


def clifford_orbit(start: Ray, n: int) -> list[Ray]:
    """All rays reachable from start under X, F, S, sorted canonically."""
    return clifford_orbits([start], n)[0]


def seed_orbit(n: int) -> list[Ray]:
    """Orbit of the basis state |0>."""
    return clifford_orbit(ontic_ray(n, 0, conductor_for(n)), n)


def _rational_norms(states, ctx) -> list[Fraction]:
    """|ray|^2 of each state, which must be rational, from one batch."""
    rows = _norm_sq(np.stack([ray.num for ray in states]), ctx)[0]
    out = []
    for ray, row in zip(states, rows.tolist()):
        if any(row[1:]):
            raise IntegrityError(
                "state has irrational squared norm; cannot form unit "
                "superpositions: " + ray.key()
            )
        out.append(Fraction(row[0], ray.den * ray.den))
    return out


def _emission_operator(phases, r: Cyclotomic, ctx) -> np.ndarray:
    """Right operator (2d, P d): a row [x | y] maps to the coefficients of
    den * x + num * y for each phase, where phase * r = num / den.
    """
    dens, nums = [], []
    for phi in phases:
        s = phi * r
        dens.append([s.den] + [0] * (ctx.degree - 1))
        nums.append(list(s.num))
    return _right_operator(_int_array([dens, nums]), ctx)


def interference_candidates(stateset: StateSet):
    """Unit-balanced pairwise superpositions over all center phases.

    An orthogonal pair superposes only when it spans a proper subspace; in
    dimension 2 an orthogonal pair is a complete basis and is skipped.
    Pairs whose unit-balancing norm ratio has no square root inside the
    working field are skipped as well and counted, so a lossy step is
    visible in the calibration report.  An emission only forms a candidate
    when it is commensurable, i.e. the squared norm of the balanced sum is
    rational; an incommensurable sum provably fails the rationality filter
    against its own parents, so this prunes candidates that could never be
    kept.  Returns (candidates, raw_count, deduped_count, skipped_pairs);
    raw counts every (pair, phase) emission before the commensurability
    cut and deduplication.

    The emissions are formed on arrays.  Every state is brought to one
    common denominator L, so a = A / L and b = B / L.  The pairs are
    grouped by r = sqrt(|a|^2 / |b|^2), and within a group the emission
    a + phi r b for phase phi r = S / e is L e times e A + S B.  That is
    the row [A | B] of each amplitude against the stacked multipliers of
    e and S, one kernel product for every pair and phase of a chunk.  Its
    squared norm is one more batch, and canonicalization cancels the
    factor L e.
    """
    states = stateset.sorted_states()
    phases = center_phases(stateset.dim)
    m = stateset.conductor
    ctx = _context(m)
    n, d = stateset.dim, ctx.degree
    pairs = np.triu_indices(len(states), 1)
    if n == 2:
        probs = probabilities(states, states)
        proper = np.array([[p != 0 for p in row] for row in probs], dtype=bool)
        pairs = tuple(ix[proper[pairs]] for ix in pairs)
    # norm classes of the states, then one ratio group per pair of classes
    norms = _rational_norms(states, ctx)
    classes: dict[Fraction, int] = {}
    cls = np.array([classes.setdefault(x, len(classes)) for x in norms])
    ratios: dict[Fraction, int] = {}
    group_of = np.array(
        [[ratios.setdefault(x / y, len(ratios)) for y in classes] for x in classes]
    )
    group = group_of[cls[pairs[0]], cls[pairs[1]]]
    den = 1
    for ray in states:
        den = math.lcm(den, ray.den)
    scale = _int_array([den // ray.den for ray in states]).reshape(-1, 1, 1)
    flat = np.stack([ray.num for ray in states]).reshape(len(states), 1, n * d)
    nums = _exact_matmul(scale, flat).reshape(len(states), n, d)
    chunk = max(1, _GRAM_BUDGET // (len(phases) * n * d * d))
    raw = 0
    skipped = 0
    kept = []
    for ratio, g in ratios.items():
        members = np.flatnonzero(group == g)
        if not len(members):
            continue
        try:
            r = sqrt_rational(ratio, m)
        except SqrtConstructionError:
            skipped += len(members)
            continue
        raw += len(members) * len(phases)
        op = _emission_operator(phases, r, ctx)
        for lo in range(0, len(members), chunk):
            sel = members[lo : lo + chunk]
            rows = np.concatenate(
                (nums[pairs[0][sel]], nums[pairs[1][sel]]), axis=2
            ).reshape(len(sel) * n, 2 * d)
            emit = _exact_matmul(rows, op).reshape(len(sel), n, len(phases), d)
            emit = emit.transpose(0, 2, 1, 3).reshape(-1, n, d)
            norm = _norm_sq(emit, ctx)[0]
            ok = ~(norm[:, 1:] != 0).any(axis=1) & (norm[:, 0] != 0)
            if ok.any():
                kept.append(emit[ok])
    found = set()
    if kept:
        found = set(_canonical_rays(np.concatenate(kept), m)) - set(stateset.states)
    return sorted(found, key=Ray.key), raw, len(found), skipped


def rationality_filter(candidates, stateset: StateSet):
    """Keep candidates whose probabilities against every current state are
    rational; rejects carry one irrational witness each, in input order.

    The witness is the first current state, in sorted order, with an
    irrational probability against the candidate.
    """
    candidates = list(candidates)
    existing = stateset.sorted_states()
    kept: list[Ray] = []
    rejected: list[RejectedCandidate] = []
    for cand, j in zip(candidates, first_irrational(candidates, existing)):
        if j < 0:
            kept.append(cand)
        else:
            rejected.append(RejectedCandidate(cand, existing[j]))
    return kept, rejected


def orbit_decompose(rays, n: int) -> list[list[Ray]]:
    """Partition a Clifford-closed set of rays into orbits.

    Raises ValueError when the set is not closed (an orbit escapes it).
    """
    universe = set(rays)
    orbits = clifford_orbits(universe, n)
    for orbit in orbits:
        if not universe.issuperset(orbit):
            ray = next(r for r in orbit if r in universe)
            raise ValueError(
                f"set is not Clifford-closed: orbit of {ray.key()} leaves it"
            )
    return orbits


def _assert_pairwise_rational(new_states, old_states, context: str):
    """Raise on the first irrational pair: for each new state in order, the
    later new states first, then the old ones.

    That pair is the first irrational pair of the first row of
    ``first_irrational(new, new + old)`` that has one.  Its column j is
    after the row i: P(a, a) = 1, and an irrational pair at an earlier new
    column j would, since P(a, b) = P(b, a), make row j the first.
    """
    new, old = list(new_states), list(old_states)
    first = first_irrational(new, new + old).tolist()
    i = next((i for i, j in enumerate(first) if j >= 0), None)
    if i is None:
        return
    a, j = new[i], first[i]
    if j < len(new):
        raise IntegrityError(
            f"{context}: irrational probability between new states "
            f"{a.key()} and {new[j].key()}"
        )
    raise IntegrityError(
        f"{context}: irrational probability between {a.key()} "
        f"and existing {old[j - len(new)].key()}"
    )


def _assert_orbits_rational(new_orbits, old_states, context: str):
    """Check every pair that involves a new state through one representative
    per new orbit, and raise as ``_assert_pairwise_rational`` does.

    The argument: each generator X, F, S is a scalar times a unitary, so
    P(g a, g b) = P(a, b) for the transition probability
    P(a, b) = |<a|b>|^2 / (|a|^2 |b|^2).  The union U of the new orbits
    and the old states is closed under the generators (the old set is
    closed by construction, or checked once when resumed), and the group
    they generate is finite, so U is also closed under their inverses.
    A new state is g r for the representative r of its orbit and some g,
    so for every b in U, P(g r, b) = P(r, g^-1 b) with g^-1 b in U.
    Checking each representative against all of U therefore checks every
    pair the literal lower triangle checks.  On a failure the literal
    check runs, so the pair it names and its message are the literal ones.
    """
    new = sorted((ray for orbit in new_orbits for ray in orbit), key=Ray.key)
    old = list(old_states)
    reps = [orbit[0] for orbit in new_orbits]
    if (first_irrational(reps, new + old) < 0).all():
        return
    _assert_pairwise_rational(new, old, context)
    # a failing representative pair is one of the pairs checked literally
    raise AssertionError(f"{context}: representative and literal checks disagree")


def _first_escaping(ss: StateSet) -> Ray | None:
    """The first state, in sorted order, with an X, F or S image outside
    the set, or None when the set is closed under them.
    """
    states = ss.sorted_states()
    escaping = set()
    for g in clifford_generators(ss.dim).values():
        images = apply_all(g, states)
        escaping.update(i for i, img in enumerate(images) if img not in ss.states)
    return states[min(escaping)] if escaping else None


def generate_states(
    n: int,
    steps: int,
    *,
    initial: StateSet | None = None,
) -> StateSet:
    """Run the generation loop for the given number of steps.

    Step 0 is the orbit of |0>.  Each later step: superposition candidates
    from all current states, rationality filter against the frozen current
    set, Clifford-orbit closure of the kept states, then a pairwise
    rationality assertion over the union.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    m = conductor_for(n)
    if initial is not None:
        if initial.dim != n or initial.conductor != m:
            raise ValueError("initial state set has wrong dimension or conductor")
        if not initial.states:
            raise ValueError("initial state set is empty")
        if (ray := _first_escaping(initial)) is not None:
            raise IntegrityError(
                f"initial state set is not Clifford-closed: an image of {ray.key()} "
                "leaves it"
            )
        ss = initial
        start_step = max(ss.states.values()) + 1
    else:
        orbit0 = seed_orbit(n)
        ss = StateSet(dim=n, conductor=m)
        for ray in orbit0:
            ss.states[ray] = 0
        ss.orbits.append(orbit0)
        for k in range(n):
            if ontic_ray(n, k, m) not in ss.states:
                raise AssertionError("seed orbit must contain every basis state")
        _assert_orbits_rational([orbit0], [], "seed orbit")
        ss.reports.append(
            StepReport(
                step=0,
                raw_candidates=0,
                deduped_candidates=0,
                kept=0,
                rejected=0,
                new_states=len(orbit0),
                orbit_sizes=[len(orbit0)],
            )
        )
        start_step = 1
    for k in range(steps):
        step = start_step + k
        candidates, raw, deduped, skipped = interference_candidates(ss)
        kept, rejected = rationality_filter(candidates, ss)
        new_orbits = clifford_orbits(kept, n)
        new_states = [r for orbit in new_orbits for r in orbit]
        if any(r in ss.states for r in new_states):
            # an orbit that meets the old set would have to be inside it
            raise IntegrityError(
                "orbit of a kept candidate intersects the existing set "
                "without being contained in it"
            )
        _assert_orbits_rational(new_orbits, ss.sorted_states(), f"step {step}")
        for r in new_states:
            ss.states[r] = step
        ss.orbits.extend(new_orbits)
        ss.reports.append(
            StepReport(
                step=step,
                raw_candidates=raw,
                deduped_candidates=deduped,
                kept=len(kept),
                rejected=len(rejected),
                new_states=len(new_states),
                orbit_sizes=sorted(len(o) for o in new_orbits),
                skipped_pairs=skipped,
            )
        )
    return ss


def verify_requirements(ss: StateSet) -> dict:
    """Literal checks of the three defining requirements of the set."""
    states = ss.sorted_states()
    ontic = all(
        ontic_ray(ss.dim, k, ss.conductor) in ss.states for k in range(ss.dim)
    )
    return {
        "clifford_invariant": _first_escaping(ss) is None,
        "contains_ontic": ontic,
        "pairwise_rational": bool((first_irrational(states, states) < 0).all()),
    }
