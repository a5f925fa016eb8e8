"""Array-backed rays and the Gram kernel against the scalar oracle.

Every batched result here is compared with the scalar ``Cyclotomic``
path: ``prob_rational`` pair by pair, an entrywise image of each ray
under a matrix, and the loop forms of the rationality filter and of the
pairwise and MUB checks.  The Gram kernel's embedding route is also
compared with its exact route, forced on the same tiles, and its verdict
from h rounded traces with the full recovery of every coefficient.
"""

import json
import math
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import finiteqm.qgroups as qgroups
import finiteqm.rays as rays_mod
from conftest import rays
from finiteqm.cyclotomic import (
    Cyclotomic,
    SqrtConstructionError,
    _context,
    _factorize,
    canonical_dumps,
    conductor_for,
    euler_phi,
    sqrt_rational,
    zeta,
)
from finiteqm.mub import BasisSet, mub_complete_set, verify_mub
from finiteqm.qgroups import clifford_generators
from finiteqm.rays import (
    Ray,
    apply_all,
    inner,
    ontic_ray,
    prob_rational,
    first_irrational,
    probabilities,
    rays_of,
    transition_probability,
)
from finiteqm.states import (
    IntegrityError,
    StateSet,
    _assert_orbits_rational,
    _assert_pairwise_rational,
    center_phases,
    clifford_orbit,
    clifford_orbits,
    generate_states,
    interference_candidates,
    rationality_filter,
    seed_orbit,
    verify_requirements,
)

M2 = conductor_for(2)


def scalar_probabilities(rows, cols):
    return [[prob_rational(a, b) for b in cols] for a in rows]


def scalar_first_irrational(want):
    """Index of the first None in each row of a scalar probability table."""
    return [next((j for j, p in enumerate(row) if p is None), -1) for row in want]


def assert_gram_matches(rows, cols):
    want = scalar_probabilities(rows, cols)
    assert probabilities(rows, cols) == want
    assert first_irrational(rows, cols).tolist() == scalar_first_irrational(want)
    return want


def ray_of(m, *amps):
    return Ray([a if isinstance(a, Cyclotomic) else Cyclotomic.from_rational(m, a)
                for a in amps])


@contextmanager
def exact_route(force=False):
    """Record the (rows, columns) of each tile that takes the exact route;
    with force, every tile takes it."""
    tiles = []
    real_tile, real_side = rays_mod._exact_tile, rays_mod._gram_side

    def record(a, b, *rest):
        tiles.append((len(a), len(b)))
        return real_tile(a, b, *rest)

    def inflated(*args):
        *side, size = real_side(*args)
        return (*side, size * np.inf)

    with mock.patch.object(rays_mod, "_exact_tile", record):
        if not force:
            yield tiles
            return
        with mock.patch.object(rays_mod, "_gram_side", inflated):
            yield tiles


class RecordingKernel:
    """Wraps the kernel and records each result's dtype.

    Field products and the trace-form recovery both live in qgroups and
    call its binding, so that one is wrapped.
    """

    def __init__(self, monkeypatch):
        self.dtypes = []
        inner = qgroups._exact_matmul

        def record(x, y):
            out = inner(x, y)
            self.dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(qgroups, "_exact_matmul", record)


class TestGramOracle:
    def test_next_step_candidates_against_dim2_states(self):
        ss = generate_states(2, 1)
        candidates, _, _, _ = interference_candidates(ss)
        states = ss.sorted_states()
        want = assert_gram_matches(candidates, states)
        verdicts = [p is not None for row in want for p in row]
        assert any(verdicts) and not all(verdicts)

    def test_irrational_squared_norms(self):
        one = Cyclotomic.one(M2)
        z8 = zeta(M2, 3)
        odd = [
            Ray([one, one + z8]),
            Ray([one + z8, one]),
            Ray([one + z8, 2 * one - z8 * z8]),
            Ray([Cyclotomic.zero(M2), one]),
        ]
        assert any(r.norm_sq().rational() is None for r in odd)
        # a canonical candidate whose lead is not a unit has such a norm
        assert odd[1].norm_sq().rational() is None
        rows = odd + seed_orbit(2)
        assert_gram_matches(rows, rows)

    def test_dim7_orbit_block(self):
        orbit = seed_orbit(7)
        assert orbit[0].m == 168
        assert_gram_matches(orbit[:6], orbit)

    def test_object_path_where_the_bound_straddles_2_53(self, monkeypatch):
        m = M2
        small = [ray_of(m, 1, 2), ray_of(m, 1, zeta(m, 2))]
        # coefficients near 2**26 put the tile past the embedding bound and
        # the exact route's first product just above 2**53; the small rays
        # keep to the embedding route and its int64 recovery
        big_amp = Cyclotomic(m, [(1 << 26) + 3, 5, -(1 << 26), 0, 7, 0, 0, 1])
        big = [ray_of(m, 1, big_amp), ray_of(m, big_amp, 3)]
        kernel = RecordingKernel(monkeypatch)
        with exact_route() as tiles:
            assert_gram_matches(small, small)
        assert tiles == []
        assert kernel.dtypes and all(dt == np.int64 for dt in kernel.dtypes)
        kernel.dtypes.clear()
        with exact_route() as tiles:
            assert_gram_matches(small + big, small + big)
        # one tile for probabilities and one for first_irrational
        assert tiles == [(4, 4), (4, 4)]
        assert any(dt == object for dt in kernel.dtypes)

    @given(st.lists(rays(2, M2), min_size=1, max_size=3))
    def test_random_rays(self, sample):
        assert_gram_matches(sample, sample + seed_orbit(2))

    def test_mismatched_fields_raise(self):
        with pytest.raises(ValueError):
            first_irrational([ontic_ray(2, 0, M2)], [ontic_ray(3, 0, conductor_for(3))])


def reference_filter(candidates, ss):
    existing = ss.sorted_states()
    kept, rejected = [], []
    for cand in candidates:
        for s in existing:
            p = transition_probability(cand, s)
            if p.rational() is None:
                rejected.append((cand, s, p))
                break
        else:
            kept.append(cand)
    return kept, rejected


class TestFilterReference:
    @pytest.mark.parametrize("n", [2, 3])
    def test_step1_matches_scalar_loop(self, n):
        ss = generate_states(n, 0)
        candidates, _, _, _ = interference_candidates(ss)
        kept, rejected = rationality_filter(candidates, ss)
        want_kept, want_rejected = reference_filter(candidates, ss)
        assert kept == want_kept
        assert [
            (r.candidate, r.against, r.probability) for r in rejected
        ] == want_rejected
        assert rejected


def reference_image(mat, amps):
    """Entrywise image of an amplitude tuple, divided by its lead amplitude."""
    rows = mat.rows()
    out = []
    for i in range(mat.dim):
        acc = Cyclotomic.zero(mat.m)
        for j, amp in enumerate(amps):
            acc = acc + rows[i][j] * amp
        out.append(acc)
    lead = next(a for a in out if not a.is_zero())
    scale = lead.inv()
    return tuple(a * scale for a in out)


class TestArrayRay:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_batched_apply_and_orbit_match_entrywise_reference(self, n):
        gens = list(clifford_generators(n).values())
        orbit = clifford_orbit(ontic_ray(n, 0, conductor_for(n)), n)
        sample = orbit[:: max(1, len(orbit) // 8)]
        for g in gens:
            images = apply_all(g, sample)
            assert [img.amps for img in images] == [
                reference_image(g, r.amps) for r in sample
            ]
        # the orbit is closed under the entrywise images and has no duplicates
        amps = {r.amps for r in orbit}
        assert len(amps) == len(orbit)
        for r in sample:
            for g in gens:
                assert reference_image(g, r.amps) in amps

    def test_orbit_equals_entrywise_bfs_in_dim3(self):
        gens = list(clifford_generators(3).values())

        def reference_orbit(start):
            seen = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for amps in frontier:
                    for g in gens:
                        img = reference_image(g, amps)
                        if img not in seen:
                            seen.add(img)
                            nxt.append(img)
                frontier = nxt
            return seen

        start = ontic_ray(3, 0, conductor_for(3))
        assert {r.amps for r in clifford_orbit(start, 3)} == reference_orbit(start.amps)
        # the kept candidates of step 1: one search for all of them
        ss = generate_states(3, 0)
        kept, _ = rationality_filter(interference_candidates(ss)[0], ss)
        want = []
        for ray in kept:
            if not any(ray.amps in orbit for orbit in want):
                want.append(reference_orbit(ray.amps))
        got = [frozenset(r.amps for r in orbit) for orbit in clifford_orbits(kept, 3)]
        assert sorted(map(len, want)) == [9, 36, 108]
        assert len(got) == len(want) and set(got) == set(map(frozenset, want))

    def test_key_and_json_match_the_cyclotomic_view(self):
        big = Cyclotomic(M2, [(1 << 70) + 1, 3, 0, 0, 0, 0, 0, 1], 7)
        sample = generate_states(2, 1).sorted_states() + [ray_of(M2, 1, big)]
        assert sample[-1].num.dtype == object
        for r in sample:
            view = {"dim": r.dim, "amps": [a.to_json() for a in r.amps]}
            assert r.key() == canonical_dumps(view)
            back = Ray.from_json(json.loads(canonical_dumps(r.to_json())))
            assert back == r and hash(back) == hash(r) and back.key() == r.key()
            assert back.num.dtype == r.num.dtype

    @settings(max_examples=60)
    @given(st.sampled_from([(1, 8), (2, 24), (3, 24), (2, 40)]).flatmap(
        lambda nm: rays(*nm)))
    def test_key_is_the_canonical_json(self, ray):
        assert ray.key() == canonical_dumps(ray.to_json())

    def test_key_with_denominators_signs_and_python_integers(self):
        big = Cyclotomic(M2, [-(1 << 70) - 1, 3, 0, -6, 0, 0, 0, 1], 14)
        half = Cyclotomic(M2, [-1, 0, 2, 0, 0, 0, 0, 0], 2)
        cases = [ray_of(M2, 1, big), ray_of(M2, big, half), ray_of(M2, 0, half, 1)]
        assert cases[0].num.dtype == object and cases[1].num.dtype == object
        assert all(r.den > 1 and (r.num < 0).any() for r in cases)
        for r in cases:
            assert r.key() == canonical_dumps(r.to_json())

    def test_key_on_every_d3s2_state(self):
        states = list(generate_states(3, 2).states)
        assert len(states) == 8805 and any(r.den > 1 for r in states)
        assert [r.key() for r in states] == [canonical_dumps(r.to_json()) for r in states]

    def test_stateset_round_trip_is_byte_identical(self):
        ss = generate_states(2, 1)
        text = canonical_dumps(ss.to_json())
        back = StateSet.from_json(json.loads(text))
        assert canonical_dumps(back.to_json()) == text
        resumed = generate_states(2, 1, initial=back)
        direct = generate_states(2, 2)
        assert canonical_dumps(resumed.to_json()) == canonical_dumps(direct.to_json())

    def test_equality_ignores_representative(self):
        one = Cyclotomic.one(M2)
        half = Cyclotomic.from_rational(M2, Fraction(1, 2))
        z8 = zeta(M2, 3)
        a = Ray([z8 * half, z8 * half * (one + z8)])
        b = Ray([one, one + z8])
        assert a == b and hash(a) == hash(b)
        assert a.amps[0].is_one()


def scalar_pairwise_message(new, old, context):
    for i, a in enumerate(new):
        for b in new[i + 1:]:
            if prob_rational(a, b) is None:
                return (f"{context}: irrational probability between new states "
                        f"{a.key()} and {b.key()}")
        for b in old:
            if prob_rational(a, b) is None:
                return (f"{context}: irrational probability between {a.key()} "
                        f"and existing {b.key()}")
    return None


class TestPlantedIrrationalPair:
    def planted(self):
        one = Cyclotomic.one(M2)
        return Ray([one, zeta(M2, 3)])  # P against |+> is (2 + sqrt 2) / 4

    @pytest.mark.parametrize("where", ["new", "old"])
    def test_pairwise_assertion_names_the_scalar_pair(self, where):
        seed = seed_orbit(2)
        new, old = (seed + [self.planted()], []) if where == "new" else (
            seed, [self.planted()])
        want = scalar_pairwise_message(new, old, "plant")
        assert want is not None
        with pytest.raises(IntegrityError) as info:
            _assert_pairwise_rational(new, old, "plant")
        assert str(info.value) == want

    def test_verify_requirements_reports_it(self):
        ss = generate_states(2, 0)
        ss.states[self.planted()] = 0
        reqs = verify_requirements(ss)
        assert reqs["pairwise_rational"] is False
        assert reqs["contains_ontic"] is True

    def test_verify_mub_lists_the_violation(self):
        bs = mub_complete_set(3)
        bad = BasisSet(dim=3, bases=[list(b) for b in bs.bases])
        bad.bases[2][1] = ray_of(bad.bases[2][1].m, 1, zeta(bad.bases[2][1].m, 1), 0)
        report = verify_mub(bad)
        assert not report.ok
        want = []
        for bi, basis in enumerate(bad.bases):
            for i in range(3):
                for j in range(i + 1, 3):
                    p = prob_rational(basis[i], basis[j])
                    if p != 0:
                        want.append(f"basis {bi}: rays {i},{j} not orthogonal (P={p})")
        for bi in range(len(bad.bases)):
            for bj in range(bi + 1, len(bad.bases)):
                for i, u in enumerate(bad.bases[bi]):
                    for j, v in enumerate(bad.bases[bj]):
                        p = prob_rational(u, v)
                        if p is None or p != Fraction(1, 3):
                            want.append(
                                f"bases {bi},{bj}: rays {i},{j} have P={p}, want 1/3"
                            )
        assert report.violations == want
        assert any("P=None" in v for v in want)


def scalar_candidates(stateset):
    """The scalar Cyclotomic loop that interference_candidates replaced."""
    states = stateset.sorted_states()
    phases = center_phases(stateset.dim)
    norms = {ray: ray.norm_sq().rational() for ray in states}
    roots = {}
    m = stateset.conductor
    raw = skipped = 0
    emissions = []
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            if stateset.dim == 2 and inner(a, b).is_zero():
                continue
            ratio = norms[a] / norms[b]
            if ratio not in roots:
                try:
                    roots[ratio] = sqrt_rational(ratio, m)
                except SqrtConstructionError:
                    roots[ratio] = None
            r = roots[ratio]
            if r is None:
                skipped += 1
                continue
            rb = [amp if amp.is_zero() else amp * r for amp in b.amps]
            for phi in phases:
                raw += 1
                amps = [x + (phi * y if not y.is_zero() else y)
                        for x, y in zip(a.amps, rb)]
                norm_sq = Cyclotomic.zero(m)
                for v in amps:
                    if not v.is_zero():
                        norm_sq = norm_sq + v.conj() * v
                if norm_sq.is_zero() or norm_sq.rational() is None:
                    continue
                emissions.append(amps)
    found = set(rays_of(emissions)) - set(stateset.states)
    return sorted(found, key=Ray.key), raw, len(found), skipped


class TestCandidateOracle:
    """The batched candidates against the scalar loop they replaced."""

    @pytest.mark.parametrize("n,step", [(2, 1), (2, 2), (3, 1), (4, 1), (5, 1)])
    def test_batched_equals_scalar_loop(self, n, step):
        ss = generate_states(n, step - 1)
        got = interference_candidates(ss)
        want = scalar_candidates(ss)
        assert got[1:] == want[1:]
        assert got[0] == want[0]

    def test_dim2_step2_skips_pairs(self):
        # the norm ratios 2 and 1/2 have no square root in Q(zeta_8)
        cands, raw, deduped, skipped = interference_candidates(generate_states(2, 1))
        assert (raw, deduped, skipped) == (2016, 388, 168)
        assert len(cands) == deduped

    def test_object_coefficients_take_the_exact_path(self, monkeypatch):
        # with the float bound forced off every product runs on Python ints
        ss = generate_states(2, 1)
        want = interference_candidates(ss)
        monkeypatch.setattr(qgroups, "_FLOAT_EXACT", 0)
        assert interference_candidates(ss) == want

    def test_irrational_squared_norm_raises(self):
        # |(1, 1 + z)|^2 = 3 + z + z^3 - z^7 over Q(zeta_24)
        z = zeta(M2, 1)
        bad = ray_of(M2, 1, 1 + z)
        assert bad.norm_sq() == 3 + z + z**3 - z**7
        seed = seed_orbit(2)
        ss = StateSet(dim=2, conductor=M2, states={ray: 0 for ray in [*seed, bad]})
        with pytest.raises(IntegrityError, match="state has irrational squared norm") as info:
            interference_candidates(ss)
        assert str(info.value).endswith(bad.key())


def new_and_old(ss, step):
    orbits = [o for o in ss.orbits if ss.states[o[0]] == step]
    old = sorted((r for r, g in ss.states.items() if g < step), key=Ray.key)
    return orbits, old


def literal_verdict(new_orbits, old, context):
    new = sorted((r for o in new_orbits for r in o), key=Ray.key)
    try:
        _assert_pairwise_rational(new, old, context)
    except IntegrityError as exc:
        return str(exc)
    return None


def orbit_verdict(new_orbits, old, context):
    try:
        _assert_orbits_rational(new_orbits, old, context)
    except IntegrityError as exc:
        return str(exc)
    return None


def planted_ray(n):
    """(1, zeta_8, 0, ...): P against (1, 1, 0, ...) is (2 + sqrt 2) / 4."""
    m = conductor_for(n)
    return Ray([Cyclotomic.one(m), zeta(m, m // 8)] + [Cyclotomic.zero(m)] * (n - 2))


class TestOrbitPairwiseCheck:
    """One representative per orbit against the literal lower triangle."""

    @pytest.mark.parametrize("n,step", [(2, 2), (3, 1)])
    def test_routes_agree_on_generated_sets(self, n, step):
        orbits, old = new_and_old(generate_states(n, step), step)
        assert orbit_verdict(orbits, old, "s") is None
        assert literal_verdict(orbits, old, "s") is None

    @pytest.mark.parametrize("n,step", [(2, 2), (3, 1)])
    def test_routes_name_the_same_planted_pair(self, n, step):
        ss = generate_states(n, step)
        orbits, old = new_and_old(ss, step)
        planted = planted_ray(n)
        orbits = orbits + clifford_orbits([planted], n)
        new = sorted((r for o in orbits for r in o), key=Ray.key)
        want = scalar_pairwise_message(new, old, "s")
        assert want is not None
        assert literal_verdict(orbits, old, "s") == want
        assert orbit_verdict(orbits, old, "s") == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_planted_orbit_raises_the_literal_message(self, n, monkeypatch):
        import finiteqm.states as states

        planted = planted_ray(n)
        real_filter = states.rationality_filter

        def keep_a_bad_ray(candidates, ss):
            kept, rejected = real_filter(candidates, ss)
            return kept + [planted], rejected

        monkeypatch.setattr(states, "rationality_filter", keep_a_bad_ray)
        old = generate_states(n, 0).sorted_states()
        ss = generate_states(n, 0)
        kept, _ = real_filter(interference_candidates(ss)[0], ss)
        new = sorted(
            (r for o in clifford_orbits(kept + [planted], n) for r in o), key=Ray.key
        )
        want = scalar_pairwise_message(new, old, "step 1")
        assert want is not None
        with pytest.raises(IntegrityError) as info:
            generate_states(n, 1)
        assert str(info.value) == want

    def test_seed_orbit_is_checked_by_its_representative(self, monkeypatch):
        import finiteqm.states as states

        calls = []
        real = states.first_irrational

        def recording(rows, cols):
            calls.append((len(list(rows)), len(list(cols))))
            return real(rows, cols)

        monkeypatch.setattr(states, "first_irrational", recording)
        ss = generate_states(3, 1)
        # the seed orbit, the filter, then the three new orbits against all
        assert calls == [(1, 12), (225, 12), (3, 165)]
        assert len(ss) == 165


class TestResumeClosure:
    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="^initial state set is empty$"):
            generate_states(2, 1, initial=StateSet(dim=2, conductor=M2))

    def test_set_missing_a_ray_raises(self):
        ss = StateSet.from_json(generate_states(2, 1).to_json())
        gone = ss.sorted_states()[7]
        del ss.states[gone]
        states = ss.sorted_states()
        gens = list(clifford_generators(2).values())
        first = next(
            r for r in states
            if any(apply_all(g, [r])[0] not in ss.states for g in gens)
        )
        with pytest.raises(IntegrityError) as info:
            generate_states(2, 1, initial=ss)
        assert str(info.value) == (
            f"initial state set is not Clifford-closed: an image of {first.key()} "
            "leaves it"
        )

    def test_closed_set_resumes(self):
        ss = StateSet.from_json(generate_states(3, 0).to_json())
        assert len(generate_states(3, 1, initial=ss)) == 165


def scalar_upper_mirrored(rays):
    """prob_rational on i <= j, mirrored: P(a, b) = P(b, a) exactly."""
    out = [[None] * len(rays) for _ in rays]
    for i, a in enumerate(rays):
        for j in range(i, len(rays)):
            out[i][j] = out[j][i] = prob_rational(a, rays[j])
    return out


class TestSymmetricGram:
    """Passing one list twice forms the upper triangle and mirrors it."""

    @pytest.mark.parametrize("source", ["d3s1", "d7orbit"])
    def test_half_square_equals_full_square_and_scalar(self, source, monkeypatch):
        if source == "d3s1":
            n, rays = 3, generate_states(3, 1).sorted_states()
            # 16-row tiles of up to 512 columns: 11 row blocks, one column block
            assert rays_mod._TILE_ROWS == 16
            assert rays_mod._GRAM_BUDGET // 8 // 16 == 512
        else:
            n, rays = 7, seed_orbit(7)
            # 4-ray column blocks and 7-ray row blocks: trimming crosses blocks
            monkeypatch.setattr(rays_mod, "_TILE_ROWS", 7)
            monkeypatch.setattr(rays_mod, "_GRAM_BUDGET", 48 * 28)
        # the last row's pairs lie below the diagonal, where tiles are trimmed
        rays = rays + [planted_ray(n)]
        want = scalar_upper_mirrored(rays)
        assert any(p is None for p in want[-1])
        full = list(rays)
        assert full is not rays
        assert probabilities(rays, rays) == probabilities(rays, full) == want
        first = first_irrational(rays, rays).tolist()
        assert first == first_irrational(rays, full).tolist()
        assert first == scalar_first_irrational(want)
        # rows before the planted ray see it through mirrored tiles only
        assert first[-1] >= 0 and first[first[-1]] == len(rays) - 1

    def test_half_square_forms_about_half_the_pairs(self, monkeypatch):
        rays = generate_states(2, 2).sorted_states()
        rows = rays_mod._TILE_ROWS
        # one column block of up to 512 columns per 16-row tile at d = 8
        assert len(rays) == 414 and rows == 16
        assert rays_mod._GRAM_BUDGET // 8 // rows == 512
        sizes = {}
        real = rays_mod._gram_tiles

        def counting(rows, cols):
            total = 0
            for tile in real(rows, cols):
                total += tile[2].size
                yield tile
            sizes[rows is cols] = total

        monkeypatch.setattr(rays_mod, "_gram_tiles", counting)
        with exact_route() as tiles:
            assert (first_irrational(rays, rays) < 0).all()
            assert (first_irrational(rays, list(rays)) < 0).all()
        assert tiles == []  # every tile took the embedding route
        assert sizes[False] == 414 * 414
        # the tile at i0 forms its rows against the columns i0..413
        assert sizes[True] == sum(
            min(rows, 414 - i0) * (414 - i0) for i0 in range(0, 414, rows)
        )
        assert 414 * 415 // 2 <= sizes[True] < 414 * 415 // 2 + 414 * rows // 2


class TestInverseTable:
    """Every batch layer inverts through one table per conductor."""

    def test_canonicalizing_the_same_rays_again_inverts_nothing(self, monkeypatch):
        seeds = seed_orbit(7)
        orbits = clifford_orbits(seeds, 7)
        calls = []
        real = Cyclotomic.inv

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Cyclotomic, "inv", counting)
        assert clifford_orbits(seeds, 7) == orbits
        assert calls == []


def sparse_rays(n, m):
    """Rays of sparse amplitudes: c zeta_m^e for any e, or two such terms
    inside Q(zeta_24), so that squared norms lie in Q(zeta_24), often
    irrational, with small inverses.  The lead is 1, 2, 1 + zeta_8 or
    2 + zeta_8; the last three are not units."""
    q, one, z8 = m // 24, Cyclotomic.one(m), zeta(m, m // 8)
    c = st.integers(-2, 2)
    mono = st.builds(lambda c, e: c * zeta(m, e), c, st.integers(0, m - 1))
    pair = st.builds(
        lambda c1, e1, c2, e2: c1 * zeta(m, q * e1) + c2 * zeta(m, q * e2),
        c, st.integers(0, 23), c, st.integers(0, 23),
    )
    lead = st.sampled_from([one, 2 * one, one + z8, 2 * one + z8])
    rest = st.lists(st.one_of(mono, pair), min_size=n - 1, max_size=n - 1)
    return st.builds(lambda a, amps: Ray([a, *amps]), lead, rest)


def planted_weights(m):
    """Rays with non-unit leads (2, and 1 + zeta_8, of norm 2 over Q(zeta_8))
    and irrational squared norms, whose inverses are small."""
    z8 = zeta(m, m // 8)
    return [ray_of(m, 2, 1 + z8), ray_of(m, 1 + z8, 1), ray_of(m, 1, 1)]


def gram_eps_d(n, d):
    """eps * d of the embedding route's bound, eps = 16 delta + 16 u (d + n)."""
    return (16 * 2.0**-48 + 16 * 2.0**-53 * (d + n)) * d


def ramanujan(r, m):
    """Tr(zeta_m^r) = mu(q) phi(m) / phi(q), q = m / gcd(r, m)."""
    q = m // math.gcd(r, m)
    f = _factorize(q)
    mu = 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)
    return mu * euler_phi(m) // euler_phi(q)


def exact_roots(m):
    """exp(2 pi i r / m) for 0 <= r < m, each part the float nearest to a
    40-digit Taylor sum of -exp(i x), x = 2 pi r / m - pi."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 45
        pi = Decimal("3.14159265358979323846264338327950288419716939937511")
        for r in range(m):
            x = 2 * pi * r / m - pi
            parts, term, k = [Decimal(0)] * 4, Decimal(1), 0
            while abs(term) > Decimal(10) ** -42:
                parts[k % 4] += term
                k += 1
                term = term * x / k
            out.append(-complex(float(parts[0] - parts[2]), float(parts[1] - parts[3])))
    return np.array(out)


class TestEmbeddedGram:
    """The embedding route against the exact route and the scalar oracle."""

    @pytest.mark.parametrize("m", [24, 72, 168, 312])
    def test_planted_weights_take_the_embedding_route(self, m):
        rays = planted_weights(m)
        assert rays[0].den == 2 and rays[1].den > 1  # non-unit leads
        assert all(r.norm_sq().rational() is None for r in rays[:2])
        with exact_route() as tiles:
            want = assert_gram_matches(rays, rays)
            assert probabilities(rays, list(rays)) == want
        assert tiles == []
        with exact_route(force=True) as tiles:
            assert probabilities(rays, list(rays)) == want
        assert tiles == [(3, 3)]

    @pytest.mark.parametrize("m", [24, 72, 168, 312])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_routes_agree_with_scalar(self, m, data):
        sample = data.draw(st.lists(sparse_rays(2, m), min_size=1, max_size=3))
        rays = sample + planted_weights(m)
        want = scalar_probabilities(rays, rays)
        sizes = rays_mod._gram_side(rays, _context(m))[-1]
        embedded = gram_eps_d(2, euler_phi(m)) * sizes.max() ** 2 < 0.5
        with exact_route() as tiles:
            assert probabilities(rays, rays) == probabilities(rays, list(rays)) == want
        assert tiles == ([] if embedded else [(len(rays), len(rays))] * 2)
        with exact_route(force=True) as tiles:
            assert probabilities(rays, list(rays)) == want
        assert tiles

    # rays (1, k) and (1, k zeta_8): l1 = 1 + k and |num|^2 = 1 + k^2, so
    # the tile's bound is eps d (1 + k)^4, which crosses 1/2 at k = 956
    @given(st.integers(856, 1056))
    @example(955)
    @example(956)
    def test_route_follows_the_bound_across_one_half(self, k):
        eps_d = gram_eps_d(2, 8)
        assert eps_d * (1 + 955) ** 4 < 0.5 <= eps_d * (1 + 956) ** 4
        rays = [ray_of(M2, 1, k), ray_of(M2, 1, k * zeta(M2, 3))]
        with exact_route() as tiles:
            want = assert_gram_matches(rays, rays)
        assert want[0][1] is None and want[0][0] == 1
        assert tiles == ([] if eps_d * (1 + k) ** 4 < 0.5 else [(2, 2)] * 2)

    @pytest.mark.parametrize("m", sorted({conductor_for(n) for n in range(2, 28)}))
    def test_trace_form_inverse_is_certified(self, m):
        embed, trace, inverse = qgroups._trace_form(m)
        d = euler_phi(m)
        t = np.array([[ramanujan(i - j, m) for i in range(d)] for j in range(d)])
        assert inverse.dtype == np.int64 and np.abs(inverse).max() <= 12
        # integer matmul in numpy is exact; entries stay below d * d * 12
        assert np.array_equal(t @ inverse, m * np.eye(d, dtype=np.int64))
        assert embed.shape == (d, d) and trace.shape == (d, d // 2)

    @pytest.mark.parametrize("m", [24, 168, 216, 600])
    def test_root_table_within_delta(self, m):
        # the bound assumes cosines and sines within delta = 2**-48
        embed = qgroups._trace_form(m)[0]
        half = [k for k in range(m) if math.gcd(k, m) == 1 and 2 * k <= m]
        want = exact_roots(m)[np.outer(np.arange(euler_phi(m)), half) % m]
        want = np.hstack((want.real, want.imag))
        assert np.abs(embed - want).max() <= 2.0**-48 - 2.0**-53


class TestSquaredNorm:
    """``_norm_sq``, the one batched squared norm, against ``Ray.norm_sq``:
    the embedding recovery under the bound, field products past it."""

    @staticmethod
    def norms(rays, m, monkeypatch):
        """The norms of the rays as one batch, checked against the scalar
        norm, and the number of arrays each fallback product took."""
        fallback = []
        real = rays_mod._field_matmul

        def record(x, y, ctx):
            fallback.append(len(x))
            return real(x, y, ctx)

        monkeypatch.setattr(rays_mod, "_field_matmul", record)
        nums = np.stack([ray.num for ray in rays])
        norms = rays_mod._norm_sq(nums, _context(m))[0]
        assert norms.shape == (len(rays), euler_phi(m))
        for ray, row in zip(rays, norms.tolist()):
            assert Cyclotomic(m, row, ray.den * ray.den) == ray.norm_sq()
        return fallback

    @staticmethod
    def last_embedded(m):
        """The largest k for which the ray (1, k) passes the bound."""
        eps_d = gram_eps_d(2, euler_phi(m))
        k = math.isqrt(int(0.5 / eps_d)) - 1
        while eps_d * (k + 2) ** 2 < 0.5:
            k += 1
        return k

    @pytest.mark.parametrize("m", [24, 72, 168, 312])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_embedding_route_matches_scalar(self, m, data):
        rays = data.draw(st.lists(sparse_rays(2, m), min_size=1, max_size=4))
        with pytest.MonkeyPatch.context() as patch:
            assert self.norms(rays + planted_weights(m), m, patch) == []

    @pytest.mark.parametrize("m", [24, 72, 168, 312])
    def test_route_follows_the_bound(self, m, monkeypatch):
        k = self.last_embedded(m)
        assert self.norms([ray_of(m, 1, k)], m, monkeypatch) == []
        assert self.norms([ray_of(m, 1, k + 1)], m, monkeypatch) == [1]

    @pytest.mark.parametrize("m", [24, 72, 168, 312])
    def test_mixed_batch_sends_only_large_rows_to_the_fallback(self, m, monkeypatch):
        z = zeta(m, 1)
        big = [ray_of(m, 1, 10**7 * z), ray_of(m, 1 + z, 10**7)]
        small = planted_weights(m)
        rays = [small[0], big[0], small[1], big[1], small[2]]
        assert all(ray.num.dtype == np.int64 for ray in rays)
        assert self.norms(rays, m, monkeypatch) == [2]

    @pytest.mark.parametrize("m", [24, 72, 168, 312])
    def test_object_coefficient_rays(self, m, monkeypatch):
        # one object ray makes the batch an object array; its int64-sized
        # rows still take the embedding
        z = zeta(m, 1)
        huge = [ray_of(m, 1, 2**70 * z + 3), ray_of(m, 2**65 + z, 1)]
        assert all(ray.num.dtype == object for ray in huge)
        assert self.norms(huge, m, monkeypatch) == [2]
        rays = [*planted_weights(m), huge[0]]
        assert self.norms(rays, m, monkeypatch) == [1]

    @pytest.mark.parametrize("m", [24, 168])
    def test_empty_batch(self, m):
        d = euler_phi(m)
        norms, emb, l1 = rays_mod._norm_sq(np.zeros((0, 2, d), dtype=np.int64), _context(m))
        assert norms.shape == (0, d) and emb.shape == (d // 2, 0, 4) and l1.shape == (0,)


def tile_verdicts(rows, cols):
    """(irrational, lead, formed, row_dens, col_dens) of ``_gram_tiles``,
    each tile written back at its rows and columns; formed marks the pairs
    that some tile holds."""
    shape = (len(rows), len(cols))
    irrational, formed = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    lead = np.zeros(shape, dtype=object)
    for ri, cj, bad, top, row_dens, col_dens in rays_mod._gram_tiles(rows, cols):
        at = np.ix_(ri, cj)
        irrational[at], lead[at], formed[at] = bad, top, True
    return irrational, lead, formed, row_dens, col_dens


def recovered_verdicts(rows, cols):
    """(irrational, lead) of every pair by full recovery: every power-basis
    coefficient of x = |<a|b>|^2 wnum_a wnum_b through ``_recover``, from
    the embeddings of ``_gram_side``, in input order.  Only valid under the
    rounding bound, which the caller asserts."""
    m = rows[0].m
    ctx, n, d = _context(m), rows[0].dim, euler_phi(m)
    sides = []
    for rays in (rows, cols):
        order, _, emb, _, wemb, _, size = rays_mod._gram_side(rays, ctx)
        back = np.argsort(order)
        sides.append((emb[:, back], wemb[:, back], size.max()))
    (er, wr, sr), (ec, wc, sc) = sides
    assert gram_eps_d(n, d) * sr * sc < 0.5
    ect = ec.transpose(0, 2, 1)
    re = er @ ect
    im = er[..., :n] @ ect[:, n:] - er[..., n:] @ ect[:, :n]
    x = (re**2 + im**2) * wr[:, :, None] * wc[:, None, :]
    coeffs = qgroups._recover(x.reshape(len(x), -1), m).reshape(d, len(rows), len(cols))
    return (coeffs[1:] != 0).any(axis=0), coeffs[0]


def verdict_rays(m):
    """Rays of dimension 2 over Q(zeta_m), 24 | m: the basis, (1, zeta^k)
    for k whose cosines are rational and irrational, and ``planted_weights``
    with non-unit leads and irrational squared norms."""
    ks = [0, 1, 5, m // 12, m // 8, m // 6, m // 4, m // 3, m // 2, m - 1]
    z8 = zeta(m, m // 8)
    return (
        [ontic_ray(2, 0, m), ontic_ray(2, 1, m)]
        + [ray_of(m, 1, zeta(m, k)) for k in ks]
        + [ray_of(m, 1, 1 + zeta(m, m // 3)), ray_of(m, 2, z8), ray_of(m, 1, 3)]
        + planted_weights(m)
    )


class TestTraceVerdict:
    """The tile's verdict from h rounded traces, against full recovery of
    the coefficients and the scalar oracle."""

    MS = [24, 48, 72, 120, 168, 216, 312]

    def check(self, rows, cols, scalar, recovered=True):
        irrational, lead, formed, row_dens, col_dens = tile_verdicts(rows, cols)
        want = np.array([[p is None for p in row] for row in scalar])
        assert np.array_equal(irrational[formed], want[formed])
        rational = formed & ~irrational
        for i, j in zip(*np.nonzero(rational)):
            assert Fraction(lead[i, j], row_dens[i] * col_dens[j]) == scalar[i][j]
        if recovered:
            bad, top = recovered_verdicts(rows, cols)
            assert np.array_equal(irrational[formed], bad[formed])
            assert lead[rational].tolist() == top[rational].tolist()
        return irrational, formed

    @pytest.mark.parametrize("m", MS)
    def test_symmetric_and_asymmetric_calls(self, m):
        rays = verdict_rays(m)
        scalar = scalar_probabilities(rays, rays)
        assert any(p is None for row in scalar for p in row)
        assert any(p not in (None, 0, 1) for row in scalar for p in row)
        with exact_route() as tiles:
            irrational, formed = self.check(rays, rays, scalar)
            # the upper triangle in ascending size, each pair once
            assert (formed | formed.T).all() and formed.sum() < formed.size
            irrational, formed = self.check(rays, list(rays), scalar)
            assert formed.all() and irrational.any() and not irrational.all()
            rows = rays[2:9]
            self.check(rows, rays, scalar_probabilities(rows, rays))
        assert tiles == []

    @pytest.mark.parametrize("m", MS)
    def test_exact_tile_route(self, m):
        rays = verdict_rays(m)
        scalar = scalar_probabilities(rays, rays)
        with exact_route(force=True) as tiles:
            self.check(rays, rays, scalar, recovered=False)
            irrational, formed = self.check(rays, list(rays), scalar, recovered=False)
        assert formed.all() and irrational.any() and not irrational.all()
        # 16-row tiles: the triangle takes 16 x 18 and 2 x 2, the square 2 x 18
        assert tiles == [(16, 18), (2, 2), (16, 18), (2, 18)]

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_a_trace_off_d_z_raises(self, symmetric, monkeypatch):
        # halved traces of x = 1 at m = 24 read y = (4, 0, 0, 0): every
        # d y_j = y_0 t_j holds, so the pair is rational, and 8 does not
        # divide y_0 = 4
        rays = [ontic_ray(2, 0, M2)]
        trace, sums = qgroups._real_traces(M2)
        assert sums.tolist() == [8, 0, 0, 0]
        monkeypatch.setattr(rays_mod, "_real_traces", lambda m: (trace / 2, sums))
        with pytest.raises(ArithmeticError, match="not divisible by phi"):
            first_irrational(rays, rays if symmetric else list(rays))
        with pytest.raises(ArithmeticError, match="not divisible by phi"):
            probabilities(rays, rays if symmetric else list(rays))

    @pytest.mark.parametrize("m", MS)
    def test_real_trace_table(self, m):
        trace, sums = qgroups._real_traces(m)
        d = euler_phi(m)
        assert trace.shape == (d // 2, d // 2) and not trace.flags.writeable
        assert np.array_equal(trace, qgroups._trace_form(m)[1][: d // 2])
        assert sums.tolist() == [ramanujan(-j, m) for j in range(d // 2)]
