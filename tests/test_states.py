"""State-set generation: seeds, candidates, filter, orbit structure."""

import math
import random

import numpy as np
import pytest

from conftest import shuffled_stateset
from finiteqm.cyclotomic import Cyclotomic, _context, conductor_for, zeta
from finiteqm.qgroups import clifford_group
from finiteqm.rays import Ray, ontic_ray, transition_probability
from finiteqm.states import (
    IntegrityError,
    StateSet,
    clifford_orbit,
    clifford_orbits,
    generate_states,
    interference_candidates,
    orbit_decompose,
    rationality_filter,
    seed_orbit,
    verify_requirements,
)

M2 = conductor_for(2)
M3 = conductor_for(3)


def octahedron_states():
    one = Cyclotomic.one(M2)
    i = zeta(M2, 6)
    return {
        ontic_ray(2, 0, M2),
        ontic_ray(2, 1, M2),
        Ray([one, one]),
        Ray([one, -one]),
        Ray([one, i]),
        Ray([one, -i]),
    }


def twelve_states():
    w = zeta(M3, 8)
    one = Cyclotomic.one(M3)
    out = {ontic_ray(3, k, M3) for k in range(3)}
    for a in range(3):
        for b in range(3):
            out.add(Ray([one, w**a, w**b]))
    return out


class TestSeedOrbits:
    def test_dim2_is_the_octahedron(self):
        assert set(seed_orbit(2)) == octahedron_states()

    def test_dim3_is_the_listed_twelve(self):
        assert set(seed_orbit(3)) == twelve_states()

    def test_orbit_of_any_ontic_state_matches(self):
        base = set(seed_orbit(2))
        for k in range(2):
            assert set(clifford_orbit(ontic_ray(2, k, M2), 2)) == base

    def test_orbit_sizes_divide_projective_order(self):
        for n, pcl in ((2, 24), (3, 216)):
            assert pcl % len(seed_orbit(n)) == 0


class TestStepCounts:
    def test_dim2_step1(self):
        ss = generate_states(2, 1)
        rep = ss.reports[1]
        assert rep.raw_candidates == 96
        assert rep.deduped_candidates == 48
        assert rep.kept == 24
        assert rep.rejected == 24
        assert rep.orbit_sizes == [24]
        assert len(ss) == 30

    def test_dim2_step2(self):
        ss = generate_states(2, 2)
        rep = ss.reports[2]
        assert rep.orbit_sizes == [24] * 16
        assert rep.new_states == 384
        assert len(ss) == 414

    def test_dim3_step1(self):
        ss = generate_states(3, 1)
        rep = ss.reports[1]
        assert rep.kept == 153
        assert rep.new_states == 153
        assert rep.orbit_sizes == [9, 36, 108]
        assert len(ss) == 165

    def test_orbit_sizes_divide_group_order(self):
        ss = generate_states(3, 1)
        pcl = clifford_group(3, projective=True).order
        for orbit in ss.orbits:
            assert pcl % len(orbit) == 0


class TestRequirements:
    @pytest.mark.parametrize("n,steps", [(2, 0), (2, 1), (3, 1)])
    def test_all_three_hold(self, n, steps):
        ss = generate_states(n, steps)
        reqs = verify_requirements(ss)
        assert reqs == {
            "clifford_invariant": True,
            "contains_ontic": True,
            "pairwise_rational": True,
        }

    def test_monotone_growth(self):
        s0 = set(generate_states(2, 0).states)
        s1 = set(generate_states(2, 1).states)
        s2 = set(generate_states(2, 2).states)
        assert s0 < s1 < s2

    def test_generation_indices(self):
        ss = generate_states(2, 1)
        gens = sorted(set(ss.states.values()))
        assert gens == [0, 1]
        assert sum(1 for g in ss.states.values() if g == 0) == 6


class TestFilter:
    def test_rejects_carry_irrational_witness(self):
        ss = generate_states(2, 0)
        cands, _, _, _ = interference_candidates(ss)
        kept, rejected = rationality_filter(cands, ss)
        assert len(kept) == 24 and len(rejected) == 24
        for rej in rejected:
            assert rej.probability.rational() is None
            assert rej.against in ss.states

    def test_witness_probability_is_computed_on_first_read(self, monkeypatch):
        import finiteqm.states as states

        calls = []

        def counting(a, b):
            calls.append(1)
            return transition_probability(a, b)

        monkeypatch.setattr(states, "transition_probability", counting)
        ss = generate_states(2, 0)
        cands, _, _, _ = interference_candidates(ss)
        _, rejected = rationality_filter(cands, ss)
        assert rejected and calls == []
        rej = rejected[0]
        assert rej.probability == transition_probability(rej.candidate, rej.against)
        assert rej.probability.rational() is None
        assert len(calls) == 1

    def test_candidates_exclude_existing(self):
        ss = generate_states(2, 0)
        cands, _, _, _ = interference_candidates(ss)
        assert not (set(cands) & set(ss.states))

    def test_existing_states_trivially_pass(self):
        # any current state has rational probabilities against the whole set
        ss = generate_states(2, 0)
        kept, rejected = rationality_filter(ss.sorted_states(), ss)
        assert not rejected


class TestDeterminism:
    def test_shuffled_enumeration_gives_same_set(self):
        plain = generate_states(2, 1)
        start = shuffled_stateset(generate_states(2, 0), random.Random(99))
        shuffled = generate_states(2, 1, initial=start)
        assert set(plain.states) == set(shuffled.states)

    def test_export_bytes_stable(self):
        from finiteqm.cyclotomic import canonical_dumps

        a = canonical_dumps(generate_states(3, 1).to_json())
        start = shuffled_stateset(generate_states(3, 0), random.Random(5))
        b = canonical_dumps(generate_states(3, 1, initial=start).to_json())
        assert a == b


class TestOrbitDecompose:
    def test_seed_orbit_is_single_orbit(self):
        orbits = orbit_decompose(seed_orbit(2), 2)
        assert [len(o) for o in orbits] == [6]

    def test_rejects_non_closed_sets(self):
        partial = seed_orbit(3)[:5]
        with pytest.raises(ValueError):
            orbit_decompose(partial, 3)

    def test_step1_new_states_dim3(self):
        ss = generate_states(3, 1)
        new = [r for r, g in ss.states.items() if g == 1]
        orbits = orbit_decompose(new, 3)
        assert sorted(len(o) for o in orbits) == [9, 36, 108]


class TestCliffordOrbits:
    def test_seeds_in_one_orbit_give_one_orbit(self):
        orbit = seed_orbit(2)
        assert clifford_orbits([orbit[0], orbit[3], orbit[0]], 2) == [orbit]

    def test_seeds_in_different_orbits_give_one_orbit_each(self):
        ss = generate_states(2, 2)
        seeds = [min(o, key=Ray.key) for o in ss.orbits]
        assert len(seeds) == 18
        want = sorted((clifford_orbit(r, 2) for r in seeds), key=lambda o: o[0].key())
        assert clifford_orbits(seeds, 2) == want
        assert sorted(len(o) for o in want) == [6] + [24] * 17

    def test_shuffled_seeds_give_the_same_orbits(self):
        ss = generate_states(3, 1)
        seeds = [r for r, g in ss.states.items() if g == 1]
        orbits = clifford_orbits(seeds, 3)
        assert sorted(len(o) for o in orbits) == [9, 36, 108]
        for k in range(3):
            random.Random(k).shuffle(seeds)
            assert clifford_orbits(seeds, 3) == orbits

    def test_no_seeds_give_no_orbits(self):
        assert clifford_orbits([], 2) == []

    def test_kept_ray_of_the_existing_set_raises(self, monkeypatch):
        import finiteqm.states as states

        def keep_an_old_state(candidates, ss):
            return ss.sorted_states()[:1], []

        monkeypatch.setattr(states, "rationality_filter", keep_an_old_state)
        with pytest.raises(IntegrityError, match="intersects the existing set"):
            generate_states(2, 1)


class TestSerialization:
    def test_roundtrip(self):
        ss = generate_states(3, 1)
        back = StateSet.from_json(ss.to_json())
        assert set(back.states) == set(ss.states)
        assert back.states == ss.states
        assert [r.to_json() for r in back.reports] == [
            r.to_json() for r in ss.reports
        ]

    def test_resume_matches_direct_run(self):
        one_step = generate_states(2, 1)
        resumed = generate_states(
            2, 1, initial=StateSet.from_json(one_step.to_json())
        )
        direct = generate_states(2, 2)
        assert set(resumed.states) == set(direct.states)
        assert resumed.states == direct.states


class TestNormStructure:
    def test_canonical_norms_are_rational(self):
        # first amplitude 1 forces |v|^2 = 1 / P(v, e_pivot), a rational
        ss = generate_states(2, 1)
        for ray in ss.states:
            assert ray.norm_sq().rational() is not None

    def test_pairwise_rationality_of_union(self):
        ss = generate_states(3, 1)
        states = ss.sorted_states()
        probe = states[:: max(1, len(states) // 12)]
        for i, a in enumerate(probe):
            for b in probe[i:]:
                assert transition_probability(a, b).rational() is not None


class TestGaloisClosure:
    """The state sets are closed under Gal(Q(zeta_m)/Q), applied entrywise.

    sigma_k maps Z[zeta_m] onto itself and fixes 1, so it maps a canonical
    ray (lead 1, content-reduced) to a canonical ray: the image is one
    gather through the rows of sigma_k, with no inversion.
    """

    @pytest.mark.parametrize("n, steps", [(2, 1), (2, 2), (3, 1), (4, 1)])
    def test_closed_under_every_sigma_k(self, n, steps):
        ss = generate_states(n, steps)
        m = ss.conductor
        states = ss.sorted_states()
        nums = np.stack([ray.num for ray in states])
        assert nums.dtype == np.int64
        units = [k for k in range(1, m) if math.gcd(k, m) == 1]
        for k in units:
            sigma = np.array(_context(m).galois_rows(k), dtype=np.int64)
            images = [
                Ray._from_canonical(m, num @ sigma, ray.den)
                for num, ray in zip(nums, states)
            ]
            assert set(images) == ss.states.keys()
            # the scalar sigma_k of each amplitude gives the same ray
            assert Ray([a.galois(k) for a in states[-1].amps]) == images[-1]
