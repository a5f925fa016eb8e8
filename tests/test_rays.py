"""Projective states and exact transition probabilities."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

from conftest import nonzero_cyclotomics, rays
from finiteqm.cyclotomic import Cyclotomic, conductor_for, zeta
from finiteqm.qgroups import clifford_generators, fourier_matrix, wh_generators
from finiteqm.rays import (
    Ray,
    apply,
    ontic_ray,
    prob_rational,
    transition_probability,
)

M2 = conductor_for(2)
M3 = conductor_for(3)


def fourier_basis(n):
    f = fourier_matrix(n)
    return [Ray([f.entry(i, j) for i in range(n)]) for j in range(n)]


class TestCanonicalForm:
    def test_scaling_an_ontic_ray(self):
        five = Cyclotomic.from_rational(M2, 5)
        assert Ray([Cyclotomic.zero(M2), five]) == ontic_ray(2, 1, M2)

    def test_scalar_removal(self):
        one = Cyclotomic.one(M2)
        half = Cyclotomic.from_rational(M2, Fraction(1, 2))
        assert Ray([half, -half]) == Ray([one, -one])

    def test_unit_phase_removal(self):
        z8 = zeta(M2, 3)
        i = zeta(M2, 6)
        assert Ray([z8, z8 * i]) == Ray([Cyclotomic.one(M2), i])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Ray([Cyclotomic.zero(M2), Cyclotomic.zero(M2)])

    def test_first_nonzero_is_one(self):
        r = Ray([Cyclotomic.zero(M3), zeta(M3, 5), zeta(M3, 11)])
        assert r.amps[0].is_zero()
        assert r.amps[1].is_one()


class TestEquality:
    """Equality reads m, den, the shape and the body that hashing reads:
    the raw bytes of num, or its Python integers when num holds objects."""

    def test_equal_rays(self):
        a, b = zeta(M2, 3), Cyclotomic.from_rational(M2, Fraction(1, 2))
        r, s = Ray([a, b]), Ray([a * zeta(M2, 5), b * zeta(M2, 5)])
        assert r is not s and r == s and hash(r) == hash(s)
        assert {r: 1}[s] == 1
        assert r != Ray([a, b + 1])
        assert ontic_ray(2, 0, M2) != ontic_ray(3, 0, M2)
        assert ontic_ray(2, 0, M2) != ontic_ray(2, 0, conductor_for(5))
        assert r.__eq__("ray") is NotImplemented

    def test_different_denominator(self):
        r = Ray([Cyclotomic.one(M2), Cyclotomic.from_rational(M2, Fraction(1, 2))])
        s = Ray._from_canonical(r.m, r.num.copy(), r.den * 3)
        assert np.array_equal(r.num, s.num) and r != s

    def test_big_integer_rays(self):
        big = Cyclotomic.from_rational(M2, 2**70)
        r = Ray([Cyclotomic.one(M2), big])
        s = Ray([Cyclotomic.one(M2) * 3, big * 3])
        assert r.num.dtype == object
        assert r == s and hash(r) == hash(s) and len({r, s}) == 1
        assert r != Ray([Cyclotomic.one(M2), big + 1])
        small = Ray([Cyclotomic.one(M2), Cyclotomic.from_rational(M2, 2)])
        assert small.num.dtype != object and r != small


class TestProbabilities:
    def test_self_probability(self):
        r = ontic_ray(2, 0, M2)
        assert prob_rational(r, r) == 1

    def test_ontic_pair(self):
        assert prob_rational(ontic_ray(2, 0, M2), ontic_ray(2, 1, M2)) == 0

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_position_vs_momentum_unbiased(self, n):
        m = conductor_for(n)
        ontic = [ontic_ray(n, k, m) for k in range(n)]
        momentum = fourier_basis(n)
        for u in ontic:
            for v in momentum:
                assert prob_rational(u, v) == Fraction(1, n)

    def test_plus_versus_circular(self):
        one = Cyclotomic.one(M2)
        i = zeta(M2, 6)
        assert prob_rational(Ray([one, one]), Ray([one, i])) == Fraction(1, 2)

    def test_eighth_phase_is_irrational(self):
        one = Cyclotomic.one(M2)
        p = transition_probability(Ray([one, one]), Ray([one, zeta(M2, 3)]))
        assert p.rational() is None
        # the value is (2 + sqrt 2)/4
        assert abs(p.to_complex().real - (2 + 2**0.5) / 4) < 1e-9

    def test_momentum_cross_dim3(self):
        assert (
            prob_rational(ontic_ray(3, 1, M3), fourier_basis(3)[2]) == Fraction(1, 3)
        )


class TestApply:
    def test_identity(self):
        from finiteqm.qgroups import UMatrix

        r = Ray([Cyclotomic.one(M2), zeta(M2, 7)])
        assert apply(UMatrix.identity(2, M2), r) == r

    def test_shift_moves_basis_state(self):
        _, x, _ = wh_generators(2)
        assert apply(x, ontic_ray(2, 0, M2)) == ontic_ray(2, 1, M2)

    def test_fourier_of_ground_state_is_uniform(self):
        f = fourier_matrix(3)
        one = Cyclotomic.one(M3)
        assert apply(f, ontic_ray(3, 0, M3)) == Ray([one, one, one])

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            apply(fourier_matrix(3), ontic_ray(2, 0, M2))


class TestProperties:
    @given(rays(2, M2), nonzero_cyclotomics(M2))
    def test_scale_invariance(self, r, c):
        scaled = Ray([a * c for a in r.amps])
        for k in range(2):
            e = ontic_ray(2, k, M2)
            assert transition_probability(scaled, e) == transition_probability(r, e)

    @given(rays(2, M2), rays(2, M2))
    def test_symmetry(self, a, b):
        assert transition_probability(a, b) == transition_probability(b, a)

    @given(rays(3, M3))
    def test_completeness_over_ontic_basis(self, r):
        total = Cyclotomic.zero(M3)
        for k in range(3):
            total = total + transition_probability(r, ontic_ray(3, k, M3))
        assert total.rational() == 1

    @given(rays(2, M2), rays(2, M2))
    def test_clifford_invariance(self, a, b):
        p = transition_probability(a, b)
        gens = list(clifford_generators(2).values())
        rng = random.Random(17)
        word = [rng.choice(gens) for _ in range(4)]
        ua, ub = a, b
        for g in word:
            ua, ub = apply(g, ua), apply(g, ub)
        assert transition_probability(ua, ub) == p

    @given(rays(3, M3))
    def test_serialization_roundtrip(self, r):
        assert Ray.from_json(r.to_json()) == r
