"""Exact cyclotomic arithmetic: worked values, field axioms, square roots."""

from fractions import Fraction

import cmath
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import cyclotomics, embed, nonzero_cyclotomics, rationals
from finiteqm.cyclotomic import (
    Cyclotomic,
    _Context,
    _context,
    _factorize,
    FieldMismatchError,
    SqrtConstructionError,
    canonical_dumps,
    conductor_for,
    cyclotomic_polynomial,
    euler_phi,
    sqrt_embed,
    sqrt_rational,
    zeta,
)
from finiteqm.galois import is_prime

M = 24  # shared working conductor for the property tests
UNITS = [k for k in range(M) if math.gcd(k, M) == 1]


def all_conjugates_inverse(a: Cyclotomic) -> Cyclotomic:
    """1 / a as the product of all phi(m) - 1 other conjugates over the norm."""
    cofactor = Cyclotomic.one(a.m)
    for k in range(2, a.m):
        if math.gcd(k, a.m) == 1:
            cofactor = cofactor * a.galois(k)
    return cofactor * (1 / (a * cofactor).rational())


def sparse_cyclotomics(m: int):
    """A few roots of unity with small integer weights, over a small denominator."""
    term = st.tuples(st.integers(0, m - 1), st.integers(-3, 3).filter(bool))
    return st.builds(
        lambda terms, den: sum((zeta(m, k) * c for k, c in terms), Cyclotomic.zero(m)) / den,
        st.lists(term, min_size=1, max_size=4),
        st.integers(1, 6),
    ).filter(lambda z: not z.is_zero())


class TestReduction:
    def test_fourth_root_squares_to_minus_one(self):
        i = Cyclotomic.make(4, [0, 1])
        assert (i * i).rational() == -1

    def test_phi8_relation(self):
        z = Cyclotomic.make(8, [0, 0, 0, 0, 1])  # x^4 mod Phi_8 = x^4 + 1
        assert z.rational() == -1

    def test_x4_mod_phi12(self):
        # long division of x^4 by Phi_12 = x^4 - x^2 + 1 leaves x^2 - 1
        z = Cyclotomic.make(12, [0, 0, 0, 0, 1])
        assert z.coeffs == (Fraction(-1), Fraction(0), Fraction(1), Fraction(0))
        # numeric cross-check of the same identity
        assert abs(embed(z) - embed(zeta(12)) ** 4) < 1e-9

    def test_phi_polynomials(self):
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)

    def test_euler_phi(self):
        assert [euler_phi(m) for m in (1, 2, 8, 12, 24, 120)] == [1, 1, 4, 4, 8, 32]

    @given(st.integers(1, 10**4))
    def test_factorize(self, n):
        factors = _factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(is_prime(p) and e >= 1 for p, e in factors.items())
        assert list(factors) == sorted(factors)

    @given(cyclotomics(M))
    def test_make_is_idempotent_on_canonical_coeffs(self, z):
        assert Cyclotomic.make(M, z.coeffs) == z


class TestArithmetic:
    def test_conj_of_i(self):
        i = Cyclotomic.make(4, [0, 1])
        assert i.conj() == -i

    def test_inverse_of_root_of_unity(self):
        z8 = zeta(8)
        assert z8.inv() == z8**7
        assert (z8 * z8**7).rational() == 1

    def test_omega_sum_vanishes(self):
        w = zeta(3)
        assert (1 + w + w * w).is_zero()

    def test_conductor_mismatch_raises(self):
        with pytest.raises(FieldMismatchError):
            zeta(8) + zeta(12)

    def test_zero_inversion_raises(self):
        with pytest.raises(ZeroDivisionError):
            Cyclotomic.zero(8).inv()

    @given(cyclotomics(M), cyclotomics(M), cyclotomics(M))
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(st.data())
    def test_multiplicative_inverse(self, data):
        for m in (8, 24, 72, 168):
            q = data.draw(rationals().filter(bool))
            k = data.draw(st.integers(0, m - 1))
            root = zeta(m, k)
            operands = [data.draw(nonzero_cyclotomics(m)), root, root * q]
            for a in operands + [Cyclotomic.from_rational(m, q)]:
                assert (a * a.inv()).is_one()
            assert root.inv() == zeta(m, -k)
            assert Cyclotomic.from_rational(m, q).inv() == 1 / q

    @pytest.mark.parametrize("m", [24, 120, 168, 312])
    @settings(max_examples=6)
    @given(data=st.data())
    def test_inverse_matches_all_conjugates_product(self, m, data):
        q = data.draw(rationals().filter(bool))
        operands = [
            data.draw(sparse_cyclotomics(m)),
            data.draw(nonzero_cyclotomics(m)),
            zeta(m, data.draw(st.integers(0, m - 1))),
            Cyclotomic.from_rational(m, q),
        ]
        for a in operands:
            assert a.inv() == all_conjugates_inverse(a)

    @pytest.mark.parametrize("m", list(range(1, 100)) + [120, 168, 312])
    def test_subgroup_chain_meets_each_unit_once(self, m):
        met = [1 % m]
        for g, e in _context(m).galois_chain:
            assert is_prime(e)
            met = [h * pow(g, j, m) % m for j in range(e) for h in met]
        assert sorted(met) == [k for k in range(m) if math.gcd(k, m) == 1]

    @given(st.lists(st.integers(-9, 9), min_size=8, max_size=8).filter(any))
    def test_inverse_table_keys_the_primitive_part(self, coeffs):
        g = math.gcd(*coeffs)
        if next(v for v in coeffs if v) < 0:
            g = -g
        u = tuple(v // g for v in coeffs)
        ctx = _Context(M)  # a fresh, empty table
        for c in (-3, 2, 6):
            assert ctx.inverse(tuple(c * v for v in u)) == Cyclotomic(M, u).inv() / c
        # 1 / u is computed once; each other a is stored under itself
        assert list(ctx._inverses) == [u] + [tuple(c * v for v in u) for c in (-3, 2, 6)]

    @given(nonzero_cyclotomics(M))
    def test_inverse_table_hits_invert_every_content_and_sign(self, a):
        g = math.gcd(*a.num)
        u = tuple(v // g for v in a.num)  # one primitive part up to sign
        ctx = _Context(M)
        for c in (1, -1, 2, -2, 5, -35):
            coeffs = tuple(c * v for v in u)
            first = ctx.inverse(coeffs)
            assert ctx.inverse(coeffs) is first  # a hit answers without keying
            assert Cyclotomic(M, coeffs) * first == Cyclotomic.one(M)
        # the six contents and signs share one primitive entry
        assert len(ctx._inverses) == 6

    def test_inverse_table_rejects_zero(self):
        with pytest.raises(ZeroDivisionError):
            _Context(M).inverse((0,) * 8)

    @given(cyclotomics(M), cyclotomics(M))
    def test_conj_is_ring_homomorphism(self, a, b):
        assert (a + b).conj() == a.conj() + b.conj()
        assert (a * b).conj() == a.conj() * b.conj()

    @given(cyclotomics(M))
    def test_conj_is_involution(self, a):
        assert a.conj().conj() == a

    def test_conj_inverts_roots_of_unity(self):
        for k in range(24):
            z = zeta(24, k)
            assert (z.conj() * z).rational() == 1

    @given(cyclotomics(M))
    def test_norm_is_conj_invariant(self, z):
        w = z * z.conj()
        assert w.conj() == w

    @given(cyclotomics(M), cyclotomics(M))
    def test_embedding_oracle_agrees(self, a, b):
        assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-6
        assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-6

    @given(cyclotomics(M), cyclotomics(M))
    def test_galois_is_ring_homomorphism(self, a, b):
        for k in UNITS:
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)

    @given(cyclotomics(M))
    def test_galois_composes_as_units(self, a):
        for k in UNITS:
            for l in UNITS:
                assert a.galois(l).galois(k) == a.galois(k * l % M)
        assert a.galois(1) == a
        assert a.galois(M - 1) == a.galois(-1) == a.conj()

    @given(cyclotomics(M))
    def test_galois_matches_embedding_oracle(self, a):
        for k in UNITS:
            want = sum(
                float(c) * cmath.exp(2j * cmath.pi * j * k / M)
                for j, c in enumerate(a.coeffs)
            )
            assert abs(embed(a.galois(k)) - want) < 1e-6

    @pytest.mark.parametrize("k", [0, 2, 3, 6, 8, 12, 26])
    def test_galois_needs_a_unit(self, k):
        with pytest.raises(ValueError):
            zeta(M).galois(k)

    def test_power_and_division(self):
        z = zeta(24, 5)
        assert z**-3 == (z**3).inv()
        a = Cyclotomic.make(24, [Fraction(1, 2), 3, 0, Fraction(-2, 7)])
        assert (a / z) * z == a


class TestRationality:
    def test_constant_is_rational(self):
        assert Cyclotomic.from_rational(8, Fraction(1, 2)).rational() == Fraction(1, 2)

    def test_sqrt2_combination_is_irrational(self):
        s = zeta(8) + zeta(8, 7)  # sqrt(2)
        assert s.rational() is None
        assert s.coeffs == (Fraction(0), Fraction(1), Fraction(0), Fraction(-1))

    def test_omega_pair_sums_to_minus_one(self):
        assert (zeta(3) + zeta(3, 2)).rational() == -1


class TestSqrtEmbed:
    def test_sqrt2_in_eighth_field(self):
        r = sqrt_embed(2, 8)
        assert r == zeta(8) + zeta(8, 7)
        assert (r * r).rational() == 2

    def test_sqrt3_in_twelfth_field(self):
        r = sqrt_embed(3, 12)
        # -i(2 zeta_3 + 1) with i = zeta_12^3 and zeta_3 = zeta_12^4
        expected = -zeta(12, 3) * (2 * zeta(12, 4) + 1)
        assert r == expected
        assert (r * r).rational() == 3

    def test_perfect_square(self):
        assert sqrt_embed(4, 8).rational() == 2
        assert sqrt_embed(9, 12).rational() == 3

    def test_squares_back_up_to_25(self):
        for n in range(1, 26):
            m = conductor_for(n)
            r = sqrt_embed(n, m)
            assert (r * r).rational() == n
            assert embed(r).real > 0

    def test_field_too_small(self):
        with pytest.raises(SqrtConstructionError):
            sqrt_embed(2, 3)
        with pytest.raises(SqrtConstructionError):
            sqrt_embed(5, 24)

    def test_sqrt_rational(self):
        r = sqrt_rational(Fraction(3, 2), 24)
        assert (r * r).rational() == Fraction(3, 2)


class TestConductor:
    def test_small_dimensions(self):
        assert conductor_for(2) == 24
        assert conductor_for(3) == 24
        assert conductor_for(5) == 120

    def test_dimension_five_field_contents(self):
        m = conductor_for(5)
        tau = -zeta(m, m // 10)
        assert (tau**5).rational() == 1  # odd dimension: order 5
        assert (zeta(m, m // 5) ** 5).rational() == 1
        assert (sqrt_embed(5, m) ** 2).rational() == 5


class TestSerialization:
    def test_canonical_form(self):
        i = Cyclotomic.make(4, [0, 1])
        assert canonical_dumps(i.to_json()) == '{"c":["0/1","1/1"],"m":4}'

    @given(cyclotomics(M))
    def test_roundtrip(self, z):
        assert Cyclotomic.from_json(z.to_json()) == z

    @given(cyclotomics(M))
    def test_byte_stability(self, z):
        assert canonical_dumps(z.to_json()) == canonical_dumps(
            Cyclotomic.from_json(z.to_json()).to_json()
        )
