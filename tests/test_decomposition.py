"""Coprime tensor decomposition: index maps, permutation, group structure."""

from fractions import Fraction

import pytest

from finiteqm.cyclotomic import conductor_for
from finiteqm.decomposition import (
    clifford_product_check,
    crt_clock_exponents,
    crt_permutation,
    crt_split,
    energy_decompose,
    energy_fraction_identity,
)
from finiteqm.qgroups import ClosureCapError, UMatrix, kron, wh_generators


class TestSplit:
    def test_six(self):
        s = crt_split(6)
        assert s.factors == (2, 3)
        assert s.forward(5) == (1, 2)
        assert s.dual(5) == (1, 1)

    def test_prime_power_is_single_factor(self):
        assert crt_split(4).factors == (4,)

    def test_twelve(self):
        assert crt_split(12).factors == (4, 3)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            crt_split(1)

    @pytest.mark.parametrize("n", list(range(2, 101)))
    def test_maps_are_bijections(self, n):
        s = crt_split(n)
        fwd = {s.forward(k) for k in range(n)}
        dual = {s.dual(k) for k in range(n)}
        assert len(fwd) == n and len(dual) == n
        for k in range(n):
            assert s.from_forward(s.forward(k)) == k
            assert s.from_dual(s.dual(k)) == k


class TestEnergy:
    def test_five_sixths(self):
        s = crt_split(6)
        assert energy_decompose(5, s) == [(1, 2), (1, 3)]
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_ground_level(self):
        s = crt_split(6)
        assert energy_decompose(0, s) == [(0, 2), (0, 3)]

    def test_fifteen(self):
        s = crt_split(15)
        comps = energy_decompose(7, s)
        total = sum(Fraction(ki, ni) for ki, ni in comps)
        assert (Fraction(7, 15) - total).denominator == 1

    @pytest.mark.parametrize("n", list(range(2, 101)))
    def test_identity_exhaustive(self, n):
        s = crt_split(n)
        for k in range(n):
            assert energy_fraction_identity(k, s)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            energy_decompose(6, crt_split(6))


class TestPermutation:
    def test_shift_tensor_dim6(self):
        s = crt_split(6)
        m = conductor_for(6)
        p = crt_permutation(s)
        _, x6, _ = wh_generators(6)
        _, x2, _ = wh_generators(2, m)
        _, x3, _ = wh_generators(3, m)
        assert (p @ x6 @ p.dagger()) == kron(x2, x3)

    def test_clock_tensor_dim6(self):
        s = crt_split(6)
        m = conductor_for(6)
        p = crt_permutation(s)
        _, _, z6 = wh_generators(6)
        _, _, z2 = wh_generators(2, m)
        _, _, z3 = wh_generators(3, m)
        a, b = crt_clock_exponents(s)
        assert (a, b) == (1, 2)
        assert (p @ z6 @ p.dagger()) == kron(z2.matpow(a), z3.matpow(b))

    def test_single_factor_is_identity(self):
        s = crt_split(4)
        assert crt_permutation(s) == UMatrix.identity(4, conductor_for(4))

    @pytest.mark.parametrize(
        "n", [n for n in range(2, 31) if len(crt_split(n).factors) >= 2]
    )
    def test_shift_tensor_alignment_everywhere(self, n):
        s = crt_split(n)
        m = conductor_for(n)
        p = crt_permutation(s)
        _, xn, _ = wh_generators(n)
        tensor = None
        for f in s.factors:
            _, xf, _ = wh_generators(f, m)
            tensor = xf if tensor is None else kron(tensor, xf)
        assert (p @ xn @ p.dagger()) == tensor


class TestProductCheck:
    def test_single_factor_skipped(self):
        rep = clifford_product_check(4)
        assert rep.skipped

    def test_projective_mode_dim6(self):
        rep = clifford_product_check(6, mode="projective")
        assert rep.shift_tensor_ok and rep.clock_tensor_ok
        assert rep.projective_global_order == 5184
        assert rep.projective_product == 24 * 216
        assert rep.projective_matches
        assert all(rep.generators_in_tensor_group.values())
        assert rep.tensor_group_order == 5184

    def test_report_serializes(self):
        from finiteqm.cyclotomic import canonical_dumps

        rep = clifford_product_check(6, mode="projective")
        assert canonical_dumps(rep.to_json())


class TestCap:
    def test_full_mode_counts_past_the_plain_cap(self):
        # the cap bounds the search modulo scalars, 5184 classes of CL(6)
        rep = clifford_product_check(6, mode="full", max_size=10_000)
        assert rep.mode == "full"
        assert rep.global_order == 124416
        assert rep.matches_central_product
        assert rep.partial_global_order is None
        assert all(rep.generators_in_tensor_group.values())

    def test_cap_below_the_quotient_raises(self):
        with pytest.raises(ClosureCapError):
            clifford_product_check(6, mode="full", max_size=1000)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="mode"):
            clifford_product_check(6, mode="projective-fallback")
