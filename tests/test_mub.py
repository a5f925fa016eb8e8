"""Mutually unbiased bases: verification, complete sets, orbit extraction."""

from fractions import Fraction

import pytest

from finiteqm.cyclotomic import Cyclotomic, conductor_for, sqrt_embed, zeta
from finiteqm.galois import gf_build, gf_trace_int
from finiteqm.mub import (
    BasisSet,
    MubExtractionError,
    _slope_basis,
    extract_mubs_from_orbit,
    mub_complete_set,
    verify_mub,
)
from finiteqm.qgroups import fourier_matrix, s_matrix
from finiteqm.rays import Ray, apply, ontic_ray, transition_probability
from finiteqm.states import generate_states, seed_orbit


def ontic_basis(n):
    m = conductor_for(n)
    return [ontic_ray(n, k, m) for k in range(n)]


def momentum_basis(n):
    f = fourier_matrix(n)
    return [Ray([f.entry(i, j) for i in range(n)]) for j in range(n)]


def scalar_slope_basis(field, slope, m):
    """The joint eigenbasis of {X_a Z_(slope*a)} by the scalar recursion
    v[g + e] = lam_e^-1 * chi(slope*e*g) * v[g], one Cyclotomic product and
    one trace per amplitude: the reference for mub._slope_basis.
    """
    p = field.p
    ell = field.ell
    q = field.order
    chi_step = m // p
    basis_elems = [field.from_index(p**j) for j in range(ell)]
    # base eigenvalue solving lam^p = chi(slope * e^2 * p(p-1)/2)
    base_lam = []
    for e in basis_elems:
        if p % 2:
            base_lam.append(Cyclotomic.one(m))
        else:
            # lam^2 = chi(slope * e^2) = +/-1
            t = gf_trace_int(slope * e * e)
            base_lam.append(zeta(m, (m // 4) * t % m))
    rays = []
    elements = field.elements()
    for tup in range(q):
        lam_exp = []
        rem = tup
        for _ in range(ell):
            lam_exp.append(rem % p)
            rem //= p
        lams = [
            base_lam[j] * zeta(m, chi_step * lam_exp[j] % m) for j in range(ell)
        ]
        lam_invs = [lam.conj() for lam in lams]  # unit modulus: inverse = conj
        amps = [None] * q
        amps[0] = Cyclotomic.one(m)
        for gamma in elements:
            idx = gamma.index
            if amps[idx] is not None:
                continue
            # peel the lowest nonzero digit: gamma = prev + e_j
            digits = list(gamma.coeffs)
            j = next(k for k, c in enumerate(digits) if c)
            e = basis_elems[j]
            prev = gamma - e
            prev_amp = amps[prev.index]
            if prev_amp is None:
                raise AssertionError("recursion order broken")
            t = gf_trace_int(slope * e * prev)
            amps[idx] = lam_invs[j] * zeta(m, chi_step * t % m) * prev_amp
        rays.append(Ray(amps))
    return rays


class TestSlopeBasis:
    @pytest.mark.parametrize(
        "p,ell", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]
    )
    def test_exponent_table_matches_scalar_recursion(self, p, ell):
        field = gf_build(p, ell)
        m = conductor_for(field.order)
        for slope in field.elements():
            assert _slope_basis(field, slope, m) == scalar_slope_basis(field, slope, m)


class TestVerify:
    @pytest.mark.parametrize("n", [2, 3])
    def test_position_and_momentum_pass(self, n):
        bs = BasisSet(dim=n, bases=[ontic_basis(n), momentum_basis(n)])
        assert verify_mub(bs).ok

    def test_basis_against_itself_fails(self):
        bs = BasisSet(dim=2, bases=[ontic_basis(2), ontic_basis(2)])
        report = verify_mub(bs)
        assert not report.ok
        assert report.violations

    def test_report_names_violating_pair(self):
        bs = BasisSet(dim=3, bases=[ontic_basis(3), ontic_basis(3)])
        report = verify_mub(bs)
        assert any("want 1/3" in v for v in report.violations)


class TestCompleteSets:
    @pytest.mark.parametrize("p,ell", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_complete_set_verifies(self, p, ell):
        n = p**ell
        bs = mub_complete_set(p, ell)
        assert len(bs.bases) == n + 1
        assert verify_mub(bs).ok

    def test_dim2_set_is_the_octahedron(self):
        bs = mub_complete_set(2)
        rays = {r for basis in bs.bases for r in basis}
        assert rays == set(seed_orbit(2))

    def test_dim3_set_matches_seed_orbit(self):
        bs = mub_complete_set(3)
        rays = {r for basis in bs.bases for r in basis}
        assert rays == set(seed_orbit(3))

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            mub_complete_set(6)
        with pytest.raises(ValueError):
            mub_complete_set(4, 1)

    def test_cross_probabilities_exact(self):
        bs = mub_complete_set(2, 2)
        for bi in range(len(bs.bases)):
            for bj in range(bi + 1, len(bs.bases)):
                for u in bs.bases[bi]:
                    for v in bs.bases[bj]:
                        assert transition_probability(u, v).rational() == Fraction(
                            1, 4
                        )

    def test_clifford_image_still_unbiased(self):
        bs = mub_complete_set(2)
        s = s_matrix(2)
        moved = BasisSet(
            dim=2, bases=[[apply(s, r) for r in basis] for basis in bs.bases]
        )
        assert verify_mub(moved).ok


class TestExtraction:
    def test_dim2_orbit_gives_three_bases(self):
        bs = extract_mubs_from_orbit(seed_orbit(2))
        assert len(bs.bases) == 3
        assert verify_mub(bs).ok

    def test_dim3_orbit_gives_four_bases(self):
        bs = extract_mubs_from_orbit(seed_orbit(3))
        assert len(bs.bases) == 4
        assert verify_mub(bs).ok

    def test_dim2_step1_orbit_fails_structurally(self):
        ss = generate_states(2, 1)
        orbit24 = next(o for o in ss.orbits if len(o) == 24)
        with pytest.raises(MubExtractionError) as exc:
            extract_mubs_from_orbit(orbit24)
        # the orbit pairs up orthogonally but the pairs are biased
        assert exc.value.bases or exc.value.leftover

    def test_empty_input(self):
        with pytest.raises(MubExtractionError):
            extract_mubs_from_orbit([])

    def test_biased_partition_fails_with_one_probability_matrix(self, monkeypatch):
        import finiteqm.mub as mub
        from finiteqm.rays import probabilities

        calls = []

        def counting(rows, cols):
            calls.append(1)
            return probabilities(rows, cols)

        monkeypatch.setattr(mub, "probabilities", counting)
        m = conductor_for(2)
        one, root3 = Cyclotomic.one(m), sqrt_embed(3, m)
        rays = ontic_basis(2) + [Ray([one, root3]), Ray([root3, -one])]
        with pytest.raises(MubExtractionError) as exc:
            extract_mubs_from_orbit(rays)
        assert str(exc.value).startswith(
            "partition found but unbiasedness fails: "
            "bases 0,1: rays 0,0 have P=1/4, want 1/2; "
        )
        assert len(exc.value.bases) == 2
        assert len(calls) == 1


class TestSerialization:
    def test_roundtrip(self):
        bs = mub_complete_set(3)
        back = BasisSet.from_json(bs.to_json())
        assert back.dim == bs.dim
        assert [
            [r.key() for r in basis] for basis in back.bases
        ] == [[r.key() for r in basis] for basis in bs.bases]


class TestLargerPrimePowers:
    @pytest.mark.parametrize("p,ell", [(2, 3), (3, 2)])
    def test_complete_sets_dim8_and_dim9(self, p, ell):
        n = p**ell
        bs = mub_complete_set(p, ell)
        assert len(bs.bases) == n + 1
        assert verify_mub(bs).ok
