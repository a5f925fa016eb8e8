"""Matrix generators, defining relations, and group closure."""

import itertools
import random
import tracemalloc
from fractions import Fraction
from functools import cache, cached_property

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import nonzero_cyclotomics
from finiteqm import qgroups
from finiteqm.cyclotomic import Cyclotomic, _context, conductor_for, sqrt_embed, zeta
from finiteqm.decomposition import crt_permutation, crt_split
from finiteqm.galois import gf_build
from finiteqm.qgroups import (
    ClosureCapError,
    CoefficientOverflowError,
    UMatrix,
    UncertifiedGeneratorsError,
    center_of,
    check_weyl_relation,
    clifford_generators,
    clifford_group,
    displacement,
    evolve_ontic,
    fourier_matrix,
    galois_generators,
    group_closure,
    kron,
    position_operator,
    s_matrix,
    symplectic_form,
    wh_generators,
    wh_group,
    _exact_matmul,
    _field_matmul,
    _int_array,
    _multiplier,
    _scalar_canonical_batch,
)


def mat(m, rows):
    return UMatrix.from_entries(
        [[Cyclotomic.from_rational(m, v) if isinstance(v, int) else v for v in row]
         for row in rows],
        m,
    )


class TestGenerators:
    def test_shift_dim2(self):
        _, x, _ = wh_generators(2)
        assert x == mat(24, [[0, 1], [1, 0]])

    def test_shift_dim3_cycle(self):
        _, x, _ = wh_generators(3)
        assert x == mat(24, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])

    def test_tau_orders(self):
        for n in range(2, 7):
            tau, _, _ = wh_generators(n)
            order = next(k for k in range(1, 4 * n + 1) if (tau**k).rational() == 1)
            assert order == (n if n % 2 else 2 * n)

    def test_tau_dim2_is_minus_i(self):
        tau, _, _ = wh_generators(2)
        assert tau == -zeta(24, 6)

    def test_fourier_dim2(self):
        f = fourier_matrix(2)
        r2 = sqrt_embed(2, 24)
        half = r2.inv()
        assert f == UMatrix.from_entries([[half, half], [half, -half]], 24)

    def test_fourier_dim3_vandermonde(self):
        f = fourier_matrix(3)
        w = zeta(24, 8)
        r3inv = sqrt_embed(3, 24).inv()
        expected = UMatrix.from_entries(
            [
                [r3inv, r3inv, r3inv],
                [r3inv, r3inv * w, r3inv * w * w],
                [r3inv, r3inv * w * w, r3inv * w],
            ],
            24,
        )
        assert f == expected

    def test_fourier_unitary_and_period(self):
        for n in (2, 3):
            f = fourier_matrix(n)
            assert f.is_unitary()
            assert f.matpow(4) == UMatrix.identity(n, f.m)

    def test_s_dim2(self):
        s = s_matrix(2)
        i = zeta(24, 6)
        assert s == UMatrix.diagonal([Cyclotomic.one(24), i], 24)

    def test_s_dim3(self):
        s = s_matrix(3)
        w2 = zeta(24, 16)
        one = Cyclotomic.one(24)
        assert s == UMatrix.diagonal([one, w2, w2], 24)

    def test_s_first_entry_always_one(self):
        for n in range(2, 7):
            assert s_matrix(n).entry(0, 0).is_one()


class TestRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_commutation(self, n):
        assert check_weyl_relation(n).ok

    def test_commutation_dim2_is_anticommutation(self):
        _, x, z = wh_generators(2)
        assert (z @ x) == (x @ z).scale(Cyclotomic.from_rational(24, -1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_clock_is_fourier_conjugate_of_shift(self, n):
        _, x, z = wh_generators(n)
        f = fourier_matrix(n)
        assert (f @ x @ f.dagger()) == z


class TestDisplacement:
    def test_zero_is_identity(self):
        assert displacement(3, 0, 0) == UMatrix.identity(3, 24)

    def test_pure_shift(self):
        _, x, _ = wh_generators(3)
        assert displacement(3, 1, 0) == x

    @pytest.mark.parametrize("n", [2, 3])
    def test_projective_family_size(self, n):
        keys = {
            displacement(n, p1, p2).scalar_canonical().key()
            for p1 in range(n)
            for p2 in range(n)
        }
        assert len(keys) == n * n

    def test_symplectic_antisymmetry(self):
        for n in (2, 3, 5):
            for p in itertools.product(range(n), repeat=2):
                assert symplectic_form(p, p, n) == 0

    def test_symplectic_standard_pair(self):
        for n in (2, 3, 5):
            mod = n if n % 2 else 2 * n
            assert symplectic_form((1, 0), (0, 1), n) == (-1) % mod

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_composition_law_exhaustive(self, n):
        m = conductor_for(n)
        tau = -zeta(m, m // (2 * n))
        for p1, p2, q1, q2 in itertools.product(range(n), repeat=4):
            lhs = displacement(n, p1, p2) @ displacement(n, q1, q2)
            sigma = symplectic_form((p1, p2), (q1, q2), n)
            rhs = displacement(n, p1 + q1, p2 + q2).scale(tau**sigma)
            assert lhs == rhs


class TestGaloisGenerators:
    def test_zero_shift_is_identity(self):
        f4 = gf_build(2, 2)
        x0, _ = galois_generators(f4, f4.zero(), f4.zero())
        assert x0 == UMatrix.identity(4, conductor_for(4))

    def test_prime_case_reduces_to_pauli(self):
        f2 = gf_build(2, 1)
        xnu, _ = galois_generators(f2, f2.one(), f2.zero())
        _, x, _ = wh_generators(2)
        assert xnu == x

    def test_f4_trace_character_diagonal(self):
        # tr(gamma) over 0, 1, x, x+1 is 0, 0, 1, 1: diagonal +1 +1 -1 -1
        f4 = gf_build(2, 2)
        _, zmu = galois_generators(f4, f4.zero(), f4.one())
        m = conductor_for(4)
        vals = [zmu.entry(i, i).rational() for i in range(4)]
        assert vals == [1, 1, -1, -1]

    def test_additive_shift_order(self):
        f9 = gf_build(3, 2)
        xnu, _ = galois_generators(f9, f9.element([1, 1]), f9.zero())
        assert xnu.matpow(3) == UMatrix.identity(9, conductor_for(9))


class TestClosure:
    def test_wh_orders(self):
        assert wh_group(2).order == 16
        assert wh_group(3).order == 27

    def test_clifford_orders(self):
        assert clifford_group(2).order == 192
        assert clifford_group(3).order == 2592

    def test_projective_orders(self):
        assert clifford_group(2, projective=True).order == 24
        assert clifford_group(3, projective=True).order == 216

    def test_projective_times_center_equals_full(self):
        for n in (2, 3):
            full = clifford_group(n)
            proj = clifford_group(n, projective=True)
            assert proj.order * len(center_of(full)) == full.order

    def test_center_of_clifford_2_is_mu8(self):
        scalars = set(center_of(clifford_group(2)))
        assert scalars == {zeta(24, 3 * k) for k in range(8)}

    def test_center_of_clifford_3_is_mu12(self):
        scalars = set(center_of(clifford_group(3)))
        assert scalars == {zeta(24, 2 * k) for k in range(12)}

    def test_center_of_wh3_is_mu3(self):
        scalars = set(center_of(wh_group(3)))
        assert scalars == {zeta(24, 8 * k) for k in range(3)}

    def test_every_element_unitary(self):
        table = clifford_group(2)
        assert all(el.is_unitary() for el in table.elements)

    def test_word_provenance(self):
        table = clifford_group(2)
        gens = clifford_generators(2)
        for el, word in zip(table.elements[:20], table.words[:20]):
            prod = UMatrix.identity(2, 24)
            for name in word:
                prod = prod @ gens[name]
            assert prod == el

    def test_closure_independent_of_generator_order(self):
        gens = list(clifford_generators(3).values())
        a = group_closure(gens)
        b = group_closure(list(reversed(gens)))
        assert a.order == b.order
        assert [e.key() for e in a.elements] == [e.key() for e in b.elements]

    def test_cap_exceeded(self):
        with pytest.raises(ClosureCapError) as exc:
            clifford_group(3, max_size=100)
        assert exc.value.partial_size > 100

    def test_contains(self):
        table = clifford_group(2)
        _, x, z = wh_generators(2)
        assert table.contains(x @ z)
        assert table.contains(z)  # z = FXF^-1 lies inside
        assert not table.contains(position_operator(2))

    def test_order_only_mode(self, monkeypatch):
        import finiteqm.qgroups as qgroups

        calls = []
        bodies = qgroups._bodies

        def recording(*args):
            calls.append(1)
            return bodies(*args)

        monkeypatch.setattr(qgroups, "_bodies", recording)
        table = clifford_group(2)
        assert table.order == 192
        assert "elements" not in table.to_json()
        assert calls == []
        # bodies and words are built together on first access, then kept
        first = (table.elements, table.words)
        assert (table.elements, table.words) == first
        assert len(first[0]) == len(first[1]) == 192
        assert calls == [1]

    def test_requires_unitary_generators(self):
        with pytest.raises(ValueError):
            group_closure([position_operator(2)])

    def test_requires_one_name_per_generator(self):
        gens = list(clifford_generators(2).values())
        with pytest.raises(ValueError, match="generator names"):
            group_closure(gens, names=("X", "F"))


class TestBatchInverse:
    """``_batch_inverse`` against ``Cyclotomic.inv``, one slot per distinct row."""

    @pytest.mark.parametrize("m", [24, 168])
    @pytest.mark.parametrize("scale", [1, 1 << 70], ids=["int64", "object"])
    def test_matches_scalar_inverse(self, m, scale):
        d = _context(m).degree
        rng = random.Random(m + scale)
        units = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(3)]
        for u in units:
            u[1] = 1  # irrational, and primitive
        rows = [
            units[0],
            [scale * v for v in units[1]],
            units[0],  # repeated
            [5] + [0] * (d - 1),  # rational
            [-7 * v for v in units[0]],  # scaled c u
            [scale] + [0] * (d - 1),
            [2 * scale * v for v in units[2]],
            [scale * v for v in units[1]],
        ]
        batch = _int_array(rows)
        assert batch.dtype == (np.int64 if scale == 1 else object)
        nums, dens, slot = qgroups._batch_inverse(batch, _context(m))
        distinct = list(dict.fromkeys(map(tuple, rows)))
        assert len(nums) == len(dens) == len(distinct)
        assert slot.tolist() == [distinct.index(tuple(row)) for row in rows]
        for row, k in zip(rows, slot.tolist()):
            got = Cyclotomic(m, nums[k].tolist(), int(dens[k]))
            assert got == Cyclotomic(m, row, 1).inv()

    def test_empty_batch(self):
        nums, dens, slot = qgroups._batch_inverse(np.zeros((0, 8), dtype=np.int64), _context(24))
        assert nums.shape == (0, 8) and dens.shape == (0,) and slot.shape == (0,)


class TestScalarCanonical:
    @given(nonzero_cyclotomics(24))
    def test_invariant_under_scaling(self, c):
        f = fourier_matrix(2)
        assert f.scale(c).scalar_canonical() == f.scalar_canonical()

    def test_idempotent(self):
        s = s_matrix(3)
        once = s.scalar_canonical()
        assert once.scalar_canonical() == once

    @pytest.mark.parametrize("scale", [1, 1 << 64], ids=["int64", "object"])
    def test_batch_divides_by_the_lead_entrywise(self, scale):
        m, d = 24, 8
        rng = random.Random(scale)

        def entry():
            return [rng.randint(-5, 5) * scale + rng.randint(-5, 5) for _ in range(d)]

        leads = [entry() for _ in range(3)]
        for lead in leads:
            lead[0] = scale + 3
        # seven arrays over three leads, some after a zero entry
        batch = [
            [[0] * d] * (k % 2) + [leads[k % 3]] + [entry() for _ in range(2 - k % 2)]
            for k in range(7)
        ]
        nums = _int_array(batch)
        assert nums.dtype == (np.int64 if scale == 1 else object)
        out, dens = _scalar_canonical_batch(nums, _context(m))
        for k, arrays in enumerate(batch):
            lead = Cyclotomic(m, leads[k % 3], 1)
            for i, row in enumerate(arrays):
                got = Cyclotomic(m, out[k, i].tolist(), int(dens[k]))
                assert got == Cyclotomic(m, row, 1) / lead


class TestOperators:
    def test_position_operator(self):
        for n in (2, 3):
            q = position_operator(n)
            for k in range(n):
                assert q.entry(k, k).rational() == k
            assert q.trace().rational() == n * (n - 1) // 2
        assert not position_operator(3).is_unitary()

    def test_evolution_requires_coprime_velocity(self):
        with pytest.raises(ValueError):
            evolve_ontic(0, 0, 1, 2)
        with pytest.raises(ValueError):
            evolve_ontic(0, 2, 1, 4)

    def test_uniform_motion(self):
        assert evolve_ontic(1, 2, 3, 5) == 2
        assert evolve_ontic(4, 3, 0, 5) == 4

    def test_evolution_matches_matrix_action(self):
        n, x0, v, t = 5, 1, 2, 3
        _, x, _ = wh_generators(n)
        xv = x.matpow(v)
        state = xv.matpow(t)
        # column x0 of X_v^t has its single 1 at the evolved position
        col = [state.entry(i, x0).rational() for i in range(n)]
        assert col.index(1) == evolve_ontic(x0, v, t, n)


class TestKron:
    def test_mixed_product_rule(self):
        m = conductor_for(6)
        a = fourier_matrix(2, m)
        b = fourier_matrix(3, m)
        _, x2, _ = wh_generators(2, m)
        _, x3, _ = wh_generators(3, m)
        assert kron(a, b) @ kron(x2, x3) == kron(a @ x2, b @ x3)

    def test_identity_factors(self):
        m = conductor_for(6)
        assert kron(
            UMatrix.identity(2, m), UMatrix.identity(3, m)
        ) == UMatrix.identity(6, m)


class TestCenterErrors:
    def test_projective_table_rejected(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            center_of(clifford_group(2, projective=True))

    @pytest.mark.parametrize("group", [clifford_group, wh_group])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_residue_center_matches_body_scan(self, group, n):
        table = group(n)
        assert table.prime is not None
        scan = [c for c in (el.is_scalar() for el in table.elements) if c is not None]
        assert center_of(table) == sorted(scan, key=lambda c: c.key())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_center_size_is_full_over_projective_order(self, n):
        full = clifford_group(n)
        proj = clifford_group(n, projective=True)
        assert len(center_of(full)) == full.order // proj.order


class TestOrderFormulas:
    @pytest.mark.parametrize("n,expected", [(2, 16), (3, 27), (4, 128), (5, 125), (6, 432)])
    def test_wh_order_is_cubed_doubled_when_even(self, n, expected):
        assert expected == (n**3 if n % 2 else 2 * n**3)
        assert wh_group(n).order == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_projective_displacement_count(self, n):
        keys = {
            displacement(n, p1, p2).scalar_canonical().key()
            for p1 in range(n)
            for p2 in range(n)
        }
        assert len(keys) == n * n

    def test_closure_is_multiplicatively_closed(self):
        import random as _random

        table = clifford_group(2)
        rng = _random.Random(4)
        for _ in range(25):
            a = rng.choice(table.elements)
            b = rng.choice(table.elements)
            assert table.contains(a @ b)
            assert table.contains(a.dagger())


class TestHigherDimensions:
    def test_projective_order_formula_at_primes(self):
        # p^3 (p^2 - 1) matches the measured projective orders at 2, 3, 5
        for p in (2, 3, 5):
            table = clifford_group(p, projective=True)
            assert table.order == p**3 * (p**2 - 1)

    def test_dim4_orders(self):
        assert clifford_group(4, projective=True).order == 768
        cl4 = clifford_group(4)
        assert cl4.order == 6144
        assert len(center_of(cl4)) == 8


def reference_multiplier(w: np.ndarray, m: int) -> np.ndarray:
    """M[..., b, c] = sum_a w[..., a] * (coefficient c of z^(a+b)), on Python
    integers, from the reduction rows rather than the cached table."""
    ctx = _context(m)
    d = ctx.degree
    rows = np.array(ctx.rows[: 2 * d - 1], dtype=object)
    powers = rows[np.add.outer(np.arange(d), np.arange(d))]
    return np.tensordot(w.astype(object), powers, axes=([-1], [0]))


class TestExactFallback:
    @given(
        seed=st.integers(0, 2**32 - 1),
        shift=st.integers(-2, 2),
        m=st.sampled_from([24, 168]),
        huge=st.booleans(),
    )
    def test_multiplier_past_the_bound_matches_object_reference(
        self, seed, shift, m, huge
    ):
        ctx = _context(m)
        d = ctx.degree
        bound = ctx.mult[1]
        wmax = (1 << 80) if huge else 2**53 // (bound * d) + shift
        rng = random.Random(seed)
        w = [[rng.randint(-wmax, wmax) for _ in range(d)] for _ in range(2)]
        w[1][rng.randrange(d)] = -wmax
        w = _int_array(w).reshape(2, 1, d)
        out = _multiplier(w, ctx)
        assert (out.dtype == object) == (wmax * bound * d >= 2**53)
        assert out.shape == (2, 1, d, d)
        assert np.array_equal(out.astype(object), reference_multiplier(w, m))

    def test_field_table_is_cached_and_read_only(self):
        ctx = _context(168)
        table, bound = ctx.mult
        assert ctx.mult[0] is table
        assert table.dtype == np.float64 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 2.0
        d = ctx.degree
        identity = np.eye(d, dtype=np.int64)
        assert np.array_equal(
            table.reshape(d, d, d), reference_multiplier(identity, 168).astype(float)
        )
        assert bound == max(abs(v) for row in ctx.rows[: 2 * d - 1] for v in row)

    def test_exact_matmul_big_coefficients_match_reference(self):
        rng = np.random.default_rng(11)
        n, d, b = 2, 3, 4
        big = 1 << 28  # forces the exact path: bound exceeds 2**53
        chunk = rng.integers(-big, big, size=(b, n, n, d), dtype=np.int64)
        texact = rng.integers(-big, big, size=(n, d, n, d), dtype=np.int64)
        out = _exact_matmul(
            chunk.reshape(b * n, n * d), texact.reshape(n * d, n * d)
        )
        reference = np.tensordot(
            chunk.astype(object), texact.astype(object), axes=([2, 3], [0, 1])
        )
        assert out.dtype == object
        assert np.array_equal(out.reshape(b, n, n, d), reference)

    def test_exact_matmul_fast_path_matches_reference(self):
        rng = np.random.default_rng(12)
        n, d, b = 3, 2, 5
        chunk = rng.integers(-50, 50, size=(b, n, n, d), dtype=np.int64)
        texact = rng.integers(-50, 50, size=(n, d, n, d), dtype=np.int64)
        out = _exact_matmul(
            chunk.reshape(b * n, n * d), texact.reshape(n * d, n * d)
        )
        reference = np.tensordot(chunk, texact, axes=([2, 3], [0, 1]))
        assert out.dtype == np.int64
        assert np.array_equal(out.reshape(b, n, n, d), reference)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shift=st.integers(-2, 2),
        k=st.integers(1, 9),
        extremal=st.booleans(),
    )
    def test_bound_straddling_2_53_matches_object_reference(
        self, seed, shift, k, extremal
    ):
        rng = np.random.default_rng(seed)
        xmax = 1 << 26
        ymax = (1 << (27 + shift)) // k + rng.integers(-2, 3)
        if extremal:  # every partial sum reaches the bound
            x = np.full((2, 3, k), xmax, dtype=np.int64)
            y = np.full((2, k, 4), ymax, dtype=np.int64)
        else:
            x = rng.integers(-xmax, xmax + 1, size=(2, 3, k), dtype=np.int64)
            y = rng.integers(-ymax, ymax + 1, size=(2, k, 4), dtype=np.int64)
            x[0, 0, 0], y[1, 0, 0] = -xmax, ymax
        bound = xmax * int(ymax) * k
        out = _exact_matmul(x, y)
        reference = np.matmul(x.astype(object), y.astype(object))
        assert (out.dtype == object) == (bound >= 2**53)
        assert np.array_equal(out.astype(object), reference)

    @given(nonzero_cyclotomics(24), st.integers(0, 2**32 - 1))
    def test_dagger_and_scale_match_entrywise_cyclotomic(self, c, seed):
        rng = random.Random(seed)
        entries = [
            [zeta(24, rng.randrange(24)) * Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(3)]
            for _ in range(3)
        ]
        a = UMatrix.from_entries(entries, 24)
        dag, scaled = a.dagger(), a.scale(c)
        for i in range(3):
            for j in range(3):
                assert dag.entry(i, j) == entries[j][i].conj()
                assert scaled.entry(i, j) == entries[i][j] * c


def oracle_field_matmul(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """(..., r, K, d) @ (..., K, c, d) entry by entry in Cyclotomic arithmetic."""
    lead = np.broadcast_shapes(x.shape[:-3], y.shape[:-3])
    x = np.broadcast_to(x, lead + x.shape[-3:])
    y = np.broadcast_to(y, lead + y.shape[-3:])
    r, k, d = x.shape[-3:]
    c = y.shape[-2]
    out = np.empty(lead + (r, c, d), dtype=object)
    for at in np.ndindex(*lead):
        xs = [[Cyclotomic(m, x[at + (i, t)].tolist()) for t in range(k)] for i in range(r)]
        ys = [[Cyclotomic(m, y[at + (t, j)].tolist()) for j in range(c)] for t in range(k)]
        for i in range(r):
            for j in range(c):
                acc = Cyclotomic.zero(m)
                for t in range(k):
                    acc = acc + xs[i][t] * ys[t][j]
                assert acc.den == 1
                out[at + (i, j)] = acc.num
    return out


class TestFieldProduct:
    """_field_matmul against entrywise Cyclotomic arithmetic.

    At m = 168 (d = 48) and K = 7 the budget allows 4 columns per right
    operator, so 7 columns run as blocks of 4 and 3 on the operator route
    (``_operator_matmul``), which the block tests call directly.
    """

    M, K, C = 168, 7, 7

    @staticmethod
    def kernel_dtypes(monkeypatch):
        dtypes = []
        inner = qgroups._exact_matmul

        def record(x, y):
            out = inner(x, y)
            dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(qgroups, "_exact_matmul", record)
        return dtypes

    def right_factor(self, kind: str, rng) -> np.ndarray:
        d = _context(self.M).degree
        y = np.zeros((self.K, self.C, d), dtype=np.int64)
        if kind == "monomial":  # one root of unity per column
            for j in range(self.C):
                k = rng.randrange(self.M)
                y[(3 * j + 1) % self.K, j] = zeta(self.M, k).num
        elif kind == "dense":
            y[:] = [[[rng.randint(-4, 4) for _ in range(d)] for _ in range(self.C)]
                    for _ in range(self.K)]
        return y

    @pytest.mark.parametrize("kind", ["zero", "monomial", "dense"])
    def test_column_blocks_match_oracle(self, kind, monkeypatch):
        d = _context(self.M).degree
        width = qgroups._GRAM_BUDGET // (self.K * d * d)
        assert width == 4 and self.C % width
        rng = random.Random(kind)
        x = _int_array([[[rng.randint(-3, 3) for _ in range(d)] for _ in range(self.K)]
                        for _ in range(2)])
        y = self.right_factor(kind, rng)
        dtypes = self.kernel_dtypes(monkeypatch)
        out = qgroups._operator_matmul(x, y, _context(self.M))
        assert dtypes == [np.int64, np.int64]
        assert out.dtype == np.int64 and out.shape == (2, self.C, d)
        assert np.array_equal(out.astype(object), oracle_field_matmul(x, y, self.M))

    def test_leading_axes_broadcast_through_the_blocks(self):
        d = _context(self.M).degree
        rng = random.Random(5)
        x = _int_array([[[[rng.randint(-3, 3) for _ in range(d)] for _ in range(self.K)]]
                        for _ in range(2)])  # (2, 1, K, d)
        y = np.stack([self.right_factor("monomial", rng), self.right_factor("dense", rng)])
        want = oracle_field_matmul(x, y, self.M)
        out = _field_matmul(x, y, _context(self.M))
        assert out.shape == (2, 1, self.C, d)
        assert np.array_equal(out.astype(object), want)
        # one leading axis on the right only
        out = _field_matmul(x[0], y, _context(self.M))
        assert out.shape == (2, 1, self.C, d)
        assert np.array_equal(out.astype(object), oracle_field_matmul(x[0], y, self.M))

    def test_one_block_past_2_53_makes_the_whole_product_exact(self, monkeypatch):
        d = _context(self.M).degree
        rng = random.Random(7)
        x = _int_array([[[rng.randint(-1000, 1000) for _ in range(d)]
                         for _ in range(self.K)]])
        y = self.right_factor("dense", rng)
        y[:, 4:] *= 1 << 40  # only the second block passes the bound
        dtypes = self.kernel_dtypes(monkeypatch)
        out = qgroups._operator_matmul(x, y, _context(self.M))
        assert dtypes == [np.int64, object]
        assert out.dtype == object
        assert np.array_equal(out, oracle_field_matmul(x, y, self.M))

    @pytest.mark.parametrize("huge", [False, True])
    def test_mostly_zero_multiplier_matches_reference(self, huge):
        ctx = _context(24)
        rng = random.Random(huge)
        top = (1 << 80) if huge else 9
        w = [[0] * 8 for _ in range(5)]
        w[1] = [rng.randint(-top, top) for _ in range(8)]
        w[3][2] = -top
        w = _int_array(w).reshape(5, 1, 8)
        out = _multiplier(w, ctx)
        assert out.dtype == (object if huge else np.float64)
        assert np.array_equal(out.astype(object), reference_multiplier(w, 24))

    def test_dimension_26_alignment_product_is_bounded(self):
        perm = crt_permutation(crt_split(26))
        x = wh_generators(26)[1]
        want = (perm @ x).num
        tracemalloc.start()
        try:
            out = perm @ x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out.num, want)
        assert peak < 25 * 2**20


def field_eps_d(k: int, d: int) -> float:
    """eps * d of the embedding route's bound, eps = 16 delta + 16 u (d + K)."""
    return (16 * 2.0**-48 + 16 * 2.0**-53 * (d + k)) * d


@st.composite
def field_factor(draw, shape, m):
    """An integer coefficient array shape + (phi(m),): zero, monomial (one
    signed root of unity per column) or dense."""
    d = _context(m).degree
    kind = draw(st.sampled_from(["zero", "monomial", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = np.zeros(shape + (d,), dtype=np.int64)
    if kind == "dense":
        out[:] = rng.integers(-9, 10, out.shape)
    elif kind == "monomial":
        *lead, rows, cols = shape
        for at in np.ndindex(*lead, cols):
            sign = rng.choice([-1, 1])
            out[at[:-1] + (rng.integers(rows), at[-1])] = sign * _context(m).powers[
                rng.integers(m)
            ]
    return out


# leading axes of (x, y): none, on either side, and broadcast against each other
LEADS = [((), ()), ((2,), ()), ((), (2,)), ((2, 1), (3,)), ((1,), (2, 1))]


class RouteRecorder:
    """Records which route each _field_matmul takes."""

    def __init__(self, monkeypatch, names=("_operator_matmul", "_embedded_matmul")):
        self.routes = []
        for name in names:
            real = getattr(qgroups, name)

            def record(*args, real=real, name=name):
                self.routes.append(name)
                return real(*args)

            monkeypatch.setattr(qgroups, name, record)


class TestEmbeddingRoute:
    """The complex-embedding route of _field_matmul against the operator
    route and entrywise Cyclotomic arithmetic."""

    @given(st.data())
    def test_matches_operator_route_and_oracle(self, data):
        m = data.draw(st.sampled_from([48, 72, 120, 168, 312]))
        ctx = _context(m)
        r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
        xlead, ylead = data.draw(st.sampled_from(LEADS))
        x = data.draw(field_factor(xlead + (r, k), m))
        y = data.draw(field_factor(ylead + (k, c), m))
        out = qgroups._embedded_matmul(qgroups._embed(x, m)[0], qgroups._embed(y, m)[0], ctx)
        want = qgroups._operator_matmul(x, y, ctx)
        assert out.dtype == np.int64 and out.shape == want.shape
        assert np.array_equal(out, want)
        assert np.array_equal(_field_matmul(x, y, ctx), want)
        assert np.array_equal(want.astype(object), oracle_field_matmul(x, y, m))

    # x = k and y = k zeta^5 at m = 168: max S = k^2, and eps d k^2 crosses
    # 1/2 between K0 and K0 + 1
    K0 = 269_064

    @given(st.integers(K0 - 2000, K0 + 2000))
    @example(K0)
    @example(K0 + 1)
    def test_route_follows_the_bound_across_one_half(self, k):
        eps_d = field_eps_d(1, 48)
        assert eps_d * self.K0**2 < 0.5 <= eps_d * (self.K0 + 1) ** 2
        ctx = _context(168)
        x = np.zeros((1, 1, 48), dtype=np.int64)
        y = np.zeros((1, 1, 48), dtype=np.int64)
        x[0, 0, 0], y[0, 0, 5] = k, k
        with pytest.MonkeyPatch.context() as patch:
            recorder = RouteRecorder(patch)
            out = _field_matmul(x, y, ctx)
        embedded = eps_d * k * k < 0.5
        route = "_embedded_matmul" if embedded else "_operator_matmul"
        assert recorder.routes == [route]
        want = np.zeros((1, 1, 48), dtype=np.int64)
        want[0, 0, 5] = k * k
        assert np.array_equal(out, want)

    def test_object_factors_take_the_operator_route(self, monkeypatch):
        # y = 2 zeta is no root of unity, so it takes no monomial route
        ctx = _context(168)
        x = _int_array([[[1 << 70] + [0] * 47]])
        y = _int_array([[[0, 2] + [0] * 46]])
        recorder = RouteRecorder(monkeypatch)
        out = _field_matmul(x, y, ctx)
        assert recorder.routes == ["_operator_matmul"]
        assert out.dtype == object and out[0, 0, 1] == 1 << 71

    def test_int64_minimum_takes_the_operator_route(self, monkeypatch):
        # |-2**63| does not fit int64, so its l1 must be taken in float64
        ctx = _context(168)
        x = np.zeros((1, 1, 48), dtype=np.int64)
        y = np.zeros((1, 1, 48), dtype=np.int64)
        x[0, 0, 0], y[0, 0, :2] = -(2**63), 1
        recorder = RouteRecorder(monkeypatch)
        out = _field_matmul(x, y, ctx)
        assert recorder.routes == ["_operator_matmul"]
        assert out[0, 0, :2].tolist() == [-(2**63)] * 2 and not out[0, 0, 2:].any()

    def test_closure_routes_follow_the_degree(self, monkeypatch):
        recorder = RouteRecorder(monkeypatch)
        assert clifford_group(6).order == 124416  # m = 24, d = 8
        assert recorder.routes and set(recorder.routes) == {"_operator_matmul"}
        recorder.routes.clear()
        clifford_group(7)  # m = 168, d = 48
        assert recorder.routes and set(recorder.routes) == {"_embedded_matmul"}


class TestEmptyOperands:
    """A factor with no rows or an empty inner dimension gives the empty or
    the zero product on either route."""

    @pytest.mark.parametrize("m", [24, 168])
    @pytest.mark.parametrize("left,right", [((0, 2), (2, 3)), ((2, 0), (0, 3))])
    def test_empty_and_zero_products(self, m, left, right):
        ctx = _context(m)
        d = ctx.degree
        rng = np.random.default_rng(m)
        x = rng.integers(-3, 4, size=left + (d,))
        y = rng.integers(-3, 4, size=right + (d,))
        want = np.zeros((left[0], right[1], d), dtype=np.int64)
        embedded = qgroups._embedded_matmul(qgroups._embed(x, m)[0], qgroups._embed(y, m)[0], ctx)
        for out in (qgroups._operator_matmul(x, y, ctx), embedded, _field_matmul(x, y, ctx)):
            assert out.shape == want.shape and np.array_equal(out, want)


ROUTES = ("_monomial_matmul", "_operator_matmul", "_embedded_matmul")


def monomial(n: int, m: int, rows, exponents) -> np.ndarray:
    """(n, len(rows), phi(m)) with z^(exponents[j]) at row rows[j] of column
    j, and column j zero where exponents[j] is None."""
    out = np.zeros((n, len(rows), _context(m).degree), dtype=np.int64)
    for j, (row, e) in enumerate(zip(rows, exponents)):
        if e is not None:
            out[row, j] = _context(m).powers[e % m]
    return out


class TestMonomialRoute:
    """A right factor with no leading axes and at most one root of unity
    per column takes the monomial route: gathers and root-of-unity
    operators, against the operator route and entrywise Cyclotomic
    arithmetic.  Other factors take the old routes."""

    MS = [24, 104, 168, 312]

    def check(self, x, y, m, monkeypatch, oracle=True):
        ctx = _context(m)
        with monkeypatch.context() as patch:
            recorder = RouteRecorder(patch, ROUTES)
            out = _field_matmul(x, y, ctx)
        assert recorder.routes == ["_monomial_matmul"]
        want = qgroups._operator_matmul(x, y, ctx)
        assert out.shape == want.shape
        assert np.array_equal(out.astype(object), want.astype(object))
        if oracle:
            assert np.array_equal(out.astype(object), oracle_field_matmul(x, y, m))
        return out

    @pytest.mark.parametrize("m", MS)
    def test_permutations_signs_zero_columns_and_phases(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        d, n = _context(m).degree, 5
        x = rng.integers(-9, 10, size=(3, n, d))
        perm = rng.permutation(n)
        cases = [
            monomial(n, m, perm, [0] * n),  # a permutation: a gather
            monomial(n, m, perm, rng.choice([0, m // 2], n)),  # signed
            monomial(n, m, perm, [0, None, 0, None, 0]),  # zero columns
            monomial(n, m, perm, [None] * n),  # the zero matrix
            monomial(n, m, perm, rng.integers(0, m, n)),  # any roots
            monomial(n, m, perm, [m - 1, None, 1, m // 2, 5]),
        ]
        for y in cases:
            self.check(x, y, m, monkeypatch)
        # leading axes on the left only
        self.check(rng.integers(-9, 10, size=(2, 1, 3, n, d)), cases[-1], m, monkeypatch)

    @pytest.mark.parametrize("m", MS + [120])
    def test_diagonal_s_and_every_weyl_matrix(self, m, monkeypatch):
        # every X^a Z^b for each n = 3..7 with 2 n | m (n = 5 at m = 120),
        # times zeta^s for s = 0, 1, m / 2, m - 1 and one s drawn per m;
        # test_kron_shape meets every root of unity
        ctx = _context(m)
        rng = np.random.default_rng(m)
        phases = [0, 1, m // 2, m - 1, int(rng.integers(m))]
        for n in range(3, 8):
            if m % (2 * n):
                continue
            _, xw, zw = wh_generators(n, m)
            x = rng.integers(-9, 10, size=(2, n, ctx.degree))
            self.check(x, s_matrix(n, m).num, m, monkeypatch)
            for a in range(n):
                for b in range(n):
                    weyl = xw.matpow(a) @ zw.matpow(b)
                    for s in phases:
                        y = weyl.scale(zeta(m, s)).num
                        self.check(x, y, m, monkeypatch, oracle=(a, s) == (1, 1))

    @pytest.mark.parametrize("m", MS)
    def test_kron_shape(self, m, monkeypatch):
        # kron multiplies (n^2, 1, d) by (1, k^2, d): K = 1
        rng = np.random.default_rng(m)
        d = _context(m).degree
        x = rng.integers(-9, 10, size=(7, 1, d))
        for exponents in ([0, None, None, 0], [1, None, m // 2, m - 3], [None] * 4):
            self.check(x, monomial(1, m, [0] * 4, exponents), m, monkeypatch)
        # every root of unity of Q(zeta_m), one per column
        every = monomial(1, m, [0] * m, range(m))
        self.check(x[:2], every, m, monkeypatch, oracle=m == 24)
        _, x2, z2 = wh_generators(2, m)
        recorder = RouteRecorder(monkeypatch, ROUTES)
        got = kron(z2, x2)
        assert recorder.routes == ["_monomial_matmul"]
        assert got == UMatrix.from_entries(
            [[z2.entry(i, j) * x2.entry(k, l) for j in range(2) for l in range(2)]
             for i in range(2) for k in range(2)],
            m,
        )

    @pytest.mark.parametrize("m", MS)
    def test_object_left_operand_past_2_63(self, m, monkeypatch):
        d = _context(m).degree
        x = np.zeros((2, 3, d), dtype=object)
        x[0, 1, :3] = [1 << 70, -(1 << 64) - 1, 3]
        x[1, 2, d - 1] = -(1 << 65)
        y = monomial(3, m, [1, 2, 0], [7, m // 2, None])
        out = self.check(x, y, m, monkeypatch)
        assert out.dtype == object
        gather = monomial(3, m, [2, 1, 1], [0, 0, None])
        assert self.check(x, gather, m, monkeypatch).dtype == object
        # int64 entries past the a-priori float64 bound: Python integers
        big = np.zeros((1, 3, d), dtype=np.int64)
        big[0, :, 0] = [(1 << 62) - 1, -(1 << 61), 1 << 50]
        assert self.check(big, y, m, monkeypatch).dtype == object

    @pytest.mark.parametrize("m", MS)
    def test_other_factors_take_the_old_routes(self, m, monkeypatch):
        ctx = _context(m)
        d = ctx.degree
        rng = np.random.default_rng(m)
        x = rng.integers(-9, 10, size=(2, 3, d))
        perm = monomial(3, m, [2, 0, 1], [1, 0, 5])
        two_zeta = perm.copy()
        two_zeta[0, 1] = 2 * ctx.powers[1]  # 2 zeta
        one_plus = perm.copy()
        one_plus[0, 1] = ctx.powers[0] + ctx.powers[1]  # 1 + zeta, no root of unity
        two_entries = perm.copy()
        two_entries[1, 1] = ctx.powers[3]  # a second entry in column 1
        cases = [(x, two_zeta), (x, one_plus), (x, two_entries), (x[None], perm[None])]
        for left, right in cases:
            recorder = RouteRecorder(monkeypatch, ROUTES)
            out = _field_matmul(left, right, ctx)
            monkeypatch.undo()
            assert len(recorder.routes) == 1 and recorder.routes != ["_monomial_matmul"]
            want = oracle_field_matmul(left, right, m)
            assert np.array_equal(out.astype(object), want)

    def test_root_exponents_read_the_reduction_rows(self):
        for m in self.MS:
            ctx = _context(m)
            table, bound = ctx.roots
            assert table.dtype == np.float64 and not table.flags.writeable
            assert np.array_equal(table, ctx.powers) and bound == np.abs(ctx.powers).max()
            ks = np.arange(m)
            assert np.array_equal(ctx.root_exponents(ctx.powers[ks]), ks)
            misses = np.stack([2 * ctx.powers[1], ctx.powers[0] + ctx.powers[1], 0 * ctx.powers[0]])
            assert ctx.root_exponents(misses).tolist() == [-1, -1, -1]
            big = ctx.powers[:2].astype(object)
            big[1, 0] = 1 << 70
            assert ctx.root_exponents(big).tolist() == [-1, -1]


class ReductionCounter:
    """Counts the content reductions (``_canonical_batch``) of UMatrix."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = qgroups._canonical_batch

        def count(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(qgroups, "_canonical_batch", count)


def assert_same_bytes(got: UMatrix, want: UMatrix):
    assert got.num.dtype == want.num.dtype == np.int64
    assert got.num.shape == want.num.shape and got.num.flags.c_contiguous
    assert not got.num.flags.writeable
    assert got.num.tobytes() == want.num.tobytes() and got.den == want.den
    assert got == want and got.key() == want.key()


class TestUnreducedProducts:
    """A product by a unit monomial factor of denominator 1 (each column of
    the left factor once, times a root of unity) and a dagger keep the
    content and the denominator, so they skip the content reduction: byte
    for byte what the reducing constructor gives."""

    @staticmethod
    def reduced_product(a: UMatrix, b: UMatrix) -> UMatrix:
        out = _field_matmul(a.num, b.num, _context(a.m))
        return UMatrix(a.dim, a.m, out, a.den * b.den)

    @staticmethod
    def lefts(n: int):
        gens = clifford_generators(n)
        x, f, s = gens["X"], gens["F"], gens["S"]
        return [x, f, s, f @ s, f.dagger(), s @ f @ f, UMatrix.identity(n, x.m)]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_x_z_s_factors_skip_the_reduction(self, n, monkeypatch):
        _, x, z = wh_generators(n)
        rights = [x, z, s_matrix(n), x @ z @ x, z.dagger()]
        for a in self.lefts(n):
            for b in rights:
                want = self.reduced_product(a, b)
                counter = ReductionCounter(monkeypatch)
                got = a @ b
                monkeypatch.undo()
                assert counter.calls == 0
                assert_same_bytes(got, want)
        assert any(a.den > 1 for a in self.lefts(n))

    @pytest.mark.parametrize("n", [6, 10, 12])
    def test_crt_permutations_skip_the_reduction(self, n, monkeypatch):
        perm = crt_permutation(crt_split(n))
        for b in (perm, perm.dagger()):
            for a in self.lefts(n) + [perm, perm.dagger()]:
                want = self.reduced_product(a, b)
                counter = ReductionCounter(monkeypatch)
                got = a @ b
                monkeypatch.undo()
                assert counter.calls == 0
                assert_same_bytes(got, want)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_dagger_skips_the_reduction(self, n, monkeypatch):
        mats = list(clifford_generators(n).values()) + self.lefts(n)
        if n <= 3:
            mats += clifford_group(n).elements
        for g in mats:
            conj = qgroups._conj(g.num, _context(g.m)).transpose(1, 0, 2)
            want = UMatrix(n, g.m, conj, g.den)
            counter = ReductionCounter(monkeypatch)
            got = g.dagger()
            monkeypatch.undo()
            assert counter.calls == 0
            assert_same_bytes(got, want)

    def test_other_factors_are_reduced(self, monkeypatch):
        m = 24
        one, half = Cyclotomic.one(m), Cyclotomic.from_rational(m, Fraction(1, 2))
        # column 0 is (2, 2) / 4 and column 1 is (1, 0) / 4: a factor that
        # reads column 0 twice leaves content 2 against denominator 4
        q = [Cyclotomic.from_rational(m, Fraction(1, k)) for k in (2, 4)]
        left = mat(m, [[q[0], q[1]], [q[0], 0]])
        assert left.den == 4
        twice = mat(m, [[1, 1], [0, 0]])
        zero_column = mat(m, [[0, 1], [0, 0]])
        halved = UMatrix.permutation(2, m, [1, 0]).scale(half)  # denominator 2
        big = UMatrix(2, m, np.full((2, 2, 8), 1 << 60, dtype=np.int64), 1)
        for a, b in [(left, twice), (left, zero_column), (left, halved), (big, twice)]:
            counter = ReductionCounter(monkeypatch)
            got = a @ b
            monkeypatch.undo()
            assert counter.calls == 1
            entries = [
                [sum((a.entry(i, k) * b.entry(k, j) for k in range(2)), 0 * one)
                 for j in range(2)]
                for i in range(2)
            ]
            assert got == UMatrix.from_entries(entries, m)
        assert (left @ twice).den == 2 and (left @ halved).den == 8
        # a conjugate past the float64 bound comes back as Python integers
        counter = ReductionCounter(monkeypatch)
        assert big.dagger().num.dtype == np.int64
        assert counter.calls == 1


def oracle_weyl_exponents(mat: UMatrix) -> tuple[int, int, int] | None:
    """(a, b, s) when mat = zeta_m^s X^a Z^b, by entrywise Cyclotomic
    comparisons."""
    n, m = mat.dim, mat.m
    support = mat.num.any(axis=2)
    a = int(np.argmax(support[:, 0]))
    cols = np.arange(n)
    shifted = np.zeros((n, n), dtype=bool)
    shifted[(cols + a) % n, cols] = True
    if not np.array_equal(support, shifted):
        return None
    entries = [mat.entry((j + a) % n, j) for j in range(n)]
    omega = zeta(m, m // n)
    powers = [omega**k for k in range(n)]
    b = next(
        (k for k in range(n) if entries[1 % n] == entries[0] * powers[k]), None
    )
    if b is None:
        return None
    if any(entries[j] != entries[0] * powers[b * j % n] for j in range(n)):
        return None
    s = next((k for k in range(m) if entries[0] == zeta(m, k)), None)
    if s is None:
        return None
    return a, b, s


def weyl_cases(n: int):
    """Conjugates of X and Z by the CL and WH generators of dimension n, and
    by the tensored CRT generators when n = 6."""
    tau, x, z = wh_generators(n)
    gens = list(clifford_generators(n).values())
    gens += [UMatrix.identity(n, x.m).scale(tau), x, z]
    if n == 6:
        from finiteqm.decomposition import _tensored_generators

        gens += _tensored_generators(crt_split(6), x.m)[0]
    for g in gens:
        dag = g.dagger()
        yield g @ x @ dag
        yield g @ z @ dag


class TestWeylExponents:
    """_weyl_exponents on integer rows against the Cyclotomic oracle."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_conjugates_match_oracle(self, n):
        answers = [
            (qgroups._weyl_exponents(c), oracle_weyl_exponents(c))
            for c in weyl_cases(n)
        ]
        assert all(got == want for got, want in answers)
        assert any(want is not None for _, want in answers)
        if n == 6:  # the tensored CRT generators normalize P W_6 P^-1, not W_6
            assert any(want is None for _, want in answers)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_planted_non_weyl_matrices(self, n):
        _, x, z = wh_generators(n)
        m, d = x.m, _context(x.m).degree
        weyl = (x.matpow(1 % n) @ z.matpow(2 % n)).scale(zeta(m, 5))
        want = (1 % n, 2 % n, 5)
        assert qgroups._weyl_exponents(weyl) == oracle_weyl_exponents(weyl) == want
        # scalars that are no roots of unity, with and without a denominator
        planted = [weyl.scale(zeta(m, 0) * k) for k in (3, Fraction(1, 2))]
        # one entry off by a factor that is no n-th root of unity
        for j in range(n):
            for change in (Fraction(1, 2), zeta(m, 1), -zeta(m, 1)):
                num = weyl.num.astype(object)
                row, col = (j + 1) % n, j
                e = Cyclotomic(m, num[row, col].tolist(), weyl.den) * change
                planted.append(UMatrix.from_entries(
                    [[e if (r, c) == (row, col) else weyl.entry(r, c) for c in range(n)]
                     for r in range(n)], m))
        extra = weyl.num.copy()
        extra[0, 0, 0] += 1  # off the support unless a = 0
        planted.append(UMatrix(n, m, extra, weyl.den))
        ratio = np.zeros((n, n, d), dtype=np.int64)
        ratio[np.arange(n), np.arange(n)] = _context(m).powers[np.arange(n)]
        planted.append(UMatrix(n, m, ratio))  # diag(z^j): z is no n-th root
        for mat in planted:
            got = qgroups._weyl_exponents(mat)
            assert got is None and oracle_weyl_exponents(mat) is None


def oracle_coeff_json(num, den, m):
    """The formatter that writes every coefficient."""
    g = np.gcd(num, den)
    return [
        {"m": m, "c": [f"{p}/{q}" for p, q in zip(top, bottom)]}
        for top, bottom in zip((num // g).tolist(), (den // g).tolist())
    ]


class TestCoeffJson:
    """_coeff_json formats only nonzero coefficients, with the same strings."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 2**62), st.booleans())
    def test_matches_the_full_formatter(self, seed, den, huge):
        rng = random.Random(seed)
        top = (1 << 90) if huge else (1 << 62)
        rows = [[rng.choice([0, 0, 0, rng.randint(-top, top)]) for _ in range(8)]
                for _ in range(rng.randint(0, 5))]
        num = _int_array(rows).reshape(-1, 8)
        fits = all(abs(v) < 2**63 for row in rows for v in row)
        assert (num.dtype == object) == (not fits)
        # a denominator past int64 comes with Python-integer numerators
        for d in (den, den << 70) if num.dtype == object else (den,):
            assert qgroups._coeff_json(num, d, 24) == oracle_coeff_json(num, d, 24)

    def test_zeros_negatives_and_shared_factors(self):
        num = _int_array([[0, -6, 4, 0], [0, 0, 0, 0], [9, -1, 0, 3]])
        assert qgroups._coeff_json(num, 6, 12) == oracle_coeff_json(num, 6, 12)
        assert qgroups._coeff_json(num, 6, 12)[0]["c"] == ["0/1", "-1/1", "2/3", "0/1"]
        big = _int_array([[1 << 64, 0, -(3 << 70), 5]])
        assert big.dtype == object
        den = 1 << 66
        assert qgroups._coeff_json(big, den, 8) == oracle_coeff_json(big, den, 8)


class TestOddConductors:
    """At m = 5, 7, 9, 25, 2 phi(m) - 1 > m: the field table wraps z^m = 1."""

    @pytest.mark.parametrize("m", [5, 7, 9, 25])
    def test_kernel_products_match_scalar_cyclotomic(self, m):
        from finiteqm.rays import Ray, ontic_ray, prob_rational, probabilities

        rng = random.Random(m)

        def element():
            terms = [
                zeta(m, rng.randrange(m)) * Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(3)
            ]
            return terms[0] + terms[1] + terms[2]

        ea = [[element() for _ in range(2)] for _ in range(2)]
        eb = [[element() for _ in range(3)] for _ in range(3)]
        a = UMatrix.from_entries(ea, m)
        b = UMatrix.from_entries([row[:2] for row in eb[:2]], m)
        assert a @ b == UMatrix.from_entries(
            [[ea[i][0] * eb[0][j] + ea[i][1] * eb[1][j] for j in range(2)]
             for i in range(2)],
            m,
        )
        c = zeta(m, 1) + 2
        assert a.scale(c) == UMatrix.from_entries(
            [[x * c for x in row] for row in ea], m
        )
        big = UMatrix.from_entries(eb, m)
        assert kron(a, big) == UMatrix.from_entries(
            [[ea[i][j] * eb[k][l] for j in range(2) for l in range(3)]
             for i in range(2) for k in range(3)],
            m,
        )
        one = Cyclotomic.one(m)
        amps = [element() + 1, element()]
        ray = Ray(amps)
        lead = next(x for x in amps if not x.is_zero())
        assert ray.amps == tuple(x * lead.inv() for x in amps)
        rows = [ray, Ray([one, one]), Ray([one, zeta(m, 1)]), Ray([one, c])]
        cols = rows + [ontic_ray(2, 0, m), ontic_ray(2, 1, m)]
        want = [[prob_rational(x, y) for y in cols] for x in rows]
        assert any(p is None for row in want for p in row)
        assert want[1][4] == Fraction(1, 2)
        assert probabilities(rows, cols) == want
        assert probabilities(rows, rows) == [row[: len(rows)] for row in want]


class TestCoefficientOverflow:
    def test_typed_error_is_exported(self):
        import finiteqm

        assert finiteqm.CoefficientOverflowError is CoefficientOverflowError
        assert issubclass(CoefficientOverflowError, OverflowError)

    def test_infinite_rotation_closure_names_level(self):
        # a rotation by an irrational angle: its powers never repeat, so on
        # the exact oracle the denominators 5^k outgrow int64 long before
        # the element cap; group_closure refuses it up front
        with pytest.raises(UncertifiedGeneratorsError) as exc:
            group_closure([irrational_rotation()], max_size=200)
        assert str(exc.value).endswith(
            "generator 'a': conjugate of X is not a scalar times X^a Z^b"
        )
        with pytest.raises(CoefficientOverflowError) as exc:
            ExactClosure([irrational_rotation()], max_size=200)
        message = str(exc.value)
        assert "bits" in message and "denominator" in message

    def test_kron_big_coefficients_match_cyclotomic_reference(self):
        # numerators and denominators near 2**40 that cancel in the product:
        # the intermediate coefficients exceed int64, the result does not
        m = conductor_for(6)
        up = Fraction((1 << 40) + 15, (1 << 40) - 87)
        rng = random.Random(7)

        def entries(n, factor):
            return [
                [zeta(m, rng.randrange(m)) * (rng.randint(1, 5) * factor)
                 for _ in range(n)]
                for _ in range(n)
            ]

        ea, eb = entries(2, up), entries(3, 1 / up)
        a = UMatrix.from_entries(ea, m)
        b = UMatrix.from_entries(eb, m)
        assert np.abs(a.num).max() > 1 << 39 and b.den > 1 << 39
        reference = UMatrix.from_entries(
            [
                [ea[i][j] * eb[k][l] for j in range(2) for l in range(3)]
                for i in range(2)
                for k in range(3)
            ],
            m,
        )
        assert kron(a, b) == reference
        assert kron(b, a) == UMatrix.from_entries(
            [
                [eb[i][j] * ea[k][l] for j in range(3) for l in range(2)]
                for i in range(3)
                for k in range(2)
            ],
            m,
        )

    def test_oversized_result_raises_typed_error(self):
        m = 24
        big = UMatrix.diagonal([Cyclotomic.from_rational(m, (1 << 40) + 1)] * 2, m)
        with pytest.raises(CoefficientOverflowError, match="bits"):
            big @ big


def irrational_rotation() -> UMatrix:
    """[[3/5, -4/5], [4/5, 3/5]]: unitary, of infinite order."""

    def q(p, r):
        return Cyclotomic.from_rational(24, Fraction(p, r))

    return UMatrix.from_entries([[q(3, 5), q(-4, 5)], [q(4, 5), q(3, 5)]], 24)


def sl2_order(n):
    """|SL(2, Z_n)| by counting the matrices of determinant 1 mod n."""
    return sum(
        (a * d - b * c) % n == 1 % n
        for a, b, c, d in itertools.product(range(n), repeat=4)
    )


def row_keys(flat: np.ndarray) -> list[bytes]:
    """The raw bytes of each row of a 2-D array."""
    flat = np.ascontiguousarray(flat)
    row = np.dtype((np.void, flat.shape[1] * flat.itemsize))
    return flat.view(row).ravel().tolist()


def breadth_first(start, compute, n_gens, max_size, keys=row_keys, landed=None):
    """The oracles' breadth-first closure, on a Python set of keys.

    Each element is one integer row, and keys(rows) gives one hashable key
    per row of a batch, by default its raw bytes.  start is a (1, L) row
    array; compute(rows, gi) maps a chunk of frontier rows through
    generator gi.  Products are formed generator by generator in _CHUNK
    batches, each new key is kept in first-occurrence order and the cap is
    checked after every batch, as the closure's own search does.  When
    landed is given, landed(out, keys, keep) is called after each batch is
    keyed, with the key of every product row and the list of the rows
    whose keys were new, in first-occurrence order.

    Returns the key set and the tree: for the i-th element found (the
    start is element 0), parents[i] is the element it was first reached
    from and gens[i] the generator, both -1 for the start.
    """
    seen = set(keys(start))
    parents = [np.array([-1])]
    gens = [np.array([-1])]
    frontier = start
    base = 0  # index of the first frontier element
    while frontier.shape[0]:
        next_base = len(seen)
        found = []
        b = frontier.shape[0]
        for gi in range(n_gens):
            for lo in range(0, b, qgroups._CHUNK):
                out = compute(frontier[lo : lo + qgroups._CHUNK], gi)
                batch = keys(out)
                keep = []
                for t, key in enumerate(batch):
                    if key not in seen:
                        seen.add(key)
                        keep.append(t)
                if len(seen) > max_size:
                    raise ClosureCapError(f"closure exceeded cap {max_size}", len(seen))
                if landed is not None:
                    landed(out, batch, keep)
                if keep:
                    keep = np.array(keep)
                    found.append(out[keep])
                    parents.append(base + lo + keep)
                    gens.append(np.full(keep.size, gi))
        frontier = np.concatenate(found, axis=0) if found else frontier[:0]
        base = next_base
    return seen, np.concatenate(parents), np.concatenate(gens)


class ExactClosure:
    """The oracle of the mod p closure: exact breadth-first enumeration.

    Each element is one row of its canonical int64 numerators (divided by
    the first nonzero entry when projective) followed by its denominator,
    keyed by the row's raw bytes; no residue is taken.  The search is the
    set-based breadth_first above, fed with qgroups' _exact_products from
    the identity row, so no certificate is needed: a generator set of infinite
    order runs until a coefficient overflows int64 or the cap is reached.
    Bodies are built along the tree, and their keys must be the enumerated
    key set.
    """

    def __init__(
        self,
        generators,
        *,
        names=None,
        projective=False,
        max_size=qgroups._DEFAULT_MAX_SIZE,
    ):
        gens = list(generators)
        self.dim, self.conductor = gens[0].dim, gens[0].m
        self.names = tuple(names or (chr(ord("a") + i) for i in range(len(gens))))
        self.projective = projective
        compute = qgroups._exact_products(gens, projective)
        ident = UMatrix.identity(self.dim, self.conductor)
        start = qgroups._exact_rows(ident.num[None], 1)
        self.keys, parents, gen_idx = breadth_first(start, compute, len(gens), max_size)
        self.order = len(self.keys)
        self._tree = (start, compute, parents, gen_idx)

    @cached_property
    def _sorted_bodies(self):
        rows, words = qgroups._bodies(*self._tree, self.names)
        assert set(row_keys(rows)) == self.keys
        shape = (self.dim, self.dim, -1)
        mats = [
            UMatrix(self.dim, self.conductor, row[:-1].reshape(shape), int(row[-1]))
            for row in rows
        ]
        ranked = sorted(range(self.order), key=lambda i: mats[i].key())
        return [mats[i] for i in ranked], [words[i] for i in ranked]

    @property
    def elements(self):
        return self._sorted_bodies[0]

    @property
    def words(self):
        return self._sorted_bodies[1]

    def contains(self, mat: UMatrix) -> bool:
        """Exact key lookup; projectively, mat up to any nonzero scalar."""
        if not mat.num.any():
            return False
        if self.projective:
            mat = mat.scalar_canonical()
        row = qgroups._exact_rows(mat.num[None], mat.den)
        return row_keys(row)[0] in self.keys


@pytest.fixture
def exact_closure(monkeypatch):
    """Run a group builder with its closure done by the exact oracle."""

    def run(build, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(qgroups, "group_closure", ExactClosure)
            table = build(*args, **kwargs)
        assert isinstance(table, ExactClosure)
        return table

    return run


class TestOrderOnlyModP:
    """Certified closures count in GL_n(F_p); the exact closure is the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_clifford_paths_agree(self, n, exact_closure):
        counted = clifford_group(n)
        exact = exact_closure(clifford_group, n)
        assert counted.prime is not None
        assert counted.order == exact.order

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_projective_paths_agree(self, n, exact_closure):
        counted = clifford_group(n, projective=True)
        exact = exact_closure(clifford_group, n, projective=True)
        assert counted.prime is None
        assert counted.order == exact.order

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_wh_paths_agree(self, n, exact_closure):
        counted = wh_group(n)
        exact = exact_closure(wh_group, n)
        assert counted.prime is not None
        assert counted.order == exact.order

    @pytest.mark.parametrize("n", range(2, 11))
    def test_projective_order_is_appleby(self, n):
        # Appleby, J. Math. Phys. 46, 052107 (2005): |PCL(N)| = N^2 |SL(2, Z_N)|
        table = clifford_group(n, projective=True)
        assert table.prime is None
        assert table.order == n * n * sl2_order(n)

    @pytest.mark.parametrize("n,order", [(11, 159720), (12, 165888)])
    def test_projective_order_is_appleby_past_ten(self, n, order):
        table = clifford_group(n, projective=True)
        assert table.prime is None
        assert table.order == n * n * sl2_order(n) == order

    def test_dim6_order_only(self):
        table = clifford_group(6)
        assert table.prime == 73
        assert table.order == 124416 == 5184 * 24

    @pytest.mark.parametrize("n,cap", [(3, 100), (6, 10_000)])
    def test_cap_partial_size_matches_exact(self, n, cap, exact_closure):
        # the cap bounds the quotient search: |PCL(3)| = 216 > 100 stops it
        # where the exact projective oracle stops, while |PCL(6)| = 5184
        # fits and CL(6) is counted whole; the plain search behind .elements
        # stops where the exact plain oracle stops
        if n == 3:
            with pytest.raises(ClosureCapError) as counted:
                clifford_group(n, max_size=cap)
            with pytest.raises(ClosureCapError) as exact:
                exact_closure(clifford_group, n, projective=True, max_size=cap)
            assert counted.value.partial_size == exact.value.partial_size == 115
        else:
            table = clifford_group(n, max_size=cap)
            assert table.order == 124416
            with pytest.raises(ClosureCapError) as counted:
                table.elements
            with pytest.raises(ClosureCapError) as exact:
                exact_closure(clifford_group, n, max_size=cap)
            assert counted.value.partial_size == exact.value.partial_size == 11328

    @pytest.mark.parametrize("projective", [False, True])
    @pytest.mark.parametrize("n", [2, 3])
    def test_bodies_and_words_match_exact(self, n, projective, exact_closure):
        counted = clifford_group(n, projective=projective)
        exact = exact_closure(clifford_group, n, projective=projective)
        assert counted.prime == (None if projective else 73)
        assert counted.elements == exact.elements
        assert counted.words == exact.words

    def test_prime_is_read_only(self):
        table = clifford_group(2)
        assert table.prime == 73
        with pytest.raises(AttributeError):
            table.prime = 97


class TestQuotientSearch:
    """A plain closure is counted as |G/S| |S| from the projective search and
    its Schreier scalars; the plain search of every element runs only for
    bodies and words."""

    @pytest.mark.parametrize("group", [clifford_group, wh_group])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_order_is_the_plain_key_count(self, group, n):
        table = group(n)
        plain = qgroups._mod_p_closure(
            table._generators, table._images, False, table.order
        )
        assert plain.prime == table.prime
        assert table.order == plain.index.size

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_center_matches_one_lookup_per_root(self, n):
        # the route center_of took before the Schreier scalars: c I looked
        # up in the table for every root of unity c of Q(zeta_m)
        table = clifford_group(n)
        m = table.conductor
        ident = UMatrix.identity(n, m)
        roots = {c.key(): c for k in range(m) for c in (zeta(m, k), -zeta(m, k))}
        members = [c for c in roots.values() if table.contains(ident.scale(c))]
        assert center_of(table) == sorted(members, key=lambda c: c.key())

    def test_plain_search_runs_only_for_bodies(self, monkeypatch):
        searches = []
        closure = qgroups._mod_p_closure

        def recording(gens, images, projective, max_size, scalars=False):
            searches.append("scalars" if scalars else projective)
            return closure(gens, images, projective, max_size, scalars)

        monkeypatch.setattr(qgroups, "_mod_p_closure", recording)
        assert clifford_group(6).order == 124416
        assert clifford_group(6, projective=True).order == 5184
        assert searches == ["scalars", True]
        table = clifford_group(3)
        assert len(table.elements) == len(table.words) == 2592
        assert table.elements == table.elements
        assert searches == ["scalars", True, "scalars", False]

    def test_one_search_when_the_order_passes_the_cap(self, monkeypatch):
        calls = []
        closure = qgroups._mod_p_closure

        def recording(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(qgroups, "_mod_p_closure", recording)
        # |CL(6)| = 124416 > 10000 >= |PCL(6)| = 5184
        assert clifford_group(6, max_size=10_000).order == 124416
        assert len(calls) == 1

    def test_key_size_guard_raises_a_typed_error(self):
        # n^4 N^2 keys (N = n for odd n, 2 n for even n), times p for the
        # plain key, must stay below 2^63: 13^4 26^2 313 takes 33 bits,
        # 400^4 800^2 4801 takes 67
        qgroups._check_key_size(13, 313)
        with pytest.raises(UncertifiedGeneratorsError, match="67 bits, past the 63"):
            qgroups._check_key_size(400, 4801)
        # (2^3)^4 (2^4)^2 2^43 = 2^63
        qgroups._check_key_size(2**3, 2**43 - 1)
        with pytest.raises(UncertifiedGeneratorsError, match="64 bits"):
            qgroups._check_key_size(2**3, 2**43)
        assert not issubclass(UncertifiedGeneratorsError, OverflowError)

    def test_every_search_checks_its_key_size(self, monkeypatch):
        checked = []
        check = qgroups._check_key_size

        def recording(n, p=1):
            checked.append((n, p))
            return check(n, p)

        monkeypatch.setattr(qgroups, "_check_key_size", recording)
        table = clifford_group(3)
        assert len(table.elements) == 2592
        clifford_group(3, projective=True)
        # the quotient search with scalars, the plain one behind .elements
        assert checked == [(3, 1), (3, 73), (3, 1)]


def residue_search(gens, projective, max_size, scalars=False):
    """The residue-row search that the Weyl-keyed one replaced, the oracle of
    its trees: (keys, parents, gen_idx, S).

    Each element is its residue matrix mod p, divided by its first nonzero
    entry when projective, keyed by the raw bytes of those n^2 residues.  A
    projective row carries the lead of its representative after them, and
    with scalars the search collects the Schreier scalars S (else None).
    """
    p = qgroups._closure_prime(gens)
    n = gens[0].dim
    width = n * n
    residues = qgroups._residues(gens, p)
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], np.int64)

    def compute(rows, gi):
        b = rows.shape[0]
        prod = rows[:, :width].astype(np.float64).reshape(b * n, n) @ residues[gi]
        prod = prod.astype(np.int64).reshape(b, width) % p
        if not projective:
            return prod
        lead = qgroups._leads(prod)
        out = np.empty((b, width + 1), np.int64)
        out[:, :width] = prod * inverse[lead][:, None] % p
        out[:, width] = lead * rows[:, width] % p
        return out

    def keys(rows):
        return row_keys(rows[:, :width])

    start = np.eye(n, dtype=np.int64).reshape(1, width)
    if projective:
        start = np.hstack([start, np.ones((1, 1), np.int64)])
    leads = dict.fromkeys(keys(start), 1)
    ratios = {1}

    def landed(out, batch, keep):
        leads.update(zip([batch[t] for t in keep], out[keep, width].tolist()))
        first = np.array([leads[key] for key in batch], np.int64)
        ratios.update((out[:, width] * inverse[first] % p).tolist())

    found = breadth_first(
        start, compute, len(gens), max_size, keys, landed if scalars else None
    )
    return *found, qgroups._subgroup(ratios, p) if scalars else None


def named_generators(which: str, n: int):
    """(generators, names) of CL(n) or of WH(n)."""
    if which == "clifford":
        gens = clifford_generators(n)
        return list(gens.values()), tuple(gens)
    tau, x, z = wh_generators(n)
    return [UMatrix.identity(n, x.m).scale(tau), x, z], ("t", "X", "Z")


def read_images(t: UMatrix) -> tuple[int, ...]:
    """t's Weyl images (a, b, s, c, d, u), read from exact conjugates."""
    _, x, z = wh_generators(t.dim, t.m)
    dag = t.dagger()
    return qgroups._weyl_exponents(t @ x @ dag) + qgroups._weyl_exponents(t @ z @ dag)


# (projective, scalars): the plain search, the quotient search, and the
# quotient search with the Schreier scalars
KINDS = [(False, False), (True, False), (True, True)]


class TestWeylKeys:
    """The closure keys each element on its Weyl images: the law for t g
    against exact products, and the trees against the residue-row search."""

    @pytest.mark.parametrize(
        "which,n",
        [("clifford", n) for n in range(2, 10)] + [("wh", n) for n in (3, 4, 6)],
    )
    def test_image_law_matches_exact_products(self, which, n):
        gens, names = named_generators(which, n)
        m = gens[0].m
        images = qgroups._certified_images(gens, names)
        assert [tuple(row) for row in images] == [read_images(g) for g in gens]
        rng = random.Random(n)
        words = [[rng.randrange(3) for _ in range(rng.randint(0, 7))] for _ in range(4)]
        ts = [word_product(dict(enumerate(gens)), w) for w in words]
        t_images = np.array([read_images(t) for t in ts])
        for g, image in zip(gens, images):
            got = qgroups._image_product(t_images, *qgroups._image_law(image, n, m), n, m)
            want = np.array([read_images(t @ g) for t in ts])
            assert np.array_equal(got, want)
            # the packed key holds the six digits: the phases in units of
            # m / N below N, then d, c, b, a below n
            big = n if n % 2 else 2 * n
            keys = qgroups._weyl_keys(got, n, m).tolist()
            for key, row in zip(keys, want.tolist()):
                digits = []
                for base in (big, big, n, n, n, n):
                    key, digit = divmod(key, base)
                    digits.append(digit)
                a, b, c, d, s, u = reversed(digits)
                assert key == 0 and [a, b, s * m // big, c, d, u * m // big] == row
        # the gathers give the same keys as the law
        keys = qgroups._weyl_keys(t_images, n, m)
        products = qgroups._KeyProducts(images, n, m)
        products.learn(np.unique(keys // products.width))
        got = products(keys).reshape(len(gens), -1)
        for g, row in zip(gens, got):
            want = np.array([read_images(t @ g) for t in ts])
            assert np.array_equal(row, qgroups._weyl_keys(want, n, m))

    @pytest.mark.parametrize(
        "which,n",
        [("clifford", n) for n in range(2, 14)] + [("wh", n) for n in (3, 4, 6)],
    )
    def test_phases_lie_on_the_lattice(self, which, n):
        # every element's phases s, u are multiples of m / N (N = n for odd
        # n, 2 n for even n), the lattice the packed key rests on: images
        # closed under the law, with raw phases mod m, on a set of rows
        gens, names = named_generators(which, n)
        m = gens[0].m
        images = qgroups._certified_images(gens, names)
        laws = [qgroups._image_law(g, n, m) for g in images]
        start = np.array([[1, 0, 0, 0, 1, 0]])
        found, _, _ = breadth_first(
            start,
            lambda rows, gi: qgroups._image_product(rows, *laws[gi], n, m),
            len(gens),
            qgroups._DEFAULT_MAX_SIZE,
        )
        rows = np.frombuffer(b"".join(found), np.int64).reshape(-1, 6)
        big = n if n % 2 else 2 * n
        assert not (rows[:, [2, 5]] % (m // big)).any()
        table = group_closure(gens, names=names, projective=True)
        assert len(rows) == table.order
        keys = qgroups._weyl_keys(rows, n, m)
        assert keys.min() >= 0 and keys.max() < n**4 * big**2
        assert (table._search.index.get(keys) > 0).all()

    def test_index_matches_a_dict(self):
        # random distinct keys added in batches, against a dict of the same
        # numbering; 2 blocks are allocated first, so the blocks grow
        rng = np.random.default_rng(7)
        syms, width = 50, 40
        index = qgroups._KeyIndex(syms, width)
        want, met = {}, set()
        pool = rng.permutation(syms * width)
        lo = 0
        for size in (1, 3, 17, 60, 200, 400):
            keys = pool[lo : lo + size]
            lo += size
            fresh = index.add(keys)
            hit = {key // width for key in keys.tolist()}
            assert sorted(fresh.tolist()) == sorted(hit - met)
            met.update(fresh.tolist())
            for key in keys.tolist():
                want[key] = len(want) + 1
            assert index.size == len(want)
            probe = rng.integers(0, syms * width, 500)
            got = index.get(probe).tolist()
            assert got == [want.get(k, 0) for k in probe.tolist()]
        assert index._used == len(met) + 1 > 2

    @pytest.mark.parametrize(
        "which,n", [("clifford", n) for n in range(2, 8)] + [("wh", n) for n in (3, 4, 6)]
    )
    def test_same_trees_as_the_residue_search(self, which, n):
        gens, names = named_generators(which, n)
        images = qgroups._certified_images(gens, names)
        for projective, scalars in KINDS[1:2] if n == 7 else KINDS:  # PCL(7)
            args = (projective, qgroups._DEFAULT_MAX_SIZE, scalars)
            new = qgroups._mod_p_closure(gens, images, *args)
            keys, parents, gen_idx, ratios = residue_search(gens, *args)
            assert new.index.size == len(keys)
            assert np.array_equal(new.parents, parents)
            assert np.array_equal(new.gen_idx, gen_idx)
            assert new.scalars == ratios
            cap = len(keys) // 2
            with pytest.raises(ClosureCapError) as counted:
                qgroups._mod_p_closure(gens, images, projective, cap, scalars)
            with pytest.raises(ClosureCapError) as oracle:
                residue_search(gens, projective, cap, scalars)
            assert counted.value.partial_size == oracle.value.partial_size > cap


@cache
def full_clifford(n: int):
    """CL(n) with its generators by name, closed once per module."""
    return clifford_generators(n), clifford_group(n)


def word_product(gens: dict, word) -> UMatrix:
    """The product of the named generators along word, from the identity."""
    first = next(iter(gens.values()))
    prod = UMatrix.identity(first.dim, first.m)
    for name in word:
        prod = prod @ gens[name]
    return prod


class TestSubgroupOracle:
    """Subgroups of CL(2) and CL(3) generated by short words in X, F, S are
    certified and have other trees than CL(N): the mod p closure and the
    exact oracle agree on every one."""

    @settings(max_examples=12)
    @given(
        n=st.sampled_from([2, 3]),
        words=st.lists(st.text("XFS", min_size=1, max_size=4), min_size=1, max_size=3),
        projective=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closure_agrees_with_oracle(self, n, words, projective, seed):
        gens = [word_product(full_clifford(n)[0], w) for w in words]
        counted = group_closure(gens, projective=projective)
        exact = ExactClosure(gens, projective=projective)
        assert counted.order == exact.order
        assert counted.elements == exact.elements
        assert counted.words == exact.words
        # a few elements of the subgroup, as unitary products along their
        # words (projective bodies are scalar-canonical, not unitary), and
        # a few elements of CL(n) outside it
        rng = random.Random(seed)
        by_name = dict(zip(exact.names, gens))
        picks = rng.sample(exact.words, min(3, exact.order))
        inside = [word_product(by_name, w) for w in picks]
        pool = rng.sample(full_clifford(n)[1].elements, 40)
        outside = [q for q in pool if not exact.contains(q)][:3]
        assert all(counted.contains(q) for q in inside)
        assert not any(counted.contains(q) for q in outside)


class TestFinitenessCertificate:
    """Generators without the certificate raise UncertifiedGeneratorsError,
    naming the generator and the clause it fails."""

    def test_error_is_exported_and_a_value_error(self):
        import finiteqm

        assert finiteqm.UncertifiedGeneratorsError is UncertifiedGeneratorsError
        assert issubclass(UncertifiedGeneratorsError, ValueError)

    def test_infinite_rotation_stays_exact(self):
        with pytest.raises(
            UncertifiedGeneratorsError, match="'a': conjugate of X is not a scalar"
        ):
            group_closure([irrational_rotation()], max_size=200)

    def test_scalar_of_infinite_order_stays_exact(self):
        # ((3 + 4i)/5) I normalizes <X, Z> and is unitary, but no power of it
        # is a root of unity: the group is infinite, while its image mod 73
        # is finite (576 elements), so it must not be counted mod p
        c = Cyclotomic.from_rational(24, Fraction(3, 5)) + zeta(24, 6) * Fraction(4, 5)
        scalar = UMatrix.identity(2, 24).scale(c)
        gens = list(clifford_generators(2).values()) + [scalar]
        with pytest.raises(
            UncertifiedGeneratorsError, match="'d': no power is a root of unity times I"
        ):
            group_closure(gens, max_size=20_000)
        with pytest.raises(CoefficientOverflowError, match="bits"):
            ExactClosure(gens, max_size=20_000)

    def test_tensored_crt_generators_stay_exact(self):
        from finiteqm.decomposition import _tensored_generators, crt_split

        gens, names = _tensored_generators(crt_split(6), conductor_for(6))
        with pytest.raises(
            UncertifiedGeneratorsError, match="'F2': conjugate of X is not a scalar"
        ):
            group_closure(gens, names=names, projective=True)

    def test_no_prime_below_the_float_bound(self, monkeypatch):
        # p = 73 is the first candidate at m = 24, and 2 * 72^2 is not below
        # the bound, so no prime keeps the residue products exact
        monkeypatch.setattr(qgroups, "_FLOAT_EXACT", 2 * 72**2)
        with pytest.raises(UncertifiedGeneratorsError, match="float64 bound 10368"):
            clifford_group(2)

    def test_projective_closure_needs_no_prime(self, monkeypatch):
        # the projective search reads no residue, so the bound that leaves
        # a plain closure without a prime does not stop it
        monkeypatch.setattr(qgroups, "_FLOAT_EXACT", 2 * 72**2)
        table = clifford_group(2, projective=True)
        assert table.order == 24 and table.prime is None


def operator_images(g: UMatrix) -> list[int]:
    """g's Weyl images (a, b, s, c, d, u), with every product on the operator
    route and the exponents read by the Cyclotomic oracle."""
    n, m, ctx = g.dim, g.m, _context(g.m)
    _, x, z = wh_generators(n, m)
    dag = g.dagger()
    images = []
    for w in (x, z):
        num = qgroups._operator_matmul(qgroups._operator_matmul(g.num, w.num, ctx), dag.num, ctx)
        images += oracle_weyl_exponents(UMatrix(n, m, num, g.den * w.den * dag.den))
    return images


class TestCertifiedImages:
    """The certificate computes g X and g Z on the monomial route: the
    images it reads, and its messages for generators without it."""

    @pytest.mark.parametrize(
        "which,n",
        [("clifford", n) for n in range(2, 10)] + [("wh", n) for n in (3, 4, 6)],
    )
    def test_images_match_the_operator_route(self, which, n, monkeypatch):
        gens, names = named_generators(which, n)
        recorder = RouteRecorder(monkeypatch, ROUTES)
        images = qgroups._certified_images(gens, names)
        monkeypatch.undo()
        assert "_monomial_matmul" in recorder.routes
        assert images.dtype == np.int64 and images.shape == (len(gens), 6)
        assert images.tolist() == [operator_images(g) for g in gens]

    def test_planted_generators_keep_their_messages(self):
        from finiteqm.decomposition import _tensored_generators

        def q(p, r):
            return Cyclotomic.from_rational(24, Fraction(p, r))

        c = q(3, 5) + zeta(24, 6) * Fraction(4, 5)  # |c| = 1, no root of unity
        tensored, tensored_names = _tensored_generators(crt_split(6), 24)
        # the circulant F diag(1, 1, -1) F^dagger commutes with X but maps
        # Z off W_3
        f3 = fourier_matrix(3)
        flip = UMatrix.diagonal([Cyclotomic.one(24)] * 2 + [-Cyclotomic.one(24)], 24)
        circulant = f3 @ flip @ f3.dagger()
        prefix = "no finiteness certificate: generator "
        weyl = "is not a scalar times X^a Z^b"
        cases = [
            ([irrational_rotation()], ("a",), f"'a': conjugate of X {weyl}"),
            (
                list(clifford_generators(2).values()) + [UMatrix.identity(2, 24).scale(c)],
                ("X", "F", "S", "d"),
                "'d': no power is a root of unity times I",
            ),
            (tensored, tensored_names, f"'F2': conjugate of X {weyl}"),
            ([circulant], ("g",), f"'g': conjugate of Z {weyl}"),
            ([UMatrix.identity(5, 24)], ("e",), "'e': conductor 24 is not a multiple of 10"),
        ]
        for gens, names, message in cases:
            with pytest.raises(UncertifiedGeneratorsError) as exc:
                qgroups._certified_images(gens, names)
            assert str(exc.value) == prefix + message


class TestResidueMembership:
    """contains on a table closed mod p, against exact answers."""

    def test_conjugated_tensor_table_agrees_with_exact_table(self):
        from finiteqm.decomposition import (
            _tensored_generators,
            crt_permutation,
            crt_split,
        )

        split = crt_split(6)
        m = conductor_for(6)
        gens, names = _tensored_generators(split, m)
        perm = crt_permutation(split, m)
        exact = ExactClosure(gens, names=names, projective=True)
        counted = group_closure(
            [perm.dagger() @ t @ perm for t in gens],
            names=names,
            projective=True,
        )
        assert counted.prime is None
        assert counted.order == exact.order == 5184
        assert len(set(exact.elements)) == exact.order
        x, f, s = clifford_generators(6, m).values()
        bump = UMatrix.diagonal(
            [Cyclotomic.one(m), zeta(m, 6)] + [Cyclotomic.one(m)] * 4, m
        )
        queries = [x, f, s, x @ f, f @ s @ x, s @ s @ f, position_operator(6), bump]
        answers = [counted.contains(q) for q in queries]
        assert answers == [exact.contains(perm @ q @ perm.dagger()) for q in queries]
        assert answers == [True] * 6 + [False] * 2

    def test_stored_clifford_2(self):
        table = clifford_group(2)
        assert table.prime == 73 and len(table.elements) == 192
        assert all(table.contains(el) for el in table.elements)
        ident = UMatrix.identity(2, 24)
        assert table.contains(ident.scale(zeta(24, 3)))
        assert not table.contains(ident.scale(zeta(24, 1)))
        c = Cyclotomic.from_rational(24, Fraction(3, 5)) + zeta(24, 6) * Fraction(4, 5)
        assert not table.contains(ident.scale(c))

    def test_non_member_congruent_to_member_is_absent(self):
        from finiteqm.qgroups import _residues

        # c = (1 + 73i) / (1 - 73i) has |c| = 1 and is no root of unity, but
        # c = 1 mod 73, so c X reduces to the residue of X
        i = zeta(24, 6)
        c = (i * 73 + 1) * (i * -73 + 1).inv()
        table = clifford_group(2)
        _, x, _ = wh_generators(2)
        cx = x.scale(c)
        assert cx.is_unitary() and cx.den % 73
        assert np.array_equal(_residues([cx], 73), _residues([x], 73))
        assert table.contains(x) and not table.contains(cx)

    @pytest.mark.parametrize("projective", [False, True])
    def test_zero_matrix_is_absent(self, projective, exact_closure):
        zero = UMatrix.identity(2, 24).scale(Cyclotomic.zero(24))
        counted = clifford_group(2, projective=projective)
        exact = exact_closure(clifford_group, 2, projective=projective)
        assert counted.prime == (None if projective else 73)
        assert not counted.contains(zero)
        assert not exact.contains(zero)

    def test_projective_membership_up_to_roots_of_unity(self):
        # c * X is present exactly when c is a root of unity: 2 X is not
        # unitary, and no power of (3 + 4i)/5 X is a root of unity times I
        table = clifford_group(2, projective=True)
        _, x, _ = wh_generators(2)
        i = zeta(24, 6)
        assert table.contains(x)
        assert table.contains(x.scale(zeta(24, 1)))
        assert not table.contains(x.scale(Cyclotomic.from_rational(24, 2)))
        assert not table.contains(x.scale((i * 4 + 3) * Fraction(1, 5)))

    def test_denominator_divisible_by_p_is_absent(self):
        table = clifford_group(2)
        _, x, _ = wh_generators(2)
        assert table.contains(x)
        assert not table.contains(x.scale(Cyclotomic.from_rational(24, Fraction(1, 73))))


def test_certified_closures_never_run_exact(monkeypatch, capsys):
    import finiteqm.cli as cli
    import finiteqm.decomposition as decomposition
    import finiteqm.qgroups as qgroups
    import finiteqm.states as states
    from finiteqm.decomposition import clifford_product_check

    primes = []
    closure = qgroups.group_closure

    def recording(*args, **kwargs):
        table = closure(*args, **kwargs)
        primes.append((table.projective, table.prime))
        return table

    monkeypatch.setattr(qgroups, "group_closure", recording)
    monkeypatch.setattr(decomposition, "group_closure", recording)
    # each mode: two local tables, the global group and the tensor group;
    # projective mode reads |PCL(2)| and |PCL(3)| off the local tables
    assert clifford_product_check(6, "full").mode == "full"
    assert clifford_product_check(6, "projective").mode == "projective"
    assert len(primes) == 4 + 4
    for n in (2, 3):
        monkeypatch.setattr(states, "_PHASES_CACHE", {})
        states.center_phases(n)
    monkeypatch.setattr(states, "_PHASES_CACHE", {})
    assert cli.main(["cqs", "--dim", "2", "--steps", "1"]) == 0
    for which in ("wh", "clifford", "projective"):
        for extra in ([], ["--elements"]):
            assert cli.main(["group", "--dim", "3", "--which", which, *extra]) == 0
    capsys.readouterr()
    assert len(primes) == 4 + 4 + 2 + 1 + 6
    # a plain table counts its scalars mod p; a projective one reads no residue
    assert all((prime is None) == projective for projective, prime in primes)
    assert {projective for projective, _ in primes} == {False, True}
