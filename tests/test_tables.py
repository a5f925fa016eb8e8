"""Per-conductor tables and generator matrices against scalar oracles.

The library builds Phi_m as a Moebius product, the reduction rows by
spreading the rows of rad(m), the trace form from Ramanujan sums with
m T^-1 spread from the exact inverse of the block of rad(m) and
certified, and the Weyl-Clifford generators as gathers of those rows.  The references here are the direct constructions: Phi_m by
recursive exact division of x^m - 1, the rows by repeated multiplication
by zeta, m T^-1 by Gauss-Jordan elimination, and every generator entry as
a scalar Cyclotomic.  Each pair must agree exactly.
"""

import math

import numpy as np
import pytest

from finiteqm import qgroups
from finiteqm.cyclotomic import (
    Cyclotomic,
    _context,
    conductor_for,
    cyclotomic_polynomial,
    euler_phi,
    sqrt_embed,
    zeta,
)
from finiteqm.galois import gf_build, gf_trace_int, is_prime
from finiteqm.qgroups import (
    UMatrix,
    fourier_matrix,
    galois_generators,
    s_matrix,
    wh_generators,
)
from test_gram import ramanujan

ROW_CONDUCTORS = [1, 2, 3, 8, 24, 72, 120, 168, 216, 312, 600]
# n = 1..13 and 26 at their default conductors, and the factors 2 and 13 of
# the dimension-26 alignment at its conductor 312
GENERATOR_CASES = [(n, conductor_for(n)) for n in [*range(1, 14), 26]] + [
    (2, 312),
    (13, 312),
]


# -- reference constructions -------------------------------------------------------


def poly_div_exact(num, den):
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        q, r = divmod(c, den[-1])
        assert not r, "polynomial division is not exact"
        out[k - dd] = q
        for j in range(dd + 1):
            num[k - dd + j] -= q * den[j]
    assert not any(num), "polynomial division left a remainder"
    return out


def recursive_phi(limit):
    """Phi_m for 1 <= m <= limit: x^m - 1 divided by Phi_d for every proper
    divisor d of m."""
    phi = {}
    for m in range(1, limit + 1):
        rest = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                rest = poly_div_exact(rest, phi[d])
        phi[m] = tuple(rest)
    return phi


def scalar_rows(m, count):
    """Coefficients of z^0, ..., z^(count - 1) mod Phi_m, each the previous
    one times z: a shift, with the top coefficient reduced by Phi_m's tail."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    cur = [1] + [0] * (d - 1)
    rows = [tuple(cur)]
    for _ in range(1, count):
        top = cur[-1]
        cur = [-top * phi[0]] + [cur[j - 1] - top * phi[j] for j in range(1, d)]
        rows.append(tuple(cur))
    return rows


def gauss_jordan_inverse(t, m):
    """m T^-1 by Gauss-Jordan elimination without pivots, rounded."""
    d = len(t)
    a = np.hstack((t.astype(np.float64), m * np.eye(d)))
    for k in range(d):
        a[k] /= a[k, k]
        a -= np.outer(np.where(np.arange(d) == k, 0, a[:, k]), a[k])
    return np.rint(a[:, d:]).astype(np.int64)


def gathered_traces(m):
    """T[j, i] = Tr(z^(i - j)), each trace the constant coefficient of
    sum_k z^(r k) over the units k."""
    d = euler_phi(m)
    rows = np.array(_context(m).rows)
    units = [k for k in range(m) if math.gcd(k, m) == 1]
    tr = rows[np.outer(np.arange(m), units) % m, 0].sum(axis=1)
    return tr[(np.arange(d) - np.arange(d)[:, None]) % m]


def scalar_sqrt(n, m):
    """sqrt(n) from Gauss sums in scalar Cyclotomic arithmetic."""
    factors = {}
    k, p = n, 2
    while k > 1:
        while k % p == 0:
            factors[p] = factors.get(p, 0) + 1
            k //= p
        p += 1
    root = math.prod(p ** (e // 2) for p, e in factors.items())
    result = Cyclotomic.from_rational(m, root)
    for p in [p for p, e in factors.items() if e % 2]:
        if p == 2:
            result = result * (zeta(m, m // 8) + zeta(m, 7 * m // 8))
            continue
        gauss = Cyclotomic.zero(m)
        for t in range(1, p):
            legendre = 1 if pow(t, (p - 1) // 2, p) == 1 else -1
            gauss = gauss + legendre * zeta(m, m // p * t)
        if p % 4 == 3:
            gauss = gauss * (-zeta(m, m // 4))
        result = result * gauss
    return result if result.to_complex().real > 0 else -result


def entrywise(entry, n, m):
    """The n x n matrix with entry(i, j) at (i, j), one Cyclotomic each."""
    return UMatrix.from_entries([[entry(i, j) for j in range(n)] for i in range(n)], m)


def scalar_generators(n, m):
    """(tau, X, Z, F, S) built one Cyclotomic per entry."""
    zero, one = Cyclotomic.zero(m), Cyclotomic.one(m)
    tau = -zeta(m, m // (2 * n))
    root = scalar_sqrt(n, m)
    return (
        tau,
        entrywise(lambda i, j: one if i == (j + 1) % n else zero, n, m),
        entrywise(lambda i, j: zeta(m, m // n * i) if i == j else zero, n, m),
        entrywise(lambda i, j: root * zeta(m, m // n * (i * j % n)) / n, n, m),
        entrywise(lambda i, j: tau ** (i * (i + n)) if i == j else zero, n, m),
    )


# -- the field tables --------------------------------------------------------------


class TestCyclotomicPolynomial:
    def test_matches_recursive_division_up_to_1000(self):
        for m, phi in recursive_phi(1000).items():
            assert cyclotomic_polynomial(m) == phi, m

    @pytest.mark.parametrize("m", [1, 12, 30, 105, 210, 312, 360])
    def test_divisor_product_is_x_to_the_m_minus_1(self, m):
        product = np.array([1], dtype=object)
        for d in range(1, m + 1):
            if m % d == 0:
                phi = np.array(cyclotomic_polynomial(d), dtype=object)
                product = np.convolve(product, phi)
        assert product.tolist() == [-1] + [0] * (m - 1) + [1]


class TestReductionRows:
    @pytest.mark.parametrize("m", ROW_CONDUCTORS)
    def test_rows_match_repeated_multiplication(self, m):
        d = euler_phi(m)
        # one block past row m - 1: z^(m + j) = z^j, so row m is e_0
        rows = scalar_rows(m, m + d)
        assert rows[m : m + d] == rows[:d]
        assert rows[m] == (1,) + (0,) * (d - 1)
        powers = _context(m).powers
        assert powers.dtype == np.int64 and not powers.flags.writeable
        assert powers.tolist() == [list(r) for r in rows[:m]]
        assert _context(m).rows == tuple(rows[:m])

    @pytest.mark.parametrize("m", ROW_CONDUCTORS)
    def test_conjugation_and_multiplication_tables(self, m):
        ctx = _context(m)
        d, rows = ctx.degree, scalar_rows(m, m)
        assert ctx.conj_np.tolist() == [list(rows[-j % m]) for j in range(d)]
        table, bound = ctx.mult
        red = np.array([rows[k % m] for k in range(2 * d - 1)])
        assert bound == max(int(np.abs(red).max()), 1)
        want = red[np.add.outer(np.arange(d), np.arange(d))]
        assert np.array_equal(table.reshape(d, d, d), want)


class TestTraceForm:
    @pytest.mark.parametrize("m", [3, 8, 24, 72, 120, 168, 216, 312, 600])
    def test_ramanujan_sums_are_the_gathered_traces(self, m):
        d = euler_phi(m)
        t = gathered_traces(m)
        assert t.tolist() == [[ramanujan(i - j, m) for i in range(d)] for j in range(d)]
        inverse = qgroups._trace_form(m)[2]
        assert np.array_equal(inverse, gauss_jordan_inverse(t, m))
        assert np.array_equal(t @ inverse, m * np.eye(d, dtype=np.int64))

    @pytest.mark.parametrize("m", [24, 72, 168, 312, 600])
    def test_inverse_is_the_radical_block_spread(self, m, monkeypatch):
        # m T^-1 = (r T_r^-1) (x) I_s, r = rad(m), s = m / r, built with no
        # LAPACK call
        r = math.prod(p for p in range(2, m + 1) if m % p == 0 and is_prime(p))
        s = m // r
        block = gauss_jordan_inverse(gathered_traces(r), r)
        want = np.kron(block, np.eye(s, dtype=np.int64))

        def refuse(t):
            raise AssertionError("the trace form inverts without LAPACK")

        monkeypatch.setattr(np.linalg, "inv", refuse)
        inverse = qgroups._trace_form.__wrapped__(m)[2]
        assert np.array_equal(inverse, want)
        assert np.array_equal(inverse, qgroups._trace_form(m)[2])

    @pytest.mark.parametrize("scale", [0.0, 1.5, 2.0**70])
    def test_a_wrong_inverse_fails_the_certificate(self, monkeypatch, scale):
        inner = qgroups._scaled_inverse

        def wrong(t, k):
            with np.errstate(invalid="ignore"):  # 2**70 does not fit int64
                return (scale * inner(t, k)).astype(np.int64)

        monkeypatch.setattr(qgroups, "_scaled_inverse", wrong)
        with pytest.raises(ArithmeticError, match=r"T\^-1 is not integral for m = 168"):
            qgroups._trace_form.__wrapped__(168)


# -- the generators ----------------------------------------------------------------


class TestGenerators:
    @pytest.mark.parametrize("n, m", GENERATOR_CASES)
    def test_generators_match_entrywise_construction(self, n, m):
        tau, x, z, f, s = scalar_generators(n, m)
        assert wh_generators(n, m) == (tau, x, z)
        assert fourier_matrix(n, m) == f
        assert s_matrix(n, m) == s
        assert sqrt_embed(n, m) == scalar_sqrt(n, m)
        if m == conductor_for(n):
            assert wh_generators(n) == (tau, x, z)
            assert (fourier_matrix(n), s_matrix(n)) == (f, s)

    def test_sqrt_with_a_rational_part_past_int64(self):
        # the rational part 2^70 multiplies the projected Gauss sums as a
        # Python integer, so it never enters an int64 array
        assert sqrt_embed(2**140, 24) == 2**70
        assert sqrt_embed(2 * 3**10, 24) == scalar_sqrt(2 * 3**10, 24)

    @pytest.mark.parametrize("n, m", [(1, 24), (5, 120), (26, 312)])
    def test_identity_and_permutation_match_loops(self, n, m):
        d = euler_phi(m)
        ident = np.zeros((n, n, d), dtype=np.int64)
        ident[range(n), range(n), 0] = 1
        assert UMatrix.identity(n, m) == UMatrix(n, m, ident)
        row_of_col = [(3 * j + 1) % n for j in range(n)]
        perm = np.zeros((n, n, d), dtype=np.int64)
        for j in range(n):
            perm[row_of_col[j], j, 0] = 1
        assert UMatrix.permutation(n, m, row_of_col) == UMatrix(n, m, perm)

    @pytest.mark.parametrize("p, ell", [(2, 2), (3, 2), (2, 3)])
    def test_galois_phases_match_entrywise_construction(self, p, ell):
        field = gf_build(p, ell)
        m = conductor_for(field.order)
        for mu in field.elements():
            _, z_mu = galois_generators(field, field.zero(), mu)
            traces = [gf_trace_int(mu * g) for g in field.elements()]
            diag = [zeta(m, m // p * t % m) for t in traces]
            assert z_mu == UMatrix.diagonal(diag, m)
