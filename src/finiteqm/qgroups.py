"""Shift/clock/Fourier matrix constructions and group closure.

Matrices live over a fixed cyclotomic field: an integer coefficient array
of shape (N, N, phi(m)) plus one positive denominator, kept in canonical
(content-reduced) form so byte equality is field equality.

All coefficient arithmetic is one exact kernel, ``_exact_matmul``: an
integer matrix product that runs in float64 BLAS when one bound shows that
every partial sum stays below 2**53, and on Python integers otherwise.
Every product of field arrays, (..., r, K, d) @ (..., K, c, d) with
d = phi(m), is ``_field_matmul``, which takes one of three routes.

The first depends on the shape of the right factor, not the degree.  Most
generators of the groups here are monomial with root-of-unity entries:
X^a, Z^b, the phase S, the CRT index permutations and every
zeta^s X^a Z^b.  When the right factor has no leading axes and each of
its columns holds at most one nonzero entry z^(e_j), in row k_j
(``_monomial_columns``; the row -> exponent lookup
``_Context.root_exponents`` is built on first use), column j of x @ y is
column k_j of x times z^(e_j) (``_monomial_matmul``): a gather of x's
columns when every e_j is 0, and otherwise one batched product against
the root-of-unity operators (``_root_operators``),
x z^e = x @ powers[(i + e) mod m].  Other scalars, such as 2 zeta or
1 + zeta, take the routes below.  The dimension-26 CRT alignment,
P X_26 P^dagger against X_2 (x) X_13 at m = 312, is then three gathers
and builds no field table: in process it fell from 16-21 to 7-8 ms (2
vCPU Xeon, numpy 2.4, OPENBLAS_NUM_THREADS=1).  Per call, best of 15
rounds, against the route taken before: F X took 15 against 31 us at
n = 6 (d = 8), 19 against 99 us at n = 7 (d = 48) and 0.10 against
1.9 ms at n = 26 (d = 96); F Z took 30 against 30 us, 47 against 101 us
and 0.71 against 1.9 ms.  Recognizing a dense factor and passing it on
costs about 3 us.

Otherwise, from d >= 24 on, a product of integer arrays runs in the
complex embedding when an a-priori bound holds (``_embedded_matmul``),
with one evaluator and one bound that the Gram kernel and the squared
norm of ``rays`` share, and one recovery that the squared norm shares.
The Gram kernel recovers no coefficient: it decides rationality from
d / 2 rounded traces (``_real_traces``).  ``_embed`` evaluates each entry at
one embedding per conjugate pair in real arithmetic and returns its l1
norm, the sum of its |coefficients|.  ``_eps_d`` is the bound, derived
there: with |sigma_k(z_ij)| <= S_ij = sum_t l1(x_it) l1(y_tj),
eps d max S < 1/2, eps = 16 delta + 16 u (d + K), keeps every trace
Tr(z zeta^-j) within 1/2 of its integer.  ``_recover`` rounds the traces,
and the coefficients are (m T^-1) y / m through the trace form
(``_trace_form``), where T[j, i] = Tr(zeta^(i - j)) and the integer
matrix m T^-1, spread from the block of rad(m) with no LAPACK call, is
certified once per conductor by T (m T^-1) = m I.  The route follows the
degree because the crossover does.  For F @ F^dagger of the Clifford
generators (2 vCPU Xeon, numpy 2.4, median per call), the operator route
against the embedding route took 53 against 78 us at d = 8 (n = 6), 101
against 103 us at d = 16 (n = 8), 254 against 126 us at d = 24 (n = 9),
661 against 144 us at d = 48 (n = 7) and 13.8 against 0.83 ms at d = 96
(n = 13).

Every other product, below d = 24 or past the bound, runs the flat left
array against ``_right_operator`` of the right one
(``_operator_matmul``), a (K d, c d) integer matrix whose blocks are the
multiplication matrices of its entries.  A caller that reuses an operator
builds it once with ``_right_operator``.  That route is bounded in memory:
when the operator would hold more than ``_GRAM_BUDGET`` entries, the
columns of the right array go in blocks of max(1, budget // (K d^2)) and
the products are joined: column j of x @ y depends only on column j of y,
and each block passes the kernel's 2**53 check on its own, so the
integers are the same and the peak is the output plus one block operator.
The blocks come from ``_multiplier``, which applies the kernel's bound a
priori: its right operand is the conductor's multiplication table, kept
once as float64 with its largest entry T, so max|w| * T * phi(m) < 2**53
is checked without converting or scanning the table.  When at least half
of the entries are zero (a monomial factor that the first route does not
take, the operator of a closure generator), only the nonzero ones are
multiplied; the multiplier of 0 is 0, so this is exact.  The same budget
sizes the Gram tiles of ``rays`` and the emission chunks of ``states``.
Results are content-reduced by one batch canonicalizer, the only place
where coefficients are narrowed to int64; a coefficient that does not fit
raises CoefficientOverflowError.  Two results skip it because they are
canonical already: a product by a factor of denominator 1 that permutes
the columns and multiplies each by a root of unity, and a dagger.  Both
maps are unimodular over Z, so content and denominator do not change;
``kron`` is still reduced, as content is not multiplicative in
Z[zeta_m].  The inverses of a batch, of the leads
it is divided by or of Gram weights, come from ``_batch_inverse``, once
per distinct row.

Breadth-first closure has one engine, and needs an exact finiteness
certificate; without one a closure raises UncertifiedGeneratorsError.
Every generator g must be unitary, normalize the Weyl-Heisenberg group
W_n = <X, Z> up to scalars, and have a power g^r = c * I with c a root of
unity.  Then G modulo scalars embeds in the normalizer of W_n modulo
scalars, a finite group whose order divides n^2 |SL(2, Z_n)|; and
det(g)^r = c^n makes every determinant in G, hence every scalar in G, one
of the finitely many roots of unity of Q(zeta_m).  So G is finite.

The search keys each element t on its Weyl images (Appleby, J. Math. Phys.
46, 052107, 2005): t X t^dagger = zeta_m^s X^a Z^b and
t Z t^dagger = zeta_m^u X^c Z^d, six integers with a, b, c, d mod n and
s, u mod m.  The phases lie on a lattice: (t X t^dagger)^n = I, and
(zeta_m^s X^a Z^b)^n = zeta_m^(s n) omega^(a b n (n - 1) / 2) I,
omega = zeta_m^(m / n), where the omega factor is 1 for odd n and +-1 for
even n.  So s, and likewise u, is a multiple of m / N, N = n for odd n and
2 n for even n, an integer as the certificate makes 2 n divide m.  The key
is sym N^2 + (s N / m) N + u N / m, sym = ((a n + b) n + c) n + d, below
n^4 N^2 (``_weyl_keys``).  The certificate reads the images of the
generators (``_certified_images``), and those of a product t g follow from
the images of t and of g alone (``_image_law``), with no term mixing t's
phases with its sym: so the key of t g is a few integer gathers from that
of t, through tables over the syms and the N^2 phase pairs
(``_KeyProducts``), and no matrix.  The key is injective on G modulo
scalars: two elements with the same images differ by a matrix that
commutes with X and Z, and so, as X and Z generate the full matrix
algebra, by a scalar (Schur's lemma); a scalar multiple of t has t's
images.  So the projective search counts G/S, S the scalar subgroup of G,
exactly, with no prime and no reduction.

Only the scalars are counted mod p, as in the congruence-image method of
Detinko, Flannery and O'Brien (J. Symb. Comput. 50, 2013).  Evaluating the
power basis at a primitive m-th root of unity mod p, for a prime
p = 1 (mod lcm(2, m)) dividing no generator denominator, is a ring map
onto F_p.  p does not divide lcm(2, m), so x^lcm(2, m) - 1 has distinct
roots mod p and reduction is injective on the roots of unity of
Q(zeta_m).  The plain key of t is its Weyl key times p plus its lead
residue, the first nonzero entry of its first row mod p.  It is injective
on G: two elements with the same images are t and c t for a scalar c in
G, a root of unity, and the first row of c t is c times that of t, so its
lead residue differs unless c = 1.  The residues of a search are only the
first rows, one (b, n) @ (n, n) product per generator and level.  No count
rests on reduction being injective beyond the roots of unity, so nothing
about p needs checking after a search: the projective count takes no
residue and no prime at all.

A search carries the keys of its frontier and, when it needs them, their
first rows mod p.  It takes a level's products with every generator at
once and looks their keys up in a two-level dense index (``_KeyIndex``), a
top array over the n^4 syms and a block of N^2 keys (N^2 p for the plain
key) per sym met: 4 n^4 bytes plus 4 N^2 bytes per sym met, of which there
are at most |SL(2, Z_n)| < n^3.  It records the breadth-first tree: each
new element's parent and generator.  Because the keys are injective on the
same classes as canonical (scalar-canonical) exact forms, it meets new
elements in the same order as an exact search would.

Every closure, plain or projective, runs the projective search, which
makes 3 |G/S| products for three generators; a plain closure also reads S
from it.  The representative t_x of each class is the element of G
reached along the tree: t_y = t_x g when y is first reached from x by g.
These representatives form a transversal of S in G, and along a tree
edge t_x g t_y^-1 is the identity.  Every other product t_x g lands on a
class already found, with representative t_y, and the quotient
t_x g t_y^-1 is a scalar c of G, whose residue is
lead(t_x g) / lead(t_y), as the first row of t_x g is c times that of
t_y.  By Schreier's lemma (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, section 4.1) these Schreier scalars
generate S, so |G| = |G/S| |S| without a search of G.  S is read as
residues, and each decodes to its one root of unity.

A closure keeps the keys and the tree, and its cap bounds that one
search: more than max_size classes of G/S raise ClosureCapError, while a
plain order |G/S| |S| may exceed the cap.  Element bodies and words are
built on first access, along a tree, with one exact product (parent
times generator) per element; for a plain closure that is the tree of
the plain search, which keys every element of G, runs only then and
stops at the same cap.  Membership is read from the keys: a query q that
is unitary and carries the certificate itself has Weyl images, and when
they are the key of a class with representative t, q = c t for a scalar
c, a root of unity, since q and t each have a power that is a root of
unity times I.  So on a projective table q is present exactly when its
key is, and on a plain one when, also, c lies in S: its residue is the
lead residue of q over that of t.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .cyclotomic import (
    Cyclotomic,
    FieldMismatchError,
    _context,
    _factorize,
    _mobius,
    conductor_for,
    euler_phi,
    sqrt_embed,
    zeta,
)
from .galois import GaloisField, GFElement, gf_trace_int, is_prime

__all__ = [
    "ClosureCapError",
    "CoefficientOverflowError",
    "GroupTable",
    "UMatrix",
    "UncertifiedGeneratorsError",
    "WeylReport",
    "center_of",
    "check_weyl_relation",
    "clifford_generators",
    "clifford_group",
    "displacement",
    "evolve_ontic",
    "fourier_matrix",
    "galois_generators",
    "group_closure",
    "kron",
    "position_operator",
    "s_matrix",
    "symplectic_form",
    "wh_generators",
    "wh_group",
]

_FLOAT_EXACT = 2**53
_DEFAULT_MAX_SIZE = 1_000_000
_CHUNK = 8192
# entries of one right operator (an emission chunk, a column block of a
# field product), and pairs times phi(m) of a Gram tile: at 8 bytes an
# entry, half a megabyte whatever the size of the product
_GRAM_BUDGET = 1 << 16
# phi(m) from which a field product under its bound runs in the complex
# embedding (_field_matmul)
_EMBED_DEGREE = 24


class ClosureCapError(RuntimeError):
    """Closure exceeded its element cap; carries the partial size."""

    def __init__(self, message: str, partial_size: int):
        super().__init__(message)
        self.partial_size = partial_size


class CoefficientOverflowError(OverflowError):
    """A content-reduced coefficient or denominator does not fit in int64."""


class UncertifiedGeneratorsError(ValueError):
    """Generators that the closure cannot count: one fails the finiteness
    certificate, no prime keeps the residue products exact, or their keys
    do not fit int64."""


# -- exact coefficient kernel ------------------------------------------------------


def _int_array(values) -> np.ndarray:
    """Integers as an int64 array, or an object array when one is too big."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact product of integer arrays (..., r, K) @ (..., K, c).

    With B = max|x| * max|y| * K (each max at least 1), every input
    entry, every term x[i, k] * y[k, j] and every partial sum of those
    terms is an integer of absolute value at most B, whatever order BLAS
    adds the terms in and whether or not it fuses multiply-adds.  Below
    2**53 all of them are exactly representable in float64, so the float64
    product never rounds and rint only fixes its dtype.  Otherwise the same
    product runs on Python integers.  The result is int64 on the float path
    and an object array otherwise.  ``_multiplier`` checks the same bound a
    priori, from the field table's cached maximum, and skips the scan.

    An operand may also be a float64 array of integers below 2**53, as the
    operators of ``_multiplier`` are; it is read as is on the float path
    and through int64, exactly, on the object path.
    """
    bound = max(_max_abs(x), 1) * max(_max_abs(y), 1) * x.shape[-1]
    if bound < _FLOAT_EXACT:
        return _float_matmul(x, y)
    x, y = (a.astype(np.int64) if a.dtype == np.float64 else a for a in (x, y))
    return np.matmul(x.astype(object), y.astype(object))


def _float_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y in float64, rounded back to int64; exact only under a bound."""
    prod = np.matmul(x.astype(np.float64, copy=False), y.astype(np.float64, copy=False))
    return np.rint(prod, out=prod).astype(np.int64)


def _conj(nums: np.ndarray, ctx) -> np.ndarray:
    """Complex conjugates of coefficient arrays (..., d), as one flat
    (-1, d) @ (d, d) product against the conductor's conjugation table:
    BLAS sees one product, not numpy's loop of small ones."""
    return _exact_matmul(nums.reshape(-1, ctx.degree), ctx.conj_np).reshape(nums.shape)


def _multiplier(w: np.ndarray, ctx) -> np.ndarray:
    """Multiplication matrices of coefficient vectors, (..., d) -> (..., d, d).

    M[b, c] = sum_a w[a] * mult[a, b, c], so for a coefficient row vector
    x the product x * w in the field is x @ M.  The conductor keeps the
    table as float64 with its bound T = max|mult| (``_Context.mult``), so
    the bound of ``_exact_matmul`` is known before the product:
    max|w| * T * d < 2**53 makes the one float64 product exact, and its
    matrices stay float64: their entries are integers below 2**53, which
    the kernel reads without converting them again.  Otherwise the table is
    read back as integers, exactly, for the object product.

    When at least half of the vectors are zero (a permutation, a diagonal,
    a monomial factor), only the nonzero ones are multiplied and their
    matrices are scattered into zeros.  The multiplier of 0 is 0, and the
    rows multiplied have the same max|w| as all of them, so the values and
    the bound check do not change; a denser operand runs the one product.
    """
    d = ctx.degree
    flat = w.reshape(-1, d)
    nonzero = np.flatnonzero((flat != 0).any(axis=1))
    if 2 * len(nonzero) <= len(flat):
        part = _table_product(flat[nonzero], ctx)
        out = np.zeros((len(flat), d * d), dtype=part.dtype)
        out[nonzero] = part
    else:
        out = _table_product(flat, ctx)
    return out.reshape(w.shape[:-1] + (d, d))


def _table_product(flat: np.ndarray, ctx) -> np.ndarray:
    """flat (b, d) @ the multiplication table (d, d*d), exactly: float64
    under the kernel's bound, Python integers otherwise."""
    table, bound = ctx.mult
    if max(_max_abs(flat), 1) * bound * ctx.degree < _FLOAT_EXACT:
        return np.matmul(flat.astype(np.float64, copy=False), table)
    return np.matmul(flat.astype(object), table.astype(np.int64).astype(object))


def _right_operator(y: np.ndarray, ctx) -> np.ndarray:
    """R with x.reshape(..., r, K*d) @ R == (x @ y).reshape(..., r, c*d)
    for field arrays x (..., r, K, d) and y (..., K, c, d); R is
    (..., K*d, c*d).

    R[..., (k, a), (j, e)] is entry [a, e] of the multiplier of y[..., k, j].
    """
    *lead, k, c, d = y.shape
    return _multiplier(y, ctx).swapaxes(-3, -2).reshape(*lead, k * d, c * d)


def _eps_d(d: int, k: int) -> float:
    """eps d of the embedding's rounding bound for a product of K = k terms
    in degree d: every trace of a product z = x @ y is rounded to its
    integer when eps d S < 1/2, S the bound on |sigma_k(z)| below.

    With u = 2**-53 and gamma_k = k u / (1 - k u), a float64 dot product of
    k terms is off by at most gamma_k sum |x_i y_i| (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., §3.1), and the cosines and
    sines of 2 pi r / m, 0 <= r < m, are assumed within delta = 2**-48
    (three roundings of the argument, at most 3 u 2 pi, and a few ulps of
    numpy's cos and sin).  |sigma_k(x_it)| <= l1(x_it), the sum of its
    |coefficients|, so |sigma_k(z_ij)| <= S_ij = sum_t l1(x_it) l1(y_tj),
    and a trace of z is at most d S.  To first order, relative to l1, an
    embedded entry is off by e1 = sqrt2 (delta + gamma_d).  The real and
    imaginary parts of sigma_k(z_ij) are each two K-term real products and
    one addition, off by gamma_2K sum_t (|xr yr| + |xi yi|) <= gamma_2K S,
    as |xr yr| + |xi yi| <= |x| |y|; with the input errors, sigma_k(z_ij)
    is off by S (2 e1 + sqrt2 gamma_2K).  A trace sums h = d / 2 pairs of
    doubled cosine and sine terms (table entries off by 2 delta), at most
    d S in all by the same inequality, so it is off by
    d S (2 e1 + sqrt2 gamma_2K + sqrt2 delta + gamma_d).  That is below
    d S (4.3 delta + u (3.9 d + 2.9 K)) < eps d S with
    eps = 16 delta + 16 u (d + K), whose spare covers second-order terms,
    coefficients rounded to float64 and the float64 l1 and S.  An entry
    whose partners are all zero adds nothing to S and nothing to the
    product, as its terms are exact zeros.  Under the bound every trace is
    below 2**44, and the recovery through the trace form is exact.
    """
    return (2.0**-44 + 2.0**-49 * (d + k)) * d


def _field_matmul(x: np.ndarray, y: np.ndarray, ctx) -> np.ndarray:
    """Exact field product of coefficient arrays (..., r, K, d) @ (..., K, c, d)
    -> (..., r, c, d); the leading axes broadcast.

    A right factor (K, c, d) with no leading axes whose columns each hold
    at most one nonzero entry, a root of unity, is monomial: its product is
    a gather of x's columns and a root-of-unity operator per column
    (``_monomial_matmul``).  Otherwise, from d = phi(m) >= ``_EMBED_DEGREE``
    on, a product with
    ``_eps_d(d, K)`` max S < 1/2 runs in the complex embedding
    (``_embedded_matmul``), S read from the l1 norms of ``_embed``; an
    entry past 2**53 fails that bound.  Every other product runs against
    right operators (``_operator_matmul``).  Both give the same integers.
    The degree threshold is the measured crossover (module docstring).
    """
    if y.ndim == 3 and y.size:
        columns = _monomial_columns(y, ctx)
        if columns is not None:
            return _monomial_matmul(x, *columns, ctx)
    return _dense_matmul(x, y, ctx)


def _dense_matmul(x: np.ndarray, y: np.ndarray, ctx) -> np.ndarray:
    """x @ y on the embedding or the operator route of ``_field_matmul``."""
    m, d = ctx.m, ctx.degree
    if d >= _EMBED_DEGREE:
        (ex, lx), (ey, ly) = _embed(x, m), _embed(y, m)
        if _eps_d(d, x.shape[-2]) * np.matmul(lx, ly).max(initial=0.0) < 0.5:
            return _embedded_matmul(ex, ey, ctx)
    return _operator_matmul(x, y, ctx)


def _root_operators(exponents: np.ndarray, ctx) -> np.ndarray:
    """(b, d, d) float64: the multiplication matrices of z^k for the
    exponents k (b,), integers below ``ctx.roots``' bound.

    Row i of the one of k holds z^(i + k), a gather of the reduction rows,
    so e @ [k] is e z^k = sum_i e_i z^(i + k) for a coefficient row e.
    """
    d = ctx.degree
    return ctx.roots[0][(np.arange(d) + exponents[:, None]) % ctx.m]


def _monomial_columns(y: np.ndarray, ctx):
    """(rows (c,), exponents (c,)) when each column j of a right factor
    (K, c, d) holds at most one nonzero entry, at row k_j, equal to
    z^(e_j) (``_Context.root_exponents``); a zero column has e_j = -1.
    None when a column holds two nonzero entries or another scalar."""
    support = (y != 0).any(axis=-1) if y.dtype == object else y.any(axis=-1)
    nonzero = np.count_nonzero(support)
    if nonzero > support.shape[1]:
        return None
    rows = support.argmax(axis=0)
    exponents = ctx.root_exponents(y[rows, np.arange(len(rows))])
    # a column adds one to each count when its one nonzero entry is a root
    # of unity, and more to the first when it holds two
    if np.count_nonzero(exponents >= 0) != nonzero:
        return None
    return rows, exponents


def _monomial_matmul(x: np.ndarray, rows, exponents, ctx) -> np.ndarray:
    """x @ y for a monomial right factor y (``_monomial_columns``): column j
    of the product is column k_j of x times z^(e_j), exactly.

    When every e_j is 0 or -1 (a permutation, the 0/1 factor of ``kron``)
    the product is a gather of x's columns, zero for a zero column of y.
    Otherwise the gathered columns go through one batched
    (c, N, d) @ (c, d, d) product against ``_root_operators``, N the rows
    of x with its leading axes, and the operator of a zero column is zero.
    The operators' largest entry is known (``_Context.roots``), so the
    kernel's bound max|x| * T * d < 2**53 is checked without scanning
    them, as ``_table_product`` does: float64 under it, Python integers
    through ``_exact_matmul`` past it.  A gather keeps x's dtype; the
    product is int64 or Python integers.
    """
    zero = exponents < 0 if exponents.min() < 0 else None
    if exponents.max() <= 0:
        out = x[..., rows, :]
        if zero is not None:
            out[..., zero, :] = 0
        return out
    cols = x.swapaxes(0, -2)[rows]  # (c, r, ..., d)
    ops = _root_operators(exponents, ctx)
    if zero is not None:
        ops[zero] = 0
    # BLAS wants C order, which a gather from a swapped view need not have
    flat = np.ascontiguousarray(cols).reshape(len(rows), -1, ctx.degree)
    if max(_max_abs(flat), 1) * ctx.roots[1] * ctx.degree < _FLOAT_EXACT:
        prod = _float_matmul(flat, ops)
    else:
        prod = _exact_matmul(flat, ops)
    return np.ascontiguousarray(prod.reshape(cols.shape).swapaxes(0, -2))


def _embedded_matmul(ex: np.ndarray, ey: np.ndarray, ctx) -> np.ndarray:
    """x @ y from the embeddings (``_embed``) of integer arrays
    (..., r, K, d) and (..., K, c, d) under the bound of ``_field_matmul``:
    int64 (..., r, c, d), or Python integers when the recovery's own
    product needs them.

    sigma_k(x @ y) = sigma_k(x) @ sigma_k(y) is four real batched products
    per embedding, (h, ..., r, K) @ (h, ..., K, c), with the leading axes
    padded to the broadcast rank.  ``_recover`` rounds the traces and
    returns the exact coefficients through the trace form.
    """
    h = len(ex) // 2
    rank = max(ex.ndim, ey.ndim)
    ex, ey = (a.reshape(len(a), *(1,) * (rank - a.ndim), *a.shape[1:]) for a in (ex, ey))
    xr, xi, yr, yi = ex[:h], ex[h:], ey[:h], ey[h:]
    re = xr @ yr - xi @ yi
    im = xr @ yi + xi @ yr
    out = _recover(re.reshape(h, -1), ctx.m, im.reshape(h, -1))
    return np.ascontiguousarray(out.T).reshape(*re.shape[1:], ctx.degree)


def _operator_matmul(x: np.ndarray, y: np.ndarray, ctx) -> np.ndarray:
    """x @ y for coefficient arrays (..., r, K, d) @ (..., K, c, d) through
    the right operator of y: int64 under the kernel's bound, else Python
    integers.

    The right operator of y has K c d^2 entries per leading index.  When
    that exceeds ``_GRAM_BUDGET``, y is taken in column blocks of
    w = max(1, budget // (K d^2)) columns, each one kernel product against
    its own operator, and the parts are joined along the columns (all as
    Python integers when any part needed them).  Column j of x @ y depends
    only on column j of y, so the blocks give the same integers, and each
    block's float64 product is checked by ``_exact_matmul`` on its own.
    The peak is the output plus one block operator.
    """
    *lead, r, k, d = x.shape
    c = y.shape[-2]
    left = x.reshape(*lead, r, k * d)
    width = max(1, _GRAM_BUDGET // max(1, k * d * d))
    if c <= width:
        out = _exact_matmul(left, _right_operator(y, ctx))
    else:
        parts = [
            _exact_matmul(left, _right_operator(y[..., j : j + width, :], ctx))
            for j in range(0, c, width)
        ]
        # int64 parts join an object part as Python integers
        out = np.concatenate(parts, axis=-1)
    return out.reshape(out.shape[:-1] + (c, d))


# -- the trace form ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _trace_form(m: int):
    """(embed, trace, inverse) of Q(zeta_m), built once per conductor.

    embed (d, 2h): the real, then the imaginary parts of sigma_k(z^i), one k
    per conjugate pair {k, m - k} of units.  For x with embeddings X (real
    parts) and Y (imaginary parts), y_j = Tr(x z^-j) = (T c)_j for its
    coefficients c and T[j, i] = Tr(z^(i - j)); a pair contributes
    2 Re(sigma_k(x) z^(-j k)), so y = trace @ X + 2 sin @ Y, where trace
    holds the cosines of embed doubled (single for the real embedding of
    m <= 2) and sin = embed[:, h:].  Tr(z^r) is the Ramanujan sum
    mu(q) phi(m) / phi(q), q = m / gcd(r, m).  inverse = m T^-1 is
    integral, as the trace dual of Z[zeta_m] lies in (1/m) Z[zeta_m] (the
    different divides m; Washington, *Introduction to Cyclotomic Fields*,
    ch. 2).  With r = rad(m) and s = m / r, Tr(z^k) is 0 unless s | k
    (mu(q) = 0 otherwise), and Tr(z^(s k)) = s Tr_r(zeta_r^k), so
    T = s (T_r (x) I_s) and inverse = (r T_r^-1) (x) I_s: only the
    phi(r) x phi(r) block is inverted, exactly (``_scaled_inverse``).  The
    exact T @ inverse == m I certifies it, and raises ArithmeticError when
    it fails.
    """
    d = _context(m).degree
    units = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
    half = units[2 * units <= m]
    turns = 2 * np.pi * (np.outer(np.arange(d), half) % m) / m
    embed = np.hstack((np.cos(turns), np.sin(turns)))
    trace = np.cos(turns) * np.where(2 * half % m, 2.0, 1.0)
    q = m // np.gcd((np.arange(d) - np.arange(d)[:, None]) % m, m)
    tr = [_mobius(k) * d // euler_phi(k) if m % k == 0 else 0 for k in range(1, m + 1)]
    t = np.array(tr)[q - 1]  # t[j, i] = Tr(z^(i - j)), which is tr[q - 1]
    r = math.prod(_factorize(m))
    block = _scaled_inverse(t[:: m // r, :: m // r] // (m // r), r)
    inverse = np.kron(block, np.eye(m // r, dtype=np.int64))
    if not np.array_equal(_exact_matmul(t, inverse), m * np.eye(d, dtype=np.int64)):
        raise ArithmeticError(f"m T^-1 is not integral for m = {m}")
    for table in (embed, trace, inverse):  # shared by every caller
        table.setflags(write=False)
    return embed, trace, inverse


@lru_cache(maxsize=None)
def _real_traces(m: int):
    """(trace (h, h), sums (h,)) of Q(zeta_m), h the conjugate pairs of
    embeddings: the first h rows of ``_trace_form``'s trace, so that
    y = trace @ X holds y_j = Tr(x z^-j), 0 <= j < h, for a totally real
    x with real embeddings X, and the Ramanujan sums t_j = Tr(z^-j), in
    float64.

    x lies in Q exactly when d y_j = y_0 t_j for 0 < j < h (the Gram
    kernel of ``rays``).  Rounded under the bound of ``_eps_d``, every
    y_j is an integer below 2**44, and |t_j| <= d, so both products are
    exact in float64 while d < 2**9.  Past that the bound still keeps them
    exact: |y_j| <= d S, and eps d S < 1/2 with eps >= 2**-49 d, so d |y_j|
    and |y_0 t_j| stay below 2**48 + d.  The assertion checks the bound's
    constants and the sums for that.
    """
    d = _context(m).degree
    trace = _trace_form(m)[1]
    h = trace.shape[1]
    q = m // np.gcd(np.arange(h), m)
    sums = np.array([_mobius(k) * d // euler_phi(k) for k in q.tolist()], float)
    assert _eps_d(d, 0) >= 2.0**-49 * d * d and np.abs(sums).max() <= d
    trace = np.ascontiguousarray(trace[:h])
    for table in (trace, sums):  # shared by every caller
        table.setflags(write=False)
    return trace, sums


def _scaled_inverse(t: np.ndarray, k: int) -> np.ndarray:
    """k T^-1 for an invertible integer matrix T with k T^-1 integral and
    of entries below P / 2 in size, P = 2**31 - 1 a prime dividing neither
    k nor det T: Gauss-Jordan mod P in int64 (every product of residues is
    below 2**62), lifted to the residues of least size.  Only the caller's
    exact check T (k T^-1) = k I certifies it."""
    p, d = (1 << 31) - 1, len(t)
    a = np.hstack((t % p, k * np.eye(d, dtype=np.int64) % p))
    for col in range(d):
        pivot = col + int(np.flatnonzero(a[col:, col])[0])
        a[[col, pivot]] = a[[pivot, col]]
        a[col] = a[col] * pow(int(a[col, col]), -1, p) % p
        factor = a[:, col].copy()
        factor[col] = 0
        a = (a - np.outer(factor, a[col]) % p) % p
    inverse = a[:, d:]
    return np.where(inverse > p // 2, inverse - p, inverse)


def _recover(re: np.ndarray, m: int, im: np.ndarray | None = None) -> np.ndarray:
    """Coefficients (d, K) of algebraic integers from their embeddings, real
    parts re (h, K) and imaginary parts im (h, K), none for totally real
    ones, with traces off by under 1/2: (m T^-1) rint(y) / m."""
    embed, trace, inverse = _trace_form(m)
    y = trace @ re
    if im is not None:
        y += (2 * embed[:, len(re) :]) @ im
    c = _exact_matmul(inverse, np.rint(y, out=y))
    if (c % m != 0).any():
        raise ArithmeticError("trace-form recovery left a remainder mod m")
    return c // m


def _embed(nums: np.ndarray, m: int):
    """(embeddings (2h, ...), l1 (...)) of coefficient arrays (..., d): the
    real, then the imaginary parts of each entry at one embedding per
    conjugate pair, and the sum of its |coefficients| in float64, 2**64 past
    that.  Past l1 = 2**53, which no bound admits, an entry embeds as 0."""
    d = nums.shape[-1]
    if nums.dtype == object:
        l1 = np.minimum(np.abs(nums).sum(axis=-1), 1 << 64).astype(np.float64)
    else:
        l1 = np.abs(nums, dtype=np.float64).sum(axis=-1)  # |-2**63| wraps in int64
    flat = np.where(l1[..., None] < 2.0**53, nums, 0).astype(np.float64).reshape(-1, d)
    embed = _trace_form(m)[0]
    return (embed.T @ flat.T).reshape(embed.shape[1], *nums.shape[:-1]), l1


def _content_reduce(nums: np.ndarray, dens: np.ndarray):
    """Content-reduce a batch of coefficient arrays (b, ...) over dens (b,).

    Works on int64 or object input and keeps it: each denominator is made
    positive and the common content of a numerator array and its
    denominator divided out.
    """
    if nums.dtype == object or dens.dtype == object:
        nums = nums.astype(object)
        dens = dens.astype(object)
    else:
        nums = nums.astype(np.int64, copy=False)
        dens = dens.astype(np.int64, copy=False)
    b = nums.shape[0]
    g = np.gcd(np.gcd.reduce(np.abs(nums.reshape(b, -1)), axis=1), dens)
    g = np.where(dens < 0, -g, g)
    return nums // g.reshape((b,) + (1,) * (nums.ndim - 1)), dens // g


def _canonical_batch(nums: np.ndarray, dens: np.ndarray):
    """Content-reduce a batch, then narrow it to int64.

    This is the single point where a matrix coefficient that is too big
    is detected.
    """
    nums, dens = _content_reduce(nums, dens)
    b = nums.shape[0]
    try:
        return nums.astype(np.int64, copy=False), dens.astype(np.int64, copy=False)
    except OverflowError:
        sizes = np.abs(nums.reshape(b, -1)).max(axis=1)
        t = max(range(b), key=lambda i: max(int(sizes[i]), int(dens[i])))
        raise CoefficientOverflowError(
            f"exact coefficients exceed int64: the largest coefficient has "
            f"{int(sizes[t]).bit_length()} bits over denominator {int(dens[t])}"
        ) from None


def _coeff_json(num: np.ndarray, den: int, m: int) -> list[dict]:
    """Cyclotomic.to_json of each row of a coefficient array (k, phi(m)) over den.

    A zero coefficient reduces to 0/1, so only the nonzero ones are
    formatted; the rest share the one string.
    """
    nonzero = num != 0
    top = num[nonzero]
    g = np.gcd(top, den)
    pairs = zip((top // g).tolist(), (den // g).tolist())
    text = np.full(num.shape, "0/1", dtype=object)
    text[nonzero] = [f"{p}/{q}" for p, q in pairs]
    return [{"m": m, "c": row} for row in text.tolist()]


class UMatrix:
    """Square matrix of exact cyclotomic entries with a shared denominator."""

    __slots__ = ("dim", "m", "num", "den", "_rows", "_key")

    def __init__(self, dim: int, m: int, num: np.ndarray, den: int = 1):
        d = _context(m).degree
        if np.asarray(num).shape != (dim, dim, d):
            raise ValueError(
                f"expected shape {(dim, dim, d)}, got {np.asarray(num).shape}"
            )
        nums, dens = _canonical_batch(np.asarray(num)[None], _int_array([den]))
        self._assign(dim, m, np.ascontiguousarray(nums[0]), int(dens[0]))

    @classmethod
    def _from_canonical(cls, dim: int, m: int, num: np.ndarray, den: int):
        """Wrap a content-reduced int64 array without reducing it again."""
        self = cls.__new__(cls)
        self._assign(dim, m, num, den)
        return self

    def _assign(self, dim: int, m: int, num: np.ndarray, den: int):
        num.setflags(write=False)
        self.dim = dim
        self.m = m
        self.num = num
        self.den = den
        self._rows = None
        self._key = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, dim: int, m: int) -> "UMatrix":
        return _diagonal_rows(_context(m).powers[np.zeros(dim, dtype=np.int64)], m)

    @classmethod
    def from_entries(cls, entries, m: int | None = None) -> "UMatrix":
        dim = len(entries)
        if m is None:
            m = entries[0][0].m
        den = 1
        for row in entries:
            for e in row:
                if e.m != m:
                    raise FieldMismatchError("mixed conductors in matrix entries")
                den = den * e.den // math.gcd(den, e.den)
        num = _int_array(
            [[[v * (den // e.den) for v in e.num] for e in row] for row in entries]
        )
        return cls(dim, m, num, den)

    @classmethod
    def diagonal(cls, scalars, m: int | None = None) -> "UMatrix":
        if m is None:
            m = scalars[0].m
        zero = Cyclotomic.zero(m)
        dim = len(scalars)
        return cls.from_entries(
            [[scalars[i] if i == j else zero for j in range(dim)] for i in range(dim)],
            m,
        )

    @classmethod
    def permutation(cls, dim: int, m: int, row_of_col) -> "UMatrix":
        """0/1 matrix with a single 1 per column j, at row row_of_col[j]."""
        rows = _context(m).powers
        num = np.zeros((dim, dim, rows.shape[1]), dtype=np.int64)
        num[np.asarray(row_of_col, dtype=np.int64) % dim, np.arange(dim)] = rows[0]
        return cls._from_canonical(dim, m, num, 1)

    # -- views ------------------------------------------------------------------

    def entry(self, i: int, j: int) -> Cyclotomic:
        return Cyclotomic(self.m, self.num[i, j, :].tolist(), self.den)

    def rows(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        """All entries as Cyclotomic values, cached."""
        if self._rows is None:
            self._rows = tuple(
                tuple(self.entry(i, j) for j in range(self.dim))
                for i in range(self.dim)
            )
        return self._rows

    def key(self) -> bytes:
        if self._key is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{self.dim}:{self.m}:".encode())
            h.update(self.num.tobytes())
            h.update(self.den.to_bytes(8, "little", signed=True))
            self._key = h.digest()
        return self._key

    def __eq__(self, other):
        if not isinstance(other, UMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.m == other.m
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"UMatrix(dim={self.dim}, m={self.m}, den={self.den})"

    # -- algebra -----------------------------------------------------------------

    def _check(self, other: "UMatrix"):
        if self.dim != other.dim or self.m != other.m:
            raise FieldMismatchError("matrix dimension or conductor mismatch")

    def __matmul__(self, other: "UMatrix") -> "UMatrix":
        """The exact product; a monomial right factor (``_field_matmul``)
        that permutes the columns and multiplies each by a root of unity
        keeps the left factor's content and denominator, as z^e is a unit
        over Z, so when it has denominator 1 its int64 product is
        canonical and is not reduced again."""
        self._check(other)
        ctx = _context(self.m)
        columns = _monomial_columns(other.num, ctx)
        if columns is None:
            out = _dense_matmul(self.num, other.num, ctx)
        else:
            out = _monomial_matmul(self.num, *columns, ctx)
            rows, exponents = columns
            if (
                other.den == 1
                and out.dtype == np.int64
                and exponents.min() >= 0
                and np.bincount(rows).max() == 1
            ):
                return UMatrix._from_canonical(
                    self.dim, self.m, np.ascontiguousarray(out), self.den
                )
        return UMatrix(self.dim, self.m, out, self.den * other.den)

    def matpow(self, k: int) -> "UMatrix":
        if k < 0:
            raise ValueError("negative matrix powers not supported; use dagger")
        result = UMatrix.identity(self.dim, self.m)
        base = self
        while k:
            if k & 1:
                result = result @ base
            if k > 1:
                base = base @ base
            k >>= 1
        return result

    def dagger(self) -> "UMatrix":
        """The conjugate transpose; conjugation is its own inverse over Z,
        so an int64 conjugate keeps the content and is not reduced again."""
        conj = np.transpose(_conj(self.num, _context(self.m)), (1, 0, 2))
        if conj.dtype == np.int64:
            return UMatrix._from_canonical(
                self.dim, self.m, np.ascontiguousarray(conj), self.den
            )
        return UMatrix(self.dim, self.m, conj, self.den)

    def scale(self, c: Cyclotomic) -> "UMatrix":
        if c.m != self.m:
            raise FieldMismatchError("scalar conductor mismatch")
        n, d = self.dim, self.num.shape[2]
        scalar = _int_array(c.num).reshape(1, 1, d)
        out = _field_matmul(self.num.reshape(n * n, 1, d), scalar, _context(self.m))
        return UMatrix(n, self.m, out.reshape(n, n, d), self.den * c.den)

    def is_unitary(self) -> bool:
        return (self @ self.dagger()) == UMatrix.identity(self.dim, self.m)

    def is_scalar(self) -> Cyclotomic | None:
        """The scalar c when self == c * identity, else None."""
        for i in range(self.dim):
            for j in range(self.dim):
                if i != j and self.num[i, j].any():
                    return None
            if not np.array_equal(self.num[i, i], self.num[0, 0]):
                return None
        return self.entry(0, 0)

    def scalar_canonical(self) -> "UMatrix":
        """Divide by the first nonzero entry; canonical projective form."""
        nums, dens = _scalar_canonical_batch(self.num[None], _context(self.m))
        return UMatrix(self.dim, self.m, nums[0], int(dens[0]))

    def trace(self) -> Cyclotomic:
        acc = Cyclotomic.zero(self.m)
        for i in range(self.dim):
            acc = acc + self.entry(i, i)
        return acc

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        n = self.dim
        entries = _coeff_json(self.num.reshape(n * n, -1), self.den, self.m)
        return {"dim": n, "entries": [entries[i * n : (i + 1) * n] for i in range(n)]}

    @classmethod
    def from_json(cls, obj: dict) -> "UMatrix":
        entries = [
            [Cyclotomic.from_json(e) for e in row] for row in obj["entries"]
        ]
        return cls.from_entries(entries)


# -- generator matrices ------------------------------------------------------------


def _working_conductor(n: int, m: int | None) -> int:
    """m, by default conductor_for(n); ValueError unless it is a multiple of 2n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if m is None:
        m = conductor_for(n)
    if m % (2 * n):
        raise ValueError(f"conductor {m} must be a multiple of {2 * n}")
    return m


def _diagonal_rows(entries: np.ndarray, m: int) -> UMatrix:
    """diag of integer coefficient rows (n, d), over the denominator 1."""
    n, d = entries.shape
    num = np.zeros((n, n, d), dtype=np.int64)
    num[np.arange(n), np.arange(n)] = entries
    return UMatrix._from_canonical(n, m, num, 1)


def wh_generators(n: int, m: int | None = None):
    """(tau, X, Z): phase, cyclic shift and clock matrix for dimension n.

    m overrides the working conductor; it must be a multiple of 2n.  The
    entries are rows of the conductor's reduction table: Z[k, k] is the row
    of z^(k m / n).
    """
    m = _working_conductor(n, m)
    tau = -zeta(m, m // (2 * n))
    x = UMatrix.permutation(n, m, (np.arange(n) + 1) % n)
    z = _diagonal_rows(_context(m).powers[(m // n) * np.arange(n)], m)
    return tau, x, z


def fourier_matrix(n: int, m: int | None = None) -> UMatrix:
    """Discrete Fourier matrix (1/sqrt(n)) * omega^(ij), exactly.

    The numerators sqrt(n) omega^k, k < n, omega = z^(m / n), are one
    batched product of sqrt(n) against ``_root_operators``, over the
    denominator n.
    """
    m = _working_conductor(n, m)
    root = sqrt_embed(n, m)
    if root.den != 1:
        raise AssertionError("sqrt(n) should be an algebraic integer")
    omegas = _root_operators((m // n) * np.arange(n), _context(m))
    scaled = _exact_matmul(_int_array([root.num]), omegas)[:, 0]
    return UMatrix(n, m, scaled[np.outer(np.arange(n), np.arange(n)) % n], n)


def s_matrix(n: int, m: int | None = None) -> UMatrix:
    """Diagonal quadratic phase matrix diag(tau^(i(i+n))).

    tau = -zeta_m^(m / 2n) = zeta_m^(m / 2n + m / 2), so entry i is the
    reduction row of the exponent (m / 2n + m / 2) i (i + n) mod m.
    """
    m = _working_conductor(n, m)
    i = np.arange(n)
    return _diagonal_rows(_context(m).powers[(m // (2 * n) + m // 2) * i * (i + n) % m], m)


def clifford_generators(n: int, m: int | None = None) -> dict[str, UMatrix]:
    _, x, _ = wh_generators(n, m)
    return {"X": x, "F": fourier_matrix(n, m), "S": s_matrix(n, m)}


def position_operator(n: int) -> UMatrix:
    """diag(0, ..., n-1); not unitary, exempt from the group checks."""
    m = conductor_for(n)
    return UMatrix.diagonal([Cyclotomic.from_rational(m, k) for k in range(n)], m)


def evolve_ontic(x0: int, v: int, t: int, n: int) -> int:
    """Position after t steps of shift-by-v: x0 + v*t mod n."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if math.gcd(v % n if v % n else n, n) != 1:
        raise ValueError(f"velocity {v} is not coprime to {n}")
    return (x0 + v * t) % n


def displacement(n: int, p1: int, p2: int) -> UMatrix:
    """tau^(p1*p2) X^p1 Z^p2 with the literal integer phase exponent."""
    tau, x, z = wh_generators(n)
    phase = tau ** ((p1 * p2) % (2 * n))
    mat = x.matpow(p1 % n) @ z.matpow(p2 % n)
    return mat.scale(phase)


def symplectic_form(p, q, n: int) -> int:
    """p2*q1 - p1*q2 reduced mod n (mod 2n when n is even)."""
    mod = n if n % 2 else 2 * n
    return (p[1] * q[0] - p[0] * q[1]) % mod


def galois_generators(field: GaloisField, nu: GFElement, mu: GFElement):
    """Additive shift X_nu and trace-character phase Z_mu in dimension p^l."""
    q = field.order
    m = conductor_for(q)
    # permutation() wants a row per column: column gamma -> row gamma+nu
    shift = [0] * q
    for gamma in field.elements():
        shift[gamma.index] = (gamma + nu).index
    x_nu = UMatrix.permutation(q, m, shift)
    traces = [gf_trace_int(mu * gamma) for gamma in field.elements()]
    z_mu = _diagonal_rows(_context(m).powers[(m // field.p) * np.array(traces) % m], m)
    return x_nu, z_mu


@dataclass
class WeylReport:
    """Witnesses for the clock/shift commutation identity."""

    dim: int
    zx: UMatrix
    omega_xz: UMatrix

    @property
    def ok(self) -> bool:
        return self.zx == self.omega_xz


def check_weyl_relation(n: int) -> WeylReport:
    """Assert ZX == omega * XZ exactly and return the witness matrices."""
    _, x, z = wh_generators(n)
    m = conductor_for(n)
    omega = zeta(m, m // n)
    lhs = z @ x
    rhs = (x @ z).scale(omega)
    report = WeylReport(n, lhs, rhs)
    if not report.ok:
        raise AssertionError(f"commutation relation failed for dimension {n}")
    return report


# -- group closure ---------------------------------------------------------------------


class GroupTable:
    """Closure of a matrix generating set, held as its projective search.

    The projective search (``_mod_p_closure`` with projective=True) holds
    an index of the Weyl keys of G/S, S the scalar subgroup of G, and the
    breadth-first tree.  A projective table is that search, of order
    |G/S|.  A plain table runs it with scalars, so that it also holds the
    lead residue of each class's representative and S as residues; its order
    is |G/S| |S|, it answers contains and center_of from the same search,
    and it holds no key per element of G.  Both keep the Weyl images of
    the generators, which every search and query starts from.

    Element bodies and words are built on first access to .elements or
    .words, exactly, along a tree (one product per element), and kept.  A
    projective table uses its own tree.  A plain table needs the tree of
    the plain search, so that each word is the first shallowest one in G;
    that search runs then, once, and its keys are not kept.  It is bounded
    by the table's max_size: past it, .elements and .words raise
    ClosureCapError with the number of elements the plain search reached.
    """

    def __init__(
        self,
        generators: list[UMatrix],
        names: tuple[str, ...],
        projective: bool,
        images: np.ndarray,
        search: _Search,
        max_size: int,
    ):
        self.dim = generators[0].dim
        self.conductor = generators[0].m
        self.projective = projective
        self.generator_names = names
        self.order = search.index.size * (1 if projective else len(search.scalars))
        self._generators = generators
        self._images = images
        self._search = search
        self._max_size = max_size

    @property
    def prime(self) -> int | None:
        """The prime p of the closure's residues; None for a projective
        table, whose search reads no residue."""
        return self._search.prime

    def __len__(self) -> int:
        return self.order

    @cached_property
    def _sorted_bodies(self):
        tree = self._search
        if not self.projective:
            tree = _mod_p_closure(
                self._generators, self._images, False, self._max_size
            )
        compute = _exact_products(self._generators, self.projective)
        start = _exact_rows(UMatrix.identity(self.dim, self.conductor).num[None], 1)
        rows, words = _bodies(
            start, compute, tree.parents, tree.gen_idx, self.generator_names
        )
        shape = (self.dim, self.dim, -1)
        mats = [
            UMatrix._from_canonical(
                self.dim, self.conductor, row[:-1].reshape(shape), int(row[-1])
            )
            for row in rows
        ]
        ranked = sorted(range(self.order), key=lambda i: mats[i].key())
        return [mats[i] for i in ranked], [words[i] for i in ranked]

    @property
    def elements(self) -> list[UMatrix]:
        """Exact element bodies, sorted by UMatrix.key()."""
        return self._sorted_bodies[0]

    @property
    def words(self) -> list[tuple[str, ...]]:
        """For each element, the first shallowest generator word found for it."""
        return self._sorted_bodies[1]

    def contains(self, mat: UMatrix) -> bool:
        """Whether mat is an element (projectively: an element times a scalar).

        The answer is read from the Weyl key of mat, exactly (module
        docstring).  Every element is unitary and carries the finiteness
        certificate, so a query without both is absent; so is the zero
        matrix, which is not unitary.  On a projective table, c * g for an
        element g is therefore present exactly when c is a root of unity:
        c * g is unitary only when |c| = 1, and has a power equal to a root
        of unity times I only when c is a root of unity.  The bodies of a
        projective table are divided by their lead entry, so they are
        present only when that entry is a root of unity; their products
        along .words are unitary representatives.

        The key of mat's images must be present.  On a plain table mat is
        then c t_j for the key's representative t_j and a root of unity c,
        which must also lie in S: its residue is mat's lead residue over
        t_j's.  p divides no denominator of t_j, nor so of c t_j.
        """
        if mat.dim != self.dim or mat.m != self.conductor or not mat.is_unitary():
            return False
        try:
            image = _certified_images([mat], ("query",))
        except UncertifiedGeneratorsError:
            return False
        p, search = self.prime, self._search
        found = int(search.index.get(_weyl_keys(image, self.dim, self.conductor))[0])
        if self.projective or not found:
            return found > 0
        if mat.den % p == 0:
            return False
        first = int(search.leads[found - 1])
        lead = int(_leads(_residues([mat], p)[0, :1])[0])
        return lead * pow(first, -1, p) % p in search.scalars

    def to_json(self, include_elements: bool = False) -> dict:
        obj = {
            "dim": self.dim,
            "conductor": self.conductor,
            "projective": self.projective,
            "order": self.order,
            "generators": list(self.generator_names),
        }
        if include_elements:
            obj["elements"] = [el.to_json() for el in self.elements]
            obj["words"] = ["".join(w) for w in self.words]
        return obj


def center_of(table: GroupTable) -> list[Cyclotomic]:
    """Scalar subgroup of a non-projective closure, as sorted scalars.

    The closure's search holds the scalar subgroup S as residues mod p.  A
    finite group over Q(zeta_m) holds no scalars but the roots of unity
    +-zeta_m^k, and reduction is injective on them, since p = 1
    (mod lcm(2, m)) does not divide lcm(2, m).  So each residue in S is the
    image of one root: the one that the image r of zeta_m sends it to,
    +-r^k.
    """
    if table.projective:
        raise ValueError("center of a projective table is trivial by construction")
    m, p = table.conductor, table.prime
    r = _zeta_residue(m, p)
    roots = {}
    for k in range(m):
        power = pow(r, k, p)
        roots[power], roots[p - power] = zeta(m, k), -zeta(m, k)
    out = [roots[s] for s in table._search.scalars]
    out.sort(key=lambda c: c.key())
    return out


def _batch_inverse(rows: np.ndarray, ctx):
    """(nums (s, d), dens (s,), slot (b,)) for a batch of nonzero integer
    rows (b, d): row k inverts to nums[slot[k]] / dens[slot[k]].  Each
    distinct row is inverted once, through the conductor's inverse table."""
    slots: dict[tuple, int] = {}
    slot = np.array(
        [slots.setdefault(tuple(row), len(slots)) for row in rows.tolist()], dtype=np.intp
    )
    invs = [ctx.inverse(row) for row in slots]
    nums = _int_array([inv.num for inv in invs]).reshape(len(invs), ctx.degree)
    return nums, _int_array([inv.den for inv in invs]), slot


def _scalar_canonical_batch(nums: np.ndarray, ctx):
    """Divide each array of a batch (b, ..., d) by its first nonzero entry.

    Any denominator cancels, so only the numerators are read.  Returns the
    quotient numerators and the denominators of the lead inverses.  The
    leads are inverted by ``_batch_inverse``, and the operators of the
    distinct inverses are built in one call.
    """
    b, d = nums.shape[0], nums.shape[-1]
    flat = nums.reshape(b, -1, d)
    first = np.argmax(np.any(flat != 0, axis=2), axis=1)
    inv_nums, inv_dens, slot = _batch_inverse(flat[np.arange(b), first], ctx)
    ops = _right_operator(inv_nums.reshape(-1, 1, 1, d), ctx)
    out = _exact_matmul(flat, ops[slot])
    return out.reshape(nums.shape), inv_dens[slot]


def _weyl_exponents(mat: UMatrix) -> tuple[int, int, int] | None:
    """(a, b, s) when mat = zeta_m^s X^a Z^b, else None.

    a is read from the support, and b from the first k with
    e_1 = e_0 omega^k on the entries e_j = mat[j + a, j]; then every e_j is
    compared with e_0 omega^(b j).  The entries share one denominator, so
    they compare as integer rows, and multiplying by omega^k = z^s is a
    gather: e z^s = sum_i e_i z^(i + s) takes rows i + s of the reduction
    table (``_root_operators``).  The scalar is e_0, since
    (X^a Z^b)[a, 0] = 1, and s is the row of the reduction table that it
    equals (``_Context.root_exponents``); a scalar that is no m-th root of
    unity gives None.  A unitary
    conjugate of X or Z never has one: its n-th power is I, so c^n is a
    root of unity, and the roots of unity of Q(zeta_m) are mu_m for even m.
    """
    n, m, ctx = mat.dim, mat.m, _context(mat.m)
    support = mat.num.any(axis=2)
    a = int(np.argmax(support[:, 0]))
    cols = np.arange(n)
    shifted = np.zeros((n, n), dtype=bool)
    shifted[(cols + a) % n, cols] = True
    if not np.array_equal(support, shifted):
        return None
    # (X^a Z^b)[j + a, j] = omega^(b j), omega = z^(m / n)
    entries = mat.num[(cols + a) % n, cols]
    omegas = _root_operators((m // n) * cols, ctx)
    powers = _exact_matmul(entries[:1], omegas)[:, 0]  # e_0 omega^k
    hits = np.flatnonzero((powers == entries[1 % n]).all(axis=1))
    if not hits.size or not (powers[hits[0] * cols % n] == entries).all():
        return None
    phase = int(ctx.root_exponents(entries[:1])[0])
    if mat.den != 1 or phase < 0:
        return None
    return a, int(hits[0]), phase


def _symplectic_order(a: int, b: int, c: int, d: int, n: int) -> int | None:
    """Order of [[a, c], [b, d]] in GL(2, Z_n), None when it is singular."""
    if math.gcd(a * d - b * c, n) != 1:
        return None
    ident = (1 % n, 0, 0, 1 % n)
    p, k = (a % n, b % n, c % n, d % n), 1
    while p != ident:
        pa, pb, pc, pd = p
        p = (
            (a * pa + c * pb) % n,
            (b * pa + d * pb) % n,
            (a * pc + c * pd) % n,
            (b * pc + d * pd) % n,
        )
        k += 1
    return k


def _certified_images(gens: list[UMatrix], names) -> np.ndarray:
    """The Weyl images of unitary gens, (k, 6) int64: row (a, b, s, c, d, u)
    for g X g^dagger = zeta_m^s X^a Z^b and g Z g^dagger = zeta_m^u X^c Z^d.

    They are read while checking the finiteness certificate, which raises
    UncertifiedGeneratorsError naming the first generator that fails and the
    clause it fails.  The conductor must be a multiple of 2n.  Each
    generator g must map X and Z to scalar multiples of elements X^a Z^b
    under conjugation, act invertibly on the exponents (a, b) mod n, and
    have a power g^r = c * I with c a root of unity.  With k the order of
    g's action on the exponents, g^k commutes with X and Z up to scalars,
    so g^k = c X^u Z^v (Schur's lemma), and g^(k n) = c^n
    omega^(u v n (n - 1) / 2) I is a root of unity times I exactly when c
    is a root of unity: an m-th one, as m is even.  So the clause reads g^k
    as zeta_m^s X^u Z^v with ``_weyl_exponents``.
    """
    n, m = gens[0].dim, gens[0].m

    def fail(name, clause):
        raise UncertifiedGeneratorsError(
            f"no finiteness certificate: generator {name!r}: {clause}"
        )

    if m % (2 * n):
        fail(names[0], f"conductor {m} is not a multiple of {2 * n}")
    weyl = "is not a scalar times X^a Z^b"
    _, x, z = wh_generators(n, m)
    images = []
    for g, name in zip(gens, names):
        g_dag = g.dagger()
        gx, gz = g @ x, g @ z  # both on the monomial route
        image_x = _weyl_exponents(gx @ g_dag)
        if image_x is None:
            fail(name, f"conjugate of X {weyl}")
        image_z = _weyl_exponents(gz @ g_dag)
        if image_z is None:
            fail(name, f"conjugate of Z {weyl}")
        k = _symplectic_order(*image_x[:2], *image_z[:2], n)
        if k is None:
            fail(name, f"singular action on (a, b) mod {n}")
        if _weyl_exponents(g.matpow(k)) is None:
            fail(name, "no power is a root of unity times I")
        images.append(image_x + image_z)
    return np.array(images, dtype=np.int64)


def _image_law(g: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(law (9, 6), offset (6,)) for one generator's Weyl images g, (6,):
    the images of t g, before reduction, are features(t) @ law + offset,
    where features(t) = (a, b, s, c, d, u, a b, c d, b c) for t's images
    (a, b, s, c, d, u).

    (t g) X (t g)^dagger = t (zeta^s X^a Z^b) t^dagger
    = zeta^s (t X t^dagger)^a (t Z t^dagger)^b for g's image (a, b, s) of X,
    and likewise for Z.  Two identities evaluate it, with omega = z^(m / n):
    (zeta^s X^a Z^b)^k = zeta^(k s) omega^(a b k (k - 1) / 2) X^(k a) Z^(k b),
    and Z^B X^C = omega^(B C) X^C Z^B, which moves the second factor's X past
    the first one's Z.  So X^a' Z^b' has a' = a t_a + b t_c and
    b' = a t_b + b t_d, and its phase is s + a t_s + b t_u plus m / n times
    t_a t_b a (a - 1) / 2 + t_c t_d b (b - 1) / 2 + (a t_b)(b t_c).
    """
    law = np.zeros((9, 6), np.int64)
    offset = np.zeros(6, np.int64)
    w = m // n
    for col, (a, b, s) in ((0, g[:3]), (3, g[3:])):
        law[[0, 1, 2], [col, col + 1, col + 2]] = a  # (t X t^dagger)^a
        law[[3, 4, 5], [col, col + 1, col + 2]] = b  # (t Z t^dagger)^b
        law[6:, col + 2] = w * (a * (a - 1) // 2), w * (b * (b - 1) // 2), w * a * b
        offset[col + 2] = s
    return law, offset


def _image_product(t: np.ndarray, law, offset, n: int, m: int) -> np.ndarray:
    """The Weyl images of the products t_i g, (b, 6), from those of each
    t_i, t (b, 6), and g's ``_image_law``."""
    features = np.concatenate((t, t[:, [0, 4, 1]] * t[:, [1, 3, 3]]), axis=1)
    return (features @ law + offset) % np.array([n, n, m, n, n, m])


def _phase_order(n: int) -> int:
    """N, with every Weyl phase a multiple of m / N (module docstring)."""
    return n if n % 2 else 2 * n


def _weyl_keys(images: np.ndarray, n: int, m: int) -> np.ndarray:
    """Weyl images (b, 6) packed into one integer each, below n^4 N^2:
    sym = ((a n + b) n + c) n + d, then s and u in units of m / N, as
    digits mod N (``_phase_order``)."""
    big = _phase_order(n)
    unit = m // big
    sym = images[:, [0, 1, 3, 4]] @ np.array([n**3, n * n, n, 1])
    return (sym * big + images[:, 2] // unit) * big + images[:, 5] // unit


class _KeyProducts:
    """The packed keys of t g from those of t, for the generators g whose
    images are the rows of images (k, 6), as gathers from tables.

    The image law has no term mixing t's phases with its sym, so the key
    of t g is at[i] + reduce[phase[i] + linear[j]] for t's key i N^2 + j:
    at[i] and phase[i] are the law at sym i with t's phases zero, split
    into key and phases, and linear[j] the phases that t's pair j adds.
    Phase pairs are held in units of m / N as 2 N s + u, so that a sum does
    not carry, and reduce[2 N s + u] = (s mod N) N + u mod N.  All come
    from ``_image_product``, linear over the N^2 pairs and at and phase at
    each sym when it is first met (``learn``): a search meets few of the
    n^4 syms (one for W_n), so the tables take 4 n^4 bytes for the map of
    syms met plus 16 k bytes per sym met.
    """

    def __init__(self, images: np.ndarray, n: int, m: int):
        big = _phase_order(n)
        self.n, self.m, self.width = n, m, big * big
        self._unit, self._wide = m // big, np.array([2 * big, 1])
        self._laws = [_image_law(g, n, m) for g in images]
        pairs = np.zeros((big * big, 6), np.int64)
        pairs[:, [2, 5]] = np.indices((big, big)).reshape(2, -1).T * self._unit
        self._linear = [
            self._pairs(_image_product(pairs, law, 0, n, m)) for law, _ in self._laws
        ]
        s, u = np.divmod(np.arange(4 * big * big), 2 * big)
        self._reduce = s % big * big + u % big
        self._row = np.zeros(n**4, np.int32)
        self._at = self._phase = np.zeros((len(images), 0), np.int64)

    def _pairs(self, images: np.ndarray) -> np.ndarray:
        return (images[:, [2, 5]] // self._unit) @ self._wide

    def learn(self, syms: np.ndarray) -> None:
        """Evaluate the law at syms, distinct and not met before."""
        n, m, known = self.n, self.m, self._at.shape[1]
        self._row[syms] = np.arange(known, known + syms.size)
        rows = np.zeros((syms.size, 6), np.int64)
        rows[:, [0, 1, 3, 4]] = np.stack(np.unravel_index(syms, (n,) * 4), axis=1)
        image = np.array([_image_product(rows, *law, n, m) for law in self._laws])
        image = image.reshape(-1, 6)
        phase = self._pairs(image).reshape(len(self._laws), -1)
        image[:, [2, 5]] = 0
        at = _weyl_keys(image, n, m).reshape(phase.shape)
        self._at = np.concatenate((self._at, at), axis=1)
        self._phase = np.concatenate((self._phase, phase), axis=1)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        """The keys of t g for every generator g, generator-major."""
        sym, pair = np.divmod(keys, self.width)
        row = self._row[sym]
        tables = zip(self._at, self._phase, self._linear)
        return np.concatenate(
            [at[row] + self._reduce[ph[row] + lin[pair]] for at, ph, lin in tables]
        )


def _check_key_size(n: int, p: int = 1) -> None:
    """UncertifiedGeneratorsError unless keys below n^4 N^2 p fit in int64:
    the Weyl key, times p with a lead residue below it for the plain key."""
    size = n**4 * _phase_order(n) ** 2 * p
    if size >= 1 << 63:
        raise UncertifiedGeneratorsError(
            f"closure keys of dimension {n} (times the prime {p}) take "
            f"{size.bit_length()} bits, past the 63 of int64"
        )


class _KeyIndex:
    """The element index + 1 of each packed key met, 0 for any other; size
    counts the keys met.

    A key is sym * width + slot: a top array over the n^4 syms holds each
    sym's block of width slots, allocated when the sym is first met, and
    block 0, that of every sym not met, stays empty.  So a lookup is two
    gathers, and the index takes 4 n^4 bytes plus 4 width bytes per sym met.
    """

    def __init__(self, syms: int, width: int):
        self.width, self.size = width, 0
        self._top = np.zeros(syms, np.int32)
        self._blocks = np.zeros((2, width), np.int32)
        self._used = 1  # blocks allocated, the empty one included

    def get(self, keys: np.ndarray) -> np.ndarray:
        sym, slot = np.divmod(keys, self.width)
        return self._blocks[self._top[sym], slot]

    def add(self, keys: np.ndarray) -> np.ndarray:
        """Number keys, distinct and not met, in order after those met;
        returns the syms met for the first time."""
        sym, slot = np.divmod(keys, self.width)
        fresh = np.sort(sym[self._top[sym] == 0])
        fresh = fresh[np.diff(fresh, prepend=-1) != 0]
        used = self._used + fresh.size
        if used > len(self._blocks):
            grown = np.zeros((2 * used, self.width), np.int32)
            grown[: self._used] = self._blocks[: self._used]
            self._blocks = grown
        self._top[fresh] = np.arange(self._used, used)
        self._used, size = used, self.size + keys.size
        self._blocks[self._top[sym], slot] = np.arange(self.size + 1, size + 1)
        self.size = size
        return fresh


def _closure_prime(gens: list[UMatrix]) -> int:
    """The smallest prime p = 1 (mod lcm(2, m)) dividing no generator
    denominator that keeps a float64 product of n residues per entry,
    n (p - 1)^2, below the float64 bound; UncertifiedGeneratorsError when
    there is none."""
    n, step = gens[0].dim, math.lcm(2, gens[0].m)
    p = 1 + step
    while n * (p - 1) ** 2 < _FLOAT_EXACT:
        if is_prime(p) and all(g.den % p for g in gens):
            return p
        p += step
    raise UncertifiedGeneratorsError(
        f"no prime p = 1 (mod {step}) dividing no generator denominator keeps "
        f"n (p - 1)^2 below the float64 bound {_FLOAT_EXACT}"
    )


def _zeta_residue(m: int, p: int) -> int:
    """The primitive m-th root of unity mod p that _residues sends zeta_m to."""
    primes = _factorize(m)
    return next(
        r
        for r in (pow(a, (p - 1) // m, p) for a in range(2, p))
        if all(pow(r, m // q, p) != 1 for q in primes)
    )


def _residues(gens: list[UMatrix], p: int) -> np.ndarray:
    """The generators mod p, (k, n, n) float64, zeta_m sent to an m-th root."""
    root = _zeta_residue(gens[0].m, p)
    d = gens[0].num.shape[2]
    powers = np.array([pow(root, k, p) for k in range(d)], dtype=np.int64)
    out = [(g.num % p) @ powers % p * pow(g.den, -1, p) % p for g in gens]
    return np.array(out, dtype=np.float64)


def _leads(first: np.ndarray) -> np.ndarray:
    """The first nonzero entry of each row of a 2-D array."""
    return first[np.arange(len(first)), np.argmax(first != 0, axis=1)]


def _exact_rows(nums: np.ndarray, dens) -> np.ndarray:
    """Exact rows of canonical int64 arrays (b, ...) over dens.

    Each row holds the numerators, then the denominator.
    """
    b = nums.shape[0]
    rows = np.empty((b, nums[0].size + 1), np.int64)
    rows[:, :-1] = nums.reshape(b, -1)
    rows[:, -1] = dens
    return rows


class _Search(NamedTuple):
    """One breadth-first search: its key index, its tree (the parent and
    generator of each element, -1 for the identity, element 0) and the
    prime of its residues, None when it reads none.  A projective search
    run with scalars also holds the lead residue of each element's
    representative and the Schreier scalars S as residues; other searches
    hold None there."""

    index: _KeyIndex
    parents: np.ndarray
    gen_idx: np.ndarray
    prime: int | None
    leads: np.ndarray | None = None
    scalars: frozenset[int] | None = None


def _mod_p_closure(gens, images, projective, max_size, scalars=False) -> _Search:
    """Breadth-first closure of certified generators under right
    multiplication, keyed on the Weyl images of each element (module
    docstring); images holds the generators' images.

    Every Weyl phase is a multiple of m / N (N = n for odd n, 2 n for even
    n), so the Weyl key packs sym = ((a n + b) n + c) n + d and the phases
    in units of m / N below n^4 N^2.  The frontier is the keys of its
    elements and, for a plain search or one with scalars, their first rows
    mod p; only those choose a prime.  Each level takes the products with
    every generator at once, generator-major: each key a few gathers from
    ``_KeyProducts``, the first rows one (b, n) @ (n, n) product per
    generator.  The projective search keys the Weyl key alone, so it finds
    G/S, S the scalar subgroup of G; the plain one keys it times p plus the
    lead residue of the first row, so it finds G.  The keys are looked up
    in a ``_KeyIndex`` of 4 n^4 bytes plus 4 N^2 bytes (times p for the
    plain key) per sym met, and a stable argsort of those not in it gives
    the first occurrence of each new one.  The cap is checked as if after
    every (generator, _CHUNK) batch, so the tree and any
    ClosureCapError.partial_size depend only on which products are new.

    With scalars, the projective search also finds S.  Its rows carry the
    first row of a representative t_x, the element of G reached along the
    tree.  A product t_x g that lands on the element with representative
    t_y is c t_y for a scalar c of G, and its first row is c times that of
    t_y, so c = lead(t_x g) / lead(t_y) mod p, with lead(t_y) read by
    element.  These Schreier scalars generate S (Schreier's lemma, for the
    transversal of the tree's representatives).  A projective table needs
    no S and no residues, so only a plain table asks for them.
    """
    n, m = gens[0].dim, gens[0].m
    p = None if projective and not scalars else _closure_prime(gens)
    _check_key_size(n, 1 if projective else p)
    products = _KeyProducts(images, n, m)
    residues = None if p is None else _residues(gens, p)
    index = _KeyIndex(n**4, products.width * (1 if projective else p))
    # the identity: X and Z map to themselves, and its first row is e_0
    weyl = _weyl_keys(np.array([[1, 0, 0, 0, 1, 0]]), n, m)
    rows = None if p is None else np.eye(1, n, dtype=np.int64)
    products.learn(index.add(weyl if projective else weyl * p + 1))
    parents, gen_idx = [np.array([-1])], [np.array([-1])]
    if scalars:
        leads = np.ones(1, np.int64)  # the identity's
        inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], np.int64)
        ratios = np.arange(p) == 1
    base = 0  # index of the first frontier element
    while weyl.size:
        b = weyl.size
        weyl = keys = products(weyl)
        if residues is not None:
            rows = (rows.astype(np.float64) @ residues % p).reshape(-1, n)
            rows = rows.astype(np.int64)
            lead = _leads(rows)
            if not projective:
                keys = weyl * p + lead
        miss = np.flatnonzero(index.get(keys) == 0)
        miss = miss[np.argsort(keys[miss], kind="stable")]
        first = np.zeros(keys.size, bool)
        first[miss[np.diff(keys[miss], prepend=-1) != 0]] = True
        new = np.flatnonzero(first)
        if index.size + new.size > max_size:
            ends = np.minimum(np.arange(_CHUNK, b + _CHUNK, _CHUNK), b)
            ends = (np.arange(len(gens))[:, None] * b + ends).ravel()
            reached = index.size + np.searchsorted(new, ends)
            partial = int(reached[reached > max_size][0])
            raise ClosureCapError(f"closure exceeded cap {max_size}", partial)
        parents.append(base + new % b)
        gen_idx.append(new // b)
        base = index.size
        products.learn(index.add(keys[new]))
        if scalars:
            leads = np.concatenate((leads, lead[new]))
            rep = leads[index.get(keys) - 1]
            ratios[lead * inverse[rep] % p] = True
        weyl = weyl[new]
        if rows is not None:
            rows = rows[new]
    tree = index, np.concatenate(parents), np.concatenate(gen_idx), p
    if not scalars:
        return _Search(*tree)
    return _Search(*tree, leads, _subgroup(np.flatnonzero(ratios).tolist(), p))


def _subgroup(gens, p: int) -> frozenset[int]:
    """The subgroup of F_p^* that the residues gens generate."""
    group, new = {1}, {1}
    while new:
        new = {x * c % p for x in new for c in gens} - group
        group |= new
    return frozenset(group)


def _exact_products(gens: list[UMatrix], projective: bool):
    """compute(rows, gi): canonical exact rows of a chunk's products with gens[gi].

    Projectively each product is divided by its first nonzero entry, whose
    inverse comes from the conductor's inverse table.
    """
    dim, ctx = gens[0].dim, _context(gens[0].m)
    d = ctx.degree
    if projective:
        gens = [g.scalar_canonical() for g in gens]
    right_ops = [_right_operator(g.num, ctx) for g in gens]
    gen_dens = [np.array([[g.den]], dtype=np.int64) for g in gens]

    def compute(rows, gi):
        b = rows.shape[0]
        flat = rows[:, :-1].reshape(b * dim, dim * d)
        out = _exact_matmul(flat, right_ops[gi]).reshape(b, dim, dim, d)
        if projective:
            out, dens = _scalar_canonical_batch(out, ctx)
        else:
            # a 1 x 1 product: the denominators multiply exactly too
            dens = _exact_matmul(rows[:, -1:], gen_dens[gi])[:, 0]
        return _exact_rows(*_canonical_batch(out, dens))

    return compute


def _bodies(start, compute, parents, gens, names):
    """Exact rows and words of a closure tree, in discovery order.

    Level by level, each element is computed as its parent times its
    generator: one exact product per element.  Its word is its parent's
    word followed by the generator's name.
    """
    order = len(parents)
    rows = np.empty((order, start.shape[1]), np.int64)
    rows[0] = start[0]
    lo = 1  # the level being computed starts here
    while lo < order:
        # the next level starts at the first element whose parent is on this one
        later = np.flatnonzero(parents[lo:] >= lo)
        hi = lo + int(later[0]) if later.size else order
        for gi in range(len(names)):
            idx = lo + np.flatnonzero(gens[lo:hi] == gi)
            for c in range(0, idx.size, _CHUNK):
                sel = idx[c : c + _CHUNK]
                rows[sel] = compute(rows[parents[sel]], gi)
        lo = hi
    words = [()]
    for i in range(1, order):
        words.append(words[parents[i]] + (names[gens[i]],))
    return rows, words


def group_closure(
    generators,
    *,
    names=None,
    projective: bool = False,
    max_size: int = _DEFAULT_MAX_SIZE,
) -> GroupTable:
    """Breadth-first closure of a unitary matrix generating set.

    The generators must carry the module's finiteness certificate (each
    normalizing <X, Z> up to scalars, with a power equal to a root of unity
    times I); otherwise UncertifiedGeneratorsError names the first
    generator that fails and the clause it fails.  The certificate also
    reads each generator's Weyl images, g X g^dagger = zeta_m^s X^a Z^b
    and g Z g^dagger = zeta_m^u X^c Z^d, and every element is keyed on its
    own, which follow from the image law without a matrix product.  The
    key is injective modulo scalars (Schur's lemma, module docstring), so
    the projective order is exact and needs no prime.  The scalars are
    counted mod the smallest prime p = 1 (mod lcm(2, m)) dividing no
    generator denominator, where reduction is injective on the roots of
    unity of Q(zeta_m); a plain table records p in .prime (a projective
    one, which reads no residue, holds None there), and answers contains
    and center_of from its keys and residues.

    Both kinds of table run the projective search (module docstring).  A
    projective table holds its key index and its breadth-first tree.  A plain
    table runs it with the first row of each representative mod p and
    collects the Schreier scalars S, and its order is |G/S| |S|; it keeps
    no key per element of G.  max_size bounds the search the table holds,
    so |G/S| for either kind: past it, ClosureCapError carries the number
    of classes reached.  A plain order |G/S| |S| may exceed max_size.
    Keys must fit int64, n^4 N^2 of them (N = n for odd n, 2 n for even
    n), times p for the plain search; past that the closure raises
    UncertifiedGeneratorsError.

    Element bodies and words are built on first access: exactly, along a
    breadth-first tree, one product per element, sorted by UMatrix.key();
    each word is the first one found at the shallowest level.  A plain
    table builds the tree of the plain search then, once, under the same
    max_size, which then bounds |G|.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    m = gens[0].m
    for g in gens:
        if g.dim != dim or g.m != m:
            raise FieldMismatchError("generators must share dimension and conductor")
        if not g.is_unitary():
            raise ValueError("group generators must be unitary")
    if names is None:
        names = tuple(chr(ord("a") + i) for i in range(len(gens)))
    names = tuple(names)
    if len(names) != len(gens):
        raise ValueError(f"need {len(gens)} generator names, got {len(names)}")
    if max_size < 1:
        raise ValueError("max_size must be positive")

    images = _certified_images(gens, names)
    search = _mod_p_closure(gens, images, True, max_size, scalars=not projective)
    return GroupTable(gens, names, projective, images, search, max_size)


def wh_group(n: int, **kwargs) -> GroupTable:
    """Closure of (tau * I, X, Z); order n^3 for odd n, 2 n^3 for even."""
    tau, x, z = wh_generators(n)
    tau_mat = UMatrix.identity(n, x.m).scale(tau)
    kwargs.setdefault("names", ("t", "X", "Z"))
    return group_closure([tau_mat, x, z], **kwargs)


def clifford_group(n: int, projective: bool = False, **kwargs) -> GroupTable:
    """Closure of (X, F, S), optionally modulo scalars."""
    gens = clifford_generators(n)
    kwargs.setdefault("names", tuple(gens.keys()))
    return group_closure(list(gens.values()), projective=projective, **kwargs)


def kron(a: UMatrix, b: UMatrix) -> UMatrix:
    """Tensor product; entry (i k, j l) = a[i,j] * b[k,l]."""
    if a.m != b.m:
        raise FieldMismatchError("tensor factors must share a conductor")
    d = a.num.shape[2]
    # the field is commutative, so the operator can be built from the
    # smaller factor, which keeps it small
    small, large = (a, b) if a.dim <= b.dim else (b, a)
    ns, nl = small.dim, large.dim
    x, y = large.num.reshape(nl * nl, 1, d), small.num.reshape(1, ns * ns, d)
    t = _field_matmul(x, y, _context(a.m))
    # t[k, l, i, j] = large[k, l] * small[i, j]
    t = t.reshape(nl, nl, ns, ns, d)
    t = t.transpose(2, 0, 3, 1, 4) if small is a else t.transpose(0, 2, 1, 3, 4)
    n = a.dim * b.dim
    return UMatrix(n, a.m, t.reshape(n, n, d), a.den * b.den)
