"""Projective state vectors stored as exact coefficient arrays.

A Ray is an integer coefficient array of shape (n, phi(m)) over one
positive denominator, like a UMatrix, in canonical projective form: the
first nonzero amplitude is exactly 1 and the array is content-reduced, so
byte equality is ray equality.  ``Ray.amps`` is a cached view of the
amplitudes as ``Cyclotomic`` values.

Batch work runs on the exact kernel of ``qgroups``: every field product
is ``_field_matmul``, or ``_exact_matmul`` against an operator of
``_right_operator`` where one operator serves many products, each with
its float64 exactness bound.

* ``apply_all`` maps a whole list of rays through one matrix as one
  product, then canonicalizes every image at once by dividing it by its
  lead amplitude (``_scalar_canonical_batch``), so the denominators
  cancel.  Each lead, like each irrational Gram weight, is inverted once
  per conductor and primitive part (``_Context.inverse``).
* ``first_irrational`` and ``probabilities`` run one blocked Gram kernel
  over a row set and a column set.  A transition probability is
  |<a|b>|^2 / (|a|^2 |b|^2); on the numerator arrays the denominators
  cancel and it is |<a|b>|^2 * w_a * w_b with w = 1 / |num|^2.  Per tile
  the kernel forms <a|b> as conj(A) against the right operator of B,
  multiplies it by its conjugate, and folds in the operator of each
  irrational weight (a canonical ray can have an irrational squared
  norm); the weights' integer denominators are divided out last.
  The weights are computed once per call (``_weights``), and each tile
  slices its rows and columns from that index.
  In the power basis a pair is rational exactly when coefficients
  1..phi(m)-1 vanish.  Tiles are sized by a fixed budget of multiplier
  entries, so memory does not grow with the number of pairs.
* The probability is symmetric in a and b.  When the column set is the
  row set itself (the same object), a tile whose rows start at i0 keeps
  only its columns j >= i0, trimmed inside the column block, and the
  results mirror the upper triangle.  That forms about half the pairs of
  the square: ``verify_requirements``, ``verify_mub`` and the orbit MUB
  extraction pass one list twice.
* ``_norm_sq`` gives |x|^2 for a batch of numerator arrays: one field
  product of the conjugate row against the column.  It serves the Gram
  weights and the commensurability test of the generation step.

The scalar functions ``inner``, ``transition_probability`` and
``prob_rational`` work on ``Ray.amps`` in ``Cyclotomic`` arithmetic and
are the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyclotomic, FieldMismatchError, _context, canonical_dumps
from .qgroups import (
    _GRAM_BUDGET,
    UMatrix,
    _coeff_json,
    _conj,
    _content_reduce,
    _exact_matmul,
    _field_matmul,
    _int_array,
    _right_operator,
    _scalar_canonical_batch,
)

__all__ = [
    "Ray",
    "apply",
    "apply_all",
    "inner",
    "ontic_ray",
    "prob_rational",
    "probabilities",
    "first_irrational",
    "rays_of",
    "transition_probability",
]

def _canonical_rays(nums: np.ndarray, m: int) -> list["Ray"]:
    """Rays of a batch (b, n, d) of nonzero numerators over Q(zeta_m).

    Each array is divided by its lead amplitude, which cancels any scalar
    factor and denominator, and then content-reduced.
    """
    out, dens = _content_reduce(*_scalar_canonical_batch(nums, _context(m)))
    return [Ray._from_canonical(m, num.copy(), int(den)) for num, den in zip(out, dens)]


def _amplitude_numerators(vectors) -> tuple[np.ndarray, int]:
    """The (b, n, d) numerators of amplitude vectors, and their conductor.

    Each vector is scaled by the common denominator of its amplitudes,
    which canonicalization cancels again.
    """
    rows = []
    m = None
    for amps in vectors:
        if not amps:
            raise ValueError("empty amplitude vector")
        if m is None:
            m, n = amps[0].m, len(amps)
        if len(amps) != n:
            raise ValueError("amplitude vectors of different lengths")
        den = 1
        for a in amps:
            if a.m != m:
                raise FieldMismatchError("mixed conductors in amplitudes")
            den = math.lcm(den, a.den)
        if all(a.is_zero() for a in amps):
            raise ValueError("zero vector does not define a ray")
        rows.append([[v * (den // a.den) for v in a.num] for a in amps])
    return _int_array(rows), m


class Ray:
    """Projective state: canonical coefficient array, first nonzero entry 1.

    ``num`` is int64 unless a coefficient does not fit, in which case it
    holds Python integers; which one follows from the ray alone.
    """

    __slots__ = ("dim", "m", "num", "den", "_amps", "_norm_inv", "_hash", "_key")

    def __init__(self, amps):
        (ray,) = rays_of([amps])
        self._assign(ray.m, ray.num, ray.den)

    @classmethod
    def _from_canonical(cls, m: int, num: np.ndarray, den: int) -> "Ray":
        """Wrap a canonical numerator array without reducing it again."""
        self = cls.__new__(cls)
        self._assign(m, num, den)
        return self

    def _assign(self, m: int, num: np.ndarray, den: int):
        if num.dtype == object:
            num = _int_array(num)
        num.setflags(write=False)
        self.dim = num.shape[0]
        self.m = m
        self.num = num
        self.den = den
        self._amps = None
        self._norm_inv = None
        self._hash = None
        self._key = None

    @property
    def amps(self) -> tuple[Cyclotomic, ...]:
        """The amplitudes as Cyclotomic values, built once."""
        if self._amps is None:
            self._amps = tuple(
                Cyclotomic(self.m, row, self.den) for row in self.num.tolist()
            )
        return self._amps

    def norm_sq(self) -> Cyclotomic:
        acc = Cyclotomic.zero(self.m)
        for a in self.amps:
            if not a.is_zero():
                acc = acc + a.conj() * a
        return acc

    def norm_sq_inv(self) -> Cyclotomic:
        if self._norm_inv is None:
            self._norm_inv = self.norm_sq().inv()
        return self._norm_inv

    def __eq__(self, other):
        if not isinstance(other, Ray):
            return NotImplemented
        return (
            self.m == other.m
            and self.den == other.den
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            num = self.num
            body = num.tobytes() if num.dtype != object else tuple(num.flat)
            h = hash((self.den, body))
            self._hash = h
        return h

    def __repr__(self):
        return f"Ray({', '.join(repr(a) for a in self.amps)})"

    def to_json(self) -> dict:
        """Each amplitude as Cyclotomic.to_json writes it."""
        return {"dim": self.dim, "amps": _coeff_json(self.num, self.den, self.m)}

    @classmethod
    def from_json(cls, obj: dict) -> "Ray":
        amps = [Cyclotomic.from_json(a) for a in obj["amps"]]
        if len(amps) != obj["dim"]:
            raise ValueError("amplitude count does not match dim")
        return cls(amps)

    def key(self) -> str:
        """Byte-stable sort key for deterministic set orderings."""
        if self._key is None:
            self._key = canonical_dumps(self.to_json())
        return self._key


def ontic_ray(n: int, k: int, m: int) -> Ray:
    """Basis state |k> in dimension n over Q(zeta_m)."""
    num = np.zeros((n, _context(m).degree), dtype=np.int64)
    num[k % n, 0] = 1
    return Ray._from_canonical(m, num, 1)


def inner(a: Ray, b: Ray) -> Cyclotomic:
    """<a|b> = sum conj(a_i) b_i on the stored representatives."""
    if a.dim != b.dim or a.m != b.m:
        raise FieldMismatchError("rays of different dimension or conductor")
    acc = Cyclotomic.zero(a.m)
    for x, y in zip(a.amps, b.amps):
        if not x.is_zero() and not y.is_zero():
            acc = acc + x.conj() * y
    return acc


def transition_probability(a: Ray, b: Ray) -> Cyclotomic:
    """|<a|b>|^2 / (|a|^2 |b|^2); exact, real, scale-invariant."""
    ip = inner(a, b)
    if ip.is_zero():
        return Cyclotomic.zero(a.m)
    return ip * ip.conj() * a.norm_sq_inv() * b.norm_sq_inv()


def prob_rational(a: Ray, b: Ray) -> Fraction | None:
    """The transition probability as a Fraction when rational, else None."""
    return transition_probability(a, b).rational()


def rays_of(vectors) -> list[Ray]:
    """Ray(amps) for each amplitude vector, canonicalized as one batch."""
    vectors = [tuple(amps) for amps in vectors]
    if not vectors:
        return []
    return _canonical_rays(*_amplitude_numerators(vectors))


def apply_all(mat: UMatrix, rays) -> list[Ray]:
    """Canonicalized images of the rays under the matrix, in input order."""
    rays = list(rays)
    for ray in rays:
        if mat.dim != ray.dim or mat.m != ray.m:
            raise FieldMismatchError("matrix and ray dimension or conductor mismatch")
    if not rays:
        return []
    # a ray as a row times the transposed matrix is the row of its image
    nums = np.stack([ray.num for ray in rays])
    images = _field_matmul(nums, mat.num.transpose(1, 0, 2), _context(mat.m))
    return _canonical_rays(images, mat.m)


def apply(mat: UMatrix, ray: Ray) -> Ray:
    """Canonicalized image of the ray under the matrix."""
    return apply_all(mat, [ray])[0]


# -- Gram kernel -------------------------------------------------------------------


def _norm_sq(nums: np.ndarray, ctx) -> np.ndarray:
    """Coefficients (b, d) of sum_i conj(x_i) x_i for each array of a batch
    (b, n, d): one field product of the conjugate as a row against the
    array as a column.
    """
    return _field_matmul(_conj(nums, ctx)[:, None], nums[:, :, None], ctx)[:, 0, 0]


def _weights(rays, ctx):
    """The Gram weights w = 1 / |num|^2 of the rays, as (index, dens).

    Each w is an integer numerator over the positive integer dens[k], so
    the kernel multiplies only by integers.  A rational w has numerator 1
    and is not indexed.  index holds the positions of the rays with an
    irrational w, ascending, and the right operators (k, d, d) of their
    numerators.  The squared norms are formed in chunks of the Gram budget.
    """
    n, d = rays[0].dim, ctx.degree
    step = max(1, _GRAM_BUDGET // (n * d * d))
    rows = []
    for lo in range(0, len(rays), step):
        chunk = np.stack([ray.num for ray in rays[lo : lo + step]])
        rows += _norm_sq(chunk, ctx).tolist()
    idx = [k for k, row in enumerate(rows) if any(row[1:])]
    invs = [ctx.inverse(tuple(rows[k])) for k in idx]
    dens = [row[0] for row in rows]
    for k, inv in zip(idx, invs):
        dens[k] = inv.den
    inv_nums = _int_array([inv.num for inv in invs]).reshape(-1, 1, 1, d)
    return (np.array(idx, dtype=np.intp), _right_operator(inv_nums, ctx)), dens


def _fold_weights(prod: np.ndarray, index, lo: int, axis: int) -> np.ndarray:
    """Multiply prod (r, c, d), whose axis covers the rays lo, lo + 1, ...,
    by their irrational weights, sliced from the index of ``_weights``.
    """
    idx, ops = index
    a, b = np.searchsorted(idx, (lo, lo + prod.shape[axis]))
    if a == b:
        return prod
    sel, ops = idx[a:b] - lo, ops[a:b]
    if axis == 0:
        part = _exact_matmul(prod[sel], ops)
    else:
        part = _exact_matmul(prod[:, sel][:, :, None, :], ops)[:, :, 0, :]
    if part.dtype != prod.dtype:
        prod = prod.astype(object)
    if axis == 0:
        prod[sel] = part
    else:
        prod[:, sel] = part
    return prod


def _gram_tiles(rows, cols):
    """Yield (i0, j0, prod, row_dens, col_dens) over tiles of the pairs
    rows x cols.

    prod[i, j] holds the coefficients of |<a|b>|^2 times the weight
    numerators of a = rows[i0 + i] and b = cols[j0 + j], all on numerators;
    the probability is prod[i, j, 0] / (row_dens[i0 + i] * col_dens[j0 + j])
    when coefficients 1.. vanish, and irrational otherwise.  The weight
    denominators (``_weights``) cover all rows and all columns.

    When cols is rows the pairs are symmetric, and a tile whose rows start
    at i0 keeps only its columns j >= i0.  Every pair with j >= i is then
    yielded once, and the pairs below the diagonal mostly are not.
    """
    if not rows or not cols:
        return
    symmetric = cols is rows
    n, m = rows[0].dim, rows[0].m
    for ray in rows if symmetric else rows + cols:
        if ray.dim != n or ray.m != m:
            raise FieldMismatchError("rays of different dimension or conductor")
    ctx = _context(m)
    d = ctx.degree
    row_weights, row_dens = _weights(rows, ctx)
    col_weights, col_dens = (
        (row_weights, row_dens) if symmetric else _weights(cols, ctx)
    )
    conj_rows = _conj(np.stack([r.num for r in rows]), ctx).reshape(len(rows), n * d)
    col_nums = np.stack([c.num for c in cols])
    col_block = max(1, _GRAM_BUDGET // (n * d * d))
    for j0 in range(0, len(cols), col_block):
        block = col_nums[j0 : j0 + col_block]
        c = block.shape[0]
        # conj(a) as a row times the columns b_j is the row of <a|b_j>
        right = _right_operator(block.transpose(1, 0, 2), ctx)
        row_block = max(1, _GRAM_BUDGET // (c * d * d))
        row_end = min(len(rows), j0 + c) if symmetric else len(rows)
        for i0 in range(0, row_end, row_block):
            lo = max(0, i0 - j0) if symmetric else 0
            ip = _exact_matmul(conj_rows[i0 : i0 + row_block], right[:, lo * d :])
            # one batch axis over all pairs: BLAS sees (pairs, d) @ (d, d)
            ip = ip.reshape(-1, d)
            prod = _field_matmul(ip[:, None, None], _conj(ip, ctx)[:, None, None], ctx)
            prod = prod.reshape(-1, c - lo, d)
            prod = _fold_weights(prod, row_weights, i0, 0)
            prod = _fold_weights(prod, col_weights, j0 + lo, 1)
            yield i0, j0 + lo, prod, row_dens, col_dens


def first_irrational(rows, cols) -> np.ndarray:
    """For each a in rows, the index of the first b in cols for which
    prob_rational(a, b) is None, or -1; computed by the Gram kernel.

    Passing the same object as rows and cols computes the upper triangle
    only, and each tile also updates the rows of its mirror.
    """
    symmetric = cols is rows
    rows = list(rows)
    cols = rows if symmetric else list(cols)
    first = np.full(len(rows), len(cols), dtype=np.int64)
    for i0, j0, prod, _, _ in _gram_tiles(rows, cols):
        bad = (prod[..., 1:] != 0).any(axis=2)
        # every tile entry is a correct verdict, so its mirror is too
        spans = [(i0, j0, bad), (j0, i0, bad.T)] if symmetric else [(i0, j0, bad)]
        for r0, c0, tile in spans:
            hit = np.where(tile.any(axis=1), c0 + tile.argmax(axis=1), len(cols))
            part = first[r0 : r0 + len(tile)]
            np.minimum(part, hit, out=part)
    first[first == len(cols)] = -1
    return first


def probabilities(rows, cols) -> list[list[Fraction | None]]:
    """prob_rational(a, b) for every a in rows and b in cols, as a nested
    list, computed by the Gram kernel.

    Passing the same object as rows and cols computes the upper triangle
    only and mirrors it.
    """
    symmetric = cols is rows
    rows = list(rows)
    cols = rows if symmetric else list(cols)
    out: list[list[Fraction | None]] = [[None] * len(cols) for _ in rows]
    for i0, j0, prod, row_dens, col_dens in _gram_tiles(rows, cols):
        lead = prod[..., 0].tolist()
        for i, j in zip(*np.nonzero(~(prod[..., 1:] != 0).any(axis=2))):
            p = Fraction(lead[i][j], row_dens[i0 + i] * col_dens[j0 + j])
            out[i0 + i][j0 + j] = p
            if symmetric:
                out[j0 + j][i0 + i] = p
    return out
