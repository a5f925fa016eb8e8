"""Projective state vectors stored as exact coefficient arrays.

A Ray is an integer coefficient array of shape (n, phi(m)) over one
positive denominator, like a UMatrix, in canonical projective form: the
first nonzero amplitude is exactly 1 and the array is content-reduced, so
byte equality is ray equality.  ``Ray.amps`` is a cached view of the
amplitudes as ``Cyclotomic`` values.

Batch work runs on the exact kernel of ``qgroups``: ``_exact_matmul``
against ``_multiplier`` outputs, each with its float64 exactness bound.

* ``apply_all`` maps a whole list of rays through one matrix as one
  product, then canonicalizes every image at once by dividing it by its
  lead amplitude (``_scalar_canonical_batch``), so the denominators
  cancel.  Each lead, like each irrational Gram weight, is inverted once
  per conductor and primitive part (``_Context.inverse``).
* ``first_irrational`` and ``probabilities`` run one blocked Gram kernel
  over a row set and a column set.  A transition probability is
  |<a|b>|^2 / (|a|^2 |b|^2); on the numerator arrays the denominators
  cancel and it is |<a|b>|^2 * w_a * w_b with w = 1 / |num|^2.  Per tile
  the kernel forms <a|b> as conj(A) against the multiplier stack of B,
  multiplies it by its conjugate, and folds in the multiplier of each
  irrational weight (a canonical ray can have an irrational squared
  norm); a rational weight only scales the value and is applied last.
  The irrational weights are indexed once per call, and each tile slices
  its rows and columns from that index.
  In the power basis a pair is rational exactly when coefficients
  1..phi(m)-1 vanish.  Tiles are sized by a fixed budget of multiplier
  entries, so memory does not grow with the number of pairs.
* The probability is symmetric in a and b.  When the column set is the
  row set itself (the same object), a tile whose rows start at i0 keeps
  only its columns j >= i0, trimmed inside the column block, and the
  results mirror the upper triangle.  That forms about half the pairs of
  the square: ``verify_requirements``, ``verify_mub`` and the orbit MUB
  extraction pass one list twice.
* ``_norm_sq`` gives |x|^2 for a batch of numerator arrays: the conjugate
  against the multiplier stack.  It serves the Gram weights and the
  commensurability test of the generation step.

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
    UMatrix,
    _coeff_json,
    _content_reduce,
    _exact_matmul,
    _int_array,
    _multiplier,
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

# multiplier entries per Gram tile: the float64 and int64 copies of a tile
# stay near a megabyte whatever the number of pairs
_GRAM_BUDGET = 1 << 16


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

    __slots__ = (
        "dim", "m", "num", "den", "_amps", "_norm_inv", "_weight", "_hash", "_key"
    )

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
        self._weight = None
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
    ctx = _context(mat.m)
    n, d = mat.dim, ctx.degree
    # op[(j, a), (i, c)] is entry [a, c] of the multiplier of mat[i, j], so
    # a ray's flat numerator times op is the flat numerator of its image
    op = _right_operator(mat.num.transpose(1, 0, 2), ctx)
    flat = np.stack([ray.num for ray in rays]).reshape(len(rays), n * d)
    images = _exact_matmul(flat, op).reshape(len(rays), n, d)
    return _canonical_rays(images, mat.m)


def apply(mat: UMatrix, ray: Ray) -> Ray:
    """Canonicalized image of the ray under the matrix."""
    return apply_all(mat, [ray])[0]


# -- Gram kernel -------------------------------------------------------------------


def _norm_sq(nums: np.ndarray, ctx) -> np.ndarray:
    """Coefficients (b, d) of sum_i conj(x_i) x_i for each array of a batch
    (b, n, d): the conjugate of the flat array against its multiplier stack.
    """
    b, n, d = nums.shape
    conj = _exact_matmul(nums, ctx.conj_np).reshape(b, 1, n * d)
    mults = _multiplier(nums, ctx).reshape(b, n * d, d)
    return _exact_matmul(conj, mults)[:, 0]


def _fill_weights(rays, ctx):
    """Cache w = 1 / |num|^2 on each ray as (multiplier or None, Fraction).

    A rational w is kept as the Fraction alone.  An irrational one is kept
    as the multiplier of the numerator of its inverse, with the Fraction
    1 / denominator, so the kernel multiplies only by integers.
    """
    todo = [ray for ray in rays if ray._weight is None]
    if not todo:
        return
    n, d = todo[0].dim, ctx.degree
    step = max(1, _GRAM_BUDGET // (n * d * d))
    for lo in range(0, len(todo), step):
        chunk = todo[lo : lo + step]
        rows = _norm_sq(np.stack([ray.num for ray in chunk]), ctx).tolist()
        odd = [k for k, row in enumerate(rows) if any(row[1:])]
        invs = [ctx.inverse(tuple(rows[k])) for k in odd]
        mults = _multiplier(_int_array([inv.num for inv in invs]).reshape(-1, d), ctx)
        weights = {k: (w, Fraction(1, inv.den)) for k, inv, w in zip(odd, invs, mults)}
        for k, (ray, row) in enumerate(zip(chunk, rows)):
            ray._weight = weights[k] if k in weights else (None, Fraction(1, row[0]))


def _weight_index(rays) -> tuple[np.ndarray, np.ndarray | None]:
    """Positions of the rays with an irrational weight, ascending, and
    those weights' multipliers stacked (k, d, d), or None if there are none.
    """
    idx = np.array(
        [k for k, ray in enumerate(rays) if ray._weight[0] is not None], dtype=np.intp
    )
    return idx, (np.stack([rays[k]._weight[0] for k in idx]) if len(idx) else None)


def _fold_weights(prod: np.ndarray, index, lo: int, axis: int) -> np.ndarray:
    """Multiply prod (r, c, d), whose axis covers the rays lo, lo + 1, ...,
    by their irrational weights, sliced from the index of ``_weight_index``.
    """
    idx, mults = index
    a, b = np.searchsorted(idx, (lo, lo + prod.shape[axis]))
    if a == b:
        return prod
    sel, mults = idx[a:b] - lo, mults[a:b]
    if axis == 0:
        part = _exact_matmul(prod[sel], mults)
    else:
        part = _exact_matmul(prod[:, sel][:, :, None, :], mults)[:, :, 0, :]
    if part.dtype != prod.dtype:
        prod = prod.astype(object)
    if axis == 0:
        prod[sel] = part
    else:
        prod[:, sel] = part
    return prod


def _gram_tiles(rows, cols):
    """Yield (i0, j0, prod) over tiles of the pairs rows x cols.

    prod[i, j] holds the coefficients of |<a|b>|^2 times the irrational
    weights of a = rows[i0 + i] and b = cols[j0 + j], all on numerators;
    the probability is prod[i, j, 0] times the weights' Fractions when
    coefficients 1.. vanish, and irrational otherwise.

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
    _fill_weights(rows if symmetric else rows + cols, ctx)
    row_weights = _weight_index(rows)
    col_weights = row_weights if symmetric else _weight_index(cols)
    conj_rows = _exact_matmul(np.stack([r.num for r in rows]), ctx.conj_np)
    conj_rows = conj_rows.reshape(len(rows), n * d)
    col_nums = np.stack([c.num for c in cols])
    col_block = max(1, _GRAM_BUDGET // (n * d * d))
    for j0 in range(0, len(cols), col_block):
        block = col_nums[j0 : j0 + col_block]
        c = block.shape[0]
        # right[(i, a), (j, e)] is entry [a, e] of the multiplier of b_j[i]
        right = _multiplier(block, ctx).transpose(1, 2, 0, 3).reshape(n * d, c * d)
        row_block = max(1, _GRAM_BUDGET // (c * d * d))
        row_end = min(len(rows), j0 + c) if symmetric else len(rows)
        for i0 in range(0, row_end, row_block):
            lo = max(0, i0 - j0) if symmetric else 0
            ip = _exact_matmul(conj_rows[i0 : i0 + row_block], right[:, lo * d :])
            ip = ip.reshape(-1, d)
            conj_ip = _exact_matmul(ip, ctx.conj_np)
            prod = _exact_matmul(ip[:, None, :], _multiplier(conj_ip, ctx))
            prod = prod.reshape(-1, c - lo, d)
            prod = _fold_weights(prod, row_weights, i0, 0)
            prod = _fold_weights(prod, col_weights, j0 + lo, 1)
            yield i0, j0 + lo, prod


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
    for i0, j0, prod in _gram_tiles(rows, cols):
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
    for i0, j0, prod in _gram_tiles(rows, cols):
        lead = prod[..., 0].tolist()
        for i, j in zip(*np.nonzero(~(prod[..., 1:] != 0).any(axis=2))):
            a, b = rows[i0 + i], cols[j0 + j]
            p = lead[i][j] * a._weight[1] * b._weight[1]
            out[i0 + i][j0 + j] = p
            if symmetric:
                out[j0 + j][i0 + i] = p
    return out
