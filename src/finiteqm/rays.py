"""Projective state vectors stored as exact coefficient arrays.

A Ray is an integer coefficient array of shape (n, phi(m)) over one
positive denominator, like a UMatrix, in canonical projective form: the
first nonzero amplitude is exactly 1 and the array is content-reduced, so
byte equality is ray equality.  ``Ray.amps`` is a cached view of the
amplitudes as ``Cyclotomic`` values.

* ``apply_all`` maps a whole list of rays through one matrix as one
  ``_field_matmul``, the exact field product of ``qgroups``, then
  canonicalizes every image at once by dividing it by its lead amplitude
  (``_scalar_canonical_batch``).
* ``_norm_sq`` is the one squared norm, of a batch of coefficient arrays:
  |x|^2 is recovered from the embeddings of x (``_embed``) through the
  trace form (``_recover``) where the rounding bound of ``qgroups``
  (``_eps_d``) holds, and taken by field products elsewhere.  The Gram
  kernel and the candidate stage of ``states`` call it.
* ``first_irrational`` and ``probabilities`` run one Gram kernel.  A
  transition probability is x = |<a|b>|^2 w_a w_b on numerators, with
  w = 1 / |num|^2 inverted by ``_batch_inverse``; each tile of pairs forms
  x in floating point from the embeddings that ``_norm_sq`` read.  x is a
  totally real algebraic integer, and under the same bound its traces
  y_j = Tr(x z^-j) round to integers.  The tile decides each pair from
  h = phi(m) / 2 of them and recovers no coefficient: with the Ramanujan
  sums t_j = Tr(z^-j), x is rational exactly when d y_j = y_0 t_j for
  0 < j < h, and then x = y_0 / d, because the trace form is
  nondegenerate on the real subfield (Washington, *Introduction to
  Cyclotomic Fields*, ch. 2; the argument is in ``_gram_tiles``).  A tile
  past the bound reads the same verdict from ``_field_matmul`` products.
  When the column set is the row set (the same object:
  ``verify_requirements``, ``verify_mub``, the orbit MUB extraction),
  only the upper triangle of tiles is formed and mirrored.

  Against recovering all phi(m) coefficients through m T^-1 per tile (a
  d x d integer product, its bound scans, int64 casts, divisions by m),
  on 2 vCPU Xeon with numpy 2.4.6 and one BLAS thread (default threads in
  brackets): the literal check of the 8805 d3s2 states took 1.39-1.43 s
  against 4.34-4.54 s (1.43-1.50 against 4.39-4.60 s), ``cqs --dim 3
  --steps 2`` 3.6 against 7.5 s (3.3 against 6.7 s), and ``cqs --dim 2
  --steps 3`` 54.2 against 95.2 s (55.2 against 106.3 s), with the same
  stdout.

The scalar functions ``inner``, ``transition_probability`` and
``prob_rational`` work on ``Ray.amps`` in ``Cyclotomic`` arithmetic and
are the reference the kernel is tested against.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyclotomic, FieldMismatchError, _context
from .qgroups import (
    _GRAM_BUDGET,
    UMatrix,
    _batch_inverse,
    _coeff_json,
    _conj,
    _content_reduce,
    _embed,
    _eps_d,
    _field_matmul,
    _int_array,
    _real_traces,
    _recover,
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

    def _body(self):
        """The raw bytes of num, or its Python integers when it holds
        objects; canonical form makes it equal exactly for equal rays."""
        num = self.num
        return num.tobytes() if num.dtype != object else tuple(num.flat)

    def __eq__(self, other):
        if not isinstance(other, Ray):
            return NotImplemented
        return (
            self.m == other.m
            and self.den == other.den
            and self.num.shape == other.num.shape
            and self._body() == other._body()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, self._body()))
        return self._hash

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
        """Byte-stable sort key for deterministic set orderings: the text of
        ``canonical_dumps(self.to_json())``, written without JSON.  Each
        coefficient v is "p/q" for v / den in lowest terms, 0 as "0/1"."""
        if self._key is None:
            den, gcd = self.den, math.gcd
            rows = [
                ",".join([f'"{v // (g := gcd(v, den))}/{den // g}"' for v in row])
                for row in self.num.tolist()
            ]
            amps = ",".join(['{"c":[' + row + f'],"m":{self.m}}}' for row in rows])
            self._key = f'{{"amps":[{amps}],"dim":{self.dim}}}'
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

_TILE_ROWS = 16  # a Gram tile's columns fill max(1, _GRAM_BUDGET // d) pairs


def _norm_sq(nums: np.ndarray, ctx):
    """(norms (b, d), emb (h, b, 2n), l1 (b,)) of a batch (b, n, d):
    |x|^2 = sum_i conj(x_i) x_i of each array x, its entries' embeddings
    (``_embed``, real parts first) and l1(x).  |x|^2 is recovered from
    sum_i |sigma_k(x_i)|^2 where ``_eps_d(d, n)`` l1(x)^2 < 1/2, and taken
    by field products in chunks of the budget elsewhere."""
    m, d = ctx.m, ctx.degree
    b, n, _ = nums.shape
    emb, l1 = _embed(nums, m)
    h = len(emb) // 2
    emb = emb.reshape(2, h, b, n).transpose(1, 2, 0, 3).reshape(h, b, 2 * n)
    l1 = l1.sum(axis=1)
    ok = _eps_d(d, n) * l1 * l1 < 0.5
    good, rest = np.flatnonzero(ok), np.flatnonzero(~ok)
    parts = [_recover((emb[:, good] ** 2).sum(axis=2), m).T]
    step = max(1, _GRAM_BUDGET // (n * d * d))
    for sel in (rest[lo : lo + step] for lo in range(0, len(rest), step)):
        x = nums[sel]
        parts.append(_field_matmul(_conj(x, ctx)[:, None], x[:, :, None], ctx)[:, 0, 0])
    # int64 parts join an object part as Python integers
    norms = np.concatenate(parts)[np.argsort(np.concatenate((good, rest)))]
    return norms, emb, l1


def _gram_side(rays, ctx):
    """(order, nums, emb (h, b, 2n), wnum, wemb (h, b), dens, size) of the
    rays, all but dens in ascending size: emb is the embedding of
    ``_norm_sq``; 1 / |num|^2 = wnum[k] / dens[k] (``_batch_inverse``) and
    size = l1(num)^2 l1(wnum)."""
    nums = np.stack([ray.num for ray in rays])
    norms, emb, l1 = _norm_sq(nums, ctx)
    inv_nums, inv_dens, slot = _batch_inverse(norms, ctx)
    wemb, wl1 = _embed(inv_nums, ctx.m)
    size = l1 * l1 * wl1[slot]
    o = np.argsort(size, kind="stable")
    w = slot[o]
    dens = inv_dens[slot].tolist()
    # C order for the tiles' products, which a gather on axis 1 need not give
    emb, wemb = (np.ascontiguousarray(a) for a in (emb[:, o], wemb[: len(emb), w]))
    return o, nums[o], emb, inv_nums[w], wemb, dens, size[o]


def _exact_tile(a, b, wa, wb, ctx):
    """(irrational, lead), each (R, C), of x = |<a|b>|^2 wa wb by generic
    field products: <a|b>, then times its conjugate in chunks of the
    budget, then wa, wb.  x is rational when its coefficients 1.. vanish,
    and its lead is coefficient 0."""
    r, c, d = len(a), len(b), ctx.degree
    ip = _field_matmul(_conj(a, ctx), b.transpose(1, 0, 2), ctx).reshape(-1, 1, 1, d)
    step = max(1, _GRAM_BUDGET // (d * d))
    parts = [ip[k : k + step] for k in range(0, len(ip), step)]
    # int64 parts join an object part as Python integers
    sq = np.concatenate([_field_matmul(p, _conj(p, ctx), ctx) for p in parts])
    sq = _field_matmul(sq.reshape(r, c, 1, d), wa[:, None, None], ctx)
    prod = _field_matmul(sq[:, :, None], wb[:, None, None], ctx).reshape(r, c, d)
    return (prod[..., 1:] != 0).any(axis=2), prod[..., 0]


def _gram_tiles(rows, cols):
    """Yield (ri, cj, irrational, lead, row_dens, col_dens) over tiles of
    rows x cols.

    For a = rows[ri[i]], b = cols[cj[j]] and x = |<a|b>|^2 wnum_a wnum_b
    (``_gram_side``), irrational[i, j] says x is not rational; otherwise x
    is the integer lead[i, j] and the probability is
    lead[i, j] / (row_dens[ri[i]] col_dens[cj[j]]).  Rays go in ascending
    size, so large ones fail the bound below in their own tiles only.  A
    tile is ``_TILE_ROWS`` rows by the columns that fill
    max(1, _GRAM_BUDGET // d) pairs; when cols is rows, it takes the
    columns from its first row's position on.  x is totally real, its
    embeddings |sigma_k(<a|b>)|^2 times those of the weights, with
    conj(a) b = (ar br + ai bi) + i (ar bi - ai br): two real products per
    embedding, (h, R, 2n) @ (h, 2n, C).

    The verdict reads h = d / 2 rounded traces y_j = Tr(x z^-j), one
    (h, h) @ (h, R C) product with the table of ``_real_traces``, and no
    coefficient: with the Ramanujan sums t_j = Tr(z^-j), x is rational
    exactly when d y_j = y_0 t_j for 0 < j < h.  If x = q is rational,
    y_j = q t_j.  Conversely, x - y_0 / d lies in the real subfield K+ and
    is trace-orthogonal to every z^j + z^-j, 0 <= j < h (for real w,
    Tr(w z^-j) = Tr(w z^j), a trace being invariant under conjugation);
    those form a basis of K+, as z^j + z^-j is monic of degree j in
    z + z^-1, and the trace form is nondegenerate on K+, so it is 0.  x is
    an algebraic integer, so a rational x is the integer y_0 / d, and a
    remainder raises ArithmeticError.  Every product is exact in float64
    (``_real_traces``).

    The bound is that of ``_eps_d`` for K = n, with S = size(a) size(b)
    bounding |sigma_k(x)|: to sigma_k(<a|b>), off by 2 e1 + sqrt2 gamma_2n
    relative to its bound, x adds its square (doubling that), two embedded
    weights (2 delta + 2 gamma_d) and two products (2 gamma_2), and its
    traces are off by under d S (9 delta + u (8.2 d + 5.7 n + 4)), still
    below eps d S.  A tile whose largest row size times largest column size
    meets ``_eps_d(d, n)`` S < 1/2 rounds every trace to its integer; any
    other takes ``_exact_tile``.
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
    trace, sums = _real_traces(m)
    ro, rn, remb, rw, rwemb, row_dens, rsize = row = _gram_side(rows, ctx)
    col = row if symmetric else _gram_side(cols, ctx)
    co, cn, cemb, cw, cwemb, col_dens, csize = col
    cre = np.ascontiguousarray(cemb.transpose(0, 2, 1))
    cim = np.concatenate((cre[:, n:], -cre[:, :n]), axis=1)
    r = min(len(rows), _TILE_ROWS)
    c = max(1, _GRAM_BUDGET // d // r)
    for i0 in range(0, len(rows), r):
        for j0 in range(i0 if symmetric else 0, len(cols), c):
            i, j = slice(i0, i0 + r), slice(j0, j0 + c)
            if _eps_d(d, n) * rsize[i].max() * csize[j].max() < 0.5:
                # in place: the elementwise passes cost more than the products
                x, im = remb[:, i] @ cre[:, :, j], remb[:, i] @ cim[:, :, j]
                x *= x
                im *= im
                x += im
                x *= rwemb[:, i, None]
                x *= cwemb[:, None, j]
                y = np.rint(trace @ x.reshape(len(x), -1)).reshape(x.shape)
                irrational = (d * y[1:] != sums[1:, None, None] * y[0]).any(axis=0)
                lead = y[0] / d
                if (np.rint(lead) != lead)[~irrational].any():
                    raise ArithmeticError(
                        "the trace of a rational Gram entry is not divisible by phi(m)"
                    )
                lead = lead.astype(np.int64)
            else:
                irrational, lead = _exact_tile(rn[i], cn[j], rw[i], cw[j], ctx)
            yield ro[i], co[j], irrational, lead, row_dens, col_dens


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
    for ri, cj, bad, _, _, _ in _gram_tiles(rows, cols):
        # every tile entry is a correct verdict, so its mirror is too
        spans = [(ri, cj, bad), (cj, ri, bad.T)] if symmetric else [(ri, cj, bad)]
        for r, c, tile in spans:
            first[r] = np.minimum(first[r], np.where(tile, c, len(cols)).min(axis=1))
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
    # values recur (0, 1 / N and 1 across an MUB set): build each once
    fraction = functools.lru_cache(maxsize=None)(Fraction)
    for ri, cj, irrational, lead, row_dens, col_dens in _gram_tiles(rows, cols):
        lead, ri, cj = lead.tolist(), ri.tolist(), cj.tolist()
        ii, jj = np.nonzero(~irrational)
        for i, j in zip(ii.tolist(), jj.tolist()):
            a, b = ri[i], cj[j]
            out[a][b] = p = fraction(lead[i][j], row_dens[a] * col_dens[b])
            if symmetric:
                out[b][a] = p
    return out
