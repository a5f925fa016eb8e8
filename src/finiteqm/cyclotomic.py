"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored in the power basis 1, z, ..., z^(phi(m)-1) reduced
modulo the m-th cyclotomic polynomial Phi_m, as an integer coefficient
vector with a single positive denominator.  The stored form is canonical
(content coprime to the denominator), so equality, hashing and the JSON
serialization are exact and byte-stable.

The Galois action sigma_k: zeta -> zeta^k (gcd(k, m) = 1) sends power
z^j to the reduced power z^(jk).  Complex conjugation is sigma_(m-1), and
the inverse of a is the product of its other conjugates over the rational
norm N(a) = prod_k sigma_k(a), gathered along a chain of subgroups of
(Z/m)^x of prime index.  That takes a few products per prime factor of
phi(m) instead of phi(m) - 1 products (10 instead of 47 at m = 168).

Each conductor's tables are built once and shared (``_Context``): the
reduction rows, the Galois rows, the subgroup chain, the float64
multiplication table with its bound, and the inverses of integer
coefficient vectors, keyed by their primitive part.

Square roots of integers are embedded through quadratic Gauss sums, which
is what makes Fourier matrices with 1/sqrt(N) entries representable.
conductor_for(N) picks a conductor large enough for every construction in
dimension N: it is deliberately not minimal.
"""

from __future__ import annotations

import json
import math
import threading
from fractions import Fraction

import numpy as np

Rational = Fraction

__all__ = [
    "Rational",
    "Cyclotomic",
    "FieldMismatchError",
    "SqrtConstructionError",
    "canonical_dumps",
    "conductor_for",
    "cyclotomic_polynomial",
    "euler_phi",
    "sqrt_embed",
    "sqrt_rational",
    "zeta",
]


class FieldMismatchError(ValueError):
    """Binary operation on elements of different cyclotomic fields."""


class SqrtConstructionError(ValueError):
    """The target field does not contain the requested square root."""


def canonical_dumps(obj) -> str:
    """JSON with sorted keys and fixed separators; byte-stable across runs."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1, primes ascending."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
        p += 1
    if n > 1:
        factors[n] = 1
    return factors


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError(f"euler_phi needs m >= 1, got {m}")
    result = m
    for p in _factorize(m):
        result -= result // p
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("polynomial division is not exact")
        out[k - dd] = q
        for j in range(dd + 1):
            num[k - dd + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


_PHI_CACHE: dict[int, tuple[int, ...]] = {}
_PHI_LOCK = threading.Lock()


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, monic.

    Computed by exact division of x^m - 1 by the Phi_d of the proper
    divisors; results are cached per conductor.
    """
    if m < 1:
        raise ValueError(f"conductor must be >= 1, got {m}")
    with _PHI_LOCK:
        cached = _PHI_CACHE.get(m)
    if cached is not None:
        return cached
    if m == 1:
        poly: tuple[int, ...] = (-1, 1)
    else:
        num = [0] * (m + 1)
        num[0] = -1
        num[m] = 1
        rest = list(num)
        for d in range(1, m):
            if m % d == 0:
                rest = _poly_div_exact(rest, list(cyclotomic_polynomial(d)))
        poly = tuple(rest)
    with _PHI_LOCK:
        _PHI_CACHE[m] = poly
    return poly


def _unit_chain(m: int) -> tuple[tuple[int, int], ...]:
    """Steps (g_i, e_i) of a subgroup chain 1 = H_0 < ... < H_r = (Z/m)^x.

    H_i = H_(i-1) <g_i>, and e_i, the least e > 0 with g_i^e in H_(i-1),
    is prime, so sum(e_i - 1) is as small as any chain allows.  Every unit
    mod m is g_1^(j_1) ... g_r^(j_r) with 0 <= j_i < e_i in exactly one way.
    """
    group = {1 % m}
    chain = []
    for k in range(1, m):
        if math.gcd(k, m) != 1:
            continue
        while k not in group:
            e, power = 1, k
            while power not in group:
                power, e = power * k % m, e + 1
            p = min(_factorize(e))
            g = pow(k, e // p, m)
            chain.append((g, p))
            group = {h * pow(g, j, m) % m for h in group for j in range(p)}
    return tuple(chain)


class _Context:
    """Per-conductor reduction tables and inverses, built once and shared."""

    __slots__ = (
        "m",
        "degree",
        "phi_poly",
        "rows",
        "_galois",
        "galois_chain",
        "_inverses",
        "_lock",
        "_mult",
        "conj_np",
        "embed",
    )

    def __init__(self, m: int):
        self.m = m
        self.phi_poly = cyclotomic_polynomial(m)
        d = len(self.phi_poly) - 1
        self.degree = d
        # rows[k] = coefficients of z^k mod Phi_m, for 0 <= k < m
        rows: list[tuple[int, ...]] = []
        cur = [0] * d
        if d > 0:
            cur[0] = 1
        rows.append(tuple(cur))
        tail = self.phi_poly[:d]
        for _ in range(1, m):
            top = cur[d - 1]
            nxt = [0] * d
            for j in range(1, d):
                nxt[j] = cur[j - 1] - top * tail[j]
            nxt[0] = -top * tail[0]
            cur = nxt
            rows.append(tuple(cur))
        self.rows = tuple(rows)
        self._galois: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.galois_chain = _unit_chain(m)
        self._inverses: dict[tuple[int, ...], Cyclotomic] = {}  # see inverse()
        self._lock = threading.Lock()
        self._mult = None
        self.conj_np = np.array(self.galois_rows(-1), dtype=np.int64)
        self.conj_np.setflags(write=False)
        # complex embedding of the power basis, z -> exp(2*pi*i/m)
        self.embed = np.exp(2j * math.pi * np.arange(d) / m)

    def galois_rows(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Rows of sigma_k: row j holds z^(j k) mod Phi_m; needs gcd(k, m) = 1."""
        k %= self.m
        rows = self._galois.get(k)
        if rows is None:
            if math.gcd(k, self.m) != 1:
                raise ValueError(f"sigma_{k} needs gcd(k, {self.m}) = 1")
            rows = tuple(self.rows[j * k % self.m] for j in range(self.degree))
            self._galois[k] = rows
        return rows

    def inverse(self, coeffs: tuple[int, ...]) -> "Cyclotomic":
        """1 / a for integer coefficients a (over 1).

        a = c * u, with c = +-gcd(a) signed so that the first nonzero
        coefficient of u is positive.  The table holds 1 / u, computed once
        by Cyclotomic.inv, and 1 / a = (1 / u) / c.  It also holds 1 / a
        under a itself, so a repeated a is answered without keying it again.
        """
        inv = self._inverses.get(coeffs)
        if inv is not None:
            return inv
        c = math.gcd(*coeffs)
        if not c:
            raise ZeroDivisionError("inversion of zero cyclotomic")
        if next(v for v in coeffs if v) < 0:
            c = -c
        u = tuple(v // c for v in coeffs)
        inv = self._inverses.get(u)
        if inv is None:
            inv = self._inverses[u] = Cyclotomic(self.m, u, 1).inv()
        if c != 1:
            inv = self._inverses[coeffs] = inv / c
        return inv

    @property
    def mult(self) -> tuple[np.ndarray, int]:
        """(table, bound) of the multiplication z^a * z^b in the power basis.

        table[a, b*d + c] is coefficient c of z^(a+b), a read-only float64
        (d, d*d) array of small integers; bound is its largest |entry|.
        """
        if self._mult is None:
            with self._lock:
                if self._mult is None:
                    d = self.degree
                    # every row z^0 .. z^(2d-2) appears in the table; when
                    # 2d - 1 > m, z^k is the row of k mod m, since z^m = 1
                    red = [self.rows[k % self.m] for k in range(2 * d - 1)]
                    red = np.array(red, dtype=np.int64)
                    bound = max(int(np.abs(red).max()), 1)
                    t = red.astype(np.float64)[np.add.outer(np.arange(d), np.arange(d))]
                    t = t.reshape(d, d * d)
                    t.setflags(write=False)
                    self._mult = (t, bound)
        return self._mult


_CONTEXTS: dict[int, _Context] = {}
_CONTEXTS_LOCK = threading.Lock()


def _context(m: int) -> _Context:
    ctx = _CONTEXTS.get(m)
    if ctx is None:
        with _CONTEXTS_LOCK:
            ctx = _CONTEXTS.get(m)
            if ctx is None:
                ctx = _Context(m)
                _CONTEXTS[m] = ctx
    return ctx


def _normalized(m: int, nums: list[int], den: int) -> "Cyclotomic":
    if den == 0:
        raise ZeroDivisionError("cyclotomic denominator is zero")
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                break
    if g > 1:
        nums = [v // g for v in nums]
        den //= g
    if den > 1 and not any(nums):
        den = 1
    z = Cyclotomic.__new__(Cyclotomic)
    z.m = m
    z.num = tuple(nums)
    z.den = den
    z._hash = None
    return z


class Cyclotomic:
    """An exact element of Q(zeta_m) in canonical power-basis form."""

    __slots__ = ("m", "num", "den", "_hash")

    def __init__(self, m: int, num, den: int = 1):
        ctx = _context(m)
        nums = [int(v) for v in num]
        if len(nums) != ctx.degree:
            raise ValueError(
                f"conductor {m} needs {ctx.degree} coefficients, got {len(nums)}"
            )
        z = _normalized(m, nums, int(den))
        self.m = z.m
        self.num = z.num
        self.den = z.den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def make(cls, m: int, coeffs) -> "Cyclotomic":
        """Reduce sum(coeffs[k] * z^k) mod Phi_m; coeffs of any length."""
        ctx = _context(m)
        den = 1
        for c in coeffs:
            c = Fraction(c)
            den = den * c.denominator // math.gcd(den, c.denominator)
        folded = [0] * m
        for k, c in enumerate(coeffs):
            c = Fraction(c)
            folded[k % m] += c.numerator * (den // c.denominator)
        d = ctx.degree
        out = list(folded[:d])
        rows = ctx.rows
        for k in range(d, m):
            c = folded[k]
            if c:
                row = rows[k]
                for t in range(d):
                    if row[t]:
                        out[t] += c * row[t]
        return _normalized(m, out, den)

    @classmethod
    def zero(cls, m: int) -> "Cyclotomic":
        ctx = _context(m)
        return _normalized(m, [0] * ctx.degree, 1)

    @classmethod
    def one(cls, m: int) -> "Cyclotomic":
        return cls.from_rational(m, 1)

    @classmethod
    def from_rational(cls, m: int, q) -> "Cyclotomic":
        q = Fraction(q)
        ctx = _context(m)
        nums = [0] * ctx.degree
        nums[0] = q.numerator
        return _normalized(m, nums, q.denominator)

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return self.den == 1 and not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Canonical power-basis coefficients as reduced fractions."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def to_complex(self) -> complex:
        emb = _context(self.m).embed
        acc = 0j
        for v, e in zip(self.num, emb):
            if v:
                acc += v * e
        return acc / self.den

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.m != self.m:
                raise FieldMismatchError(
                    f"conductor mismatch: {self.m} vs {other.m}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == d2:
            nums = [a + b for a, b in zip(self.num, o.num)]
            return _normalized(self.m, nums, d1)
        g = math.gcd(d1, d2)
        s1 = d2 // g
        s2 = d1 // g
        nums = [a * s1 + b * s2 for a, b in zip(self.num, o.num)]
        return _normalized(self.m, nums, d1 // g * d2)

    __radd__ = __add__

    def __neg__(self):
        return _normalized(self.m, [-v for v in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            nums = [v * q.numerator for v in self.num]
            return _normalized(self.m, nums, self.den * q.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = _context(self.m)
        d = ctx.degree
        a, b = self.num, o.num
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        out = list(conv[:d])
        rows = ctx.rows
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k % self.m]  # 2d - 1 > m at odd prime powers
                for t in range(d):
                    if row[t]:
                        out[t] += c * row[t]
        return _normalized(self.m, out, self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "Cyclotomic":
        """Multiplicative inverse: the other Galois conjugates over the norm.

        For a not rational, the cofactor prod(sigma_k(a) : k a unit mod m,
        k != 1) times a is the norm N(a), a nonzero rational, so the
        cofactor over N(a) is a^-1.  A rational a is inverted directly.

        Both products run along the conductor's subgroup chain
        1 = H_0 < ... < H_r = (Z/m)^x, H_i = H_(i-1) <g_i> of prime index
        e_i.  If b = prod(sigma_h(a) : h in H), then the product over
        H <g> is b * t with t = sigma_g(b) ... sigma_(g^(e-1))(b), because
        the cosets g^j H (0 <= j < e) partition H <g>.  Multiplying the
        same t's together gives the product over H <g> without sigma_1.
        Each sigma_k is met exactly once, in sum(e_i - 1) + r - 1 products
        instead of phi(m) - 1, and the last b is N(a).
        """
        r = self.rational()
        if r is not None:
            if r == 0:
                raise ZeroDivisionError("inversion of zero cyclotomic")
            return Cyclotomic.from_rational(self.m, 1 / r)
        m = self.m
        norm, cofactor = self, None
        for g, e in _context(m).galois_chain:
            t = norm.galois(g)
            for j in range(2, e):
                t = t * norm.galois(pow(g, j, m))
            cofactor = t if cofactor is None else cofactor * t
            norm = norm * t
        n = norm.rational()
        if not n:
            raise ArithmeticError(f"norm of {self!r} is not a nonzero rational")
        return cofactor * (1 / n)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self * Fraction(q.denominator, q.numerator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = Cyclotomic.one(self.m)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def galois(self, k: int) -> "Cyclotomic":
        """The field automorphism sigma_k: zeta -> zeta^k, for gcd(k, m) = 1."""
        rows = _context(self.m).galois_rows(k)
        d = len(rows)
        out = [0] * d
        for c, row in zip(self.num, rows):
            if c:
                for t in range(d):
                    if row[t]:
                        out[t] += c * row[t]
        return _normalized(self.m, out, self.den)

    def conj(self) -> "Cyclotomic":
        """Complex conjugation sigma_(m-1); exact and involutive."""
        return self.galois(self.m - 1)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.rational()
            return r is not None and r == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.m == other.m and self.den == other.den and self.num == other.num

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.m, self.num, self.den))
            self._hash = h
        return h

    def __repr__(self):
        terms = []
        for k, v in enumerate(self.num):
            if not v:
                continue
            c = Fraction(v, self.den)
            terms.append(f"{c}" if k == 0 else f"{c}*z{k}" if k > 1 else f"{c}*z")
        body = " + ".join(terms) if terms else "0"
        return f"Cyc({self.m}: {body})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        """Canonical form {"m": conductor, "c": ["num/den", ...]}."""
        return {
            "m": self.m,
            "c": [f"{f.numerator}/{f.denominator}" for f in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Cyclotomic":
        m = int(obj["m"])
        coeffs = [Fraction(s) for s in obj["c"]]
        ctx = _context(m)
        if len(coeffs) != ctx.degree:
            raise ValueError("serialized coefficient count does not match phi(m)")
        return cls.make(m, coeffs)

    def key(self) -> str:
        return canonical_dumps(self.to_json())


# -- conductors and embedded square roots --------------------------------------


def conductor_for(n: int) -> int:
    """Conductor for all dimension-n constructions: lcm(24, 2n).

    Q(zeta_m) then contains zeta_2n (hence the diagonal phase generators),
    i, sqrt(2), sqrt(3), and sqrt(n); minimality is not promised.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.lcm(24, 2 * n)


def zeta(m: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_m^k."""
    ctx = _context(m)
    return _normalized(m, list(ctx.rows[k % m]), 1)


def _legendre(t: int, p: int) -> int:
    r = pow(t, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def sqrt_embed(n: int, m: int) -> Cyclotomic:
    """The positive square root of the integer n inside Q(zeta_m).

    Built from quadratic Gauss sums: for an odd prime p the sum
    g = sum_t legendre(t, p) * zeta_p^t squares to +p or -p, and sqrt(2)
    is zeta_8 + zeta_8^7.  A one-time floating evaluation fixes the sign;
    everything else is exact.
    """
    if n <= 0:
        raise ValueError(f"sqrt_embed needs a positive integer, got {n}")
    factors = _factorize(n)
    root = math.prod(p ** (e // 2) for p, e in factors.items())
    result = Cyclotomic.from_rational(m, root)
    for p in [p for p, e in factors.items() if e % 2]:
        if p == 2:
            if m % 8:
                raise SqrtConstructionError(f"sqrt(2) needs 8 | m, got m={m}")
            e = m // 8
            result = result * (zeta(m, e) + zeta(m, 7 * e))
            continue
        if m % p:
            raise SqrtConstructionError(f"sqrt({p}) needs {p} | m, got m={m}")
        e = m // p
        gauss = Cyclotomic.zero(m)
        for t in range(1, p):
            gauss = gauss + _legendre(t, p) * zeta(m, e * t)
        if p % 4 == 3:
            if m % 4:
                raise SqrtConstructionError(f"sqrt({p}) needs 4 | m, got m={m}")
            gauss = gauss * (-zeta(m, m // 4))
        result = result * gauss
    approx = result.to_complex()
    if abs(approx.imag) > 1e-9 or abs(approx.real**2 - n) > 1e-6 * max(n, 1):
        raise SqrtConstructionError(f"gauss-sum construction failed for n={n}, m={m}")
    if approx.real < 0:
        result = -result
    if result * result != Cyclotomic.from_rational(m, n):
        raise SqrtConstructionError(f"sqrt({n}) does not square back exactly in m={m}")
    return result


def sqrt_rational(q, m: int) -> Cyclotomic:
    """Positive square root of a positive rational inside Q(zeta_m)."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"sqrt_rational needs a positive rational, got {q}")
    return sqrt_embed(q.numerator * q.denominator, m) / q.denominator
