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
from functools import lru_cache

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


def _mobius(n: int) -> int:
    """The Moebius function mu(n), for n >= 1."""
    factors = _factorize(n)
    return 0 if any(e > 1 for e in factors.values()) else (-1) ** len(factors)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, low degree first, monic.

    Phi_m(x) = Phi_r(x^(m / r)) for r = rad(m), the product of the primes
    dividing m, and for r > 1 the Moebius product
    Phi_r = prod_(e | r) (1 - x^e)^mu(r / e) holds (the signs of
    x^e - 1 = -(1 - x^e) cancel, as sum_(e | r) mu(r / e) = 0).  It is
    taken as a power series mod x^(phi(r) + 1), on Python integers: each
    factor 1 - x^e is one shift-subtract, and each inverse factor
    1 / (1 - x^e) a running sum with stride e.  The factors of exponent +1
    go first, so every partial product is a polynomial.
    """
    if m < 1:
        raise ValueError(f"conductor must be >= 1, got {m}")
    primes = list(_factorize(m))
    r = math.prod(primes)
    if r == 1:
        return (-1, 1)
    d = euler_phi(r)
    divisors = [1]
    for p in primes:
        divisors += [e * p for e in divisors]
    series = [1] + [0] * d
    for sign in (1, -1):
        for e in divisors:
            if _mobius(r // e) != sign:
                continue
            if sign == 1:
                for k in range(d, e - 1, -1):
                    series[k] -= series[k - e]
            else:
                for k in range(e, d + 1):
                    series[k] += series[k - e]
    poly = [0] * ((m // r) * d + 1)
    poly[:: m // r] = series
    return tuple(poly)


def _reduction_rows(m: int, phi: tuple[int, ...]) -> np.ndarray:
    """The (m, phi(m)) int64 array whose row k holds the coefficients of z^k.

    With r = rad(m) and s = m / r, Phi_m(x) = Phi_r(x^s), so y = z^s is a
    root of Phi_r, and for 0 <= j < s, z^(q s + j) = y^q z^j has the
    coefficients of y^q mod Phi_r at the positions a s + j: the table of
    the squarefree conductor r, spread over m.  Its r rows come from
    y^(q + 1) = y y^q, one shift and one subtraction of Phi_r's tail per
    row, on Python integers.
    """
    d = len(phi) - 1
    s = m // math.prod(_factorize(m))
    tail = phi[:d:s]  # Phi_r without its leading 1
    cur = [1] + [0] * (len(tail) - 1)
    small = [cur]
    for _ in range(1, m // s):
        top = cur[-1]
        cur = [-top * tail[0]] + [c - top * t for c, t in zip(cur, tail[1:])]
        small.append(cur)
    rows = np.zeros((m // s, s, len(tail), s), dtype=np.int64)
    spread = np.arange(s)
    rows[:, spread, :, spread] = small
    return rows.reshape(m, d)


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
    """Per-conductor reduction tables and inverses, built once and shared.

    The one table built from Phi_m is ``powers``, the read-only int64
    (m, phi(m)) array of the reduction rows (``_reduction_rows``): row k
    holds the coefficients of z^k.  The others are gathers from it: the
    scalar code's tuple ``rows``, the float64 ``roots`` and the row ->
    exponent lookup of ``root_exponents`` (all built on first use), the
    Galois rows, the conjugation table and the multiplication table.
    """

    __slots__ = (
        "m",
        "degree",
        "phi_poly",
        "powers",
        "_rows",
        "_roots",
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
        self.powers = _reduction_rows(m, self.phi_poly)
        self.powers.setflags(write=False)
        self._rows = None
        self._roots = None
        self._galois: dict[int, tuple[tuple[int, ...], ...]] = {}
        self.galois_chain = _unit_chain(m)
        self._inverses: dict[tuple[int, ...], Cyclotomic] = {}  # see inverse()
        self._lock = threading.Lock()
        self._mult = None
        self.conj_np = self.powers[-np.arange(d) % m]  # row j: z^(-j)
        self.conj_np.setflags(write=False)
        # complex embedding of the power basis, z -> exp(2*pi*i/m)
        self.embed = np.exp(2j * math.pi * np.arange(d) / m)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``powers`` as tuples of Python integers."""
        if self._rows is None:
            self._rows = tuple(map(tuple, self.powers.tolist()))
        return self._rows

    def _root_tables(self):
        if self._roots is None:
            table = self.powers.astype(np.float64)
            table.setflags(write=False)
            lookup = {row.tobytes(): k for k, row in enumerate(self.powers)}
            self._roots = (lookup, table, max(int(np.abs(self.powers).max()), 1))
        return self._roots

    @property
    def roots(self) -> tuple[np.ndarray, int]:
        """(table, bound): ``powers`` as read-only float64, from which the
        multiplication matrices of the roots of unity are gathered, and its
        largest |entry|, so their products check the float64 bound a
        priori."""
        return self._root_tables()[1:]

    def root_exponents(self, rows: np.ndarray) -> np.ndarray:
        """For integer coefficient rows (b, d), the k with z^k equal to each
        row, or -1 where a row is no row of ``powers``.  For even m those
        rows are all the roots of unity of Q(zeta_m).  A row past int64 is
        no root of unity, so a batch that does not fit int64 gives -1s."""
        try:
            flat = np.ascontiguousarray(rows, dtype=np.int64).tobytes()
        except OverflowError:
            return np.full(len(rows), -1, dtype=np.intp)
        look, width = self._root_tables()[0].get, 8 * self.degree
        keys = (flat[i : i + width] for i in range(0, len(flat), width))
        return np.fromiter((look(key, -1) for key in keys), np.intp, len(rows))

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
                    red = self.powers[np.arange(2 * d - 1) % self.m]
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
    return _normalized(m, _context(m).powers[k % m].tolist(), 1)


def _legendre(t: int, p: int) -> int:
    r = pow(t, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


def sqrt_embed(n: int, m: int) -> Cyclotomic:
    """The positive square root of the integer n inside Q(zeta_m).

    Built from quadratic Gauss sums: for an odd prime p the sum
    g = sum_t legendre(t, p) * zeta_p^t squares to +p or -p, and sqrt(2)
    is zeta_8 + zeta_8^7.  Their product is formed on the exponents of
    zeta_m, as an integer vector w with w[k] the coefficient of zeta_m^k:
    a factor sum_k c_k zeta_m^k is the signed sum of the rolls of w by k.
    Its power-basis coefficients are then w @ rows, a weighted sum of the
    conductor's reduction rows, and the rational part of the root
    multiplies the result.  A one-time floating evaluation fixes the sign,
    and the exact square-back check, one field product, certifies it.
    """
    if n <= 0:
        raise ValueError(f"sqrt_embed needs a positive integer, got {n}")
    factors = _factorize(n)
    w = np.zeros(m, dtype=np.int64)
    w[0] = 1
    for p in [p for p, e in factors.items() if e % 2]:
        if p == 2:
            if m % 8:
                raise SqrtConstructionError(f"sqrt(2) needs 8 | m, got m={m}")
            terms = {m // 8: 1, 7 * m // 8: 1}
        else:
            if m % p:
                raise SqrtConstructionError(f"sqrt({p}) needs {p} | m, got m={m}")
            terms = {m // p * t: _legendre(t, p) for t in range(1, p)}
            if p % 4 == 3:
                if m % 4:
                    raise SqrtConstructionError(f"sqrt({p}) needs 4 | m, got m={m}")
                terms = {(k + m // 4) % m: -c for k, c in terms.items()}  # times -i
        w = sum(c * np.roll(w, k) for k, c in terms.items())
    root = math.prod(p ** (e // 2) for p, e in factors.items())
    result = _normalized(m, (w @ _context(m).powers).tolist(), 1) * root
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
