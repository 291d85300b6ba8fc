"""Exact field arithmetic over GF(p) and the cyclotomic fields Q(zeta_m),
with Q = Q(zeta_1).

Every element is kept in a canonical representation, so equality of values is
equality of representations:

  * GF(p) residues -> ``int`` in ``[0, p)``
  * Q(zeta_m)      -> int tuple (n_0, ..., n_{d-1}, den) for the value
                      sum n_i / den * z^i reduced modulo the m-th cyclotomic
                      polynomial Phi_m (d = deg Phi_m), in lowest terms:
                      den >= 1 and gcd(den, n_0, ..., n_{d-1}) = 1, so zero
                      is (0, ..., 0, 1) and a rational num / den is
                      (num, 0, ..., 0, den); over Q (d = 1) that is (num, den)

Q(zeta_m) arithmetic runs on these integers: sums over a common denominator,
products by integer convolution reduced with integer rows, inverses by
fraction-free elimination, each result ending in one gcd normalisation.
Fractions are built only to order or print a value, or to read off a rational one.

Fields are interned: constructing one twice yields the same object, so
field equality is identity. ``RationalField()`` is ``CyclotomicField(1)``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .errors import CapExceededError, FieldMismatchError, ParseError

PRIME_LIMIT = 2**31
# the largest bound 2^t - 1 that an algebra within the search dimension cap
# can ask a cyclotomic field for; Phi_m is built before any entry is read
CONDUCTOR_CAP = 2**12 - 1
# the largest decimal exponent a scalar literal may carry: Fraction("1e9999999")
# expands 10**9999999 before any check; 4300 matches the digit limit that
# int() puts on a plain literal
SCALAR_EXPONENT_CAP = 4300


# ---------------------------------------------------------------------------
# integer helpers


def is_prime(n: int) -> bool:
    """By trial division, which the parser's bound p < 2^31 keeps cheap."""
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime powers of n >= 1, as ascending (q, a) pairs with
    n = prod q**a."""
    out = []
    d = 2
    while d * d <= n:
        a = 0
        while n % d == 0:
            n, a = n // d, a + 1
        if a:
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def integer_kth_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, k >= 1, computed with integer Newton steps."""
    if x < 0 or k < 1:
        raise ValueError("integer_kth_root needs x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def perfect_kth_root(q: Fraction, k: int) -> Optional[Fraction]:
    """The positive rational r with r**k == q, or None. Requires q > 0."""
    if q <= 0:
        raise ValueError("perfect_kth_root needs q > 0")
    a = integer_kth_root(q.numerator, k)
    if a**k != q.numerator:
        return None
    b = integer_kth_root(q.denominator, k)
    if b**k != q.denominator:
        return None
    return Fraction(a, b)


def _parse_fraction(text: str) -> Fraction:
    """Fraction(text) for a rational literal such as "-3/4", "0.5" or "1e3",
    refusing a decimal exponent above SCALAR_EXPONENT_CAP in magnitude before
    Fraction expands it. A malformed exponent raises ValueError, as Fraction
    would."""
    _, marker, exponent = text.lower().partition("e")
    if marker:
        digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
        cap = SCALAR_EXPONENT_CAP
        if len(digits) > len(str(cap)) or int(digits or 0) > cap:
            raise ParseError(f"exponent of {text[:40]!r} exceeds {cap} in magnitude")
    return Fraction(text)


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient lists) for Phi_m


def _lowest(nums: list[int], den: int) -> tuple[int, ...]:
    """The Q(zeta_m) value with coefficients nums[i] / den, den >= 1, in
    lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    nums.append(den)
    return tuple(nums)


def _poly_div_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Exact division of integer polynomials; den must be monic and divide num."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[:dd]):
        raise ValueError("polynomial division was not exact")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, computed by dividing x^m - 1 by the
    proper-divisor cyclotomic polynomials."""
    if m < 1:
        raise ParseError("cyclotomic conductor must be >= 1")
    poly: tuple[int, ...] = tuple([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return poly


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """A field element paired with its field handle. Immutable and hashable."""

    __slots__ = ("field", "value")

    def __init__(self, field: "Field", value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"cannot mix {self.field.descriptor()} and {other.field.descriptor()}"
                )
            return other
        return self.field.scalar(other)

    @property
    def is_zero(self) -> bool:
        return self.field._is_zero(self.value)

    def __add__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field._add(self.value, o.value))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field._sub(self.value, o.value))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return Scalar(self.field, self.field._mul(self.value, o.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.field, self.field._mul(self.value, self.field._inv(o.value)))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return Scalar(self.field, self.field._pow(self.value, k))

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ZeroDivisionError("zero scalar has no inverse")
        return Scalar(self.field, self.field._inv(self.value))

    def multiplicative_order(self) -> Optional[int]:
        return self.field.multiplicative_order(self)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            try:
                return self.value == self.field.scalar(other).value
            except (ParseError, ValueError):
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def sort_key(self):
        """A total order within one field, used for deterministic output."""
        return self.field._sort_key(self.value)

    def __str__(self):
        return self.field.format(self.value)

    def __repr__(self):
        return f"Scalar({self.field.descriptor()}, {self})"


class UnityGroup(NamedTuple):
    """The cyclic group of all roots of unity contained in a field."""

    order: int
    generator: Scalar


class KthRoots(NamedTuple):
    """Outcome of solving x**k = c: either the complete root list, or an
    honest refusal carrying the unsolved equation."""

    complete: bool
    roots: tuple[Scalar, ...]
    equation: Optional[str] = None


# ---------------------------------------------------------------------------
# fields


_FIELDS: dict = {}


class _Interned(type):
    """Builds each field once per class and constructor arguments."""

    def __call__(cls, *args):
        key = (cls, args, tuple(map(type, args)))
        field = _FIELDS.get(key)
        if field is None:
            field = _FIELDS[key] = super().__call__(*args)
        return field


class Field(metaclass=_Interned):
    """Common interface; concrete classes fill in the raw-value arithmetic,
    and each of their constructors ends by calling this one."""

    def __init__(self, order: int, generator):
        """Fixes ``zero``, ``one`` and ``unity``, the group mu_N of all roots
        of unity in the field: its order N and the raw value generating it."""
        self.zero = Scalar(self, self._convert(0))
        self.one = Scalar(self, self._convert(1))
        self.unity = UnityGroup(order, Scalar(self, generator))

    def __repr__(self):
        return f"<field {self.descriptor()}>"

    def descriptor(self) -> str:
        raise NotImplementedError

    def scalar(self, value) -> Scalar:
        """Coerce an int, Fraction, string, or same-field Scalar."""
        if isinstance(value, Scalar) and value.field is self:
            return value
        return Scalar(self, self.raw(value))

    def raw(self, value):
        """The raw value of what ``scalar`` accepts, without boxing it."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(
                    f"scalar from {value.field.descriptor()} used in {self.descriptor()}"
                )
            return value.value
        return self._convert(value)

    def unity_group(self) -> UnityGroup:
        return self.unity

    def roots_of_unity(self, k: int) -> list[Scalar]:
        """All x in the field with x**k == 1; there are gcd(k, N) of them."""
        if k < 1:
            raise ValueError("k must be >= 1")
        return sorted(self._solve_unity_power(k, 0), key=Scalar.sort_key)

    def multiplicative_order(self, x: Scalar) -> Optional[int]:
        """Order of x when x is a root of unity, else None: x = g**e in
        mu_N has order N / gcd(e, N)."""
        x = self.scalar(x)
        if x.is_zero:
            raise ZeroDivisionError("zero has no multiplicative order")
        e, big_n = self._unity_dlog(x.value), self.unity.order
        return None if e is None else big_n // math.gcd(e, big_n)

    def kth_roots(self, c: Scalar, k: int) -> KthRoots:
        """All field solutions of x**k = c, when decidable.

        x^1 = c is decided in every field, by its one root c. Roots of unity
        and rational-times-root-of-unity right-hand sides are always decided
        exactly; a genuinely irrational cyclotomic c with k > 1 comes back as
        an incomplete outcome carrying the equation text.
        """
        c = self.scalar(c)
        if c.is_zero:
            raise ZeroDivisionError("kth_roots requires c != 0")
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return KthRoots(True, (c,))
        return self._kth_roots(c, k)

    def _solve_unity_power(self, k: int, e: int) -> list[Scalar]:
        """Solutions y in mu_N of y**k = g**e, via the congruence k*t = e (mod N)."""
        big_n, g = self.unity
        d = math.gcd(k, big_n)
        if e % d:
            return []
        step = big_n // d
        t0 = (e // d) * pow(k // d, -1, step) % step
        return [g ** ((t0 + j * step) % big_n) for j in range(d)]

    # raw-value hooks -------------------------------------------------------

    def _convert(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        return self._add(a, self._neg(b))

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _is_zero(self, a) -> bool:
        raise NotImplementedError

    def _pow(self, a, k: int):
        out = self._convert(1)
        base = a
        while k:
            if k & 1:
                out = self._mul(out, base)
            base = self._mul(base, base)
            k >>= 1
        return out

    def _sort_key(self, a):
        raise NotImplementedError

    def _unity_dlog(self, value) -> Optional[int]:
        """Exponent e in [0, N) with generator**e == value, a raw value, or
        None when value is not in mu_N."""
        raise NotImplementedError

    def _kth_roots(self, c: Scalar, k: int) -> KthRoots:
        raise NotImplementedError

    def format(self, value) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    @property
    def characteristic(self) -> int:
        raise NotImplementedError


class PrimeField(Field):
    """GF(p) for a prime p < 2**31. kth_roots decides every x**k = c: by one
    power when gcd(k, p - 1) = 1, and otherwise through one discrete log,
    taken by Pohlig-Hellman without a table."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= PRIME_LIMIT or not is_prime(p):
            raise ParseError(f"GF modulus must be a prime below 2**31, got {p!r}")
        self.p, n = p, p - 1
        # N = p - 1 as (q, a) pairs, for the primitive root test and for
        # every discrete log
        self._factors = factorize(n)
        # the least g of order N: 1 for GF(2), where N = 1
        self.generator = next(
            g for g in range(1, p) if all(pow(g, n // q, p) != 1 for q, _ in self._factors)
        )
        super().__init__(n, self.generator)

    def descriptor(self) -> str:
        return f"GF({self.p})"

    @property
    def characteristic(self) -> int:
        return self.p

    def raw(self, value):
        if type(value) is int:  # the common case, every census entry; bool is not int
            return value % self.p
        return super().raw(value)

    def _convert(self, value):
        if isinstance(value, bool):
            raise ParseError("bool is not a scalar")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ParseError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, str):
            return self.parse(value).value
        raise ParseError(f"cannot coerce {value!r} into GF({self.p})")

    def _add(self, a, b):
        return (a + b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    def _is_zero(self, a):
        return a == 0

    def _pow(self, a, k):
        return pow(a, k, self.p)

    def _sort_key(self, a):
        return a

    def _unity_dlog(self, value) -> Optional[int]:
        """Exponent e in [0, p - 1) with generator**e == value, or None for
        zero, by Pohlig-Hellman: e mod q**a for each prime power of p - 1,
        one base-q digit at a time, each digit found by baby-step giant-step
        in the subgroup of order q. No dict holds more than ceil(sqrt(q))
        entries, and the residues are joined by the Chinese remainder
        theorem. No table of p - 1 powers is built."""
        if value == 0:
            return None
        p, n, g = self.p, self.p - 1, self.generator
        e, modulus = 0, 1
        for q, a in self._factors:
            qa = q**a
            # gamma has order q; g_a and h_a live in the subgroup of order q**a
            gamma = pow(g, n // q, p)
            g_a, h_a = pow(g, n // qa, p), pow(value, n // qa, p)
            steps = math.isqrt(q - 1) + 1
            baby, cur = {}, 1
            for j in range(steps):
                baby[cur] = j
                cur = cur * gamma % p
            giant = pow(gamma, -steps, p)
            x = 0
            for i in range(a):
                # strip the digits found so far and lift to the order-q subgroup
                y = pow(h_a * pow(g_a, -x, p) % p, q ** (a - 1 - i), p)
                for t in range(steps):
                    j = baby.get(y)
                    if j is not None:
                        break
                    y = y * giant % p
                x += (t * steps + j) * q**i
            e += modulus * ((x - e) * pow(modulus, -1, qa) % qa)
            modulus *= qa
        return e

    def _kth_roots(self, c: Scalar, k: int) -> KthRoots:
        n = self.p - 1
        if math.gcd(k, n) == 1:
            # x -> x**k permutes GF(p)^*, so the one root is c**(k^-1 mod p-1)
            return KthRoots(True, (c ** pow(k, -1, n),))
        roots = self._solve_unity_power(k, self._unity_dlog(c.value))
        return KthRoots(True, tuple(sorted(roots, key=Scalar.sort_key)))

    def format(self, value) -> str:
        return str(value)

    def parse(self, text: str) -> Scalar:
        text = text.strip().replace(" ", "")
        try:
            return Scalar(self, self._convert(_parse_fraction(text)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad GF({self.p}) scalar {text!r}") from exc


_TERM_RE = re.compile(
    r"^([+-]?)(?:(\d+(?:/\d+)?)\*?)?(?:z(?:\^(\d+))?)?$"
)


class CyclotomicField(Field):
    """Q(zeta_m) for 1 <= m <= CONDUCTOR_CAP, as Q[z] modulo Phi_m. Conductor
    1 is Q, with descriptor "Q" and its own scalar grammar."""

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise ParseError(f"cyclotomic conductor must be a positive int, got {m!r}")
        if m > CONDUCTOR_CAP:
            raise CapExceededError(f"cyclotomic conductor capped at {CONDUCTOR_CAP}, got {m}")
        self.m = m
        self.phi = cyclotomic_polynomial(m)
        self.degree = len(self.phi) - 1
        # z^(degree + i) reduced mod Phi_m, integer coefficient rows, kept
        # as their nonzero (index, coefficient) pairs
        red: list[tuple[int, ...]] = [tuple(-c for c in self.phi[:-1])]
        for _ in range(self.degree - 1):
            prev = red[-1]
            shifted = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                shifted = [s + top * r for s, r in zip(shifted, red[0])]
            red.append(tuple(shifted))
        self._red = tuple(tuple((i, r) for i, r in enumerate(row) if r) for row in red)
        # the distinguished primitive m-th root of unity: z reduced mod Phi_m
        self.zeta = Scalar(self, _lowest(self._reduce_ints([0, 1]), 1))
        # mu_N is mu_m for even m and mu_2m = <-zeta> for odd m
        z = self.zeta.value
        if m % 2:
            super().__init__(2 * m, self._neg(z))
        else:
            super().__init__(m, z)
        # each value of mu_N -> its exponent, built on the first query of a
        # value that is not rational
        self._dlog: Optional[dict] = None

    def descriptor(self) -> str:
        return "Q" if self.m == 1 else f"Q(zeta_{self.m})"

    @property
    def characteristic(self) -> int:
        return 0

    def _convert(self, value):
        if isinstance(value, bool):
            raise ParseError("bool is not a scalar")
        if isinstance(value, (int, Fraction)):
            return (value.numerator,) + (0,) * (self.degree - 1) + (value.denominator,)
        if isinstance(value, str):
            return self.parse(value).value
        raise ParseError(f"cannot coerce {value!r} into {self.descriptor()}")

    def _reduce_ints(self, conv: list[int]) -> list[int]:
        """Integer coefficients of z^0 .. z^(2 * degree - 1), reduced modulo
        Phi_m."""
        deg = self.degree
        out = conv[:deg]
        out += [0] * (deg - len(out))
        for t in range(deg, len(conv)):
            c = conv[t]
            if c:
                for i, r in self._red[t - deg]:
                    out[i] += c * r
        return out

    def _add(self, a, b):
        da, db = a[-1], b[-1]
        if da == db:
            return _lowest([x + y for x, y in zip(a[:-1], b)], da)
        return _lowest([x * db + y * da for x, y in zip(a[:-1], b)], da * db)

    def _mul(self, a, b):
        if not any(a[1:-1]):
            a, b = b, a
        if not any(b[1:-1]):
            # a rational factor c / b[-1] scales each numerator
            c = b[0]
            if not c:
                return b
            return _lowest([x * c for x in a[:-1]], a[-1] * b[-1])
        nb = [(j, y) for j, y in enumerate(b[:-1]) if y]
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a[:-1]):
            if x:
                for j, y in nb:
                    conv[i + j] += x * y
        return _lowest(self._reduce_ints(conv), a[-1] * b[-1])

    def _neg(self, a):
        out = [-x for x in a[:-1]]
        out.append(a[-1])
        return tuple(out)

    def _inv(self, a):
        # a = na / da; solve na * x = 1 for the coefficients x, a linear
        # system whose matrix has column j = na * z^j reduced mod Phi_m. It is
        # nonsingular because Phi_m is irreducible.
        deg = self.degree
        na, da = list(a[:-1]), a[-1]
        if not any(na[1:]):
            c = na[0]
            if not c:
                raise ZeroDivisionError("zero has no inverse")
            # gcd(c, da) = 1 already, so da / c is in lowest terms
            return (-da if c < 0 else da,) + (0,) * (deg - 1) + (abs(c),)
        cols, col = [na], na
        for _ in range(deg - 1):
            top = col[-1]
            col = [0] + col[:-1]
            for i, r in self._red[0]:
                col[i] += top * r
            cols.append(col)
        # fraction-free (Bareiss) elimination of [M | e_0]; every division
        # by the previous pivot is exact
        rows = [list(row) + [0] for row in zip(*cols)]
        rows[0][deg] = 1
        prev = 1
        for c in range(deg - 1):
            p = next(r for r in range(c, deg) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            top = rows[c]
            pivot = top[c]
            for row in rows[c + 1 :]:
                x = row[c]
                for k in range(c + 1, deg + 1):
                    row[k] = (pivot * row[k] - x * top[k]) // prev
            prev = pivot
        # back substitution for det * x, integral by Cramer's rule since the
        # last pivot det is +-det(M)
        det = rows[-1][deg - 1]
        x = [0] * deg
        for i in range(deg - 1, -1, -1):
            row = rows[i]
            s = det * row[deg] - sum(row[k] * x[k] for k in range(i + 1, deg))
            x[i] = s // row[i]
        if det < 0:
            det, da = -det, -da
        return _lowest([da * v for v in x], det)

    def _is_zero(self, a):
        return not any(a[:-1])

    def _sort_key(self, a):
        # the coefficients as numbers, compared exactly: ints where the
        # denominator divides, Fractions otherwise
        den = a[-1]
        if den == 1:
            return a[:-1]
        return tuple(x // den if x % den == 0 else Fraction(x, den) for x in a[:-1])

    def _unity_dlog(self, value) -> Optional[int]:
        """The exponent of value in mu_N. Of the rationals only +-1 are roots
        of unity, so they need no table; any other value is looked up in
        the table of all N powers."""
        big_n, g = self.unity
        if not any(value[1:-1]):
            return {(1, 1): 0, (-1, 1): big_n // 2}.get((value[0], value[-1]))
        table = self._dlog
        if table is None:
            table, cur = {}, self.one.value
            for e in range(big_n):
                table[cur] = e
                cur = self._mul(cur, g.value)
            self._dlog = table
        return table.get(value)

    def _as_fraction(self, value) -> Optional[Fraction]:
        if not any(value[1:-1]):
            return Fraction(value[0], value[-1])
        return None

    def _kth_roots(self, c: Scalar, k: int) -> KthRoots:
        """Splits c as u*w with u a root of unity and w > 0 rational whenever
        c**N is a perfect N-th power of a rational; then x = r*y with r**k = w
        rational and y ranging over the mu_N solutions of y**k = u. When the
        split or the rational root extraction fails, the answer is decisively
        empty over Q and honestly incomplete over a bigger cyclotomic field.
        """
        big_n = self.unity.order
        equation = f"x^{k} = {c} over {self.descriptor()}"
        z = (c**big_n).value
        zf = self._as_fraction(z)
        rational_line = self._as_fraction(c.value) is not None
        if zf is None or zf <= 0:
            return KthRoots(False, (), equation)
        w = perfect_kth_root(zf, big_n)
        if w is None:
            if rational_line:
                raise RuntimeError("rational c**N must be a perfect N-th power")
            return KthRoots(False, (), equation)
        u = c / self.scalar(w)
        e = self._unity_dlog(u.value)
        if e is None:
            # c = u*w with u**N = 1 by construction, so u must lie in mu_N
            raise RuntimeError("unity part missing from the root-of-unity table")
        r = perfect_kth_root(w, k)
        if r is None:
            # Any solution would put the positive real radical w^(1/k) inside the
            # field: |x|^2 = w^(2/k) is fixed by conjugation. For odd k the other
            # conjugates w^(1/k) * omega are non-real, so normality of subfields
            # of an abelian extension forces w^(1/k) rational, a contradiction.
            # Over the rationals themselves |x|^k = w settles every k.
            if k % 2 == 1 or self.degree == 1:
                return KthRoots(True, ())
            return KthRoots(False, (), equation)
        rs = self.scalar(r)
        roots = [rs * y for y in self._solve_unity_power(k, e)]
        return KthRoots(True, tuple(sorted(roots, key=Scalar.sort_key)))

    def format(self, value) -> str:
        parts = []
        den = value[-1]
        for i, num in enumerate(value[:-1]):
            if not num:
                continue
            mag = Fraction(abs(num), den)
            if i == 0:
                body = str(mag)
            else:
                zpart = "z" if i == 1 else f"z^{i}"
                body = zpart if mag == 1 else f"{mag}*{zpart}"
            parts.append(("-" if num < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def parse(self, text: str) -> Scalar:
        if self.m == 1:
            try:
                return self.scalar(_parse_fraction(text.strip().replace(" ", "")))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational {text!r}") from exc
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty scalar string")
        terms = re.findall(r"[+-]?[^+-]+", s)
        if "".join(terms) != s:
            raise ParseError(f"bad scalar {text!r}")
        coeffs: dict[int, Fraction] = {}
        for term in terms:
            mt = _TERM_RE.match(term)
            if not mt or (mt.group(2) is None and "z" not in term):
                raise ParseError(f"bad term {term!r} in {text!r}")
            sign = -1 if mt.group(1) == "-" else 1
            # a zero denominator, or a number past Python's int digit limit
            try:
                coef = Fraction(mt.group(2)) if mt.group(2) else Fraction(1)
                # z^m = 1
                power = int(mt.group(3)) % self.m if mt.group(3) else 1
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad term {term!r} in {text!r}") from exc
            if "z" not in term:
                power = 0
            coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coef
        # each power comes reduced mod Phi_m out of _mul
        value, z = self._convert(0), self.zeta.value
        for power, coef in coeffs.items():
            term = self._mul(self._pow(z, power), self._convert(coef))
            value = self._add(value, term)
        return Scalar(self, value)


# ---------------------------------------------------------------------------
# descriptor grammar: Q | GF(p) | Q(zeta_m)

_GF_RE = re.compile(r"^GF\((\d+)\)$")
_CYCLO_RE = re.compile(r"^Q\(zeta_(\d+)\)$")


def RationalField() -> CyclotomicField:
    """Q, which is Q(zeta_1)."""
    return CyclotomicField(1)


def _descriptor_int(digits: str, limit: int, error: type) -> int:
    """The number a descriptor spells; error, before int() converts an
    arbitrarily long string, when it has more digits than limit."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)):
        raise error(f"{len(digits)}-digit number in a field descriptor exceeds {limit}")
    return int(digits)


def parse_field(text: str) -> Field:
    s = text.strip()
    if s == "Q":
        return CyclotomicField(1)
    mt = _GF_RE.match(s)
    if mt:
        return PrimeField(_descriptor_int(mt.group(1), PRIME_LIMIT, ParseError))
    mt = _CYCLO_RE.match(s)
    if mt:
        return CyclotomicField(_descriptor_int(mt.group(1), CONDUCTOR_CAP, CapExceededError))
    raise ParseError(f"bad field descriptor {text!r}")
