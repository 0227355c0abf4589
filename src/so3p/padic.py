r"""Exact p-adic scalar arithmetic over the rationals.

Numbers are plain `fractions.Fraction` values; this module supplies the
p-adic structure on top of them: valuation, absolute value, square-class
classification, and a capped-precision companion type ``PadicApprox`` for
square roots that exist in Z_p but not in Q.

Conventions, fixed once per prime by :func:`canonical_units`:

* ``p`` is an odd prime, ``p >= 3``;
* ``u`` is the smallest positive quadratic non-residue mod p;
* ``v = -1`` when ``p = 3 (mod 4)``, else ``v = -u``; either way ``v`` is a
  unit and not a square, so ``x**2 = v`` has no solution in Q_p.

The classes of ``Q_p^* / (Q_p^*)^2`` are represented by ``{1, u, p, up}``
and form a Klein four-group under multiplication.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import ClassVar

from .errors import PrecisionExhausted, SquareClassError

__all__ = [
    "INF",
    "Infinity",
    "PadicApprox",
    "PrimeCtx",
    "SquareClass",
    "abs_p",
    "canonical_units",
    "hensel_sqrt",
    "rational_sqrt",
    "square_class",
    "unit_residue",
    "valuation",
    "values_agree",
]


# Deterministic Miller-Rabin witnesses: the first 13 primes prove every
# n < _MR_PROOF_BOUND, the least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROOF_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod p (odd prime, a a nonzero residue), Tonelli-Shanks."""
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class Infinity:
    """The point at infinity of the projective parameter line.

    A singleton; compares equal only to itself.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = Infinity()


class SquareClass(enum.Enum):
    """Coset of (Q_p^*)^2 in Q_p^*, labelled by its representative."""

    ONE = "1"
    U = "u"
    P = "p"
    UP = "up"

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        a, b = _CLASS_BITS[self], _CLASS_BITS[other]
        return _BITS_CLASS[(a[0] ^ b[0], a[1] ^ b[1])]


# (non-residue bit, odd-valuation bit); the group law is componentwise xor.
_CLASS_BITS = {
    SquareClass.ONE: (0, 0),
    SquareClass.U: (1, 0),
    SquareClass.P: (0, 1),
    SquareClass.UP: (1, 1),
}
_BITS_CLASS = {bits: cls for cls, bits in _CLASS_BITS.items()}


@dataclass(frozen=True)
class PrimeCtx:
    """An odd prime together with its canonical unit choices."""

    p: int
    u: int
    v: int

    # The reference axes in Cardano order, each with the so2_catalog key
    # of its d; the axis SO(2) has group tag "so2:" + key.
    AXES: ClassVar[dict] = {"z": "-v", "y": "p", "x": "-p/v"}

    @cached_property
    def _axis_ds(self) -> dict:
        catalog = self.so2_catalog()
        return {axis: catalog[key] for axis, key in self.AXES.items()}

    def axis_d(self, axis: str) -> Fraction:
        """The d of a reference axis: -v for z, p for y, -p/v for x."""
        try:
            return self._axis_ds[axis]
        except KeyError:
            raise ValueError(f"axis must be z, y or x, not {axis!r}") from None

    @property
    def d_z(self) -> Fraction:
        return self.axis_d("z")

    @property
    def d_y(self) -> Fraction:
        return self.axis_d("y")

    @property
    def d_x(self) -> Fraction:
        return self.axis_d("x")

    def so2_catalog(self) -> dict:
        return {
            "-v": Fraction(-self.v),
            "p": Fraction(self.p),
            "up": Fraction(self.u * self.p),
            "-p/v": Fraction(-self.p, self.v),
        }

    def __repr__(self):
        return f"PrimeCtx(p={self.p}, u={self.u}, v={self.v})"


@lru_cache(maxsize=None)
def canonical_units(p: int) -> PrimeCtx:
    """Context for the prime p: smallest non-residue u and the unit v.

    Raises ValueError unless p is an odd prime, p >= 3, below the bound
    where is_prime is a proof.
    """
    if p >= _MR_PROOF_BOUND:
        raise ValueError(
            f"p = {p} is at or above {_MR_PROOF_BOUND}, where the primality test is no proof"
        )
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    u = 2
    while pow(u, (p - 1) // 2, p) == 1:
        u += 1
    v = -1 if p % 4 == 3 else -u
    return PrimeCtx(p=p, u=u, v=v)


def _vp_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero integer")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _split(num: int, den: int, p: int) -> tuple:
    """(v, num', den') with num / den = p**v num' / den' and num', den'
    prime to p, for nonzero integers num and den: one pass per p-part."""
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def valuation(x, p: int):
    """p-adic valuation; 0 maps to +infinity (math.inf)."""
    if isinstance(x, PadicApprox):
        if x.is_zero:
            return math.inf
        return x.val
    x = Fraction(x)
    if x == 0:
        return math.inf
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)


def abs_p(x, p: int) -> Fraction:
    """p-adic absolute value |x|_p = p**(-valuation); |0|_p = 0."""
    v = valuation(x, p)
    if v == math.inf:
        return Fraction(0)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def unit_residue(x, p: int) -> int:
    """Residue mod p of the unit part x * p**(-valuation(x)); x must be nonzero."""
    if isinstance(x, PadicApprox):
        if x.is_zero:
            raise ValueError("unit residue of zero")
        return x.mant % p
    x = Fraction(x)
    if x == 0:
        raise ValueError("unit residue of zero")
    _, num, den = _split(x.numerator, x.denominator, p)
    return num * pow(den, -1, p) % p


def square_class(x, ctx: PrimeCtx) -> SquareClass:
    """Class of nonzero x in Q_p^* / (Q_p^*)^2, one of {1, u, p, up}."""
    p = ctx.p
    v = valuation(x, p)
    if v == math.inf:
        raise ValueError("square class of zero undefined")
    res = unit_residue(x, p)
    nonsquare_unit = pow(res, (p - 1) // 2, p) != 1
    return _BITS_CLASS[(int(nonsquare_unit), v % 2)]


@lru_cache(maxsize=1024)
def _ppow(p: int, n: int) -> int:
    """p**n, from one cache: the moduli of PadicApprox arithmetic recur."""
    return p**n


_set_field = object.__setattr__


class PadicApprox:
    """A p-adic number known to finitely many significant digits.

    Represents ``p**val * mant`` where the unit mantissa satisfies
    ``1 <= mant < p**n`` and ``mant % p != 0``; the value is known modulo
    ``p**(val + n)``.  A zero has ``mant == n == 0`` and means
    ``0 + O(p**val)``: indistinguishable from 0 at that knowledge bound.
    The exact zero carries ``val = math.inf``.

    Addition and subtraction lose digits to cancellation: the known-digit
    count drops by the valuation jump of the result relative to the inputs,
    and when every known digit cancels the result collapses to a zero whose
    bound records how far the cancellation was actually checked.

    An immutable slotted value: == and hash go by (p, val, mant, n), and
    assigning or deleting a field raises AttributeError.
    """

    __slots__ = ("p", "val", "mant", "n")

    p: int
    val: int | float  # math.inf only on the exact zero
    mant: int
    n: int

    def __init__(self, p: int, val: int | float, mant: int, n: int):
        if mant == 0:
            if n != 0:
                raise ValueError("zero approx must have n == 0")
        else:
            if n < 1 or not (1 <= mant < _ppow(p, n)):
                raise ValueError("mantissa out of range for stated precision")
            if mant % p == 0:
                raise ValueError("mantissa must be a unit")
        _set_field(self, "p", p)
        _set_field(self, "val", val)
        _set_field(self, "mant", mant)
        _set_field(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"PadicApprox is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PadicApprox is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return PadicApprox, (self.p, self.val, self.mant, self.n)

    def __eq__(self, other):
        if other.__class__ is not PadicApprox:
            return NotImplemented
        return self.p == other.p and self.val == other.val and self.mant == other.mant and self.n == other.n

    def __hash__(self):
        return hash((self.p, self.val, self.mant, self.n))

    @classmethod
    def zero(cls, p: int, known: int | float = math.inf) -> "PadicApprox":
        return cls(p, known, 0, 0)

    @classmethod
    def from_rational(cls, x, p: int, n: int) -> "PadicApprox":
        x = _exact(x)
        if not x:
            return cls.zero(p)
        if n < 1:
            raise ValueError("need at least one digit")
        return _exact_approx(x.numerator, x.denominator, p, n)

    @property
    def is_zero(self) -> bool:
        return self.mant == 0

    def digits(self) -> tuple:
        """Base-p digits of the mantissa, least significant first."""
        out, m = [], self.mant
        for _ in range(self.n):
            m, d = divmod(m, self.p)
            out.append(d)
        return tuple(out)

    # Absolute precision: the value is known modulo p**abs_known.
    @property
    def abs_known(self) -> int:
        return self.val + self.n

    def _coerce(self, other) -> "PadicApprox":
        # An exact operand gets the digits this value's absolute precision
        # allows, at least one; against the exact zero that is one digit.
        if isinstance(other, PadicApprox):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        x = _exact(other)
        if not x:
            return PadicApprox.zero(self.p)
        return _exact_approx(x.numerator, x.denominator, self.p, None, self.val + self.n)

    def _compose(self, v: int, t: int, width: int) -> "PadicApprox":
        # t is the value scaled by p**-v, known modulo p**width.
        if width < 1:
            raise PrecisionExhausted("no digits remain")
        p = self.p
        t %= _ppow(p, width)
        if t == 0:
            return PadicApprox.zero(p, v + width)
        if t % p:
            return PadicApprox(p, v, t, width)
        j = _vp_int(t, p)
        return PadicApprox(p, v + j, t // p**j, width - j)

    def _truncated(self, know) -> "PadicApprox":
        """This value with absolute knowledge capped at O(p**know)."""
        val = self.val
        if know >= val + self.n:
            return self
        if val >= know:
            return PadicApprox.zero(self.p, know)
        return PadicApprox(self.p, val, self.mant % _ppow(self.p, know - val), know - val)

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not self.mant or not other.mant:
            # x + (0 + O(p^k)) is x truncated to knowledge k.
            zero, x = (self, other) if not self.mant else (other, self)
            if not x.mant:
                return x if x.val <= zero.val else zero
            return x._truncated(zero.val)
        p, sv, ov = self.p, self.val, other.val
        know = min(sv + self.n, ov + other.n)
        # the sum scaled by p**-v for v the smaller valuation
        if sv <= ov:
            v, t = sv, self.mant + other.mant * p ** (ov - sv)
        else:
            v, t = ov, self.mant * p ** (sv - ov) + other.mant
        return self._compose(v, t, know - v)

    __radd__ = __add__

    def __neg__(self):
        if not self.mant:
            return self
        return PadicApprox(self.p, self.val, _ppow(self.p, self.n) - self.mant, self.n)

    def __sub__(self, other):
        try:
            coerced = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-coerced)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not self.mant or not other.mant:
            # (0 + O(p^k)) * x = 0 + O(p^(k + v(x))).
            return PadicApprox.zero(self.p, self.val + other.val)
        n = min(self.n, other.n)
        return PadicApprox(self.p, self.val + other.val, self.mant * other.mant % _ppow(self.p, n), n)

    __rmul__ = __mul__

    def scaled(self, f) -> "PadicApprox":
        """self * f for an exact rational f, keeping every known digit.

        ``self * f`` first rounds f to this value's absolute precision, so
        a factor of positive valuation costs relative digits; an exact
        factor carries no error of its own and the relative count n stays.
        """
        f = Fraction(f)
        if f == 0:
            return PadicApprox.zero(self.p)
        vf, num, den = _split(f.numerator, f.denominator, self.p)
        if not self.mant:
            return PadicApprox.zero(self.p, self.val + vf)
        mod = _ppow(self.p, self.n)
        mant = self.mant * num * pow(den, -1, mod) % mod
        return PadicApprox(self.p, self.val + vf, mant, self.n)

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if not other.mant:
            raise ZeroDivisionError("division by p-adic zero")
        if not self.mant:
            return PadicApprox.zero(self.p, self.val - other.val)
        n = min(self.n, other.n)
        mod = _ppow(self.p, n)
        mant = self.mant * pow(other.mant, -1, mod) % mod
        return PadicApprox(self.p, self.val - other.val, mant, n)

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        return coerced / self

    def congruent(self, other) -> bool:
        """True when the two values agree on all overlapping known digits.

        For an exact other x that is self - x = 0 mod p**abs_known, which
        is checked over the integers: it is what (self - x).is_zero gives,
        without rounding x to a PadicApprox first.
        """
        if isinstance(other, PadicApprox):
            return (self - other).is_zero
        x = _exact(other)
        known = self.abs_known
        if known == math.inf:  # the exact zero
            return not x
        if not x:
            return self.is_zero
        p = self.p
        vx, num, den = _split(x.numerator, x.denominator, p)
        if self.is_zero:
            return vx >= known
        if vx >= known:
            return False
        v = min(self.val, vx)
        return (self.mant * p ** (self.val - v) * den - num * p ** (vx - v)) % _ppow(p, known - v) == 0

    def __repr__(self):
        if self.is_zero:
            if math.isinf(self.val):
                return f"PadicApprox(0, p={self.p})"
            return f"PadicApprox(0 + O({self.p}^{self.val}))"
        ds = ",".join(str(d) for d in self.digits())
        return f"PadicApprox({self.p}^{self.val} * [{ds}])"


def _exact(x):
    # ints (bools too) and Fractions pass as they are; any other value is
    # read through Fraction.
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


@lru_cache(maxsize=512)
def _exact_approx(num: int, den: int, p: int, n: int | None = None, known=math.inf) -> PadicApprox:
    """num / den, for num != 0 and den > 0, as a PadicApprox of n digits.

    With n None, the digit count is what absolute knowledge O(p**known)
    leaves after the valuation, at least one; an infinite known gives one.
    The mantissa is one modular inverse, none for an integer.  Exact
    operands such as 1, 2 and an axis d recur in every block, so the
    results are cached; they are immutable values, safe to share.
    """
    v, num, den = _split(num, den, p)
    if n is None:
        n = 1 if known == math.inf else max(1, known - v)
    mod = _ppow(p, n)
    mant = num % mod if den == 1 else num * pow(den, -1, mod) % mod
    return PadicApprox(p, v, mant, n)


def rational_sqrt(x) -> Fraction | None:
    """The positive exact rational square root of x, or None if there is none."""
    x = Fraction(x)
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return Fraction(rn, rd)


def hensel_sqrt(a, ctx: PrimeCtx, n: int) -> PadicApprox:
    """Canonical square root of a in Q_p to n significant digits.

    The canonical branch is the root whose leading digit lies in
    ``{1, ..., (p-1)/2}``.  The result r satisfies
    ``r*r = a (mod p**(valuation(a) + n))``.

    Raises SquareClassError (carrying the offending class) when a is not a
    square in Q_p.  ``a == 0`` returns the exact zero.
    """
    p = ctx.p
    if isinstance(a, PadicApprox):
        if a.p != p:
            raise ValueError("mixed primes")
        if a.is_zero:
            # sqrt(0 + O(p^k)) is 0 + O(p^ceil(k/2)).
            return PadicApprox.zero(p, a.val if math.isinf(a.val) else -(-a.val // 2))
        val, digits = a.val, min(n, a.n)
        unit_mod = lambda m: a.mant % p**m  # noqa: E731
    else:
        a = Fraction(a)
        if a == 0:
            return PadicApprox.zero(p)
        digits = n
        val, num, den = _split(a.numerator, a.denominator, p)
        unit_mod = lambda m: num * pow(den, -1, p**m) % p**m  # noqa: E731
    cls = square_class(a, ctx)
    if cls is not SquareClass.ONE:
        raise SquareClassError(f"not a square in Q_{p}: class {cls.value}", square_class=cls)
    if digits < 1:
        raise PrecisionExhausted("no digits available for the root")
    r = _sqrt_mod_prime(unit_mod(1), p)
    known = 1
    while known < digits:
        known = min(2 * known, digits)
        mod = p**known
        w = unit_mod(known)
        # Newton step x -> (x + w/x) / 2 doubles the number of correct digits.
        r = (r + w * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    if r % p > (p - 1) // 2:
        r = p**digits - r
    return PadicApprox(p=p, val=val // 2, mant=r, n=digits)


def values_agree(x, y) -> bool:
    """Equality that degrades to digitwise agreement for capped-precision values.

    Exact operands compare exactly; when a PadicApprox is involved the
    comparison checks congruence on the overlapping known digits.
    """
    if type(x) is Fraction and type(y) is Fraction:
        return x == y
    if isinstance(x, Infinity) or isinstance(y, Infinity):
        return x is y
    if isinstance(x, PadicApprox):
        return x.congruent(y)
    if isinstance(y, PadicApprox):
        return y.congruent(x)
    return Fraction(x) == Fraction(y)
