r"""The definite quaternion algebra H_p = (v, -p | Q_p).

Basis (1, i, j, k) with ``i**2 = v``, ``j**2 = -p``, ``ji = -ij`` and
``k = ij``.  Products use the explicit formula those relations give, on
integer coordinates over one common denominator.  ``basis_table``
derives the structure constants independently, by normal-ordering words
in i and j, and the tests check the product formula against it.

The reduced norm ``nrd = q0^2 - v q1^2 + p q2^2 - vp q3^2`` is anisotropic,
so H_p is a division algebra; conjugation by a nonzero element fixes the
trace-zero part and preserves its norm form diag(-v, p, -vp).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import Mat, QExtElem, clear_denominators
from .padic import PrimeCtx

__all__ = [
    "Quat",
    "basis_table",
    "conj_action_matrix",
    "left_regular",
    "quat",
]

_WORDS = ("", "i", "j", "ij")


def _normal_order(word: str, p: int, v: int):
    """Reduce a word in {i, j} to coeff * (normal word) using the relations."""
    coeff = Fraction(1)
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for t in range(len(letters) - 1):
            a, b = letters[t], letters[t + 1]
            if a == "j" and b == "i":
                letters[t], letters[t + 1] = "i", "j"
                coeff = -coeff
                changed = True
                break
            if a == b == "i":
                del letters[t : t + 2]
                coeff = coeff * v
                changed = True
                break
            if a == b == "j":
                del letters[t : t + 2]
                coeff = coeff * -p
                changed = True
                break
    return coeff, "".join(letters)


@lru_cache(maxsize=None)
def basis_table(ctx: PrimeCtx):
    """4x4 table: entry [a][b] is (coefficient, basis index) of e_a * e_b."""
    table = []
    for wa in _WORDS:
        row = []
        for wb in _WORDS:
            coeff, normal = _normal_order(wa + wb, ctx.p, ctx.v)
            row.append((coeff, _WORDS.index(normal)))
        table.append(tuple(row))
    return tuple(table)


def _product(v: int, p: int, a, b) -> tuple:
    """Coordinates of (a0 + a1 i + a2 j + a3 k)(b0 + b1 i + b2 j + b3 k)."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + v * a1 * b1 - p * a2 * b2 + v * p * a3 * b3,
        a0 * b1 + a1 * b0 + p * (a2 * b3 - a3 * b2),
        a0 * b2 + a2 * b0 + v * (a1 * b3 - a3 * b1),
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def _all_rational(rows) -> bool:
    return all(type(e) is Fraction or type(e) is int for r in rows for e in r)


@dataclass(frozen=True)
class Quat:
    """A quaternion q0 + q1 i + q2 j + q3 k with exact rational coordinates."""

    ctx: PrimeCtx
    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    @property
    def coords(self) -> tuple:
        return (self.q0, self.q1, self.q2, self.q3)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "Quat") -> "Quat":
        self._check(other)
        return Quat(self.ctx, *(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Quat":
        return Quat(self.ctx, *(-a for a in self.coords))

    def __sub__(self, other: "Quat") -> "Quat":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Quat):
            return self.scale(other)
        self._check(other)
        v, p = self.ctx.v, self.ctx.p
        rows = (self.coords, other.coords)
        if not _all_rational(rows):
            # capped-precision coordinates: the same formula on the entries
            return Quat(self.ctx, *_product(v, p, *rows))
        ints, den = clear_denominators(rows)
        den *= den
        return Quat(self.ctx, *(Fraction(c, den) for c in _product(v, p, *ints)))

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s) -> "Quat":
        s = Fraction(s)
        return Quat(self.ctx, *(a * s for a in self.coords))

    def conj(self) -> "Quat":
        return Quat(self.ctx, self.q0, -self.q1, -self.q2, -self.q3)

    def trd(self) -> Fraction:
        return 2 * self.q0

    def nrd(self) -> Fraction:
        v, p = self.ctx.v, self.ctx.p
        q0, q1, q2, q3 = self.coords
        return q0 * q0 - v * q1 * q1 + p * q2 * q2 - v * p * q3 * q3

    def inverse(self) -> "Quat":
        if self.is_zero:
            raise ZeroDivisionError("zero quaternion has no inverse")
        return self.conj().scale(1 / self.nrd())

    def proportional(self, other: "Quat") -> bool:
        """True when the two quaternions differ by a nonzero rational scalar."""
        self._check(other)
        if self.is_zero or other.is_zero:
            return False
        pivot = next(idx for idx, c in enumerate(other.coords) if c)
        lam = self.coords[pivot] / other.coords[pivot]
        return lam != 0 and all(a == lam * b for a, b in zip(self.coords, other.coords))

    def _check(self, other: "Quat"):
        if self.ctx != other.ctx:
            raise ValueError("mixed prime contexts")

    def __repr__(self):
        q0, q1, q2, q3 = self.coords
        return f"Quat({q0} + {q1} i + {q2} j + {q3} k, p={self.ctx.p})"


def quat(ctx: PrimeCtx, q0=0, q1=0, q2=0, q3=0) -> Quat:
    return Quat(ctx, Fraction(q0), Fraction(q1), Fraction(q2), Fraction(q3))


def left_regular(x: Quat) -> Mat:
    """Left multiplication by x in the 2-dimensional Q_p(sqrt(v)) model.

    The determinant of the image equals nrd(x), and the map is an algebra
    homomorphism; both facts are exercised by the test suite.
    """
    v, p = x.ctx.v, x.ctx.p
    q0, q1, q2, q3 = x.coords
    return Mat(
        (
            (QExtElem(q0, q1, v), QExtElem(-p * q2, -p * q3, v)),
            (QExtElem(q2, -q3, v), QExtElem(q0, -q1, v)),
        )
    )


def conj_action_matrix(x: Quat) -> Mat:
    """Matrix of eta -> x eta x**-1 on the trace-zero part, basis (i, j, k).

    Columns act on coordinates; the matrix preserves diag(-v, p, -vp) and
    has determinant 1.  The action is unchanged when x is scaled, so x is
    first scaled to integer coordinates and the nine entries are integers
    over the integer nrd.
    """
    return Mat.from_numerators(*_conj_action_ints(x))


def _conj_action_ints(x: Quat) -> tuple:
    """(N, n): conj_action_matrix(x) is N / n, with N the nine unreduced
    integer numerators and n the nrd of x scaled to integer coordinates.

    Capped-precision coordinates have no integer form: ValueError."""
    try:
        ((q0, q1, q2, q3),), _ = clear_denominators((x.coords,))
    except AttributeError:  # a coordinate with no numerator or denominator
        raise ValueError("the conjugation action needs exact (rational) quaternion coordinates") from None
    v, p = x.ctx.v, x.ctx.p
    s0, s1, s2, s3 = q0 * q0, v * q1 * q1, p * q2 * q2, v * p * q3 * q3
    n = s0 - s1 + s2 - s3
    if n == 0:
        raise ZeroDivisionError("conjugation needs an invertible quaternion")
    rows = (
        (
            s0 - s1 - s2 + s3,
            2 * p * (q1 * q2 - q0 * q3),
            2 * p * (q0 * q2 - v * q1 * q3),
        ),
        (
            -2 * v * (q0 * q3 + q1 * q2),
            s0 + s1 + s2 + s3,
            2 * v * (q0 * q1 - p * q2 * q3),
        ),
        (
            -2 * (q0 * q2 + v * q1 * q3),
            2 * (q0 * q1 + p * q2 * q3),
            s0 + s1 - s2 - s3,
        ),
    )
    return rows, n
