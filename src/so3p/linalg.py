"""Small exact matrices, diagonal quadratic forms, and Q_p(sqrt(v)) scalars.

Matrices here are 2x2 (SO(2) blocks, the quaternions' left-regular model)
or 3x3 (rotations and the chart Jacobian) and entry-generic: entries may be
`Fraction`, :class:`~so3p.padic.PadicApprox`, or :class:`QExtElem`, anything
supporting ring arithmetic.  Determinants are written out for those two
sizes, which is exact and cheap.

When every entry is a `Fraction`, products and the isometry certificate
clear the matrix to integer numerators over one common denominator and
work on plain integers; other entry types take the entry-generic path.
At n = 3 the integer certificate is unrolled like the determinant: six
column products against the form and det N = D^3, with no loop.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .padic import PrimeCtx, values_agree

__all__ = [
    "Mat",
    "QExtElem",
    "QuadForm",
    "aplus",
    "aprime",
    "clear_denominators",
    "int_matmul",
    "is_special_isometry",
    "lambda_matrix",
    "lambda_inverse",
    "so2_form",
]


class Mat:
    """An immutable n x n matrix over any exact scalar type.

    A matrix of Fractions may also hold its integer form (N, D); one built
    by from_numerators holds only that and makes its Fraction rows on first
    use, so intermediate products never build Fractions.
    """

    __slots__ = ("_rows", "_ints")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @classmethod
    def identity(cls, n: int) -> "Mat":
        one, zero = Fraction(1), Fraction(0)
        return cls(tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def diagonal(cls, entries) -> "Mat":
        entries = tuple(entries)
        zero = Fraction(0)
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def from_numerators(cls, num, den: int) -> "Mat":
        """The Fraction matrix num / den, for square integer rows num and den != 0.

        num / den is kept, reduced by its common factor, as the integer form.
        """
        g = math.gcd(den, *(e for r in num for e in r))
        if den < 0:
            g = -g
        m = object.__new__(cls)
        object.__setattr__(m, "_rows", None)
        object.__setattr__(m, "_ints", (tuple(tuple(e // g for e in r) for r in num), den // g))
        return m

    @property
    def rows(self) -> tuple:
        rows = self._rows
        if rows is None:
            num, den = self._ints
            rows = tuple(tuple(Fraction(e, den) for e in r) for r in num)
            object.__setattr__(self, "_rows", rows)
        return rows

    @property
    def n(self) -> int:
        return len(self._rows or self._ints[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        a, b = self.integer_form(), other.integer_form()
        if a is not None and b is not None:
            return Mat.from_numerators(int_matmul(a[0], b[0]), a[1] * b[1])
        n = self.n
        orows = other.rows
        rows = []
        for i in range(n):
            srow = self.rows[i]
            out = []
            for j in range(n):
                acc = None
                for k in range(n):
                    a = srow[k]
                    # skipping exact zeros is safe; capped-precision zeros
                    # must still propagate their knowledge bound
                    if isinstance(a, Fraction) and not a:
                        continue
                    term = a * orows[k][j]
                    acc = term if acc is None else acc + term
                out.append(acc if acc is not None else srow[0] * orows[0][j])
            rows.append(tuple(out))
        return Mat(tuple(rows))

    def integer_form(self):
        """(N, D) with integer rows N and rows == N / D, or None unless every
        entry is a Fraction.  Computed once per matrix."""
        form = self._ints
        if form is None:
            form = clear_denominators(self.rows) if _all_fractions(self.rows) else False
            object.__setattr__(self, "_ints", form)
        return form or None

    def scale(self, s) -> "Mat":
        return Mat(tuple(tuple(e * s for e in r) for r in self.rows))

    def transpose(self) -> "Mat":
        return Mat(tuple(zip(*self.rows)))

    def det(self):
        return _det(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return False
        same = self._same_integer_form(other)
        return self.rows == other.rows if same is None else same

    def __hash__(self):
        return hash(self.rows)

    def agrees(self, other: "Mat") -> bool:
        """Entrywise values_agree; exact equality unless capped precision is involved."""
        same = self._same_integer_form(other)
        if same is not None:
            return same
        if self.n != other.n:
            return False
        return all(
            values_agree(a, b) for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def _same_integer_form(self, other: "Mat"):
        # Both integer forms are reduced with D > 0, which makes (N, D)
        # canonical: equal Fraction matrices have equal forms.
        a, b = self.integer_form(), other.integer_form()
        if a is None or b is None:
            return None
        return a == b

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return f"Mat[{body}]"


def _all_fractions(rows) -> bool:
    return all(type(e) is Fraction for r in rows for e in r)


def clear_denominators(rows) -> tuple:
    """Integer numerators N and one denominator D > 0 with rows == N / D."""
    den = math.lcm(*(e.denominator for r in rows for e in r))
    return tuple(tuple(e.numerator * (den // e.denominator) for e in r) for r in rows), den


def int_matmul(a, b) -> list:
    """Product of two square integer matrices given as nested sequences."""
    cols = tuple(zip(*b))
    return [[sum(map(operator.mul, r, c)) for c in cols] for r in a]


def _det(rows):
    """Determinant of a 2x2 or 3x3 matrix given as rows."""
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    # Laplace expansion along the first row, in this order of products,
    # signs and sums: capped-precision entries lose digits by it.
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) + -(b * (d * i - f * g)) + c * (d * h - e * g)


@dataclass(frozen=True)
class QuadForm:
    """A diagonal quadratic form sum d_i * x_i**2."""

    name: str
    diag: tuple

    @property
    def dim(self) -> int:
        return len(self.diag)

    def gram(self) -> Mat:
        return Mat.diagonal(self.diag)

    @cached_property
    def _integer_diag(self):
        """Integer g with diag == g / e for one integer e, or None unless
        every entry is a Fraction."""
        return clear_denominators((self.diag,))[0][0] if _all_fractions((self.diag,)) else None


@lru_cache(maxsize=None)
def _catalog_forms(ctx: PrimeCtx) -> dict:
    return {d: QuadForm(name=f"diag(1,{d})", diag=(Fraction(1), d)) for d in ctx.so2_catalog().values()}


def so2_form(ctx: PrimeCtx, d: Fraction) -> QuadForm:
    try:
        return _catalog_forms(ctx)[d]
    except (KeyError, TypeError):
        raise ValueError(f"d = {d} is outside the catalog for p = {ctx.p}") from None


@lru_cache(maxsize=None)
def aplus(ctx: PrimeCtx) -> QuadForm:
    return QuadForm(name="A+", diag=(Fraction(1), Fraction(-ctx.v), Fraction(ctx.p)))


def aprime(ctx: PrimeCtx) -> QuadForm:
    """The restriction of the quaternion norm to trace-zero elements."""
    return QuadForm(name="A'", diag=(Fraction(-ctx.v), Fraction(ctx.p), Fraction(-ctx.v * ctx.p)))


def is_special_isometry(m: Mat, form: QuadForm) -> bool:
    """True when m preserves the form and has determinant 1.

    Uses digitwise agreement when capped-precision entries are present, exact
    equality otherwise.  The form is diagonal and the congruence product is
    symmetric, so only its upper triangle is evaluated.  A matrix of
    Fractions is checked through its integer form over the integers.
    """
    if m.n != form.dim:
        return False
    ints = m.integer_form()
    g = form._integer_diag
    if ints is not None and g is not None:
        return _int_special_isometry(*ints, g)
    diag = form.diag
    rows = m.rows
    n = m.n
    zero = Fraction(0)
    # the weighted rows diag[k] * rows[k], once each; entry (i, j) sums
    # their column i against column j of rows in the order k = 0, 1, ...
    weighted = [[d * e for e in r] for d, r in zip(diag, rows)]
    for i in range(n):
        for j in range(i, n):
            acc = weighted[0][i] * rows[0][j]
            for k in range(1, n):
                acc = acc + weighted[k][i] * rows[k][j]
            if not values_agree(acc, diag[i] if i == j else zero):
                return False
    return values_agree(m.det(), Fraction(1))


def _int_special_isometry(num, den: int, g) -> bool:
    # With M = N / D and G = g / e for integer N, g: M^T G M = G and
    # det M = 1 are the integer identities N^T g N = D^2 g and det N = D^n.
    if len(num) != 3:
        return _int_isometry_loop(num, den, g)
    # The loop below for n = 3, unrolled: with rows r, s, t of N, entry
    # (i, j) of N^T g N is g0 r_i r_j + g1 s_i s_j + g2 t_i t_j.  The rows
    # are weighted by g once, then the six entries of the upper triangle
    # and det N are compared.
    (r0, r1, r2), (s0, s1, s2), (t0, t1, t2) = num
    g0, g1, g2 = g
    gr0, gr1, gr2 = g0 * r0, g0 * r1, g0 * r2
    gs0, gs1, gs2 = g1 * s0, g1 * s1, g1 * s2
    gt0, gt1, gt2 = g2 * t0, g2 * t1, g2 * t2
    dd = den * den
    return (
        gr0 * r0 + gs0 * s0 + gt0 * t0 == g0 * dd
        and gr0 * r1 + gs0 * s1 + gt0 * t1 == 0
        and gr0 * r2 + gs0 * s2 + gt0 * t2 == 0
        and gr1 * r1 + gs1 * s1 + gt1 * t1 == g1 * dd
        and gr1 * r2 + gs1 * s2 + gt1 * t2 == 0
        and gr2 * r2 + gs2 * s2 + gt2 * t2 == g2 * dd
        and _det(num) == dd * den
    )


def _int_isometry_loop(num, den: int, g) -> bool:
    # _int_special_isometry for any n, one entry of N^T g N at a time.
    n = len(num)
    cols = list(zip(*num))
    for i in range(n):
        for j in range(i, n):
            acc = sum(gk * a * b for gk, a, b in zip(g, cols[i], cols[j]))
            if acc != (g[i] * den * den if i == j else 0):
                return False
    return _det(num) == den**n


def lambda_matrix(ctx: PrimeCtx) -> Mat:
    """Antidiagonal change of basis carrying the conjugation action into SO(3)."""
    z, p, v = Fraction(0), ctx.p, ctx.v
    return Mat(
        (
            (z, z, Fraction(-v * p)),
            (z, Fraction(p), z),
            (Fraction(-v), z, z),
        )
    )


def lambda_inverse(ctx: PrimeCtx) -> Mat:
    z, p, v = Fraction(0), ctx.p, ctx.v
    return Mat(
        (
            (z, z, Fraction(-1, v)),
            (z, Fraction(1, p), z),
            (Fraction(-1, v * p), z, z),
        )
    )


@dataclass(frozen=True)
class QExtElem:
    """An element a + b*sqrt(v) of the quadratic extension Q_p(sqrt(v)).

    v is a non-square unit, so the extension is a field; these scalars carry
    the two-dimensional matrix model of the quaternions.
    """

    a: Fraction
    b: Fraction
    v: int

    def _check(self, other: "QExtElem"):
        if self.v != other.v:
            raise ValueError("mixed extensions")

    def _lift(self, other) -> "QExtElem":
        if isinstance(other, QExtElem):
            self._check(other)
            return other
        return QExtElem(Fraction(other), Fraction(0), self.v)

    def __add__(self, other):
        other = self._lift(other)
        return QExtElem(self.a + other.a, self.b + other.b, self.v)

    __radd__ = __add__

    def __neg__(self):
        return QExtElem(-self.a, -self.b, self.v)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        other = self._lift(other)
        return QExtElem(
            self.a * other.a + self.v * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.v,
        )

    __rmul__ = __mul__

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.v}))"
