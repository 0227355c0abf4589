r"""Rotation groups over Q_p: the Cardano chart, quaternions, certificates.

Conventions fixed here once and used everywhere else:

* The SO(2)_{p,d} block of parameter a is [[c, -d*s], [s, c]] with
  c = (1-d*a^2)/(1+d*a^2) and s = 2a/(1+d*a^2); the parameter a = infinity
  names -I.  All catalog d are positive rationals (v < 0 always), so
  1 + d*a^2 never vanishes over Q.
* The reference axes carry d_z = -v, d_y = p, d_x = -p/v and embed into
  rows/columns (0,1), (0,2), (1,2) of the 3x3 identity.  A Cardano triple
  (alpha, beta, gamma) names R_z(alpha) R_y(beta) R_x(gamma); the chart
  builds the three blocks only inside that product.
* SO(3)_p is the special isometry group of diag(1, -v, p); every Rot3
  certifies membership on construction.
* A rotation in the Cardano chart generically has exactly two triples:
  (a, b, g) and (1/(v*a), 1/(p*b), v/(p*g)) give the same matrix.
  decompose_cardano takes the one whose c_beta is 1 mod p, which is the
  triple with beta in Z_p (beta = 0 in place of infinity), and checks it
  once by rebuilding the matrix; the flipped triple is never tried.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import AmbiguityError, CertificateError, PrecisionExhausted
from .linalg import (
    Mat,
    aplus,
    is_special_isometry,
    lambda_inverse,
    lambda_matrix,
    so2_form,
)
from .padic import (
    INF,
    Infinity,
    PadicApprox,
    PrimeCtx,
    hensel_sqrt,
    rational_sqrt,
    unit_residue,
)
from .quaternion import Quat, _conj_action_ints

__all__ = [
    "Angles",
    "Rot3",
    "angles_to_quat",
    "cardano_matrix",
    "decompose_cardano",
    "quat_to_rotation",
    "rotation_to_quat",
    "so2_compose",
]


class Angles(NamedTuple):
    """Nautical-angle triple; each slot is a rational, an approx, or INF."""

    alpha: object
    beta: object
    gamma: object


def _as_param(x):
    if isinstance(x, (Fraction, Infinity, PadicApprox)):
        return x
    return Fraction(x)


def _is_zero(x) -> bool:
    # An approx that is zero to its stated precision counts as zero.
    if isinstance(x, PadicApprox):
        return x.is_zero
    return x == 0


def _so2_entries(d: Fraction, alpha) -> tuple:
    """(c, b, s) of R_d(alpha) = [[c, b], [s, c]] for a finite alpha:
    c = (1 - d a^2)/(1 + d a^2), s = 2a/(1 + d a^2) and b = -d s.

    Over Q the denominator never vanishes, d being positive.  A capped
    alpha can leave no digit of it known, as 0 + O(p^0) does on an axis
    whose d is a unit: then the block is unknown, PrecisionExhausted.
    """
    da2 = d * alpha * alpha
    den = 1 + da2
    if _is_zero(den):
        raise PrecisionExhausted("no digit of 1 + d*alpha^2 is known at this parameter's precision")
    c = (1 - da2) / den
    s = 2 * alpha / den
    return c, -d * s, s


def so2_compose(ctx: PrimeCtx, d, a, b):
    """Parameter of the product R_d(a) R_d(b).

    Finite case (a+b)/(1-d*a*b) with a vanishing denominator giving INF;
    INF absorbs as INF o b = -1/(d*b), INF o 0 = INF, INF o INF = 0.
    """
    so2_form(ctx, d)
    d = Fraction(d)
    a, b = _as_param(a), _as_param(b)
    if isinstance(a, Infinity) and isinstance(b, Infinity):
        return Fraction(0)
    if isinstance(a, Infinity) or isinstance(b, Infinity):
        t = b if isinstance(a, Infinity) else a
        if _is_zero(t):
            return INF
        return -1 / (d * t)
    den = 1 - d * a * b
    if _is_zero(den):
        return INF
    return (a + b) / den


@dataclass(frozen=True)
class Rot3:
    """A certified element of SO(3)_p.

    Construction checks M^T diag(1,-v,p) M = diag(1,-v,p) and det M = 1
    and raises CertificateError otherwise.  Entries of genuine elements
    always lie in Z_p; that is a theorem about the group, not a check.
    """

    ctx: PrimeCtx
    mat: Mat

    def __post_init__(self):
        if not is_special_isometry(self.mat, aplus(self.ctx)):
            raise CertificateError("matrix is not a p-adic rotation")

    def __mul__(self, other: "Rot3") -> "Rot3":
        if self.ctx != other.ctx:
            raise ValueError("mixed prime contexts")
        return Rot3(self.ctx, self.mat * other.mat)

    def inverse(self) -> "Rot3":
        # For an isometry of G = diag(g), the inverse is G^-1 M^T G, whose
        # (i, j) entry is M[j][i] g_j / g_i: a scaling of the transpose by
        # exact ratios, which keeps every digit of capped entries.
        g = aplus(self.ctx).diag
        m = self.mat.rows
        rows = [[_times(m[j][i], g[j] / g[i]) for j in range(3)] for i in range(3)]
        return Rot3(self.ctx, Mat(rows))


def _block_ints(d: Fraction, t) -> tuple:
    """R_d(t) for a rational or infinite t as four integers (c, b, s, den):
    the block [[c, b], [s, c]] / den.

    For t = n/m and d = dn/dd that is c = dd m^2 - dn n^2, b = -2nm dn,
    s = 2nm dd and den = dd m^2 + dn n^2; t = INF gives -I as (-1, 0, 0, 1).
    """
    if isinstance(t, Infinity):
        return -1, 0, 0, 1
    n, m = t.numerator, t.denominator
    dn, dd = d.numerator, d.denominator
    a, b, s = dd * m * m, dn * n * n, 2 * n * m
    return a - b, -s * dn, s * dd, a + b


def _block_entries(ctx: PrimeCtx, axis: str, t) -> tuple:
    """R_d(t) = [[c, b], [s, c]] about a reference axis as (c, b, s):
    Fractions for a rational or infinite t, _so2_entries' for a
    capped-precision t."""
    d = ctx.axis_d(axis)
    if isinstance(t, PadicApprox):
        return _so2_entries(d, t)
    c, b, s, den = _block_ints(d, t)
    return Fraction(c, den), Fraction(b, den), Fraction(s, den)


def _times_zero(x):
    # x * 0 for the exact 0 that pads a block: an exact zero of x's kind.
    return PadicApprox.zero(x.p) if isinstance(x, PadicApprox) else Fraction(0)


def _times_one(x):
    # x * 1 for the exact 1 that pads a block.  PadicApprox's * rounds the
    # 1 to x's absolute precision, which drops relative digits of an x of
    # negative valuation; this keeps that rounding.
    if not isinstance(x, PadicApprox) or x.is_zero or x.val >= 0:
        return x
    n = max(1, x.abs_known)
    return PadicApprox(p=x.p, val=x.val, mant=x.mant % x.p**n, n=n)


# The 0 and 1 that embed a 2x2 block in the 3x3 identity, as right factors.
_PAD_ZERO, _PAD_ONE = object(), object()


def _entry(*terms):
    """One entry of a product in Mat's entry path: the products of the
    (left, right) terms in order, each added to the sum of those before.
    A left exact zero is skipped; a right padding 0 or 1 goes through
    _times_zero or _times_one."""
    acc = None
    for left, right in terms:
        if type(left) is Fraction and not left:
            continue
        if right is _PAD_ZERO:
            term = _times_zero(left)
        elif right is _PAD_ONE:
            term = _times_one(left)
        else:
            term = left * right
        acc = term if acc is None else acc + term
    return acc


def _capped_product(z, y, x) -> tuple:
    """The rows of Z Y X from the (c, b, s) of each block, some capped.

    These are the sums Mat's entry path makes of the padded 3x3 blocks:
    the same terms, in the same order, so each entry has the same digits.
    The padding terms matter: a capped entry times an exact 0 is the
    exact zero, and adding that to a nonzero Fraction leaves it one digit.

    Z = [[a, b, 0], [c, a, 0], [0, 0, 1]], Y = [[e, 0, f], [0, 1, 0], [g, 0, e]]
    and X = [[1, 0, 0], [0, h, j], [0, i, h]].  The diagonal entries a, e
    and h are never exact zeros (1 - d t^2 has no rational root, d being
    no square), so no entry loses every term.
    """
    (a, b, c), (e, f, g), (h, j, i) = z, y, x
    zero, one = _PAD_ZERO, _PAD_ONE
    zy = (
        (_entry((a, e), (b, zero)), _entry((a, zero), (b, one)), _entry((a, f), (b, zero))),
        (_entry((c, e), (a, zero)), _entry((c, zero), (a, one)), _entry((c, f), (a, zero))),
        # row 2 of Z is the padding: 1 times row 2 of Y
        (_times_one(g), Fraction(0), _times_one(e)),
    )
    return tuple(
        (
            _entry((m0, one), (m1, zero), (m2, zero)),
            _entry((m0, zero), (m1, h), (m2, i)),
            _entry((m0, zero), (m1, j), (m2, h)),
        )
        for m0, m1, m2 in zy
    )


def _cardano_product(ctx: PrimeCtx, angles) -> Mat:
    """R_z(alpha) R_y(beta) R_x(gamma) as an uncertified Mat.

    Rational and infinite parameters multiply in closed form over the
    integers.  With the blocks of _block_ints embedded as
    Z = [[a, b, 0], [c, a, 0], [0, 0, dz]], Y = [[e, 0, f], [0, dy, 0], [g, 0, e]]
    and X = [[dx, 0, 0], [0, h, j], [0, i, h]], the nine numerators of
    Z Y X take 21 products over the denominator dz dy dx.  A
    capped-precision parameter sends the product to _capped_product.
    """
    alpha, beta, gamma = params = [_as_param(t) for t in angles]
    if any(isinstance(t, PadicApprox) for t in params):
        return Mat(_capped_product(*(_block_entries(ctx, axis, t) for axis, t in zip(ctx.AXES, params))))
    a, b, c, dz = _block_ints(ctx.d_z, alpha)
    e, f, g, dy = _block_ints(ctx.d_y, beta)
    h, j, i, dx = _block_ints(ctx.d_x, gamma)
    # Z Y = [[ae, b dy, af], [ce, a dy, cf], [g dz, 0, e dz]]
    ae, af, ce, cf = a * e, a * f, c * e, c * f
    bdy, ady, gdz, edz = b * dy, a * dy, g * dz, e * dz
    num = (
        (ae * dx, bdy * h + af * i, bdy * j + af * h),
        (ce * dx, ady * h + cf * i, ady * j + cf * h),
        (gdz * dx, edz * i, edz * h),
    )
    return Mat.from_numerators(num, dz * dy * dx)


def cardano_matrix(ctx: PrimeCtx, angles) -> Rot3:
    """R_z(alpha) R_y(beta) R_x(gamma) as a certified rotation."""
    return Rot3(ctx, _cardano_product(ctx, angles))


@lru_cache(maxsize=None)
def _lambda_ratios(ctx: PrimeCtx) -> tuple:
    """vp * lam_i / lam_j for the antidiagonal lam of lambda_matrix and of
    lambda_inverse: two 3x3 tables of integers."""
    vp = ctx.v * ctx.p

    def table(m: Mat) -> tuple:
        lam = [m.rows[i][2 - i] for i in range(3)]
        return tuple(tuple(int(vp * a / b) for b in lam) for a in lam)

    return table(lambda_matrix(ctx)), table(lambda_inverse(ctx))


def _antidiagonal_conjugate(rows, ratios, times=operator.mul) -> list:
    # For antidiagonal A with A[i][2-i] = lam_i, (A M A^-1)[i][j] is
    # (lam_i / lam_j) M[2-i][2-j]: a signed, scaled permutation of M.
    return [[times(e, f) for f, e in zip(fr, reversed(r))] for fr, r in zip(ratios, reversed(rows))]


def quat_to_rotation(x: Quat) -> Rot3:
    """The isomorphism from projective quaternions onto SO(3)_p.

    Conjugation by x acts on pure quaternions; rewriting that action in
    the coordinates where the preserved form becomes diag(1,-v,p) gives
    the rotation Lambda K Lambda^-1.  Lambda is antidiagonal, so that is a
    permutation of K's integer numerators (those of conj_action_matrix)
    with integer factors over vp nrd, reduced once.  Proportional
    quaternions map to the same element.
    """
    ctx = x.ctx
    num, n = _conj_action_ints(x)
    to_rotation, _ = _lambda_ratios(ctx)
    return Rot3(ctx, Mat.from_numerators(_antidiagonal_conjugate(num, to_rotation), ctx.v * ctx.p * n))


def angles_to_quat(ctx: PrimeCtx, angles) -> Quat:
    """Projective quaternion of a Cardano triple.

    Finite triples use the homogeneous quadruple
    [1 - p*a*b*g : (p/v)*b*g - a : b - a*g : g/v - a*b], which is never
    the zero class.  For rationals a = a'/A, b = b'/B and g = g'/G it is
    the integer quadruple
    (ABG - p a'b'g', p b'g'A - v a'BG, b'AG - a'g'B, g'AB - v a'b'G)
    over (ABG, v ABG, ABG, v ABG).  An infinite coordinate replaces the
    corresponding factor of (1 - a i)(1 + b j)(1 + (g/v) k) by the bare
    unit i, j or k.
    """
    alpha, beta, gamma = (_as_param(x) for x in angles)
    v, p = ctx.v, ctx.p
    if type(alpha) is Fraction and type(beta) is Fraction and type(gamma) is Fraction:
        a, b, g = alpha.numerator, beta.numerator, gamma.numerator
        da, db, dg = alpha.denominator, beta.denominator, gamma.denominator
        den = da * db * dg
        vden = v * den
        return Quat(
            ctx,
            Fraction(den - p * a * b * g, den),
            Fraction(p * b * g * da - v * a * db * dg, vden),
            Fraction(b * da * dg - a * g * db, den),
            Fraction(g * da * db - v * a * b * dg, vden),
        )
    if not any(isinstance(t, Infinity) for t in (alpha, beta, gamma)):
        return Quat(
            ctx,
            1 - p * alpha * beta * gamma,
            Fraction(p, v) * beta * gamma - alpha,
            beta - alpha * gamma,
            gamma / v - alpha * beta,
        )
    # the factors are built from their coordinates, so a capped angle
    # beside an infinite one stays a PadicApprox
    o, z = Fraction(1), Fraction(0)
    f1 = Quat(ctx, z, o, z, z) if isinstance(alpha, Infinity) else Quat(ctx, o, -alpha, z, z)
    f2 = Quat(ctx, z, z, o, z) if isinstance(beta, Infinity) else Quat(ctx, o, z, beta, z)
    f3 = Quat(ctx, z, z, z, o) if isinstance(gamma, Infinity) else Quat(ctx, o, z, z, gamma / v)
    return f1 * f2 * f3


def _quotient(a, b):
    return Fraction(a, b) if type(a) is int and type(b) is int else a / b


def _times(x, f: int):
    # PadicApprox's own * rounds f to x's absolute precision and so loses
    # relative digits; scaled keeps them all.
    return x.scaled(f) if isinstance(x, PadicApprox) else x * f


def rotation_to_quat(r: Rot3) -> Quat:
    """Projective quaternion of a rotation, inverse to quat_to_rotation.

    Normalized so q0 = 1, or the first nonzero coordinate is 1 when the
    scalar part vanishes (involutions).
    """
    ctx = r.ctx
    v, p = ctx.v, ctx.p
    # K = Lambda^-1 R Lambda is e / s: integers over the integer form of R,
    # entries scaled one by one for other entry types.
    num, den = r.mat.integer_form() or (r.mat.rows, 1)
    _, to_quat = _lambda_ratios(ctx)
    e = _antidiagonal_conjugate(num, to_quat, _times)
    s = v * p * den
    # trace(K) + 1 = 4 q0^2 / nrd; the antisymmetric combinations below
    # recover q0*q1, q0*q2, q0*q3 over the same denominator.
    t = e[0][0] + e[1][1] + e[2][2] + s
    if not _is_zero(t):
        return Quat(
            ctx,
            Fraction(1),
            _quotient(_times(e[2][1], v) + e[1][2], _times(t, v)),
            _quotient(e[0][2] - _times(e[2][0], p), _times(t, p)),
            _quotient(-(_times(e[0][1], v) + _times(e[1][0], p)), _times(t, p * v)),
        )
    # q0 = 0: diagonal entries give squares, off-diagonal give products.
    zero = Fraction(0)
    b1 = e[0][0] + s
    if not _is_zero(b1):
        pb1 = _times(b1, p)
        return Quat(ctx, zero, Fraction(1), _quotient(_times(e[0][1], -v), pb1), _quotient(e[0][2], pb1))
    b2 = e[1][1] + s
    if not _is_zero(b2):
        return Quat(ctx, zero, zero, Fraction(1), _quotient(-e[1][2], _times(b2, v)))
    if _is_zero(e[2][2] + s):
        raise CertificateError("degenerate rotation: no quaternion preimage")
    return Quat(ctx, zero, zero, zero, Fraction(1))


def _canonical_cos(ctx: PrimeCtx, radicand, precision: int):
    """Square root of 1 - p*s^2 on the branch that is 1 mod p, for a capped
    matrix; its s may still be an exact rational."""
    if isinstance(radicand, Fraction):
        root = rational_sqrt(radicand)
        if root is not None:
            return root if unit_residue(root, ctx.p) == 1 else -root
    return hensel_sqrt(radicand, ctx, precision)


_NO_DIGITS_FOR_INF = "the digit budget cannot tell a parameter from infinity"


def _pair_param(c, s, exact: bool):
    # s / (1 + c) for the SO(2) block with first column (c, s), INF for -I.
    # A capped 1 + c that reads zero cannot be told from INF at this digit
    # budget.  For an exact matrix c is capped only on the Hensel path,
    # where it is irrational, so the parameter is never truly INF there.
    # A capped matrix may really carry INF, which is returned.
    den = 1 + c
    if _is_zero(den):
        if exact and isinstance(c, PadicApprox):
            raise PrecisionExhausted(_NO_DIGITS_FOR_INF)
        return INF
    return s / den


def _read_angles(m, c_b, exact: bool) -> Angles:
    # the triple from the entries m of R and the cosine c_b of beta
    return Angles(
        _pair_param(m[0][0] / c_b, m[1][0] / c_b, exact),
        m[2][0] / (1 + c_b),
        _pair_param(m[2][2] / c_b, m[2][1] / c_b, exact),
    )


def _int_param(s: int, c: int):
    # s / c for a block read off integer numerators, INF for c = 0 (-I)
    return Fraction(s, c) if c else INF


def _exact_angles(r: Rot3, precision: int) -> Angles:
    """decompose_cardano's triple of an exact matrix, from its integer form."""
    ctx = r.ctx
    num, den = r.mat.integer_form()
    (n00, _, _), (n10, _, _), (n20, n21, n22) = num
    dd = den * den
    x = dd - ctx.p * n20 * n20
    if x > 0 and (root := math.isqrt(x)) * root == x:
        if (root - den) % ctx.p:
            root = -root
        # D + r = 2D mod p is a unit, so beta is finite
        return Angles(_int_param(n10, root + n00), Fraction(n20, den + root), _int_param(n21, root + n22))
    return _read_angles(r.mat.rows, hensel_sqrt(Fraction(x, dd), ctx, precision), exact=True)


def decompose_cardano(r: Rot3, precision: int = 32) -> Angles:
    """Cardano triple of a rotation, canonical branch.

    The sine of beta is the (3,1) entry; its cosine c_b is the square root
    of 1 - p*R31^2 that is 1 mod p, which makes beta = R31 / (1 + c_b) a
    p-adic integer.  The first column of R is (c_a c_b, s_a c_b, R31) and
    its last row is (R31, c_b s_g, c_b c_g), which give alpha and gamma.
    The other root of 1 - p*R31^2 only names the flipped triple, with
    beta outside Z_p, so it is never tried.

    An exact matrix is read from its integer form R = N / D.  D is prime
    to p, the entries lying in Z_p.  When x = D^2 - p N31^2 is a square
    r^2, the sign of r is the one with r/D = 1 mod p, c_b = r/D, and
    alpha = N21/(r + N11), beta = N31/(D + r) and gamma = N32/(r + N33),
    a zero denominator giving INF.  Otherwise c_b is the Hensel lift of
    x / D^2 at `precision` digits, and alpha, beta and gamma are read
    from the entries as on a capped matrix.

    The triple is checked once, by rebuilding its matrix and comparing
    it with R (digitwise at capped precision).  On a capped matrix whose
    alpha or gamma read as INF from a capped zero, a failed rebuild means
    the digits cannot tell that parameter from infinity: PrecisionExhausted.
    Any other failed rebuild raises AmbiguityError.
    """
    ctx = r.ctx
    exact = r.mat.integer_form() is not None
    if exact:
        angles = _exact_angles(r, precision)
    else:
        m = r.mat.rows
        angles = _read_angles(m, _canonical_cos(ctx, 1 - ctx.p * m[2][0] * m[2][0], precision), exact=False)
    if _cardano_product(ctx, angles).agrees(r.mat):
        return angles
    if not exact and (angles.alpha is INF or angles.gamma is INF):
        raise PrecisionExhausted(_NO_DIGITS_FOR_INF)
    raise AmbiguityError("the canonical Cardano triple does not rebuild the matrix")
