r"""Haar measure on SO(2)_{p,d} and SO(3)_p in the angle coordinates.

The parameter line of SO(2)_{p,d} is Q_p plus one point at infinity; the
Haar measure there is ``d sigma / |1 + d sigma^2|_p`` with the additive
measure normalized so Z_p has mass 1.  The point at infinity has measure
zero and never enters an integral.  SO(3)_p in Cardano coordinates carries
the product of the three axis measures (d = -v, p, -p/v); its total mass
is 4(p+1)/p, and dividing by that constant gives the normalized Haar
probability measure.

Integration is exact and takes time independent of p.  For every catalog
d, 1 + d sigma^2 is a unit on Z_p (-d is a non-square unit, or v_p(d) = 1)
and has valuation v_p(d) + 2 v_p(sigma) off it, so the density depends on
v_p(sigma) alone.  Regions are finite unions of balls and shells plus
optional Z_p and full-tail flags; each ball, shell and tail is summed in
closed geometric form.  Every mass is an exact `Fraction`.

Sampling draws the piece (Z_p or a shell) with its exact probability, then
fills in uniform digits.  Left translation acts on the parameter line as a
Mobius map; `mobius_image` computes exact images of balls, which is the
measure-preservation statement at region level.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from typing import NamedTuple

from .errors import RegionError
from .linalg import Mat, so2_form
from .padic import Infinity, PrimeCtx, abs_p, valuation
from .quaternion import Quat
from .rotation import Angles, Rot3, cardano_matrix

__all__ = [
    "BallQp",
    "InvarianceReport",
    "JacobianReport",
    "RegionQp",
    "ShellQp",
    "axis_integral",
    "complement_region",
    "hquat_density",
    "integrate_so2",
    "integrate_so3",
    "invariance_report",
    "jacobian_matrix",
    "jacobian_weight",
    "mobius_image",
    "sample_so2_param",
    "sample_so3",
    "sample_so3_batch",
    "so2_density",
    "so3_density",
    "total_mass",
]

def _canonical_center(center: Fraction, k: int, p: int) -> Fraction:
    """The representative of center mod p^k Z_p with digits only below k."""
    w = valuation(center, p)
    if w >= k:
        return Fraction(0)
    unit = center / Fraction(p) ** w
    mod = p ** (k - w)
    m = unit.numerator * pow(unit.denominator, -1, mod) % mod
    return m * Fraction(p) ** w


@dataclass(frozen=True)
class BallQp:
    """The ball center + p^k Z_p, of additive mass p**-k."""

    center: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        if self.k is True or self.k is False or not isinstance(self.k, int):
            raise RegionError("ball level must be an integer")


@dataclass(frozen=True)
class ShellQp:
    """The shell |sigma|_p = p^k, k >= 1; additive mass p^k (1 - 1/p)."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise RegionError("shell index must be an integer >= 1")


@dataclass(frozen=True)
class _Tail:
    """All shells of index >= k; internal carrier for disjointness checks."""

    k: int


def _min_valuation(ball: BallQp, p: int):
    w = valuation(ball.center, p)
    return ball.k if w >= ball.k else w


def _rank(piece) -> int:
    if isinstance(piece, BallQp):
        return 0
    if isinstance(piece, ShellQp):
        return 1
    return 2


def _intersects(p: int, x, y) -> bool:
    if _rank(x) > _rank(y):
        x, y = y, x
    if isinstance(x, BallQp):
        if isinstance(y, BallQp):
            return valuation(x.center - y.center, p) >= min(x.k, y.k)
        if isinstance(y, ShellQp):
            w = valuation(x.center, p)
            if w >= x.k:
                return -y.k >= x.k
            return w == -y.k
        return _min_valuation(x, p) <= -y.k
    if isinstance(x, ShellQp):
        if isinstance(y, ShellQp):
            return x.k == y.k
        return x.k >= y.k
    return True


def _first_overlap(p: int, groups):
    """The first intersecting pair of pieces from two different groups, or None.

    Pieces within one group are taken as disjoint already.
    """
    for i, group in enumerate(groups):
        for x in group:
            for later in groups[i + 1 :]:
                for y in later:
                    if _intersects(p, x, y):
                        return x, y
    return None


@dataclass(frozen=True)
class RegionQp:
    """A finite disjoint union of balls and shells in Q_p.

    ``include_zp`` adds all of Z_p, ``tail_from = K`` adds every shell of
    index >= K in one stroke.  Disjointness of all pieces is verified on
    construction; ball centers are reduced to their canonical finite digit
    expansions, so equal regions built from different representatives
    compare equal.
    """

    p: int
    balls: tuple = ()
    shells: tuple = ()
    include_zp: bool = False
    tail_from: int | None = None

    def __post_init__(self):
        if self.p < 2:
            raise RegionError("p must be a prime")
        balls = tuple(self.balls)
        shells = tuple(self.shells)
        if not all(isinstance(b, BallQp) for b in balls):
            raise RegionError("balls must be BallQp instances")
        if not all(isinstance(s, ShellQp) for s in shells):
            raise RegionError("shells must be ShellQp instances")
        balls = tuple(BallQp(_canonical_center(b.center, b.k, self.p), b.k) for b in balls)
        object.__setattr__(self, "balls", balls)
        object.__setattr__(self, "shells", shells)
        if self.tail_from is not None and (
            not isinstance(self.tail_from, int) or self.tail_from < 1
        ):
            raise RegionError("tail must start at a shell index >= 1")
        overlap = _first_overlap(self.p, [(x,) for x in self._pieces()])
        if overlap:
            raise RegionError("region pieces overlap: {} and {}".format(*overlap))

    def _pieces(self) -> tuple:
        pieces = list(self.balls)
        if self.include_zp:
            pieces.append(BallQp(Fraction(0), 0))
        pieces.extend(self.shells)
        if self.tail_from is not None:
            pieces.append(_Tail(self.tail_from))
        return tuple(pieces)

    def contains(self, x) -> bool:
        """Membership of a finite rational point (infinity is in no region)."""
        if isinstance(x, Infinity):
            return False
        x = Fraction(x)
        w = valuation(x, self.p)
        if self.include_zp and w >= 0:
            return True
        if self.tail_from is not None and w <= -self.tail_from:
            return True
        if any(w == -s.k for s in self.shells):
            return True
        return any(valuation(x - b.center, self.p) >= b.k for b in self.balls)

    @classmethod
    def zp(cls, p: int) -> "RegionQp":
        return cls(p, include_zp=True)

    @classmethod
    def full(cls, p: int) -> "RegionQp":
        """All of Q_p: the integers plus every shell."""
        return cls(p, include_zp=True, tail_from=1)

    @classmethod
    def ball(cls, p: int, center, k: int) -> "RegionQp":
        return cls(p, balls=(BallQp(Fraction(center), k),))

    @classmethod
    def shell(cls, p: int, k: int) -> "RegionQp":
        return cls(p, shells=(ShellQp(k),))

    @classmethod
    def tail(cls, p: int, start: int) -> "RegionQp":
        return cls(p, tail_from=start)


def so2_density(ctx: PrimeCtx, d, sigma) -> Fraction:
    """Haar density 1/|1 + d sigma^2|_p at a finite parameter value.

    Always an exact power of p; the catalog d are positive, so the
    denominator never vanishes.  Infinity carries no density.
    """
    so2_form(ctx, d)
    if isinstance(sigma, Infinity):
        raise ValueError("density undefined at infinity, a measure-zero point")
    d, sigma = Fraction(d), Fraction(sigma)
    return Fraction(ctx.p) ** valuation(1 + d * sigma * sigma, ctx.p)


def so3_density(ctx: PrimeCtx, angles) -> Fraction:
    """Product of the three axis densities at a finite Cardano triple."""
    return math.prod(
        so2_density(ctx, ctx.axis_d(axis), t) for axis, t in zip(ctx.AXES, angles, strict=True)
    )


def hquat_density(x: Quat) -> Fraction:
    """Haar density 1/|nrd(x)|_p^2 on the multiplicative quaternions."""
    if x.is_zero:
        raise ValueError("zero quaternion has no density")
    return abs_p(x.nrd(), x.ctx.p) ** (-2)


def _ball_mass_so2(p: int, e: int, c: Fraction, k: int) -> Fraction:
    """Mass of the ball c + p^k Z_p under the density p^min(0, e + 2 v(sigma)).

    That is the density 1/|1 + d sigma^2|_p of every catalog d with
    e = v_p(d); see the module docstring.
    """
    w = valuation(c, p)
    if w < k:
        # every point of the ball has valuation w
        return Fraction(p) ** (min(0, e + 2 * w) - k)
    if k >= 0:
        # p^k Z_p lies in Z_p, where the density is 1
        return Fraction(p) ** -k
    # Z_p plus the shells 1..-k, shell j of mass (1 - 1/p) p^(e - j)
    return 1 + Fraction(p) ** (e - 1) - Fraction(p) ** (e - 1 + k)


def integrate_so2(ctx: PrimeCtx, d, region: RegionQp) -> Fraction:
    """Exact Haar mass of a region of the SO(2)_{p,d} parameter line.

    The density is p^min(0, e + 2 v(sigma)) with e = v_p(d), so every piece
    has a closed form: a ball missing 0 has constant density, a ball
    p^k Z_p is Z_p plus whole shells when k < 0, a shell of index k has
    density p^(e - 2k) and mass (1 - 1/p) p^(e - k), and a full tail from K
    sums to p^(e - K).  The time taken does not depend on p.
    """
    so2_form(ctx, d)
    d = Fraction(d)
    if not isinstance(region, RegionQp):
        raise RegionError("expected a RegionQp")
    p = ctx.p
    if region.p != p:
        raise RegionError(f"region is {region.p}-adic, context is {p}-adic")
    e = valuation(d, p)
    total = Fraction(0)
    if region.include_zp:
        total += _ball_mass_so2(p, e, Fraction(0), 0)
    for b in region.balls:
        total += _ball_mass_so2(p, e, b.center, b.k)
    for s in region.shells:
        total += (1 - Fraction(1, p)) * Fraction(p) ** (e - s.k)
    if region.tail_from is not None:
        total += Fraction(p) ** (e - region.tail_from)
    return total


def _group_ds(ctx: PrimeCtx, tag: str) -> tuple:
    """The d of each parameter line of a group tag: the three axes in
    Cardano order for so3, the one catalog d for so2:<key>."""
    if tag == "so3":
        return tuple(ctx.axis_d(axis) for axis in ctx.AXES)
    catalog = ctx.so2_catalog()
    if tag.startswith("so2:") and tag[4:] in catalog:
        return (catalog[tag[4:]],)
    raise ValueError(f"unknown group tag: {tag!r}")


def total_mass(ctx: PrimeCtx, tag: str) -> Fraction:
    """Full-group mass: (p+1)/p for so2:-v, 2 for so2:p, so2:up and
    so2:-p/v, 4(p+1)/p for so3.

    Computed by the integrator over the full parameter line, not tabulated.
    """
    full = RegionQp.full(ctx.p)
    return math.prod(integrate_so2(ctx, d, full) for d in _group_ds(ctx, tag))


def integrate_so3(ctx: PrimeCtx, box, normalized: bool = False) -> Fraction:
    """Haar mass of a product region (alpha, beta, gamma box) in SO(3)_p."""
    box = tuple(box)
    if len(box) != 3:
        raise RegionError("box must give one region per angle")
    mass = math.prod(
        integrate_so2(ctx, ctx.axis_d(axis), region) for axis, region in zip(ctx.AXES, box)
    )
    if normalized:
        mass /= total_mass(ctx, "so3")
    return mass


def axis_integral(ctx: PrimeCtx, axis: str, steps) -> Fraction:
    """Normalized Haar integral over one axis subgroup of a step function.

    The function is a finite list of (region, value) pairs with pairwise
    disjoint regions; the normalization constant is the full mass of the
    axis, (1+1/p) for z and 2 for y and x.
    """
    d = ctx.axis_d(axis)
    steps = [(region, Fraction(value)) for region, value in steps]
    if not all(isinstance(region, RegionQp) for region, _ in steps):
        raise RegionError("each step needs a RegionQp")
    overlap = _first_overlap(ctx.p, [region._pieces() for region, _ in steps])
    if overlap:
        raise RegionError("step regions overlap: {} and {}".format(*overlap))
    acc = Fraction(0)
    for region, value in steps:
        acc += value * integrate_so2(ctx, d, region)
    return acc / integrate_so2(ctx, d, RegionQp.full(ctx.p))


class JacobianReport(NamedTuple):
    """Four mutually consistent readings of the chart's measure weight."""

    direct: Fraction  # |det J|_p from the nine entries
    closed: Fraction  # |det J|_p from the factored closed form
    quotient: Fraction  # direct / |nrd(1, x1, x2, x3)|_p^2
    weight: Fraction  # the factorized density in the three angles


def _finite_triple(angles) -> tuple:
    out = []
    for x in angles:
        if isinstance(x, Infinity):
            raise ValueError("Jacobian needs finite angles")
        out.append(Fraction(x))
    return tuple(out)


def jacobian_matrix(ctx: PrimeCtx, angles) -> Mat:
    """Jacobian of (alpha, beta, gamma) -> (x1, x2, x3), the q0 = 1 chart.

    Rows differentiate x1 = ((p/v) b g - a) / (1 - p a b g),
    x2 = (b - a g) / (1 - p a b g), x3 = (g/v - a b) / (1 - p a b g).
    """
    a, b, g = _finite_triple(angles)
    p, v = ctx.p, ctx.v
    m1 = p * a * b * g - 1
    if m1 == 0:
        raise ZeroDivisionError("singular locus 1 - p*alpha*beta*gamma = 0")
    w1 = v * a - p * b * g
    w2 = b - a * g
    w3 = v * a * b - g
    return Mat(
        (
            (
                -p * b * g * w1 / (v * m1 * m1) + 1 / m1,
                -p * a * g * w1 / (v * m1 * m1) - p * g / (v * m1),
                -p * a * b * w1 / (v * m1 * m1) - p * b / (v * m1),
            ),
            (
                p * b * g * w2 / (m1 * m1) + g / m1,
                p * a * g * w2 / (m1 * m1) - 1 / m1,
                p * a * b * w2 / (m1 * m1) + a / m1,
            ),
            (
                -p * b * w3 * g / (v * m1 * m1) + b / m1,
                -p * a * w3 * g / (v * m1 * m1) + a / m1,
                -p * a * b * w3 / (v * m1 * m1) - 1 / (v * m1),
            ),
        )
    )


def jacobian_weight(ctx: PrimeCtx, angles) -> JacobianReport:
    """Check the change-of-variables weight four independent ways.

    `direct` evaluates the nine Jacobian entries and takes |det|_p;
    `closed` is the factored determinant; `quotient` multiplies it by the
    Haar density of H_p^x (hquat_density) at the chart point's quaternion;
    `weight` is the factorized angle density.  All four agree on the chart
    domain: direct equals closed, and quotient equals weight.
    """
    a, b, g = _finite_triple(angles)
    p, v = ctx.p, ctx.v
    jac = jacobian_matrix(ctx, angles)
    direct = abs_p(jac.det(), p)
    m1 = p * a * b * g - 1
    closed = abs_p(
        -((p * b * b - 1) * (v * a * a - 1) * (v - p * g * g)) / (v * v * m1**4), p
    )
    x1 = (Fraction(p, v) * b * g - a) / (1 - p * a * b * g)
    x2 = (b - a * g) / (1 - p * a * b * g)
    x3 = (g / v - a * b) / (1 - p * a * b * g)
    quotient = direct * hquat_density(Quat(ctx, Fraction(1), x1, x2, x3))
    weight = so3_density(ctx, Angles(a, b, g))
    return JacobianReport(direct=direct, closed=closed, quotient=quotient, weight=weight)


def _randbelow(rng: random.Random, n: int) -> int:
    """rng.randrange(n), drawn from getrandbits the way randrange draws it:
    n's bit length per draw, rejecting values >= n."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _digits(rng: random.Random, p: int, count: int) -> int:
    """count uniform base-p digits, the least significant drawn first.

    Each digit is rng.randrange(p), inlined as in _randbelow, and the
    value is folded by Horner's rule from the last digit drawn.
    """
    getrandbits = rng.getrandbits
    k = p.bit_length()
    drawn = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= p:
            r = getrandbits(k)
        drawn.append(r)
    acc = 0
    for r in reversed(drawn):
        acc = acc * p + r
    return acc


def _catalog_valuation(ctx: PrimeCtx, d) -> int:
    """v_p(d) for a catalog d; ValueError for any other d.

    A catalog d has valuation 0 or 1 and a denominator prime to p, so it
    is 1 exactly when p divides the numerator.
    """
    return 0 if so2_form(ctx, d).diag[1].numerator % ctx.p else 1


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise ValueError(f"digits must be at least 1, got {digits}")


def _draw_so2(rng: random.Random, p: int, e: int, digits: int) -> Fraction:
    """sample_so2_param for a d already checked, of valuation e."""
    # P(Z_p) is p/(p+1) when e = 0 and 1/2 when e = 1.
    if e:
        in_zp = _randbelow(rng, 2) == 0
    else:
        in_zp = _randbelow(rng, p + 1) != 0
    if in_zp:
        return Fraction(_digits(rng, p, digits))
    k = 1
    while _randbelow(rng, p) == 0:
        k += 1
    lead = 1 + _randbelow(rng, p - 1)
    return Fraction(lead + p * _digits(rng, p, digits - 1), p**k)


def sample_so2_param(ctx: PrimeCtx, d, rng: random.Random, digits: int = 32) -> Fraction:
    """One draw from the normalized Haar measure of SO(2)_{p,d}.

    The piece is chosen first with its exact probability, Z_p getting
    1/total and shell k getting (1 - 1/p) p^(e-k)/total; within the piece
    the value is `digits` uniform base-p digits.  Infinity has probability
    zero and is never returned.  The generator must be an explicitly seeded
    `random.Random`: its `getrandbits` is drawn from exactly as
    `randrange` would draw, so the stream for a seed is that of randrange.
    """
    _check_digits(digits)
    return _draw_so2(rng, ctx.p, _catalog_valuation(ctx, d), digits)


def _draw_so3(ctx: PrimeCtx, rng: random.Random, digits: int, es: tuple) -> tuple:
    """sample_so3 with the valuation e of each axis d given, in Cardano order."""
    p = ctx.p
    angles = Angles(*(_draw_so2(rng, p, e, digits) for e in es))
    return angles, cardano_matrix(ctx, angles)


def _axis_valuations(ctx: PrimeCtx) -> tuple:
    return tuple(_catalog_valuation(ctx, ctx.axis_d(axis)) for axis in ctx.AXES)


def sample_so3(ctx: PrimeCtx, rng: random.Random, digits: int = 32) -> tuple:
    """A Haar-random rotation: three independent axis draws, certified."""
    _check_digits(digits)
    return _draw_so3(ctx, rng, digits, _axis_valuations(ctx))


_BATCH_CHUNK = 64


def _stream_rng(seed, index: int) -> random.Random:
    import hashlib  # deferred: importing it maps OpenSSL, and only batches hash

    key = hashlib.sha256(f"so3p.haar:{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(key[:16], "big"))


def sample_so3_batch(ctx: PrimeCtx, seed, count: int, digits: int = 32, threads: int = 1):
    """A deterministic batch of Haar draws.

    The batch is cut into fixed-size chunks, each with its own generator
    derived by hashing (seed, chunk index), and the chunks run in order,
    so the output depends only on the seed, the count and the digit depth.
    `threads` is accepted and has no effect: the draws are GIL-bound
    Fraction work, and a thread pool made them slower.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    _check_digits(digits)
    es = _axis_valuations(ctx)
    draws = []
    for idx in range((count + _BATCH_CHUNK - 1) // _BATCH_CHUNK):
        rng = _stream_rng(seed, idx)
        take = min(_BATCH_CHUNK, count - idx * _BATCH_CHUNK)
        draws.extend(_draw_so3(ctx, rng, digits, es) for _ in range(take))
    return draws


def complement_region(ctx: PrimeCtx, ball: BallQp) -> RegionQp:
    """Q_p minus a ball: sibling balls level by level plus a full tail.

    Points outside B(c, k) split by the valuation t of sigma - c; each
    t below k contributes the p - 1 sibling balls at level t + 1, and
    once t drops below both v_p(c) and 0 those siblings collapse into
    whole shells, which the tail flag captures in one stroke.
    """
    p = ctx.p
    center = Fraction(ball.center)
    k0 = min(ball.k, valuation(center, p), 0)
    siblings = []
    for t in range(k0, ball.k):
        step = Fraction(p) ** t
        for a in range(1, p):
            siblings.append(BallQp(center + a * step, t + 1))
    return RegionQp(p, balls=tuple(siblings), tail_from=1 - k0)


def mobius_image(ctx: PrimeCtx, d, alpha0, ball: BallQp) -> RegionQp:
    """Exact image of a parameter ball under left translation by alpha0.

    The translation acts as sigma -> (alpha0 + sigma)/(1 - d alpha0 sigma).
    A Mobius map scales ultrametric balls by |derivative|_p, so when the
    pole 1/(d alpha0) lies outside the ball the image is again a ball;
    when the pole lies inside, the image is the whole line outside a ball
    around the image of infinity (plus infinity itself, which carries no
    mass).  alpha0 = INF composes with -I and maps sigma to -1/(d sigma).
    """
    so2_form(ctx, d)
    d = Fraction(d)
    if isinstance(alpha0, Infinity):
        coeffs = (Fraction(-1), Fraction(0), Fraction(0), d)
    else:
        alpha0 = Fraction(alpha0)
        if alpha0 == 0:
            return RegionQp(ctx.p, balls=(ball,))
        coeffs = (alpha0, Fraction(1), Fraction(1), -d * alpha0)
    a, b, c, e = coeffs
    p = ctx.p
    delta = b * c - a * e  # 1 + d alpha0^2 for a translation, never zero
    pole = -c / e
    vpc = valuation(pole - ball.center, p)
    if vpc >= ball.k:
        inner_level = valuation(delta, p) - 2 * valuation(e, p) - ball.k + 1
        return complement_region(ctx, BallQp(b / e, inner_level))
    level = ball.k + valuation(delta, p) - 2 * valuation(e, p) - 2 * vpc
    image_center = (a + b * ball.center) / (c + e * ball.center)
    return RegionQp(p, balls=(BallQp(image_center, level),))


class InvarianceReport(NamedTuple):
    """Pearson tests of the residues of g R, R Haar, against their exact law.

    statistic and dof are Pearson's X^2 and its cells - 1, for the first
    column and then the last row of g R mod p; pvalue is the Bonferroni
    combination min(1, 2 min(p_column, p_row)) of their two tails; needed
    is _draws_needed(p).
    """

    statistic: tuple
    dof: tuple
    pvalue: float
    n: int
    needed: int


def _draws_needed(p: int) -> int:
    # 10 p^2 puts 5 expected draws in each of the 2 p^2 row cells of
    # invariance_report; below it the chi-square tail is no guide
    return 10 * p * p


def _residues_mod_p(m: Mat, p: int) -> tuple:
    # Rotation entries lie in Z_p, so their common denominator is a unit
    # and reduction mod p is exact.
    num, den = m.integer_form()
    inv = pow(den, -1, p)
    return tuple(e * inv % p for row in num for e in row)


def _chi2_tail(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with a positive integer dof.

    With y = x/2 this is the regularized upper gamma Q(dof/2, y), and
    Q(a + 1, y) = Q(a, y) + y^a e^-y / Gamma(a + 1) unrolls it to a finite
    sum from Q(0, y) = 0 for even dof or Q(1/2, y) = erfc(sqrt y) for odd
    dof.  Each term is taken in log space, so no power of y overflows.
    """
    if x <= 0.0:
        return 1.0
    y = 0.5 * x
    half = 0.5 * (dof % 2)
    terms = [math.erfc(math.sqrt(y)) if half else 0.0]
    for j in range(dof // 2):
        a = j + half
        terms.append(math.exp(a * math.log(y) - y - math.lgamma(a + 1)))
    return min(1.0, math.fsum(terms))


def _pearson(counts: dict, cells: int, n: int) -> tuple:
    """Pearson's X^2 of n draws against equal probabilities on `cells`
    cells (the empty ones included), and its tail on cells - 1 dof."""
    stat = (cells * sum(c * c for c in counts.values()) - n * n) / n
    return stat, _chi2_tail(stat, cells - 1)


def invariance_report(g: Rot3, n: int, rng, digits: int = 16) -> InvarianceReport:
    """Test that the sampler's draws, left-translated by g, are Haar mod p.

    Rotation entries lie in Z_p, so reduction mod p maps SO(3)_p onto a
    finite group G_1, and Haar measure pushes forward to the uniform law
    on G_1, which translation by g keeps.  By orbit-stabiliser, every
    point of an orbit has one coset of the stabiliser over it, so the
    first column of g R mod p is uniform on the orbit G_1 e_1 and its last
    row on e_3^T G_1.  With Q = diag(1, -v, p) those orbits are

        C = {x : x_0^2 - v x_1^2 = 1, x_2 free}, p(p+1) cells,
        W = {x : x_2 = +-1, x_0 and x_1 free}, 2 p^2 cells.

    Into: R^T Q R = Q reduces, at entry (1, 1), to x_0^2 - v x_1^2 = 1 for
    the column x, and R (p Q^-1) R^T = p Q^-1 = diag(p, -p/v, 1) reduces,
    at entry (3, 3), to x_2^2 = 1 for the row x.  Onto: mod p the z block
    of alpha in Z_p or inf runs over the whole conic (c, s) (its Cayley
    parametrisation, inverse alpha = s/(1 + c)), R_y(beta) for beta in
    Z_p is the shear e_1 -> e_1 + 2 beta e_3, R_x(gamma) for gamma in Z_p
    is the shear e_2 -> e_2 + 2 gamma e_3, and R_y(inf) is -1 on e_1 and
    e_3.  So R_z(alpha) R_y(beta) e_1 = (c, s, 2 beta) reaches all of C,
    and e_3^T R_y(inf)^k R_y(beta) R_x(gamma) = +-(2 beta, 2 gamma, 1) all
    of W.  The column is the reading of alpha and beta, the row that of
    beta and gamma.

    The report draws n rotations as sample_so3 does, takes g R mod p as
    (g mod p)(R mod p), and counts the column over C and the row over W.
    Against equal cell probabilities Pearson's statistic has cells - 1
    dof, so the identity translation is tested like any other.  It is
    blind to a permutation of the cells, and g mod p permutes C, so the
    column reads the same for every g; the row e_3^T g R mixes the rows
    of R and is a different reading for each g.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    ctx = g.ctx
    p = ctx.p
    flat = _residues_mod_p(g.mat, p)
    gbar = (flat[0:3], flat[3:6], flat[6:9])
    cols: dict = {}
    rows: dict = {}
    # sample_so3's draws, with digits and the axis d checked once
    _check_digits(digits)
    es = _axis_valuations(ctx)
    for _ in range(n):
        _, r = _draw_so3(ctx, rng, digits, es)
        x = _residues_mod_p(r.mat, p)
        col = tuple((a * x[0] + b * x[3] + c * x[6]) % p for a, b, c in gbar)
        a, b, c = gbar[2]
        row = tuple((a * x[j] + b * x[3 + j] + c * x[6 + j]) % p for j in range(3))
        cols[col] = cols.get(col, 0) + 1
        rows[row] = rows.get(row, 0) + 1
    cells = (p * (p + 1), 2 * p * p)
    (stat_c, tail_c), (stat_r, tail_r) = _pearson(cols, cells[0], n), _pearson(rows, cells[1], n)
    return InvarianceReport(
        statistic=(stat_c, stat_r),
        dof=(cells[0] - 1, cells[1] - 1),
        pvalue=min(1.0, 2.0 * min(tail_c, tail_r)),
        n=n,
        needed=_draws_needed(p),
    )
