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
    `closed` is the factored determinant; `quotient` divides by the squared
    quaternion-norm weight at the chart point; `weight` is the factorized
    angle density.  All four agree on the chart domain: direct equals
    closed, and quotient equals weight.
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
    nrd = Quat(ctx, Fraction(1), x1, x2, x3).nrd()
    quotient = direct / abs_p(nrd, p) ** 2
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
    """Comparison of entry residues between a sample batch R and g R.

    statistic sums (a-b)^2/(a+b) over the residue categories that enter
    the test, dof counts the independent squared-difference modes, and
    buckets counts the categories kept.
    """

    statistic: float
    dof: int
    pvalue: float
    n: int
    buckets: int


def _residues_mod_p(m: Mat, p: int) -> tuple:
    # Rotation entries lie in Z_p, so their common denominator is a unit
    # and reduction mod p is exact.
    num, den = m.integer_form()
    inv = pow(den, -1, p)
    return tuple(e * inv % p for row in num for e in row)


def _residue_product(gbar, cat: tuple, p: int) -> tuple:
    # Reduction commutes with the product, so translating a category means
    # multiplying by g's residue matrix in F_p.
    return tuple(
        sum(gbar[i][k] * cat[3 * k + j] for k in range(3)) % p
        for i in range(3)
        for j in range(3)
    )


def _weighted_chi2_tail(x: float, weights: list) -> float:
    """P(sum w_k Z_k^2 > x) for independent standard normal Z_k.

    Imhof's inversion integral for a positive quadratic form in normals;
    exact in the limit, evaluated by quadrature.  A single mode uses the
    closed normal-tail form instead.
    """
    from scipy.integrate import quad  # deferred: only this reporter needs scipy

    if x <= 0.0:
        return 1.0
    if len(weights) == 1:
        return math.erfc(math.sqrt(x / (2.0 * weights[0])))

    def phase(u: float) -> float:
        return 0.5 * sum(math.atan(w * u) for w in weights)

    def envelope(u: float) -> float:
        return math.exp(-0.25 * sum(math.log1p((w * u) ** 2) for w in weights))

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.5 * (sum(weights) - x)
        return math.sin(phase(u) - 0.5 * x * u) * envelope(u) / u

    # head covers one oscillation; past it sin(phi - xu/2) splits into
    # sin(phi)cos(xu/2) - cos(phi)sin(xu/2) with smooth decaying factors,
    # which the Fourier rule integrates over the slowly dying tail
    head = 4.0 * math.pi / x
    val, _ = quad(integrand, 0.0, head, limit=200)
    vc, _ = quad(
        lambda u: math.sin(phase(u)) * envelope(u) / u,
        head, math.inf, weight="cos", wvar=0.5 * x,
    )
    vs, _ = quad(
        lambda u: math.cos(phase(u)) * envelope(u) / u,
        head, math.inf, weight="sin", wvar=0.5 * x,
    )
    return min(1.0, max(0.0, 0.5 + (val + vc - vs) / math.pi))


def invariance_report(g: Rot3, n: int, rng, digits: int = 16) -> InvarianceReport:
    """Statistical check that left translation by g preserves the measure.

    Draws n Haar rotations R and reduces all nine entries of R and of
    g R mod p.  Because reduction commutes with the product, the second
    count vector is the first one relabeled by left multiplication with
    g's residue matrix, a permutation of categories.  Under invariance
    the category probabilities are constant along each permutation
    cycle, and the summed (a-b)^2/(a+b) statistic converges to a sum of
    chi-square modes weighted by 1 - cos(2 pi k/L) per cycle of length
    L; the p-value integrates that law's tail.  Fixed categories carry
    no signal and cycles containing a category with combined count
    below 10 are too sparse for the normal limit; both are left out.
    Translation by the identity fixes every category, so it reproduces
    identical counts, a zero statistic, and p-value one.
    """
    ctx = g.ctx
    p = ctx.p
    counts_a: dict = {}
    counts_b: dict = {}
    flat = _residues_mod_p(g.mat, p)
    gbar = (flat[0:3], flat[3:6], flat[6:9])
    # sample_so3's draws, with digits and the axis d checked once
    _check_digits(digits)
    es = _axis_valuations(ctx)
    for _ in range(n):
        _, r = _draw_so3(ctx, rng, digits, es)
        ka = _residues_mod_p(r.mat, p)
        # reduce first, multiply in F_p: same residues as reducing g r
        kb = _residue_product(gbar, ka, p)
        counts_a[ka] = counts_a.get(ka, 0) + 1
        counts_b[kb] = counts_b.get(kb, 0) + 1
    statistic = Fraction(0)
    weights: list = []
    kept = 0
    seen: set = set()
    for start in sorted(set(counts_a) | set(counts_b)):
        if start in seen:
            continue
        cycle = [start]
        cur = _residue_product(gbar, start, p)
        while cur != start:
            cycle.append(cur)
            cur = _residue_product(gbar, cur, p)
        seen.update(cycle)
        if len(cycle) == 1:
            continue
        tallies = [(counts_a.get(c, 0), counts_b.get(c, 0)) for c in cycle]
        if any(ca + cb < 10 for ca, cb in tallies):
            continue
        kept += len(cycle)
        statistic += sum(Fraction((ca - cb) ** 2, ca + cb) for ca, cb in tallies)
        length = len(cycle)
        weights.extend(
            1.0 - math.cos(2.0 * math.pi * k / length) for k in range(1, length)
        )
    stat = float(statistic)
    dof = len(weights)
    pvalue = 1.0 if dof == 0 else _weighted_chi2_tail(stat, weights)
    return InvarianceReport(statistic=stat, dof=dof, pvalue=pvalue, n=n, buckets=kept)
