r"""Named identity suites with counterexample reporting.

Each suite runs a family of exact checks against freshly drawn random
inputs and returns one CheckResult per identity.  A failing result carries
the offending input, printed compactly, so a regression is reproducible
from the report alone.  All checks are exact rational comparisons except
the invariance suite, which is statistical by nature: per translation it
reports Pearson's chi-square of the sampled residues mod p against their
exact Haar law, and fails as inconclusive below 10 p^2 draws.

Suites: algebra (quaternion arithmetic laws), iso (the conjugation map
into 3x3 isometries and the nautical-angle chart round trip), jacobian
(chart derivative against its factorized absolute value), measure (closed
mass totals, and exact translation invariance of the integrator with each
translated ball checked point by point), and
invariance (sampler residues mod p, translated, against their exact law).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import haar
from .linalg import (
    Mat,
    QExtElem,
    aplus,
    aprime,
    is_special_isometry,
    lambda_inverse,
    lambda_matrix,
)
from .padic import INF, PrimeCtx, abs_p, valuation
from .quaternion import Quat, conj_action_matrix, left_regular, quat
from .rotation import Angles, cardano_matrix, decompose_cardano, quat_to_rotation, so2_compose

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "algebra_suite",
    "cardano_roundtrip_check",
    "invariance_suite",
    "iso_suite",
    "jacobian_suite",
    "measure_suite",
    "run_suites",
    "unit_quotient_check",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rand_rational(rng: random.Random, p: int, vmin: int = -3, vmax: int = 3) -> Fraction:
    unit = rng.randrange(1, p**4)
    while unit % p == 0:
        unit = rng.randrange(1, p**4)
    if rng.randrange(2):
        unit = -unit
    return Fraction(unit) * Fraction(p) ** rng.randrange(vmin, vmax + 1)


def _rand_quat(rng: random.Random, ctx: PrimeCtx) -> Quat:
    while True:
        q = Quat(ctx, *(_rand_rational(rng, ctx.p) for _ in range(4)))
        if q.nrd() != 0:
            return q


def _check(name: str, samples: int, draw: Callable, test: Callable) -> CheckResult:
    """Run `test` on `samples` draws; stop at the first counterexample."""
    for i in range(samples):
        args = draw()
        ok, witness = test(*args)
        if not ok:
            return CheckResult(name, False, f"counterexample at draw {i}: {witness}")
    return CheckResult(name, True, f"{samples} samples, exact")


def algebra_suite(ctx: PrimeCtx, samples: int, rng: random.Random) -> list[CheckResult]:
    """Arithmetic laws of the quaternion order: norms, traces, inverses."""
    p, v = ctx.p, ctx.v
    draw2 = lambda: (_rand_quat(rng, ctx), _rand_quat(rng, ctx))
    draw1 = lambda: (_rand_quat(rng, ctx),)

    results = [
        _check(
            "nrd multiplicative",
            samples,
            draw2,
            lambda a, b: ((a * b).nrd() == a.nrd() * b.nrd(), f"{a.coords} * {b.coords}"),
        ),
        _check(
            "trd linear",
            samples,
            draw2,
            lambda a, b: ((a + b).trd() == a.trd() + b.trd(), f"{a.coords} + {b.coords}"),
        ),
        _check(
            "inverse law",
            samples,
            draw1,
            lambda a: (
                (a * a.inverse()).coords == (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
                f"{a.coords}",
            ),
        ),
        _check(
            "left regular det = nrd",
            samples,
            draw1,
            lambda a: (
                left_regular(a).det() == QExtElem(a.nrd(), Fraction(0), ctx.v),
                f"{a.coords}",
            ),
        ),
    ]
    k = quat(ctx, q3=1)
    kk = (k * k).coords
    expected = (Fraction(v * p), Fraction(0), Fraction(0), Fraction(0))
    shown = "(" + ", ".join(str(c) for c in kk) + ")"
    results.append(
        CheckResult("k*k = vp", kk == expected, f"k*k = {shown}, vp = {v * p}")
    )
    return results


def _tp(ctx: PrimeCtx, x: Quat) -> Mat:
    lam = lambda_matrix(ctx)
    return lam * conj_action_matrix(x) * lambda_inverse(ctx)


def iso_suite(ctx: PrimeCtx, samples: int, rng: random.Random) -> list[CheckResult]:
    """The conjugation map lands in certified isometries, multiplicatively,
    and the nautical-angle chart inverts its own matrix."""
    form = aplus(ctx)
    kform = aprime(ctx)
    draw2 = lambda: (_rand_quat(rng, ctx), _rand_quat(rng, ctx))
    draw1 = lambda: (_rand_quat(rng, ctx),)

    def scale_draw():
        x = _rand_quat(rng, ctx)
        lam = _rand_rational(rng, ctx.p)
        return x, lam

    results = [
        _check(
            "conjugation is multiplicative",
            samples,
            draw2,
            lambda a, b: (_tp(ctx, a * b).agrees(_tp(ctx, a) * _tp(ctx, b)), f"{a.coords}, {b.coords}"),
        ),
        _check(
            "conjugation kills scaling",
            samples,
            scale_draw,
            lambda x, lam: (_tp(ctx, x.scale(lam)).agrees(_tp(ctx, x)), f"{x.coords} scaled by {lam}"),
        ),
        _check(
            "image is a special isometry of diag(1,-v,p)",
            samples,
            draw1,
            lambda x: (is_special_isometry(_tp(ctx, x), form), f"{x.coords}"),
        ),
        _check(
            "pure-part action preserves diag(-v,p,-vp)",
            samples,
            draw1,
            lambda x: (
                (lambda m: (m.transpose() * kform.gram() * m).agrees(kform.gram()))(conj_action_matrix(x)),
                f"{x.coords}",
            ),
        ),
    ]
    results.append(cardano_roundtrip_check(ctx, samples, rng))
    return results


def cardano_roundtrip_check(ctx: PrimeCtx, samples: int, rng: random.Random) -> CheckResult:
    """decompose(cardano(a)) == a on the chart, with beta drawn in Zp so the
    triple already sits in the canonical branch the decomposition reports."""
    p = ctx.p

    def draw():
        while True:
            alpha = _rand_rational(rng, p)
            beta = _rand_rational(rng, p, vmin=0)
            gamma = _rand_rational(rng, p)
            if 1 - p * alpha * beta * gamma != 0:
                return (Angles(alpha, beta, gamma),)

    def test(angles):
        got = decompose_cardano(cardano_matrix(ctx, angles))
        same = all(a == b for a, b in zip(got, angles))
        return same, f"{tuple(angles)} came back as {tuple(got)}"

    return _check("nautical chart round trip", samples, draw, test)


def jacobian_suite(ctx: PrimeCtx, samples: int, rng: random.Random) -> list[CheckResult]:
    """Chart derivative: exact determinant equals the closed factorization,
    and dividing by the squared point norm leaves the density weight."""
    p = ctx.p

    def draw():
        while True:
            angles = Angles(*(_rand_rational(rng, p) for _ in range(3)))
            if 1 - p * angles.alpha * angles.beta * angles.gamma != 0:
                return (angles,)

    def direct_test(angles):
        rep = haar.jacobian_weight(ctx, angles)
        return rep.direct == rep.closed, f"{tuple(angles)}: {rep.direct} vs {rep.closed}"

    def weight_test(angles):
        rep = haar.jacobian_weight(ctx, angles)
        return rep.quotient == rep.weight, f"{tuple(angles)}: {rep.quotient} vs {rep.weight}"

    return [
        _check("det matches closed form", samples, draw, direct_test),
        _check("det / |point norm|^2 is the density", samples, draw, weight_test),
        unit_quotient_check(ctx, samples, rng),
    ]


def unit_quotient_check(ctx: PrimeCtx, samples: int, rng: random.Random) -> CheckResult:
    """|1 - p b^2|_p == |1 + p b^2|_p across valuations of b."""
    p = ctx.p

    def draw():
        return (_rand_rational(rng, p, vmin=-10, vmax=10),)

    def test(beta):
        lhs = abs_p(1 - p * beta * beta, p)
        rhs = abs_p(1 + p * beta * beta, p)
        return lhs == rhs, f"beta = {beta}: {lhs} vs {rhs}"

    return _check("|1 - p b^2| = |1 + p b^2|", samples, draw, test)


def measure_suite(ctx: PrimeCtx, samples: int, rng: random.Random) -> list[CheckResult]:
    """Mass totals in closed form and exact invariance under translation:
    a ball and its mobius_image have one mass, and so2_compose sends points
    of the ball into the image and points outside it out of the image."""
    p = ctx.p
    results = []

    expected = {
        "so2:-v": Fraction(p + 1, p),
        "so2:p": Fraction(2),
        "so2:-p/v": Fraction(2),
    }
    for tag, want in expected.items():
        got = haar.total_mass(ctx, tag)
        results.append(
            CheckResult(f"total mass {tag}", got == want, f"{got} (expected {want})")
        )
    so3 = haar.total_mass(ctx, "so3")
    want3 = Fraction(4 * (p + 1), p)
    results.append(CheckResult("total mass so3", so3 == want3, f"{so3} (expected {want3})"))

    zp3 = haar.integrate_so3(ctx, [haar.RegionQp.zp(p)] * 3, normalized=True)
    wantzp = Fraction(p, 4 * (p + 1))
    results.append(
        CheckResult("normalized mass of Zp^3", zp3 == wantzp, f"{zp3} (expected {wantzp})")
    )
    full = haar.integrate_so3(ctx, [haar.RegionQp.full(p)] * 3, normalized=True)
    results.append(CheckResult("normalized full mass", full == 1, f"{full} (expected 1)"))

    def draw():
        d = rng.choice(list(ctx.so2_catalog().values()))
        alpha0 = INF if rng.randrange(12) == 0 else _rand_rational(rng, p)
        center = _rand_rational(rng, p, vmin=-2, vmax=2)
        k = rng.randrange(-3, 4)
        # a point of the ball and a point drawn wider, mostly outside it
        points = (center + Fraction(p) ** k * rng.randrange(p**4), _rand_rational(rng, p, vmin=-4, vmax=4))
        return d, alpha0, haar.BallQp(center, k), points

    def test(d, alpha0, ball, points):
        where = f"d={d}, alpha0={alpha0}, ball=({ball.center},{ball.k})"
        region = haar.RegionQp(p, balls=(ball,))
        image = haar.mobius_image(ctx, d, alpha0, ball)
        before, after = haar.integrate_so2(ctx, d, region), haar.integrate_so2(ctx, d, image)
        if before != after:
            return False, f"{where}: {before} vs {after}"
        # the image holds the translate of every point of the ball and of
        # no point outside it; a point sent to INF is skipped, as no region
        # holds INF
        for point in points:
            tau = so2_compose(ctx, d, alpha0, point)
            if tau is not INF and image.contains(tau) != region.contains(point):
                return False, f"{where}: {point} goes to {tau}"
        return True, ""

    results.append(_check("translation preserves ball mass", samples, draw, test))
    return results


def _fixed_translations(ctx: PrimeCtx):
    """Three documented group elements: a single-axis turn, a generic
    product of all three axes, and an involution from a pure quaternion."""
    one = Fraction(1)
    zero = Fraction(0)
    return [
        ("z-axis turn", cardano_matrix(ctx, Angles(one, zero, zero))),
        ("generic triple", cardano_matrix(ctx, Angles(one, one, one))),
        ("involution", quat_to_rotation(quat(ctx, q1=1))),
    ]


def invariance_suite(
    ctx: PrimeCtx,
    samples: int,
    rng: random.Random,
    digits: int = 12,
    alpha: float = 1e-3,
) -> list[CheckResult]:
    """Sampled residues of g R mod p against their exact Haar law.

    One Pearson test per fixed translation g (see haar.invariance_report),
    failing when its p-value is at most alpha.  Below 10 p^2 draws the
    chi-square tail is no guide, and the check draws nothing and fails as
    inconclusive with the number of draws it needs: the default 2000
    covers p <= 13.
    """
    translations = _fixed_translations(ctx)
    needed = haar._draws_needed(ctx.p)
    if samples < needed:
        detail = f"inconclusive: n = {samples}, needs at least {needed} draws"
        return [CheckResult(f"sampler invariance under {label}", False, detail) for label, _ in translations]
    results = []
    for label, g in translations:
        sub = random.Random(rng.getrandbits(64))
        rep = haar.invariance_report(g, samples, sub, digits=digits)
        (chi_c, chi_r), (dof_c, dof_r) = rep.statistic, rep.dof
        ok, detail = rep.pvalue > alpha, (
            f"column chi2 = {chi_c:.2f} (dof {dof_c}), row chi2 = {chi_r:.2f} (dof {dof_r}),"
            f" p = {rep.pvalue:.4g}, n = {rep.n}"
        )
        results.append(CheckResult(f"sampler invariance under {label}", ok, detail))
    return results


# Suite name -> (suite, default draws), in the order `all` runs them.
_SUITES = {
    "algebra": (algebra_suite, 200),
    "iso": (iso_suite, 200),
    "jacobian": (jacobian_suite, 200),
    "measure": (measure_suite, 40),
    "invariance": (invariance_suite, 2000),
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(
    ctx: PrimeCtx,
    names: Iterable[str],
    samples: int | None = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the named suites with a per-suite seeded stream; `samples=None`
    picks a per-suite default sized for interactive use.  A count below 1
    raises ValueError: a check run on no draws cannot fail."""
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    results: list[CheckResult] = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite: {name!r}")
        suite, default = _SUITES[name]
        rng = random.Random(f"so3p.verify:{seed}:{ctx.p}:{name}")
        results.extend(suite(ctx, default if samples is None else samples, rng))
    return results
