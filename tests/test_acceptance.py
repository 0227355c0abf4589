"""Acceptance gate: each test runs one criterion at its stated strength.

Every equality here is exact rational equality; the single statistical
criterion states its significance level.  Budgeted criteria assert their
own wall-clock limits.  Run with -v for one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

from so3p.errors import AmbiguityError
from so3p.haar import (
    RegionQp,
    BallQp,
    integrate_so2,
    integrate_so3,
    invariance_report,
    jacobian_weight,
    mobius_image,
)
from so3p.linalg import aplus, aprime, is_special_isometry, lambda_inverse, lambda_matrix
from so3p.padic import INF, abs_p, canonical_units
from so3p.quaternion import Quat, conj_action_matrix
from so3p.rotation import Angles, cardano_matrix, decompose_cardano
from so3p.verify import _fixed_translations, algebra_suite

PRIMES = (3, 5, 7, 11, 13)


def _report(num, text):
    print(f"criterion {num:>2} PASS  {text}")


def rand_rational(rng, p, vmin=-2, vmax=2):
    unit = rng.randrange(1, p * p)
    while unit % p == 0:
        unit = rng.randrange(1, p * p)
    if rng.randrange(2):
        unit = -unit
    return Fraction(unit) * Fraction(p) ** rng.randrange(vmin, vmax + 1)


def rand_quat(rng, ctx):
    while True:
        q = Quat(ctx, *(rand_rational(rng, ctx.p) for _ in range(4)))
        if q.nrd() != 0:
            return q


def test_criterion_01_so2_totals_via_integrator():
    for p in PRIMES:
        ctx = canonical_units(p)
        full = RegionQp.full(p)
        start = time.perf_counter()
        assert integrate_so2(ctx, ctx.d_z, full) == Fraction(p + 1, p)
        assert integrate_so2(ctx, ctx.d_y, full) == 2
        assert integrate_so2(ctx, ctx.d_x, full) == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"p={p} took {elapsed:.3f}s"
    _report(1, "SO(2) totals (p+1)/p, 2, 2 for all five primes, each under 1s")


def test_criterion_02_so3_total_and_normalization():
    for p in PRIMES:
        ctx = canonical_units(p)
        box = [RegionQp.full(p)] * 3
        assert integrate_so3(ctx, box) == Fraction(4 * (p + 1), p)
        assert integrate_so3(ctx, box, normalized=True) == 1
    _report(2, "SO(3) total 4(p+1)/p and normalized full mass 1, exact")


def test_criterion_03_zp_cube_mass():
    # the integrator sums Z_p in closed form from the density's valuation
    # formula, which tests/test_haar.py checks point by point
    for p in PRIMES:
        ctx = canonical_units(p)
        box = [RegionQp.zp(p)] * 3
        assert integrate_so3(ctx, box, normalized=True) == Fraction(p, 4 * (p + 1))
    _report(3, "normalized mass of Zp^3 equals p/(4(p+1)), certificate-backed")


def test_criterion_04_isomorphism_suite():
    rng = random.Random(401)
    start = time.perf_counter()
    for p in PRIMES:
        ctx = canonical_units(p)
        lam, lami = lambda_matrix(ctx), lambda_inverse(ctx)
        form = aplus(ctx)
        kform = aprime(ctx)

        def tp(x):
            return lam * conj_action_matrix(x) * lami

        for _ in range(1000):
            a, b = rand_quat(rng, ctx), rand_quat(rng, ctx)
            assert tp(a * b).agrees(tp(a) * tp(b))
            assert tp(a.scale(rand_rational(rng, p))).agrees(tp(a))
            assert is_special_isometry(tp(a), form)
            assert is_special_isometry(conj_action_matrix(b), kform)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(4, f"conjugation map identities, 1000 draws x 5 primes, {elapsed:.1f}s")


def test_criterion_05_cardano_roundtrip():
    # the chart covers each rotation through two parameter triples; the
    # decomposition reports the branch with beta in Zp, so draws stay there
    ambiguities = []
    for p in (3, 5, 7):
        ctx = canonical_units(p)
        rng = random.Random(500 + p)
        done = 0
        while done < 1000:
            alpha = rand_rational(rng, p)
            beta = rand_rational(rng, p, vmin=0)
            gamma = rand_rational(rng, p)
            if 1 - p * alpha * beta * gamma == 0:
                continue
            angles = Angles(alpha, beta, gamma)
            try:
                got = decompose_cardano(cardano_matrix(ctx, angles))
            except AmbiguityError as exc:
                ambiguities.append((p, angles, str(exc)))
                done += 1
                continue
            assert tuple(got) == tuple(angles)
            done += 1
    assert not ambiguities, ambiguities
    _report(5, "decompose(cardano) identity, 1000 triples x p in {3,5,7}, no ambiguity")


def test_criterion_06_jacobian_closed_form_and_weight():
    for p in PRIMES:
        ctx = canonical_units(p)
        rng = random.Random(600 + p)
        done = 0
        while done < 1000:
            angles = Angles(*(rand_rational(rng, p) for _ in range(3)))
            if 1 - p * angles.alpha * angles.beta * angles.gamma == 0:
                continue
            rep = jacobian_weight(ctx, angles)
            assert rep.direct == rep.closed
            assert rep.quotient == rep.weight
            done += 1
    _report(6, "chart determinant and density weight, 1000 triples x 5 primes")


def test_criterion_07_unit_quotient():
    for p in PRIMES:
        ctx = canonical_units(p)
        rng = random.Random(700 + p)
        for i in range(10_000):
            v = i % 21 - 10  # sweep every valuation in -10..10
            unit = rng.randrange(1, p * p)
            while unit % p == 0:
                unit = rng.randrange(1, p * p)
            beta = Fraction(unit) * Fraction(p) ** v
            ratio = (1 - p * beta * beta) / (1 + p * beta * beta)
            assert abs_p(ratio, p) == 1
    _report(7, "|(1-p b^2)/(1+p b^2)|_p = 1 on 10^4 b per prime, valuations -10..10")


def test_criterion_08_exact_left_invariance():
    for p in PRIMES:
        ctx = canonical_units(p)
        rng = random.Random(800 + p)
        catalog = list(ctx.so2_catalog().values())
        for i in range(100):
            d = catalog[i % len(catalog)]
            alpha0 = INF if i % 17 == 0 else rand_rational(rng, p)
            ball = BallQp(rand_rational(rng, p), rng.randrange(-3, 4))
            before = integrate_so2(ctx, d, RegionQp(p, balls=(ball,)))
            after = integrate_so2(ctx, d, mobius_image(ctx, d, alpha0, ball))
            assert before == after
    _report(8, "translation-image mass identity, 100 cases x 5 primes, exact")


def test_criterion_09_statistical_left_invariance():
    start = time.perf_counter()
    worst = 1.0
    for p in (3, 5, 7):
        ctx = canonical_units(p)
        for label, g in _fixed_translations(ctx):
            rng = random.Random(f"accept9:{p}:{label}")
            rep = invariance_report(g, 10_000, rng, digits=12)
            assert rep.pvalue > 1e-3, (p, label, rep)
            worst = min(worst, rep.pvalue)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(9, f"residue shift not rejected, min p-value {worst:.3g}, {elapsed:.0f}s")


def test_criterion_10_algebra_suite():
    for p in PRIMES:
        ctx = canonical_units(p)
        results = algebra_suite(ctx, 1000, random.Random(1000 + p))
        bad = [r for r in results if not r.passed]
        assert not bad, bad
    _report(10, "quaternion arithmetic laws, 1000 cases x 5 primes, exact")
