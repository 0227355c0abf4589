"""Measure tests: subdivision and dual-number oracles, frozen exact masses."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from so3p import haar
from so3p.errors import RegionError
from so3p.haar import (
    BallQp,
    RegionQp,
    ShellQp,
    axis_integral,
    complement_region,
    hquat_density,
    integrate_so2,
    integrate_so3,
    invariance_report,
    jacobian_matrix,
    jacobian_weight,
    mobius_image,
    sample_so2_param,
    sample_so3,
    sample_so3_batch,
    so2_density,
    so3_density,
    total_mass,
)
from so3p.linalg import Mat
from so3p.padic import INF, abs_p, canonical_units, valuation
from so3p.quaternion import quat
from so3p.rotation import Angles, Rot3, cardano_matrix, quat_to_rotation, so2_compose

from conftest import Dual, rand_rational, rand_unit

F = Fraction


def density_at(p, d, c):
    """Density evaluated straight from the valuation, no library call."""
    return F(p) ** valuation(1 + d * c * c, p)


def riemann_so2(ctx, d, region, depth):
    """Subdivision-sum oracle for bounded regions.

    Every piece is cut into children at a fixed depth and the density is
    read off at each child center; no constancy reasoning at all.  The sum
    is exact once the depth passes the density's variation scale, which
    the tests witness by comparing successive depths.
    """
    p = ctx.p
    balls = list(region.balls)
    if region.include_zp:
        balls.append(BallQp(F(0), 0))
    for s in region.shells:
        balls.extend(BallQp(F(a, p**s.k), 1 - s.k) for a in range(1, p))
    assert region.tail_from is None, "oracle covers bounded regions only"
    total = F(0)
    for b in balls:
        step = F(p) ** b.k
        for idx in range(p**depth):
            total += density_at(p, d, b.center + idx * step) * F(p) ** -(b.k + depth)
    return total


def chart_point(ctx, a, b, g):
    """The q0 = 1 chart map, written over any scalar ring (Duals in tests)."""
    p, v = ctx.p, ctx.v
    den = 1 - p * a * b * g
    x1 = (F(p, v) * b * g - a) / den
    x2 = (b - a * g) / den
    x3 = (F(1, v) * g - a * b) / den
    return x1, x2, x3


class TestDensities:
    def test_zero_parameter(self, ctx):
        for d in ctx.so2_catalog().values():
            assert so2_density(ctx, d, F(0)) == 1

    def test_frozen_values_p3(self):
        ctx = canonical_units(3)
        assert so2_density(ctx, F(1), F(3)) == 1
        assert so2_density(ctx, F(1), F(1, 3)) == F(1, 9)

    def test_matches_valuation_formula(self, ctx):
        rng = random.Random(61)
        for d in ctx.so2_catalog().values():
            for _ in range(40):
                sigma = rand_rational(rng, ctx.p, vmin=-4, vmax=4)
                got = so2_density(ctx, d, sigma)
                assert got == density_at(ctx.p, d, sigma)
                assert got > 0
                v = valuation(got, ctx.p)
                assert got in (F(ctx.p) ** v,)

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 2**31 - 1])
    def test_density_depends_on_valuation_alone(self, p):
        # The integrator's closed forms rest on this: for every catalog d,
        # 1 + d sigma^2 is a unit on Z_p and has valuation e + 2 v(sigma)
        # off it.  A d with -d a square unit would break it.
        ctx = canonical_units(p)
        rng = random.Random(p)
        for d in ctx.so2_catalog().values():
            e = valuation(d, p)
            for _ in range(60):
                sigma = rand_rational(rng, p, vmin=-4, vmax=4)
                assert so2_density(ctx, d, sigma) == F(p) ** min(0, e + 2 * valuation(sigma, p))

    def test_infinity_rejected(self, ctx):
        with pytest.raises(ValueError):
            so2_density(ctx, ctx.d_z, INF)

    def test_catalog_enforced(self):
        ctx = canonical_units(5)
        with pytest.raises(ValueError):
            so2_density(ctx, F(3), F(1))

    def test_so3_factorizes(self, ctx):
        rng = random.Random(62)
        p, v = ctx.p, ctx.v
        for _ in range(30):
            a, b, g = (rand_rational(rng, p, vmin=-3, vmax=3) for _ in range(3))
            weight = (1 - v * a * a) * (1 + p * b * b) * (1 - F(p, v) * g * g)
            assert so3_density(ctx, Angles(a, b, g)) == F(p) ** valuation(weight, p)

    def test_so3_frozen_p3(self):
        ctx = canonical_units(3)
        assert so3_density(ctx, Angles(F(1, 3), F(0), F(0))) == F(1, 9)

    def test_so3_is_one_on_zp_cube(self, ctx):
        rng = random.Random(63)
        for _ in range(25):
            triple = Angles(*(F(rng.randrange(ctx.p**5)) for _ in range(3)))
            assert so3_density(ctx, triple) == 1

    def test_so3_infinite_angle_rejected(self, ctx):
        with pytest.raises(ValueError):
            so3_density(ctx, Angles(F(0), INF, F(0)))


class TestHquatDensity:
    def test_one(self, ctx):
        assert hquat_density(quat(ctx, 1)) == 1

    def test_scalar_p(self, ctx):
        assert hquat_density(quat(ctx, ctx.p)) == ctx.p**4

    def test_scaling_law(self, ctx):
        rng = random.Random(64)
        for _ in range(20):
            x = quat(ctx, *(rand_rational(rng, ctx.p) for _ in range(4)))
            lam = rand_rational(rng, ctx.p, vmin=-2, vmax=2)
            expected = abs_p(lam, ctx.p) ** (-4) * hquat_density(x)
            assert hquat_density(x.scale(lam)) == expected

    def test_zero_rejected(self, ctx):
        with pytest.raises(ValueError):
            hquat_density(quat(ctx))


class TestRegions:
    def test_centers_canonicalized(self):
        region = RegionQp(3, balls=(BallQp(F(10), 1),))
        assert region.balls == (BallQp(F(1), 1),)
        region = RegionQp(3, balls=(BallQp(F(5, 3), 1),))
        # 5/3 = 2/3 + 1: digits below level 1 survive, the rest drop.
        assert region.balls == (BallQp(F(5, 3), 1),)
        assert RegionQp(3, balls=(BallQp(F(9), 2),)).balls == (BallQp(F(0), 2),)

    def test_overlap_rejected(self):
        with pytest.raises(RegionError):
            RegionQp(3, balls=(BallQp(F(0), 1), BallQp(F(3), 2)))
        with pytest.raises(RegionError):
            RegionQp(3, balls=(BallQp(F(0), 2),), include_zp=True)
        with pytest.raises(RegionError):
            RegionQp(3, shells=(ShellQp(2), ShellQp(2)))
        with pytest.raises(RegionError):
            RegionQp(3, shells=(ShellQp(3),), tail_from=2)
        with pytest.raises(RegionError):
            RegionQp(3, balls=(BallQp(F(1, 9), 0),), tail_from=1)

    def test_bad_pieces_rejected(self):
        with pytest.raises(RegionError):
            ShellQp(0)
        with pytest.raises(RegionError):
            RegionQp(3, tail_from=0)
        with pytest.raises(RegionError):
            BallQp(F(1), "1")

    def test_disjoint_accepted(self):
        RegionQp(3, include_zp=True, shells=(ShellQp(1),), tail_from=2)
        RegionQp(3, balls=(BallQp(F(1), 1), BallQp(F(2), 1)))
        RegionQp(5, balls=(BallQp(F(1, 5), 0),), include_zp=True)

    def test_contains(self):
        region = RegionQp(3, balls=(BallQp(F(2), 1),), shells=(ShellQp(2),), tail_from=4)
        assert region.contains(F(5))
        assert not region.contains(F(1))
        assert region.contains(F(4, 9))
        assert not region.contains(F(1, 3))
        assert region.contains(F(1, 81))
        assert not region.contains(F(1, 27))
        assert not region.contains(INF)
        assert RegionQp.zp(3).contains(F(6))
        assert not RegionQp.zp(3).contains(F(1, 3))

    def test_prime_mismatch(self):
        ctx = canonical_units(3)
        with pytest.raises(RegionError):
            integrate_so2(ctx, ctx.d_z, RegionQp.zp(5))


class TestIntegrator:
    def test_zp_masses(self, ctx):
        # 1 + d sigma^2 is a unit on Z_p for every catalog d, so the
        # density is 1 there and Z_p keeps its additive mass.
        for d in ctx.so2_catalog().values():
            assert integrate_so2(ctx, d, RegionQp.zp(ctx.p)) == 1

    def test_full_masses(self, ctx):
        p = ctx.p
        cat = ctx.so2_catalog()
        full = RegionQp.full(p)
        assert integrate_so2(ctx, cat["-v"], full) == F(p + 1, p)
        assert integrate_so2(ctx, cat["p"], full) == 2
        assert integrate_so2(ctx, cat["up"], full) == 2
        assert integrate_so2(ctx, cat["-p/v"], full) == 2

    def test_total_mass_tags(self, ctx):
        p = ctx.p
        assert total_mass(ctx, "so2:-v") == F(p + 1, p)
        assert total_mass(ctx, "so2:p") == 2
        assert total_mass(ctx, "so2:-p/v") == 2
        assert total_mass(ctx, "so2:up") == 2
        assert total_mass(ctx, "so3") == 4 * F(p + 1, p)
        for tag in ("so2:u", "so2", "so3:-v", "SO3"):
            with pytest.raises(ValueError):
                total_mass(ctx, tag)

    def test_shell_closed_form_equals_ball_route(self, ctx):
        p = ctx.p
        for d in ctx.so2_catalog().values():
            for k in (1, 2, 3):
                shell = integrate_so2(ctx, d, RegionQp.shell(p, k))
                balls = RegionQp(p, balls=tuple(BallQp(F(a, p**k), 1 - k) for a in range(1, p)))
                assert shell == integrate_so2(ctx, d, balls)
                e = valuation(d, p)
                assert shell == (1 - F(1, p)) * F(p) ** (e - k)

    def test_first_shell_example(self, ctx):
        p = ctx.p
        assert integrate_so2(ctx, ctx.d_z, RegionQp.shell(p, 1)) == (1 - F(1, p)) / p

    def test_riemann_oracle(self):
        rng = random.Random(65)
        for p in (3, 5):
            ctx = canonical_units(p)
            for d in ctx.so2_catalog().values():
                for _ in range(6):
                    k = rng.randint(-2, 2)
                    center = rand_rational(rng, p, vmin=k - 1, vmax=2)
                    region = RegionQp(p, balls=(BallQp(center, k),))
                    coarse = riemann_so2(ctx, d, region, 3)
                    fine = riemann_so2(ctx, d, region, 4)
                    assert coarse == fine, "depth 3 not yet stable"
                    assert integrate_so2(ctx, d, region) == fine

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_riemann_oracle_each_closed_form(self, p):
        # One ball per case of the closed form: a ball missing 0 (w < k),
        # p^k Z_p inside Z_p (w >= k >= 0), and p^k Z_p as Z_p plus shells
        # (w >= k, k < 0).  Children at level 0 or finer are exact.
        ctx = canonical_units(p)
        rng = random.Random(67)
        for d in ctx.so2_catalog().values():
            for k in (-2, -1, 0, 1, 2):
                off_zero = rand_unit(rng, p) * F(p) ** rng.randint(k - 2, k - 1)
                on_zero = rng.randint(0, p) * F(p) ** k
                for center in (off_zero, on_zero, F(0)):
                    region = RegionQp(p, balls=(BallQp(center, k),))
                    depth = max(1, -k)
                    fine = riemann_so2(ctx, d, region, depth + 1)
                    assert riemann_so2(ctx, d, region, depth) == fine
                    assert integrate_so2(ctx, d, region) == fine

    def test_riemann_oracle_mixed_region(self):
        ctx = canonical_units(7)
        region = RegionQp(7, balls=(BallQp(F(3, 7), 0),), shells=(ShellQp(2),), include_zp=True)
        for d in ctx.so2_catalog().values():
            assert integrate_so2(ctx, d, region) == riemann_so2(ctx, d, region, 2)

    def test_children_additivity(self, ctx):
        rng = random.Random(66)
        p = ctx.p
        for d in ctx.so2_catalog().values():
            for _ in range(5):
                k = rng.randint(-2, 3)
                center = rand_rational(rng, p, vmin=-3, vmax=3)
                whole = integrate_so2(ctx, d, RegionQp(p, balls=(BallQp(center, k),)))
                step = F(p) ** k
                children = (
                    RegionQp(p, balls=(BallQp(center + a * step, k + 1),)) for a in range(p)
                )
                assert whole == sum(integrate_so2(ctx, d, c) for c in children)

    def test_hand_frozen_masses_p3(self):
        ctx = canonical_units(3)
        one = F(1)
        assert integrate_so2(ctx, one, RegionQp.ball(3, 0, 1)) == F(1, 3)
        assert integrate_so2(ctx, one, RegionQp.ball(3, 1, 1)) == F(1, 3)
        # {v >= -1} is Z_3 plus the first shell: 1 + 2/9.
        assert integrate_so2(ctx, one, RegionQp.ball(3, 0, -1)) == F(11, 9)
        assert integrate_so2(ctx, F(3), RegionQp.shell(3, 1)) == F(2, 3)

    def test_so3_boxes(self, ctx):
        p = ctx.p
        zp3 = (RegionQp.zp(p),) * 3
        assert integrate_so3(ctx, zp3) == 1
        assert integrate_so3(ctx, zp3, normalized=True) == F(p, 4 * (p + 1))
        full3 = (RegionQp.full(p),) * 3
        assert integrate_so3(ctx, full3, normalized=True) == 1
        with pytest.raises(RegionError):
            integrate_so3(ctx, (RegionQp.zp(p),) * 2)


@pytest.mark.parametrize("p", [7, 10**18 + 3, 2**61 - 1])
class TestLargePrimes:
    """Masses at primes far past any loop over residues, each in well under 1 s."""

    def test_total_mass(self, p):
        ctx = canonical_units(p)
        start = time.perf_counter()
        assert total_mass(ctx, "so3") == 4 * F(p + 1, p)
        assert total_mass(ctx, "so2:-v") == F(p + 1, p)
        assert total_mass(ctx, "so2:p") == 2
        assert time.perf_counter() - start < 1.0

    def test_ball_shell_tail(self, p):
        ctx = canonical_units(p)
        # B(1/p, 0) in shell 1, B(2, 1) in Z_p, shell 2 and the tail from 3;
        # then B(0, -1), which is Z_p plus shell 1.  Keyed by e = v_p(d).
        region = RegionQp(
            p, balls=(BallQp(F(1, p), 0), BallQp(F(2), 1)), shells=(ShellQp(2),), tail_from=3
        )
        expected = {0: (F(p + 2, p * p), 1 + F(1, p) - F(1, p * p)), 1: (F(3, p), 2 - F(1, p))}
        start = time.perf_counter()
        for d in ctx.so2_catalog().values():
            mixed, zp_and_shell = expected[valuation(d, p)]
            assert integrate_so2(ctx, d, region) == mixed
            assert integrate_so2(ctx, d, RegionQp.ball(p, 0, -1)) == zp_and_shell
        assert time.perf_counter() - start < 1.0


class TestAxisIntegral:
    def test_constant_one(self, ctx):
        full = RegionQp.full(ctx.p)
        for axis in "zyx":
            assert axis_integral(ctx, axis, [(full, 1)]) == 1

    def test_indicator_of_zp(self, ctx):
        p = ctx.p
        zp = RegionQp.zp(p)
        assert axis_integral(ctx, "z", [(zp, 1)]) == F(p, p + 1)
        assert axis_integral(ctx, "y", [(zp, 1)]) == F(1, 2)
        assert axis_integral(ctx, "x", [(zp, 1)]) == F(1, 2)

    def test_two_step_function(self, ctx):
        p = ctx.p
        steps = [(RegionQp.zp(p), 2), (RegionQp.shell(p, 1), 5)]
        expected = (2 + 5 * (1 - F(1, p)) / p) / F(p + 1, p)
        assert axis_integral(ctx, "z", steps) == expected

    def test_overlapping_steps_rejected(self, ctx):
        p = ctx.p
        steps = [(RegionQp.zp(p), 1), (RegionQp.ball(p, 0, 2), 2)]
        with pytest.raises(RegionError):
            axis_integral(ctx, "z", steps)

    def test_unknown_axis(self, ctx):
        with pytest.raises(ValueError):
            axis_integral(ctx, "w", [(RegionQp.zp(ctx.p), 1)])


class TestJacobian:
    def test_entries_match_dual_oracle(self, ctx):
        rng = random.Random(67)
        for _ in range(12):
            a, b, g = (rand_rational(rng, ctx.p, vmin=-2, vmax=2) for _ in range(3))
            if 1 - ctx.p * a * b * g == 0:
                continue
            jac = jacobian_matrix(ctx, Angles(a, b, g))
            triple = (a, b, g)
            for col in range(3):
                seeded = tuple(Dual(x, 1 if i == col else 0) for i, x in enumerate(triple))
                for row, value in enumerate(chart_point(ctx, *seeded)):
                    assert jac.rows[row][col] == value.b

    def test_origin(self, ctx):
        jac = jacobian_matrix(ctx, Angles(F(0), F(0), F(0)))
        assert jac.det() == F(-1, ctx.v)
        report = jacobian_weight(ctx, Angles(F(0), F(0), F(0)))
        assert report == (1, 1, 1, 1)

    def test_direct_equals_closed(self, ctx):
        rng = random.Random(68)
        for _ in range(40):
            triple = Angles(*(rand_rational(rng, ctx.p, vmin=-3, vmax=3) for _ in range(3)))
            if 1 - ctx.p * triple.alpha * triple.beta * triple.gamma == 0:
                continue
            report = jacobian_weight(ctx, triple)
            assert report.direct == report.closed

    def test_quotient_equals_angle_weight(self, ctx):
        rng = random.Random(69)
        for _ in range(40):
            triple = Angles(*(rand_rational(rng, ctx.p, vmin=-3, vmax=3) for _ in range(3)))
            if 1 - ctx.p * triple.alpha * triple.beta * triple.gamma == 0:
                continue
            report = jacobian_weight(ctx, triple)
            assert report.quotient == report.weight
            assert report.weight == so3_density(ctx, triple)

    def test_singular_locus_rejected(self, ctx):
        with pytest.raises(ZeroDivisionError):
            jacobian_weight(ctx, Angles(F(1, ctx.p), F(1), F(1)))

    def test_infinite_angle_rejected(self, ctx):
        with pytest.raises(ValueError):
            jacobian_matrix(ctx, Angles(INF, F(0), F(0)))

    def test_unit_quotient_lemma(self, ctx):
        rng = random.Random(70)
        p = ctx.p
        for _ in range(60):
            beta = rand_rational(rng, p, vmin=-10, vmax=10)
            assert abs_p((1 - p * beta * beta) / (1 + p * beta * beta), p) == 1
        # The beta = infinity convention: the ratio degenerates to -1.
        assert abs_p(F(-1), p) == 1


class TestSampler:
    def test_deterministic(self, ctx):
        for d in ctx.so2_catalog().values():
            a = [sample_so2_param(ctx, d, random.Random(7), digits=6) for _ in range(10)]
            b = [sample_so2_param(ctx, d, random.Random(7), digits=6) for _ in range(10)]
            assert a == b

    def test_values_are_bounded_rationals(self, ctx):
        rng = random.Random(71)
        for d in ctx.so2_catalog().values():
            for _ in range(40):
                x = sample_so2_param(ctx, d, rng, digits=5)
                assert isinstance(x, F)
                v = valuation(x, ctx.p)
                if v < 0:
                    # shell draw: denominator is exactly p**k
                    assert x.denominator == ctx.p ** (-v)

    def test_zp_frequency(self):
        ctx = canonical_units(3)
        rng = random.Random(72)
        n = 20000
        hits = sum(
            1
            for _ in range(n)
            if valuation(sample_so2_param(ctx, ctx.d_z, rng, digits=1), 3) >= 0
        )
        q = F(3, 4)  # p/(p+1)
        sigma = (n * q * (1 - q)) ** F(1, 2)
        assert abs(hits - n * q) <= 3 * float(sigma)

    def test_first_shell_frequency_dp(self):
        # d = p at p = 3: P(shell 1) = (1 - 1/3) * 3^0 / 2 = 1/3.
        ctx = canonical_units(3)
        rng = random.Random(73)
        n = 20000
        hits = sum(
            1
            for _ in range(n)
            if valuation(sample_so2_param(ctx, ctx.d_y, rng, digits=1), 3) == -1
        )
        sigma = (n * F(1, 3) * F(2, 3)) ** F(1, 2)
        assert abs(hits - n / 3) <= 3 * float(sigma)

    def test_so3_draws_are_certified_rotations(self, ctx):
        rng = random.Random(74)
        for _ in range(15):
            angles, rot = sample_so3(ctx, rng, digits=4)
            assert isinstance(rot, Rot3)
            assert all(valuation(e, ctx.p) >= 0 for row in rot.mat.rows for e in row)
            assert not any(isinstance(x, type(INF)) for x in angles)

    def test_batch_deterministic_and_thread_independent(self):
        ctx = canonical_units(5)
        one = sample_so3_batch(ctx, "seed", 130, digits=3, threads=1)
        again = sample_so3_batch(ctx, "seed", 130, digits=3, threads=1)
        threaded = sample_so3_batch(ctx, "seed", 130, digits=3, threads=3)
        assert len(one) == 130
        assert [a for a, _ in one] == [a for a, _ in again]
        assert [a for a, _ in one] == [a for a, _ in threaded]
        assert [r.mat for _, r in one] == [r.mat for _, r in threaded]

    def test_batch_checks_each_axis_d_once(self, monkeypatch):
        ctx = canonical_units(7)
        seen = []
        lookup = haar.so2_form
        monkeypatch.setattr(haar, "so2_form", lambda c, d: seen.append(d) or lookup(c, d))
        assert len(sample_so3_batch(ctx, 1, 130, digits=3)) == 130
        assert seen == [ctx.d_z, ctx.d_y, ctx.d_x]

    def test_batch_prefix_is_chunk_stable(self):
        # Same seed, shorter batch: shared full chunks reproduce verbatim.
        ctx = canonical_units(3)
        long = sample_so3_batch(ctx, 9, 130, digits=3)
        short = sample_so3_batch(ctx, 9, 64, digits=3)
        assert [a for a, _ in long[:64]] == [a for a, _ in short]

    @pytest.mark.parametrize("digits", [0, -3])
    def test_digit_count_below_one_raises(self, ctx, digits):
        for d in ctx.so2_catalog().values():
            with pytest.raises(ValueError, match="digits"):
                sample_so2_param(ctx, d, random.Random(1), digits=digits)
        with pytest.raises(ValueError, match="digits"):
            sample_so3(ctx, random.Random(1), digits=digits)
        for count in (0, 3):
            with pytest.raises(ValueError, match="digits"):
                sample_so3_batch(ctx, 1, count, digits=digits)

    def test_batch_bounds(self):
        ctx = canonical_units(7)
        for count in (-1, -5):
            with pytest.raises(ValueError, match="count"):
                sample_so3_batch(ctx, 1, count)
        for threads in (0, -1):
            with pytest.raises(ValueError, match="threads"):
                sample_so3_batch(ctx, 1, 2, threads=threads)
        assert sample_so3_batch(ctx, 1, 0) == []
        assert len(sample_so3_batch(ctx, 1, 2, digits=1)) == 2


def randrange_param(ctx, d, rng, digits):
    """sample_so2_param as it was written on rng.randrange, digit by digit:
    the reference for the stream the getrandbits draws must reproduce."""
    p = ctx.p
    e = valuation(F(d), p)
    if e == 0:
        in_zp = rng.randrange(p + 1) != 0
    else:
        in_zp = rng.randrange(2) == 0
    if in_zp:
        acc = 0
        for i in range(digits):
            acc += rng.randrange(p) * p**i
        return F(acc)
    k = 1
    while rng.randrange(p) == 0:
        k += 1
    acc = rng.randrange(1, p)
    for i in range(1, digits):
        acc += rng.randrange(p) * p**i
    return F(acc, p**k)


class TestSamplerStream:
    # 4294967311 and 2**61 - 1 need more than one 32-bit word per digit.
    @pytest.mark.parametrize("p", [3, 5, 7, 13, 2**31 - 1, 4294967311, 2**61 - 1])
    @pytest.mark.parametrize("digits", [1, 2, 32])
    def test_draws_consume_the_generator_as_randrange(self, p, digits):
        ctx = canonical_units(p)
        catalog = ctx.so2_catalog()
        assert valuation(catalog["-v"], p) == 0 and valuation(catalog["p"], p) == 1
        draws = 60 if p < 20 else 20
        for key, d in catalog.items():
            rng, ref = random.Random(f"{p}:{digits}:{key}"), random.Random(f"{p}:{digits}:{key}")
            shells = 0
            for _ in range(draws):
                x = sample_so2_param(ctx, d, rng, digits)
                assert x == randrange_param(ctx, d, ref, digits)
                assert rng.getstate() == ref.getstate()
                shells += x.denominator > 1
            if p < 20:
                assert 0 < shells < draws, key


class TestMobius:
    def test_translation_by_zero(self, ctx):
        ball = BallQp(F(2), 1)
        region = mobius_image(ctx, ctx.d_z, F(0), ball)
        assert region == RegionQp(ctx.p, balls=(ball,))

    def test_frozen_pole_inside_p3(self):
        ctx = canonical_units(3)
        region = mobius_image(ctx, F(1), F(1), BallQp(F(0), 0))
        expected = RegionQp(3, balls=(BallQp(F(0), 1), BallQp(F(1), 1)), tail_from=1)
        assert region == expected
        assert integrate_so2(ctx, F(1), region) == 1

    def test_complement_frozen(self):
        ctx = canonical_units(3)
        region = complement_region(ctx, BallQp(F(2), 1))
        assert region == RegionQp(3, balls=(BallQp(F(0), 1), BallQp(F(1), 1)), tail_from=1)

    def test_complement_mass(self, ctx):
        rng = random.Random(75)
        p = ctx.p
        for d in ctx.so2_catalog().values():
            for _ in range(6):
                ball = BallQp(rand_rational(rng, p, vmin=-2, vmax=2), rng.randint(-2, 3))
                total = integrate_so2(ctx, d, RegionQp.full(p))
                inside = integrate_so2(ctx, d, RegionQp(p, balls=(ball,)))
                outside = integrate_so2(ctx, d, complement_region(ctx, ball))
                assert inside + outside == total

    def test_complement_membership(self, ctx):
        rng = random.Random(76)
        p = ctx.p
        for _ in range(8):
            ball = BallQp(rand_rational(rng, p, vmin=-2, vmax=2), rng.randint(-2, 3))
            region = complement_region(ctx, ball)
            wrapped = RegionQp(p, balls=(ball,))
            for _ in range(12):
                point = rand_rational(rng, p, vmin=-4, vmax=4)
                assert region.contains(point) != wrapped.contains(point)

    def test_image_membership_both_ways(self, ctx):
        rng = random.Random(77)
        p = ctx.p
        for d in ctx.so2_catalog().values():
            for _ in range(6):
                alpha0 = rand_rational(rng, p, vmin=-2, vmax=2)
                ball = BallQp(rand_rational(rng, p, vmin=-2, vmax=2), rng.randint(-2, 2))
                region = mobius_image(ctx, d, alpha0, ball)
                step = F(p) ** ball.k
                for _ in range(10):
                    inside = ball.center + step * F(rng.randrange(p**4))
                    tau = so2_compose(ctx, d, alpha0, inside)
                    if isinstance(tau, type(INF)):
                        continue  # the pole itself maps to infinity
                    assert region.contains(tau)
                    outside = rand_rational(rng, p, vmin=-4, vmax=4)
                    if valuation(outside - ball.center, p) >= ball.k:
                        continue
                    tau = so2_compose(ctx, d, alpha0, outside)
                    if not isinstance(tau, type(INF)):
                        assert not region.contains(tau)

    def test_measure_preserved(self, ctx):
        rng = random.Random(78)
        p = ctx.p
        for d in ctx.so2_catalog().values():
            for _ in range(8):
                alpha0 = rand_rational(rng, p, vmin=-2, vmax=2)
                ball = BallQp(rand_rational(rng, p, vmin=-2, vmax=2), rng.randint(-2, 2))
                before = integrate_so2(ctx, d, RegionQp(p, balls=(ball,)))
                after = integrate_so2(ctx, d, mobius_image(ctx, d, alpha0, ball))
                assert before == after

    def test_measure_preserved_by_infinity(self, ctx):
        rng = random.Random(79)
        p = ctx.p
        for d in ctx.so2_catalog().values():
            ball = BallQp(rand_rational(rng, p, vmin=-1, vmax=1), rng.randint(-1, 2))
            before = integrate_so2(ctx, d, RegionQp(p, balls=(ball,)))
            image = mobius_image(ctx, d, INF, ball)
            assert integrate_so2(ctx, d, image) == before
            sigma = ball.center + F(p) ** ball.k * F(rng.randrange(p**3))
            tau = so2_compose(ctx, d, INF, sigma)
            if not isinstance(tau, type(INF)):
                assert image.contains(tau)

    def test_image_mass_is_derivative_integral(self, ctx):
        # Change of variables, pole outside: the additive mass of the image
        # ball equals the subdivision sum of |m'|_p over the source ball.
        rng = random.Random(80)
        p = ctx.p
        for d in ctx.so2_catalog().values():
            found = 0
            while found < 3:
                alpha0 = rand_rational(rng, p, vmin=-1, vmax=1)
                ball = BallQp(rand_rational(rng, p, vmin=-1, vmax=1), rng.randint(-1, 2))
                pole = 1 / (d * alpha0)
                if valuation(pole - ball.center, p) >= ball.k:
                    continue
                found += 1
                region = mobius_image(ctx, d, alpha0, ball)
                (image,) = region.balls
                depth = 3
                step = F(p) ** ball.k
                acc = F(0)
                for idx in range(p**depth):
                    c = ball.center + idx * step
                    deriv = (1 + d * alpha0 * alpha0) / (1 - d * alpha0 * c) ** 2
                    acc += abs_p(deriv, p) * F(p) ** -(ball.k + depth)
                assert acc == F(p) ** (-image.k)


def residue_matrix(r, p):
    flat = haar._residues_mod_p(r.mat, p)
    return (flat[0:3], flat[3:6], flat[6:9])


class TestInvariance:
    def test_identity_translation(self, ctx):
        # the identity is tested like any translation: a column over
        # p(p+1) cells and a row over 2p^2 cells, each on cells - 1 dof
        p = ctx.p
        report = invariance_report(Rot3(ctx, Mat.identity(3)), 10 * p * p, random.Random(81), digits=4)
        assert report.dof == (p * (p + 1) - 1, 2 * p * p - 1)
        assert report.n == report.needed == 10 * p * p
        assert all(x > 0 for x in report.statistic)
        assert 1e-3 < report.pvalue <= 1.0

    def test_deterministic(self):
        ctx = canonical_units(3)
        g = cardano_matrix(ctx, Angles(F(1), F(0), F(0)))
        a = invariance_report(g, 400, random.Random(82), digits=4)
        b = invariance_report(g, 400, random.Random(82), digits=4)
        assert a == b

    def test_fixed_seed_report_and_stream(self):
        # the report must consume the generator exactly as sample_so3 does
        ctx = canonical_units(3)
        g = cardano_matrix(ctx, Angles(F(1), F(0), F(0)))
        rng = random.Random(82)
        report = invariance_report(g, 1500, rng, digits=4)
        assert report == ((5.664, 11.904), (11, 17), 1.0, 1500, 90)
        ref = random.Random(82)
        for _ in range(1500):
            sample_so3(ctx, ref, 4)
        assert rng.getstate() == ref.getstate()

    def test_generic_translation_not_rejected(self):
        ctx = canonical_units(3)
        g = cardano_matrix(ctx, Angles(F(1), F(0), F(0)))
        report = invariance_report(g, 2000, random.Random(83), digits=8)
        assert report.pvalue > 1e-3

    def test_involution_translation_not_rejected(self):
        ctx = canonical_units(3)
        g = quat_to_rotation(quat(ctx, 0, 1))
        report = invariance_report(g, 2000, random.Random(84), digits=8)
        assert report.pvalue > 1e-3

    def test_no_draws_rejected(self, ctx):
        with pytest.raises(ValueError):
            invariance_report(Rot3(ctx, Mat.identity(3)), 0, random.Random(85))

    def test_reduction_commutes_with_product(self):
        # the report reads g R mod p as (g mod p)(R mod p)
        for p in (3, 7):
            ctx = canonical_units(p)
            g = cardano_matrix(ctx, Angles(F(1), F(1), F(1)))
            gbar = residue_matrix(g, p)
            rng = random.Random(19 + p)
            for _ in range(25):
                _, r = sample_so3(ctx, rng, digits=6)
                rbar = residue_matrix(r, p)
                product = tuple(
                    tuple(sum(gbar[i][k] * rbar[k][j] for k in range(3)) % p for j in range(3))
                    for i in range(3)
                )
                assert residue_matrix(g * r, p) == product


class TestResidueOrbits:
    """The two exact laws the invariance report tests against: the first
    column of a rotation mod p is uniform on C = {x0^2 - v x1^2 = 1}, the
    last row on W = {x2 = +-1}, because each is one orbit of SO(3)_p mod p."""

    @staticmethod
    def orbit_sets(ctx):
        p, v = ctx.p, ctx.v
        cube = list(itertools.product(range(p), repeat=3))
        column = {x for x in cube if (x[0] ** 2 - v * x[1] ** 2 - 1) % p == 0}
        row = {x for x in cube if x[2] in (1, p - 1)}
        return column, row

    @staticmethod
    def closure(start, gens, act):
        seen, todo = {start}, [start]
        while todo:
            x = todo.pop()
            for g in gens:
                y = act(g, x)
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return seen

    def test_orbits_are_the_sets(self, ctx):
        # onto, and into for the group the generators make: the closure of
        # e1 under the certified axis rotations (single-axis chart triples)
        # at alpha in F_p and inf is
        # exactly C, and that of e3^T acting on the right exactly W
        p = ctx.p
        column, row = self.orbit_sets(ctx)
        assert (len(column), len(row)) == (p * (p + 1), 2 * p * p)
        gens = [
            residue_matrix(cardano_matrix(ctx, tuple(t if k == slot else 0 for k in range(3))), p)
            for slot in range(3)
            for t in [*map(F, range(p)), INF]
        ]

        def left(g, x):
            return tuple(sum(g[i][k] * x[k] for k in range(3)) % p for i in range(3))

        def right(g, x):
            return tuple(sum(x[k] * g[k][j] for k in range(3)) % p for j in range(3))

        assert self.closure((1, 0, 0), gens, left) == column
        assert self.closure((0, 0, 1), gens, right) == row

    def test_sampled_rotations_stay_in_the_sets(self, ctx):
        # into, from the preserved form, on draws with non-integral angles
        column, row = self.orbit_sets(ctx)
        for _, r in sample_so3_batch(ctx, 29, 200, digits=6):
            rbar = residue_matrix(r, ctx.p)
            assert tuple(rbar[i][0] for i in range(3)) in column
            assert rbar[2] in row


class TestChi2Tail:
    def test_one_dof_is_the_normal_tail(self):
        for x in (1e-6, 0.3, 1.0, 4.0, 30.0, 700.0):
            assert haar._chi2_tail(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-13)

    def test_two_dof_is_exponential(self):
        for x in (1e-6, 0.3, 1.0, 4.0, 30.0, 700.0):
            assert haar._chi2_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-13)

    def test_reference_values(self):
        # scipy.stats.chi2.sf(x, dof), scipy 1.17.1
        for x, dof, want in [
            (3.0, 5, 0.6999858358786276),
            (12.5, 4, 0.013995792487650894),
            (50.0, 30, 0.01240206071890054),
            (200.0, 181, 0.15855309537714055),
            (400.0, 337, 0.01029637870335383),
        ]:
            assert haar._chi2_tail(x, dof) == pytest.approx(want, rel=1e-10)

    def test_large_dof_stays_finite(self):
        # a naive power series overflows here: y^j alone is inf
        for dof in (1921, 1922, 20000):
            for x in (1.0, dof / 2, dof, dof + 10 * math.sqrt(dof), 3 * dof):
                tail = haar._chi2_tail(float(x), dof)
                assert 0.0 <= tail <= 1.0
            assert haar._chi2_tail(float(dof), dof) == pytest.approx(0.5, abs=0.01)

    def test_degenerate_statistic(self):
        assert haar._chi2_tail(0.0, 7) == 1.0
