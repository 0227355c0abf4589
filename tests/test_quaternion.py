"""Quaternion algebra: structure constants, norm form, actions."""

import random
from fractions import Fraction

import pytest

from so3p.linalg import Mat, QExtElem, aprime, is_special_isometry
from so3p.padic import PadicApprox, canonical_units, values_agree
from so3p.quaternion import Quat, basis_table, conj_action_matrix, left_regular, quat

from conftest import rand_rational


def rand_quat(rng, ctx, allow_zero=False):
    while True:
        q = quat(ctx, *(rand_rational(rng, ctx.p) if rng.random() < 0.85 else 0 for _ in range(4)))
        if allow_zero or not q.is_zero:
            return q


def expected_table(ctx):
    # Hand-derived from i^2 = v, j^2 = -p, ji = -ij, k = ij.
    v, p = ctx.v, ctx.p
    one = Fraction(1)
    return (
        ((one, 0), (one, 1), (one, 2), (one, 3)),
        ((one, 1), (Fraction(v), 0), (one, 3), (Fraction(v), 2)),
        ((one, 2), (-one, 3), (Fraction(-p), 0), (Fraction(p), 1)),
        ((one, 3), (Fraction(-v), 2), (Fraction(-p), 1), (Fraction(v * p), 0)),
    )


class TestStructure:
    def test_table_matches_hand_derivation(self, ctx):
        assert basis_table(ctx) == expected_table(ctx)

    def test_table_literal_p3(self):
        ctx = canonical_units(3)
        assert basis_table(ctx) == (
            ((1, 0), (1, 1), (1, 2), (1, 3)),
            ((1, 1), (-1, 0), (1, 3), (-1, 2)),
            ((1, 2), (-1, 3), (-3, 0), (3, 1)),
            ((1, 3), (1, 2), (-3, 1), (-3, 0)),
        )

    def test_basis_products(self, ctx):
        i = quat(ctx, 0, 1)
        j = quat(ctx, 0, 0, 1)
        k = quat(ctx, 0, 0, 0, 1)
        assert i * j == k
        assert j * i == -k
        assert i * i == quat(ctx, ctx.v)
        assert j * j == quat(ctx, -ctx.p)
        assert k * k == quat(ctx, ctx.v * ctx.p)
        assert j * k == quat(ctx, 0, ctx.p)
        assert k * i == quat(ctx, 0, 0, -ctx.v)

    def test_associative_and_distributive(self, ctx):
        rng = random.Random(101 + ctx.p)
        for _ in range(60):
            x, y, z = (rand_quat(rng, ctx, allow_zero=True) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_center_is_scalars(self, ctx):
        rng = random.Random(7)
        c = quat(ctx, Fraction(5, 7))
        x = rand_quat(rng, ctx)
        assert c * x == x * c
        i = quat(ctx, 0, 1)
        j = quat(ctx, 0, 0, 1)
        assert i * j != j * i


class TestNormAndConj:
    def test_nrd_is_the_four_dim_form(self, ctx):
        # diag(1, -v, p, -vp)
        rng = random.Random(211 + ctx.p)
        form = (1, -ctx.v, ctx.p, -ctx.v * ctx.p)
        for _ in range(40):
            x = rand_quat(rng, ctx, allow_zero=True)
            assert x.nrd() == sum(g * q * q for g, q in zip(form, x.coords))

    def test_nrd_multiplicative(self, ctx):
        rng = random.Random(223 + ctx.p)
        for _ in range(40):
            x, y = rand_quat(rng, ctx), rand_quat(rng, ctx)
            assert (x * y).nrd() == x.nrd() * y.nrd()

    def test_nrd_anisotropic_samples(self, ctx):
        # Division algebra: nonzero elements have nonzero norm.
        rng = random.Random(227 + ctx.p)
        for _ in range(200):
            assert rand_quat(rng, ctx).nrd() != 0

    def test_conj_antihomomorphism(self, ctx):
        rng = random.Random(229)
        x, y = rand_quat(rng, ctx), rand_quat(rng, ctx)
        assert (x * y).conj() == y.conj() * x.conj()
        assert x * x.conj() == quat(ctx, x.nrd())
        assert x + x.conj() == quat(ctx, x.trd())

    def test_inverse(self, ctx):
        rng = random.Random(233)
        x = rand_quat(rng, ctx)
        assert x * x.inverse() == quat(ctx, 1)
        assert x.inverse() * x == quat(ctx, 1)
        with pytest.raises(ZeroDivisionError):
            quat(ctx).inverse()

    def test_proportional(self, ctx):
        x = quat(ctx, 1, 2, 0, Fraction(1, 3))
        assert x.proportional(x.scale(Fraction(-7, 5)))
        assert not x.proportional(quat(ctx, 1, 2, 0, 0))
        assert not x.proportional(quat(ctx))


class TestLeftRegular:
    def test_homomorphism_and_det(self, ctx):
        rng = random.Random(307 + ctx.p)
        for _ in range(20):
            x, y = rand_quat(rng, ctx), rand_quat(rng, ctx)
            assert left_regular(x) * left_regular(y) == left_regular(x * y)
            assert left_regular(x).det() == QExtElem(x.nrd(), Fraction(0), ctx.v)


class TestConjAction:
    def sandwich_columns(self, x):
        ctx = x.ctx
        cols = []
        for e in (quat(ctx, 0, 1), quat(ctx, 0, 0, 1), quat(ctx, 0, 0, 0, 1)):
            img = x * e * x.inverse()
            assert img.q0 == 0
            cols.append((img.q1, img.q2, img.q3))
        return cols

    def test_matches_sandwich(self, ctx):
        rng = random.Random(401 + ctx.p)
        for _ in range(25):
            x = rand_quat(rng, ctx)
            m = conj_action_matrix(x)
            for c, col in enumerate(self.sandwich_columns(x)):
                assert tuple(m.rows[r][c] for r in range(3)) == col

    def test_frozen_values(self):
        ctx = canonical_units(3)
        # x i x^-1 = i, x j x^-1 = k, x k x^-1 = -j for x = 1 + i, worked
        # out longhand with v = -1.
        m = conj_action_matrix(quat(ctx, 1, 1))
        assert m.rows == ((1, 0, 0), (0, 0, -1), (0, 1, 0))
        assert conj_action_matrix(quat(ctx, 0, 1)) == Mat.diagonal(
            Fraction(e) for e in (1, -1, -1)
        )

    def test_special_isometry_of_pure_form(self, ctx):
        rng = random.Random(419 + ctx.p)
        form = aprime(ctx)
        for _ in range(15):
            m = conj_action_matrix(rand_quat(rng, ctx))
            assert is_special_isometry(m, form)

    def test_scaling_invariance(self, ctx):
        x = quat(ctx, 2, Fraction(1, 3), 0, 1)
        assert conj_action_matrix(x) == conj_action_matrix(x.scale(Fraction(-5, 2)))
        rng = random.Random(431 + ctx.p)
        for _ in range(40):
            x = rand_quat(rng, ctx)
            lam = rand_rational(rng, ctx.p)
            assert conj_action_matrix(x.scale(lam)) == conj_action_matrix(x)


def table_product(x, y):
    """x * y expanded through the derived structure constants."""
    table = basis_table(x.ctx)
    out = [Fraction(0)] * 4
    for a, qa in enumerate(x.coords):
        for b, qb in enumerate(y.coords):
            coeff, idx = table[a][b]
            out[idx] += coeff * qa * qb
    return tuple(out)


class TestExplicitProduct:
    def test_matches_table_expansion(self, ctx):
        # zero coordinates at a 15% rate; denominators are powers of p
        # times small cofactors prime to p
        rng = random.Random(503 + ctx.p)
        for _ in range(150):
            x, y = rand_quat(rng, ctx, allow_zero=True), rand_quat(rng, ctx, allow_zero=True)
            assert (x * y).coords == table_product(x, y)

    def test_basis_pairs_and_deep_denominators(self, ctx):
        p = ctx.p
        units = [quat(ctx, *(Fraction(int(a == b)) for b in range(4))) for a in range(4)]
        deep = [
            quat(ctx, Fraction(1, p**5), 0, Fraction(-3, p), Fraction(2, 7 * p**2)),
            quat(ctx, 0, Fraction(p**4, 11), 0, Fraction(-1, p**6)),
            quat(ctx),
        ]
        for x in units + deep:
            for y in units + deep:
                assert (x * y).coords == table_product(x, y)

    def test_result_is_reduced(self, ctx):
        # coordinates come back as plain reduced Fractions over D^2
        x = quat(ctx, Fraction(1, ctx.p), Fraction(1, ctx.p), 0, 0)
        y = quat(ctx, ctx.p, 0, 0, 0)
        assert (x * y).coords == (1, 1, 0, 0)
        assert all(type(c) is Fraction for c in (x * y).coords)

    def test_capped_coordinates_use_the_same_formula(self, ctx):
        # capped-precision coordinates skip the common denominator
        rng = random.Random(509 + ctx.p)
        for _ in range(20):
            x, y = rand_quat(rng, ctx), rand_quat(rng, ctx)
            capped = Quat(ctx, *(PadicApprox.from_rational(c, ctx.p, 16) if c else c for c in x.coords))
            got = (capped * y).coords
            assert any(isinstance(c, PadicApprox) for c in got)
            assert all(values_agree(a, b) for a, b in zip(got, (x * y).coords))
            assert all(values_agree(a, b) for a, b in zip(got, table_product(capped, y)))
