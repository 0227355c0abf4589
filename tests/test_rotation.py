"""SO(2) blocks, the Cardano chart, and the quaternion isomorphism."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from so3p.errors import AmbiguityError, CertificateError, PrecisionExhausted
from so3p.formats import parse_matrix_json
from so3p.linalg import (
    Mat,
    aplus,
    clear_denominators,
    is_special_isometry,
    lambda_inverse,
    lambda_matrix,
    so2_form,
)
from so3p.padic import (
    INF,
    Infinity,
    PadicApprox,
    canonical_units,
    hensel_sqrt,
    rational_sqrt,
    unit_residue,
    valuation,
    values_agree,
)
from so3p.quaternion import Quat, conj_action_matrix, quat
from so3p.rotation import (
    Angles,
    Rot3,
    angles_to_quat,
    cardano_matrix,
    decompose_cardano,
    quat_to_rotation,
    rotation_to_quat,
    so2_compose,
)
from so3p.rotation import (
    _block_entries,
    _block_ints,
    _capped_product,
    _cardano_product,
    _pair_param,
    _so2_entries,
)

from conftest import rand_rational


def entry_oracle(ctx, a, b, g):
    """The nine closed-form entries of R_z(a) R_y(b) R_x(g), transcribed
    independently of the implementation's block product."""
    v, p = ctx.v, ctx.p
    pv = Fraction(p, v)
    za = 1 - v * a * a
    yb = 1 + p * b * b
    xg = 1 - pv * g * g
    return (
        (
            (1 + v * a * a) / za * (1 - p * b * b) / yb,
            2 * v * a * (1 + pv * g * g) / (za * xg) - 4 * p * (1 + v * a * a) * b * g / (za * yb * xg),
            4 * p * a * g / (za * xg) - 2 * p * (1 + v * a * a) * b * (1 + pv * g * g) / (za * yb * xg),
        ),
        (
            2 * a * (1 - p * b * b) / (za * yb),
            (1 + v * a * a) / za * (1 + pv * g * g) / xg - 8 * p * a * b * g / (za * yb * xg),
            2 * p * (1 + v * a * a) * g / (v * za * xg) - 4 * p * a * b * (1 + pv * g * g) / (za * yb * xg),
        ),
        (
            2 * b / yb,
            2 * (1 - p * b * b) * g / (yb * xg),
            (1 - p * b * b) / yb * (1 + pv * g * g) / xg,
        ),
    )


def iso_oracle(x):
    """Closed-form matrix of the quaternion isomorphism, transcribed entry
    by entry rather than computed through the conjugation action."""
    v, p = x.ctx.v, x.ctx.p
    q0, q1, q2, q3 = x.coords
    n = x.nrd()
    rows = (
        (
            q0**2 + v * q1**2 - p * q2**2 - v * p * q3**2,
            -2 * v * (q0 * q1 + p * q2 * q3),
            -2 * p * (q0 * q2 + v * q1 * q3),
        ),
        (
            2 * (p * q2 * q3 - q0 * q1),
            q0**2 + v * q1**2 + p * q2**2 + v * p * q3**2,
            2 * p * (q1 * q2 + q0 * q3),
        ),
        (
            2 * (q0 * q2 - v * q1 * q3),
            2 * v * (q0 * q3 - q1 * q2),
            q0**2 - v * q1**2 - p * q2**2 + v * p * q3**2,
        ),
    )
    return Mat(tuple(tuple(e / n for e in r) for r in rows))


def rand_quat(rng, ctx):
    while True:
        x = quat(ctx, *(rand_rational(rng, ctx.p) if rng.random() < 0.85 else 0 for _ in range(4)))
        if not x.is_zero:
            return x


def rand_triple(rng, ctx, inf_rate=0.0, beta_in_zp=False):
    def slot(zp):
        if inf_rate and rng.random() < inf_rate:
            return INF
        if rng.random() < 0.15:
            return Fraction(0)
        return rand_rational(rng, ctx.p, 0, 3) if zp else rand_rational(rng, ctx.p)

    return Angles(slot(False), slot(beta_in_zp), slot(False))


def flip(ctx, angles):
    """The other Cardano triple of the same rotation."""
    v, p = ctx.v, ctx.p

    def inv(t, c):
        if isinstance(t, Infinity):
            return Fraction(0)
        if t == 0:
            return INF
        return c / t

    return Angles(
        inv(angles.alpha, Fraction(1, v)),
        inv(angles.beta, Fraction(1, p)),
        inv(angles.gamma, Fraction(v, p)),
    )


def identity(ctx):
    return Rot3(ctx, Mat.identity(3))


def so2_block(d, t) -> Mat:
    """R_d(t) as a 2x2 Mat: the entries _so2_entries gives a finite t, or
    -I for INF."""
    if t is INF:
        return Mat.identity(2).scale(Fraction(-1))
    c, b, s = _so2_entries(Fraction(d), t)
    return Mat(((c, b), (s, c)))


@pytest.fixture(autouse=True)
def decompositions_rebuild_certified(monkeypatch):
    """decompose_cardano checks its triple against an uncertified product.
    Every triple it returns in this module is rebuilt here through
    cardano_matrix, so the certificate runs, and must agree with the input."""
    real = decompose_cardano

    def checked(r, precision=32):
        angles = real(r, precision)
        assert cardano_matrix(r.ctx, angles).mat.agrees(r.mat)
        return angles

    monkeypatch.setitem(globals(), "decompose_cardano", checked)


class TestSo2:
    def test_zero_is_identity(self, ctx):
        for d in ctx.so2_catalog().values():
            assert so2_block(d, 0) == Mat.identity(2)

    def test_infinity_is_minus_identity(self, ctx):
        # the chart's integer block at INF, and the product of two blocks
        # whose composite parameter is the pole 1 - d a b = 0
        rng = random.Random(7 + ctx.p)
        minus_one = Mat.identity(2).scale(Fraction(-1))
        for d in ctx.so2_catalog().values():
            c, b, s, den = _block_ints(d, INF)
            assert Mat.from_numerators(((c, b), (s, c)), den) == minus_one
            a = rand_rational(rng, ctx.p)
            assert so2_compose(ctx, d, a, 1 / (d * a)) is INF
            assert so2_block(d, a) * so2_block(d, 1 / (d * a)) == minus_one

    def test_frozen_quarter_turn(self):
        ctx = canonical_units(3)
        assert ctx.d_z == 1
        assert so2_block(ctx.d_z, 1).rows == ((0, -1), (1, 0))

    def test_blocks_are_special_isometries(self, ctx):
        rng = random.Random(11 + ctx.p)
        for d in ctx.so2_catalog().values():
            form = so2_form(ctx, d)
            for _ in range(15):
                m = so2_block(d, rand_rational(rng, ctx.p))
                assert is_special_isometry(m, form)

    def test_compose_against_matrix_product(self, ctx):
        rng = random.Random(13 + ctx.p)
        params = [rand_rational(rng, ctx.p) for _ in range(8)] + [Fraction(0), INF]
        for d in ctx.so2_catalog().values():
            for a in params:
                for b in params:
                    prod = so2_block(d, a) * so2_block(d, b)
                    assert so2_block(d, so2_compose(ctx, d, a, b)) == prod

    def test_compose_conventions(self, ctx):
        d = ctx.d_z
        assert so2_compose(ctx, d, Fraction(5, 7), 0) == Fraction(5, 7)
        assert so2_compose(ctx, d, INF, 0) is INF
        assert so2_compose(ctx, d, INF, INF) == 0
        b = Fraction(2)
        assert so2_compose(ctx, d, INF, b) == -1 / (d * b)

    def test_compose_frozen_pole(self):
        ctx = canonical_units(3)
        assert so2_compose(ctx, 1, 1, 1) is INF

    def test_param_round_trip(self, ctx):
        # decompose_cardano reads each axis parameter back as s / (1 + c)
        rng = random.Random(17 + ctx.p)
        for d in ctx.so2_catalog().values():
            for a in [rand_rational(rng, ctx.p) for _ in range(10)] + [Fraction(0), INF]:
                (c, _), (s, _) = so2_block(d, a).rows
                assert _pair_param(c, s, exact=True) == a

    def test_param_certificate(self, ctx):
        # the SO(2) certificate: a shear preserves no catalog form
        bad = Mat(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
        for d in ctx.so2_catalog().values():
            assert not is_special_isometry(bad, so2_form(ctx, d))

    def test_catalog_is_enforced(self, ctx):
        with pytest.raises(ValueError):
            so2_compose(ctx, Fraction(5 if ctx.p != 5 else 7), 1, 1)

    def test_capped_parameter_with_no_known_denominator(self, ctx):
        # 1 + d alpha^2 keeps no digit: 0 + O(p^0) on the unit d of z, and
        # 0 + O(p^-1) on d = p; it used to be division by a p-adic zero
        p = ctx.p
        for d, known in ((ctx.d_z, 0), (ctx.d_y, -1)):
            with pytest.raises(PrecisionExhausted):
                _so2_entries(d, PadicApprox.zero(p, known))
        with pytest.raises(PrecisionExhausted):
            cardano_matrix(ctx, (PadicApprox.zero(p, 0), INF, Fraction(-9, 8)))
        # one more known digit of alpha leaves the identity to O(p^2) and O(p)
        c, b, s = _so2_entries(ctx.d_z, PadicApprox.zero(p, 1))
        assert c == PadicApprox(p=p, val=0, mant=1, n=2)
        assert b == s == PadicApprox.zero(p, 1)


class TestCardano:
    def test_identity_triple(self, ctx):
        assert cardano_matrix(ctx, (0, 0, 0)) == identity(ctx)

    def test_single_axis_triples(self, ctx):
        rng = random.Random(19 + ctx.p)
        a = rand_rational(rng, ctx.p)
        for axis, t in zip("zyx", ((a, 0, 0), (0, a, 0), (0, 0, a))):
            assert cardano_matrix(ctx, t).mat.rows == hand_embedded(ctx, axis, a)

    def test_entries_against_transcribed_formulas(self, ctx):
        rng = random.Random(23 + ctx.p)
        for _ in range(60):
            t = rand_triple(rng, ctx)
            assert cardano_matrix(ctx, t).mat.rows == entry_oracle(ctx, *t)

    def test_integer_blocks_match_axis_product(self, ctx):
        # the integer block kernel against the _so2_entries blocks
        rng = random.Random(37 + ctx.p)
        for _ in range(40):
            t = rand_triple(rng, ctx, inf_rate=0.3)
            z, y, x = (Mat(hand_embedded(ctx, a, s)) for a, s in zip("zyx", t))
            assert cardano_matrix(ctx, t).mat == z * y * x

    def test_sine_of_beta_entry(self, ctx):
        rng = random.Random(29 + ctx.p)
        for _ in range(100):
            t = rand_triple(rng, ctx)
            b = t.beta
            assert cardano_matrix(ctx, t).mat.rows[2][0] == 2 * b / (1 + ctx.p * b * b)

    def test_entries_lie_in_zp(self, ctx):
        rng = random.Random(31 + ctx.p)
        for _ in range(25):
            r = cardano_matrix(ctx, rand_triple(rng, ctx, inf_rate=0.2))
            assert all(valuation(e, ctx.p) >= 0 for row in r.mat.rows for e in row)

    def test_certificate_rejects(self, ctx):
        with pytest.raises(CertificateError):
            Rot3(ctx, Mat.diagonal((Fraction(1), Fraction(1), Fraction(2))))
        good = cardano_matrix(ctx, (1, ctx.p, 2)).mat
        with pytest.raises(CertificateError):
            Rot3(ctx, good.scale(Fraction(2)))

    def test_group_operations(self, ctx):
        rng = random.Random(37 + ctx.p)
        r = cardano_matrix(ctx, rand_triple(rng, ctx))
        s = cardano_matrix(ctx, rand_triple(rng, ctx, inf_rate=0.3))
        assert (r * s).mat == r.mat * s.mat
        assert r * r.inverse() == identity(ctx)
        assert r.inverse() * r == identity(ctx)


class TestQuatIso:
    def test_scalar_maps_to_identity(self, ctx):
        assert quat_to_rotation(quat(ctx, 7)) == identity(ctx)

    def test_frozen_value(self):
        # Worked longhand: conjugation by 1 + i sends i -> i, j -> k,
        # k -> -j at p = 3, then the basis change permutes slots.
        ctx = canonical_units(3)
        r = quat_to_rotation(quat(ctx, 1, 1))
        assert r.mat.rows == ((0, 1, 0), (-1, 0, 0), (0, 0, 1))

    def test_against_transcribed_formulas(self, ctx):
        rng = random.Random(41 + ctx.p)
        for _ in range(40):
            x = rand_quat(rng, ctx)
            assert quat_to_rotation(x).mat == iso_oracle(x)

    def test_homomorphism(self, ctx):
        rng = random.Random(43 + ctx.p)
        for _ in range(25):
            x, y = rand_quat(rng, ctx), rand_quat(rng, ctx)
            assert quat_to_rotation(x * y) == quat_to_rotation(x) * quat_to_rotation(y)

    def test_kernel_is_scalars(self, ctx):
        rng = random.Random(47 + ctx.p)
        x = rand_quat(rng, ctx)
        assert quat_to_rotation(x.scale(Fraction(-3, 5))) == quat_to_rotation(x)

    def test_axis_quaternions(self, ctx):
        rng = random.Random(53 + ctx.p)
        a = rand_rational(rng, ctx.p)
        assert quat_to_rotation(quat(ctx, 1, -a)) == cardano_matrix(ctx, (a, 0, 0))
        assert quat_to_rotation(quat(ctx, 1, 0, a)) == cardano_matrix(ctx, (0, a, 0))
        g_over_v = Fraction(a, ctx.v)
        assert quat_to_rotation(quat(ctx, 1, 0, 0, g_over_v)) == cardano_matrix(ctx, (0, 0, a))

    def test_zero_rejected(self, ctx):
        with pytest.raises(ZeroDivisionError):
            quat_to_rotation(quat(ctx))


class TestAnglesToQuat:
    def test_identity_triple(self, ctx):
        assert angles_to_quat(ctx, (0, 0, 0)) == quat(ctx, 1)

    def test_axis_triples(self, ctx):
        b = Fraction(4, 5)
        assert angles_to_quat(ctx, (b, 0, 0)) == quat(ctx, 1, -b)
        assert angles_to_quat(ctx, (0, b, 0)) == quat(ctx, 1, 0, b)
        assert angles_to_quat(ctx, (0, 0, b)) == quat(ctx, 1, 0, 0, Fraction(b, ctx.v))

    def test_factored_product_oracle(self, ctx):
        rng = random.Random(59 + ctx.p)
        one, i, j, k = (quat(ctx, 1), quat(ctx, 0, 1), quat(ctx, 0, 0, 1), quat(ctx, 0, 0, 0, 1))
        for _ in range(50):
            t = rand_triple(rng, ctx)
            direct = (one - i.scale(t.alpha)) * (one + j.scale(t.beta)) * (one + k.scale(Fraction(t.gamma, ctx.v)))
            assert angles_to_quat(ctx, t) == direct

    def test_never_the_zero_class(self, ctx):
        # On the involution locus 1 - p*a*b*g = 0 the quadruple stays nonzero.
        a, b = Fraction(1), Fraction(1)
        g = Fraction(1, ctx.p)
        x = angles_to_quat(ctx, (a, b, g))
        assert x.q0 == 0 and not x.is_zero

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 4294967311])
    def test_matches_the_fraction_formula(self, p):
        # the quadruple as Fraction arithmetic on the triple, the formula the
        # integer quadruple replaces
        ctx = canonical_units(p)
        v = ctx.v
        rng = random.Random(1613 + p)
        triples = [(0, 0, 0), (1, 0, 2), Angles(Fraction(1), Fraction(1), Fraction(1, p))]
        triples += [rand_triple(rng, ctx) for _ in range(60)]
        for t in triples:
            a, b, g = map(Fraction, t)
            want = (1 - p * a * b * g, Fraction(p, v) * b * g - a, b - a * g, g / v - a * b)
            got = angles_to_quat(ctx, t).coords
            assert got == want
            assert all(type(c) is Fraction for c in got)

    def test_capped_triple_pinned(self):
        ctx = canonical_units(5)
        t = (
            PadicApprox(p=5, val=0, mant=1 + 2 * 5 + 3 * 25 + 4 * 125, n=4),
            Fraction(2, 3),
            PadicApprox(p=5, val=-1, mant=2 + 4 * 5 + 25, n=3),
        )
        got = angles_to_quat(ctx, t).coords
        assert [(c.p, c.val, c.mant, c.n) for c in got] == [(5, 0, 98, 3), (5, 1, 0, 0), (5, -1, 3, 3), (5, -1, 19, 2)]

    def test_capped_triple_with_an_infinite_slot(self):
        # the factored product once coerced every factor to Fraction and
        # raised TypeError here
        ctx = canonical_units(5)
        capped = PadicApprox(p=5, val=0, mant=7, n=3)
        for slot in range(3):
            for other in (Fraction(0), Fraction(2, 3), capped):
                t = [other] * 3
                t[slot], t[(slot + 1) % 3] = INF, capped
                exact = [7 if x is capped else x for x in t]
                got = angles_to_quat(ctx, t).coords
                want = angles_to_quat(ctx, exact).coords
                assert any(isinstance(c, PadicApprox) for c in got)
                assert all(c == w if type(c) is Fraction else c.congruent(w) for c, w in zip(got, want))

    def test_capped_quaternion_has_no_conjugation_action(self):
        # the conjugation action works on integer coordinates; a capped
        # quaternion once reached clear_denominators and raised AttributeError
        ctx = canonical_units(5)
        x = angles_to_quat(ctx, (INF, PadicApprox(p=5, val=0, mant=7, n=3), 0))
        for action in (quat_to_rotation, conj_action_matrix):
            with pytest.raises(ValueError, match="exact"):
                action(x)

    def test_grand_consistency(self, ctx):
        rng = random.Random(61 + ctx.p)
        for _ in range(30):
            t = rand_triple(rng, ctx, inf_rate=0.25)
            assert quat_to_rotation(angles_to_quat(ctx, t)) == cardano_matrix(ctx, t)

    def test_grand_consistency_on_involutions(self, ctx):
        rng = random.Random(67 + ctx.p)
        for _ in range(10):
            a, b = rand_rational(rng, ctx.p), rand_rational(rng, ctx.p)
            g = 1 / (ctx.p * a * b)
            t = Angles(a, b, g)
            assert angles_to_quat(ctx, t).q0 == 0
            assert quat_to_rotation(angles_to_quat(ctx, t)) == cardano_matrix(ctx, t)


class TestRotationToQuat:
    def test_identity(self, ctx):
        assert rotation_to_quat(identity(ctx)) == quat(ctx, 1)

    def test_z_rotation(self, ctx):
        a = Fraction(3, 7)
        assert rotation_to_quat(cardano_matrix(ctx, (a, 0, 0))) == quat(ctx, 1, -a)

    def test_round_trip_from_quat(self, ctx):
        rng = random.Random(71 + ctx.p)
        for _ in range(40):
            x = rand_quat(rng, ctx)
            assert rotation_to_quat(quat_to_rotation(x)).proportional(x)

    def test_round_trip_pure_quats(self, ctx):
        rng = random.Random(73 + ctx.p)
        pures = [quat(ctx, 0, 1), quat(ctx, 0, 0, 1), quat(ctx, 0, 0, 0, 1)]
        for _ in range(20):
            x = quat(ctx, 0, *(rand_rational(rng, ctx.p) for _ in range(3)))
            if not x.is_zero:
                pures.append(x)
        for x in pures:
            y = rotation_to_quat(quat_to_rotation(x))
            assert y.q0 == 0 and y.proportional(x)

    def test_round_trip_from_rotation(self, ctx):
        rng = random.Random(79 + ctx.p)
        for _ in range(25):
            r = cardano_matrix(ctx, rand_triple(rng, ctx, inf_rate=0.2))
            assert quat_to_rotation(rotation_to_quat(r)) == r


class TestInvolution:
    """Involutions, R != I with R^2 = I, are the rotations of pure
    quaternions: rotation_to_quat gives them q0 = 0."""

    def test_conjugation_by_i(self, ctx):
        r = quat_to_rotation(quat(ctx, 0, 1))
        assert r.mat == Mat.diagonal((Fraction(-1), Fraction(-1), Fraction(1)))
        assert r * r == identity(ctx)
        assert rotation_to_quat(r).q0 == 0

    def test_identity_is_not(self, ctx):
        assert rotation_to_quat(identity(ctx)).q0 != 0

    def test_generic_rotation_is_not(self):
        ctx = canonical_units(3)
        r = cardano_matrix(ctx, (1, 0, 0))
        assert r * r != identity(ctx)
        assert rotation_to_quat(r).q0 != 0

    def test_involution_locus(self, ctx):
        t = Angles(Fraction(1), Fraction(1), Fraction(1, ctx.p))
        r = cardano_matrix(ctx, t)
        assert r != identity(ctx)
        assert r * r == identity(ctx)
        assert rotation_to_quat(r).q0 == 0


class TestDecompose:
    def test_identity(self, ctx):
        assert decompose_cardano(identity(ctx)) == Angles(0, 0, 0)

    def test_frozen_round_trip_p5(self):
        ctx = canonical_units(5)
        t = Angles(Fraction(1), Fraction(1), Fraction(1))
        assert decompose_cardano(cardano_matrix(ctx, t)) == t

    def test_round_trip_on_canonical_triples(self, ctx):
        rng = random.Random(83 + ctx.p)
        for _ in range(40):
            t = rand_triple(rng, ctx, beta_in_zp=True)
            assert decompose_cardano(cardano_matrix(ctx, t)) == t

    def test_round_trip_with_infinities(self, ctx):
        rng = random.Random(89 + ctx.p)
        for _ in range(10):
            t = Angles(INF, rand_rational(rng, ctx.p, 0, 2), rand_rational(rng, ctx.p))
            assert decompose_cardano(cardano_matrix(ctx, t)) == t

    def test_flip_branch_for_beta_outside_zp(self, ctx):
        rng = random.Random(97 + ctx.p)
        for _ in range(25):
            t = Angles(
                rand_rational(rng, ctx.p),
                rand_rational(rng, ctx.p, -4, -1),
                rand_rational(rng, ctx.p),
            )
            got = decompose_cardano(cardano_matrix(ctx, t))
            assert got == flip(ctx, t)
            assert cardano_matrix(ctx, got) == cardano_matrix(ctx, t)

    def test_infinite_beta_flips_to_zero(self, ctx):
        rng = random.Random(101 + ctx.p)
        a, g = rand_rational(rng, ctx.p), rand_rational(rng, ctx.p)
        t = Angles(a, INF, g)
        got = decompose_cardano(cardano_matrix(ctx, t))
        assert got == flip(ctx, t)
        assert got.beta == 0

    def test_frozen_flip_p3(self):
        ctx = canonical_units(3)
        got = decompose_cardano(cardano_matrix(ctx, (0, Fraction(1, 3), 0)))
        assert got == Angles(INF, Fraction(1), INF)
        assert cardano_matrix(ctx, got) == cardano_matrix(ctx, (0, Fraction(1, 3), 0))

    def test_involution_decomposes(self, ctx):
        t = Angles(Fraction(1), Fraction(1), Fraction(1, ctx.p))
        assert decompose_cardano(cardano_matrix(ctx, t)) == t

    def test_hensel_path(self):
        # 1 + i + j at p = 3 has a (3,1) entry of 2/5; the cosine of beta
        # is then a square root of 13/25, irrational, so the extraction
        # runs through the Hensel lift and lands on approx angles.
        ctx = canonical_units(3)
        r = quat_to_rotation(quat(ctx, 1, 1, 1))
        assert r.mat.rows[2][0] == Fraction(2, 5)
        t = decompose_cardano(r, precision=24)
        assert cardano_matrix(ctx, t).mat.agrees(r.mat)
        assert valuation(t.beta, 3) >= 0

    def test_hensel_path_random(self, ctx):
        rng = random.Random(103 + ctx.p)
        hit = 0
        for _ in range(12):
            r = quat_to_rotation(rand_quat(rng, ctx))
            t = decompose_cardano(r, precision=20)
            hit += any(not isinstance(x, (Fraction, Infinity)) for x in t)
            assert cardano_matrix(ctx, t).mat.agrees(r.mat)
        assert hit > 0


def reference_decompose(r, precision):
    """decompose_cardano's reading of every matrix from its Fraction rows:
    a Fraction square root of 1 - p R31^2 where there is one, four
    divisions, and the same rebuild check."""
    ctx = r.ctx
    m = r.mat.rows
    s_b = m[2][0]
    radicand = 1 - ctx.p * s_b * s_b
    root = rational_sqrt(radicand) if isinstance(radicand, Fraction) else None
    if root is not None:
        c_b = root if unit_residue(root, ctx.p) == 1 else -root
    else:
        c_b = hensel_sqrt(radicand, ctx, precision)
    exact = r.mat.integer_form() is not None

    def pair(c, s):
        den = 1 + c
        if den.is_zero if isinstance(den, PadicApprox) else den == 0:
            if exact and isinstance(c, PadicApprox):
                raise PrecisionExhausted("no digits")
            return INF
        return s / den

    angles = Angles(pair(m[0][0] / c_b, m[1][0] / c_b), s_b / (1 + c_b), pair(m[2][2] / c_b, m[2][1] / c_b))
    if _cardano_product(ctx, angles).agrees(r.mat):
        return angles
    if not exact and (angles.alpha is INF or angles.gamma is INF):
        raise PrecisionExhausted("no digits")
    raise AmbiguityError("no rebuild")


def decompose_outcome(decompose, r, precision):
    """The type and value of each angle, (p, val, mant, n) for a capped one,
    or the type of the exception raised."""
    try:
        angles = decompose(r, precision)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return tuple((a.p, a.val, a.mant, a.n) if isinstance(a, PadicApprox) else (type(a), a) for a in angles)


class TestDecomposeParity:
    """decompose_cardano reads an exact matrix from its integer form; the
    answers are those of the Fraction-row reading, on both paths."""

    @staticmethod
    def exact_rotations(ctx, rng):
        for _ in range(25):
            t = rand_triple(rng, ctx)
            yield cardano_matrix(ctx, t)
            yield cardano_matrix(ctx, t._replace(alpha=INF))
            yield cardano_matrix(ctx, t._replace(gamma=INF))
            # a quaternion of a triple's rotation, scaled: rational root
            yield quat_to_rotation(angles_to_quat(ctx, t).scale(rand_rational(rng, ctx.p)))
            yield quat_to_rotation(rand_quat(rng, ctx))

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 4294967311])
    def test_matches_the_fraction_reading(self, p):
        ctx = canonical_units(p)
        rng = random.Random(1601 + p)
        paths = {"root": 0, "wrong sign": 0, "hensel": 0}
        for r in self.exact_rotations(ctx, rng):
            num, den = r.mat.integer_form()
            x = den * den - p * num[2][0] ** 2
            if x > 0 and math.isqrt(x) ** 2 == x:
                paths["root"] += 1
                # the positive root is the wrong branch: c_b = -isqrt(x)/D
                paths["wrong sign"] += (math.isqrt(x) - den) % p != 0
            else:
                paths["hensel"] += 1
            for precision in (8, 32):
                want = decompose_outcome(reference_decompose, r, precision)
                assert decompose_outcome(decompose_cardano, r, precision) == want
                capped = capped_copy(r, precision)
                assert decompose_outcome(decompose_cardano, capped, precision) == decompose_outcome(
                    reference_decompose, capped, precision
                )
        assert all(paths.values()), paths


P3_DEEP_SHELL = (
    '[["77975/79489", "-486/79489", "-26730/79489"],'
    ' ["13122/79489", "-39785/79489", "117006/79489"],'
    ' ["-162/2741", "-1370/2741", "-1343/2741"]]'
)


def capped_copy(r, digits):
    rows = tuple(
        tuple(e if e == 0 else PadicApprox.from_rational(e, r.ctx.p, digits) for e in row)
        for row in r.mat.rows
    )
    return Rot3(r.ctx, Mat(rows))


def lambda_product_quat(r):
    """rotation_to_quat through two general Mat products with Lambda, q0 != 0
    branch only; None where that branch reads a zero trace."""
    ctx = r.ctx
    v, p = ctx.v, ctx.p
    e = (lambda_inverse(ctx) * r.mat * lambda_matrix(ctx)).rows
    w = (e[0][0] + e[1][1] + e[2][2] + 1) / 4
    if values_agree(w, 0):
        return None
    a1 = (v * e[2][1] + e[1][2]) / (4 * v)
    a2 = (e[0][2] - p * e[2][0]) / (4 * p)
    a3 = -(v * e[0][1] + p * e[1][0]) / (4 * p * v)
    return (Fraction(1), a1 / w, a2 / w, a3 / w)


class TestLambdaKernel:
    def test_permutation_equals_lambda_products(self, ctx):
        rng = random.Random(601 + ctx.p)
        pures = [quat(ctx, 0, 1), quat(ctx, 0, 0, 1), quat(ctx, 0, 0, 0, 1)]
        for x in pures + [rand_quat(rng, ctx) for _ in range(40)]:
            via_lambda = lambda_matrix(ctx) * conj_action_matrix(x) * lambda_inverse(ctx)
            got = quat_to_rotation(x).mat
            assert got == via_lambda
            assert got.rows == via_lambda.rows

    def test_rotation_to_quat_inverts_projectively(self, ctx):
        rng = random.Random(607 + ctx.p)
        for _ in range(40):
            x = rand_quat(rng, ctx)
            y = rotation_to_quat(quat_to_rotation(x))
            assert y.proportional(x)
            assert y.q0 in (0, 1)

    def test_rotation_to_quat_on_padic_entries(self, ctx):
        # the same rotations with every entry cut to 24 significant digits
        rng = random.Random(613 + ctx.p)
        seen = 0
        for _ in range(20):
            r = quat_to_rotation(rand_quat(rng, ctx))
            rows = tuple(
                tuple(e if e == 0 else PadicApprox.from_rational(e, ctx.p, 24) for e in row)
                for row in r.mat.rows
            )
            approx = Rot3(ctx, Mat(rows))
            assert approx.mat.integer_form() is None
            exact, got = rotation_to_quat(r), rotation_to_quat(approx)
            assert values_agree(got.q0, exact.q0)
            for a, b in zip(got.coords, exact.coords):
                assert values_agree(a, b)
            seen += any(isinstance(c, PadicApprox) for c in got.coords)
        assert seen > 0

    def test_rotation_to_quat_knows_no_fewer_digits_than_lambda_products(self, ctx):
        rng = random.Random(619 + ctx.p)
        compared = 0
        for i in range(24):
            r = quat_to_rotation(rand_quat(rng, ctx))
            if i % 2:
                approx = capped_copy(r, 12)
            else:
                try:
                    angles = decompose_cardano(r, precision=16)
                except PrecisionExhausted:
                    continue
                approx = cardano_matrix(ctx, angles)
                if approx.mat.integer_form() is not None:
                    continue
            reference = lambda_product_quat(approx)
            if reference is None:
                continue
            got = rotation_to_quat(approx).coords
            for a, b in zip(got, reference):
                assert values_agree(a, b)
                if isinstance(b, PadicApprox):
                    assert a.abs_known >= b.abs_known
                    compared += 1
        assert compared > 0

    def test_rotation_to_quat_on_hensel_angles(self):
        ctx = canonical_units(3)
        r = quat_to_rotation(quat(ctx, 1, 1, 1))
        approx = cardano_matrix(ctx, decompose_cardano(r, precision=24))
        got = rotation_to_quat(approx)
        assert all(values_agree(a, b) for a, b in zip(got.coords, rotation_to_quat(r).coords))


class TestMatComparison:
    def pair_cases(self, ctx):
        rng = random.Random(617 + ctx.p)
        for _ in range(25):
            a = quat_to_rotation(rand_quat(rng, ctx)).mat
            i, j = rng.randrange(3), rng.randrange(3)
            rows = [list(r) for r in a.rows]
            rows[i][j] += Fraction(1, ctx.p)
            yield a, Mat(a.rows), True
            yield a, Mat(rows), False
            yield a, quat_to_rotation(rand_quat(rng, ctx)).mat, None

    def test_integer_path_matches_entry_path(self, ctx):
        for a, b, expected in self.pair_cases(ctx):
            entry_eq = a.rows == b.rows
            entry_agree = all(values_agree(x, y) for ra, rb in zip(a.rows, b.rows) for x, y in zip(ra, rb))
            assert (a == b) == entry_eq == (b == a)
            assert a.agrees(b) == entry_agree == b.agrees(a)
            if expected is not None:
                assert entry_eq is expected

    def test_one_entry_off_by_one_over_p(self, ctx):
        a = cardano_matrix(ctx, (1, ctx.p, 2)).mat
        rows = [list(r) for r in a.rows]
        rows[1][2] += Fraction(1, ctx.p)
        b = Mat(rows)
        assert a.integer_form() is not None and b.integer_form() is not None
        assert a != b and not a.agrees(b)
        approx = Mat([[PadicApprox.from_rational(e, ctx.p, 12) if e else e for e in r] for r in rows])
        assert approx.integer_form() is None
        assert not a.agrees(approx) and b.agrees(approx)

    def test_same_numerators_over_another_denominator(self, ctx):
        # a scalar multiple keeps N and changes only D
        a = cardano_matrix(ctx, (1, ctx.p, 2)).mat
        num, den = a.integer_form()
        b = Mat.from_numerators(num, den * 1_000_003)
        assert b.integer_form()[0] == num
        assert a != b and not a.agrees(b)
        assert Mat.identity(3) != Mat.identity(3).scale(Fraction(1, ctx.p))

    def test_shapes_and_other_types(self, ctx):
        assert Mat.identity(3) != Mat.identity(2)
        assert not Mat.identity(3).agrees(Mat.identity(2))
        assert Mat.identity(3) == Mat(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert Mat.identity(3) != "I"


class TestPrecisionBudget:
    def test_deep_shell_alpha_needs_more_digits(self):
        ctx = canonical_units(3)
        r = Rot3(ctx, parse_matrix_json(P3_DEEP_SHELL, 3))
        with pytest.raises(PrecisionExhausted):
            decompose_cardano(r, precision=16)
        t = decompose_cardano(r, precision=20)
        assert t.beta.val == 4
        assert cardano_matrix(ctx, t).mat.agrees(r.mat)

    @pytest.mark.parametrize("alpha, gamma", [(INF, 0), (0, INF), (INF, INF)])
    def test_capped_matrix_keeps_infinite_parameters(self, ctx, alpha, gamma):
        # on a capped matrix 1 + c can really vanish: the parameter is INF
        beta = PadicApprox.from_rational(1, ctx.p, 16)
        r = cardano_matrix(ctx, (alpha, beta, gamma))
        assert r.mat.integer_form() is None
        t = decompose_cardano(r, precision=16)
        for got, want in ((t.alpha, alpha), (t.gamma, gamma)):
            assert got is INF if want is INF else values_agree(got, want)
        assert values_agree(t.beta, beta)
        assert cardano_matrix(ctx, t).mat.agrees(r.mat)

    def test_budget_exhaustion_is_not_ambiguity(self):
        ctx = canonical_units(7)
        x = quat(ctx, 38122, 111181, -11137, Fraction(1727, 343))
        r = quat_to_rotation(x)
        with pytest.raises(PrecisionExhausted):
            decompose_cardano(r, precision=8)
        t = decompose_cardano(r, precision=10)
        assert (t.gamma.val, t.gamma.digits()) == (-5, (2,))
        assert valuation(t.beta, 7) >= 0
        assert cardano_matrix(ctx, t).mat.agrees(r.mat)


def capped_param(x, p, digits):
    return x if isinstance(x, Infinity) or x == 0 else PadicApprox.from_rational(x, p, digits)


class TestCappedInputs:
    """A capped matrix answers with the canonical triple, which rebuilds it,
    or with PrecisionExhausted.  The flipped triple, beta outside Z_p, can
    agree with the few known digits when alpha or gamma lies deep in a
    shell; it is never an answer."""

    def capped_inputs(self, ctx, rng):
        for digits in (6, 12):
            for _ in range(40):
                r = quat_to_rotation(rand_quat(rng, ctx))
                yield capped_copy(r, digits)
                t = rand_triple(rng, ctx, inf_rate=0.1)
                yield cardano_matrix(ctx, Angles(*(capped_param(x, ctx.p, digits) for x in t)))
                try:
                    yield cardano_matrix(ctx, decompose_cardano(r, precision=digits))
                except PrecisionExhausted:
                    pass

    def test_canonical_triple_or_precision_exhausted(self, ctx):
        rng = random.Random(709 + ctx.p)
        answered = 0
        for r in self.capped_inputs(ctx, rng):
            try:
                t = decompose_cardano(r)
            except PrecisionExhausted:
                continue
            assert valuation(t.beta, ctx.p) >= 0
            assert cardano_matrix(ctx, t).mat.agrees(r.mat)
            answered += 1
        assert answered > 0


# The paper's axis data, written out independently of PrimeCtx.AXES and of
# the block builder: d = -v, p, -p/v at rows/columns (0,1), (0,2), (1,2).
def hand_axis(ctx, axis):
    return {
        "z": (Fraction(-ctx.v), (0, 1)),
        "y": (Fraction(ctx.p), (0, 2)),
        "x": (Fraction(-ctx.p, ctx.v), (1, 2)),
    }[axis]


def pad(ctx, axis, c, b, s) -> Mat:
    """The block [[c, b], [s, c]] written into the 3x3 identity by hand, at
    the axis's rows and columns."""
    i, j = hand_axis(ctx, axis)[1]
    rows = [list(r) for r in Mat.identity(3).rows]
    rows[i][i], rows[i][j], rows[j][i], rows[j][j] = c, b, s, c
    return Mat(rows)


def hand_embedded(ctx, axis, t):
    """so2_block's entries for the axis, padded to 3x3, as rows."""
    (c, b), (s, _) = so2_block(hand_axis(ctx, axis)[0], t).rows
    return pad(ctx, axis, c, b, s).rows


def mixed_param(rng, ctx, kind):
    if kind == "inf":
        return INF
    if kind == "capped":
        if rng.random() < 0.1:
            return PadicApprox.zero(ctx.p, rng.randint(1, 6))
        return PadicApprox.from_rational(rand_rational(rng, ctx.p), ctx.p, rng.randint(4, 16))
    return rand_rational(rng, ctx.p) if rng.random() < 0.85 else Fraction(0)


class TestAxisBlocks:
    @pytest.mark.parametrize("kind", ["rational", "inf", "capped"])
    def test_axis_rotation_is_the_hand_embedded_block(self, ctx, kind):
        # the rotation about one axis is the chart triple with 0 in the
        # other two slots; capped entries agree digitwise, as the chart's
        # product with the exact blocks of 0 makes exact zeros capped
        rng = random.Random(41 + ctx.p)
        for _ in range(10):
            for slot, axis in enumerate("zyx"):
                t = mixed_param(rng, ctx, kind)
                triple = tuple(t if k == slot else 0 for k in range(3))
                assert cardano_matrix(ctx, triple).mat.agrees(Mat(hand_embedded(ctx, axis, t)))

    @pytest.mark.parametrize("capped", [1, 2, 3])
    def test_capped_parameters_keep_the_entry_product(self, ctx, capped):
        rng = random.Random(43 + 7 * capped + ctx.p)
        for _ in range(30):
            kinds = [rng.choice(("rational", "rational", "inf")) for _ in range(3)]
            for where in rng.sample(range(3), capped):
                kinds[where] = "capped"
            t = tuple(mixed_param(rng, ctx, k) for k in kinds)
            z, y, x = (Mat(hand_embedded(ctx, a, s)) for a, s in zip("zyx", t))
            got = cardano_matrix(ctx, t).mat
            assert got.integer_form() is None
            # same entries, digit for digit, as the product of the blocks
            assert got.rows == (z * y * x).rows



def fraction_product(mats) -> tuple:
    """The product of Fraction matrices entry by entry, with no integer form."""
    rows = mats[0].rows
    for m in mats[1:]:
        cols = tuple(zip(*m.rows))
        rows = tuple(tuple(sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in cols) for r in rows)
    return rows


class TestClosedFormProduct:
    """The 21-product closed form of the exact Cardano chart against the
    three axis blocks multiplied as matrices."""

    @pytest.mark.parametrize("p", [3, 5, 7, 13, 4294967311])
    def test_closed_form_matches_block_products(self, p):
        ctx = canonical_units(p)
        rng = random.Random(f"closed-form:{p}")
        # every slot takes INF, 0 and rationals of valuation -3..3
        for kinds in itertools.product(("inf", "zero", "rational"), repeat=3):
            for _ in range(4):
                t = Angles(*(
                    INF if kind == "inf" else Fraction(0) if kind == "zero"
                    else rand_rational(rng, p, vmin=-3, vmax=3)
                    for kind in kinds
                ))
                got = cardano_matrix(ctx, t).mat.integer_form()
                z, y, x = (pad(ctx, axis, *_block_entries(ctx, axis, s)) for axis, s in zip("zyx", t))
                assert got == (z * y * x).integer_form(), t
                # _so2_entries' blocks, multiplied in Fractions: shares no
                # integer kernel with the closed form
                hand = [Mat(hand_embedded(ctx, axis, s)) for axis, s in zip("zyx", t)]
                assert got == clear_denominators(fraction_product(hand)), t


def entry_key(e):
    return type(e), (e.val, e.mant, e.n) if isinstance(e, PadicApprox) else e


class TestCappedProduct:
    """The capped branch of the chart, written out from the 2x2 blocks,
    against z * y * x of the blocks padded to 3x3 by hand in Mat's entry
    path: entry by entry, the same type, valuation, mantissa and digit
    count."""

    @staticmethod
    def params(p):
        exact = [Fraction(0), Fraction(16, 63), Fraction(-2, p), Fraction(33 * p * p, 2), INF]
        capped = [
            PadicApprox.from_rational(Fraction(7, 5 * p), p, 5),
            PadicApprox.from_rational(Fraction(3, 11), p, 8),
            PadicApprox.from_rational(Fraction(2 * p * p, 7), p, 6),
            PadicApprox.zero(p, 3),
            PadicApprox.zero(p),
        ]
        return exact + capped

    @pytest.mark.parametrize("p", [3, 5, 13, 4294967311])
    def test_matches_the_padded_block_product(self, p):
        ctx = canonical_units(p)
        seen = 0
        # every mix of exact, INF, capped and capped-zero parameters with
        # at least one capped slot; the capped digit strings have negative,
        # zero and positive valuation
        for t in itertools.product(self.params(p), repeat=3):
            if not any(isinstance(s, PadicApprox) for s in t):
                continue
            z, y, x = (pad(ctx, axis, *_block_entries(ctx, axis, s)) for axis, s in zip("zyx", t))
            want = [entry_key(e) for r in (z * y * x).rows for e in r]
            got = [entry_key(e) for r in _cardano_product(ctx, t).rows for e in r]
            assert got == want, t
            seen += 1
        assert seen == 10**3 - 5**3

    @staticmethod
    def entry(rng, p, diagonal):
        kind = rng.choice(["exact", "exact", "digits", "digits", "capped zero", "exact zero"])
        if kind == "exact":
            x = rand_rational(rng, p, vmin=-2, vmax=2)
            return x if diagonal or rng.random() < 0.8 else Fraction(0)
        if kind == "digits":
            return PadicApprox.from_rational(rand_rational(rng, p, vmin=-2, vmax=2), p, rng.randint(1, 8))
        return PadicApprox.zero(p, rng.randint(-2, 4)) if kind == "capped zero" else PadicApprox.zero(p)

    @pytest.mark.parametrize("p", [3, 5, 13, 4294967311])
    def test_any_block_entries_match_the_padded_product(self, p):
        """Entries no parameter gives, such as negative valuations or an
        exact diagonal beside capped off-diagonals: with them, padding
        terms that parameters leave idle decide digit counts."""
        ctx = canonical_units(p)
        rng = random.Random(f"capped-product:{p}")
        for _ in range(400):
            blocks = [tuple(self.entry(rng, p, k == 0) for k in range(3)) for _ in range(3)]
            if not any(isinstance(e, PadicApprox) for b in blocks for e in b):
                continue
            z, y, x = (pad(ctx, axis, *block) for axis, block in zip("zyx", blocks))
            want = [entry_key(e) for r in (z * y * x).rows for e in r]
            got = [entry_key(e) for r in _capped_product(*blocks) for e in r]
            assert got == want, blocks


def inverse_by_products(r):
    """G^-1 M^T G as two Mat products: the reference for Rot3.inverse."""
    g = aplus(r.ctx).diag
    ginv = Mat.diagonal(1 / e for e in g)
    return Rot3(r.ctx, ginv * r.mat.transpose() * Mat.diagonal(g))


def known_to(x):
    return x.abs_known if isinstance(x, PadicApprox) else float("inf")


class TestInverse:
    def test_exact_matches_products(self, ctx):
        rng = random.Random(47 + ctx.p)
        one = identity(ctx)
        for i in range(30):
            r = quat_to_rotation(rand_quat(rng, ctx)) if i % 2 else cardano_matrix(ctx, rand_triple(rng, ctx, 0.3))
            inv = r.inverse()
            assert inv.mat.integer_form() is not None
            assert inv.mat.rows == inverse_by_products(r).mat.rows
            assert r * inv == one and inv * r == one
            assert inv.inverse() == r

    def test_capped_agrees_with_products_and_knows_no_less(self, ctx):
        rng = random.Random(53 + ctx.p)
        one = identity(ctx).mat
        for _ in range(30):
            kinds = [rng.choice(("rational", "inf", "capped")) for _ in range(3)]
            kinds[rng.randrange(3)] = "capped"
            r = cardano_matrix(ctx, tuple(mixed_param(rng, ctx, k) for k in kinds))
            assert r.mat.integer_form() is None
            inv, ref = r.inverse(), inverse_by_products(r)
            assert inv.mat.agrees(ref.mat)
            for got, old in zip(sum(inv.mat.rows, ()), sum(ref.mat.rows, ())):
                assert known_to(got) >= known_to(old)
            # exact scalings by g_j / g_i and back lose no digit
            assert inv.inverse().mat.rows == r.mat.rows
            assert (r * inv).mat.agrees(one) and (inv * r).mat.agrees(one)

    def test_inverse_is_certified(self, ctx, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "so3p.rotation.is_special_isometry", lambda m, f: calls.append(m) or is_special_isometry(m, f)
        )
        r = cardano_matrix(ctx, (Fraction(1), Fraction(2), Fraction(1, 3)))
        inv = r.inverse()
        assert calls[-1] is inv.mat and len(calls) == 2
