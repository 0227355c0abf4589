import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRIMES, rand_rational
from so3p.errors import PrecisionExhausted, SquareClassError
from so3p.padic import (
    INF,
    Infinity,
    PadicApprox,
    SquareClass,
    abs_p,
    canonical_units,
    hensel_sqrt,
    is_prime,
    rational_sqrt,
    square_class,
    unit_residue,
    valuation,
    values_agree,
)

F = Fraction

# Oracle: canonical units recomputed by brute force below; frozen here.
CANONICAL = {3: (2, -1), 5: (2, -2), 7: (3, -1), 11: (2, -1), 13: (2, -2)}


def brute_units(p):
    squares = {x * x % p for x in range(1, p)}
    u = min(r for r in range(2, p) if r not in squares)
    return u, (-1 if p % 4 == 3 else -u)


@pytest.mark.parametrize("p", PRIMES)
def test_canonical_units(p):
    ctx = canonical_units(p)
    assert (ctx.u, ctx.v) == CANONICAL[p] == brute_units(p)
    # v is a unit and not a square, for both congruence classes of p.
    assert valuation(F(ctx.v), p) == 0
    assert square_class(F(ctx.v), ctx) is not SquareClass.ONE


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 21, 91])
def test_bad_primes_rejected(bad):
    with pytest.raises(ValueError):
        canonical_units(bad)


def test_is_prime_spot():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_valuation_and_abs_examples():
    assert valuation(F(3), 3) == 1
    assert valuation(F(10, 9), 3) == -2
    assert valuation(F(0), 3) == math.inf
    assert abs_p(F(10, 9), 3) == 9
    assert abs_p(F(9, 10), 3) == F(1, 9)
    assert abs_p(F(0), 7) == 0


@settings(max_examples=150, deadline=None)
@given(st.integers(-300, 300), st.integers(1, 300), st.integers(-300, 300), st.integers(1, 300))
def test_valuation_laws(a, b, c, d):
    p = 3
    x, y = F(a, b), F(c, d)
    if x and y:
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)
    if x + y:
        # Strong triangle inequality, with equality off the diagonal.
        assert valuation(x + y, p) >= min(valuation(x, p), valuation(y, p))
        if x and y and valuation(x, p) != valuation(y, p):
            assert valuation(x + y, p) == min(valuation(x, p), valuation(y, p))


def test_square_class_examples():
    c3, c5 = canonical_units(3), canonical_units(5)
    assert square_class(F(3), c3) is SquareClass.P
    assert square_class(F(2), c3) is SquareClass.U
    assert square_class(F(10), c5) is SquareClass.UP
    assert square_class(F(1), c5) is SquareClass.ONE
    assert square_class(F(1, 10), c5) is SquareClass.UP
    with pytest.raises(ValueError):
        square_class(F(0), c3)


def test_square_class_group_law():
    e, u, p_, up = SquareClass.ONE, SquareClass.U, SquareClass.P, SquareClass.UP
    for g in (e, u, p_, up):
        assert g * e is g
        assert g * g is e
    assert u * p_ is up
    assert u * up is p_
    assert p_ * up is u


@pytest.mark.parametrize("p", PRIMES)
def test_square_class_multiplicative(p):
    ctx = canonical_units(p)
    rng = random.Random(100 + p)
    for _ in range(200):
        x, y = rand_rational(rng, p), rand_rational(rng, p)
        assert square_class(x * y, ctx) is square_class(x, ctx) * square_class(y, ctx)
        assert square_class(x * x, ctx) is SquareClass.ONE
        # Representatives classify themselves.
        rep = {SquareClass.ONE: F(1), SquareClass.U: F(ctx.u), SquareClass.P: F(p), SquareClass.UP: F(ctx.u * p)}
        for cls, r in rep.items():
            assert square_class(r, ctx) is cls


def test_unit_residue():
    assert unit_residue(F(10), 3) == 1
    assert unit_residue(F(1, 2), 3) == 2  # inverse of 2 mod 3
    assert unit_residue(F(18), 3) == 2


def test_from_rational_digit_examples():
    a = PadicApprox.from_rational(F(1, 2), 3, 3)
    assert (a.val, a.digits()) == (0, (2, 1, 1))
    b = PadicApprox.from_rational(F(-1), 3, 3)
    assert (b.val, b.digits()) == (0, (2, 2, 2))
    c = PadicApprox.from_rational(F(9), 3, 2)
    assert (c.val, c.digits()) == (2, (1, 0))
    z = PadicApprox.from_rational(F(0), 3, 5)
    assert z.is_zero


@pytest.mark.parametrize("p", (3, 5, 7))
def test_approx_arithmetic_matches_exact(p):
    ctx = canonical_units(p)
    rng = random.Random(7 * p)
    for _ in range(150):
        x, y = rand_rational(rng, p), rand_rational(rng, p)
        ax, ay = PadicApprox.from_rational(x, ctx.p, 12), PadicApprox.from_rational(y, ctx.p, 12)
        assert (ax * ay).congruent(x * y)
        assert (ax / ay).congruent(x / y)
        assert (ax + ay).congruent(x + y)
        assert (-ax).congruent(-x)
        assert (ax * ax).congruent(x * x)


def test_cancellation_digit_loss():
    a = PadicApprox.from_rational(F(244), 3, 8)  # 1 + 3**5
    b = PadicApprox.from_rational(F(1), 3, 8)
    d = a - b
    # Valuation jumps by 5, so 5 of the 8 known digits are gone.
    assert (d.val, d.mant, d.n) == (5, 1, 3)
    # Total cancellation collapses to the canonical zero.
    assert (PadicApprox.from_rational(F(1), 3, 4) - PadicApprox.from_rational(F(1 + 3**6), 3, 4)).is_zero


def fraction_from_rational(x, p, n):
    """PadicApprox.from_rational through Fraction and a valuation pass:
    the reference for the integer coercion."""
    x = F(x)
    if x == 0:
        return PadicApprox.zero(p)
    v = valuation(x, p)
    unit = x / F(p) ** v
    mod = p**n
    return PadicApprox(p=p, val=v, mant=unit.numerator * pow(unit.denominator, -1, mod) % mod, n=n)


def fraction_coerce(a, x):
    """PadicApprox._coerce of an exact x as it was built: a Fraction, its
    valuation, and as many digits as a's absolute precision leaves."""
    x = F(x)
    if x == 0:
        return PadicApprox.zero(a.p)
    digits = 1 if math.isinf(a.abs_known) else max(1, a.abs_known - valuation(x, a.p))
    return fraction_from_rational(x, a.p, digits)


@st.composite
def approx_at(draw, p):
    """The exact zero, a capped zero or a digit string of valuation -4..4."""
    kind = draw(st.sampled_from(["exact zero", "capped zero", "digits"]))
    if kind == "exact zero":
        return PadicApprox.zero(p)
    if kind == "capped zero":
        return PadicApprox.zero(p, draw(st.integers(-4, 6)))
    unit = F(draw(st.integers(1, 10**6)) * p + draw(st.integers(1, p - 1)), draw(st.integers(1, 50)) * p + 1)
    return PadicApprox.from_rational(unit * F(p) ** draw(st.integers(-4, 4)), p, draw(st.integers(1, 10)))


@st.composite
def approx_and_exact(draw):
    """(a, x): a is the exact zero, a capped zero or a digit string of
    valuation -4..4; x is an int, a bool or a Fraction with p in its
    numerator or denominator, of either sign, or 0, and sometimes close to
    a, so that both answers of congruent occur."""
    p = draw(st.sampled_from([3, 5, 13, 4294967311]))
    a = draw(approx_at(p))
    k = draw(st.integers(-6, 12))
    small = F(draw(st.integers(-10**4, 10**4)), draw(st.integers(1, 10**3))) * F(p) ** k
    x = draw(st.one_of(
        st.integers(-10**6, 10**6),
        st.booleans(),
        st.just(small),
        st.just(0 if a.is_zero else F(p) ** a.val * a.mant + small),
    ))
    return a, x


@settings(max_examples=600, deadline=None)
@given(approx_and_exact())
def test_integer_coercion_matches_the_fraction_path(ax):
    a, x = ax
    got, want = a._coerce(x), fraction_coerce(a, x)
    assert type(got) is PadicApprox
    assert (got.p, got.val, got.mant, got.n) == (want.p, want.val, want.mant, want.n)
    for n in (1, 3, 12):
        assert PadicApprox.from_rational(x, a.p, n) == fraction_from_rational(x, a.p, n)
    # congruent's integer check against the sum it replaces
    assert a.congruent(x) == (a + (-want)).is_zero


# The arithmetic as it was written on the frozen dataclass, field by field:
# the reference for the slotted kernel, which must give the same
# (p, val, mant, n) or raise the same exception.
def ref_operand(a, x):
    return x if isinstance(x, PadicApprox) else fraction_coerce(a, x)


def ref_compose(p, v, t, width):
    if width < 1:
        raise PrecisionExhausted("no digits remain")
    t %= p**width
    if t == 0:
        return PadicApprox.zero(p, v + width)
    j = valuation(t, p)
    return PadicApprox(p=p, val=v + j, mant=t // p**j, n=width - j)


def ref_add(a, x):
    b = ref_operand(a, x)
    if a.is_zero or b.is_zero:
        zero, y = (a, b) if a.is_zero else (b, a)
        if y.is_zero:
            return y if y.val <= zero.val else zero
        know = zero.val
        if know >= y.abs_known:
            return y
        if y.val >= know:
            return PadicApprox.zero(a.p, know)
        return PadicApprox(p=a.p, val=y.val, mant=y.mant % a.p ** (know - y.val), n=know - y.val)
    know = min(a.abs_known, b.abs_known)
    v = min(a.val, b.val)
    t = a.mant * a.p ** (a.val - v) + b.mant * a.p ** (b.val - v)
    return ref_compose(a.p, v, t, know - v)


def ref_neg(a):
    if a.is_zero:
        return a
    return PadicApprox(p=a.p, val=a.val, mant=a.p**a.n - a.mant, n=a.n)


def ref_mul(a, x):
    b = ref_operand(a, x)
    if a.is_zero or b.is_zero:
        return PadicApprox.zero(a.p, a.val + b.val)
    n = min(a.n, b.n)
    return PadicApprox(p=a.p, val=a.val + b.val, mant=a.mant * b.mant % a.p**n, n=n)


def ref_truediv(a, x):
    b = ref_operand(a, x)
    if b.is_zero:
        raise ZeroDivisionError("division by p-adic zero")
    if a.is_zero:
        return PadicApprox.zero(a.p, a.val - b.val)
    n = min(a.n, b.n)
    mod = a.p**n
    return PadicApprox(p=a.p, val=a.val - b.val, mant=a.mant * pow(b.mant, -1, mod) % mod, n=n)


def ref_scaled(a, f):
    f = F(f)
    if f == 0:
        return PadicApprox.zero(a.p)
    vf = valuation(f, a.p)
    if a.is_zero:
        return PadicApprox.zero(a.p, a.val + vf)
    unit = f / F(a.p) ** vf
    mod = a.p**a.n
    return PadicApprox(p=a.p, val=a.val + vf, mant=a.mant * unit.numerator * pow(unit.denominator, -1, mod) % mod, n=a.n)


def outcome(f):
    """(p, val, mant, n) of f(), the bool it returned, or the type of what
    it raised."""
    try:
        r = f()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    if isinstance(r, bool):
        return r
    assert type(r) is PadicApprox
    return r.p, r.val, r.mant, r.n


@st.composite
def approx_operands(draw):
    """(a, b): b is exact as in approx_and_exact, or a capped operand of
    a's prime drawn the same way as a."""
    a, x = draw(approx_and_exact())
    return a, x if draw(st.booleans()) else draw(approx_at(a.p))


@settings(max_examples=600, deadline=None)
@given(approx_operands())
def test_arithmetic_matches_the_reference_formulas(ab):
    a, b = ab
    exact = not isinstance(b, PadicApprox)
    cases = [
        (lambda: a + b, lambda: ref_add(a, b)),
        (lambda: b + a, lambda: ref_add(a, b) if exact else ref_add(b, a)),
        (lambda: a - b, lambda: ref_add(a, ref_neg(ref_operand(a, b)))),
        (lambda: b - a, lambda: ref_add(ref_neg(a), b) if exact else ref_add(b, ref_neg(a))),
        (lambda: a * b, lambda: ref_mul(a, b)),
        (lambda: b * a, lambda: ref_mul(a, b) if exact else ref_mul(b, a)),
        (lambda: a / b, lambda: ref_truediv(a, b)),
        (lambda: b / a, lambda: ref_truediv(ref_operand(a, b), a)),
        (lambda: -a, lambda: ref_neg(a)),
        (lambda: a.congruent(b), lambda: ref_add(a, ref_neg(ref_operand(a, b))).is_zero),
    ]
    if exact:
        cases.append((lambda: a.scaled(b), lambda: ref_scaled(a, b)))
    for got, want in cases:
        assert outcome(got) == outcome(want)


def test_approx_is_an_immutable_value():
    a = PadicApprox(p=5, val=-2, mant=7, n=3)
    b = PadicApprox(5, -2, 7, 3)
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, PadicApprox.zero(5), PadicApprox.zero(5)}) == 2
    for other in (PadicApprox(5, -1, 7, 3), PadicApprox(5, -2, 8, 3), PadicApprox(5, -2, 7, 4), PadicApprox(7, -2, 9, 3)):
        assert a != other
    # never equal to its fields, nor to the number it approximates
    assert a != (5, -2, 7, 3) and (5, -2, 7, 3) != a
    assert PadicApprox.zero(3) != 0 and PadicApprox(3, 0, 1, 1) != 1
    for name in ("p", "val", "mant", "n", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.p, a.val, a.mant, a.n) == (5, -2, 7, 3)
    assert not hasattr(a, "__dict__")
    for x in (a, PadicApprox.zero(5), PadicApprox.zero(5, 4)):
        for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(back) is PadicApprox and back == x and hash(back) == hash(x)
            assert (back.p, back.val, back.mant, back.n) == (x.p, x.val, x.mant, x.n)
    assert repr(a) == "PadicApprox(5^-2 * [2,1,0])"


@pytest.mark.parametrize(
    "fields, message",
    [
        ((3, 0, 0, 2), "zero approx must have n == 0"),
        ((3, 0, 1, 0), "mantissa out of range"),
        ((3, 0, 9, 2), "mantissa out of range"),
        ((3, 0, -1, 2), "mantissa out of range"),
        ((3, 0, 6, 2), "mantissa must be a unit"),
    ],
)
def test_approx_construction_is_checked(fields, message):
    with pytest.raises(ValueError, match=message):
        PadicApprox(*fields)
    p, val, mant, n = fields
    with pytest.raises(ValueError, match=message):
        PadicApprox(p=p, val=val, mant=mant, n=n)


def test_coercion_against_the_exact_zero_keeps_one_digit():
    # the FOUND case: the exact zero has infinite absolute precision, and
    # an exact operand gets one digit against it
    assert PadicApprox.zero(3) + F(2, 5) == PadicApprox(p=3, val=0, mant=1, n=1)
    assert PadicApprox.zero(3, 4)._coerce(F(2, 45)) == PadicApprox.from_rational(F(2, 45), 3, 6)


def test_approx_mixed_operand_and_validation():
    a = PadicApprox.from_rational(F(1, 2), 3, 6)
    assert (a + F(1, 2)).congruent(F(1))
    assert (F(2) * a).congruent(F(1))
    assert (1 / a).congruent(F(2))
    with pytest.raises(ValueError):
        PadicApprox(p=3, val=0, mant=6, n=2)  # non-unit mantissa
    with pytest.raises(ValueError):
        PadicApprox(p=3, val=0, mant=9, n=2)  # out of range
    with pytest.raises(ZeroDivisionError):
        a / PadicApprox.zero(3)


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(-4)) is None
    assert rational_sqrt(F(0)) == 0
    rng = random.Random(11)
    for _ in range(100):
        x = F(rng.randint(-60, 60), rng.randint(1, 60))
        assert rational_sqrt(x * x) == abs(x)


def test_hensel_sqrt_frozen_examples():
    c3 = canonical_units(3)
    r = hensel_sqrt(F(4), c3, 4)
    # Canonical branch of sqrt(4) in Z_3 is -2, with digits 1,2,2,2.
    assert (r.val, r.digits()) == (0, (1, 2, 2, 2))
    assert r.congruent(F(-2))
    r7 = hensel_sqrt(F(7), c3, 2)
    assert (r7.val, r7.mant) == (0, 4)  # 4**2 = 16 = 7 (mod 9)
    assert hensel_sqrt(F(0), c3, 5).is_zero
    with pytest.raises(PrecisionExhausted):
        hensel_sqrt(F(7), c3, 0)


@pytest.mark.parametrize("p", PRIMES)
def test_hensel_sqrt_properties(p):
    ctx = canonical_units(p)
    rng = random.Random(500 + p)
    n = 10
    for _ in range(60):
        x = rand_rational(rng, p, vmin=-2, vmax=2)
        a = x * x
        r = hensel_sqrt(a, ctx, n)
        # Root squares back to a through the full stated precision.
        assert (r * r).congruent(a)
        assert r.digits()[0] <= (p - 1) // 2  # canonical branch
        v = valuation(a, p)
        assert r.val == v // 2
        # The approx input path agrees with the exact path.
        r2 = hensel_sqrt(PadicApprox.from_rational(a, ctx.p, n), ctx, n)
        assert r2 == r


def test_hensel_sqrt_rejects_nonsquares():
    c3 = canonical_units(3)
    with pytest.raises(SquareClassError) as err:
        hensel_sqrt(F(2), c3, 4)
    assert err.value.square_class is SquareClass.U
    with pytest.raises(SquareClassError) as err:
        hensel_sqrt(F(3), c3, 4)
    assert err.value.square_class is SquareClass.P


def test_infinity_singleton():
    assert Infinity() is INF
    assert repr(INF) == "inf"
    assert values_agree(INF, INF)
    assert not values_agree(INF, F(1))


def test_values_agree():
    assert values_agree(F(1, 2), F(1, 2))
    assert not values_agree(F(1, 2), F(1, 3))
    a = PadicApprox.from_rational(F(5), 3, 4)
    assert values_agree(a, F(5))
    assert values_agree(F(5), a)
    assert not values_agree(a, F(6))
    assert values_agree(a, F(5 + 3**4))  # differs beyond known digits


@pytest.mark.parametrize("p", PRIMES)
def test_scaled_keeps_relative_digits(p):
    rng = random.Random(707 + p)
    for _ in range(60):
        x, f = rand_rational(rng, p), rand_rational(rng, p)
        a = PadicApprox.from_rational(x, p, 12)
        got = a.scaled(f)
        assert got == PadicApprox.from_rational(x * f, p, 12)
        assert (got - a * f).is_zero
    # the rounded product loses a digit per power of p in the factor
    a = PadicApprox.from_rational(F(2, 5), 3, 16)
    assert (a * 9).n == 14 and a.scaled(9).n == 16
    assert a.scaled(F(1, 9)).n == 16 and a.scaled(F(1, 9)).val == -2
    assert a.scaled(0) == PadicApprox.zero(3)
    assert PadicApprox.zero(3, 5).scaled(F(9, 2)) == PadicApprox.zero(3, 7)


@pytest.mark.parametrize("p", PRIMES)
def test_axis_table(p):
    ctx = canonical_units(p)
    assert tuple(ctx.AXES) == ("z", "y", "x")
    assert (ctx.axis_d("z"), ctx.axis_d("y"), ctx.axis_d("x")) == (-ctx.v, p, F(-p, ctx.v))
    assert (ctx.d_z, ctx.d_y, ctx.d_x) == tuple(ctx.so2_catalog()[k] for k in ctx.AXES.values())
    with pytest.raises(ValueError, match="axis must be z, y or x"):
        ctx.axis_d("w")


def test_strong_pseudoprime_to_the_first_twelve_primes():
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441
    assert not is_prime(n)
    with pytest.raises(ValueError, match="odd prime"):
        canonical_units(n)


@pytest.mark.parametrize("p", [3317044064679887385961981, 3317044064679887385961982, 2**89 - 1])
def test_no_context_where_the_primality_test_is_no_proof(p):
    with pytest.raises(ValueError, match="no proof"):
        canonical_units(p)
