"""Literal grammars: numbers, angles, matrices, quaternions, regions."""

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so3p.errors import RegionError
from so3p.formats import (
    format_angles,
    format_matrix_json,
    format_number,
    format_rational,
    format_region,
    matrix_from_obj,
    matrix_rows,
    parse_angles,
    parse_matrix_json,
    parse_number,
    parse_quat,
    parse_rational,
    parse_region,
)
from so3p.haar import BallQp, RegionQp, ShellQp
from so3p.linalg import Mat
from so3p.padic import INF, PadicApprox, canonical_units, hensel_sqrt, values_agree


class TestNumbers:
    def test_rational_forms(self):
        assert parse_rational("7") == 7
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational(" 5/10 ") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["", "a", "1.5", "1/2/3", "2^3", "1e4"])
    def test_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_rational_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")

    def test_format_rational(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-1, 9)) == "-1/9"

    def test_inf_token(self):
        assert parse_number("inf") is INF
        assert format_number(INF) == "inf"

    def test_padic_literal_roundtrip(self):
        x = parse_number("3^-1 * [2,1,0]", 3)
        assert isinstance(x, PadicApprox)
        assert (x.p, x.val, x.mant, x.n) == (3, -1, 5, 3)
        assert format_number(x) == "3^-1 * [2,1,0]"

    def test_padic_literal_matches_hensel_output(self):
        # a value the decomposition itself could emit
        root = hensel_sqrt(Fraction(7), canonical_units(3), 6)
        again = parse_number(format_number(root), 3)
        assert again.congruent(root)

    @pytest.mark.parametrize(
        "bad",
        [
            "3^0 * []",
            "3^0 * [0,1]",
            "3^0 * [3]",
            "3^0 * [-1]",
            "3^x * [1]",
        ],
    )
    def test_padic_literal_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_number(bad, 3)

    def test_padic_literal_prime_mismatch(self):
        with pytest.raises(ValueError):
            parse_number("5^0 * [1]", 3)
        assert parse_number("5^0 * [1]").mant == 1

    def test_format_knowledge_bounded_zero(self):
        z = PadicApprox.zero(3, 4)
        assert format_number(z) == "0 + O(3^4)"
        assert format_number(PadicApprox.zero(3)) == "0"


class TestAngles:
    def test_triple(self):
        a = parse_angles("1/2,-3,inf", 5)
        assert a.alpha == Fraction(1, 2)
        assert a.beta == -3
        assert a.gamma is INF
        assert format_angles(a) == "1/2,-3,inf"

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_angles("1,2", 5)
        with pytest.raises(ValueError):
            parse_angles("1,2,3,4", 5)


class TestMatrices:
    def test_roundtrip(self):
        m = Mat([[Fraction(0), Fraction(1)], [Fraction(-1, 3), Fraction(0)]])
        text = format_matrix_json(m)
        assert json.loads(text) == [["0", "1"], ["-1/3", "0"]]
        assert parse_matrix_json(text) == m

    def test_integer_entries_accepted(self):
        m = parse_matrix_json("[[1, 0], [0, 1]]")
        assert m == Mat.identity(2)

    @pytest.mark.parametrize(
        "bad",
        ["[[1,2],[3]]", "[]", "[1,2]", "{}", "[[1.5,0],[0,1]]", "not json"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_matrix_json(bad)

    def test_rows_are_strings(self):
        rows = matrix_rows(Mat.identity(2))
        assert rows == [["1", "0"], ["0", "1"]]


class TestQuaternions:
    def test_full_literal(self):
        ctx = canonical_units(3)
        q = parse_quat("1/2 + 2 i + -3 j + 4/5 k", ctx)
        assert q.coords == (Fraction(1, 2), 2, -3, Fraction(4, 5))
        q2 = parse_quat("1/2 + 2 i - 3 j + 4/5 k", ctx)
        assert q2.coords == q.coords

    def test_partial_and_bare_units(self):
        ctx = canonical_units(5)
        assert parse_quat("7", ctx).coords == (7, 0, 0, 0)
        assert parse_quat("i + k", ctx).coords == (0, 1, 0, 1)
        assert parse_quat("-j", ctx).coords == (0, 0, -1, 0)
        assert parse_quat("0 + -1/2 i + 3 j + 0 k", ctx).coords == (0, Fraction(-1, 2), 3, 0)

    @pytest.mark.parametrize("bad", ["", "1 +", "2 i + 3 i", "x", "1 2"])
    def test_rejects(self, bad):
        ctx = canonical_units(3)
        with pytest.raises(ValueError):
            parse_quat(bad, ctx)


class TestRegions:
    def test_union_literal(self):
        r = parse_region("zp,ball:1/25,-1,shell:3,tail:4", 5)
        assert r.include_zp
        assert r.balls == (BallQp(Fraction(1, 25), -1),)
        assert r.shells == (ShellQp(3),)
        assert r.tail_from == 4
        assert parse_region(format_region(r), 5) == r

    def test_plain_pieces(self):
        assert parse_region("zp", 3) == RegionQp.zp(3)
        assert parse_region("shell:1", 3) == RegionQp.shell(3, 1)
        assert parse_region("tail:2", 3) == RegionQp.tail(3, 2)
        assert parse_region("ball:2,1", 3) == RegionQp.ball(3, 2, 1)

    @pytest.mark.parametrize(
        "bad",
        [
            "ball:1",
            "ball:1,x",
            "shell:0",
            "shell:",
            "moon",
            "zp,zp",
            "tail:1,tail:2",
            "",
        ],
    )
    def test_malformed_raises_region_error(self, bad):
        with pytest.raises(RegionError):
            parse_region(bad, 3)

    def test_overlap_raises_region_error(self):
        with pytest.raises(RegionError):
            parse_region("zp,ball:0,2", 3)

    def test_empty_region_has_no_literal(self):
        with pytest.raises(RegionError):
            format_region(RegionQp(3))


PRIMES = (3, 5, 7, 11, 13)


@st.composite
def angle_entries(draw, p):
    kind = draw(st.sampled_from(("rational", "inf", "padic")))
    if kind == "inf":
        return INF
    if kind == "rational":
        return Fraction(draw(st.integers(-(10**6), 10**6)), draw(st.integers(1, 10**6)))
    n = draw(st.integers(1, 12))
    mant = draw(st.integers(1, p**n - 1).filter(lambda m: m % p))
    return PadicApprox(p=p, val=draw(st.integers(-8, 8)), mant=mant, n=n)


@st.composite
def angle_triples(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, tuple(draw(angle_entries(p)) for _ in range(3))


class TestAngleRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(angle_triples())
    def test_format_then_parse_is_identity(self, case):
        p, triple = case
        assert tuple(parse_angles(format_angles(triple), p)) == triple

    def test_digit_lists_keep_their_commas(self):
        text = "3^0 * [2,0,2],3^-1 * [1, 2],inf"
        a = parse_angles(text, 3)
        assert (a.alpha.mant, a.alpha.n) == (20, 3)
        assert (a.beta.val, a.beta.mant) == (-1, 7)
        assert a.gamma is INF
        with pytest.raises(ValueError):
            parse_angles("3^0 * [2,0,2],1", 3)


class TestBoundaryLiterals:
    @pytest.mark.parametrize("flag", [True, False])
    def test_json_booleans_are_no_entries(self, flag):
        with pytest.raises(ValueError, match="bool"):
            matrix_from_obj([[flag, 0], [0, 1]], 5)
        with pytest.raises(ValueError, match="bool"):
            parse_matrix_json(json.dumps([[1, 0], [0, flag]]))

    def test_capped_zero_literal(self):
        assert parse_number("0 + O(7^3)", 7) == PadicApprox.zero(7, 3)
        assert parse_number(" 0+O(3^-2) ") == PadicApprox.zero(3, -2)
        with pytest.raises(ValueError):
            parse_number("0 + O(5^3)", 7)
        with pytest.raises(ValueError):
            parse_number("1 + O(7^3)", 7)


@st.composite
def numbers(draw):
    p = draw(st.sampled_from(PRIMES))
    kind = draw(st.sampled_from(("entry", "capped zero", "exact zero")))
    if kind == "capped zero":
        return p, PadicApprox.zero(p, draw(st.integers(-8, 8)))
    if kind == "exact zero":
        return p, PadicApprox.zero(p)
    return p, draw(angle_entries(p))


class TestNumberRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(numbers())
    def test_format_then_parse(self, case):
        p, x = case
        back = parse_number(format_number(x), p)
        if x == PadicApprox.zero(p):
            # the exact zero prints as the rational 0
            assert back == 0 and values_agree(back, x)
        else:
            assert back == x


@st.composite
def integer_form_matrices(draw):
    """Integer rows N (negative, zero and integer entries included) over a
    denominator D >= 1, optionally sharing a factor with every entry."""
    n = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 1, 2, 9, 25, 49 * 13])) * draw(st.integers(1, 40))
    small = st.integers(-60, 60) | st.integers(-(10**40), 10**40)
    num = [[draw(small) for _ in range(n)] for _ in range(n)]
    common = draw(st.integers(1, 12))
    return [[e * common for e in r] for r in num], den * common


class TestMatrixRowsFromIntegers:
    @settings(max_examples=300, deadline=None)
    @given(integer_form_matrices())
    def test_matches_entrywise_format(self, case):
        num, den = case
        built = Mat.from_numerators(num, den)
        fresh = Mat(tuple(tuple(Fraction(e, den) for e in r) for r in num))
        expected = [[format_number(e) for e in row] for row in fresh.rows]
        assert matrix_rows(built) == expected
        assert matrix_rows(fresh) == expected
        assert format_matrix_json(built) == json.dumps(expected)

    def test_capped_entries_format_one_by_one(self):
        x = PadicApprox.from_rational(Fraction(2, 5), 3, 6)
        m = Mat(((x, Fraction(-4, 6)), (PadicApprox.zero(3, 4), Fraction(7))))
        assert m.integer_form() is None
        assert matrix_rows(m) == [[format_number(x), "-2/3"], ["0 + O(3^4)", "7"]]


@st.composite
def regions(draw):
    """A non-empty disjoint region: pieces are added while they stay disjoint."""
    p = draw(st.sampled_from(PRIMES))
    center = st.builds(
        lambda n, m, j: Fraction(n, m) * Fraction(p) ** j,
        st.integers(-(p**3), p**3),
        st.integers(1, 20).filter(lambda m: m % p),
        st.integers(-4, 4),
    )
    pieces = st.one_of(
        st.tuples(st.just("balls"), st.builds(BallQp, center, st.integers(-3, 4))),
        st.tuples(st.just("shells"), st.builds(ShellQp, st.integers(1, 5))),
        st.tuples(st.just("include_zp"), st.just(True)),
        st.tuples(st.just("tail_from"), st.integers(1, 5)),
    )
    region = RegionQp(p)
    for name, value in draw(st.lists(pieces, min_size=1, max_size=8)):
        if name in ("balls", "shells"):
            value = getattr(region, name) + (value,)
        try:
            region = dataclasses.replace(region, **{name: value})
        except RegionError:
            pass
    return region


class TestRegionRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(regions())
    def test_format_then_parse_is_identity(self, region):
        assert parse_region(format_region(region), region.p) == region
