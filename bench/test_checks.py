"""Tests of the benchmark's own output checks.

Each test takes a genuine so3p output, shows that its check passes, then
corrupts the output and shows that the check fails.  Run from the root of
the checkout:

    python3 -m pytest -q bench/test_checks.py
"""

import json
import math
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import so3p  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def _sample_output(p=7, precision=16, seed=5):
    code, text = workloads.run_cli(["haar", "sample", "--prime", p, "--count", 8, "--seed", seed,
                                    "--precision", precision, "--matrices", "--format", "json"])
    assert code == 0
    return text


def _decompose_case(p=7, precision=16, seed=3):
    inp = workloads.Decompose()._input(random.Random(seed), p, precision)
    out = workloads.Decompose().op(inp)
    assert out is not None
    return inp, out


# -- the reference agrees with so3p on genuine inputs --------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_reference_matches_so3p(p):
    ctx = so3p.canonical_units(p)
    rng = random.Random(p)
    for _ in range(10):
        x, y = workloads._quat(rng, ctx), workloads._quat(rng, ctx)
        assert ref.quat_mul(p, x.coords, y.coords) == (x * y).coords
        assert ref.nrd(p, x.coords) == x.nrd()
        angles = (workloads._rational(rng, p, -2, 2), workloads._rational(rng, p, 0, 2), None)
        rot = so3p.cardano_matrix(ctx, [so3p.INF if a is None else a for a in angles])
        m = ref.cardano(p, angles)
        assert m == [list(r) for r in rot.mat.rows]
        assert ref.is_rotation(p, m)
    assert ref.catalog(p) == ctx.so2_catalog()


def test_reference_rejects_non_rotations():
    m = ref.cardano(5, (Fraction(1), Fraction(2), Fraction(3)))
    assert ref.is_rotation(5, m)
    assert not ref.is_rotation(5, [[-e for e in r] for r in m])  # det -1
    m[0][1] += Fraction(1, 5)
    assert not ref.is_rotation(5, m)


def test_read_number():
    assert ref.read_number("7^-1 * [3,0,2]", 7) == (Fraction(3 + 2 * 49, 7), 3)
    assert ref.read_number("5/49", 7) == (Fraction(5, 49), math.inf)
    assert ref.read_number("inf", 7) == (None, math.inf)
    assert ref.read_number("0 + O(7^3)", 7) == (0, 3)
    for bad in ("7^0 * [0,1]", "7^0 * [7]", "5^0 * [1]", "1.5"):
        with pytest.raises(ValueError):
            ref.read_number(bad, 7)


# -- sample -----------------------------------------------------------------


def test_sample_entry_off_by_one_over_p():
    text = _sample_output()
    checks.check_sample(7, 16, 8, text)
    data = json.loads(text)
    entry = data["samples"][3]["matrix"][1][2]
    data["samples"][3]["matrix"][1][2] = str(Fraction(entry) + Fraction(1, 7))
    with pytest.raises(CheckError):
        checks.check_sample(7, 16, 8, json.dumps(data))


def test_sample_entry_changed_keeping_a_unit_denominator():
    data = json.loads(_sample_output())
    entry = data["samples"][0]["matrix"][0][0]
    data["samples"][0]["matrix"][0][0] = str(Fraction(entry) + 7)
    with pytest.raises(CheckError, match="Cardano product"):
        checks.check_sample(7, 16, 8, json.dumps(data))


def test_sample_angle_with_too_many_digits():
    text = _sample_output(precision=8)
    checks.check_sample(7, 8, 8, text)
    with pytest.raises(CheckError, match="digits"):
        checks.check_sample(7, 7, 8, text)


def _exact_counts(p, n, skew=Fraction(0)):
    """Counts of n draws per axis that follow the exact piece law, with
    `skew` of the mass moved from the shells to Z_p."""
    counts = {}
    for axis, d in ref.axis_d(p).items():
        law = ref.piece_probabilities(p, d, checks.PIECE_DEPTH)
        law = [law[0] + skew, law[1] - skew] + law[2:]
        counts[(p, axis)] = [round(n * q) for q in law]
    return counts


@pytest.mark.parametrize("p", [3, 7, 13])
def test_piece_law(p):
    checks.check_pieces(_exact_counts(p, 4000))
    with pytest.raises(CheckError, match="piece 0"):
        checks.check_pieces(_exact_counts(p, 4000, skew=Fraction(1, 20)))


def test_piece_counts_from_sampled_angles():
    counts = {}
    checks.piece_counts(3, [(Fraction(1), Fraction(2, 3), Fraction(5, 27))], counts)
    assert counts == {(3, "z"): [1, 0, 0], (3, "y"): [0, 1, 0], (3, "x"): [0, 0, 1]}


# -- iso ----------------------------------------------------------------------


def _iso_case(p=5, seed=2):
    wl = workloads.Iso()
    inp = [i for i in wl.round(random.Random(seed)) if i[0].p == p][0]
    return wl, inp, wl.op(inp)


def test_iso_passes_on_genuine_outputs():
    wl, inp, out = _iso_case()
    wl.check(inp, out)


def test_iso_swapped_factor_order():
    wl, inp, out = _iso_case()
    ctx, x, y, _ = inp
    assert (y * x).coords != (x * y).coords
    with pytest.raises(CheckError, match="Quat product"):
        wl.check(inp, (y * x,) + out[1:])


def test_iso_wrong_decomposition():
    wl, inp, out = _iso_case()
    dec = out[-1]
    wrong = so3p.Angles(dec.alpha + 1, dec.beta, dec.gamma)
    with pytest.raises(CheckError, match="decompose_cardano"):
        wl.check(inp, out[:-1] + (wrong,))


def test_iso_rotation_to_quat_not_proportional():
    wl, inp, out = _iso_case()
    qx = out[5]
    bent = so3p.Quat(qx.ctx, qx.q0, qx.q1 + 1, qx.q2, qx.q3)
    with pytest.raises(CheckError, match="multiple of x"):
        wl.check(inp, out[:5] + (bent,) + out[6:])


# -- decompose ----------------------------------------------------------------


def _edit_angle(out, slot, edit):
    data = json.loads(out)
    data["angles"][slot] = edit(data["angles"][slot])
    return json.dumps(data)


def _digits(literal):
    head, body = literal.split("[")
    return head, body.rstrip("]").split(",")


def test_decompose_passes_on_genuine_outputs():
    for p in (3, 13):
        for prec in (16, 32):
            (p_, prec_, _, matrix), out = _decompose_case(p, prec)
            assert checks.check_decompose(p, prec, matrix, out)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_decompose_changed_digit(slot):
    (p, prec, _, matrix), out = _decompose_case()

    def change(literal):
        head, ds = _digits(literal)
        ds[1] = str((int(ds[1]) + 1) % p)
        return head + "[" + ",".join(ds) + "]"

    with pytest.raises(CheckError, match="rebuild"):
        checks.check_decompose(p, prec, matrix, _edit_angle(out, slot, change))


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_decompose_dropped_digit(slot):
    (p, prec, _, matrix), out = _decompose_case()

    def drop(literal):
        head, ds = _digits(literal)
        # drop a digit whose neighbour differs, so the value really changes
        i = next(i for i in range(1, len(ds) - 1) if ds[i] != ds[i + 1])
        return head + "[" + ",".join(ds[:i] + ds[i + 1:]) + "]"

    with pytest.raises(CheckError, match="rebuild"):
        checks.check_decompose(p, prec, matrix, _edit_angle(out, slot, drop))


def test_decompose_beta_outside_zp():
    (p, prec, _, matrix), out = _decompose_case()
    outside = _edit_angle(out, 1, lambda t: f"{p}^-1 * [" + t.split("[")[1])
    with pytest.raises(CheckError, match="not in Z_p"):
        checks.check_decompose(p, prec, matrix, outside)


def test_decompose_more_digits_than_requested():
    (p, prec, _, matrix), out = _decompose_case()
    with pytest.raises(CheckError, match="digits"):
        checks.check_decompose(p, 4, matrix, out)


# -- integrate ----------------------------------------------------------------


def _integrate_ops(p=7, seed=4):
    wl = workloads.Integrate()
    ops = wl._prime_ops(random.Random(seed), p)
    return wl, [(inp, wl.op(inp)) for inp in ops]


def test_integrate_passes_on_genuine_outputs():
    wl, cases = _integrate_ops()
    assert {inp[0] for inp, _ in cases} == {"box", "translate", "complement", "step"}
    for inp, out in cases:
        wl.check(inp, out)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_integrate_mass_off_by_p_to_minus_k(k):
    wl, cases = _integrate_ops()
    off = Fraction(1, 7**k)
    for inp, (built, integrated, result) in cases:
        if inp[0] in ("box", "step"):
            bad = result + off
        else:
            bad = [result[0], result[1] + off]
        with pytest.raises(CheckError):
            wl.check(inp, (built, integrated, bad))
