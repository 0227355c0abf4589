"""Output checks of the benchmark, built on the Fraction reference.

Each check takes what so3p returned or printed and raises CheckError when
it is wrong.  The checks read printed output with the reference's own
literal reader, never with so3p's parsers, and compare against reference
computations or against properties of the method (invariance, exact
totals) that hold for every input.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import reference as ref

# A sampled piece frequency f over N draws passes when
# |f - q| <= PIECE_SIGMAS * sqrt(q (1 - q) / N), q its exact probability;
# with 27 such tests per run
# a correct sampler fails one with probability about 1.5e-5.
PIECE_SIGMAS = 5
PIECE_DEPTH = 2  # buckets: Z_p, shell 1, shells >= 2


class CheckError(AssertionError):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def rows_of(data) -> list:
    """A printed matrix (rows of rational strings) as rows of Fractions."""
    require(isinstance(data, list) and len(data) == 3, "matrix needs three rows")
    out = []
    for row in data:
        require(isinstance(row, list) and len(row) == 3, "matrix rows need three entries")
        out.append([Fraction(e) for e in row])
    return out


def digit_count(x: Fraction, p: int) -> int:
    """Base-p digits of a sampled angle: x = n / p^k with 0 <= n, n integer."""
    k = max(0, -ref.valuation(x, p)) if x else 0
    n = x * p**k
    require(n.denominator == 1 and n >= 0, f"angle {x} is not n / p^k with n >= 0")
    n, count = int(n), 0
    while n:
        n, count = n // p, count + 1
    return count


# -- sample -------------------------------------------------------------------


def check_sample(p: int, precision: int, count: int, text: str) -> list:
    """`haar sample --matrices --format json` output; returns the angle triples.

    Every matrix equals the reference Cardano product of its printed
    angles, every entry has a denominator prime to p, and every angle has
    at most `precision` base-p digits.
    """
    data = json.loads(text)
    require(data.get("schema") == 1, "schema must be 1")
    samples = data["samples"]
    require(len(samples) == count, f"expected {count} samples, got {len(samples)}")
    triples = []
    for s in samples:
        angles = [Fraction(a) for a in s["angles"]]
        require(len(angles) == 3, "an angle triple needs three entries")
        for a in angles:
            require(digit_count(a, p) <= precision, f"angle {a} has more than {precision} digits")
        m = rows_of(s["matrix"])
        require(all(e.denominator % p for r in m for e in r), "entry with p in its denominator")
        require(m == ref.cardano(p, angles), f"matrix differs from the Cardano product of {angles}")
        triples.append(angles)
    return triples


def piece_counts(p: int, triples, counts: dict) -> None:
    """Add the pieces of each axis parameter to counts[(p, axis)]."""
    for triple in triples:
        for axis, a in zip("zyx", triple):
            bucket = min(ref.piece(a, p), PIECE_DEPTH)
            tally = counts.setdefault((p, axis), [0] * (PIECE_DEPTH + 1))
            tally[bucket] += 1


def check_pieces(counts: dict) -> None:
    """Sampled piece frequencies against the exact law of each axis."""
    for (p, axis), tally in sorted(counts.items()):
        n = sum(tally)
        law = ref.piece_probabilities(p, ref.axis_d(p)[axis], PIECE_DEPTH)
        for k, (c, prob) in enumerate(zip(tally, law)):
            sigma = math.sqrt(prob * (1 - prob) / n)
            dev = abs(c / n - prob)
            require(
                dev <= PIECE_SIGMAS * sigma,
                f"p={p} axis {axis} piece {k}: frequency {c}/{n}, law {prob}",
            )


# -- iso ----------------------------------------------------------------------


def check_iso(p: int, x, y, xy, rx, ry, rxy, rprod, qx, angles, ra, rqa, dec) -> None:
    """The isomorphism and the chart on one op's outputs.

    x, y, xy, qx are quaternion coordinate tuples; rx .. rqa are matrices as
    rows of Fractions, rqa being quat_to_rotation(angles_to_quat(a)); dec
    is decompose_cardano(ra) as a triple.
    """
    require(tuple(xy) == ref.quat_mul(p, x, y), "Quat product differs from the reference")
    require(ref.nrd(p, xy) == ref.nrd(p, x) * ref.nrd(p, y), "nrd is not multiplicative")
    require(rxy == rprod, "quat_to_rotation(xy) != quat_to_rotation(x) quat_to_rotation(y)")
    require(ref.is_rotation(p, rxy), "quat_to_rotation(xy) is not a rotation")
    require(_proportional(qx, x), "rotation_to_quat(quat_to_rotation(x)) is not a multiple of x")
    require(ra == ref.cardano(p, angles), "cardano_matrix differs from the reference")
    require(ra == rqa, "cardano_matrix(a) != quat_to_rotation(angles_to_quat(a))")
    require(tuple(dec) == tuple(angles), f"decompose_cardano gave {dec}, not {angles}")


def _proportional(a, b) -> bool:
    pivot = next((i for i, c in enumerate(b) if c), None)
    if pivot is None or not a[pivot]:
        return False
    lam = Fraction(a[pivot]) / b[pivot]
    return all(u == lam * w for u, w in zip(a, b))


# -- decompose ----------------------------------------------------------------


def check_decompose(p: int, precision: int, matrix, text: str) -> bool:
    """`decompose --format json` output against the input matrix.

    The returned beta lies in Z_p.  Each digit literal carries at most
    `precision` digits, and with m the fewest significant digits any of
    them carries, the reference Cardano product of the printed digits
    agrees with the input modulo p^m (exactly when every angle is exact).
    An angle known to n significant digits fixes its block modulo p^n on
    every axis, and the blocks have entries in Z_p, which is why m is the
    fewest digits and not the requested precision: the extraction loses
    digits to cancellation.  Returns True when the answer came from digit
    literals, the Hensel path.
    """
    data = json.loads(text)
    require(data.get("schema") == 1, "schema must be 1")
    printed = data["angles"]
    require(len(printed) == 3, "an angle triple needs three entries")
    read = [ref.read_number(t, p) for t in printed]
    beta, _ = read[1]
    require(beta is not None and ref.valuation(beta, p) >= 0, f"beta {printed[1]} is not in Z_p")
    m = min(n for _, n in read)
    require(all(n <= precision for _, n in read if n != math.inf), f"more than {precision} digits")
    require(m >= 1, "no digit of the answer is known")
    rebuilt = ref.cardano(p, [value for value, _ in read])
    if m == math.inf:
        require(rebuilt == matrix, "exact angles do not rebuild the matrix")
        return False
    require(ref.agree_mod(rebuilt, matrix, p, m), f"angles do not rebuild the matrix mod {p}^{m}")
    return True


# -- integrate ----------------------------------------------------------------


def check_box(p: int, levels, mass: Fraction) -> None:
    """A normalized box of balls inside Z_p: product of p^-k over the total."""
    d = ref.axis_d(p)
    expect = Fraction(1)
    for axis, k in zip("zyx", levels):
        expect *= ref.ball_mass(p, k) / ref.axis_total(p, d[axis])
    require(mass == expect, f"box mass {mass}, expected {expect}")


def check_translation(mass_ball: Fraction, mass_image: Fraction) -> None:
    require(mass_image == mass_ball, f"translated mass {mass_image} != {mass_ball}")


def check_complement(p: int, d: Fraction, mass_ball: Fraction, mass_rest: Fraction) -> None:
    total = ref.axis_total(p, d)
    require(mass_ball + mass_rest == total, f"{mass_ball} + {mass_rest} != total {total}")


def check_step(p: int, axis: str, k: int, values, result: Fraction) -> None:
    """A step function over the p^k balls of level k partitioning Z_p."""
    total = ref.axis_total(p, ref.axis_d(p)[axis])
    expect = sum(Fraction(w) for w in values) * ref.ball_mass(p, k) / total
    require(result == expect, f"step integral {result}, expected {expect}")
