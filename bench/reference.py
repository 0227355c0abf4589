"""Reference computations for the benchmark's output checks.

Everything here is plain `fractions.Fraction` arithmetic written from the
formulas in the project README and the paper, and imports nothing from
so3p, so a check that compares so3p's output with these functions does
not share code with what it checks.

Conventions (README, "The objects"):

* v is -1 when p = 3 mod 4, else minus the smallest quadratic non-residue;
* the algebra is (v, -p): i^2 = v, j^2 = -p, k = ij;
* the planar block is R_d(a) = [[c, -d s], [s, c]] with
  c = (1 - d a^2)/(1 + d a^2), s = 2a/(1 + d a^2), and R_d(inf) = -I;
* the axes are z, y, x with d = -v, p, -p/v in rows/columns (0,1), (0,2),
  (1,2), and a nautical triple (a, b, g) names R_z(a) R_y(b) R_x(g);
* rotations preserve diag(1, -v, p) and have determinant 1.

An infinite parameter is written None.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

AXIS_SLOTS = {"z": (0, 1), "y": (0, 2), "x": (1, 2)}


def smallest_nonresidue(p: int) -> int:
    u = 2
    while pow(u, (p - 1) // 2, p) == 1:
        u += 1
    return u


def unit_v(p: int) -> int:
    """The non-square unit v of the algebra (v, -p) for an odd prime p."""
    return -1 if p % 4 == 3 else -smallest_nonresidue(p)


def catalog(p: int) -> dict:
    """The four SO(2) parameters d: the three axes and the extra class up."""
    v = unit_v(p)
    return {
        "-v": Fraction(-v),
        "p": Fraction(p),
        "up": Fraction(smallest_nonresidue(p) * p),
        "-p/v": Fraction(-p, v),
    }


def axis_d(p: int) -> dict:
    c = catalog(p)
    return {"z": c["-v"], "y": c["p"], "x": c["-p/v"]}


def valuation(x, p: int):
    """p-adic valuation of a rational; 0 gives math.inf."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    n, d, k = x.numerator, x.denominator, 0
    while n % p == 0:
        n //= p
        k += 1
    while d % p == 0:
        d //= p
        k -= 1
    return k


# -- matrices ---------------------------------------------------------------


def matmul(a, b) -> list:
    # the axis blocks are mostly zeros; skipping them changes no value
    return [
        [sum((a[i][k] * b[k][j] for k in range(3) if a[i][k] and b[k][j]), Fraction(0)) for j in range(3)]
        for i in range(3)
    ]


def det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def axis_block(d: Fraction, a, slots) -> list:
    """R_d(a) placed in the given rows/columns of the 3x3 identity."""
    if a is None:
        c, s = Fraction(-1), Fraction(0)
    else:
        a = Fraction(a)
        den = 1 + d * a * a
        c, s = (1 - d * a * a) / den, 2 * a / den
    m = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    (r, t) = slots
    m[r][r], m[r][t], m[t][r], m[t][t] = c, -d * s, s, c
    return m


def cardano(p: int, angles) -> list:
    """The product R_z(alpha) R_y(beta) R_x(gamma) as rows of Fractions."""
    d = axis_d(p)
    z, y, x = (axis_block(d[ax], a, AXIS_SLOTS[ax]) for ax, a in zip("zyx", angles))
    return matmul(matmul(z, y), x)


def is_rotation(p: int, m) -> bool:
    """M^T diag(1, -v, p) M == diag(1, -v, p) and det M == 1."""
    g = (Fraction(1), Fraction(-unit_v(p)), Fraction(p))
    for i in range(3):
        for j in range(3):
            acc = sum(g[k] * m[k][i] * m[k][j] for k in range(3))
            if acc != (g[i] if i == j else 0):
                return False
    return det3(m) == 1


# -- the quaternion algebra (v, -p) -------------------------------------------


def quat_mul(p: int, a, b) -> tuple:
    """The 16-term product in (v, -p), from i^2 = v, j^2 = -p, k = ij.

    The derived products are ij = k, ji = -k, k^2 = vp, jk = p i,
    kj = -p i, ki = -v j, ik = v j.
    """
    v = unit_v(p)
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + v * a1 * b1 - p * a2 * b2 + v * p * a3 * b3,
        a0 * b1 + a1 * b0 + p * a2 * b3 - p * a3 * b2,
        a0 * b2 + a2 * b0 + v * a1 * b3 - v * a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def nrd(p: int, q) -> Fraction:
    v = unit_v(p)
    q0, q1, q2, q3 = q
    return q0 * q0 - v * q1 * q1 + p * q2 * q2 - v * p * q3 * q3


# -- Haar measure in the angle coordinates ------------------------------------


def axis_total(p: int, d: Fraction) -> Fraction:
    """Mass of SO(2)_d: (p+1)/p for the unit d = -v and 2 for the others."""
    return Fraction(p + 1, p) if valuation(d, p) == 0 else Fraction(2)


def ball_mass(p: int, k: int) -> Fraction:
    """Mass of a ball of level k >= 0 inside Z_p, where every catalog
    density is 1: its additive mass p^(-k)."""
    if k < 0:
        raise ValueError("closed form holds for balls inside Z_p only")
    return Fraction(1, p**k)


def piece_probabilities(p: int, d: Fraction, depth: int) -> list:
    """Exact law of the piece of a Haar draw on the SO(2)_d line.

    Entry 0 is P(Z_p): p/(p+1) for the unit d and 1/2 otherwise.  Entry k
    for 1 <= k < depth is P(shell k), a geometric law with ratio 1/p, and
    entry depth lumps every shell of index >= depth.
    """
    in_zp = Fraction(p, p + 1) if valuation(d, p) == 0 else Fraction(1, 2)
    out = [in_zp]
    for k in range(1, depth):
        out.append((1 - in_zp) * Fraction(p - 1, p**k))
    out.append((1 - in_zp) / p ** (depth - 1))
    return out


def piece(x, p: int) -> int:
    """0 for a point of Z_p, k for the shell |x| = p^k."""
    w = valuation(x, p)
    return 0 if w >= 0 else -w


# -- literals as printed by the command line ----------------------------------

_PADIC = re.compile(r"^(\d+)\^([+-]?\d+) \* \[([0-9,]*)\]$")
_CAPPED_ZERO = re.compile(r"^0 \+ O\((\d+)\^([+-]?\d+)\)$")
_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


def read_number(text: str, p: int):
    """A printed number as (value, n): value a Fraction, or None for inf.

    n is math.inf for an exact literal.  A digit literal
    p^v * [d0, ..., d(n-1)] reads as its truncation p^v * sum d_i p^i with
    n significant digits; the capped zero 0 + O(p^k) reads as 0 with n = k.
    """
    if text == "inf":
        return None, math.inf
    if _RATIONAL.match(text):
        return Fraction(text), math.inf
    m = _CAPPED_ZERO.match(text)
    if m is not None and int(m.group(1)) == p:
        return Fraction(0), int(m.group(2))
    m = _PADIC.match(text)
    if m is None or int(m.group(1)) != p:
        raise ValueError(f"not a {p}-adic number literal: {text!r}")
    digits = [int(t) for t in m.group(3).split(",")]
    if any(not 0 <= t < p for t in digits) or digits[0] == 0:
        raise ValueError(f"bad digits in {text!r}")
    mant = sum(t * p**i for i, t in enumerate(digits))
    return mant * Fraction(p) ** int(m.group(2)), len(digits)


def agree_mod(a, b, p: int, m: int) -> bool:
    """True when every entry of a - b has valuation >= m."""
    return all(valuation(x - y, p) >= m for ra, rb in zip(a, b) for x, y in zip(ra, rb))
