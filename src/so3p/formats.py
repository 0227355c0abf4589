r"""Textual and JSON literals shared by the command line.

Number literals: a rational `a/b` or `a`, the token `inf`, a
capped-precision value `p^v * [d0,d1,...]` with base-p digits listed least
significant first, or a capped zero `0 + O(p^k)`.  Angle triples are
`a,b,c`, split on the commas outside digit lists.  Matrices travel as
JSON arrays of row arrays whose entries are number literals (strings), so
no consumer ever rounds them through floats.  Quaternions read
`q0 + q1 i + q2 j + q3 k`.  Regions of the parameter line are unions like
`zp,shell:2,ball:1/3,-1,tail:4`, where `ball:` consumes two comma tokens,
its center and its level.

Parsers raise ValueError on malformed numbers and RegionError on malformed
regions; the CLI maps those onto its documented exit codes.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from .errors import RegionError
from .haar import BallQp, RegionQp, ShellQp
from .linalg import Mat
from .padic import INF, Infinity, PadicApprox, PrimeCtx
from .quaternion import Quat
from .rotation import Angles

__all__ = [
    "format_angles",
    "format_matrix_json",
    "format_number",
    "format_region",
    "matrix_from_obj",
    "matrix_rows",
    "parse_angles",
    "parse_matrix_json",
    "parse_number",
    "parse_quat",
    "parse_rational",
    "parse_region",
]

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_PADIC = re.compile(r"^(\d+)\^([+-]?\d+)\s*\*\s*\[([0-9,\s]*)\]$")
_PADIC_ZERO = re.compile(r"^0\s*\+\s*O\((\d+)\^([+-]?\d+)\)$")
_ANGLE_SEP = re.compile(r",(?![^\[]*\])")  # a comma not inside [...]


def parse_rational(token: str) -> Fraction:
    token = token.strip()
    if not _RATIONAL.match(token):
        raise ValueError(f"not a rational literal: {token!r}")
    return Fraction(token)


def format_rational(x: Fraction) -> str:
    return _ratio_text(x.numerator, x.denominator)


def _ratio_text(n: int, d: int) -> str:
    """The literal of n / d (d > 0) in lowest terms: `n` or `n/d`."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def parse_number(token: str, p: int | None = None):
    """A rational, `inf`, a p-adic digit literal `p^v * [d0,d1,...]`, or a
    capped zero `0 + O(p^k)`."""
    token = token.strip()
    if token == "inf":
        return INF
    m = _PADIC.match(token) or _PADIC_ZERO.match(token)
    if m is None:
        return parse_rational(token)
    base, val = int(m.group(1)), int(m.group(2))
    if p is not None and base != p:
        raise ValueError(f"literal is {base}-adic, expected p = {p}")
    if m.re is _PADIC_ZERO:
        return PadicApprox.zero(base, val)
    digit_text = m.group(3).strip()
    if not digit_text:
        raise ValueError("digit list is empty")
    digits = [int(d) for d in digit_text.split(",")]
    if any(d < 0 or d >= base for d in digits):
        raise ValueError(f"digits must lie in 0..{base - 1}")
    if digits[0] % base == 0:
        raise ValueError("leading digit must be a unit")
    mant = sum(d * base**i for i, d in enumerate(digits))
    return PadicApprox(p=base, val=val, mant=mant, n=len(digits))


def format_number(x) -> str:
    if isinstance(x, Infinity):
        return "inf"
    if isinstance(x, PadicApprox):
        if x.is_zero:
            if math.isinf(x.val):
                return "0"
            return f"0 + O({x.p}^{x.val})"
        body = ",".join(str(d) for d in x.digits())
        return f"{x.p}^{x.val} * [{body}]"
    return format_rational(x)


def parse_angles(text: str, p: int | None = None) -> Angles:
    parts = _ANGLE_SEP.split(text.strip())
    if len(parts) != 3:
        raise ValueError(f"an angle triple needs three entries: {text!r}")
    return Angles(*(parse_number(tok, p) for tok in parts))


def format_angles(angles) -> str:
    return ",".join(format_number(x) for x in angles)


def _entry(obj, p: int | None):
    if isinstance(obj, str):
        return parse_number(obj, p)
    # bool is an int subclass, and JSON true/false are no number literals
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    raise ValueError(f"matrix entries must be literals, not {type(obj).__name__}")


def matrix_from_obj(data, p: int | None = None) -> Mat:
    if not isinstance(data, list) or not data:
        raise ValueError("matrix JSON must be a list of rows")
    n = len(data)
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("matrix JSON must be square")
        rows.append(tuple(_entry(e, p) for e in row))
    return Mat(tuple(rows))


def parse_matrix_json(text: str, p: int | None = None) -> Mat:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix is not valid JSON: {exc}") from None
    return matrix_from_obj(data, p)


def matrix_rows(m: Mat) -> list:
    """The JSON-ready form: rows of number-literal strings."""
    ints = m.integer_form()
    if ints is None:
        return [[format_number(e) for e in row] for row in m.rows]
    num, den = ints
    return [[_ratio_text(n, den) for n in row] for row in num]


def format_matrix_json(m: Mat) -> str:
    return json.dumps(matrix_rows(m))


_QTERM = re.compile(r"\s*([+-])?\s*(?:([+-]?\d+(?:/\d+)?)\s*([ijk])?|([ijk]))\s*")


def parse_quat(text: str, ctx: PrimeCtx) -> Quat:
    """Literal `q0 + q1 i + q2 j + q3 k`; omitted terms default to zero."""
    coeffs = {"": Fraction(0), "i": Fraction(0), "j": Fraction(0), "k": Fraction(0)}
    seen = set()
    pos = 0
    while pos < len(text):
        m = _QTERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"malformed quaternion literal: {text!r}")
        sign, num, unit_after, unit_bare = m.groups()
        if seen and sign is None:
            raise ValueError(f"quaternion terms need +/- separators: {text!r}")
        unit = unit_after or unit_bare or ""
        if unit in seen:
            raise ValueError(f"repeated {unit or 'scalar'} term in {text!r}")
        coeff = parse_rational(num) if num else Fraction(1)
        if sign == "-":
            coeff = -coeff
        seen.add(unit)
        coeffs[unit] = coeff
        pos = m.end()
    if not seen:
        raise ValueError("empty quaternion literal")
    return Quat(ctx, coeffs[""], coeffs["i"], coeffs["j"], coeffs["k"])


def parse_region(text: str, p: int) -> RegionQp:
    """Union literal: `zp`, `shell:k`, `tail:K`, `ball:c,k`, comma-joined."""
    tokens = [t.strip() for t in text.strip().split(",")]
    balls, shells = [], []
    include_zp = False
    tail_from = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        i += 1
        try:
            if tok == "zp":
                if include_zp:
                    raise RegionError("zp listed twice")
                include_zp = True
            elif tok.startswith("shell:"):
                shells.append(ShellQp(int(tok[6:])))
            elif tok.startswith("tail:"):
                if tail_from is not None:
                    raise RegionError("tail listed twice")
                tail_from = int(tok[5:])
            elif tok.startswith("ball:"):
                # the level rides in the next comma token
                if i >= len(tokens):
                    raise RegionError(f"ball needs a center and a level: {text!r}")
                center = parse_rational(tok[5:])
                level = int(tokens[i])
                i += 1
                balls.append(BallQp(center, level))
            else:
                raise RegionError(f"unknown region piece: {tok!r}")
        except ValueError as exc:
            if isinstance(exc, RegionError):
                raise
            raise RegionError(f"malformed region piece {tok!r}: {exc}") from None
    return RegionQp(p, balls=tuple(balls), shells=tuple(shells), include_zp=include_zp, tail_from=tail_from)


def format_region(region: RegionQp) -> str:
    """The union literal that `parse_region` reads back as `region`.

    The empty region has no literal and raises `RegionError`.
    """
    parts = []
    if region.include_zp:
        parts.append("zp")
    parts.extend(f"ball:{format_rational(b.center)},{b.k}" for b in region.balls)
    parts.extend(f"shell:{s.k}" for s in region.shells)
    if region.tail_from is not None:
        parts.append(f"tail:{region.tail_from}")
    if not parts:
        raise RegionError("the empty region has no literal")
    return ",".join(parts)
