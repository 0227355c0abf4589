r"""Command-line front end.

Subcommands: classify (square class of a number), rotate (angles or a
quaternion to a certified rotation matrix), compose (product of two
matrices with recertification), decompose (matrix back to nautical
angles), haar mass / integrate / sample, and verify (the identity
suites).  Each takes `--prime` and `--format text|json`, and of the other
settings only those it reads:

    --precision   decompose, haar sample   digit budget, at least 4 (default 32)
    --seed        haar sample, verify      64-bit seed (default 0)
    --threads     haar sample              at least 1; no effect (one thread)

Literals that start with '-' (`-1/3`, `-19/243,0,-225/58`) are positionals.
Output goes to stdout; diagnostics go to stderr.  `--format json` wraps
every result in a schema-versioned object whose numbers are strings, so
consumers never round an exact rational through a float.  Identical
configuration and seed produce identical output bytes.  Exit codes:
0 success, 1 verification failure, 2 parse failure, bad prime, or an
option the command does not take, 3 certificate failure or exhausted
digit budget (including a capped matrix whose digits cannot tell alpha
or gamma from infinity, and a capped angle that leaves no digit of
1 + d*a^2 known, as `0 + O(3^0)` for alpha at p = 3), 4 ambiguity (the
canonical Cardano triple does not rebuild the matrix), 5 malformed
region, 141 stdout closed early (as by `| head`), with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import haar, verify
from .errors import AmbiguityError, CertificateError, PrecisionExhausted, RegionError
from .formats import (
    format_angles,
    format_matrix_json,
    format_number,
    format_rational,
    matrix_from_obj,
    matrix_rows,
    parse_angles,
    parse_matrix_json,
    parse_number,
    parse_quat,
    parse_region,
)
from .padic import INF, PrimeCtx, SquareClass, canonical_units, is_prime, square_class
from .rotation import Rot3, cardano_matrix, decompose_cardano, quat_to_rotation

_CLASS_NAMES = {
    SquareClass.ONE: "One",
    SquareClass.U: "U",
    SquareClass.P: "P",
    SquareClass.UP: "UP",
}


def _ctx(args) -> PrimeCtx:
    p = args.prime
    try:
        return canonical_units(p)
    except ValueError:
        if is_prime(p) and p != 2:
            raise
        if p == 2:
            raise ValueError("p = 2 is out of scope; need an odd prime") from None
        raise ValueError(f"not prime: {p}") from None


def _settings(args) -> None:
    # an option the command does not take is absent from args
    if getattr(args, "precision", 4) < 4:
        raise ValueError(f"precision must be at least 4, got {args.precision}")
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        raise ValueError("seed must fit in 64 bits")
    if getattr(args, "threads", 1) < 1:
        raise ValueError("threads must be at least 1")


def _emit(args, text, payload) -> None:
    """Print the rendering --format asks for.  text and payload are
    zero-argument callables, so the other rendering is never built."""
    if args.format == "json":
        print(json.dumps({"schema": 1, **payload()}))
    else:
        print(text())


def _cmd_classify(ctx: PrimeCtx, args) -> int:
    x = parse_number(args.value, ctx.p)
    if x is INF:
        raise ValueError("inf has no square class")
    name = _CLASS_NAMES[square_class(x, ctx)]
    _emit(args, lambda: name, lambda: {"class": name})
    return 0


def _cmd_rotate(ctx: PrimeCtx, args) -> int:
    if (args.angles is None) == (args.quat is None):
        raise ValueError("rotate takes exactly one of an angle triple or --quat")
    if args.quat is not None:
        r = quat_to_rotation(parse_quat(args.quat, ctx))
    else:
        r = cardano_matrix(ctx, parse_angles(args.angles, ctx.p))
    _emit(args, lambda: format_matrix_json(r.mat), lambda: {"matrix": matrix_rows(r.mat)})
    return 0


def _cmd_compose(ctx: PrimeCtx, args) -> int:
    texts = args.matrices
    if not texts:
        try:
            pair = json.loads(sys.stdin.read())
        except json.JSONDecodeError as exc:
            raise ValueError(f"stdin is not valid JSON: {exc}") from None
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("stdin must hold a JSON pair [m1, m2]")
        mats = [matrix_from_obj(m, ctx.p) for m in pair]
    elif len(texts) == 2:
        mats = [parse_matrix_json(t, ctx.p) for t in texts]
    else:
        raise ValueError("compose takes two matrices, or none with a pair on stdin")
    r = Rot3(ctx, mats[0]) * Rot3(ctx, mats[1])
    _emit(args, lambda: format_matrix_json(r.mat), lambda: {"matrix": matrix_rows(r.mat)})
    return 0


def _cmd_decompose(ctx: PrimeCtx, args) -> int:
    text = args.matrix
    if text is None or text == "-":
        text = sys.stdin.read()
    r = Rot3(ctx, parse_matrix_json(text, ctx.p))
    angles = decompose_cardano(r, precision=args.precision)
    _emit(args, lambda: format_angles(angles), lambda: {"angles": [format_number(a) for a in angles]})
    return 0


def _cmd_haar_mass(ctx: PrimeCtx, args) -> int:
    mass = haar.total_mass(ctx, args.group)
    _emit(args, lambda: format_rational(mass), lambda: {"mass": format_rational(mass)})
    return 0


def _cmd_haar_integrate(ctx: PrimeCtx, args) -> int:
    ds = haar._group_ds(ctx, args.group)
    texts = args.region.split(";") if args.group == "so3" else [args.region]
    if len(texts) != len(ds):
        raise RegionError("so3 integration takes three regions 'z;y;x'")
    regions = [parse_region(t, ctx.p) for t in texts]
    mass = math.prod(haar.integrate_so2(ctx, d, r) for d, r in zip(ds, regions))
    if args.normalized:
        mass /= haar.total_mass(ctx, args.group)
    _emit(args, lambda: format_rational(mass), lambda: {"mass": format_rational(mass)})
    return 0


def _cmd_haar_sample(ctx: PrimeCtx, args) -> int:
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    draws = haar.sample_so3_batch(
        ctx, args.seed, args.count, digits=args.precision, threads=args.threads
    )
    # format only the output asked for; text formatting costs about a
    # third of a draw
    if args.format == "json":
        samples = []
        for angles, rot in draws:
            entry = {"angles": [format_number(a) for a in angles]}
            if args.matrices:
                entry["matrix"] = matrix_rows(rot.mat)
            samples.append(entry)
        _emit(args, None, lambda: {"samples": samples})
    else:
        lines = []
        for angles, rot in draws:
            lines.append(format_angles(angles))
            if args.matrices:
                lines.append(format_matrix_json(rot.mat))
        _emit(args, lambda: "\n".join(lines), None)
    return 0


def _cmd_verify(ctx: PrimeCtx, args) -> int:
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = verify.run_suites(ctx, names, samples=args.samples, seed=args.seed)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    checks = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    _emit(args, lambda: "\n".join(lines), lambda: {"checks": checks})
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reads a literal such as -1/3 or -19/243,0,-225/58 as a positional,
    as argparse alone does only for -3 or -.5.  No option here starts with
    '-' and a digit, so none is shadowed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


_OPTIONS = {
    "--precision": dict(type=int, default=32, help="working p-adic digits (at least 4)"),
    "--seed": dict(type=int, default=0, help="64-bit seed"),
    "--threads": dict(type=int, default=1, help="accepted for compatibility; has no effect"),
}


def _leaf(sub, name: str, func, summary: str, *options: str) -> argparse.ArgumentParser:
    """A command with --prime, --format and the named settings it reads."""
    leaf = sub.add_parser(name, help=summary)
    leaf.add_argument("--prime", type=int, required=True, help="the odd prime p")
    leaf.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    for option in options:
        leaf.add_argument(option, **_OPTIONS[option])
    leaf.set_defaults(func=func)
    return leaf


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="so3p",
        description="Exact arithmetic on the p-adic rotation group SO(3)_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cl = _leaf(sub, "classify", _cmd_classify, "square class of a number")
    cl.add_argument("value", help="number literal: a/b, inf, or p^v * [d0,d1,...]")

    ro = _leaf(sub, "rotate", _cmd_rotate, "build a rotation matrix")
    ro.add_argument("angles", nargs="?", help="angle triple a,b,c (inf allowed)")
    ro.add_argument("--quat", help="quaternion literal 'q0 + q1 i + q2 j + q3 k'")

    co = _leaf(sub, "compose", _cmd_compose, "multiply two rotations, recertified")
    co.add_argument(
        "matrices", nargs="*", help="two matrix JSON literals; omit for stdin [m1, m2]"
    )

    de = _leaf(sub, "decompose", _cmd_decompose, "matrix to nautical angles", "--precision")
    de.add_argument("matrix", nargs="?", help="matrix JSON; omit or '-' for stdin")

    ha = sub.add_parser("haar", help="masses, exact integrals, random samples")
    hsub = ha.add_subparsers(dest="haar_command", required=True)

    hm = _leaf(hsub, "mass", _cmd_haar_mass, "total mass of a group")
    hm.add_argument("--group", required=True, help="so3, so2:-v, so2:p, so2:up, or so2:-p/v")

    hi = _leaf(hsub, "integrate", _cmd_haar_integrate, "exact mass of a region")
    hi.add_argument("--group", required=True, help="so3 or an so2:* tag")
    hi.add_argument(
        "--region",
        required=True,
        help="union literal zp | ball:c,k | shell:k | tail:K; ';'-separated triple for so3",
    )
    hi.add_argument("--normalized", action="store_true", help="divide by the total mass")

    hs = _leaf(hsub, "sample", _cmd_haar_sample, "Haar-random rotations",
               "--precision", "--seed", "--threads")
    hs.add_argument("--count", type=int, default=1, help="number of draws")
    hs.add_argument("--matrices", action="store_true", help="also print each rotation matrix")

    ve = _leaf(sub, "verify", _cmd_verify, "run the identity suites", "--seed")
    ve.add_argument(
        "--suite", choices=(*verify.SUITE_NAMES, "all"), default="all", help="which suite to run"
    )
    ve.add_argument(
        "--samples", type=int, default=None, help="draws per identity, at least 1 (default varies)"
    )

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _settings(args)
        code = args.func(_ctx(args), args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): exit as a shell reports SIGPIPE;
        # devnull takes what is left, so the flush at exit raises nothing
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except CertificateError as exc:
        print(f"so3p: certificate failure: {exc}", file=sys.stderr)
        return 3
    except AmbiguityError as exc:
        print(f"so3p: ambiguity: {exc}", file=sys.stderr)
        return 4
    except RegionError as exc:
        print(f"so3p: region: {exc}", file=sys.stderr)
        return 5
    except (ZeroDivisionError, ValueError) as exc:
        print(f"so3p: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"so3p: precision exhausted: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"so3p: certificate failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
