"""The four benchmark workloads: inputs, one operation, and its checks.

Each workload generates a round of inputs from the benchmark's seeded
generator, runs one operation per input, and checks every output.  A round
has a fixed makeup (primes, precisions, kinds of operation) and only the
random values inside it change with the seed, so runs with different
seeds measure the same mix.

`op(inp)` is the operation as a user runs it: a `so3p.cli.main` call for
`sample` and `decompose`, library calls for `iso` and `integrate`.
`traced_op(inp, tr)` makes the same layer calls one by one, each in a
span.  `probe(inp, out, tr)` runs, outside the operation's span, the layer
calls the operation makes only inside other functions, on the same inputs,
so their per-call cost can be reported.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import operator
import random
from fractions import Fraction

import checks
import reference as ref
import so3p
from spans import untraced
from so3p import cli
from so3p.formats import (
    format_angles,
    format_matrix_json,
    format_number,
    matrix_rows,
    parse_matrix_json,
)
from so3p.linalg import lambda_inverse, lambda_matrix

SAMPLE_BATCH = 128  # two of the sampler's 64-draw chunks, so --threads 2 has work to share


def run_cli(argv) -> tuple:
    """so3p.cli.main(argv) in-process: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _unit(rng: random.Random, p: int, top: int) -> int:
    """A random integer in [1, top) prime to p, with a random sign."""
    while True:
        n = rng.randrange(1, top)
        if n % p:
            return n if rng.random() < 0.5 else -n


def _rational(rng: random.Random, p: int, vmin: int, vmax: int) -> Fraction:
    """A random rational of valuation in [vmin, vmax] with a unit part
    n/m, n and m up to p^3."""
    w = rng.randint(vmin, vmax)
    return Fraction(_unit(rng, p, p**3), abs(_unit(rng, p, p**3))) * Fraction(p) ** w


def _quat(rng: random.Random, ctx) -> so3p.Quat:
    """A quaternion with coordinates n / p^j, |n| <= p^3 and 0 <= j <= 2."""
    p = ctx.p
    while True:
        coords = [Fraction(rng.randint(-(p**3), p**3), p ** rng.randint(0, 2)) for _ in range(4)]
        if any(coords):
            return so3p.Quat(ctx, *coords)


class Workload:
    """Defaults: the traced operation is op with a span around each layer
    call, and there is nothing to probe or to check at the end of a run."""

    def traced_op(self, inp, tr):
        return self.op(inp, tr.call)

    def probe(self, inp, out, tr):
        pass

    def finish(self):
        pass


class Sample(Workload):
    """`so3p haar sample --matrices --format json --threads 2` of a fixed batch."""

    name = "sample"
    primes = (3, 7, 13)
    precisions = (16, 32)

    def __init__(self):
        self.counts = {}
        self.first = None

    def round(self, rng):
        return [(p, prec, rng.getrandbits(63)) for p in self.primes for prec in self.precisions]

    def warmup(self, rng):
        return [(p, self.precisions[0], rng.getrandbits(63)) for p in self.primes]

    @staticmethod
    def argv(inp, threads):
        p, prec, seed = inp
        return ["haar", "sample", "--prime", p, "--count", SAMPLE_BATCH, "--seed", seed,
                "--precision", prec, "--matrices", "--format", "json", "--threads", threads]

    def op(self, inp):
        code, text = run_cli(self.argv(inp, 2))
        return text if code == 0 else None

    def traced_op(self, inp, tr):
        p, prec, seed = inp
        ctx = so3p.canonical_units(p)
        rng = random.Random(seed)
        samples, rots = [], []
        for _ in range(SAMPLE_BATCH):
            angles = so3p.Angles(*(
                tr.call("haar.sample_so2_param", so3p.sample_so2_param, ctx, d, rng, prec)
                for d in (ctx.d_z, ctx.d_y, ctx.d_x)
            ))
            rot = tr.call("rotation.cardano_matrix", so3p.cardano_matrix, ctx, angles)
            # the command formats every draw as text too, whatever --format says
            tr.call("formats.format_angles", format_angles, angles)
            tr.call("formats.format_matrix_json", format_matrix_json, rot.mat)
            samples.append({"angles": [format_number(a) for a in angles], "matrix": matrix_rows(rot.mat)})
            rots.append(rot)
        self._rots = rots
        return json.dumps({"schema": 1, "samples": samples})

    def probe(self, inp, out, tr):
        p, prec, seed = inp
        ctx = so3p.canonical_units(p)
        form = so3p.aplus(ctx)
        for rot in self._rots:
            fresh = so3p.Mat(rot.mat.rows)
            ok = tr.call("linalg.is_special_isometry", so3p.is_special_isometry, fresh, form)
            checks.require(ok, "a sampled rotation fails its certificate")
        for threads in (1, 2):
            tr.call(f"haar.sample_so3_batch.threads{threads}", so3p.sample_so3_batch,
                    ctx, seed, SAMPLE_BATCH, digits=prec, threads=threads)

    def check(self, inp, out):
        p, prec, _ = inp
        if self.first is None:
            self.first = inp
        checks.piece_counts(p, checks.check_sample(p, prec, SAMPLE_BATCH, out), self.counts)

    def finish(self):
        checks.check_pieces(self.counts)
        code1, one = run_cli(self.argv(self.first, 1))
        code2, two = run_cli(self.argv(self.first, 2))
        checks.require(code1 == code2 == 0 and one == two, "--threads 2 output differs from --threads 1")


class Iso(Workload):
    """The isomorphism H_p^x / Q_p^x -> SO(3)_p and the exact Cardano chart."""

    name = "iso"
    primes = (3, 5, 7, 11, 13)

    def round(self, rng):
        out = []
        for p in self.primes:
            ctx = so3p.canonical_units(p)
            angles = so3p.Angles(_rational(rng, p, -2, 2), _rational(rng, p, 0, 2), _rational(rng, p, -2, 2))
            out.append((ctx, _quat(rng, ctx), _quat(rng, ctx), angles))
        return out

    warmup = round

    def op(self, inp, call=untraced):
        ctx, x, y, a = inp
        xy = call("quaternion.Quat.mul", operator.mul, x, y)
        rx, ry, rxy = (call("rotation.quat_to_rotation", so3p.quat_to_rotation, q) for q in (x, y, xy))
        prod = call("rotation.Rot3.mul", operator.mul, rx, ry)
        qx = call("rotation.rotation_to_quat", so3p.rotation_to_quat, rx)
        qa = call("rotation.angles_to_quat", so3p.angles_to_quat, ctx, a)
        ra = call("rotation.cardano_matrix", so3p.cardano_matrix, ctx, a)
        dec = call("rotation.decompose_cardano.exact", so3p.decompose_cardano, ra)
        return xy, rx, ry, rxy, prod, qx, qa, ra, dec

    def probe(self, inp, out, tr):
        ctx, x = inp[0], inp[1]
        k = tr.call("quaternion.conj_action_matrix", so3p.conj_action_matrix, x)
        left = tr.call("linalg.Mat.mul", operator.mul, lambda_matrix(ctx), k)
        m = tr.call("linalg.Mat.mul", operator.mul, left, lambda_inverse(ctx))
        checks.require(m == out[1].mat, "Lambda K Lambda^-1 differs from quat_to_rotation")

    def check(self, inp, out):
        ctx, x, y, a = inp
        xy, rx, ry, rxy, prod, qx, qa, ra, dec = out
        rqa = so3p.quat_to_rotation(qa)
        rows = [[list(r) for r in m.mat.rows] for m in (rx, ry, rxy, prod)]
        checks.check_iso(ctx.p, x.coords, y.coords, xy.coords, *rows, qx.coords, tuple(a),
                         [list(r) for r in ra.mat.rows], [list(r) for r in rqa.mat.rows], dec)


class Decompose(Workload):
    """`so3p decompose --format json --precision P` of rotations whose cos(beta)
    is irrational, so every answer comes from a Hensel lift.

    Rotations where 1 - p R31^2 - R11^2 or 1 - p R31^2 - R33^2 has valuation
    >= P are left out.  There cos(beta) -/+ R11 (or R33) vanishes to the
    whole digit budget, alpha (or gamma) cannot be told from infinity, and
    decompose_cardano answers with the other branch, beta outside Z_p, or
    exits 4; see CHANGES.md.  About one input in 10^4 at p = 3, P = 16.
    """

    name = "decompose"
    primes = (3, 5, 7, 11, 13)
    precisions = (16, 32)

    def _input(self, rng, p, prec):
        ctx = so3p.canonical_units(p)
        while True:
            rows = matrix_rows(so3p.quat_to_rotation(_quat(rng, ctx)).mat)
            matrix = [[Fraction(e) for e in r] for r in rows]
            radicand = 1 - p * matrix[2][0] ** 2
            if _is_rational_square(radicand):
                continue
            if all(ref.valuation(radicand - matrix[i][i] ** 2, p) < prec for i in (0, 2)):
                return p, prec, json.dumps(rows), matrix

    def round(self, rng):
        return [self._input(rng, p, prec) for p in self.primes for prec in self.precisions]

    def warmup(self, rng):
        return [self._input(rng, p, self.precisions[0]) for p in self.primes]

    def op(self, inp):
        p, prec, text, _ = inp
        code, out = run_cli(["decompose", "--prime", p, "--format", "json", "--precision", prec, text])
        return out if code == 0 else None

    def traced_op(self, inp, tr):
        p, prec, text, _ = inp
        ctx = so3p.canonical_units(p)
        mat = tr.call("formats.parse_matrix_json", parse_matrix_json, text, p)
        r = tr.call("rotation.Rot3", so3p.Rot3, ctx, mat)
        angles = tr.call("rotation.decompose_cardano.hensel", so3p.decompose_cardano, r, precision=prec)
        tr.call("formats.format_angles.padic", format_angles, angles)
        self._angles = angles
        return json.dumps({"schema": 1, "angles": [format_number(a) for a in angles]})

    def probe(self, inp, out, tr):
        p, prec, _, matrix = inp
        ctx = so3p.canonical_units(p)
        tr.call("padic.hensel_sqrt", so3p.hensel_sqrt, 1 - p * matrix[2][0] ** 2, ctx, prec)
        rebuilt = tr.call("rotation.cardano_matrix.approx", so3p.cardano_matrix, ctx, self._angles)
        ok = tr.call("linalg.is_special_isometry.approx", so3p.is_special_isometry, rebuilt.mat, so3p.aplus(ctx))
        checks.require(ok, "the rebuilt approximate rotation fails its certificate")
        if isinstance(self._angles.beta, so3p.PadicApprox):
            tr.count("decompose.hensel_ops")

    def check(self, inp, out):
        p, prec, _, matrix = inp
        checks.require(checks.check_decompose(p, prec, matrix, out), "answer did not take the Hensel path")


def _is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    return all(math.isqrt(n) ** 2 == n for n in (x.numerator, x.denominator))


class Integrate(Workload):
    """Regions and the exact integrator, no rotations."""

    name = "integrate"
    primes = (3, 5, 7, 11, 13)
    step_values = 4  # a step function takes values 0..3, one region per value

    def _ball(self, rng, p):
        center = Fraction(0) if rng.random() < 0.125 else _rational(rng, p, -2, 2)
        return so3p.BallQp(center, rng.randint(-2, 4))

    def _prime_ops(self, rng, p):
        ctx = so3p.canonical_units(p)
        ops = [("box", ctx, [(rng.randrange(p**k), k) for k in (rng.randint(0, 3) for _ in range(3))])]
        for d in ctx.so2_catalog().values():
            alpha0 = so3p.INF if rng.random() < 0.125 else _rational(rng, p, -2, 2)
            ops.append(("translate", ctx, d, alpha0, self._ball(rng, p)))
            ops.append(("complement", ctx, d, self._ball(rng, p)))
        for k in (1, 2):
            values = [rng.randrange(self.step_values) for _ in range(p**k)]
            ops.append(("step", ctx, rng.choice("zyx"), k, values))
        return ops

    def round(self, rng):
        return [op for p in self.primes for op in self._prime_ops(rng, p)]

    def warmup(self, rng):
        return [self._prime_ops(rng, p)[0] for p in self.primes]

    def op(self, inp, call=untraced):
        """Returns (regions built here, regions integrated, result)."""
        kind, ctx = inp[0], inp[1]
        p = ctx.p
        if kind == "box":
            box = [call("haar.RegionQp", so3p.RegionQp.ball, p, c, k) for c, k in inp[2]]
            return box, box, call("haar.integrate_so3", so3p.integrate_so3, ctx, box, normalized=True)
        if kind == "step":
            _, _, axis, k, values = inp
            steps = []
            for w in range(self.step_values):
                balls = tuple(so3p.BallQp(c, k) for c, v in enumerate(values) if v == w)
                if balls:
                    steps.append((call("haar.RegionQp", so3p.RegionQp, p, balls=balls), w))
            regions = [r for r, _ in steps]
            return regions, regions, call("haar.axis_integral", so3p.axis_integral, ctx, axis, steps)
        d, ball = inp[2], inp[-1]
        region = call("haar.RegionQp", so3p.RegionQp, p, balls=(ball,))
        if kind == "translate":
            other = call("haar.mobius_image", so3p.mobius_image, ctx, d, inp[3], ball)
        else:
            other = call("haar.complement_region", so3p.complement_region, ctx, ball)
        masses = [call("haar.integrate_so2", so3p.integrate_so2, ctx, d, r) for r in (region, other)]
        return [region], [region, other], masses

    def traced_op(self, inp, tr):
        out = self.op(inp, tr.call)
        built, integrated, _ = out
        tr.count("haar.RegionQp.built", len(built))
        tr.count("haar.RegionQp.built_pieces", sum(map(_pieces, built)))
        tr.count("integrate.region_pieces", sum(map(_pieces, integrated)))
        return out

    def check(self, inp, out):
        kind, ctx = inp[0], inp[1]
        p = ctx.p
        result = out[2]
        if kind == "box":
            checks.check_box(p, [k for _, k in inp[2]], result)
        elif kind == "step":
            _, _, axis, k, values = inp
            checks.check_step(p, axis, k, values, result)
        elif kind == "translate":
            checks.check_translation(*result)
        else:
            checks.check_complement(p, inp[2], *result)


def _pieces(region) -> int:
    return (len(region.balls) + len(region.shells) + int(region.include_zp)
            + int(region.tail_from is not None))


WORKLOADS = {w.name: w for w in (Sample, Iso, Decompose, Integrate)}
