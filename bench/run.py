"""Benchmark of so3p: one workload, one seed, one fresh interpreter.

    python3 bench/run.py --workload sample --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload iso --repeat 10 --seconds 30

Run from the root of a checkout; so3p is imported from its `src/`.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run makes the same layer calls one by
one in spans, writes the spans to bench/out/, and prints the per-layer
metrics.  --repeat N runs the workload N times, each in a fresh
interpreter with seeds seed .. seed+N-1, and prints the median and
quartiles of every metric.  See bench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = {"setup_s": "s", "ops_per_ref_s": "1/s", "op_p50_ref_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_names() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def import_so3p():
    """Import so3p from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import so3p
    except ImportError as exc:
        sys.exit(f"bench: cannot import so3p from {src}: {exc}")
    if not os.path.abspath(so3p.__file__).startswith(src + os.sep):
        sys.exit(f"bench: so3p came from {so3p.__file__}, not from {src}")
    return so3p


def run_once(args) -> dict:
    import random

    clock = time.perf_counter
    t = clock()
    so3p = import_so3p()
    import calibration
    import workloads
    import_s = clock() - t

    wl = workloads.WORKLOADS[args.workload]()
    rng = random.Random(f"so3p-bench:{args.workload}:{args.seed}")
    t = clock()
    for p in wl.primes:
        so3p.canonical_units(p)
    contexts_s = clock() - t

    g = clock()
    warm = wl.warmup(rng)
    inputs = wl.round(rng)
    gen_s = clock() - g  # generating inputs is the benchmark's work, kept out of setup_s
    t = clock()
    for inp in warm:
        wl.op(inp)
    warmup_s = clock() - t
    setup_s = clock() - T0 - gen_s

    tr = None
    if args.trace:
        from spans import Tracer

        tr = Tracer()
    attempted = failed = 0
    error = None
    lat = []  # (start from loop_start, seconds) of each completed op
    units = []  # the same for each calibration unit
    loop_start = clock()
    last_unit = loop_start - calibration.CAL_EVERY_S  # time a unit after the first op
    while True:
        for inp in inputs:
            attempted += 1
            if tr is None:
                t = clock()
                try:
                    out = wl.op(inp)
                except Exception:  # a raised error is a failed operation
                    out = None
                dt = clock() - t
            else:
                t = clock()
                tr.op = attempted
                span = tr.begin("op")
                try:
                    out = wl.traced_op(inp, tr)
                except Exception:
                    out = None
                tr.end(span)
                tr.op = -1
                dt = tr.spans[span][2] - tr.spans[span][1]
                if out is not None:
                    wl.probe(inp, out, tr)
            if out is None:
                failed += 1
                continue
            lat.append((t - loop_start, dt))
            if error is None:
                try:
                    wl.check(inp, out)
                except Exception as exc:  # report the first wrong output, stop checking
                    error = f"{type(exc).__name__}: {exc}"
            t = clock()
            if t - last_unit >= calibration.CAL_EVERY_S:
                calibration.unit()
                last_unit = clock()
                units.append((t - loop_start, last_unit - t))
        loop_s = clock() - loop_start
        if loop_s >= args.seconds:
            break
        inputs = wl.round(rng)
    if error is None and lat:
        try:
            wl.finish()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"

    ref = calibration.rescale(lat, units) if lat else []
    raw = [dt for _, dt in lat]
    e2e = {
        "setup_s": setup_s,
        "ops_per_ref_s": len(ref) / sum(ref) if ref else 0.0,
        "op_p50_ref_ms": statistics.median(ref) * 1e3 if ref else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "ops_per_s": len(raw) / sum(raw) if raw else 0.0,
        "op_p50_ms": statistics.median(raw) * 1e3 if raw else 0.0,
        "unit_p50_ms": statistics.median(dt for _, dt in units) * 1e3 if units else 0.0,
        "units": len(units),
    }
    setup = {"setup.import_s": import_s, "setup.contexts_s": contexts_s, "setup.warmup_s": warmup_s}
    result = {"correct": error is None, "attempted": attempted, "failed": failed}
    if error:
        result["error"] = error
    if tr is None:
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        record = dict(result, setup=setup, loop_s=loop_s, wall=wall,
                      op_ms=[round(dt * 1e3, 4) for dt in raw],
                      op_start_s=[round(t, 4) for t, _ in lat],
                      unit_ms=[[round(t, 4), round(dt * 1e3, 4)] for t, dt in units])
    else:
        layer = layer_metrics(tr, setup)
        result["metrics"] = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in per_layer_names().items()}
        record = dict(result, end_to_end_traced=e2e, wall_traced=wall, loop_s=loop_s, spans=len(tr.spans))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    if tr is not None:
        tr.write(stem + ".spans.tsv")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def layer_metrics(tr, setup: dict) -> dict:
    """Per-layer figures from the spans: mean microseconds per call of each
    layer span, the batch sampler per draw, and the counts."""
    from workloads import SAMPLE_BATCH

    summary = tr.summary()
    out = dict(setup)
    for name, (calls, total, self_total) in summary.items():
        if name == "op":
            out["op.self_us"] = self_total / calls * 1e6
        elif name.startswith("haar.sample_so3_batch."):
            out[f"{name}.us_per_draw"] = total / calls / SAMPLE_BATCH * 1e6
        else:
            out[f"{name}.us"] = total / calls * 1e6
    t1 = out.get("haar.sample_so3_batch.threads1.us_per_draw")
    t2 = out.get("haar.sample_so3_batch.threads2.us_per_draw")
    if t1 and t2:
        out["haar.sample_so3_batch.speedup"] = t1 / t2
    counts = tr.counts
    if counts.get("haar.RegionQp.built"):
        out["haar.RegionQp.pieces"] = counts["haar.RegionQp.built_pieces"] / counts["haar.RegionQp.built"]
    for name in ("integrate.region_pieces", "decompose.hensel_ops"):
        if name in counts:
            out[name] = counts[name]
    return out


def repeat(args) -> dict:
    """Run the workload args.repeat times in fresh interpreters and print
    the median and quartiles of every metric."""
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            sys.exit(f"bench: run {i} printed nothing: {proc.stderr.strip()}")
        runs.append(json.loads(lines[-1]))
        print(f"# seed {args.seed + i}: " + lines[-1], file=sys.stderr)
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        metrics[name] = {"value": med, "unit": first["unit"], "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:48s} {med:14.6g} {first['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
              f"(q3-q1)/median {spread:.4f}")
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sample", "iso", "decompose", "integrate"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="run N fresh interpreters and summarize")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "so3p", "__init__.py")):
        print(f"bench: no so3p sources under {ROOT}/src", file=sys.stderr)
        return 2
    result = repeat(args) if args.repeat else run_once(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
