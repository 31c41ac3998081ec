"""gridarx benchmark.

    python3 bench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Imports gridarx from that checkout's
`src/`, sets up, measures one workload (see workloads.py and README.md),
checks its outputs and prints two JSON lines: a record of the environment
and the outputs, then the result, whose metrics are the end-to-end ones with
`--trace 0` and the per-layer ones with `--trace 1`.
"""

import os

# One BLAS thread: the process stays on one of the box's two cores, and the
# small matrix products of the RLS update gain nothing from more.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".bench_tmp")

# Spans recorded to time the tracer's own cost per call.
OVERHEAD_PROBE_CALLS = 200_000


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment() -> dict:
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
        "blas_threads": BLAS_THREADS,
    }


def _import_checkout():
    """Import gridarx from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gridarx", "__init__.py")):
        sys.exit(f"bench: no gridarx sources in {SRC}")
    if not os.path.isdir(os.path.join(ROOT, "scenarios")):
        sys.exit(f"bench: no scenarios directory in {ROOT}")
    sys.path.insert(0, SRC)
    import gridarx

    if not os.path.abspath(gridarx.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported gridarx from {gridarx.__file__}, "
                 f"not from {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_ms(out, q: float) -> float:
    return 1e3 * float(np.percentile(out.latencies_s, q))


def _end_to_end(setup_s, out) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (out.wall_s, "s"),
        "samples_per_s": (out.samples_per_s, "1/s"),
        "latency_p50_ms": (_latency_ms(out, 50), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def _probe_span_cost() -> float:
    """Seconds one traced call adds over a plain call."""

    def noop():
        return None

    tracer = spans.Tracer(targets=[])
    traced = tracer.span(noop, "probe")
    n = OVERHEAD_PROBE_CALLS
    t0 = perf_counter()
    for _ in range(n):
        noop()
    t1 = perf_counter()
    for _ in range(n):
        traced()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def _per_layer(tracer, out) -> dict:
    s = tracer.summary()
    setup = tracer.summary(setup=True)

    def get(name, key, table=s):
        return table.get(name, {}).get(key, 0)

    cnt = tracer.counter

    ident_busy = get("pipeline.identify", "busy_s")
    sim_busy = get("simulate.simulate", "busy_s")
    updates = cnt("pipeline.identify.updates")
    sim_samples = cnt("simulate.simulate.samples")
    snapshots = cnt("detector.snapshots")
    self_total = sum(v["self_s"] for v in s.values())
    n_spans = sum(v["calls"] for v in s.values())
    idle = out.harness.get("bench.idle_s", 0.0)
    return {
        "pipeline.identify.busy_s": (ident_busy, "s"),
        "pipeline.identify.us_per_sample": (
            1e6 * ident_busy / updates if updates else 0.0, "us"),
        "pipeline.identify.calls": (get("pipeline.identify", "calls"),
                                    "count"),
        "pipeline.identify.bytes_out": (cnt("pipeline.identify.bytes_out"),
                                        "B"),
        "pipeline.identify.self_s": (get("pipeline.identify", "self_s"), "s"),
        "rls.rls_update.calls": (get("rls.rls_update", "calls"), "count"),
        "rls.rls_update.busy_s": (get("rls.rls_update", "busy_s"), "s"),
        "simulate.simulate.busy_s": (sim_busy, "s"),
        "simulate.simulate.us_per_sample": (
            1e6 * sim_busy / sim_samples if sim_samples else 0.0, "us"),
        "circuit.full_circuit_model.calls": (
            get("circuit.full_circuit_model", "calls"), "count"),
        "circuit.full_circuit_model.busy_s": (
            get("circuit.full_circuit_model", "busy_s"), "s"),
        "signals.rbs_generate.busy_s": (get("signals.rbs_generate", "busy_s"),
                                        "s"),
        "detector.classify_series.busy_s": (
            get("detector.classify_series", "busy_s"), "s"),
        "detector.classify_series.calls": (
            get("detector.classify_series", "calls"), "count"),
        "detector.band_ratio": (
            cnt("detector.band") / snapshots if snapshots else 0.0, "ratio"),
        "detector.debounce.busy_s": (get("detector.debounce", "busy_s"), "s"),
        "detector.build_library.busy_s": (
            get("detector.build_library", "busy_s", setup), "s"),
        "scenario.write_samples_csv.busy_s": (
            get("scenario.write_samples_csv", "busy_s"), "s"),
        "scenario.write_distance_csv.busy_s": (
            get("scenario.write_distance_csv", "busy_s"), "s"),
        "scenario.write_theta_csv.busy_s": (
            get("scenario.write_theta_csv", "busy_s"), "s"),
        "scenario.write.bytes": (cnt("scenario.write.bytes"), "B"),
        "scenario.load_scenario.busy_s": (
            get("scenario.load_scenario", "busy_s"), "s"),
        "scenario.run_scenario.self_s": (
            get("scenario.run_scenario", "self_s"), "s"),
        "setup.pipeline.identify.busy_s": (
            get("pipeline.identify", "busy_s", setup), "s"),
        "setup.simulate.simulate.busy_s": (
            get("simulate.simulate", "busy_s", setup), "s"),
        "bench.latency_p99_ms": (_latency_ms(out, 99), "ms"),
        "bench.gen_lag_p99_ms": (out.harness.get("bench.gen_lag_p99_ms", 0.0),
                                 "ms"),
        "bench.backlog_max_blocks": (
            out.harness.get("bench.backlog_max_blocks", 0), "count"),
        "bench.traced_wall_s": (out.wall_s, "s"),
        "bench.self_coverage": (
            (self_total + idle) / out.wall_s, "ratio"),
        "bench.trace_overhead_s": (n_spans * _probe_span_cost(), "s"),
        "bench.fail_ratio": (out.failed / out.attempted, "ratio"),
    }


def main(argv=None) -> int:
    env = _environment()
    _import_checkout()
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every scenario duration (smoke tests)")
    args = ap.parse_args(argv)

    env["numpy"] = np.__version__
    setup_fn, measure_fn = workloads.WORKLOADS[args.workload]
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        ctx = workloads.Context(root=ROOT, tmp=tmp, seed=args.seed,
                                scale=args.scale)
        if args.trace:
            tracer = spans.Tracer()
            ctx.tracer = tracer
            with tracer:
                st = setup_fn(ctx)
                out = measure_fn(ctx, st, args.seconds)
            metrics = _per_layer(tracer, out)
        else:
            t0 = perf_counter()
            st = setup_fn(ctx)
            setup_s = perf_counter() - t0
            out = measure_fn(ctx, st, args.seconds)
            metrics = _end_to_end(setup_s, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:  # another run still uses it
            pass

    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "scale": args.scale, "env": env,
                      "latency_p99_ms": _latency_ms(out, 99),
                      "outputs": out.info}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
