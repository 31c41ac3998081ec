"""The benchmark workloads: suite, stream and discriminate.

Each workload has a set-up step and a measured step. Set-up is everything a
user pays before the first result: calibration, the signature library and,
for `stream`, the recorded input. Both steps drive gridarx only through its
public functions. They look these up as module attributes at call time, so
that the tracer in `spans.py` can instrument them.

Inputs come from the workload seed. Seed 1 reproduces the shipped inputs.
For `suite` and `stream` these are the `scenarios/` files (excitation seed
1, noise seed 2). For `discriminate` they are the held-out seeds 3..7 of
`tests/conftest.py`. Set-up always uses the shipped, unseeded inputs, so
set-up work is the same for every seed. `suite` sets up as `gridarx
calibrate` and `build-library` do. `stream` and `discriminate` share the
held-out experiment's smaller library.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from gridarx import detector, pipeline, scenario
from gridarx.circuit import CircuitParams
from gridarx.detector import Thresholds, Verdict
from gridarx.simulate import DisturbanceSpec, SimResult

from spans import CHECK_RUN

# Paper table for the manifest: (scenario, method) -> (detected, verdict).
# The parameter-deviation method flags all five runs and tells faults from
# load increases; voltage limit checking misses both high-impedance faults
# and reports every violation it does see as a fault.
SUITE_EXPECTED = {
    ("lif_20ohm", "rarx"): ("detected", "fault"),
    ("lif_20ohm", "limit_check"): ("detected", "fault"),
    ("hif_600ohm", "rarx"): ("detected", "fault"),
    ("hif_600ohm", "limit_check"): ("not_detected", "normal"),
    ("hif_1000ohm", "rarx"): ("detected", "fault"),
    ("hif_1000ohm", "limit_check"): ("not_detected", "normal"),
    ("load_0p35", "rarx"): ("detected", "load_increase"),
    ("load_0p35", "limit_check"): ("detected", "fault"),
    ("load_0p5", "rarx"): ("detected", "load_increase"),
    ("load_0p5", "limit_check"): ("detected", "fault"),
}
LIBRARY_SCENARIOS = ("hif_600ohm.ini", "load_0p35.ini")
SUITE_ARTIFACTS = ("report.json", "distance.csv", "theta.csv")

# Held-out discrimination experiment of tests/conftest.py.
DISC_THRESHOLDS = Thresholds(d_high=4.5, d_low=0.03)
DISC_MATCH_FLOOR = 0.6
DISC_RUNS = 5  # seeds per class
DISC_DURATION, DISC_ON, DISC_OFF = 15.0, 5.0, 15.0

# Open-loop replay: one fundamental cycle (20 ms at 5 kHz) per block, sent
# at 1.5x real time. On a 2-core box whose speed drifts by a third between
# runs, this keeps the pipeline at most ~60% busy even in a slow spell, so a
# block's latency measures the pipeline rather than a growing queue.
STREAM_SCENARIO = "hif_1000ohm.ini"
BLOCK = 100
STREAM_RATE = 7500.0  # samples/s


@dataclass
class Context:
    root: str  # checkout root
    tmp: str  # scratch directory inside the checkout
    seed: int
    scale: float  # multiplies every duration; 1.0 = shipped inputs
    tracer: object = None  # spans.Tracer while tracing, else None

    def scenario_file(self, name: str, seed: int | None = None) -> str:
        """Copy of a shipped scenario file with durations scaled and, when
        `seed` is given, excitation seed `seed` and noise seed `seed + 1`."""
        parser = configparser.ConfigParser()
        with open(os.path.join(self.root, "scenarios", name)) as fh:
            parser.read_file(fh)
        for section, key in (("run", "duration"), ("disturbance", "t_start"),
                             ("disturbance", "t_end")):
            if parser.has_option(section, key):
                value = parser.getfloat(section, key) * self.scale
                parser.set(section, key, repr(value))
        if seed is not None:
            parser.set("excitation", "seed", str(seed))
            parser.set("run", "noise_seed", str(seed + 1))
        sub = os.path.join(self.tmp, "inputs",
                           "shipped" if seed is None else f"seed{seed}")
        os.makedirs(sub, exist_ok=True)
        path = os.path.join(sub, name)
        with open(path, "w") as fh:
            parser.write(fh)
        return path

    def set_run(self, run_id: int) -> None:
        if self.tracer is not None:
            self.tracer.run_id = run_id


@dataclass
class Outcome:
    """What one measured pass did and how long it took."""

    attempted: int
    failed: int
    samples: int  # input samples processed
    wall_s: float
    samples_per_s: float
    latencies_s: list  # one per operation
    harness: dict = field(default_factory=dict)  # bench.* per-layer metrics
    info: dict = field(default_factory=dict)  # recorded, never gated


def _calibrate(ctx: Context):
    cal = scenario.load_scenario(ctx.scenario_file("calibration.ini"))
    nominal, thresholds, _ = scenario.run_calibration(cal)
    return cal, nominal, thresholds


def _timed_calls(ctx: Context, fn, latencies: list):
    """`fn` with each call timed into `latencies`, one run id per call."""

    def timed(*args, **kwargs):
        ctx.set_run(len(latencies) + 1)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(perf_counter() - t0)

    return timed


def _n_samples(config) -> int:
    return int(round(config.duration / config.ts)) + 1


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# suite: the manifest comparison with artifacts, as `gridarx suite` runs it


def suite_setup(ctx: Context) -> dict:
    _, nominal, thresholds = _calibrate(ctx)
    library = scenario.build_library_from_scenarios(
        [scenario.load_scenario(ctx.scenario_file(n))
         for n in LIBRARY_SCENARIOS],
        nominal, thresholds)
    with open(os.path.join(ctx.root, "scenarios", "manifest.txt")) as fh:
        names = [ln.strip() for ln in fh
                 if ln.strip() and not ln.lstrip().startswith("#")]
    paths = [ctx.scenario_file(n, seed=ctx.seed) for n in names]
    samples = sum(_n_samples(scenario.load_scenario(p)) for p in paths)
    return {"nominal": nominal, "thresholds": thresholds, "library": library,
            "paths": paths, "samples": samples}


def suite_measure(ctx: Context, st: dict, seconds: float) -> Outcome:
    """One pass over the manifest, however long it takes."""
    out_dir = os.path.join(ctx.tmp, "suite")
    latencies = []
    inner = scenario.run_scenario
    scenario.run_scenario = _timed_calls(ctx, inner, latencies)
    ctx.set_run(1)
    t0 = perf_counter()
    try:
        scenario.run_suite(st["paths"], st["nominal"], st["thresholds"],
                           st["library"], out_dir=out_dir)
    except Exception as exc:  # every scenario counts as failed
        error = f"{type(exc).__name__}: {exc}"
    else:
        error = None
    finally:
        wall = perf_counter() - t0
        scenario.run_scenario = inner
    ctx.set_run(CHECK_RUN)

    table = os.path.join(out_dir, "comparison.csv")
    rows, digests = {}, {}
    if error is None:
        with open(table) as fh:
            rows = {(r["scenario"], r["method"]): (r["detected"], r["verdict"])
                    for r in csv.DictReader(fh)}
        digests["comparison.csv"] = _sha256(table)
    names = [os.path.splitext(os.path.basename(p))[0] for p in st["paths"]]
    failed = sum(
        any(rows.get((n, m)) != SUITE_EXPECTED.get((n, m))
            for m in ("rarx", "limit_check"))
        for n in names)
    for n in names:
        for art in SUITE_ARTIFACTS:
            path = os.path.join(out_dir, n, art)
            if os.path.exists(path):
                digests[f"{n}/{art}"] = _sha256(path)
    return Outcome(attempted=len(names), failed=failed, samples=st["samples"],
                   wall_s=wall, samples_per_s=st["samples"] / wall,
                   latencies_s=latencies,
                   info={"error": error, "artifacts_sha256": digests})


# ---------------------------------------------------------------------------
# discriminate: held-out high-impedance fault vs load runs, in memory


def _disc_config(base, name: str, kind: str, value: float, seed: int,
                 scale: float):
    dist = DisturbanceSpec(kind, value, DISC_ON * scale, DISC_OFF * scale)
    cfg = replace(base, name=name, duration=DISC_DURATION * scale,
                  disturbance=dist, noise_seed=seed,
                  match_floor=DISC_MATCH_FLOOR)
    return replace(cfg, excitation=replace(cfg.excitation, seed=seed))


def _disc_library(ctx: Context):
    """Calibration and the two-signature library of the held-out
    experiment: one 600 ohm fault run and one 0.35 p.u. load run, seed 2."""
    base, nominal, thresholds = _calibrate(ctx)
    params = CircuitParams()
    library = scenario.build_library_from_scenarios(
        [_disc_config(base, "hif600_lib", "fault", params.ohms_to_pu(600.0),
                      2, ctx.scale),
         _disc_config(base, "load035_lib", "load", 0.35, 2, ctx.scale)],
        nominal, thresholds)
    return base, nominal, library


def discriminate_setup(ctx: Context) -> dict:
    base, nominal, library = _disc_library(ctx)
    params = CircuitParams()
    runs = []
    for seed in range(ctx.seed + 2, ctx.seed + 2 + DISC_RUNS):
        for name, kind, value, label in (
            ("hif1000", "fault", params.ohms_to_pu(1000.0), Verdict.FAULT),
            ("load05", "load", 0.5, Verdict.LOAD_INCREASE),
        ):
            runs.append((_disc_config(base, f"{name}_s{seed}", kind, value,
                                      seed, ctx.scale), label))
    return {"nominal": nominal, "library": library, "runs": runs}


def discriminate_measure(ctx: Context, st: dict, seconds: float) -> Outcome:
    """All held-out runs, however long they take."""
    latencies = []
    run_one = _timed_calls(
        ctx, lambda cfg: scenario.run_scenario(
            cfg, st["nominal"], DISC_THRESHOLDS, st["library"]),
        latencies)
    failed = 0
    verdicts = {}
    t0 = perf_counter()
    for cfg, label in st["runs"]:
        try:
            verdict = run_one(cfg).final_verdict
        except Exception as exc:  # counted as a failed operation
            verdict = f"error: {exc}"
        verdicts[cfg.name] = getattr(verdict, "value", verdict)
        failed += verdict is not label
    wall = perf_counter() - t0
    ctx.set_run(CHECK_RUN)
    samples = sum(_n_samples(c) for c, _ in st["runs"])
    return Outcome(attempted=len(st["runs"]), failed=failed, samples=samples,
                   wall_s=wall, samples_per_s=samples / wall,
                   latencies_s=latencies,
                   info={"verdicts": verdicts})


# ---------------------------------------------------------------------------
# stream: open-loop block replay of one recorded run


def stream_setup(ctx: Context) -> dict:
    _, nominal, library = _disc_library(ctx)
    config = scenario.load_scenario(
        ctx.scenario_file(STREAM_SCENARIO, seed=ctx.seed))
    sim = scenario.simulate(
        config.circuit, config.disturbance, config.excitation,
        config.duration, config.ts, config.noise_std, config.noise_seed,
        config.i_op)
    # hif_1000ohm.ini pins its thresholds, as run_scenario would use them
    return {"nominal": nominal, "library": library, "config": config,
            "sim": sim, "thresholds": config.thresholds}


def stream_measure(ctx: Context, st: dict, seconds: float) -> Outcome:
    config, sim = st["config"], st["sim"]
    n = sim.t.size
    overlap = config.identifier.order + 1
    period = BLOCK / STREAM_RATE
    n_blocks = min(-(-n // BLOCK), max(1, int(seconds / period)))

    def process(b, state):
        lo = b * BLOCK
        k0 = max(0, lo - overlap)
        hi = min(n, lo + BLOCK)
        block = SimResult(t=sim.t[k0:hi], v_dq=sim.v_dq[k0:hi],
                          i_dq=sim.i_dq[k0:hi], ts=sim.ts)
        run = pipeline.identify(block, config.identifier, state)
        detector.classify_series(run.theta, st["nominal"], st["thresholds"],
                                 st["library"], config.match_floor)
        return run

    if ctx.tracer is not None:
        process = ctx.tracer.span(process, "bench.block")
    thetas, latencies, service, lags = [], [], [], []
    state, failed, backlog_max = None, 0, 0
    t0 = perf_counter() + period
    for b in range(n_blocks):
        due = t0 + b * period
        now = perf_counter()
        if now < due:
            time.sleep(due - now)
            now = perf_counter()
            lags.append(now - due)
        else:
            backlog_max = max(backlog_max, int((now - t0) / period) - b)
        ctx.set_run(b + 1)
        try:
            run = process(b, state)
            state = run.final_state
            thetas.append(run.theta)
        except Exception:  # counted as a failed block
            failed += 1
        done = perf_counter()
        service.append(done - now)
        latencies.append(done - due)
    wall = perf_counter() - t0
    ctx.set_run(CHECK_RUN)

    # Bitwise parity: the blocks together must give exactly the trajectory
    # of one whole-run call over the samples replayed. A mismatch fails
    # every block, since each one carries the state of all before it.
    samples = min(n, n_blocks * BLOCK)
    replayed = SimResult(t=sim.t[:samples], v_dq=sim.v_dq[:samples],
                         i_dq=sim.i_dq[:samples], ts=sim.ts)
    ref = pipeline.identify(replayed, config.identifier).theta
    got = np.concatenate(thetas) if thetas else ref[:0]
    parity = np.array_equal(got, ref)
    if not parity:
        failed = n_blocks
    # The sustainable rate: one block per median service time. A median,
    # because the box's stalls would otherwise decide the figure.
    return Outcome(
        attempted=n_blocks, failed=failed, samples=samples, wall_s=wall,
        samples_per_s=BLOCK / float(np.median(service)),
        latencies_s=latencies,
        harness={
            "bench.gen_lag_p99_ms": (1e3 * float(np.percentile(lags, 99))
                                     if lags else 0.0),
            "bench.backlog_max_blocks": backlog_max,
            "bench.idle_s": wall - sum(service),
        },
        info={"stream_parity_bitwise": bool(parity),
              "theta_rows_compared": int(got.shape[0])})


WORKLOADS = {
    "suite": (suite_setup, suite_measure),
    "discriminate": (discriminate_setup, discriminate_measure),
    "stream": (stream_setup, stream_measure),
}
