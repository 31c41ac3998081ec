"""Scenario configuration, end-to-end runs, and reporting.

Scenario files are INI text (key/value with sections); unset keys fall back
to the built-in `default_profile` (reference circuit values, 5 kHz
sampling, 0.1 p.u. excitation, disturbance window 10 s to 20 s). All
randomness flows from the seeds in the config, so a run is reproducible
byte-for-byte.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import detector as det
from .baseline import VoltageLimits
from .circuit import CircuitParams
from .detector import (
    NominalPredictor,
    SignatureLibrary,
    Thresholds,
    Verdict,
    build_library,
    calibrate_nominal,
    calibrate_thresholds,
    classify_series,
    debounce,
    detection_times,
)
from .pipeline import identify
from .rls import ArxConfig
from .signals import RbsConfig
from .simulate import DisturbanceSpec, SimResult, simulate

FLOAT_FMT = "%.17g"

DEFAULT_CAL_WINDOW = 5000  # snapshots averaged into theta*


class StageError(RuntimeError):
    """Pipeline failure with the responsible stage attached."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    circuit: CircuitParams = CircuitParams()
    disturbance: DisturbanceSpec | None = None
    excitation: RbsConfig | None = RbsConfig(amplitude=0.1, chip_rate=5000.0, seed=1)
    identifier: ArxConfig = ArxConfig()
    thresholds: Thresholds | None = None  # None = auto-calibrate
    duration: float = 30.0
    ts: float = 2e-4
    noise_std: float = 1e-4
    noise_seed: int = 2
    i_op: tuple = (1.0, 0.0)
    match_floor: float = det.DEFAULT_MATCH_FLOOR
    hold: int = det.DEFAULT_HOLD
    limit_fraction: float = 0.1
    calibration_window: int = DEFAULT_CAL_WINDOW

    def echo(self) -> dict:
        dist = None
        if self.disturbance is not None:
            dist = {
                "kind": self.disturbance.kind,
                "value_pu": self.disturbance.value_pu,
                "t_start": self.disturbance.t_start,
                "t_end": self.disturbance.t_end,
            }
        exc = None
        if self.excitation is not None:
            exc = {
                "amplitude": self.excitation.amplitude,
                "chip_rate": self.excitation.chip_rate,
                "seed": self.excitation.seed,
            }
        thr = None
        if self.thresholds is not None:
            thr = {"d_high": self.thresholds.d_high, "d_low": self.thresholds.d_low}
        return {
            "name": self.name,
            "circuit": {
                k: getattr(self.circuit, k)
                for k in ("v_base", "s_base", "f_base", "r1", "c1", "r2", "l2",
                          "r3", "l3", "lf1", "lf2", "cf")
            },
            "disturbance": dist,
            "excitation": exc,
            "identifier": {
                "order": self.identifier.order,
                "input_dim": self.identifier.input_dim,
                "output_dim": self.identifier.output_dim,
                "forgetting": self.identifier.forgetting,
                "p0_scale": self.identifier.p0_scale,
                "p_max": self.identifier.covariance_ceiling,
            },
            "thresholds": thr,
            "duration": self.duration,
            "ts": self.ts,
            "noise_std": self.noise_std,
            "noise_seed": self.noise_seed,
            "i_op": list(self.i_op),
            "match_floor": self.match_floor,
            "hold": self.hold,
            "limit_fraction": self.limit_fraction,
            "calibration_window": self.calibration_window,
        }


def default_profile(name: str = "default_profile") -> ScenarioConfig:
    """Built-in reference experiment profile."""
    return ScenarioConfig(name=name)


def load_scenario(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse an INI scenario file on top of the default profile.

    Recognized sections: [run], [circuit], [disturbance], [excitation],
    [identifier], [thresholds]. Disturbance impedance may be given in p.u.
    (r_fault_pu / l_load_pu) or physical units (r_fault_ohm / l_load_h).
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    base = default_profile(name=os.path.splitext(os.path.basename(path))[0])
    overrides = overrides or {}

    def fget(section, key, fallback):
        if section in parser and key in parser[section]:
            return parser[section].getfloat(key)
        return fallback

    def iget(section, key, fallback):
        if section in parser and key in parser[section]:
            return parser[section].getint(key)
        return fallback

    circ_kwargs = {}
    for key in ("v_base", "s_base", "f_base", "r1", "c1", "r2", "l2", "r3",
                "l3", "lf1", "lf2", "cf"):
        val = fget("circuit", key, None)
        if val is not None:
            circ_kwargs[key] = val
    circuit = CircuitParams(**{**CircuitParams().__dict__, **circ_kwargs}) \
        if circ_kwargs else base.circuit

    disturbance = base.disturbance
    if "disturbance" in parser:
        sec = parser["disturbance"]
        kind = sec.get("kind", "none").strip().lower()
        if kind in ("none", "off"):
            disturbance = None
        else:
            t_start = sec.getfloat("t_start", 10.0)
            t_end = sec.getfloat("t_end", 20.0)
            if kind == "fault":
                pu_key, si_key, to_pu = ("r_fault_pu", "r_fault_ohm",
                                         circuit.ohms_to_pu)
            elif kind == "load":
                pu_key, si_key, to_pu = ("l_load_pu", "l_load_h",
                                         circuit.henries_to_pu)
            else:
                raise ValueError(f"unknown disturbance kind {kind!r} in {path}")
            if pu_key in sec:
                value = sec.getfloat(pu_key)
            elif si_key in sec:
                value = to_pu(sec.getfloat(si_key))
            else:
                raise ValueError(
                    f"{path}: [disturbance] kind = {kind} needs a value: "
                    f"set {pu_key} or {si_key}"
                )
            disturbance = DisturbanceSpec(kind, value, t_start, t_end)

    excitation = base.excitation
    if "excitation" in parser:
        sec = parser["excitation"]
        if sec.get("enabled", "true").strip().lower() in ("false", "no", "0"):
            excitation = None
        else:
            excitation = RbsConfig(
                amplitude=sec.getfloat("amplitude", 0.1),
                chip_rate=sec.getfloat("chip_rate", 5000.0),
                seed=sec.getint("seed", 1),
            )
    if "seed" in overrides and excitation is not None:
        excitation = replace(excitation, seed=int(overrides["seed"]))

    identifier = ArxConfig(
        order=int(overrides.get("rho", iget("identifier", "order", 3))),
        forgetting=float(
            overrides.get("forgetting", fget("identifier", "forgetting", 0.999))
        ),
        p0_scale=fget("identifier", "p0_scale", 1e4),
        p_max=fget("identifier", "p_max", None),
    )

    thresholds = None
    if "thresholds" in parser:
        sec = parser["thresholds"]
        if sec.get("mode", "auto").strip().lower() != "auto":
            thresholds = Thresholds(
                d_high=sec.getfloat("d_high"), d_low=sec.getfloat("d_low")
            )

    return ScenarioConfig(
        name=base.name,
        circuit=circuit,
        disturbance=disturbance,
        excitation=excitation,
        identifier=identifier,
        thresholds=thresholds,
        duration=fget("run", "duration", base.duration),
        ts=fget("run", "ts", base.ts),
        noise_std=fget("run", "noise_std", base.noise_std),
        noise_seed=iget("run", "noise_seed", base.noise_seed),
        match_floor=fget("run", "match_floor", base.match_floor),
        hold=iget("run", "hold", base.hold),
        limit_fraction=fget("run", "limit_fraction", base.limit_fraction),
        calibration_window=iget("run", "calibration_window",
                                base.calibration_window),
    )


# ---------------------------------------------------------------------------
# artifact writers


def write_samples_csv(path: str, sim: SimResult) -> None:
    data = np.column_stack([sim.t, sim.v_dq, sim.i_dq])
    np.savetxt(path, data, fmt=FLOAT_FMT, delimiter=",",
               header="t,v_d,v_q,i_d,i_q", comments="")


# Relative tolerance on the sample step of a recorded time grid: a grid
# computed as arange * ts has steps that differ by a few ulps of t.
TIME_GRID_RTOL = 1e-6


def read_samples_csv(path: str) -> SimResult:
    """Read a samples.csv written by `write_samples_csv`.

    The time column must be a uniform grid of at least two samples; ts is
    its first step.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: need at least 2 samples, got {data.shape[0]}")
    t = data[:, 0]
    steps = np.diff(t)
    ts = float(steps[0])
    if not np.all(steps > 0.0):
        k = int(np.argmin(steps > 0.0)) + 1
        raise ValueError(f"{path}: t does not increase at sample {k}")
    off_grid = np.abs(steps - ts) > TIME_GRID_RTOL * ts
    if np.any(off_grid):
        k = int(np.argmax(off_grid)) + 1
        raise ValueError(
            f"{path}: non-uniform time grid at sample {k}: step "
            f"{steps[k - 1]:.17g}, expected {ts:.17g}"
        )
    return SimResult(t=t, v_dq=data[:, 1:3], i_dq=data[:, 3:5], ts=ts)


def write_distance_csv(path: str, t, d) -> None:
    np.savetxt(path, np.column_stack([t, d]), fmt=FLOAT_FMT, delimiter=",",
               header="t,d", comments="")


def write_theta_csv(path: str, t, thetas, stride: int = 50) -> None:
    thetas = np.asarray(thetas)
    m, rows, cols = thetas.shape
    sel = np.arange(0, m, stride)
    header = "t," + ",".join(
        f"theta_{'dq'[r]}_{c + 1}" for r in range(rows) for c in range(cols)
    )
    data = np.column_stack([np.asarray(t)[sel], thetas[sel].reshape(sel.size, -1)])
    np.savetxt(path, data, fmt=FLOAT_FMT, delimiter=",", header=header,
               comments="")


def read_theta_csv(path: str, rows: int = 2):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    t = data[:, 0]
    cols = (data.shape[1] - 1) // rows
    return t, data[:, 1:].reshape(-1, rows, cols)


def calibration_to_json(nominal: NominalPredictor, thresholds: Thresholds,
                        config: ScenarioConfig) -> str:
    return json.dumps(
        {
            "theta_star": nominal.theta_star.tolist(),
            "calibration_window": nominal.calibration_window,
            "calibrated_at": nominal.calibrated_at,
            "d_high": thresholds.d_high,
            "d_low": thresholds.d_low,
            "config": config.echo(),
        },
        indent=2,
    )


def calibration_from_json(text: str):
    doc = json.loads(text)
    nominal = NominalPredictor(
        theta_star=np.array(doc["theta_star"]),
        calibration_window=doc["calibration_window"],
        calibrated_at=doc["calibrated_at"],
    )
    thresholds = Thresholds(d_high=doc["d_high"], d_low=doc["d_low"])
    return nominal, thresholds


# ---------------------------------------------------------------------------
# end-to-end runs


def run_calibration(config: ScenarioConfig, out_dir: str | None = None):
    """Fault-free run producing the nominal predictor and auto thresholds.

    Returns (nominal, thresholds, ident_run). The distance series used for
    threshold calibration is measured against theta* over the post-burn-in
    portion of the same run.
    """
    cal_config = replace(config, disturbance=None)
    try:
        sim = simulate(
            cal_config.circuit, None, cal_config.excitation,
            cal_config.duration, cal_config.ts, cal_config.noise_std,
            cal_config.noise_seed, cal_config.i_op,
        )
    except Exception as exc:
        raise StageError("simulate", str(exc)) from exc
    run = identify(sim, cal_config.identifier)
    if not run.final_state.calibrated:
        raise StageError(
            "identify",
            f"run too short: {run.final_state.sample_count} updates, "
            f"burn-in needs {cal_config.identifier.burn_in}",
        )
    mask = run.calibrated
    window = min(cal_config.calibration_window, int(np.sum(mask)))
    snapshots = list(zip(run.t[mask], run.theta[mask]))
    nominal = calibrate_nominal(snapshots, window)
    # threshold calibration uses the settled window only: the estimator's
    # cold-start convergence transient is not nominal operation
    d_nominal = run.distances(nominal.theta_star)[mask][-window:]
    thresholds = (config.thresholds if config.thresholds is not None
                  else calibrate_thresholds(d_nominal))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "calibration.json"), "w") as fh:
            fh.write(calibration_to_json(nominal, thresholds, cal_config))
    return nominal, thresholds, run


@dataclass
class RunReport:
    name: str
    thresholds: Thresholds
    dt1_high: float | None
    dt1_low: float | None
    dt2: float | None
    dt1_high_debounced: float | None
    dt1_low_debounced: float | None
    final_verdict: Verdict
    verdict_timeline: list  # [(t, verdict str), ...] debounced transitions
    baseline_detected: bool
    baseline_first_violation: float | None
    config_echo: dict = field(default_factory=dict)
    library_provenance: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "thresholds": {"d_high": self.thresholds.d_high,
                           "d_low": self.thresholds.d_low},
            "dt1_high": self.dt1_high,
            "dt1_low": self.dt1_low,
            "dt2": self.dt2,
            "dt1_high_debounced": self.dt1_high_debounced,
            "dt1_low_debounced": self.dt1_low_debounced,
            "final_verdict": self.final_verdict.value,
            "verdict_timeline": [(t, v) for t, v in self.verdict_timeline],
            "baseline": {
                "detected": self.baseline_detected,
                "first_violation": self.baseline_first_violation,
            },
            "config": self.config_echo,
            "library_provenance": self.library_provenance,
            "warnings": self.warnings,
        }
        return json.dumps(doc, indent=2)


def _first_time(t, mask, t_start):
    hits = mask & (t >= t_start)
    return float(t[hits][0] - t_start) if np.any(hits) else None


def _transitions(t, verdicts):
    out = []
    prev = None
    for tk, v in zip(t, verdicts):
        if v != prev:
            out.append((float(tk), v.value))
            prev = v
    return out


def run_scenario(
    config: ScenarioConfig,
    nominal: NominalPredictor,
    thresholds: Thresholds,
    library: SignatureLibrary | None = None,
    out_dir: str | None = None,
    theta_stride: int = 50,
) -> RunReport:
    """Full pipeline for one scenario: simulate, identify, classify, report.

    Writes samples/distance/theta CSVs, an events JSON-lines stream, and a
    JSON report when `out_dir` is given. Thresholds pinned in the scenario
    config take precedence over the calibration-supplied ones.
    """
    if config.thresholds is not None:
        thresholds = config.thresholds
    library = library or SignatureLibrary(order=config.identifier.order)
    warnings = []
    try:
        sim = simulate(
            config.circuit, config.disturbance, config.excitation,
            config.duration, config.ts, config.noise_std, config.noise_seed,
            config.i_op,
        )
    except Exception as exc:
        raise StageError("simulate", str(exc)) from exc
    try:
        run = identify(sim, config.identifier)
    except Exception as exc:
        raise StageError("identify", str(exc)) from exc

    try:
        d, verdicts, similarity = classify_series(
            run.theta, nominal, thresholds, library, config.match_floor
        )
    except Exception as exc:
        raise StageError("detector", str(exc)) from exc
    # The estimator restarts from scratch in each run and needs the same
    # settling time the nominal predictor was calibrated with; until then
    # the distance reflects cold-start convergence, not the grid. Keep the
    # detector disarmed over that initial stretch.
    armed = run.calibrated.copy()
    armed[: config.calibration_window] = False
    for k in np.nonzero(~armed)[0]:
        verdicts[k] = Verdict.NORMAL
    stable = debounce(verdicts, config.hold)

    if config.disturbance is not None:
        t_start, t_end = config.disturbance.t_start, config.disturbance.t_end
    else:
        t_start, t_end = config.duration, config.duration
    if t_start >= config.duration:
        warnings.append(
            "disturbance window starts at or after the run end; "
            "detection delays are reported as never"
        )

    dt1_high, dt2 = detection_times(run.t[armed], d[armed], t_start,
                                    t_end, thresholds, trip="high")
    dt1_low, _ = detection_times(run.t[armed], d[armed], t_start,
                                 t_end, thresholds, trip="low")
    # debounced delays: first stable fault verdict / first stable
    # non-normal verdict after t_start
    is_fault = np.array([v is Verdict.FAULT for v in stable])
    not_normal = np.array([v is not Verdict.NORMAL for v in stable])
    dt1_high_db = _first_time(run.t, is_fault & armed, t_start)
    dt1_low_db = _first_time(run.t, not_normal & armed, t_start)

    # Final classification from the quasi-steady estimate: the mean theta
    # over the settled half of the disturbance window (or the run tail when
    # there is no disturbance), classified once. Averaging suppresses the
    # sample-to-sample estimator jitter that makes per-sample verdicts
    # flicker near the thresholds.
    if config.disturbance is not None and t_start < config.duration:
        settle = (run.t >= (t_start + t_end) / 2.0) & (run.t < t_end)
    else:
        settle = run.t >= config.duration / 2.0
    settle &= armed
    if np.any(settle):
        theta_settled = run.theta[settle].mean(axis=0)
        final_event = det.classify(
            theta_settled, nominal, thresholds, library,
            match_floor=config.match_floor,
        )
        final_verdict = final_event.verdict
    else:
        final_verdict = Verdict.NORMAL

    # Baseline limit checking, banded around the nominal operating point.
    # A limit relay measures the fundamental component, so the broadband
    # excitation ripple is removed with a trailing one-cycle average before
    # the band test.
    v_eq = _nominal_pcc_voltage(config)
    limits = VoltageLimits.around(v_eq, config.limit_fraction)
    v_rms = _cycle_average(sim.v_dq, config.ts, config.circuit.f_base)
    viol = (
        (v_rms[:, 0] <= limits.vd_min) | (v_rms[:, 0] >= limits.vd_max)
        | (v_rms[:, 1] <= limits.vq_min) | (v_rms[:, 1] >= limits.vq_max)
    )
    in_window = (sim.t >= t_start) & (sim.t < t_end)
    baseline_hits = viol & in_window
    baseline_detected = bool(np.any(baseline_hits))
    baseline_first = (
        float(sim.t[baseline_hits][0]) if baseline_detected else None
    )

    report = RunReport(
        name=config.name,
        thresholds=thresholds,
        dt1_high=dt1_high,
        dt1_low=dt1_low,
        dt2=dt2,
        dt1_high_debounced=dt1_high_db,
        dt1_low_debounced=dt1_low_db,
        final_verdict=final_verdict,
        verdict_timeline=_transitions(run.t, stable),
        baseline_detected=baseline_detected,
        baseline_first_violation=baseline_first,
        config_echo=config.echo(),
        library_provenance=[s.source_scenario for s in library.signatures],
        warnings=warnings,
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_samples_csv(os.path.join(out_dir, "samples.csv"), sim)
        write_distance_csv(os.path.join(out_dir, "distance.csv"), run.t, d)
        write_theta_csv(os.path.join(out_dir, "theta.csv"), run.t, run.theta,
                        stride=theta_stride)
        with open(os.path.join(out_dir, "events.jsonl"), "w") as fh:
            for tk, v in report.verdict_timeline:
                idx = int(np.searchsorted(run.t, tk))
                fh.write(json.dumps({
                    "t": tk, "verdict": v, "d": float(d[min(idx, d.size - 1)]),
                }) + "\n")
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(report.to_json())
    return report


def _cycle_average(v: np.ndarray, ts: float, f_base: float) -> np.ndarray:
    """Causal moving average over one fundamental cycle, per column."""
    n = max(1, int(round(1.0 / (f_base * ts))))
    if n == 1:
        return v
    kern = np.ones(n) / n
    out = np.empty_like(v)
    for col in range(v.shape[1]):
        out[:, col] = np.convolve(v[:, col], kern)[: v.shape[0]]
    # warm the average up from the first sample instead of zero history
    counts = np.minimum(np.arange(1, v.shape[0] + 1), n)
    return out * (n / counts)[:, None]


def _nominal_pcc_voltage(config: ScenarioConfig) -> np.ndarray:
    from .circuit import full_circuit_model
    from .simulate import equilibrium

    model = full_circuit_model(config.circuit, None)
    x0 = equilibrium(model, np.asarray(config.i_op, float),
                     np.array([1.0, 0.0]))
    return model.C @ x0


def build_library_from_scenarios(
    configs, nominal: NominalPredictor, thresholds: Thresholds
) -> SignatureLibrary:
    """Run each labeled offline scenario and record its signature."""
    runs = []
    order = None
    for config in configs:
        if config.disturbance is None:
            raise ValueError(
                f"scenario {config.name!r} has no disturbance; cannot label it"
            )
        label = (Verdict.FAULT if config.disturbance.kind == "fault"
                 else Verdict.LOAD_INCREASE)
        sim = simulate(
            config.circuit, config.disturbance, config.excitation,
            config.duration, config.ts, config.noise_std, config.noise_seed,
            config.i_op,
        )
        run = identify(sim, config.identifier)
        runs.append((
            label, run.t, run.theta,
            config.disturbance.t_start, config.disturbance.t_end, config.name,
        ))
        order = config.identifier.order
    return build_library(runs, nominal, thresholds, order)


def run_suite(
    scenario_paths,
    nominal: NominalPredictor,
    thresholds: Thresholds,
    library: SignatureLibrary | None = None,
    out_dir: str | None = None,
    overrides: dict | None = None,
):
    """Run every scenario in the manifest; failures are isolated per row.

    Returns (reports dict, table rows). Each scenario contributes one row
    for the parameter-deviation method and one for voltage limit-checking.
    """
    reports = {}
    rows = []
    for path in scenario_paths:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            config = load_scenario(path, overrides)
            scen_out = (os.path.join(out_dir, name) if out_dir is not None
                        else None)
            report = run_scenario(config, nominal, thresholds, library,
                                  out_dir=scen_out)
        except Exception as exc:
            rows.append([name, "rarx", "error", str(exc), "", ""])
            rows.append([name, "limit_check", "error", str(exc), "", ""])
            reports[name] = None
            continue
        reports[name] = report
        detected = report.final_verdict is not Verdict.NORMAL
        dt1 = report.dt1_high if report.dt1_high is not None else report.dt1_low
        rows.append([
            name, "rarx",
            "detected" if detected else "not_detected",
            report.final_verdict.value,
            "never" if dt1 is None else f"{dt1:.6g}",
            "never" if report.dt2 is None else f"{report.dt2:.6g}",
        ])
        rows.append([
            name, "limit_check",
            "detected" if report.baseline_detected else "not_detected",
            "fault" if report.baseline_detected else "normal",
            ("never" if report.baseline_first_violation is None
             else f"{report.baseline_first_violation:.6g}"),
            "",
        ])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "comparison.csv"), "w") as fh:
            fh.write("scenario,method,detected,verdict,dt1,dt2\n")
            for row in rows:
                fh.write(",".join(str(c) for c in row) + "\n")
    return reports, rows
