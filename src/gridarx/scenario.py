"""Scenario configuration, end-to-end runs, and reporting.

Scenario files are INI text (key/value with sections); unset keys fall back
to the built-in `default_profile` (reference circuit values, 5 kHz
sampling, 0.1 p.u. excitation, no disturbance); a disturbance whose file
sets no window runs from 10 s to 20 s. All randomness flows from the seeds
in the config, so a run is reproducible byte-for-byte.

A run is one loop over the simulator's blocks of SIMULATE_BLOCK samples.
One generator (`_simulate_identify`) identifies each block as it arrives,
with copies of the stream's last `order + 1` samples prepended, for a
run, a calibration and a library build alike; the simulator and the
estimator each carry their state from block to block, which gives
bitwise the run of one call over the whole stream. A run hands each
block's samples to the baseline, which carries its one-cycle average,
and each block's IdentRun to its `Detector`, which holds what the
detector carries across blocks: the debounce and the first crossings,
taken in one kernel call per block (`_kernels.debounce_block`, which
updates the debounce's state and the first times, NaN until found, in
place), the count of transitions and, of the predictor trajectory, only
the running sum of the settle-window rows whose mean gives the final
verdict (`detector.RunningMean`). Each block's transitions go to
`events.jsonl` as they come, the run's one record of them; the run's
RunReport, whose fields are the keys of its `report.json`, counts them
and turns a first time still NaN into None. Each block's rows go to the
artifact files as they arrive, written by the run's own process as the
float64 bytes of three `.npy` files, whose headers the config fixes up
front: the samples (`samples.npy`), the distances (`distance.npy`) and
every THETA_STRIDE-th predictor (`theta.npy`); no value is formatted as
text.
A run lets go of each block before it asks for the next, so it holds one
block at a time: its memory depends on the block size, not on its length
or its disturbance window.

Every run simulates and identifies its own stream from its first sample:
the runs of one `run_suite` or `build_library_from_scenarios` call share
no rows and no estimator state, so each run's artifacts are bitwise those
of a lone `run_scenario`, and a suite holds one run's blocks at a time.
Only the simulator keeps something across runs: where the current noise
of a run starts, worked out once per noise seed and run length
(`simulate._noise_start`).
"""

from __future__ import annotations

import bisect
import configparser
import contextlib
import csv
import io
import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import _kernels
from . import detector as det
from .baseline import VoltageLimits, limit_check
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
    distances,
)
from .pipeline import identify
from .rls import ArxConfig
from .signals import RbsConfig
from .simulate import (
    DisturbanceSpec,
    SIMULATE_BLOCK,
    SimResult,
    disturbance_inside,
    sample_count,
    simulate_blocks,
)
# Not called here: kept as module attributes so that tools which wrap
# `gridarx.scenario.simulate` and `.debounce` by name still resolve them.
from .detector import debounce  # noqa: F401
from .simulate import simulate  # noqa: F401

FLOAT_FMT = "%.17g"

DEFAULT_CAL_WINDOW = 5000  # snapshots averaged into theta*

# theta.npy (and write_theta_csv) holds the predictor after every
# THETA_STRIDE-th update.
THETA_STRIDE = 50


class StageError(RuntimeError):
    """Pipeline failure with the responsible stage attached."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# The most samples one fundamental cycle may span (see ScenarioConfig).
MAX_CYCLE_SAMPLES = 10_000


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's settings. The run settings are checked on construction,
    and the excitation's chip rate against the sampling rate; each error
    names the scenario file's section and key. The other sections check
    themselves in their own dataclasses."""

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

    def __post_init__(self):
        for key, ok, need in (
                ("duration", self.duration > 0, "> 0"),
                ("ts", self.ts > 0, "> 0"),
                ("noise_std", self.noise_std >= 0, ">= 0"),
                ("noise_seed", self.noise_seed >= 0, ">= 0"),
                # a cosine similarity lies in [-1, 1]
                ("match_floor", -1 <= self.match_floor <= 1, "in [-1, 1]"),
                ("hold", self.hold >= 1, ">= 1"),
                ("limit_fraction", self.limit_fraction > 0, "> 0"),
                ("calibration_window", self.calibration_window >= 1, ">= 1"),
                # the debounce kernel takes both as a C ssize_t
                ("hold", self.hold <= sys.maxsize, f"<= {sys.maxsize}"),
                ("calibration_window", self.calibration_window <= sys.maxsize,
                 f"<= {sys.maxsize}")):
            value = getattr(self, key)
            if isinstance(value, float) and not math.isfinite(value):
                ok, need = False, "finite"
            if not ok:
                raise ValueError(f"[run] {key}: must be {need}, got {value!r}")
        # The baseline's one-cycle average (`_CycleAverage`) sums a window
        # of 1 / (f_base ts) samples: under 2 there is no cycle to average,
        # and beyond MAX_CYCLE_SAMPLES the window it carries grows too long
        # to hold (at f_base = 1e-300 it cannot even be allocated).
        f_base = self.circuit.f_base
        lo, hi = 1.0 / (MAX_CYCLE_SAMPLES * self.ts), 1.0 / (2.0 * self.ts)
        if not lo <= f_base <= hi:
            raise ValueError(
                f"[circuit] f_base: must be in [{lo:g}, {hi:g}] Hz, 2 to "
                f"{MAX_CYCLE_SAMPLES} samples per cycle at ts = {self.ts!r}, "
                f"got {f_base!r}")
        if self.excitation is None:
            return
        # the sampling-rate check of signals.RbsStream, with its 1e-9 Hz slack
        rate, chip_rate = 1.0 / self.ts, self.excitation.chip_rate
        if chip_rate > rate + 1e-9:
            raise ValueError(
                f"[excitation] chip_rate: must be <= the sampling rate 1/ts = "
                f"{rate!r}, got {chip_rate!r}")
        # RbsStream holds each chip for round(rate / chip_rate) samples, so
        # another rate would run as one the config does not say; 1e-9 of
        # the chip length allows for the rounding of 1/ts and the division
        per_chip = rate / chip_rate
        if abs(per_chip - np.rint(per_chip)) > 1e-9 * per_chip:
            raise ValueError(
                f"[excitation] chip_rate: must divide the sampling rate 1/ts "
                f"= {rate!r} into a whole number of samples per chip, got "
                f"{chip_rate!r} ({per_chip:.6g} samples)")

    def echo(self) -> dict:
        """The config as plain JSON-ready data; the identifier reports the
        effective covariance ceiling as p_max."""
        doc = asdict(self)
        doc["identifier"]["p_max"] = self.identifier.covariance_ceiling
        return doc


def default_profile(name: str = "default_profile") -> ScenarioConfig:
    """Built-in reference experiment profile."""
    return ScenarioConfig(name=name)


# The keys each scenario section accepts, with the type each is read as;
# anything else is an error.
SCENARIO_SCHEMA = {
    "run": {"duration": float, "ts": float, "noise_std": float,
            "noise_seed": int, "match_floor": float, "hold": int,
            "limit_fraction": float, "calibration_window": int},
    "circuit": {f.name: float for f in fields(CircuitParams)},
    "disturbance": {"kind": str, "t_start": float, "t_end": float,
                    "r_fault_pu": float, "r_fault_ohm": float,
                    "l_load_pu": float, "l_load_h": float},
    "excitation": {"enabled": bool, "amplitude": float, "chip_rate": float,
                   "seed": int},
    "identifier": {"order": int, "forgetting": float, "p0_scale": float,
                   "p_max": float},
    "thresholds": {"mode": str, "d_high": float, "d_low": float},
}

# How a value of each schema type is read, and what its error expects.
_READERS = {
    float: (float, "a number"),
    int: (int, "an integer"),
    # configparser strips the values it reads
    bool: (lambda text: configparser.ConfigParser.BOOLEAN_STATES[
        text.lower()], "true or false"),
    str: (str.lower, None),
}

# The keys of a disturbance's value by kind: in p.u., in physical units,
# and the CircuitParams method that converts the latter to p.u.
_VALUE_KEYS = {
    "fault": ("r_fault_pu", "r_fault_ohm", CircuitParams.ohms_to_pu),
    "load": ("l_load_pu", "l_load_h", CircuitParams.henries_to_pu),
}


def _read_keys(path: str, parser: configparser.ConfigParser) -> dict:
    """The values the file sets, {section: {key: value}} with a dict for
    every SCENARIO_SCHEMA section, each read as its schema type. A section
    or key outside the schema, or a value that does not read or is not
    finite, raises ValueError naming the file, the section and the key."""
    sections = parser.sections()
    if parser.defaults():
        sections = [parser.default_section] + sections
    given = {section: {} for section in SCENARIO_SCHEMA}
    for section in sections:
        if section not in SCENARIO_SCHEMA:
            raise ValueError(
                f"{path}: [{section}]: unknown section; expected one of "
                f"{', '.join(f'[{s}]' for s in SCENARIO_SCHEMA)}"
            )
        schema = SCENARIO_SCHEMA[section]
        for key, raw in parser[section].items():
            if key not in schema:
                raise ValueError(
                    f"{path}: [{section}] {key}: unknown key; expected one "
                    f"of {', '.join(schema)}"
                )
            read, expected = _READERS[schema[key]]
            try:
                value = read(raw)
            except (KeyError, ValueError):
                raise ValueError(f"{path}: [{section}] {key}: expected "
                                 f"{expected}, got {raw!r}") from None
            # no key of a scenario takes nan or inf: each would surface late,
            # in the simulator or the estimator, or be silently ignored
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"{path}: [{section}] {key}: must be finite, got {raw!r}")
            given[section][key] = value
    return given


def _reject(where: str, keys, unless: str) -> None:
    """Raise ValueError for the first of `keys`, if any: keys set in `where`
    (the file and the section) that nothing reads unless `unless`."""
    if keys:
        raise ValueError(f"{where} {next(iter(keys))}: ignored unless {unless}")


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError of which is raised again with
    `where` (the file, and the section if the error does not name it) in
    front of its message."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from None


def load_scenario(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse an INI scenario file on top of the default profile.

    Recognized sections and keys are those of SCENARIO_SCHEMA; an unknown
    section or key, a value that does not parse, is not finite or is out of
    range, a missing required value, or a key that the rest of the file
    makes unread (d_high without mode = manual, a value of another
    disturbance kind or of a disabled excitation, both units of one
    disturbance value) raises ValueError naming the file, the section and
    the key. A bad override is not the file's: its error names the option
    (`--seed`, `--rho` or `--lambda`) instead of the path, as does a seed
    override for a scenario whose excitation is disabled.
    Disturbance impedance may be given in p.u. (r_fault_pu / l_load_pu) or
    physical units (r_fault_ohm / l_load_h).
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    given = _read_keys(path, parser)
    base = default_profile(name=os.path.splitext(os.path.basename(path))[0])
    overrides = overrides or {}

    circuit = _build(f"{path}: [circuit]", replace, base.circuit,
                     **given["circuit"])

    values, where = given["disturbance"], f"{path}: [disturbance]"
    kind = values.pop("kind", "none")
    disturbance = None
    if kind in ("none", "off"):
        _reject(where, values, "kind = fault or load")
    elif kind not in _VALUE_KEYS:
        raise ValueError(f"{where} kind: unknown kind {kind!r}; expected one "
                         "of fault, load, none")
    else:
        pu_key, si_key, to_pu = _VALUE_KEYS[kind]
        # no dataclass holds a default disturbance window
        t_start, t_end = values.pop("t_start", 10.0), values.pop("t_end", 20.0)
        if pu_key in values and si_key in values:
            raise ValueError(f"{where} {si_key}: ignored unless {pu_key} is "
                             "unset; set one of them")
        if pu_key in values:
            key, value = pu_key, values.pop(pu_key)
        elif si_key in values:
            key, value = si_key, to_pu(circuit, values.pop(si_key))
        else:
            raise ValueError(f"{where} kind = {kind} needs a value: set "
                             f"{pu_key} or {si_key}")
        other = "load" if kind == "fault" else "fault"
        _reject(where, values, f"kind = {other}")
        disturbance = _build(where, DisturbanceSpec, kind, value, t_start,
                             t_end)
        # a finite value can still overflow the model the simulator builds
        from .circuit import full_circuit_model
        _build(f"{where} {key}:", full_circuit_model, circuit,
               (kind, disturbance.value_pu))

    values, where = given["excitation"], f"{path}: [excitation]"
    excitation = None
    if values.pop("enabled", True):
        excitation = _build(where, replace, base.excitation, **values)
        if "seed" in overrides:
            excitation = _build("--seed:", replace, excitation,
                                seed=int(overrides["seed"]))
    else:
        _reject(where, values, "enabled = true")
        if "seed" in overrides:
            raise ValueError("--seed: ignored unless the scenario's "
                             "[excitation] enabled = true")

    identifier = _build(f"{path}: [identifier]", replace, base.identifier,
                        **given["identifier"])
    # an override's error is not the file's: it names the option instead
    if "rho" in overrides:
        identifier = _build("--rho:", replace, identifier,
                            order=int(overrides["rho"]))
    if "forgetting" in overrides:
        identifier = _build("--lambda:", replace, identifier,
                            forgetting=float(overrides["forgetting"]))

    values, where = given["thresholds"], f"{path}: [thresholds]"
    mode = values.pop("mode", "auto")
    thresholds = None
    if mode == "manual":
        for key in ("d_high", "d_low"):
            if key not in values:
                raise ValueError(f"{where} {key}: mode = manual needs a value")
        thresholds = _build(where, Thresholds, **values)
    elif mode == "auto":
        _reject(where, values, "mode = manual")
    else:
        raise ValueError(f"{where} mode: unknown mode {mode!r}; expected auto "
                         "or manual")

    return _build(f"{path}:", replace, base, circuit=circuit,
                  disturbance=disturbance, excitation=excitation,
                  identifier=identifier, thresholds=thresholds, **given["run"])


# ---------------------------------------------------------------------------
# artifact writers


class _NpyWriter:
    """A `.npy` file (NumPy's format, NEP 1) of a little-endian float64
    array of `shape`, written as its rows arrive: the header, which holds
    the shape, first, then each block's rows as their bytes, so that
    `np.load` gives back the exact values once all the rows are written."""

    def __init__(self, fh, shape: tuple):
        self.fh = fh
        np.lib.format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": shape})

    def write(self, data: np.ndarray) -> None:
        """Append the rows of the 2-D float array `data`."""
        self.fh.write(np.ascontiguousarray(data, "<f8"))


def _write_csv(path: str, header: str, data: np.ndarray) -> None:
    """Write a header line and the rows of a 2-D float array as CSV, every
    value with FLOAT_FMT."""
    np.savetxt(path, data, fmt=FLOAT_FMT, delimiter=",", header=header,
               comments="")


SAMPLES_HEADER = "t,v_d,v_q,i_d,i_q"
DISTANCE_HEADER = "t,d"


def _samples_rows(sim: SimResult) -> np.ndarray:
    return np.column_stack([sim.t, sim.v_dq, sim.i_dq])


def write_samples_csv(path: str, sim: SimResult) -> None:
    """samples.csv of a simulated stream."""
    _write_csv(path, SAMPLES_HEADER, _samples_rows(sim))


def write_distance_csv(path: str, t, d) -> None:
    """distance.csv of the distances d at times t."""
    _write_csv(path, DISTANCE_HEADER, np.column_stack([t, d]))


def _theta_header(rows: int, cols: int) -> str:
    return "t," + ",".join(
        f"theta_{'dq'[r]}_{c + 1}" for r in range(rows) for c in range(cols)
    )


def _theta_rows(t, thetas, first: int, stride: int) -> np.ndarray:
    """theta.npy rows of the predictors `thetas` at times t, the first of
    them after update `first`: those after every `stride`-th update."""
    sel = slice(-first % stride, None, stride)
    thetas = np.asarray(thetas)[sel]
    flat = thetas.reshape(thetas.shape[0], thetas.shape[1] * thetas.shape[2])
    return np.column_stack([np.asarray(t)[sel], flat])


def write_theta_csv(path: str, t, thetas,
                    stride: int = THETA_STRIDE) -> None:
    """theta.csv of every `stride`-th predictor."""
    thetas = np.asarray(thetas)
    _, rows, cols = thetas.shape
    _write_csv(path, _theta_header(rows, cols),
               _theta_rows(t, thetas, 0, stride))


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
    """(nominal, thresholds) of `calibration_to_json` output. A document
    that is not an object, a calibration_window that is not an integer
    >= 1, another value that is not a finite number (a bool is not one),
    or a theta_star that is not a list of lists of them, raises ValueError
    naming the key."""
    doc = det.json_typed(json.loads(text), dict, "top level")
    for key in ("calibration_window", "calibrated_at", "d_high", "d_low"):
        det.json_numbers(doc[key], key, 0)
    det.json_count(doc["calibration_window"], "calibration_window")
    nominal = NominalPredictor(
        theta_star=det.json_numbers(doc["theta_star"], "theta_star", 2),
        calibration_window=doc["calibration_window"],
        calibrated_at=doc["calibrated_at"],
    )
    thresholds = Thresholds(d_high=doc["d_high"], d_low=doc["d_low"])
    return nominal, thresholds


# ---------------------------------------------------------------------------
# end-to-end runs


def _simulated(config: ScenarioConfig):
    """The scenario's simulator blocks of SIMULATE_BLOCK samples, as
    `simulate_blocks` yields them; a failure raises StageError tagged
    with the simulate stage."""
    try:
        yield from simulate_blocks(
            config.circuit, config.disturbance, config.excitation,
            config.duration, config.ts, config.noise_std, config.noise_seed,
            config.i_op, block=SIMULATE_BLOCK,
        )
    except Exception as exc:
        raise StageError("simulate", str(exc)) from exc


def _simulate_identify(config: ScenarioConfig):
    """Simulate the scenario block by block and identify over its stream.

    A generator of (samples, run) for each block of SIMULATE_BLOCK
    samples: the simulator's SimResult and the IdentRun of the updates
    whose output samples are in it. Each block is identified with the
    stream's last `order + 1` samples before it prepended, where its first
    regressor begins, and from the state the previous block left, so the
    blocks together are bitwise one whole-run identification; a run's
    `index` counts from its first prepended sample. A failure raises
    StageError tagged with the stage that failed.
    """
    overlap = config.identifier.order + 1
    state = None
    tail = None  # copies of the stream's last `overlap` samples
    for part in _simulated(config):
        stream = part if tail is None else SimResult(
            t=np.concatenate([tail[0], part.t]),
            v_dq=np.concatenate([tail[1], part.v_dq]),
            i_dq=np.concatenate([tail[2], part.i_dq]), ts=part.ts)
        try:
            run = identify(stream, config.identifier, state)
        except Exception as exc:
            first = 0 if state is None else state.sample_count
            raise StageError(
                "identify", f"{exc} (block from update {first})") from exc
        state = run.final_state
        tail = [a[-overlap:].copy()
                for a in (stream.t, stream.v_dq, stream.i_dq)]
        del stream
        yield part, run
        del part, run  # before the next block is simulated


def _updates_before(config: ScenarioConfig, t: float) -> int:
    """How many of the run's updates come before time t. The updates are
    those of samples k = order + 1, ..., n - 1, at k * ts, as the
    simulator computes its time grid (float64(k) * ts)."""
    ts = config.ts
    updates = range(config.identifier.order + 1,
                    sample_count(config.duration, ts))
    return bisect.bisect_left(updates, t, key=lambda k: k * ts)


def _window(config: ScenarioConfig, t_lo: float, t_hi: float):
    """A generator of the run's updates at t_lo <= t < t_hi, one
    (t, thetas, state) triple per block read: the block's rows in the
    window, views of the block's arrays, and the estimator's state after
    the block.

    The run streams (see `_simulate_identify`), and nothing starts before
    the first triple is asked for. The stream stops after the first block
    that holds an update at or after t_hi, and is closed there: what comes
    after it is never simulated or identified.
    """
    blocks = _simulate_identify(config)
    with contextlib.closing(blocks):
        for part, run in blocks:
            # t increases, so a block's window rows are a slice
            lo, hi = np.searchsorted(run.t, (t_lo, t_hi))
            done = hi < run.t.size  # an update at or after t_hi
            yield run.t[lo:hi], run.theta[lo:hi], run.final_state
            del part, run  # before the next block is asked for
            if done:
                break


def run_calibration(config: ScenarioConfig, out_dir: str | None = None):
    """Fault-free run producing the nominal predictor and auto thresholds.

    Returns (nominal, thresholds, final estimator state). The distance
    series used for threshold calibration is measured against theta* over
    the settled tail of the same run: the last `calibration_window`
    calibrated updates, whose mean is theta*. The run streams in blocks
    (`_window`) and keeps only those rows, joined into arrays sized for
    them, so its memory does not grow with its length. `calibration.json`
    is written as a run's artifacts are (`write_artifact`).
    """
    cal_config = replace(config, disturbance=None)
    arx = cal_config.identifier
    # the update of sample k is calibrated from k = order + burn_in on;
    # the tail is the updates of samples k, ..., n - 1
    n = sample_count(cal_config.duration, cal_config.ts)
    k = max(arx.order + arx.burn_in, n - cal_config.calibration_window)
    t_lo = k * cal_config.ts
    size = max(0, n - k)
    t = np.empty(size)
    thetas = np.empty((size, 2, 4 * arx.order))
    rows, state = 0, None
    for t_part, theta_part, state in _window(cal_config, t_lo, math.inf):
        t[rows:rows + t_part.size] = t_part
        thetas[rows:rows + t_part.size] = theta_part
        rows += t_part.size
        del t_part, theta_part  # views of the block
    if not state.calibrated:
        raise StageError(
            "identify",
            f"run too short: {state.sample_count} updates, "
            f"burn-in needs {arx.burn_in}",
        )
    nominal = calibrate_nominal(t, thetas)
    # threshold calibration uses the settled window only: the estimator's
    # cold-start convergence transient is not nominal operation
    d_nominal = distances(thetas, nominal.theta_star)
    thresholds = (config.thresholds if config.thresholds is not None
                  else calibrate_thresholds(d_nominal))
    if out_dir is not None:
        write_artifact(out_dir, "calibration.json",
                       calibration_to_json(nominal, thresholds, cal_config))
    return nominal, thresholds, state


@dataclass(frozen=True)
class BaselineResult:
    """Voltage limit checking's result for one run: whether the banded
    one-cycle average left its limits inside the disturbance window, and
    the time it first did, None if never."""

    detected: bool
    first_violation: float | None


@dataclass
class RunReport:
    """One run's results. Its fields are the keys of `report.json`, in
    order, and `to_json` writes them as `dataclasses.asdict` gives them:
    thresholds and baseline as nested objects, final_verdict as its
    value. transitions counts the debounced transitions, which the run's
    `events.jsonl` lists, one line each."""

    name: str
    thresholds: Thresholds
    dt1_high: float | None
    dt1_low: float | None
    dt2: float | None
    dt1_high_debounced: float | None
    dt1_low_debounced: float | None
    final_verdict: Verdict
    transitions: int  # debounced transitions, the lines of events.jsonl
    baseline: BaselineResult
    config: dict = field(default_factory=dict)
    library_provenance: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _check_order(config: ScenarioConfig, nominal, library) -> None:
    """Reject a calibration or library made for another model order than
    the run's, before anything is simulated."""
    order = config.identifier.order
    if library is not None and library.order != order:
        raise ValueError(
            f"the library is of model order {library.order}, but the run's "
            f"model order is {order}"
        )
    shape = None if nominal is None else np.shape(nominal.theta_star)
    if shape is not None and shape != (2, 4 * order):
        held = f" (model order {shape[-1] // 4})" if shape else ""
        raise ValueError(
            f"the calibration's nominal predictor has shape {shape}{held}, "
            f"but the run's model order is {order}, which needs "
            f"{(2, 4 * order)}"
        )


class _ArtifactFiles:
    """A run's artifact files, written under temporary names in `out_dir`
    and moved to their own names together by `commit`, once the run has
    succeeded; on leaving the `with` block, files not committed are
    removed, and so is `out_dir` if this made it. An earlier run's
    artifacts stay in place until then."""

    def __init__(self, out_dir: str):
        self._made = not os.path.isdir(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self._files = {}

    def _temporary(self, name: str) -> str:
        return os.path.join(self.out_dir, f".{name}.partial")

    def open(self, name: str):
        """A binary file, open for writing, that becomes `name`."""
        fh = open(self._temporary(name), "wb")
        self._files[name] = fh
        return fh

    def commit(self) -> None:
        for fh in self._files.values():
            fh.close()
        for name in self._files:
            os.replace(self._temporary(name),
                       os.path.join(self.out_dir, name))
        self._files.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for name, fh in self._files.items():
            fh.close()
            try:
                os.remove(self._temporary(name))
            except FileNotFoundError:  # moved by a commit that then failed
                pass
        self._files.clear()
        if exc[0] is not None and self._made and not os.listdir(self.out_dir):
            os.rmdir(self.out_dir)
        return False


def write_artifact(out_dir: str, name: str, text: str) -> None:
    """Write `text` to the file `name` in `out_dir` as a run writes its
    artifacts (`_ArtifactFiles`): under a temporary name, moved into place
    once written whole. A write that fails raises its own exception and
    leaves the earlier file, if any, as it was."""
    with _ArtifactFiles(out_dir) as files:
        files.open(name).write(text.encode())
        files.commit()


class Detector:
    """The detector of one run: it classifies, arms, debounces and times
    the run's updates as they come, one block's IdentRun at a time
    (`push`), and gives the final verdict at the end (`finish`). It holds
    what a run carries from block to block: the debounce, the five first
    times, the count of transitions, the settled running mean and the
    count of updates pushed, so blocks of any size give the outputs of one
    whole-run push. The transitions themselves are `push`'s to return,
    not the detector's to keep.

    Thresholds pinned in the scenario config take precedence over the
    calibration-supplied ones. A calibration or library of another model
    order than the run's is rejected with ValueError on construction.
    """

    def __init__(self, config: ScenarioConfig, nominal: NominalPredictor,
                 thresholds: Thresholds,
                 library: SignatureLibrary | None = None):
        _check_order(config, nominal, library)
        self.config, self.nominal = config, nominal
        self.thresholds = (config.thresholds if config.thresholds is not None
                           else thresholds)
        self.library = library or SignatureLibrary(
            order=config.identifier.order)
        self.warnings = []
        inside = disturbance_inside(config.disturbance, config.duration)
        if config.disturbance is not None:
            self.t_start = config.disturbance.t_start
            self.t_end = config.disturbance.t_end
            if not inside:
                self.warnings.append(
                    "disturbance window starts at or after the run end; "
                    "detection delays are reported as never"
                )
        else:
            self.t_start = self.t_end = config.duration
        # Final classification from the quasi-steady estimate: the mean
        # theta over the settled half of the disturbance window (or the run
        # tail when there is no disturbance), classified once. Averaging
        # suppresses the sample-to-sample estimator jitter that makes
        # per-sample verdicts flicker near the thresholds.
        if inside:
            self.settle = ((self.t_start + self.t_end) / 2.0, self.t_end)
        else:
            self.settle = (config.duration / 2.0, np.inf)
        # Without a disturbance inside the run, the stand-in window
        # [duration, duration] would time the last update, so no delay is
        # searched for.
        self.window = ((self.t_start, self.t_end, self.thresholds.d_low,
                        self.thresholds.d_high) if inside else None)
        self.debounced = det.debounce_state()
        # dt1_high, dt1_low, dt2, then the debounced delays: the first
        # stable fault verdict and the first stable non-normal one after
        # t_start; NaN until found
        self.found = np.full(5, np.nan)
        self.transitions = 0  # debounced transitions so far
        self.settled = det.RunningMean()  # of the armed rows in `settle`
        self.updates = 0  # updates pushed so far

    def push(self, run) -> tuple:
        """Take the run's next block of updates, an IdentRun: (d, changes),
        the block's distances and its debounced transitions as (t, verdict
        value, d) triples. A snapshot that cannot be classified raises
        StageError tagged with the detector stage."""
        t, thetas = run.t, run.theta
        try:
            d, raw, _ = classify_series(thetas, self.nominal,
                                        self.thresholds, self.library,
                                        self.config.match_floor)
        except Exception as exc:
            raise StageError("detector", f"{exc} (block from update "
                                         f"{self.updates})") from exc
        # The estimator restarts from scratch in each run and needs the
        # same settling time the nominal predictor was calibrated with;
        # until then the distance reflects cold-start convergence, not the
        # grid. Keep the detector disarmed over that initial stretch: the
        # block's updates from `armed` on (burn-in ends once, so the
        # calibrated updates are a suffix).
        armed = max(self.config.calibration_window - self.updates,
                    t.size - int(np.count_nonzero(run.calibrated)))
        stable, at = _kernels.debounce_block(
            raw, self.config.hold, self.debounced, armed, t, d, self.window,
            self.found)
        changes = [(tk, det.VERDICTS[c].value, dk) for tk, c, dk in zip(
            t[at].tolist(), stable[at].tolist(), d[at].tolist())]
        self.transitions += len(changes)
        # t increases, so the armed rows in the settle window are a slice
        first, last = np.searchsorted(t, self.settle)
        self.settled.add(thetas[max(first, armed):last])
        self.updates += t.size
        return d, changes

    def finish(self) -> Verdict:
        """The final verdict: the settled mean's, or normal, with a
        warning, when no armed update fell in the settle window."""
        if self.settled.count:
            return det.classify(self.settled.mean(), self.nominal,
                                self.thresholds, self.library,
                                match_floor=self.config.match_floor).verdict
        self.warnings.append(
            f"no armed update falls in the settle window "
            f"[{self.settle[0]:g}, {self.settle[1]:g}) s; the final verdict "
            "is normal by default"
        )
        return Verdict.NORMAL


def run_scenario(
    config: ScenarioConfig,
    nominal: NominalPredictor,
    thresholds: Thresholds,
    library: SignatureLibrary | None = None,
    out_dir: str | None = None,
) -> RunReport:
    """Full pipeline for one scenario: simulate, identify, classify, report.

    The run is one loop over the simulator's blocks of SIMULATE_BLOCK
    samples (`_simulate_identify`): each block's samples go through the
    baseline, its IdentRun to the run's `Detector` (`push`), and both to
    the writers; the outputs are those of one whole-run pass. When
    `out_dir` is given, the run writes three little-endian float64 `.npy`
    files, each header first from the shapes the config fixes and then
    each block's rows as their bytes: `samples.npy` (samples, 5), columns
    t, v_d, v_q, i_d, i_q; `distance.npy` (updates, 2), columns t, d, with
    updates = samples - order - 1; and `theta.npy` (ceil(updates /
    THETA_STRIDE), 1 + 8 * order), columns t and the predictor's rows
    flattened (theta_d_1, ..., theta_q_1, ...), after every
    THETA_STRIDE-th update from the first. It also writes
    `events.jsonl`, one line {"t", "verdict", "d"} per debounced
    transition, the run's one record of them, and `report.json`, the
    returned RunReport as `RunReport.to_json` gives it. Each file is
    written as its rows arrive and under a temporary name until the run
    has succeeded. A write that fails raises its own exception, with its
    type and message; as with any failure, nothing of the run is left in
    `out_dir`. A run with no disturbance inside it (`disturbance_inside`)
    reports every delay as None. The final verdict (`Detector.finish`)
    classifies the mean predictor over the settled half of the disturbance
    window, or over the second half of a run without one, which the run keeps
    as a running sum (`detector.RunningMean`), not as rows: its memory depends
    on the block size, not on the run's length or its window. The run
    simulates and identifies its own stream from sample 0 and reads nothing
    another run made, so inside `run_suite` it writes the bytes it writes
    alone. Thresholds pinned in the scenario config take precedence over the
    calibration-supplied ones. A calibration or library of another model order
    than the run's is rejected with ValueError before anything is simulated.
    """
    detector = Detector(config, nominal, thresholds, library)
    # Baseline limit checking, banded around the nominal operating point.
    # A limit relay measures the fundamental component, so the broadband
    # excitation ripple is removed with a trailing one-cycle average before
    # the band test.
    limits = VoltageLimits.around(_nominal_pcc_voltage(config),
                                  config.limit_fraction)
    cycle_average = _CycleAverage(config.ts, config.circuit.f_base)
    baseline_first = None

    with (contextlib.nullcontext() if out_dir is None
          else _ArtifactFiles(out_dir)) as files:
        if files is not None:
            n = sample_count(config.duration, config.ts)
            updates = max(0, n - config.identifier.order - 1)
            writers = [_NpyWriter(files.open(name), shape) for name, shape in (
                ("samples.npy", (n, 5)),
                ("distance.npy", (updates, 2)),
                ("theta.npy", (-(-updates // THETA_STRIDE),
                               1 + 8 * config.identifier.order)))]
            events = files.open("events.jsonl")

        for part, run in _simulate_identify(config):
            hits = (limit_check(cycle_average(part.v_dq), limits)
                    & (part.t >= detector.t_start) & (part.t < detector.t_end))
            if baseline_first is None and np.any(hits):
                baseline_first = float(part.t[hits][0])
            lo = detector.updates  # run index of the block's first update
            d, changes = detector.push(run)
            if files is not None:
                for tk, v, dk in changes:
                    events.write((json.dumps({"t": tk, "verdict": v, "d": dk})
                                  + "\n").encode("ascii"))
                for writer, rows in zip(writers, (
                        _samples_rows(part), np.column_stack([run.t, d]),
                        _theta_rows(run.t, run.theta, lo, THETA_STRIDE))):
                    writer.write(rows)
            del part, run, hits, d, changes  # before the next block

        final_verdict = detector.finish()
        dt1_high, dt1_low, dt2, first_fault, first_not_normal = (
            None if math.isnan(x) else x for x in detector.found.tolist())
        report = RunReport(
            name=config.name,
            thresholds=detector.thresholds,
            dt1_high=dt1_high,
            dt1_low=dt1_low,
            dt2=dt2,
            dt1_high_debounced=first_fault,
            dt1_low_debounced=first_not_normal,
            final_verdict=final_verdict,
            transitions=detector.transitions,
            baseline=BaselineResult(baseline_first is not None,
                                    baseline_first),
            config=config.echo(),
            library_provenance=[s.source_scenario
                                for s in detector.library.signatures],
            warnings=detector.warnings,
        )

        if files is not None:
            files.open("report.json").write(report.to_json().encode("ascii"))
            files.commit()
    return report


class _CycleAverage:
    """Causal moving average over one fundamental cycle, per column, of a
    stream of dq samples (k, 2) given in consecutive blocks: each call
    returns the
    averages of its block's samples, over the samples so far until a whole
    cycle of n has come.

    The window sum adds each sample's change to the carried sum, the
    sample entering less the one leaving, n samples back, which is 0.0
    before the stream's start: one fixed order of additions, np.cumsum's,
    in a loop of the package's own (`_kernels.cycle_average`). It carries
    the sum, the last n samples (a ring) and the sample count, so blocks
    give the bits of one call on their join.
    """

    def __init__(self, ts: float, f_base: float):
        # ScenarioConfig keeps f_base <= 1 / (2 ts), so n >= 2
        self.n = int(round(1.0 / (f_base * ts)))
        self.history = np.zeros((self.n, 2))  # the last n samples, a ring
        self.total = np.zeros(2)  # the window sum after the last sample
        self.count = 0  # samples seen

    def __call__(self, v: np.ndarray) -> np.ndarray:
        averages = _kernels.cycle_average(v, self.history, self.total,
                                          self.count)
        self.count += v.shape[0]
        return averages


def _nominal_pcc_voltage(config: ScenarioConfig) -> np.ndarray:
    from .circuit import full_circuit_model
    from .simulate import GRID_VOLTAGE, _matvec, equilibrium

    model = full_circuit_model(config.circuit, None)
    x0 = equilibrium(model, np.asarray(config.i_op, float), GRID_VOLTAGE)
    return _matvec(model.C, x0)


def build_library_from_scenarios(
    configs, nominal: NominalPredictor, thresholds: Thresholds
) -> SignatureLibrary:
    """Run each labeled offline scenario and record its signature.

    Each run is handed to `build_library` as a lazy stream of its (t,
    theta) rows inside the disturbance window, the only ones it reads, one
    piece per block (`_window`); a run's stream starts once the previous
    run's is consumed, stops after the window and is closed there. No
    window is kept: `build_library` folds each piece into the window's
    largest distance and the settled half's running sum as it reads it.
    Each run simulates and identifies its own stream from its first
    sample. An empty list of scenarios, a scenario without a disturbance,
    with no update in the settled half of its window (the rows the
    signature averages), or of another model order than the calibration,
    raises ValueError before anything is simulated.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("no scenarios to build a library from")
    for config in configs:
        dist = config.disturbance
        if dist is None:
            raise ValueError(
                f"scenario {config.name!r} has no disturbance; cannot label it"
            )
        # A run with no update at all is left to the simulator and the
        # estimator, which name the reason.
        mid = (dist.t_start + dist.t_end) / 2.0
        if _updates_before(config, math.inf) and \
                _updates_before(config, mid) == \
                _updates_before(config, dist.t_end):
            raise ValueError(
                f"scenario {config.name!r}: no update of the run "
                f"({config.duration:g} s) falls in the settled half "
                f"[{mid:g}, {dist.t_end:g}) s of its disturbance window, "
                "which the signature averages"
            )
        _check_order(config, nominal, None)

    def runs():
        for config in configs:
            dist = config.disturbance
            label = (Verdict.FAULT if dist.kind == "fault"
                     else Verdict.LOAD_INCREASE)
            # a map, unlike a generator expression, keeps no piece
            pieces = map(operator.itemgetter(0, 1), _window(
                config, dist.t_start, dist.t_end))
            yield label, pieces, dist.t_start, dist.t_end, config.name

    return build_library(runs(), nominal, thresholds,
                         configs[-1].identifier.order)


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
    for the parameter-deviation method and one for voltage limit-checking,
    from its report's final verdict and delays and from its `baseline`.
    Each run is a `run_scenario` of its own, which shares nothing with the
    others, so its artifacts are bitwise those of a lone run. With
    `out_dir`, the table goes to `comparison.csv` there, written as a
    run's artifacts are (`write_artifact`). An empty manifest, or two
    scenarios whose file names give the same name (compared
    case-insensitively, since their artifacts would share a directory),
    raise ValueError before any run.
    """
    scenario_paths = list(scenario_paths)
    if not scenario_paths:
        raise ValueError("the manifest lists no scenarios")
    names, seen = [], {}
    for path in scenario_paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name.casefold() in seen:
            raise ValueError(
                f"scenarios {seen[name.casefold()]} and {path} have the same "
                f"name {name!r}; their artifacts would overwrite each other"
            )
        seen[name.casefold()] = path
        names.append(name)
    reports = {}
    rows = []
    for path, name in zip(scenario_paths, names):
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
        dt1 = (report.dt1_high if report.dt1_high is not None
               else report.dt1_low)
        rows.append([
            name, "rarx",
            "detected" if detected else "not_detected",
            report.final_verdict.value,
            "never" if dt1 is None else f"{dt1:.6g}",
            "never" if report.dt2 is None else f"{report.dt2:.6g}",
        ])
        rows.append([
            name, "limit_check",
            "detected" if report.baseline.detected else "not_detected",
            "fault" if report.baseline.detected else "normal",
            ("never" if report.baseline.first_violation is None
             else f"{report.baseline.first_violation:.6g}"),
            "",
        ])
    if out_dir is not None:
        # csv quotes a field with a comma, a quote or a line break, such
        # as an error message, so each row reads back whole
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            [["scenario", "method", "detected", "verdict", "dt1", "dt2"]]
            + rows)
        write_artifact(out_dir, "comparison.csv", text.getvalue())
    return reports, rows
