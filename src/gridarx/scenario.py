"""Scenario configuration, end-to-end runs, and reporting.

Scenario files are INI text (key/value with sections); unset keys fall back
to the built-in `default_profile` (reference circuit values, 5 kHz
sampling, 0.1 p.u. excitation, no disturbance); a disturbance whose file
sets no window runs from 10 s to 20 s. All randomness flows from the seeds
in the config, so a run is reproducible byte-for-byte.

A run is one loop over the simulator's blocks of SIMULATE_BLOCK samples.
Each block is identified as it arrives, with the stream's last
`order + 1` samples prepended, and then classified; the simulator and the
estimator each carry their state from block to block, which gives bitwise
the run of one call over the whole stream. Each block's rows go to the
artifact files as they arrive, and the detector carries its debounce,
first crossings and transitions, and the baseline its one-cycle average,
across blocks. A run given an output directory formats its three CSVs
off its loop: a child process forked per run owns their writers and is
sent each block's rows (`_CsvProcess`); where fork is missing, or in a
daemonic multiprocessing worker, the run formats them itself. Of the
predictor trajectory a run keeps only the
settle-window rows whose mean gives the final verdict, so its memory
depends on the block size and the disturbance window, not on its length;
a run without a disturbance averages, and so keeps, the second half of the
run.

Runs of one `run_suite` or `build_library_from_scenarios` call share their
start when they have the same simulate arguments apart from the
disturbance's kind, value and end, the same disturbance t_start and the
same ArxConfig (`_prefix_key`). Each call holds one dict of records
(`_Prefix`), which `run_suite` passes to `run_scenario` as `prefixes`. The
first such run records its start up to the last simulator block edge at
or before the disturbance start: the simulator's samples before t_start,
the estimator state at that edge and, in a suite, the (t, theta,
calibrated) rows of each block before it and the byte length of each CSV
at the edge. The record joins the dict once the stream has passed the
block holding the disturbance start, so a stream stopped later (the
library build stops each one after its window's end) leaves it whole. The
others resume from the record and replay its blocks through the same loop
as live ones; only the CSV rows of those blocks are copied from the
recording run's files instead of formatted. The outputs do not change:
every artifact is bitwise that of the run on its own. The record lives
only for the call that made it; a suite's record holds about 214 bytes per
sample before t_start.
"""

from __future__ import annotations

import bisect
import configparser
import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

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
    debounce,
    detection_times,
    distances,
    first_time,
)
from .pipeline import identify
from .rls import ArxConfig, IdentifierState
from .signals import RbsConfig
from .simulate import (
    DisturbanceSpec,
    SIMULATE_BLOCK,
    SimPrefix,
    SimResult,
    disturbance_start,
    sample_count,
    simulate_blocks,
)
# Not called here: kept as a module attribute so that tools which wrap
# `gridarx.scenario.simulate` by name still resolve it.
from .simulate import simulate  # noqa: F401

FLOAT_FMT = "%.17g"

DEFAULT_CAL_WINDOW = 5000  # snapshots averaged into theta*

# theta.csv holds the predictor after every THETA_STRIDE-th update.
THETA_STRIDE = 50


class StageError(RuntimeError):
    """Pipeline failure with the responsible stage attached."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


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
                ("calibration_window", self.calibration_window >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"[run] {key}: must be {need}, got "
                                 f"{getattr(self, key)!r}")
        # the sampling-rate check of signals.RbsStream, with its 1e-9 Hz slack
        rate = 1.0 / self.ts
        if (self.excitation is not None
                and self.excitation.chip_rate > rate + 1e-9):
            raise ValueError(
                f"[excitation] chip_rate: must be <= the sampling rate 1/ts = "
                f"{rate!r}, got {self.excitation.chip_rate!r}")

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
    the key. A bad override is not the file's: its error does not name the
    path, and a bad excitation seed override names the option, `--seed`.
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
            value = values.pop(pu_key)
        elif si_key in values:
            value = to_pu(circuit, values.pop(si_key))
        else:
            raise ValueError(f"{where} kind = {kind} needs a value: set "
                             f"{pu_key} or {si_key}")
        other = "load" if kind == "fault" else "fault"
        _reject(where, values, f"kind = {other}")
        disturbance = _build(where, DisturbanceSpec, kind, value, t_start,
                             t_end)

    values, where = given["excitation"], f"{path}: [excitation]"
    excitation = None
    if values.pop("enabled", True):
        excitation = _build(where, replace, base.excitation, **values)
        if "seed" in overrides:
            excitation = _build("--seed:", replace, excitation,
                                seed=int(overrides["seed"]))
    else:
        _reject(where, values, "enabled = true")

    identifier = _build(f"{path}: [identifier]", replace, base.identifier,
                        **given["identifier"])
    # an override's error is not the file's: it is raised without its path
    if "rho" in overrides:
        identifier = replace(identifier, order=int(overrides["rho"]))
    if "forgetting" in overrides:
        identifier = replace(identifier,
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


# Rows formatted per string operation by `_CsvWriter`.
CSV_CHUNK_ROWS = 1024

# Bytes per read when `_CsvWriter` copies the head of an earlier artifact.
COPY_CHUNK_BYTES = 1 << 20


class _CsvWriter:
    """A CSV file written as its rows arrive, block by block.

    Every value is written with FLOAT_FMT, so the bytes are those of
    `np.savetxt(path, rows, fmt=FLOAT_FMT, delimiter=",", header=header,
    comments="")` on all the rows given; a chunk of rows is formatted by one
    `%` operation on its values as Python floats. `head` is `(path, size)`
    of an earlier file whose first `size` bytes are the header and the rows
    that come before those given: they are copied from it, in reads of
    COPY_CHUNK_BYTES, instead of the header being written.
    """

    def __init__(self, fh, header: str, head: tuple[str, int] | None = None):
        self.fh = fh
        if head is None:
            fh.write((header + "\n").encode("ascii"))
            return
        path, size = head
        with open(path, "rb") as src:
            while size > 0:
                chunk = src.read(min(size, COPY_CHUNK_BYTES))
                if not chunk:
                    raise OSError(f"{path}: ends {size} bytes short of the "
                                  "shared rows it was recorded with")
                fh.write(chunk)
                size -= len(chunk)

    def write(self, data: np.ndarray) -> None:
        """Append the rows of the 2-D float array `data`."""
        n_rows, n_cols = data.shape
        row_fmt = ",".join([FLOAT_FMT] * n_cols) + "\n"
        chunk_fmt = row_fmt * CSV_CHUNK_ROWS
        for k in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = data[k:k + CSV_CHUNK_ROWS]
            fmt = (chunk_fmt if chunk.shape[0] == CSV_CHUNK_ROWS
                   else row_fmt * chunk.shape[0])
            self.fh.write((fmt % tuple(chunk.ravel().tolist()))
                          .encode("ascii"))


def _write_csv(path: str, header: str, data: np.ndarray) -> None:
    """Write a header line and the rows of a 2-D float array as CSV with
    one `_CsvWriter`."""
    with open(path, "wb") as fh:
        _CsvWriter(fh, header).write(data)


SAMPLES_HEADER = "t,v_d,v_q,i_d,i_q"
DISTANCE_HEADER = "t,d"


def _samples_rows(sim: SimResult) -> np.ndarray:
    return np.column_stack([sim.t, sim.v_dq, sim.i_dq])


def write_samples_csv(path: str, sim: SimResult) -> None:
    """samples.csv of a simulated stream."""
    _write_csv(path, SAMPLES_HEADER, _samples_rows(sim))


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
    """distance.csv of the distances d at times t."""
    _write_csv(path, DISTANCE_HEADER, np.column_stack([t, d]))


def _theta_header(rows: int, cols: int) -> str:
    return "t," + ",".join(
        f"theta_{'dq'[r]}_{c + 1}" for r in range(rows) for c in range(cols)
    )


def _theta_rows(t, thetas, first: int, stride: int) -> np.ndarray:
    """theta.csv rows of the predictors `thetas` at times t, the first of
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


def _prefix_key(config: ScenarioConfig):
    """What a run's samples before its disturbance starts depend on, and so
    the identify updates that read only those: every `simulate` argument
    except the disturbance's kind, value and end, and the ArxConfig. None
    when no disturbance starts inside the run."""
    dist = config.disturbance
    if dist is None or dist.t_start >= config.duration:
        return None
    return (config.circuit, config.excitation, config.duration, config.ts,
            config.noise_std, config.noise_seed, tuple(config.i_op),
            dist.t_start, config.identifier)


@dataclass
class _Prefix:
    """The start of a run, which every run with the same `_prefix_key`
    shares bitwise: recorded by the first of them given a `prefixes` dict,
    and resumed by the others given the same dict.

    `edge` is the last simulator block edge at or before the disturbance
    start k_on, and `sim` the simulator's record of the samples before
    k_on. Each update of a block before `edge` reads only samples before
    k_on; `state` is the estimator's state after the last of them. A
    record of `run_scenario` keeps in `blocks` the rows of each block before
    `edge`, which a resumed run replays; one of
    `build_library_from_scenarios` keeps none (None). `heads` is
    (directory, {artifact: size}) once a run has written the CSV artifacts
    in that directory: each starts with its header and its rows of the
    blocks before `edge`, in `size` bytes. Those rows depend on the nominal
    predictor as well, so every run given the dict must use the same one.
    """

    edge: int
    blocks: list | None
    sim: SimPrefix | None = None
    state: IdentifierState | None = None
    heads: tuple | None = None


class _Rows(NamedTuple):
    """What a run reads of a block's IdentRun, as a prefix record keeps it."""

    t: np.ndarray
    theta: np.ndarray
    calibrated: np.ndarray


def _simulate_identify(config: ScenarioConfig, prefixes: dict | None = None,
                       rows: bool = False):
    """Simulate the scenario block by block and identify over its stream:
    (blocks, prefix).

    `blocks` yields (samples, run) for each block of SIMULATE_BLOCK
    samples: the simulator's SimResult and the IdentRun of the updates
    whose output samples are in it. Each block is identified with the
    stream's last `order + 1` samples before it prepended, where its first
    regressor begins, and from the state the previous block left, so the
    blocks together are bitwise one whole-run identification; a run's
    `index` counts from its first prepended sample. A failure raises
    StageError tagged with the stage that failed.

    `prefixes` maps `_prefix_key` to the _Prefix records of earlier runs.
    When it holds this run's key, `prefix` is that record: the simulation
    resumes from its samples, the blocks before its edge pair their
    samples with the record's `_Rows` (and are skipped when it kept
    none), and identification starts at the edge from its state.
    Otherwise `prefix` is a new _Prefix of this run, which the stream
    fills in as it passes, keeping the rows of the blocks before its edge
    when `rows` is true, and adds to `prefixes` as soon as it is complete:
    when the block holding k_on has been identified, before that block is
    yielded. A consumer that stops the stream after that point, or a run
    that fails after it, leaves a valid record. `prefix` is None when the
    run has no disturbance inside it or no whole block before one.
    """
    block = SIMULATE_BLOCK
    key = _prefix_key(config) if prefixes is not None else None
    resumed = prefixes.get(key) if key is not None else None
    recording = None
    if key is not None and resumed is None:
        k_on = disturbance_start(config.disturbance, config.duration,
                                 config.ts)
        edge = k_on // block * block
        if edge:
            recording = _Prefix(edge, [] if rows else None)
    try:
        sim = simulate_blocks(
            config.circuit, config.disturbance, config.excitation,
            config.duration, config.ts, config.noise_std, config.noise_seed,
            config.i_op, prefix=None if resumed is None else resumed.sim,
            block=block,
        )
    except Exception as exc:
        raise StageError("simulate", str(exc)) from exc

    def blocks():
        overlap = config.identifier.order + 1
        state = None if resumed is None else resumed.state
        replay = iter(() if resumed is None else resumed.blocks or ())
        stream = None  # the last block, with the samples before it prepended
        hi = 0  # samples passed
        while True:
            try:
                part = next(sim)
            except StopIteration:
                return
            except Exception as exc:
                raise StageError("simulate", str(exc)) from exc
            lo, hi = hi, hi + part.t.size
            stream = part if stream is None else SimResult(
                t=np.concatenate([stream.t[-overlap:], part.t]),
                v_dq=np.concatenate([stream.v_dq[-overlap:], part.v_dq]),
                i_dq=np.concatenate([stream.i_dq[-overlap:], part.i_dq]),
                ts=part.ts)
            if resumed is not None and hi <= resumed.edge:
                if resumed.blocks is not None:
                    yield part, next(replay)
                continue
            try:
                run = identify(stream, config.identifier, state)
            except Exception as exc:
                first = lo - (stream.t.size - part.t.size)
                raise StageError(
                    "identify", f"{exc} (block from update {first})") from exc
            state = run.final_state
            if recording is not None:
                if hi <= recording.edge:
                    recording.state = state
                    if recording.blocks is not None:
                        recording.blocks.append(
                            _Rows(run.t, run.theta, run.calibrated))
                if part.prefix is not None:
                    # the block holding k_on: the record is complete, and
                    # stays valid whether or not the stream goes on
                    recording.sim = part.prefix
                    prefixes[key] = recording
            yield part, run

    return blocks(), resumed or recording


def run_calibration(config: ScenarioConfig, out_dir: str | None = None):
    """Fault-free run producing the nominal predictor and auto thresholds.

    Returns (nominal, thresholds, final estimator state). The distance
    series used for threshold calibration is measured against theta* over
    the settled tail of the same run: the last `calibration_window`
    calibrated updates, whose mean is theta*. The run streams in blocks
    and keeps only those rows, so its memory does not grow with its length.
    """
    cal_config = replace(config, disturbance=None)
    keep = cal_config.calibration_window
    t_tail = theta_tail = None
    calibrated = 0
    blocks, _ = _simulate_identify(cal_config)
    for part, run in blocks:
        # the calibrated updates are the run's last ones
        new = int(np.count_nonzero(run.calibrated))
        calibrated += new
        first = run.t.size - new
        t_new, theta_new = run.t[first:], run.theta[first:]
        if t_tail is None or new >= keep:
            # a slice of the block: copied, so that the block can go
            t_tail, theta_tail = t_new[-keep:].copy(), theta_new[-keep:].copy()
        else:  # at most `keep` rows, in new arrays
            t_tail = np.concatenate([t_tail[new - keep:], t_new])
            theta_tail = np.concatenate([theta_tail[new - keep:], theta_new])
        state = run.final_state
    # what follows holds the kept rows only, not the last block as well,
    # so that its memory does not depend on that block's length
    del part, run
    if not state.calibrated:
        raise StageError(
            "identify",
            f"run too short: {state.sample_count} updates, "
            f"burn-in needs {cal_config.identifier.burn_in}",
        )
    window = min(cal_config.calibration_window, calibrated)
    nominal = calibrate_nominal(t_tail, theta_tail, window)
    # threshold calibration uses the settled window only: the estimator's
    # cold-start convergence transient is not nominal operation
    d_nominal = distances(theta_tail[-window:], nominal.theta_star)
    thresholds = (config.thresholds if config.thresholds is not None
                  else calibrate_thresholds(d_nominal))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "calibration.json"), "w") as fh:
            fh.write(calibration_to_json(nominal, thresholds, cal_config))
    return nominal, thresholds, state


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


def _transitions(t, codes, prev: int = -1):
    """(t, verdict value) at each change of the verdict code series, and at
    its first snapshot unless the stream's earlier blocks ended on code
    `prev`."""
    change = np.flatnonzero(np.diff(codes, prepend=prev))
    return [(tk, det.VERDICTS[c].value)
            for tk, c in zip(t[change].tolist(), codes[change].tolist())]


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
        raise ValueError(
            f"the calibration's nominal predictor has shape {shape} (model "
            f"order {shape[-1] // 4}), but the run's model order is {order}, "
            f"which needs {(2, 4 * order)}"
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


# What a run tells its CSV writers where it reaches its prefix edge.
EDGE = "edge"


class _CsvFormatter:
    """The `_CsvWriter`s of a run's CSV artifacts, built from (name, file,
    header, head) each. `take` is given, block by block, the block's rows
    for each file in that order, or EDGE where the run reaches its prefix
    edge, which notes each file's size; `finish` flushes the files and
    returns those sizes, None if there was no edge."""

    def __init__(self, csvs):
        self.writers = {name: _CsvWriter(fh, header, head)
                        for name, fh, header, head in csvs}
        self.sizes = None

    def take(self, message) -> None:
        if message == EDGE:
            self.sizes = {name: writer.fh.tell()
                          for name, writer in self.writers.items()}
            return
        for writer, rows in zip(self.writers.values(), message):
            writer.write(rows)

    def finish(self):
        for writer in self.writers.values():
            writer.fh.flush()
        return self.sizes


def _fork_context():
    """multiprocessing's fork context, or None where a run formats its CSVs
    in its own process: where fork is missing, or in a daemonic worker,
    which may not start processes."""
    # imported here, where a run first writes CSVs: a process that never
    # does, such as a live detector, is spared its 0.6 MB
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    return multiprocessing.get_context("fork")


def _format_in_child(csvs, inbox, outbox, parent_ends) -> None:
    """The body of the writer process: a `_CsvFormatter` takes what `inbox`
    brings until None, then `outbox` gets the sizes at the edge, or the
    exception that stopped it. One that cannot be sent ends the process
    with exit code 1, which the run reports."""
    for conn in parent_ends:
        conn.close()
    try:
        formatter = _CsvFormatter(csvs)
        while (message := inbox.recv()) is not None:
            formatter.take(message)
        reply = formatter.finish()
    except Exception as exc:
        reply = exc
    outbox.send(reply)


class _CsvProcess:
    """A run's CSV artifacts, formatted off the run's loop.

    Where `_fork_context` gives a context, one child process forked from
    it owns the writers: it builds the `_CsvFormatter`, copying any heads,
    and is sent each message of `send` through a pipe; the run's own
    process never writes through those files. Otherwise the formatter
    runs in this process, on the same messages. `finish` returns the
    sizes at the edge, or raises the exception that stopped the writer
    with its type and message; a writer process that ended without a word
    raises OSError naming its exit code. Leaving the `with` block joins the
    process, terminated first if the block failed, and closes its pipes.
    """

    def __init__(self, csvs):
        context = _fork_context()
        self._process = None
        if context is None:
            self._formatter = _CsvFormatter(csvs)
            return
        inbox, self._inbox = context.Pipe(duplex=False)
        self._outbox, outbox = context.Pipe(duplex=False)
        ends = (self._inbox, self._outbox)
        process = context.Process(
            target=_format_in_child, args=(csvs, inbox, outbox, ends),
            name="gridarx-csv-writer", daemon=True)
        try:
            process.start()
        except BaseException:
            for conn in ends:
                conn.close()
            raise
        finally:
            inbox.close()
            outbox.close()
        self._process = process

    def send(self, message) -> None:
        if self._process is None:
            self._formatter.take(message)
            return
        try:
            self._inbox.send(message)
            return
        except OSError:
            pass  # the writer has stopped; its reply says why
        # raised outside the handler, so that the error does not keep the
        # failed send's frames, and the pickle buffer they export, alive
        self._reply()

    def finish(self):
        if self._process is None:
            return self._formatter.finish()
        try:
            self._inbox.send(None)
        except OSError:
            pass  # the reply says why
        return self._reply()

    def _reply(self):
        try:
            reply = self._outbox.recv()
        except EOFError:
            self._process.join()
            raise OSError(
                f"the CSV writer process ended with exit code "
                f"{self._process.exitcode} before the run's CSVs were "
                "written") from None
        if isinstance(reply, BaseException):
            raise reply from None
        return reply

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._process is not None:
            self._inbox.close()  # a writer still waiting reads its end
            if exc[0] is not None:
                self._process.terminate()
            self._process.join()
            self._process.close()
            self._outbox.close()
        return False


def run_scenario(
    config: ScenarioConfig,
    nominal: NominalPredictor,
    thresholds: Thresholds,
    library: SignatureLibrary | None = None,
    out_dir: str | None = None,
    *,
    prefixes: dict | None = None,
) -> RunReport:
    """Full pipeline for one scenario: simulate, identify, classify, report.

    The run streams: each block of SIMULATE_BLOCK samples is simulated,
    identified and classified in turn, and the outputs are those of one
    whole-run pass. Writes samples/distance/theta CSVs, an events
    JSON-lines stream, and a JSON report when `out_dir` is given, each as
    its rows arrive and under a temporary name until the run has
    succeeded. The CSVs are formatted in a child process forked for the
    run, which is sent each block's rows, so that formatting overlaps the
    next block's simulate and identify; where fork is missing, or the
    caller is a daemonic multiprocessing worker, which may not start
    processes, the run formats them itself, into the same bytes. The
    events and the report are written by the run's own process. If the
    writer fails, the run raises its exception, with its type and message,
    or OSError naming the writer's exit code if it died without one,
    before the report is written; as with any failure, nothing of the run
    is left in `out_dir` and no process outlives it. Thresholds pinned in
    the scenario config
    take precedence over the calibration-supplied ones. A calibration or
    library of another model order than the run's is rejected with
    ValueError before anything is simulated.

    `prefixes` maps `_prefix_key` to the `_Prefix` records of earlier runs
    given the same dict, all of them with this run's nominal predictor and
    library; `run_suite` passes one to every run. A run whose key is there
    resumes from the record: it replays the record's blocks through the
    loop of live ones and copies the heads of its CSV artifacts, when the
    record has them, instead of writing those blocks' rows again. Otherwise
    it adds its own record. The outputs are bitwise those of a lone run.
    """
    _check_order(config, nominal, library)
    if config.thresholds is not None:
        thresholds = config.thresholds
    order = config.identifier.order
    library = library or SignatureLibrary(order=order)
    warnings = []
    if config.disturbance is not None:
        t_start, t_end = config.disturbance.t_start, config.disturbance.t_end
    else:
        t_start, t_end = config.duration, config.duration
    if t_start >= config.duration:
        warnings.append(
            "disturbance window starts at or after the run end; "
            "detection delays are reported as never"
        )
    # Final classification from the quasi-steady estimate: the mean theta
    # over the settled half of the disturbance window (or the run tail when
    # there is no disturbance), classified once. Averaging suppresses the
    # sample-to-sample estimator jitter that makes per-sample verdicts
    # flicker near the thresholds.
    if config.disturbance is not None and t_start < config.duration:
        settle_from, settle_to = (t_start + t_end) / 2.0, t_end
    else:
        settle_from, settle_to = config.duration / 2.0, np.inf
    normal = det.VERDICT_CODE[Verdict.NORMAL]
    fault = det.VERDICT_CODE[Verdict.FAULT]

    # Baseline limit checking, banded around the nominal operating point.
    # A limit relay measures the fundamental component, so the broadband
    # excitation ripple is removed with a trailing one-cycle average before
    # the band test.
    limits = VoltageLimits.around(_nominal_pcc_voltage(config),
                                  config.limit_fraction)
    cycle_average = _CycleAverage(config.ts, config.circuit.f_base)
    baseline_first = None

    # What the run carries from block to block.
    debounced = det.DebounceState()
    crossings = (None, None, None)  # dt1_high, dt1_low, dt2
    first_fault = first_not_normal = None  # the debounced delays
    last_code = -1  # the debounced verdict code of the last update
    timeline = []
    settled = []  # armed theta rows inside the settle window

    with contextlib.ExitStack() as stack:
        files = (None if out_dir is None
                 else stack.enter_context(_ArtifactFiles(out_dir)))
        blocks, prefix = _simulate_identify(config, prefixes, rows=True)
        edge = 0 if prefix is None else prefix.edge
        heads = None if prefix is None else prefix.heads
        if files is not None:
            csvs = []
            for name, header in (
                    ("samples.csv", SAMPLES_HEADER),
                    ("distance.csv", DISTANCE_HEADER),
                    ("theta.csv", _theta_header(2, 4 * order))):
                head = (None if heads is None
                        else (os.path.join(heads[0], name), heads[1][name]))
                csvs.append((name, files.open(name), header, head))
            events = files.open("events.jsonl")
            writer = stack.enter_context(_CsvProcess(csvs))

        lo = hi = 0  # run index of the block's first update; samples passed
        for part, run in blocks:
            hi += part.t.size
            hits = (limit_check(cycle_average(part.v_dq), limits)
                    & (part.t >= t_start) & (part.t < t_end))
            if baseline_first is None and np.any(hits):
                baseline_first = float(part.t[hits][0])

            t, thetas = run.t, run.theta
            try:
                d, verdicts, _ = classify_series(
                    thetas, nominal, thresholds, library, config.match_floor
                )
            except Exception as exc:
                raise StageError(
                    "detector", f"{exc} (block from update {lo})") from exc
            # The estimator restarts from scratch in each run and needs the
            # same settling time the nominal predictor was calibrated with;
            # until then the distance reflects cold-start convergence, not
            # the grid. Keep the detector disarmed over that initial stretch.
            armed = run.calibrated.copy()
            armed[: max(0, config.calibration_window - lo)] = False
            codes = np.where(armed, det.verdict_codes(verdicts), normal)
            stable = np.array(debounce(codes.tolist(), config.hold, debounced),
                              dtype=np.intp)
            crossings = detection_times(t[armed], d[armed], t_start, t_end,
                                        thresholds, crossings)
            # debounced delays: first stable fault verdict / first stable
            # non-normal verdict after t_start
            after = armed & (t >= t_start)
            first_fault = first_time(t, after & (stable == fault), t_start,
                                     first_fault)
            first_not_normal = first_time(t, after & (stable != normal),
                                          t_start, first_not_normal)
            changes = _transitions(t, stable, last_code)
            timeline.extend(changes)
            if stable.size:
                last_code = int(stable[-1])
            settle = (t >= settle_from) & (t < settle_to) & armed
            if np.any(settle):
                settled.append(thetas[settle])

            if files is not None:
                for tk, v in changes:
                    dk = float(d[np.searchsorted(t, tk)])
                    events.write((json.dumps({"t": tk, "verdict": v, "d": dk})
                                  + "\n").encode("ascii"))
                # the copied heads hold the rows of the blocks up to the edge
                if heads is None or hi > edge:
                    writer.send((_samples_rows(part), np.column_stack([t, d]),
                                 _theta_rows(t, thetas, lo, THETA_STRIDE)))
                if heads is None and hi == edge:
                    writer.send(EDGE)
            lo += t.size

        if settled:
            final_event = det.classify(
                np.concatenate(settled).mean(axis=0), nominal, thresholds,
                library,
                match_floor=config.match_floor,
            )
            final_verdict = final_event.verdict
        else:
            final_verdict = Verdict.NORMAL
            warnings.append(
                f"no armed update falls in the settle window "
                f"[{settle_from:g}, {settle_to:g}) s; the final verdict is "
                "normal by default"
            )

        dt1_high, dt1_low, dt2 = crossings
        report = RunReport(
            name=config.name,
            thresholds=thresholds,
            dt1_high=dt1_high,
            dt1_low=dt1_low,
            dt2=dt2,
            dt1_high_debounced=first_fault,
            dt1_low_debounced=first_not_normal,
            final_verdict=final_verdict,
            verdict_timeline=timeline,
            baseline_detected=baseline_first is not None,
            baseline_first_violation=baseline_first,
            config_echo=config.echo(),
            library_provenance=[s.source_scenario for s in library.signatures],
            warnings=warnings,
        )

        if files is not None:
            sizes = writer.finish()
            files.open("report.json").write(report.to_json().encode("ascii"))
            files.commit()
            if sizes is not None:
                prefix.heads = (os.path.abspath(files.out_dir), sizes)
    return report


class _CycleAverage:
    """Causal moving average over one fundamental cycle, per column, of a
    stream of samples given in consecutive blocks: each call returns the
    averages of its block's samples.

    It carries the last n - 1 samples of the stream and its sample count,
    so blocks give the bits of one call on their join. np.convolve swaps
    its operands when the signal is shorter than the kernel, which sums in
    another order; a signal that short is padded at its end instead, which
    reaches none of the causal averages kept.
    """

    def __init__(self, ts: float, f_base: float):
        self.n = max(1, int(round(1.0 / (f_base * ts))))
        self.kernel = np.ones(self.n) / self.n
        self.history = None  # the stream's last n - 1 samples
        self.count = 0  # samples seen

    def __call__(self, v: np.ndarray) -> np.ndarray:
        n, m = self.n, v.shape[0]
        if n == 1:
            return v
        x = v if self.history is None else np.concatenate([self.history, v])
        start = x.shape[0] - m
        self.history = x[max(0, x.shape[0] - (n - 1)):].copy()
        if x.shape[0] < n:
            x = np.concatenate([x, np.zeros((n - x.shape[0], x.shape[1]))])
        out = np.empty_like(v)
        for col in range(v.shape[1]):
            out[:, col] = np.convolve(x[:, col], self.kernel)[start:start + m]
        # warm the average up from the first sample instead of zero history
        counts = np.minimum(np.arange(self.count + 1, self.count + m + 1), n)
        self.count += m
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
    """Run each labeled offline scenario and record its signature.

    Each run streams; of it only the (t, theta) rows inside the disturbance
    window are kept, the only ones `build_library` reads, in arrays sized
    for the window. The stream stops after the first block that holds an
    update at or after the window's end, and is closed there: what comes
    after it is never simulated or identified. Runs that share a prefix
    (see `_prefix_key`) simulate and identify it once; since the window
    starts after it, its record holds only the simulator's samples and the
    estimator's state, and the blocks before its edge are skipped. The
    record is complete, and registered, once the stream has passed the
    disturbance start, so a stream stopped later leaves it whole.
    A scenario without a disturbance, with no update in the settled half
    of its window (the rows the signature averages), or of another model
    order than the calibration, raises ValueError before anything is
    simulated.
    """
    configs = list(configs)
    for config in configs:
        dist = config.disturbance
        if dist is None:
            raise ValueError(
                f"scenario {config.name!r} has no disturbance; cannot label it"
            )
        # updates k = order + 1, ... at times k * ts, as the simulator
        # computes them; the first at or after the settled half's start
        # must come before t_end. A run with no update at all is left to
        # the simulator and the estimator, which name the reason.
        mid = (dist.t_start + dist.t_end) / 2.0
        updates = range(config.identifier.order + 1,
                        sample_count(config.duration, config.ts))
        k = bisect.bisect_left(updates, mid, key=lambda j: j * config.ts)
        if updates and (k == len(updates)
                        or updates[k] * config.ts >= dist.t_end):
            raise ValueError(
                f"scenario {config.name!r}: no update of the run "
                f"({config.duration:g} s) falls in the settled half "
                f"[{mid:g}, {dist.t_end:g}) s of its disturbance window, "
                "which the signature averages"
            )
        _check_order(config, nominal, None)
    prefixes = {}
    runs = []
    order = None
    for config in configs:
        label = (Verdict.FAULT if config.disturbance.kind == "fault"
                 else Verdict.LOAD_INCREASE)
        t_start, t_end = config.disturbance.t_start, config.disturbance.t_end
        blocks, _ = _simulate_identify(config, prefixes)
        # Update times lie on the grid k * ts, so the window holds fewer
        # than (t_end - t_start) / ts + 2 of them, and no more than the run.
        updates = sample_count(config.duration, config.ts) - \
            config.identifier.order - 1
        rows = int(max(1, min(updates, (t_end - t_start) / config.ts + 2)))
        t = np.empty(rows)
        thetas = np.empty((rows, 2, 4 * config.identifier.order))
        rows = 0
        with contextlib.closing(blocks):
            for part, run in blocks:
                # t increases, so a block's window rows are a slice
                lo, hi = np.searchsorted(run.t, (t_start, t_end))
                t[rows:rows + hi - lo] = run.t[lo:hi]
                thetas[rows:rows + hi - lo] = run.theta[lo:hi]
                rows += hi - lo
                if hi < run.t.size:  # an update at or after t_end
                    break
        # the last block goes with its stream, not once the next run's
        # first block replaces it: a stream stopped early ends on a full one
        del part, run
        runs.append((label, t[:rows], thetas[:rows], t_start, t_end,
                     config.name))
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
    The prefixes that runs share (see `run_scenario`) are recorded for the
    duration of this call only. An empty manifest, or two scenarios whose
    file names give the same name (compared case-insensitively, since
    their artifacts would share a directory), raise ValueError before any
    run.
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
    prefixes = {}
    for path, name in zip(scenario_paths, names):
        try:
            config = load_scenario(path, overrides)
            scen_out = (os.path.join(out_dir, name) if out_dir is not None
                        else None)
            report = run_scenario(config, nominal, thresholds, library,
                                  out_dir=scen_out, prefixes=prefixes)
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
