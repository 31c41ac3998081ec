"""Scenario configuration, end-to-end runs, and reporting.

Scenario files are INI text (key/value with sections); unset keys fall back
to the built-in `default_profile` (reference circuit values, 5 kHz
sampling, 0.1 p.u. excitation, disturbance window 10 s to 20 s). All
randomness flows from the seeds in the config, so a run is reproducible
byte-for-byte.

A run is simulated once, then identified and classified in blocks of
IDENTIFY_BLOCK updates with the estimator state carried from block to
block, which gives bitwise the trajectory of one call over the whole run.
Per update a run keeps only scalars (t, d, verdict, armed); of the
predictor trajectory it keeps the rows an artifact needs: every
THETA_STRIDE-th row for theta.csv and the settle-window rows for the final
verdict. Its memory therefore grows by about 90 bytes per sample, the
simulated input included, instead of holding the whole trajectory.

Runs of one `run_suite` or `build_library_from_scenarios` call share their
start when they have the same simulate arguments apart from the
disturbance's kind, value and end, the same disturbance t_start and the
same ArxConfig (`_prefix_key`). The first such run records it (`_Prefix`):
the simulator's samples before t_start, the estimator state at the last
block edge before the first update that reads a later sample and, in a
suite, that stretch's per-update rows and the byte length of each CSV's
head. The others resume from the record. The outputs do not change: every
artifact is bitwise that of the run on its own. The record lives only for
the call that made it.
"""

from __future__ import annotations

import configparser
import json
import os
from contextvars import ContextVar
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
)
from .pipeline import identify
from .rls import ArxConfig, IdentifierState
from .signals import RbsConfig
from .simulate import DisturbanceSpec, SimPrefix, SimResult, simulate

FLOAT_FMT = "%.17g"

DEFAULT_CAL_WINDOW = 5000  # snapshots averaged into theta*

# Updates identified and classified per block by `run_scenario` and
# `build_library_from_scenarios`: bounds the predictor trajectory held at
# once to one block.
IDENTIFY_BLOCK = 8192

# theta.csv holds the predictor after every THETA_STRIDE-th update.
THETA_STRIDE = 50


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
        """The config as plain JSON-ready data; the identifier reports the
        effective covariance ceiling as p_max."""
        doc = asdict(self)
        doc["identifier"]["p_max"] = self.identifier.covariance_ceiling
        return doc


def default_profile(name: str = "default_profile") -> ScenarioConfig:
    """Built-in reference experiment profile."""
    return ScenarioConfig(name=name)


CIRCUIT_KEYS = tuple(f.name for f in fields(CircuitParams))

# The keys each scenario section accepts; anything else is an error.
SCENARIO_SCHEMA = {
    "run": ("duration", "ts", "noise_std", "noise_seed", "match_floor",
            "hold", "limit_fraction", "calibration_window"),
    "circuit": CIRCUIT_KEYS,
    "disturbance": ("kind", "t_start", "t_end", "r_fault_pu", "r_fault_ohm",
                    "l_load_pu", "l_load_h"),
    "excitation": ("enabled", "amplitude", "chip_rate", "seed"),
    "identifier": ("order", "forgetting", "p0_scale", "p_max"),
    "thresholds": ("mode", "d_high", "d_low"),
}


def _check_schema(path: str, parser: configparser.ConfigParser) -> None:
    """Reject sections and keys outside SCENARIO_SCHEMA."""
    sections = parser.sections()
    if parser.defaults():
        sections = [parser.default_section] + sections
    for section in sections:
        if section not in SCENARIO_SCHEMA:
            raise ValueError(
                f"{path}: [{section}]: unknown section; expected one of "
                f"{', '.join(f'[{s}]' for s in SCENARIO_SCHEMA)}"
            )
        allowed = SCENARIO_SCHEMA[section]
        for key in parser[section]:
            if key not in allowed:
                raise ValueError(
                    f"{path}: [{section}] {key}: unknown key; expected one "
                    f"of {', '.join(allowed)}"
                )


def _to_bool(text: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]


def load_scenario(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Parse an INI scenario file on top of the default profile.

    Recognized sections and keys are those of SCENARIO_SCHEMA; an unknown
    section or key, a value that does not parse, or a missing required
    value raises ValueError naming the file, the section and the key.
    Disturbance impedance may be given in p.u. (r_fault_pu / l_load_pu) or
    physical units (r_fault_ohm / l_load_h).
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    _check_schema(path, parser)
    base = default_profile(name=os.path.splitext(os.path.basename(path))[0])
    overrides = overrides or {}

    def fget(section, key, fallback, convert=float, expected="a number"):
        if section not in parser or key not in parser[section]:
            return fallback
        raw = parser[section][key]
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(
                f"{path}: [{section}] {key}: expected {expected}, got {raw!r}"
            ) from None

    def iget(section, key, fallback):
        return fget(section, key, fallback, int, "an integer")

    circ_kwargs = {}
    for key in CIRCUIT_KEYS:
        val = fget("circuit", key, None)
        if val is not None:
            circ_kwargs[key] = val
    circuit = replace(base.circuit, **circ_kwargs)

    disturbance = base.disturbance
    if "disturbance" in parser:
        sec = parser["disturbance"]
        kind = sec.get("kind", "none").strip().lower()
        if kind in ("none", "off"):
            disturbance = None
        else:
            t_start = fget("disturbance", "t_start", 10.0)
            t_end = fget("disturbance", "t_end", 20.0)
            if kind == "fault":
                pu_key, si_key, to_pu = ("r_fault_pu", "r_fault_ohm",
                                         circuit.ohms_to_pu)
            elif kind == "load":
                pu_key, si_key, to_pu = ("l_load_pu", "l_load_h",
                                         circuit.henries_to_pu)
            else:
                raise ValueError(
                    f"{path}: [disturbance] kind: unknown kind {kind!r}; "
                    "expected one of fault, load, none"
                )
            if pu_key in sec:
                value = fget("disturbance", pu_key, None)
            elif si_key in sec:
                value = to_pu(fget("disturbance", si_key, None))
            else:
                raise ValueError(
                    f"{path}: [disturbance] kind = {kind} needs a value: "
                    f"set {pu_key} or {si_key}"
                )
            try:
                disturbance = DisturbanceSpec(kind, value, t_start, t_end)
            except ValueError as exc:
                raise ValueError(f"{path}: [disturbance] {exc}") from None

    excitation = base.excitation
    if "excitation" in parser:
        if not fget("excitation", "enabled", True, _to_bool,
                    "true or false"):
            excitation = None
        else:
            excitation = RbsConfig(
                amplitude=fget("excitation", "amplitude", 0.1),
                chip_rate=fget("excitation", "chip_rate", 5000.0),
                seed=iget("excitation", "seed", 1),
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
        mode = parser["thresholds"].get("mode", "auto").strip().lower()
        if mode == "manual":
            bounds = {}
            for key in ("d_high", "d_low"):
                bounds[key] = fget("thresholds", key, None)
                if bounds[key] is None:
                    raise ValueError(
                        f"{path}: [thresholds] {key}: mode = manual needs "
                        "a value"
                    )
            try:
                thresholds = Thresholds(**bounds)
            except ValueError as exc:
                raise ValueError(f"{path}: [thresholds] {exc}") from None
        elif mode != "auto":
            raise ValueError(
                f"{path}: [thresholds] mode: unknown mode {mode!r}; "
                "expected auto or manual"
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


# Rows formatted per string operation by `_write_csv`.
CSV_CHUNK_ROWS = 1024


def _write_csv(path: str, header: str, data: np.ndarray, split: int = 0,
               copy_from: tuple[str, int] | None = None) -> int:
    """Write a header line and the rows of a 2-D float array as CSV.

    Every value is written with FLOAT_FMT, so the bytes are those of
    `np.savetxt(path, data, fmt=FLOAT_FMT, delimiter=",", header=header,
    comments="")`; a chunk of rows is formatted by one `%` operation on its
    values as Python floats. Returns the size in bytes of the header and the
    first `split` rows. `copy_from` is `(path, size)` of an earlier file
    that starts with those same bytes: they are copied from it instead of
    formatted again.
    """
    n_rows, n_cols = data.shape
    row_fmt = ",".join([FLOAT_FMT] * n_cols) + "\n"
    chunk_fmt = row_fmt * CSV_CHUNK_ROWS

    def write_rows(fh, lo, hi):
        for k in range(lo, hi, CSV_CHUNK_ROWS):
            chunk = data[k:min(hi, k + CSV_CHUNK_ROWS)]
            fmt = (chunk_fmt if chunk.shape[0] == CSV_CHUNK_ROWS
                   else row_fmt * chunk.shape[0])
            fh.write((fmt % tuple(chunk.ravel().tolist())).encode("ascii"))

    with open(path, "wb") as fh:
        if copy_from is None:
            fh.write((header + "\n").encode("ascii"))
            write_rows(fh, 0, split)
        else:
            _copy_head(copy_from, fh)
        head_size = fh.tell()
        write_rows(fh, split, n_rows)
    return head_size


# Bytes per read when `_copy_head` copies the start of an earlier artifact.
COPY_CHUNK_BYTES = 1 << 20


def _copy_head(source: tuple[str, int], out) -> None:
    """Copy the first `size` bytes of the file at `path`, for `source` =
    (path, size), to the binary file `out`."""
    path, size = source
    with open(path, "rb") as src:
        while size > 0:
            chunk = src.read(min(size, COPY_CHUNK_BYTES))
            if not chunk:
                raise OSError(f"{path}: ends {size} bytes short of the "
                              "shared rows it was recorded with")
            out.write(chunk)
            size -= len(chunk)


def write_samples_csv(path: str, sim: SimResult, split: int = 0,
                      copy_from: tuple[str, int] | None = None) -> int:
    """samples.csv of a simulated stream; `split`, `copy_from` and the
    return value as in `_write_csv`."""
    return _write_csv(path, "t,v_d,v_q,i_d,i_q",
                      np.column_stack([sim.t, sim.v_dq, sim.i_dq]),
                      split, copy_from)


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


def write_distance_csv(path: str, t, d, split: int = 0,
                       copy_from: tuple[str, int] | None = None) -> int:
    """distance.csv; `split`, `copy_from` and the return value as in
    `_write_csv`."""
    return _write_csv(path, "t,d", np.column_stack([t, d]), split, copy_from)


def write_theta_csv(path: str, t, thetas, stride: int = THETA_STRIDE,
                    split: int = 0,
                    copy_from: tuple[str, int] | None = None) -> int:
    """theta.csv of every `stride`-th predictor; `split` counts written
    rows, and it, `copy_from` and the return value are as in
    `_write_csv`."""
    thetas = np.asarray(thetas)
    m, rows, cols = thetas.shape
    sel = np.arange(0, m, stride)
    header = "t," + ",".join(
        f"theta_{'dq'[r]}_{c + 1}" for r in range(rows) for c in range(cols)
    )
    return _write_csv(path, header, np.column_stack(
        [np.asarray(t)[sel], thetas[sel].reshape(sel.size, -1)]),
        split, copy_from)


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
    shares bitwise: recorded by the first of them in one `run_suite` or
    `build_library_from_scenarios` call and resumed by the others.

    `sim` holds the samples before the disturbance start k_on. Update u
    reads samples u to u + order + 1, so the updates below
    k_on - order - 1 read only those; `updates` is the last identify block
    edge at or below that, and `state` the estimator's state there. A
    record of `run_suite` also keeps the run's rows before `updates`: t,
    theta and calibrated per update, and d and the verdict codes (before
    disarming) as classified under `classified_with`, (thresholds,
    match_floor). `heads` is (directory, {artifact: size}) when the
    artifacts in that directory start with their header and their rows of
    the prefix, those before k_on in samples.csv and before `updates` in
    distance.csv and theta.csv, in `size` bytes.
    """

    key: tuple
    sim: SimPrefix
    updates: int
    state: IdentifierState | None = None
    t: np.ndarray | None = None
    theta: np.ndarray | None = None
    calibrated: np.ndarray | None = None
    d: np.ndarray | None = None
    codes: np.ndarray | None = None
    classified_with: tuple | None = None
    heads: tuple | None = None

    def store(self, lo: int, run, d, codes, classified_with) -> None:
        """Keep the rows of the block `run`, whose first update is lo, that
        lie before `updates`."""
        n = min(run.t.size, self.updates - lo)
        if n <= 0:
            return
        if self.t is None:
            self.t = np.empty(self.updates)
            self.theta = np.empty((self.updates,) + run.theta.shape[1:])
            self.calibrated = np.empty(self.updates, dtype=bool)
            self.d = np.empty(self.updates)
            self.codes = np.empty(self.updates, dtype=codes.dtype)
            self.classified_with = classified_with
        rows = slice(lo, lo + n)
        self.t[rows], self.theta[rows] = run.t[:n], run.theta[:n]
        self.calibrated[rows] = run.calibrated[:n]
        self.d[rows], self.codes[rows] = d[:n], codes[:n]


class _SuitePrefixes(NamedTuple):
    """The prefix records of one `run_suite` call, by `_prefix_key`, and
    the nominal predictor and library it passes every run."""

    nominal: NominalPredictor
    library: SignatureLibrary | None
    records: dict


# The records of the `run_suite` call in progress; None outside one.
_SUITE_PREFIXES = ContextVar("gridarx_suite_prefixes", default=None)


def _simulate_identify(config: ScenarioConfig, block: int | None = None,
                       records: dict | None = None):
    """Simulate the scenario and identify over its stream:
    (sim, blocks, resumed, recording).

    `blocks` yields the IdentRun of each `block` consecutive updates, or of
    the whole run when `block` is None. Each block's samples start
    `order + 1` early, where its first regressor begins, and its estimator
    starts from the state the previous block left, so the blocks together
    are bitwise one whole-run identification; a block's `index` counts from
    its own first sample. A failure raises StageError tagged with the stage
    that failed.

    `records` maps `_prefix_key` to the _Prefix records of earlier runs.
    When it holds this run's key, `resumed` is that record: the simulation
    resumes from its samples, and the blocks start at its block edge from
    its state, so they omit the updates before it. Otherwise `recording`
    is a new _Prefix of this run, whose state the blocks fill in as they
    pass its edge, for the caller to add to `records` once the run has
    succeeded; it is None when the run has no disturbance inside it or no
    whole block before one.
    """
    key = _prefix_key(config) if records is not None else None
    resumed = records.get(key) if key is not None else None
    try:
        sim = simulate(
            config.circuit, config.disturbance, config.excitation,
            config.duration, config.ts, config.noise_std, config.noise_seed,
            config.i_op, prefix=None if resumed is None else resumed.sim,
        )
    except Exception as exc:
        raise StageError("simulate", str(exc)) from exc
    recording = None
    if key is not None and resumed is None and block is not None:
        shared = sim.prefix.v.shape[0] - config.identifier.order - 1
        edge = max(0, shared) // block * block
        if edge:
            recording = _Prefix(key, sim.prefix, edge)
    blocks = _identify_blocks(sim, config.identifier, block, resumed,
                              recording)
    return sim, blocks, resumed, recording


def _identify_blocks(sim: SimResult, identifier: ArxConfig,
                     block: int | None, resumed: _Prefix | None = None,
                     recording: _Prefix | None = None):
    overlap = identifier.order + 1
    # at least one block: a run too short for any update still goes
    # through identify once and yields its empty IdentRun
    updates = max(1, sim.t.size - overlap)
    step = updates if block is None else block
    first, state = ((0, None) if resumed is None
                    else (resumed.updates, resumed.state))
    for lo in range(first, updates, step):
        hi = lo + step + overlap
        part = SimResult(t=sim.t[lo:hi], v_dq=sim.v_dq[lo:hi],
                         i_dq=sim.i_dq[lo:hi], ts=sim.ts)
        try:
            run = identify(part, identifier, state)
        except Exception as exc:
            raise StageError(
                "identify", f"{exc} (block from update {lo})") from exc
        state = run.final_state
        if recording is not None and lo + step == recording.updates:
            recording.state = state
        yield run


def run_calibration(config: ScenarioConfig, out_dir: str | None = None):
    """Fault-free run producing the nominal predictor and auto thresholds.

    Returns (nominal, thresholds, ident_run). The distance series used for
    threshold calibration is measured against theta* over the post-burn-in
    portion of the same run.
    """
    cal_config = replace(config, disturbance=None)
    _, (run,), _, _ = _simulate_identify(cal_config)
    if not run.final_state.calibrated:
        raise StageError(
            "identify",
            f"run too short: {run.final_state.sample_count} updates, "
            f"burn-in needs {cal_config.identifier.burn_in}",
        )
    mask = run.calibrated
    window = min(cal_config.calibration_window, int(np.sum(mask)))
    thetas = run.theta[mask]
    nominal = calibrate_nominal(run.t[mask], thetas, window)
    # threshold calibration uses the settled window only: the estimator's
    # cold-start convergence transient is not nominal operation
    d_nominal = distances(thetas[-window:], nominal.theta_star)
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


def _transitions(t, codes):
    """(t, verdict value) at the first snapshot and at each change of the
    verdict code series."""
    change = np.flatnonzero(np.diff(codes, prepend=-1))
    return [(tk, det.VERDICTS[c].value)
            for tk, c in zip(t[change].tolist(), codes[change].tolist())]


def _classify_blocks(config: ScenarioConfig, blocks, nominal, thresholds,
                     library, settle_from: float, settle_to: float,
                     resumed: _Prefix | None = None,
                     recording: _Prefix | None = None):
    """Classify each identified block as it arrives and join what a run
    keeps of them: (t, d, codes, armed, theta_t, thetas, settled).

    t, d, the verdict code (normal where disarmed) and armed are per
    update; thetas holds the predictor after every THETA_STRIDE-th update,
    at times theta_t, and settled the predictor of each armed update with
    settle_from <= t < settle_to, in update order.

    A `resumed` prefix's rows stand for the updates before its edge, where
    the blocks start; they are classified again, block by block, when its
    thresholds or match floor differ from this run's. `recording` keeps
    this run's rows before its edge.
    """
    classified_with = (thresholds, config.match_floor)

    def classify(thetas):
        try:
            d, verdicts, _ = classify_series(
                thetas, nominal, thresholds, library, config.match_floor
            )
        except Exception as exc:
            raise StageError("detector", str(exc)) from exc
        return d, det.verdict_codes(verdicts)

    kept = []

    def keep(lo, t, thetas, calibrated, d, codes):
        """What the run keeps of its updates from lo on."""
        # The estimator restarts from scratch in each run and needs the
        # same settling time the nominal predictor was calibrated with;
        # until then the distance reflects cold-start convergence, not the
        # grid. Keep the detector disarmed over that initial stretch.
        armed = calibrated.copy()
        armed[: max(0, config.calibration_window - lo)] = False
        codes = np.where(armed, codes, det.VERDICT_CODE[Verdict.NORMAL])
        rows = slice(-lo % THETA_STRIDE, None, THETA_STRIDE)
        settle = (t >= settle_from) & (t < settle_to) & armed
        kept.append((t, d, codes, armed, t[rows], thetas[rows].copy(),
                     thetas[settle]))

    lo = 0  # run index of the next update
    if resumed is not None:
        if resumed.classified_with != classified_with:
            parts = [classify(resumed.theta[k:k + IDENTIFY_BLOCK])
                     for k in range(0, resumed.updates, IDENTIFY_BLOCK)]
            resumed.d, resumed.codes = (np.concatenate(p)
                                        for p in zip(*parts))
            resumed.classified_with = classified_with
        keep(0, resumed.t, resumed.theta, resumed.calibrated, resumed.d,
             resumed.codes)
        lo = resumed.updates
    for run in blocks:
        d, codes = classify(run.theta)
        if recording is not None:
            recording.store(lo, run, d, codes, classified_with)
        keep(lo, run.t, run.theta, run.calibrated, d, codes)
        lo += run.t.size
    return [np.concatenate(parts) for parts in zip(*kept)]


def run_scenario(
    config: ScenarioConfig,
    nominal: NominalPredictor,
    thresholds: Thresholds,
    library: SignatureLibrary | None = None,
    out_dir: str | None = None,
) -> RunReport:
    """Full pipeline for one scenario: simulate, identify, classify, report.

    Identification and classification stream over the run in blocks of
    IDENTIFY_BLOCK updates; the outputs are those of one whole-run pass.
    Writes samples/distance/theta CSVs, an events JSON-lines stream, and a
    JSON report when `out_dir` is given. Thresholds pinned in the scenario
    config take precedence over the calibration-supplied ones.

    Inside `run_suite`, runs that share a prefix (see `_prefix_key`) compute
    it once: the first records it, the others resume from it and copy its
    artifact rows. The outputs are bitwise those of a lone run.
    """
    suite = _SUITE_PREFIXES.get()
    records = (suite.records if suite is not None and suite.nominal is nominal
               and suite.library is library else None)
    if config.thresholds is not None:
        thresholds = config.thresholds
    library = library or SignatureLibrary(order=config.identifier.order)
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

    sim, blocks, resumed, recording = _simulate_identify(
        config, IDENTIFY_BLOCK, records)
    t, d, codes, armed, theta_t, thetas, settled = _classify_blocks(
        config, blocks, nominal, thresholds, library, settle_from, settle_to,
        resumed, recording)
    stable = np.array(debounce(codes.tolist(), config.hold), dtype=np.intp)

    dt1_high, dt1_low, dt2 = detection_times(t[armed], d[armed], t_start,
                                             t_end, thresholds)
    # debounced delays: first stable fault verdict / first stable
    # non-normal verdict after t_start
    is_fault = stable == det.VERDICT_CODE[Verdict.FAULT]
    not_normal = stable != det.VERDICT_CODE[Verdict.NORMAL]
    dt1_high_db = _first_time(t, is_fault & armed, t_start)
    dt1_low_db = _first_time(t, not_normal & armed, t_start)

    if settled.shape[0]:
        final_event = det.classify(
            settled.mean(axis=0), nominal, thresholds, library,
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
    in_window = (sim.t >= t_start) & (sim.t < t_end)
    baseline_hits = limit_check(v_rms, limits) & in_window
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
        verdict_timeline=_transitions(t, stable),
        baseline_detected=baseline_detected,
        baseline_first_violation=baseline_first,
        config_echo=config.echo(),
        library_provenance=[s.source_scenario for s in library.signatures],
        warnings=warnings,
    )

    if out_dir is not None:
        _write_artifacts(out_dir, sim, t, d, theta_t, thetas, report,
                         resumed or recording, records)
    if recording is not None:
        records[recording.key] = recording
    return report


def _write_artifacts(out_dir: str, sim, t, d, theta_t, thetas,
                     report: RunReport, prefix: _Prefix | None,
                     records: dict | None) -> None:
    """Write a run's artifacts into out_dir.

    With a prefix, the CSV rows it covers are copied from the artifacts
    its heads name, if any, and its heads then name these. Heads that name
    out_dir are forgotten first, since this run overwrites their files.
    """
    os.makedirs(out_dir, exist_ok=True)
    where = os.path.abspath(out_dir)
    for rec in (records or {}).values():
        if rec.heads is not None and rec.heads[0] == where:
            rec.heads = None
    if prefix is None:
        split_samples = split_updates = split_theta = 0
        heads = None
    else:
        split_samples, split_updates = prefix.sim.v.shape[0], prefix.updates
        split_theta = -(-prefix.updates // THETA_STRIDE)
        heads = prefix.heads

    def source(name):
        """(path, size) of the earlier artifact to copy the head from."""
        if heads is None:
            return None
        return os.path.join(heads[0], name), heads[1][name]

    sizes = {
        "samples.csv": write_samples_csv(
            os.path.join(out_dir, "samples.csv"), sim, split_samples,
            source("samples.csv")),
        "distance.csv": write_distance_csv(
            os.path.join(out_dir, "distance.csv"), t, d, split_updates,
            source("distance.csv")),
        "theta.csv": write_theta_csv(
            os.path.join(out_dir, "theta.csv"), theta_t, thetas, 1,
            split_theta, source("theta.csv")),
    }
    with open(os.path.join(out_dir, "events.jsonl"), "w") as fh:
        for tk, v in report.verdict_timeline:
            idx = int(np.searchsorted(t, tk))
            fh.write(json.dumps({
                "t": tk, "verdict": v, "d": float(d[min(idx, d.size - 1)]),
            }) + "\n")
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    if prefix is not None:
        prefix.heads = (where, sizes)


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
    """Run each labeled offline scenario and record its signature.

    Of each run only the (t, theta) rows inside the disturbance window are
    kept, the only ones `build_library` reads. Runs that share a prefix
    (see `_prefix_key`) simulate and identify it once; since the window
    starts after it, its record holds only the simulator's samples and the
    estimator's state.
    """
    records = {}
    runs = []
    order = None
    for config in configs:
        if config.disturbance is None:
            raise ValueError(
                f"scenario {config.name!r} has no disturbance; cannot label it"
            )
        label = (Verdict.FAULT if config.disturbance.kind == "fault"
                 else Verdict.LOAD_INCREASE)
        t_start, t_end = config.disturbance.t_start, config.disturbance.t_end
        _, blocks, _, recording = _simulate_identify(
            config, IDENTIFY_BLOCK, records)
        kept = []
        for run in blocks:
            window = (run.t >= t_start) & (run.t < t_end)
            kept.append((run.t[window], run.theta[window]))
        t, thetas = (np.concatenate(parts) for parts in zip(*kept))
        runs.append((label, t, thetas, t_start, t_end, config.name))
        order = config.identifier.order
        if recording is not None:
            records[recording.key] = recording
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
    duration of this call only.
    """
    reports = {}
    rows = []
    token = _SUITE_PREFIXES.set(_SuitePrefixes(nominal, library, {}))
    try:
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
    finally:
        _SUITE_PREFIXES.reset(token)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "comparison.csv"), "w") as fh:
            fh.write("scenario,method,detected,verdict,dt1,dt2\n")
            for row in rows:
                fh.write(",".join(str(c) for c in row) + "\n")
    return reports, rows
