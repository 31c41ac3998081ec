"""Parameter-deviation fault detection.

Tracks the Frobenius distance between the live ARX predictor and a nominal
predictor captured during fault-free operation. A large distance trips the
fault verdict outright; a moderate distance triggers comparison of the
per-component predictor deviation against a library of recorded fault and
load-increase patterns.

The distances and the verdicts are computed in C (`_kernels.c`):
`classify_series` is one kernel call, which takes each snapshot in one
pass (its deviation and distance, summed in the order of numpy's
add.reduce; for a band snapshot its products with the signatures, each
summed left to right; then its similarity, best match and verdict code).
The signature matrix is built once per library
(`SignatureLibrary.arrays`), which cannot change once made. The debounce
of the verdicts, a run's transitions and its first times (the delays
dt1_high, dt1_low and dt2 of the distance and the two debounced ones) are
one loop in C as well (`_kernels.debounce_block`, which
`scenario.Detector` calls once per block), which updates two arrays in
place: the debounce's state (`debounce_state`) and the five first times,
NaN until found. So are the running sums of `RunningMean` and
`calibrate_nominal`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import _kernels

DEFAULT_MATCH_FLOOR = 0.8
# The multiples of the worst fault-free distance that are the auto
# thresholds d_high and d_low.
HIGH_FACTOR = 5.0
LOW_FACTOR = 1.5
DEFAULT_HOLD = 3

LIBRARY_FORMAT_VERSION = 1


class InsufficientDataError(ValueError):
    """Not enough snapshots to calibrate or build from."""


class Verdict(str, Enum):
    NORMAL = "normal"
    FAULT = "fault"
    LOAD_INCREASE = "load_increase"
    UNCLASSIFIED = "unclassified"


# Array code carries a verdict as an integer code, the member's position in
# Verdict; VERDICTS[codes] turns codes back into members.
VERDICTS = np.array(list(Verdict), dtype=object)
VERDICT_CODE = {v: code for code, v in enumerate(Verdict)}

# The codes `classify_series` returns.
NORMAL_CODE, FAULT_CODE, LOAD_CODE, UNCLASSIFIED_CODE = (
    VERDICT_CODE[v] for v in (Verdict.NORMAL, Verdict.FAULT,
                              Verdict.LOAD_INCREASE, Verdict.UNCLASSIFIED))

# The verdicts a library signature may carry.
SIGNATURE_LABELS = (Verdict.FAULT, Verdict.LOAD_INCREASE)


@dataclass(frozen=True)
class NominalPredictor:
    """Reference predictor from fault-free operation."""

    theta_star: np.ndarray  # (2, 4*order)
    calibration_window: int
    calibrated_at: float  # timestamp of the newest snapshot used


@dataclass(frozen=True)
class Thresholds:
    d_high: float
    d_low: float

    def __post_init__(self):
        if not 0.0 < self.d_low < self.d_high:
            raise ValueError(
                f"need 0 < d_low < d_high, got d_low={self.d_low}, "
                f"d_high={self.d_high}"
            )


def json_numbers(value, key: str, ndim: int) -> np.ndarray:
    """`value`, as read from JSON, as a float array of `ndim` dimensions.
    A value of another form, an item that is not a number (a bool is not
    one), an integer beyond the float range or a number that is not finite
    raises ValueError naming `key`."""
    items = np.array(value, dtype=object)
    bad = [x for x in items.flat if type(x) not in (int, float)]
    if bad or items.ndim != ndim:
        form = f"a {ndim}-D list of numbers" if ndim else "a number"
        raise ValueError(f"{key}: expected {form}, got "
                         f"{(bad[0] if bad else value)!r}")
    try:
        numbers = items.astype(float)
    except OverflowError as exc:  # JSON allows integers of any size
        raise ValueError(f"{key}: {exc}") from None
    if not np.isfinite(numbers).all():
        raise ValueError(f"{key} holds a non-finite value")
    return numbers


JSON_KINDS = {dict: "an object", list: "a list", str: "a string"}


def json_typed(value, kind: type, key: str):
    """`value`, as read from JSON, when it is a `kind` of JSON_KINDS;
    otherwise ValueError naming `key`."""
    if not isinstance(value, kind):
        raise ValueError(f"{key}: expected {JSON_KINDS[kind]}, got {value!r}")
    return value


def json_count(value, key: str) -> int:
    """`value`, as read from JSON, as an integer >= 1; anything else (a
    bool is not an integer here) raises ValueError naming `key`."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{key}: expected an integer >= 1, got {value!r}")
    return value


def _signature_label(label, entry: str) -> Verdict:
    """`label` (a Verdict or its value) as a signature label; anything but
    fault or load_increase raises ValueError naming `entry`."""
    value = getattr(label, "value", label)
    try:
        verdict = Verdict(value)
    except ValueError:
        verdict = None
    if verdict not in SIGNATURE_LABELS:
        raise ValueError(
            f"{entry}: label {value!r} is not a signature label; expected "
            "fault or load_increase"
        )
    return verdict


@dataclass(frozen=True)
class Signature:
    """Unit-norm predictor-deviation pattern from one recorded scenario."""

    label: Verdict  # FAULT or LOAD_INCREASE
    delta_theta: np.ndarray  # (2, 4*order), unit Frobenius norm
    source_scenario: str = ""


@dataclass(frozen=True)
class SignatureLibrary:
    """The signatures a run's band snapshots are matched against. A library
    cannot change once made: `signatures` is a tuple (a list given is
    copied into one) of frozen Signatures, whose delta_theta is not to be
    written in place."""

    order: int
    signatures: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "signatures", tuple(self.signatures))

    @cached_property
    def arrays(self):
        """(matrix, norms, codes) of the signatures, built once per
        library: row s of `matrix` is signature s's delta_theta flattened,
        norms[s] its Frobenius norm (its `distances` to zero, summed in
        numpy's pairwise order) and codes[s] its label's verdict code;
        (None, None, None) for an empty library."""
        if not self.signatures:
            return None, None, None
        matrix = np.array([s.delta_theta for s in self.signatures],
                          float).reshape(len(self.signatures), -1)
        return (matrix, distances(matrix, np.zeros(matrix.shape[1])),
                np.array([FAULT_CODE if s.label is Verdict.FAULT
                          else LOAD_CODE for s in self.signatures], np.intp))

    def to_json(self) -> str:
        doc = {
            "version": LIBRARY_FORMAT_VERSION,
            "order": self.order,
            "signatures": [
                {
                    "label": sig.label.value,
                    "delta_theta": sig.delta_theta.flatten().tolist(),
                    "shape": list(sig.delta_theta.shape),
                    "source_scenario": sig.source_scenario,
                }
                for sig in self.signatures
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SignatureLibrary":
        """Parse `to_json` output. A document that is not an object, an
        order that is not an integer >= 1 or signatures that are not a list
        raise ValueError naming the key; an entry that is not an object, or
        whose source_scenario is not a string, whose label is other than
        fault or load_increase, whose shape is not (2, 4 * order) or whose
        delta_theta holds an item that is not a finite number, one naming
        the entry."""
        doc = json_typed(json.loads(text), dict, "top level")
        order = json_count(doc["order"], "order")
        signatures = []
        for k, entry in enumerate(json_typed(doc["signatures"], list,
                                             "signatures")):
            entry = json_typed(entry, dict, f"library entry {k}")
            source = json_typed(entry.get("source_scenario", ""), str,
                                f"library entry {k}: source_scenario")
            where = f"library entry {k} ({source!r})"
            label = _signature_label(entry["label"], where)
            shape = entry["shape"]
            if isinstance(shape, list):
                shape = tuple(shape)
            if shape != (2, 4 * order):
                raise ValueError(
                    f"{where}: shape {shape!r} does not match the library's "
                    f"order {order}, which needs {(2, 4 * order)}"
                )
            delta = json_numbers(entry["delta_theta"], f"{where}: delta_theta",
                                 1).reshape(2, 4 * order)
            signatures.append(Signature(label=label, delta_theta=delta,
                                        source_scenario=source))
        return cls(order=order, signatures=signatures)


@dataclass(frozen=True)
class DetectionEvent:
    verdict: Verdict
    d: float
    t: float
    matched_label: Verdict | None = None
    matched_similarity: float | None = None


def calibrate_nominal(t, thetas) -> NominalPredictor:
    """Elementwise mean of the predictor snapshots thetas (m, rows, cols)
    taken at times t (m,), summed as `RunningMean` sums; m is recorded as
    the calibration window. No snapshot raises InsufficientDataError.

    A snapshot holding a NaN or an infinity raises ValueError naming its
    index in `thetas`: the mean would carry it into every distance
    measured from it."""
    t = np.asarray(t, float)
    thetas = np.asarray(thetas, float)
    if thetas.ndim != 3 or t.shape != thetas.shape[:1]:
        raise ValueError(
            f"need t (m,) and thetas (m, rows, cols), got {t.shape} and "
            f"{thetas.shape}"
        )
    if not t.size:
        raise InsufficientDataError("no snapshots to calibrate from")
    mean = RunningMean()
    mean.add(thetas)
    theta_star = mean.mean()
    if not np.isfinite(theta_star).all():
        finite = np.isfinite(thetas).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(
                f"snapshot {int(np.argmin(finite))} holds a non-finite "
                "value; theta* would carry it"
            )
    return NominalPredictor(theta_star=theta_star, calibration_window=t.size,
                            calibrated_at=float(t[-1]))


def distances(thetas, theta_star) -> np.ndarray:
    """Frobenius distance of each predictor snapshot in `thetas` (m, rows,
    cols) to the reference `theta_star` (rows, cols); a snapshot shape
    other than the reference's raises ValueError.

    Each distance is sqrt(add.reduce(dev * dev)) over the snapshot's
    deviation dev, flattened, summed in numpy's order
    (`_kernels.distance_block`), so it has the bits of
    np.linalg.norm(thetas - theta_star, axis=(1, 2)), which makes the same
    reduction over the same contiguous values.
    """
    return _kernels.distance_block(thetas, theta_star)


class RunningMean:
    """The elementwise mean of rows given block by block, in time order.
    It keeps the sum and the row count, not the rows.

    The sum adds the rows to 0.0 one after another, each value on its own,
    in a loop of the package's own (`_kernels.add_rows`), and the mean
    divides it by the count: for rows of two values or more, the bits of
    np.mean over the blocks joined (axis 0), whose add.reduce sums
    C-contiguous rows in that order (pairwise only along the fast axis).
    An empty block leaves the sum as it was."""

    def __init__(self):
        self.total = None  # the sum of the rows so far
        self.count = 0

    def add(self, rows) -> None:
        rows = np.asarray(rows, float)
        if rows.shape[0]:
            if self.total is None:
                self.total = np.zeros(rows.shape[1:])
            _kernels.add_rows(self.total, rows)
            self.count += rows.shape[0]

    def mean(self) -> np.ndarray:
        return self.total / self.count


def calibrate_thresholds(d_values) -> Thresholds:
    """Scale the worst fault-free distance into trip thresholds."""
    d_values = np.asarray(d_values, float)
    if d_values.size == 0:
        raise InsufficientDataError("no distance samples to calibrate from")
    d_max = float(np.max(d_values))
    if d_max <= 0:
        raise InsufficientDataError("fault-free distances are all zero")
    return Thresholds(d_high=HIGH_FACTOR * d_max, d_low=LOW_FACTOR * d_max)


def classify_series(thetas, nominal: NominalPredictor, thresholds: Thresholds,
                    library: SignatureLibrary,
                    match_floor: float = DEFAULT_MATCH_FLOOR):
    """Two-criterion decision on each snapshot of a predictor trajectory.

    d > d_high trips the fault verdict without consulting the library.
    d_low < d <= d_high compares the deviation theta - theta* with the
    library by cosine similarity, which is scale-free, so one recorded
    signature covers a range of disturbance severities: the best match
    gives its label, a best similarity below `match_floor` or an empty
    library gives the unclassified verdict. Otherwise normal.

    Returns (d array, verdict code array, similarity array): each verdict
    as its integer code (VERDICTS[codes] gives the members), and the best
    match's similarity, NaN outside the criterion-2 band or with an empty
    library.
    A snapshot whose distance is NaN has no verdict: it raises ValueError
    naming the first such snapshot. An infinite distance is a fault.

    The snapshot shape must be theta*'s, else ValueError.

    One kernel call (`_kernels.classify_block`) takes the snapshots one
    by one: the deviation and d, summed as `distances` sums it; for a band
    snapshot, its product with each signature, summed left to right from
    0.0; then the similarity, the first best match (np.argmax's) and the
    verdict code. A snapshot's outputs do not depend on the rows around
    it.
    """
    if nominal is None:
        raise ValueError("nominal predictor is not calibrated")
    return _kernels.classify_block(thetas, nominal.theta_star,
                                   *library.arrays, thresholds.d_low,
                                   thresholds.d_high, match_floor)


def classify(
    theta,
    nominal: NominalPredictor,
    thresholds: Thresholds,
    library: SignatureLibrary,
    t: float = 0.0,
    match_floor: float = DEFAULT_MATCH_FLOOR,
) -> DetectionEvent:
    """`classify_series` on one predictor snapshot.

    The matched label is set only for a criterion-2 match at or above
    `match_floor`; the similarity is None where the series gives NaN.
    """
    d, codes, similarity = classify_series(
        np.asarray(theta, float)[None], nominal, thresholds, library,
        match_floor)
    verdict, sim = VERDICTS[codes[0]], float(similarity[0])
    if np.isnan(sim):
        return DetectionEvent(verdict=verdict, d=float(d[0]), t=t)
    label = None if verdict is Verdict.UNCLASSIFIED else verdict
    return DetectionEvent(verdict=verdict, d=float(d[0]), t=t,
                          matched_label=label, matched_similarity=sim)


def debounce_state() -> np.ndarray:
    """Where `debounce` stands before a stream's first code: the int64
    array (current, candidate, streak) of the reported code (-1 before the
    first) and the candidate code (-1 for none) with its streak, which
    each call updates in place."""
    return np.array([-1, -1, 0], np.int64)


def debounce(codes, hold: int = DEFAULT_HOLD,
             state: np.ndarray | None = None) -> np.ndarray:
    """Suppress single-sample verdict chatter in an array of verdict codes
    (each >= 0, such as `classify_series` returns; VERDICTS[codes] gives
    the members), as an intp array of the reported codes.

    The reported code changes only after the raw code has held its new
    value for `hold` consecutive samples; a stream's first code is
    reported at once.

    A stream given in consecutive blocks passes one `state`
    (`debounce_state`) to every call: each call starts where it stands and
    leaves it where the block ends, so the blocks' outputs join into the
    output of one call on their join; a call that raises leaves it as it
    was. One loop in C (`_kernels.debounce_block`), which a run also asks
    for its transitions and its first times.
    """
    if state is None:
        state = debounce_state()
    return _kernels.debounce_block(codes, hold, state, 0, None, None, None,
                                   None)[0]


def build_library(scenario_runs, nominal: NominalPredictor,
                  thresholds: Thresholds, order: int) -> SignatureLibrary:
    """Record one unit-norm deviation signature per offline scenario run.

    Each run is (label, pieces, t_start, t_end, source): `pieces` yields
    the run's predictors as (t array, theta trajectory) pairs in time
    order, and a run given as arrays is one piece. The label must be fault
    or load_increase, else ValueError, and t must increase, within and
    across pieces, else ValueError. The signature averages theta over the
    second half of the disturbance window (the settled segment, past the
    estimator transient). Runs with no snapshot in that half, or whose
    distance never exceeds d_low inside the window, are rejected with
    InsufficientDataError: their signature would be empty or noise.

    The runs and their pieces are read one at a time, each run's pieces
    to their end before the next run is taken, and a piece is dropped once
    read: of a run only the window's largest distance and the settled
    half's running sum (`RunningMean`) are kept, so the signatures have
    the bits of np.max and np.mean over the whole run's rows.
    """
    return SignatureLibrary(order, [
        _signature(_signature_label(label, f"run {str(source)!r}"), pieces,
                   nominal, thresholds, t_start, t_end, source)
        for label, pieces, t_start, t_end, source in scenario_runs])


def _signature(label: Verdict, pieces, nominal: NominalPredictor,
               thresholds: Thresholds, t_start: float, t_end: float,
               source) -> Signature:
    """`build_library`'s signature of one run, read piece by piece."""
    settled = RunningMean()
    d_max = None  # the largest distance inside the window so far
    last = None  # the time of the last snapshot read
    for t, thetas in pieces:
        t = np.asarray(t, float)
        thetas = np.asarray(thetas, float)
        if t.size:
            if not (np.all(np.diff(t) > 0)
                    and (last is None or t[0] > last)):
                raise ValueError(
                    f"run {source!r}: snapshot times must increase")
            last = t[-1]
            # t increases, so each stretch is a slice: a view, not a copy
            lo, mid, hi = np.searchsorted(
                t, [t_start, (t_start + t_end) / 2.0, t_end])
            if lo < hi:
                d = np.max(distances(thetas[lo:hi], nominal.theta_star))
                d_max = d if d_max is None else np.maximum(d_max, d)
            settled.add(thetas[mid:hi])
        del t, thetas  # before the next piece is read
    if not settled.count:  # and so, when the whole window is empty
        raise InsufficientDataError(
            f"run {source!r}: no snapshots in the settled second half "
            "of the disturbance window"
        )
    if float(d_max) <= thresholds.d_low:
        raise InsufficientDataError(
            f"run {source!r}: distance never exceeded d_low inside the "
            "disturbance window; signature would be noise"
        )
    delta = settled.mean() - nominal.theta_star
    norm = distances(delta[None], np.zeros_like(delta))[0]
    if norm <= 0:
        raise InsufficientDataError(f"run {source!r}: zero deviation")
    return Signature(label=label, delta_theta=delta / norm,
                     source_scenario=str(source))
