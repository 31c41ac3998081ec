"""Parameter-deviation fault detection.

Tracks the Frobenius distance between the live ARX predictor and a nominal
predictor captured during fault-free operation. A large distance trips the
fault verdict outright; a moderate distance triggers comparison of the
per-component predictor deviation against a library of recorded fault and
load-increase patterns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

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

# The codes `classify_series` writes.
NORMAL_CODE, FAULT_CODE, LOAD_CODE, UNCLASSIFIED_CODE = (
    VERDICT_CODE[v] for v in (Verdict.NORMAL, Verdict.FAULT,
                              Verdict.LOAD_INCREASE, Verdict.UNCLASSIFIED))

# The verdicts a library signature may carry.
SIGNATURE_LABELS = (Verdict.FAULT, Verdict.LOAD_INCREASE)


def verdict_codes(verdicts) -> np.ndarray:
    """Integer codes of a sequence of verdicts: VERDICTS[codes] gives them
    back."""
    return np.fromiter(map(VERDICT_CODE.__getitem__, verdicts), np.intp,
                       len(verdicts))


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


@dataclass
class SignatureLibrary:
    order: int
    signatures: list = field(default_factory=list)

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
        """Parse `to_json` output; a signature labelled other than fault or
        load_increase, whose shape is not (2, 4 * order) or whose
        delta_theta holds a non-finite value raises ValueError naming the
        entry."""
        doc = json.loads(text)
        lib = cls(order=doc["order"])
        for k, entry in enumerate(doc["signatures"]):
            source = entry.get("source_scenario", "")
            label = _signature_label(entry["label"],
                                     f"library entry {k} ({source!r})")
            shape = tuple(entry["shape"])
            if shape != (2, 4 * lib.order):
                raise ValueError(
                    f"library entry {k} ({source!r}): shape {shape} does not "
                    f"match the library's order {lib.order}, which needs "
                    f"{(2, 4 * lib.order)}"
                )
            delta = np.array(entry["delta_theta"]).reshape(shape)
            if not np.all(np.isfinite(delta)):
                raise ValueError(
                    f"library entry {k} ({source!r}): delta_theta holds a "
                    "non-finite value"
                )
            lib.signatures.append(
                Signature(label=label, delta_theta=delta,
                          source_scenario=source)
            )
        return lib


@dataclass(frozen=True)
class DetectionEvent:
    verdict: Verdict
    d: float
    t: float
    matched_label: Verdict | None = None
    matched_similarity: float | None = None


def calibrate_nominal(t, thetas, window: int) -> NominalPredictor:
    """Elementwise mean of the last `window` predictor snapshots: thetas
    (m, rows, cols) taken at times t (m,).

    A snapshot in the window holding a NaN or an infinity raises
    ValueError naming its index in `thetas`: the mean would carry it into
    every distance measured from it."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    t = np.asarray(t, float)
    thetas = np.asarray(thetas, float)
    if thetas.ndim != 3 or t.shape != thetas.shape[:1]:
        raise ValueError(
            f"need t (m,) and thetas (m, rows, cols), got {t.shape} and "
            f"{thetas.shape}"
        )
    if thetas.shape[0] < window:
        raise InsufficientDataError(
            f"need {window} snapshots, have {thetas.shape[0]}"
        )
    theta_star = np.mean(thetas[-window:], axis=0)
    if not np.isfinite(theta_star).all():
        finite = np.isfinite(thetas[-window:]).all(axis=(1, 2))
        if not finite.all():
            k = thetas.shape[0] - window + int(np.argmin(finite))
            raise ValueError(
                f"snapshot {k} holds a non-finite value; theta* would "
                "carry it"
            )
    return NominalPredictor(
        theta_star=theta_star,
        calibration_window=window,
        calibrated_at=float(t[-1]),
    )


# Snapshots per chunk in `distances`: bounds its temporaries to a chunk.
DISTANCE_CHUNK = 4096


def distances(thetas, theta_star) -> np.ndarray:
    """Frobenius distance of each predictor snapshot in `thetas` (m, rows,
    cols) to the reference `theta_star` (rows, cols).

    Computed DISTANCE_CHUNK snapshots at a time; each distance depends on
    its own row only, so the result is bitwise that of one whole-array
    norm. Each distance is sqrt(add.reduce(dev * dev)) over the snapshot's
    deviation, flattened: np.linalg.norm(axis=(1, 2)) makes the same
    reduction over the same contiguous values, behind Python-level axis
    handling.
    """
    thetas = np.asarray(thetas, float)
    theta_star = np.asarray(theta_star, float)
    if thetas.shape[1:] != theta_star.shape:
        raise ValueError(
            f"snapshot shape {thetas.shape[1:]} does not match the reference "
            f"predictor shape {theta_star.shape}"
        )
    m = thetas.shape[0]
    d = np.empty(m)
    # one deviation buffer serves every chunk
    chunk = np.empty((min(m, DISTANCE_CHUNK), theta_star.size))
    for lo in range(0, m, DISTANCE_CHUNK):
        rows = thetas[lo:lo + DISTANCE_CHUNK]
        out = d[lo:lo + DISTANCE_CHUNK]
        dev = chunk[:out.size]
        np.subtract(rows, theta_star, dev.reshape(rows.shape))
        np.multiply(dev, dev, dev)
        np.add.reduce(dev, 1, None, out)
        np.sqrt(out, out)
    return d


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

    Returns (d array, verdict list, similarity array); similarity is the
    best match's, NaN outside the criterion-2 band or with an empty library.
    A snapshot whose distance is NaN has no verdict: it raises ValueError
    naming the first such snapshot. An infinite distance is a fault.
    """
    if nominal is None:
        raise ValueError("nominal predictor is not calibrated")
    thetas = np.asarray(thetas, float)
    d = distances(thetas, nominal.theta_star)
    # d >= 0, so the sum is NaN exactly when some d is: one reduction
    # checks them all. An infinite d is a fault like any d > d_high.
    if math.isnan(np.add.reduce(d)):
        k = int(np.argmax(np.isnan(d)))
        raise ValueError(
            f"snapshot {k} holds a NaN: its distance to the nominal "
            "predictor is NaN"
        )
    high = d > thresholds.d_high
    codes = np.where(high, FAULT_CODE, NORMAL_CODE)
    similarity = np.empty(d.size)
    similarity.fill(np.nan)
    # d_low < d_high, so d > d_high implies d > d_low and the xor leaves
    # d_low < d <= d_high
    band_idx = ((d > thresholds.d_low) ^ high).nonzero()[0]
    if band_idx.size:
        signatures = library.signatures
        if not signatures:
            codes[band_idx] = UNCLASSIFIED_CODE
        else:
            # the band's deviations in one array, so that their products
            # with the signatures come from one BLAS call, whose bits can
            # depend on its row count
            flat = thetas[band_idx]  # fancy indexing copies: subtract in place
            flat -= nominal.theta_star
            flat = flat.reshape(band_idx.size, -1)
            sig_mat = np.array([s.delta_theta for s in signatures]).reshape(
                len(signatures), -1)
            sig_norm = np.sqrt(np.add.reduce(sig_mat * sig_mat, 1))
            # the norm of a band deviation is bitwise its d, the same
            # reduction over the same values
            denom = d[band_idx, None] * sig_norm
            sims = np.divide(flat @ sig_mat.T, denom,
                             out=np.zeros(denom.shape), where=denom > 0)
            best = sims.argmax(axis=1)
            best_sim = sims[np.arange(band_idx.size), best]
            similarity[band_idx] = best_sim
            sig_codes = np.array([
                FAULT_CODE if s.label is Verdict.FAULT else LOAD_CODE
                for s in signatures
            ])
            codes[band_idx] = np.where(best_sim < match_floor,
                                       UNCLASSIFIED_CODE, sig_codes[best])
    return d, VERDICTS[codes].tolist(), similarity


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
    d, verdicts, similarity = classify_series(
        np.asarray(theta, float)[None], nominal, thresholds, library,
        match_floor)
    verdict, sim = verdicts[0], float(similarity[0])
    if np.isnan(sim):
        return DetectionEvent(verdict=verdict, d=float(d[0]), t=t)
    label = None if verdict is Verdict.UNCLASSIFIED else verdict
    return DetectionEvent(verdict=verdict, d=float(d[0]), t=t,
                          matched_label=label, matched_similarity=sim)


def first_time(t, mask, t0: float, found=None):
    """The first t where `mask` holds, minus t0; None when it never does.

    A series given in consecutive blocks carries `found`: the result of the
    call on the blocks before. A time found there is kept, so the call on
    the last block returns the result of one call on their join.
    """
    if found is not None:
        return found
    return float(t[mask][0] - t0) if np.any(mask) else None


def detection_times(t, d, t_start: float, t_end: float,
                    thresholds: Thresholds, found=(None, None, None)):
    """Detection and recovery delays from a distance time series:
    (dt1_high, dt1_low, dt2).

    dt1_high / dt1_low: first time at or after t_start at which d exceeds
    d_high (the low-impedance trip) / d_low (the high-impedance trip),
    minus t_start. dt2: first time at or after t_end at which d is back at
    d_low or below, minus t_end. Each is None when no crossing occurs.

    A series given in consecutive blocks carries `found` as `first_time`
    does, for each of the three.
    """
    t = np.asarray(t, float)
    d = np.asarray(d, float)
    after_start = t >= t_start
    return (first_time(t, after_start & (d > thresholds.d_high), t_start,
                       found[0]),
            first_time(t, after_start & (d > thresholds.d_low), t_start,
                       found[1]),
            first_time(t, (t >= t_end) & (d <= thresholds.d_low), t_end,
                       found[2]))


@dataclass
class DebounceState:
    """Where `debounce` left a verdict stream: the reported verdict (None
    before the first) and the candidate verdict with its streak."""

    current: object = None
    candidate: object = None
    streak: int = 0


def debounce(verdicts, hold: int = DEFAULT_HOLD,
             state: DebounceState | None = None):
    """Suppress single-sample verdict chatter.

    The reported verdict changes only after the raw verdict has held its new
    value for `hold` consecutive samples. Verdicts may be any values that
    compare with ==, such as Verdict members or their integer codes.

    A stream given in consecutive blocks passes one `state` to every call:
    each call starts where it stands and leaves it where the block ends, so
    the blocks' outputs join into the output of one call on their join.
    """
    if hold < 1:
        raise ValueError(f"hold must be >= 1, got {hold}")
    if state is None:
        state = DebounceState()
    out = []
    current, candidate, streak = state.current, state.candidate, state.streak
    for v in verdicts:
        if current is None:
            current = v
        if v == current:
            candidate, streak = None, 0
        elif v == candidate:
            streak += 1
            if streak >= hold:
                current = v
                candidate, streak = None, 0
        else:
            candidate, streak = v, 1
            if hold == 1:
                current = v
                candidate, streak = None, 0
        out.append(current)
    state.current, state.candidate, state.streak = current, candidate, streak
    return out


def build_library(scenario_runs, nominal: NominalPredictor,
                  thresholds: Thresholds, order: int) -> SignatureLibrary:
    """Record one unit-norm deviation signature per offline scenario run.

    Each run is (label, t array, theta trajectory, t_start, t_end, source);
    the label must be fault or load_increase, else ValueError, and t must
    increase, else ValueError. The signature averages theta over the second
    half of the disturbance window (the settled segment, past the estimator
    transient). Runs with no snapshot in that half, or whose distance never
    exceeds d_low inside the window, are rejected with
    InsufficientDataError: their signature would be empty or noise.
    """
    lib = SignatureLibrary(order=order)
    for label, t, thetas, t_start, t_end, source in scenario_runs:
        label = _signature_label(label, f"run {str(source)!r}")
        t = np.asarray(t, float)
        thetas = np.asarray(thetas, float)
        if not np.all(np.diff(t) > 0):
            raise ValueError(f"run {source!r}: snapshot times must increase")
        # t increases, so each stretch is a slice: a view, not a copy
        lo, mid, hi = np.searchsorted(t, [t_start, (t_start + t_end) / 2.0,
                                          t_end])
        if hi <= mid:  # and so, when the whole window is empty
            raise InsufficientDataError(
                f"run {source!r}: no snapshots in the settled second half "
                "of the disturbance window"
            )
        d_window = distances(thetas[lo:hi], nominal.theta_star)
        if float(np.max(d_window)) <= thresholds.d_low:
            raise InsufficientDataError(
                f"run {source!r}: distance never exceeded d_low inside the "
                "disturbance window; signature would be noise"
            )
        delta = np.mean(thetas[mid:hi], axis=0) - nominal.theta_star
        norm = np.linalg.norm(delta)
        if norm <= 0:
            raise InsufficientDataError(f"run {source!r}: zero deviation")
        lib.signatures.append(
            Signature(
                label=label,
                delta_theta=delta / norm,
                source_scenario=str(source),
            )
        )
    return lib
