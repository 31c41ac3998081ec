"""Detector unit behavior plus end-to-end discrimination on held-out runs."""

import json

import numpy as np
import pytest

from gridarx.detector import (
    DISTANCE_CHUNK,
    DebounceState,
    DetectionEvent,
    InsufficientDataError,
    Signature,
    SignatureLibrary,
    Thresholds,
    Verdict,
    build_library,
    calibrate_nominal,
    calibrate_thresholds,
    classify,
    classify_series,
    debounce,
    detection_times,
    distances,
)

ORDER = 3
SHAPE = (2, 4 * ORDER)


def oracle_classify(theta, nominal, thresholds, library, t=0.0,
                    match_floor=0.8):
    """Reference two-criterion decision on one snapshot: a flattened
    distance and a loop over the signatures, independent of the vectorized
    classifier."""
    delta = np.asarray(theta, float) - nominal.theta_star
    d = float(np.linalg.norm(delta))
    if d > thresholds.d_high:
        return DetectionEvent(verdict=Verdict.FAULT, d=d, t=t)
    if d <= thresholds.d_low:
        return DetectionEvent(verdict=Verdict.NORMAL, d=d, t=t)
    if not library.signatures:
        return DetectionEvent(verdict=Verdict.UNCLASSIFIED, d=d, t=t)
    v = delta.flatten()
    best_label, best_sim = None, -np.inf
    for sig in library.signatures:
        w = sig.delta_theta.flatten()
        denom = np.linalg.norm(v) * np.linalg.norm(w)
        sim = float(v @ w / denom) if denom > 0 else 0.0
        if sim > best_sim:
            best_label, best_sim = sig.label, sim
    label = best_label if best_sim >= match_floor else None
    return DetectionEvent(verdict=label or Verdict.UNCLASSIFIED, d=d, t=t,
                          matched_label=label, matched_similarity=best_sim)


def assert_same_event(got, want):
    """Verdict and label exactly; d and similarity to rounding (a norm over
    axes and a flattened dot product sum in different orders)."""
    assert got.verdict is want.verdict
    assert got.matched_label is want.matched_label
    assert got.t == want.t
    assert got.d == pytest.approx(want.d, rel=1e-14, abs=0.0)
    if want.matched_similarity is None:
        assert got.matched_similarity is None
    else:
        assert got.matched_similarity == pytest.approx(
            want.matched_similarity, rel=1e-14, abs=1e-15)


def flat_library(vectors_labels):
    lib = SignatureLibrary(order=ORDER)
    for vec, label in vectors_labels:
        vec = np.asarray(vec, float)
        lib.signatures.append(
            Signature(label=label, delta_theta=vec / np.linalg.norm(vec))
        )
    return lib


def oracle_calibrate_nominal(stream, window):
    """Reference nominal predictor from a list of (t, theta) snapshots: the
    mean of the last `window` thetas, stacked from a Python list."""
    tail = list(stream)[-window:]
    return (np.mean([np.asarray(th, float) for _, th in tail], axis=0),
            float(tail[-1][0]))


class TestCalibrateNominal:
    def test_constant_stream(self):
        theta = np.full(SHAPE, 0.7)
        t = 0.1 * np.arange(10)
        nom = calibrate_nominal(t, np.broadcast_to(theta, (10,) + SHAPE),
                                window=5)
        assert np.array_equal(nom.theta_star, theta)
        assert nom.calibration_window == 5
        assert nom.calibrated_at == pytest.approx(0.9)

    def test_averaging_suppresses_jitter(self, rng):
        """Mean of w i.i.d.-jittered snapshots wanders like eps/sqrt(w)."""
        eps, w, trials = 0.01, 100, 50
        base = np.ones(SHAPE)
        errs = []
        for _ in range(trials):
            thetas = base + eps * rng.standard_normal((w,) + SHAPE)
            nom = calibrate_nominal(np.arange(w), thetas, w)
            errs.append(np.linalg.norm(nom.theta_star - base))
        expected = eps * np.sqrt(base.size / w)
        assert np.mean(errs) == pytest.approx(expected, rel=0.2)

    @pytest.mark.parametrize("m, window", [(1, 1), (7, 3), (5000, 5000),
                                           (6000, 4999)])
    def test_bitwise_equal_to_list_oracle(self, rng, m, window):
        t = rng.uniform(0.0, 10.0, m)
        thetas = rng.standard_normal((m,) + SHAPE)
        nom = calibrate_nominal(t, thetas, window)
        theta_star, calibrated_at = oracle_calibrate_nominal(
            zip(t, thetas), window)
        assert np.array_equal(nom.theta_star.view(np.uint64),
                              theta_star.view(np.uint64))
        assert nom.calibrated_at == calibrated_at

    def test_peak_memory_independent_of_rows(self, rng):
        """The call reads the snapshots in place: on 49,974 rows (9.6 MB,
        the shipped calibration run) the list form peaked at 12 MB."""
        import tracemalloc

        m = 49_974
        t = np.arange(m) * 2e-4
        thetas = rng.standard_normal((m,) + SHAPE)
        tracemalloc.start()
        try:
            calibrate_nominal(t, thetas, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, peak

    def test_too_few_snapshots(self):
        with pytest.raises(InsufficientDataError):
            calibrate_nominal([0.0], np.ones((1,) + SHAPE), window=2)

    def test_empty_stream(self):
        with pytest.raises(InsufficientDataError):
            calibrate_nominal([], np.zeros((0,) + SHAPE), window=1)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            calibrate_nominal([0.0], np.ones((1,) + SHAPE), window=0)

    @pytest.mark.parametrize("t, thetas", [
        (np.zeros(3), np.zeros((2,) + SHAPE)),
        (np.zeros(2), np.zeros((2, 24))),
    ])
    def test_mismatched_shapes_rejected(self, t, thetas):
        with pytest.raises(ValueError, match="need t"):
            calibrate_nominal(t, thetas, window=1)

    def test_only_tail_used(self):
        thetas = np.concatenate([np.zeros((5,) + SHAPE),
                                 np.ones((5,) + SHAPE)])
        nom = calibrate_nominal([0.0] * 5 + [1.0] * 5, thetas, window=5)
        assert np.array_equal(nom.theta_star, np.ones(SHAPE))
        assert nom.calibrated_at == 1.0


class TestFrobeniusDistance:
    def test_zero_for_identical(self):
        theta = np.arange(24.0).reshape(SHAPE)
        assert np.array_equal(distances(theta[None], theta), [0.0])

    def test_known_value(self):
        b = np.zeros(SHAPE)
        b[0, 0] = 3.0
        b[1, 1] = 4.0
        thetas = np.stack([np.zeros(SHAPE), b, 2.0 * b])
        assert distances(thetas, b) == pytest.approx([5.0, 0.0, 5.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            distances(np.zeros((1, 2, 8)), np.zeros(SHAPE))
        with pytest.raises(ValueError, match="does not match"):
            distances(np.zeros(SHAPE), np.zeros(SHAPE))

    @pytest.mark.parametrize("m", [0, 1, DISTANCE_CHUNK - 1, DISTANCE_CHUNK,
                                   DISTANCE_CHUNK + 1])
    def test_chunks_bitwise_equal_one_shot_norm(self, m):
        rng = np.random.default_rng(m)
        star = rng.standard_normal(SHAPE)
        thetas = star + rng.standard_normal((m,) + SHAPE) * 10.0 ** \
            rng.integers(-12, 3, (m, 1, 1))
        want = np.linalg.norm(thetas - star, axis=(1, 2))
        got = distances(thetas, star)
        assert got.shape == (m,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestCalibrateThresholds:
    def test_default_factors(self):
        thr = calibrate_thresholds([0.1, 0.3, 0.2])
        assert thr.d_high == pytest.approx(1.5)
        assert thr.d_low == pytest.approx(0.45)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            calibrate_thresholds([])

    def test_all_zero(self):
        with pytest.raises(InsufficientDataError):
            calibrate_thresholds([0.0, 0.0])

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            Thresholds(d_high=1.0, d_low=2.0)
        with pytest.raises(ValueError):
            Thresholds(d_high=1.0, d_low=0.0)


class TestMatchSignature:
    """Criterion-2 matching through the one-row classifier: the snapshot
    sits in the band, so the library decides."""

    thresholds = Thresholds(d_high=10.0, d_low=1e-6)
    nominal = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)

    def _match(self, theta, lib):
        ev = classify(theta, self.nominal, self.thresholds, lib)
        return ev.matched_label, ev.matched_similarity

    def test_self_match_is_unity(self, rng):
        v = rng.standard_normal(SHAPE)
        lib = flat_library([(v, Verdict.FAULT)])
        label, sim = self._match(v, lib)
        assert label is Verdict.FAULT
        assert sim == pytest.approx(1.0)

    def test_scale_invariance(self, rng):
        v = rng.standard_normal(SHAPE)
        v *= 0.5 / np.linalg.norm(v)
        lib = flat_library([(v, Verdict.LOAD_INCREASE)])
        for scale in [1e-3, 1.0, 1e1]:
            label, sim = self._match(scale * v, lib)
            assert label is Verdict.LOAD_INCREASE
            assert sim == pytest.approx(1.0)

    def test_orthogonal_rejected(self):
        a = np.zeros(SHAPE)
        a[0, 0] = 1.0
        b = np.zeros(SHAPE)
        b[0, 1] = 1.0
        lib = flat_library([(a, Verdict.FAULT)])
        ev = classify(b, self.nominal, self.thresholds, lib)
        assert ev.verdict is Verdict.UNCLASSIFIED
        assert ev.matched_label is None
        assert ev.matched_similarity == pytest.approx(0.0)

    def test_best_of_several(self):
        a = np.zeros(SHAPE)
        a[0, 0] = 1.0
        b = np.zeros(SHAPE)
        b[0, 1] = 1.0
        lib = flat_library([(a, Verdict.FAULT), (b, Verdict.LOAD_INCREASE)])
        probe = 0.9 * a + 0.1 * b
        label, sim = self._match(probe, lib)
        assert label is Verdict.FAULT
        assert sim > 0.9

    def test_empty_library(self):
        ev = classify(np.ones(SHAPE), self.nominal, self.thresholds,
                      SignatureLibrary(order=ORDER))
        assert ev.verdict is Verdict.UNCLASSIFIED
        assert ev.matched_label is None
        assert ev.matched_similarity is None


class TestClassify:
    thresholds = Thresholds(d_high=1.0, d_low=0.1)

    def _nominal(self):
        return calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)

    def test_normal_branch(self):
        nom = self._nominal()
        lib = SignatureLibrary(order=ORDER)
        ev = classify(np.zeros(SHAPE), nom, self.thresholds, lib)
        assert ev.verdict is Verdict.NORMAL
        assert ev.d == 0.0

    def test_high_branch_ignores_library(self):
        """Criterion 1 must trip even with an empty library."""
        nom = self._nominal()
        theta = np.zeros(SHAPE)
        theta[0, 0] = 2.0
        ev = classify(theta, nom, self.thresholds, SignatureLibrary(order=ORDER))
        assert ev.verdict is Verdict.FAULT
        assert ev.matched_label is None

    def test_band_fault_match(self):
        nom = self._nominal()
        sig = np.zeros(SHAPE)
        sig[0, 0] = 1.0
        lib = flat_library([(sig, Verdict.FAULT)])
        ev = classify(0.5 * sig, nom, self.thresholds, lib)
        assert ev.verdict is Verdict.FAULT
        assert ev.matched_similarity == pytest.approx(1.0)

    def test_band_load_match(self):
        nom = self._nominal()
        sig = np.zeros(SHAPE)
        sig[1, 3] = 1.0
        lib = flat_library([(sig, Verdict.LOAD_INCREASE)])
        ev = classify(0.5 * sig, nom, self.thresholds, lib)
        assert ev.verdict is Verdict.LOAD_INCREASE

    def test_band_empty_library_unclassified(self):
        nom = self._nominal()
        theta = np.zeros(SHAPE)
        theta[0, 0] = 0.5
        ev = classify(theta, nom, self.thresholds, SignatureLibrary(order=ORDER))
        assert ev.verdict is Verdict.UNCLASSIFIED

    def test_band_poor_match_unclassified(self):
        nom = self._nominal()
        sig = np.zeros(SHAPE)
        sig[0, 0] = 1.0
        lib = flat_library([(sig, Verdict.FAULT)])
        probe = np.zeros(SHAPE)
        probe[1, 5] = 0.5  # orthogonal to the stored signature
        ev = classify(probe, nom, self.thresholds, lib)
        assert ev.verdict is Verdict.UNCLASSIFIED

    def test_boundary_at_d_high_uses_band(self):
        """d exactly at d_high goes to criterion 2, not criterion 1."""
        nom = self._nominal()
        sig = np.zeros(SHAPE)
        sig[0, 0] = 1.0
        lib = flat_library([(sig, Verdict.LOAD_INCREASE)])
        ev = classify(1.0 * sig, nom, self.thresholds, lib)
        assert ev.verdict is Verdict.LOAD_INCREASE

    def test_uncalibrated_rejected(self):
        with pytest.raises(ValueError):
            classify(np.zeros(SHAPE), None, self.thresholds,
                     SignatureLibrary(order=ORDER))


class TestClassifySeries:
    thr = Thresholds(d_high=1.0, d_low=0.1)
    nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)

    def _check(self, thetas, lib, match_floor=0.8):
        """The series and the one-row call both agree with the oracle."""
        d, verdicts, sims = classify_series(thetas, self.nom, self.thr, lib,
                                            match_floor)
        for k, theta in enumerate(thetas):
            want = oracle_classify(theta, self.nom, self.thr, lib,
                                   match_floor=match_floor)
            got = classify(theta, self.nom, self.thr, lib,
                           match_floor=match_floor)
            assert_same_event(got, want)
            assert verdicts[k] is want.verdict
            assert d[k] == pytest.approx(want.d, rel=1e-14, abs=0.0)
            if want.matched_similarity is None:
                assert np.isnan(sims[k])
            else:
                assert sims[k] == pytest.approx(want.matched_similarity,
                                                rel=1e-14, abs=1e-15)

    def test_agrees_with_pointwise(self, rng):
        sig = rng.standard_normal(SHAPE)
        lib = flat_library([(sig, Verdict.FAULT),
                            (rng.standard_normal(SHAPE), Verdict.LOAD_INCREASE)])
        thetas = np.stack([
            np.zeros(SHAPE),                 # normal
            2.0 * sig / np.linalg.norm(sig), # above d_high
            0.5 * sig / np.linalg.norm(sig), # band, matching
            0.5 * rng.standard_normal(SHAPE),  # band, generic
        ])
        self._check(thetas, lib)

    def test_random_snapshots_agree_with_oracle(self, rng):
        """10k snapshots spread over all three distance regimes, against a
        library with a near-duplicate pair so that the best match varies."""
        a, b = rng.standard_normal((2,) + SHAPE)
        lib = flat_library([(a, Verdict.FAULT),
                            (b, Verdict.LOAD_INCREASE),
                            (a + 0.3 * b, Verdict.LOAD_INCREASE)])
        n = 10_000
        scale = 10.0 ** rng.uniform(-2.0, 0.5, size=n)
        mix = rng.uniform(-1.0, 1.0, size=(n, 3))
        thetas = (mix[:, 0, None, None] * a + mix[:, 1, None, None] * b
                  + mix[:, 2, None, None] * rng.standard_normal((n,) + SHAPE))
        thetas *= (scale / np.linalg.norm(thetas, axis=(1, 2)))[:, None, None]
        d, verdicts, sims = classify_series(thetas, self.nom, self.thr, lib)
        want = [oracle_classify(th, self.nom, self.thr, lib) for th in thetas]
        assert verdicts == [w.verdict for w in want]
        assert d == pytest.approx([w.d for w in want], rel=1e-14, abs=0.0)
        band = np.array([w.matched_similarity is not None for w in want])
        assert np.array_equal(band, ~np.isnan(sims))
        assert sims[band] == pytest.approx(
            [w.matched_similarity for w in want if w.matched_similarity
             is not None], rel=1e-14, abs=1e-15)
        # every regime and outcome is exercised
        assert set(verdicts) == set(Verdict)
        for theta, w in zip(thetas[:500], want):
            assert_same_event(classify(theta, self.nom, self.thr, lib), w)

    def test_hand_made_edges(self):
        e0 = np.zeros(SHAPE)
        e0[0, 0] = 1.0
        e1 = np.zeros(SHAPE)
        e1[1, 2] = 1.0
        lib = flat_library([(e0, Verdict.FAULT), (e1, Verdict.LOAD_INCREASE)])
        thetas = np.stack([
            1.0 * e1,            # d exactly d_high: band, load match
            0.1 * e0,            # d exactly d_low: normal
            np.zeros(SHAPE),     # zero deviation
            0.5 * (e0 + e1),     # below the floor (similarity 0.707)
        ])
        assert distances(thetas[:2], self.nom.theta_star).tolist() == \
            [1.0, 0.1]
        self._check(thetas, lib)
        self._check(thetas, SignatureLibrary(order=ORDER))
        _, verdicts, _ = classify_series(thetas, self.nom, self.thr, lib)
        assert verdicts == [Verdict.LOAD_INCREASE, Verdict.NORMAL,
                            Verdict.NORMAL, Verdict.UNCLASSIFIED]

    def test_two_signature_tie_goes_to_the_first(self):
        e0 = np.zeros(SHAPE)
        e0[0, 0] = 1.0
        e1 = np.zeros(SHAPE)
        e1[1, 2] = 1.0
        probe = 0.5 * (e0 + e1)  # similarity 1/sqrt(2) to each
        for first, second in [(Verdict.FAULT, Verdict.LOAD_INCREASE),
                              (Verdict.LOAD_INCREASE, Verdict.FAULT)]:
            lib = flat_library([(e0, first), (e1, second)])
            self._check(probe[None], lib, match_floor=0.7)
            ev = classify(probe, self.nom, self.thr, lib, match_floor=0.7)
            assert ev.verdict is first

    def test_empty_library_band(self):
        theta = np.zeros(SHAPE)
        theta[0, 0] = 0.5
        _, verdicts, sims = classify_series(theta[None], self.nom, self.thr,
                                            SignatureLibrary(order=ORDER))
        assert verdicts[0] is Verdict.UNCLASSIFIED
        assert np.isnan(sims[0])


def oracle_detection_times(t, d, t_start, t_end, thresholds):
    """Reference delays by a scan over the samples: (dt1_high, dt1_low,
    dt2)."""
    def first(hit, t0):
        return next((float(tk - t0) for tk, dk in zip(t, d)
                     if tk >= t0 and hit(dk)), None)

    return (first(lambda dk: dk > thresholds.d_high, t_start),
            first(lambda dk: dk > thresholds.d_low, t_start),
            first(lambda dk: dk <= thresholds.d_low, t_end))


class TestDetectionTimes:
    thr = Thresholds(d_high=1.0, d_low=0.1)

    def test_step_crossing(self):
        t = np.arange(100) * 1e-3
        d = np.where((t >= 0.030) & (t < 0.060), 2.0, 0.01)
        dt1_high, dt1_low, dt2 = detection_times(t, d, 0.028, 0.060,
                                                 self.thr)
        assert dt1_high == pytest.approx(0.002)
        assert dt1_low == pytest.approx(0.002)
        assert dt2 == pytest.approx(0.0)

    def test_low_trip(self):
        t = np.arange(100) * 1e-3
        d = np.where(t >= 0.050, 0.5, 0.01)
        dt1_high, dt1_low, dt2 = detection_times(t, d, 0.050, 0.090,
                                                 self.thr)
        assert dt1_high is None
        assert dt1_low == pytest.approx(0.0)
        assert dt2 is None

    def test_never_trips(self):
        t = np.arange(10) * 1e-3
        d = np.full(10, 0.01)
        dt1_high, dt1_low, dt2 = detection_times(t, d, 0.0, 0.005, self.thr)
        assert dt1_high is None and dt1_low is None
        assert dt2 == pytest.approx(0.0)

    def test_never_recovers(self):
        t = np.arange(10) * 1e-3
        d = np.full(10, 5.0)
        dt1_high, dt1_low, dt2 = detection_times(t, d, 0.0, 0.005, self.thr)
        assert dt1_high == pytest.approx(0.0)
        assert dt1_low == pytest.approx(0.0)
        assert dt2 is None

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scan_oracle(self, seed):
        """Both trip levels and the recovery, with d exactly on each
        threshold at some samples."""
        rng = np.random.default_rng(seed)
        t = np.arange(400) * 1e-3
        d = rng.choice([0.0, 0.05, self.thr.d_low, 0.5, self.thr.d_high,
                        2.0], size=t.size)
        t_start, t_end = rng.uniform(0.0, 0.4, 2)
        got = detection_times(t, d, t_start, t_end, self.thr)
        assert got == oracle_detection_times(t, d, t_start, t_end, self.thr)

    @pytest.mark.parametrize("seed", range(5))
    def test_found_carried_across_blocks(self, seed):
        """Blocks that pass each call's result to the next give the result
        of one call."""
        rng = np.random.default_rng(seed)
        t = np.arange(400) * 1e-3
        d = rng.choice([0.0, 0.05, 0.5, 2.0], size=t.size,
                       p=[0.4, 0.3, 0.2, 0.1])
        t_start, t_end = rng.uniform(0.0, 0.4, 2)
        found = (None, None, None)
        for a, b in zip([0, 1, 37, 200, 399], [1, 37, 200, 399, 400]):
            found = detection_times(t[a:b], d[a:b], t_start, t_end,
                                    self.thr, found)
        assert found == detection_times(t, d, t_start, t_end, self.thr)


class TestDebounce:
    N, F = Verdict.NORMAL, Verdict.FAULT

    def test_single_sample_chatter_suppressed(self):
        raw = [self.N, self.N, self.F, self.N, self.N]
        assert debounce(raw, hold=3) == [self.N] * 5

    def test_sustained_change_passes(self):
        raw = [self.N] * 3 + [self.F] * 5
        out = debounce(raw, hold=3)
        assert out == [self.N] * 5 + [self.F] * 3

    def test_hold_one_is_identity(self):
        raw = [self.N, self.F, self.N, self.F]
        assert debounce(raw, hold=1) == raw

    def test_bad_hold(self):
        with pytest.raises(ValueError):
            debounce([self.N], hold=0)

    @pytest.mark.parametrize("hold", [1, 2, 3, 5])
    def test_state_carried_across_blocks(self, hold):
        """Blocks that share one state give the output of one call, with
        edges inside streaks and on the first verdict."""
        rng = np.random.default_rng(hold)
        codes = rng.choice(4, 500, p=[0.55, 0.15, 0.15, 0.15]).tolist()
        want = debounce(codes, hold)
        for cuts in ([0, 1, 2, 3, 250, 251, 500], [0, 7, 100, 499, 500]):
            state = DebounceState()
            got = []
            for a, b in zip(cuts, cuts[1:]):
                got += debounce(codes[a:b], hold, state)
            assert got == want, cuts


class TestBuildLibrary:
    def test_synthetic_runs(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 101)
        sig = np.zeros(SHAPE)
        sig[0, 0] = 1.0
        thetas = np.where((t >= 0.2)[:, None, None], 0.5 * sig, 0.0)
        lib = build_library(
            [(Verdict.FAULT, t, thetas, 0.2, 0.8, "synthetic")], nom, thr,
            order=ORDER)
        assert len(lib.signatures) == 1
        entry = lib.signatures[0]
        assert entry.label is Verdict.FAULT
        assert np.linalg.norm(entry.delta_theta) == pytest.approx(1.0)
        assert entry.delta_theta[0, 0] == pytest.approx(1.0)

    def test_quiet_run_rejected(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)
        thr = Thresholds(d_high=1.0, d_low=0.5)
        t = np.linspace(0.0, 1.0, 101)
        thetas = np.zeros((101,) + SHAPE)
        thetas[:, 0, 0] = 0.1  # never exceeds d_low
        with pytest.raises(InsufficientDataError):
            build_library([(Verdict.FAULT, t, thetas, 0.2, 0.8, "quiet")],
                          nom, thr, order=ORDER)

    def test_times_must_increase(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 11)[::-1]
        thetas = np.ones((11,) + SHAPE)
        with pytest.raises(ValueError, match="'back': snapshot times must "
                                             "increase"):
            build_library([(Verdict.FAULT, t, thetas, 0.2, 0.8, "back")],
                          nom, thr, order=ORDER)

    def test_empty_window_rejected(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 11)
        thetas = np.ones((11,) + SHAPE)
        with pytest.raises(InsufficientDataError):
            build_library([(Verdict.FAULT, t, thetas, 5.0, 6.0, "late")],
                          nom, thr, order=ORDER)

    def test_empty_settled_half_rejected(self):
        """Snapshots inside the window but none in its second half: the
        signature would be the mean of no rows."""
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 3.0, 31)
        thetas = np.ones((31,) + SHAPE)
        with pytest.raises(InsufficientDataError,
                           match="run 'short': no snapshots in the settled "
                                 "second half of the disturbance window"):
            build_library([(Verdict.FAULT, t, thetas, 2.0, 9.0, "short")],
                          nom, thr, order=ORDER)


class TestSignatureLabels:
    """A signature is a fault or load-increase pattern; any other label
    would be classified as load_increase, so it is refused."""

    def library_json(self, label):
        lib = SignatureLibrary(order=ORDER, signatures=[Signature(
            label=Verdict.FAULT, delta_theta=np.ones(SHAPE),
            source_scenario="src_run")])
        doc = json.loads(lib.to_json())
        doc["signatures"][0]["label"] = label
        return json.dumps(doc)

    @pytest.mark.parametrize("label", ["normal", "unclassified", "bogus", 3])
    def test_from_json_rejects_label(self, label):
        with pytest.raises(ValueError) as err:
            SignatureLibrary.from_json(self.library_json(label))
        assert str(err.value).startswith(
            f"library entry 0 ('src_run'): label {label!r} is not a "
            "signature label")

    @pytest.mark.parametrize("label", [Verdict.NORMAL, Verdict.UNCLASSIFIED,
                                       "normal", "bogus"])
    def test_build_library_rejects_label(self, label):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE), window=1)
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 11)
        thetas = np.full((11,) + SHAPE, 0.1)
        with pytest.raises(ValueError) as err:
            build_library([(label, t, thetas, 0.2, 0.8, "src_run")], nom,
                          thr, order=ORDER)
        value = getattr(label, "value", label)
        assert str(err.value).startswith(
            f"run 'src_run': label {value!r} is not a signature label")

    @pytest.mark.parametrize("label", ["fault", "load_increase"])
    def test_accepted_labels(self, label):
        lib = SignatureLibrary.from_json(self.library_json(label))
        assert lib.signatures[0].label is Verdict(label)


class TestLibrarySerialization:
    @pytest.mark.parametrize("order, shape", [(3, [2, 8]), (2, [2, 12]),
                                              (3, [12, 2])])
    def test_from_json_rejects_shape_of_another_order(self, order, shape):
        lib = flat_library([(np.ones(SHAPE), Verdict.FAULT),
                            (np.ones(SHAPE), Verdict.LOAD_INCREASE)])
        doc = json.loads(lib.to_json())
        doc["order"] = order
        doc["signatures"][1]["shape"] = shape
        doc["signatures"][1]["source_scenario"] = "load_run"
        if shape[0] * shape[1] != 24:
            doc["signatures"][1]["delta_theta"] = [0.5] * 16
        with pytest.raises(ValueError) as err:
            SignatureLibrary.from_json(json.dumps(doc))
        message = str(err.value)
        if order == 3:
            assert message.startswith(
                f"library entry 1 ('load_run'): shape {tuple(shape)} does "
                "not match the library's order 3, which needs (2, 12)")
        else:  # entry 0 is (2, 12) too, so it is the first named
            assert message.startswith("library entry 0 ")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_from_json_rejects_non_finite_signature(self, value):
        lib = flat_library([(np.ones(SHAPE), Verdict.FAULT),
                            (np.ones(SHAPE), Verdict.LOAD_INCREASE)])
        doc = json.loads(lib.to_json())
        doc["signatures"][1]["delta_theta"][5] = value
        doc["signatures"][1]["source_scenario"] = "load_run"
        with pytest.raises(ValueError, match=r"^library entry 1 "
                           r"\('load_run'\): delta_theta holds a non-finite "
                           r"value$"):
            SignatureLibrary.from_json(json.dumps(doc))

    def test_json_round_trip(self, rng):
        lib = flat_library([(rng.standard_normal(SHAPE), Verdict.FAULT),
                            (rng.standard_normal(SHAPE),
                             Verdict.LOAD_INCREASE)])
        back = SignatureLibrary.from_json(lib.to_json())
        assert back.order == lib.order
        assert len(back.signatures) == 2
        for a, b in zip(lib.signatures, back.signatures):
            assert a.label is b.label
            assert np.allclose(a.delta_theta, b.delta_theta)


class TestDiscrimination:
    """End-to-end: signatures recorded from one severity per class must
    classify unseen severities and seeds through the moderate-deviation
    band."""

    def test_library_composition(self, discrimination):
        lib = discrimination["library"]
        labels = sorted(s.label.value for s in lib.signatures)
        assert labels == ["fault", "load_increase"]
        for s in lib.signatures:
            assert np.linalg.norm(s.delta_theta) == pytest.approx(1.0)

    def test_cross_class_signatures_dissimilar(self, discrimination):
        a, b = discrimination["library"].signatures
        cos = abs(float(a.delta_theta.flatten() @ b.delta_theta.flatten()))
        assert cos < 0.5

    def test_held_out_fault_runs_classified(self, discrimination):
        for (name, seed), report in discrimination["reports"].items():
            if name.startswith("hif"):
                assert report.final_verdict is Verdict.FAULT, (name, seed)

    def test_held_out_load_runs_classified(self, discrimination):
        for (name, seed), report in discrimination["reports"].items():
            if name.startswith("load"):
                assert report.final_verdict is Verdict.LOAD_INCREASE, \
                    (name, seed)

    def test_high_impedance_never_trips_hard_threshold(self, discrimination):
        for (name, seed), report in discrimination["reports"].items():
            if name.startswith("hif"):
                assert report.dt1_high is None, (name, seed)
