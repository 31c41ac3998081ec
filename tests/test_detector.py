"""Detector unit behavior plus end-to-end discrimination on held-out runs."""

import dataclasses
import functools
import json
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridarx import _kernels
from gridarx.detector import (
    DEFAULT_MATCH_FLOOR,
    FAULT_CODE,
    NORMAL_CODE,
    DetectionEvent,
    InsufficientDataError,
    RunningMean,
    Signature,
    SignatureLibrary,
    Thresholds,
    VERDICTS,
    Verdict,
    build_library,
    calibrate_nominal,
    calibrate_thresholds,
    classify,
    classify_series,
    debounce,
    debounce_state,
    distances,
    json_numbers,
)

from gridarx import CircuitParams
from gridarx.pipeline import identify
from gridarx.rls import ArxConfig
from gridarx.signals import RbsConfig
from gridarx.simulate import DisturbanceSpec, simulate
from oracles import (
    build_library_numpy,
    classify_series_numpy,
    debounce_loop,
    debounce_numpy,
    detection_times_numpy,
    distances_numpy,
    first_time,
    matvec_fixed,
    norms_numpy,
    products_fixed,
    transitions_numpy,
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
    vectors = [(np.asarray(vec, float), label)
               for vec, label in vectors_labels]
    return SignatureLibrary(order=ORDER, signatures=[
        Signature(label=label, delta_theta=vec / np.linalg.norm(vec))
        for vec, label in vectors])


def oracle_calibrate_nominal(stream, window):
    """Reference nominal predictor from a list of (t, theta) snapshots: the
    mean of the last `window` thetas, stacked from a Python list."""
    tail = list(stream)[-window:]
    return (np.mean([np.asarray(th, float) for _, th in tail], axis=0),
            float(tail[-1][0]))


class TestCalibrateNominal:
    def test_constant_stream(self):
        theta = np.full(SHAPE, 0.7)
        t = 0.1 * np.arange(5)
        nom = calibrate_nominal(t, np.broadcast_to(theta, (5,) + SHAPE))
        assert np.array_equal(nom.theta_star, theta)
        assert nom.calibration_window == 5
        assert nom.calibrated_at == pytest.approx(0.4)

    def test_averaging_suppresses_jitter(self, rng):
        """Mean of w i.i.d.-jittered snapshots wanders like eps/sqrt(w)."""
        eps, w, trials = 0.01, 100, 50
        base = np.ones(SHAPE)
        errs = []
        for _ in range(trials):
            thetas = base + eps * rng.standard_normal((w,) + SHAPE)
            nom = calibrate_nominal(np.arange(w), thetas)
            errs.append(np.linalg.norm(nom.theta_star - base))
        expected = eps * np.sqrt(base.size / w)
        assert np.mean(errs) == pytest.approx(expected, rel=0.2)

    @pytest.mark.parametrize("m, window", [(1, 1), (7, 3), (5000, 5000),
                                           (6000, 4999)])
    def test_bitwise_equal_to_list_oracle(self, rng, m, window):
        """The tail of `window` rows, passed as slices, against the list
        oracle's mean of the last `window` snapshots."""
        t = rng.uniform(0.0, 10.0, m)
        thetas = rng.standard_normal((m,) + SHAPE)
        nom = calibrate_nominal(t[-window:], thetas[-window:])
        theta_star, calibrated_at = oracle_calibrate_nominal(
            zip(t, thetas), window)
        assert np.array_equal(nom.theta_star.view(np.uint64),
                              theta_star.view(np.uint64))
        assert nom.calibrated_at == calibrated_at
        assert nom.calibration_window == window

    def test_peak_memory_independent_of_rows(self, rng):
        """The call reads the snapshots in place: on 49,974 rows (9.6 MB,
        the shipped calibration run) the list form peaked at 12 MB."""
        import tracemalloc

        m = 49_974
        t = np.arange(m) * 2e-4
        thetas = rng.standard_normal((m,) + SHAPE)
        tracemalloc.start()
        try:
            calibrate_nominal(t, thetas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, peak

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_snapshot_named(self, value):
        thetas = np.ones((10,) + SHAPE)
        thetas[6, 1, 4] = value
        thetas[8, 0, 0] = value
        with pytest.raises(ValueError, match=r"^snapshot 6 holds a non-fin"):
            calibrate_nominal(np.arange(10.0), thetas)

    def test_only_the_rows_given_are_used(self):
        """A slice past a non-finite snapshot: its tail's mean, time and
        row count."""
        thetas = np.concatenate([np.zeros((5,) + SHAPE),
                                 np.ones((5,) + SHAPE)])
        thetas[4, 1, 4] = np.nan
        t = np.array([0.0] * 5 + [1.0] * 5)
        nom = calibrate_nominal(t[5:], thetas[5:])
        assert np.array_equal(nom.theta_star, np.ones(SHAPE))
        assert nom.calibrated_at == 1.0
        assert nom.calibration_window == 5

    def test_empty_stream(self):
        with pytest.raises(InsufficientDataError):
            calibrate_nominal([], np.zeros((0,) + SHAPE))

    @pytest.mark.parametrize("t, thetas", [
        (np.zeros(3), np.zeros((2,) + SHAPE)),
        (np.zeros(2), np.zeros((2, 24))),
    ])
    def test_mismatched_shapes_rejected(self, t, thetas):
        with pytest.raises(ValueError, match="need t"):
            calibrate_nominal(t, thetas)


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

    @pytest.mark.parametrize("m", [0, 1, 4095, 4096, 4097])
    def test_chunks_bitwise_equal_one_shot_norm(self, m):
        rng = np.random.default_rng(m)
        star = rng.standard_normal(SHAPE)
        thetas = star + rng.standard_normal((m,) + SHAPE) * 10.0 ** \
            rng.integers(-12, 3, (m, 1, 1))
        want = np.linalg.norm(thetas - star, axis=(1, 2))
        got = distances(thetas, star)
        assert got.shape == (m,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_deviations(rng, m, shape=SHAPE):
    """m deviations whose rows span magnitudes from 1e-12 to 1e3."""
    return rng.standard_normal((m,) + shape) * 10.0 ** rng.uniform(
        -12, 3, (m, 1, 1))


class TestNormIdentities:
    """Bitwise pins of the identities that let `distances` and
    `classify_series` drop np.linalg.norm."""

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_flattened_reduce_is_the_frobenius_norm(self, order):
        rng = np.random.default_rng(order)
        dev = random_deviations(rng, 3000, (2, 4 * order))
        flat = dev.reshape(dev.shape[0], -1)
        assert_bits_equal(np.sqrt(np.add.reduce(flat * flat, axis=1)),
                          np.linalg.norm(dev, axis=(1, 2)))

    @pytest.mark.parametrize("m", [4097, 12281])
    def test_chunked_distances_equal_one_whole_array_reduce(self, m):
        rng = np.random.default_rng(m)
        star = rng.standard_normal(SHAPE)
        thetas = star + random_deviations(rng, m)
        dev = (thetas - star).reshape(m, -1)
        assert_bits_equal(distances(thetas, star),
                          np.sqrt(np.add.reduce(dev * dev, axis=1)))

    def test_band_deviation_norm_is_its_distance(self):
        """The norm of each band deviation, as the classifier used to take
        it, is bitwise that snapshot's distance."""
        rng = np.random.default_rng(7)
        star = rng.standard_normal(SHAPE)
        thetas = star + random_deviations(rng, 2000)
        d = distances(thetas, star)
        band_idx = np.nonzero((d > 1e-6) & (d <= 10.0))[0]
        assert 100 < band_idx.size < d.size
        flat = (thetas[band_idx] - star).reshape(band_idx.size, -1)
        assert_bits_equal(np.linalg.norm(flat, axis=1), d[band_idx])


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
    nominal = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))

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
        return calibrate_nominal([0.0], np.zeros((1,) + SHAPE))

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
    nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))

    def _check(self, thetas, lib, match_floor=0.8):
        """The series and the one-row call both agree with the oracle."""
        d, codes, sims = classify_series(thetas, self.nom, self.thr, lib,
                                         match_floor)
        assert codes.dtype == np.intp
        for k, theta in enumerate(thetas):
            want = oracle_classify(theta, self.nom, self.thr, lib,
                                   match_floor=match_floor)
            got = classify(theta, self.nom, self.thr, lib,
                           match_floor=match_floor)
            assert_same_event(got, want)
            assert VERDICTS[codes[k]] is want.verdict
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
        d, codes, sims = classify_series(thetas, self.nom, self.thr, lib)
        want = [oracle_classify(th, self.nom, self.thr, lib) for th in thetas]
        verdicts = VERDICTS[codes].tolist()
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
        _, codes, _ = classify_series(thetas, self.nom, self.thr, lib)
        assert VERDICTS[codes].tolist() == [
            Verdict.LOAD_INCREASE, Verdict.NORMAL, Verdict.NORMAL,
            Verdict.UNCLASSIFIED]

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

    @pytest.mark.parametrize("n_signatures", [1, 2])
    def test_row_bits_do_not_depend_on_the_rows_in_the_call(
            self, rng, n_signatures):
        """A band row's similarity has the same bits in any slice of the
        series that holds it, and in a one-row `classify`: so a verdict at
        exactly `match_floor` cannot depend on the block size."""
        lib = flat_library([(rng.standard_normal(SHAPE), Verdict.FAULT)
                            for _ in range(n_signatures)])
        n = 2000
        thetas = rng.standard_normal((n,) + SHAPE)
        # every snapshot in the band d_low < d <= d_high
        thetas *= (rng.uniform(0.2, 0.9, n)
                   / np.linalg.norm(thetas, axis=(1, 2)))[:, None, None]
        _, _, whole = classify_series(thetas, self.nom, self.thr, lib)
        assert not np.isnan(whole).any()
        for lo, hi in np.sort(rng.integers(0, n + 1, (300, 2)), axis=1):
            _, _, part = classify_series(thetas[lo:hi], self.nom, self.thr,
                                         lib)
            assert_bits_equal(part, whole[lo:hi])
        for k in range(0, n, 10):
            event = classify(thetas[k], self.nom, self.thr, lib)
            assert_bits_equal(np.array([event.matched_similarity]),
                              whole[k:k + 1])

    def test_empty_library_band(self):
        theta = np.zeros(SHAPE)
        theta[0, 0] = 0.5
        _, codes, sims = classify_series(theta[None], self.nom, self.thr,
                                         SignatureLibrary(order=ORDER))
        assert VERDICTS[codes[0]] is Verdict.UNCLASSIFIED
        assert np.isnan(sims[0])


class TestClassifyNonFinite:
    thr = Thresholds(d_high=1.0, d_low=0.1)
    nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
    lib = flat_library([(np.ones(SHAPE), Verdict.FAULT)])

    def test_nan_snapshot_named(self):
        thetas = np.zeros((5,) + SHAPE)
        thetas[1, 0, 3] = np.nan
        thetas[2, 1, 0] = np.inf
        thetas[4, 1, 1] = np.nan
        with pytest.raises(ValueError, match=r"^snapshot 1 holds a NaN"):
            classify_series(thetas, self.nom, self.thr, self.lib)

    def test_nan_and_infinity_in_one_snapshot(self):
        thetas = np.zeros((2,) + SHAPE)
        thetas[1, 0, 0] = np.inf
        thetas[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"^snapshot 1 holds a NaN"):
            classify_series(thetas, self.nom, self.thr, self.lib)

    def test_infinite_distance_is_fault(self):
        thetas = np.zeros((3,) + SHAPE)
        thetas[1, 0, 3] = np.inf
        thetas[2, 1, 0] = -np.inf
        d, codes, sims = classify_series(thetas, self.nom, self.thr,
                                         self.lib)
        assert d.tolist() == [0.0, np.inf, np.inf]
        assert VERDICTS[codes].tolist() == [Verdict.NORMAL, Verdict.FAULT,
                                            Verdict.FAULT]
        assert np.isnan(sims).all()

    def test_single_snapshot_call_raises(self):
        """The final verdict goes through `classify`, the one-row call."""
        theta = np.zeros(SHAPE)
        theta[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^snapshot 0 holds a NaN"):
            classify(theta, self.nom, self.thr, self.lib)


class TestClassifyMemory:
    @pytest.mark.parametrize("level", [0.0, 5.0])  # normal rows, fault rows
    def test_peak_grows_with_outputs_only(self, level):
        """`classify_series` keeps one snapshot's deviation at a time;
        from 4096 to 16384 snapshots outside the band, the tracemalloc
        peak may grow only by the per-row outputs (d, similarity, codes,
        masks and the verdict codes: under 64 B a row). Their deviations
        taken whole (192 B a row, twice) would exceed it."""
        import tracemalloc

        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.1)
        lib = flat_library([(np.ones(SHAPE), Verdict.FAULT)])
        peaks = {}
        for chunks in (1, 4):
            thetas = np.full((chunks * 4096,) + SHAPE, level)
            tracemalloc.start()
            try:
                _, codes, _ = classify_series(thetas, nom, thr, lib)
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del codes
        assert peaks[4] - peaks[1] <= 3 * 4096 * 64, peaks


# Values at the ends of the float range, and the non-finite ones.
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-300, -1e-300,
                           1e300, -1e300, np.inf, -np.inf, np.nan])


@pytest.fixture(scope="module")
def fault_run():
    """theta of a 2.4 s run with a fault from 1.2 s to 2.0 s, its nominal
    predictor from the first second, thresholds that put its rows in all
    three regimes, and two signatures: the mean deviations of the band's
    first and last thirds, labelled fault and load increase."""
    sim = simulate(CircuitParams(), DisturbanceSpec("fault", 0.2077, 1.2, 2.0),
                   RbsConfig(amplitude=0.1, chip_rate=5000.0, seed=1), 2.4)
    run = identify(sim, ArxConfig())
    nominal = calibrate_nominal(run.t[3000:5000], run.theta[3000:5000])
    d = distances(run.theta, nominal.theta_star)
    thresholds = Thresholds(d_high=float(np.quantile(d, 0.95)),
                            d_low=float(np.quantile(d, 0.6)))
    band = np.flatnonzero((d > thresholds.d_low) & (d <= thresholds.d_high))
    dev = run.theta - nominal.theta_star
    third = band.size // 3
    signatures = [
        Signature(label, delta / np.linalg.norm(delta))
        for label, delta in (
            (Verdict.FAULT, dev[band[:third]].mean(axis=0)),
            (Verdict.LOAD_INCREASE, dev[band[-third:]].mean(axis=0)))]
    return run.theta, nominal, thresholds, signatures


class TestKernelPasses:
    """The C passes of `distances` and `classify_series` against their
    numpy forms, as uint64 bit patterns."""

    @pytest.mark.parametrize("order", range(1, 21))
    def test_distances_equal_numpy_form(self, order):
        """Widths 8 to 160 cross numpy's 128-term pairwise block; a third
        of the rows hold signed zeros, subnormals, +-1e+-300, infinities
        and NaNs, and so does the reference."""
        rows, cols = 2, 4 * order
        rng = np.random.default_rng(order)
        m = 900
        thetas = random_deviations(rng, m, (rows, cols))
        flat = thetas.reshape(m, -1)
        special = rng.random(flat.shape) < 0.3
        special[1::3] = special[2::3] = False
        flat[special] = rng.choice(SPECIAL_VALUES, special.sum())
        flat[3] = -0.0
        flat[6] = 5e-324
        star = rng.standard_normal((rows, cols))
        star.flat[:4] = [0.0, -0.0, 5e-324, 1e-300]
        got = distances(thetas, star)
        with np.errstate(over="ignore", invalid="ignore"):
            want = distances_numpy(thetas, star)
        assert np.isnan(want).any() and np.isinf(want).any()
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("n_signatures", [0, 1, 2])
    @pytest.mark.parametrize("size", [1, 3, 100, 4096, 8192])
    def test_classify_blocks_equal_numpy_form(self, fault_run, size,
                                              n_signatures):
        """A real run's theta in blocks of `size` rows against the numpy
        form on the whole run, which multiplies only the band's rows, each
        product summed left to right from 0.0."""
        thetas, nominal, thresholds, signatures = fault_run
        library = SignatureLibrary(order=ORDER,
                                   signatures=signatures[:n_signatures])
        want = classify_series_numpy(thetas, nominal, thresholds, library,
                                     0.8)
        parts = [classify_series(thetas[lo:lo + size], nominal, thresholds,
                                 library, 0.8)
                 for lo in range(0, thetas.shape[0], size)]
        d, codes, similarity = (np.concatenate(p) for p in zip(*parts))
        assert_bits_equal(d, want[0])
        assert_bits_equal(codes, want[1])
        assert_bits_equal(similarity, want[2])
        expected = {0: {Verdict.NORMAL, Verdict.FAULT, Verdict.UNCLASSIFIED},
                    1: {Verdict.NORMAL, Verdict.FAULT, Verdict.UNCLASSIFIED},
                    2: set(Verdict)}[n_signatures]
        assert set(VERDICTS[codes]) == expected

    def test_similarity_only_for_band_rows(self, fault_run):
        """A stream whose band rows all lie in its first 4096 snapshots,
        then the same stream under thresholds that leave no row in the
        band: codes and similarity equal the numpy form's, and similarity
        is NaN exactly outside the band."""
        thetas, nominal, thresholds, signatures = fault_run
        library = SignatureLibrary(order=ORDER, signatures=signatures)
        d = distances(thetas, nominal.theta_star)
        band = (d > thresholds.d_low) & (d <= thresholds.d_high)
        # from the first band row on, then copies of a row outside the band
        first = np.flatnonzero(band)[0]
        outside = np.repeat(thetas[~band][:1], 8192, axis=0)
        thetas = np.concatenate([thetas[first:first + 4096], outside])
        above = Thresholds(d_high=2.0 * float(d.max()),
                           d_low=float(d.max()))
        d = distances(thetas, nominal.theta_star)
        for thr in (thresholds, above):
            got = classify_series(thetas, nominal, thr, library)
            want = classify_series_numpy(thetas, nominal, thr, library,
                                         DEFAULT_MATCH_FLOOR)
            assert_bits_equal(got[1], want[1])
            assert_bits_equal(got[2], want[2])
            in_band = (d > thr.d_low) & (d <= thr.d_high)
            assert in_band[:4096].any() == (thr is thresholds)
            assert not in_band[4096:].any()
            assert np.array_equal(np.isnan(got[2]), ~in_band)
        assert (got[1] == NORMAL_CODE).all()

    def test_similarity_near_einsum_form(self, fault_run):
        """With the products of np.einsum('ij,kj->ik'), which sums in an
        order numpy picks: the same codes, and each similarity within
        1e-12 relative."""
        thetas, nominal, thresholds, signatures = fault_run
        library = SignatureLibrary(order=ORDER, signatures=signatures)
        got = classify_series(thetas, nominal, thresholds, library)
        want = classify_series_numpy(
            thetas, nominal, thresholds, library, DEFAULT_MATCH_FLOOR,
            products=lambda rows, matrix: np.einsum("ij,kj->ik", rows,
                                                    matrix))
        assert_bits_equal(got[1], want[1])
        band = ~np.isnan(want[2])
        assert band.any()
        assert np.array_equal(np.isnan(got[2]), ~band)
        assert got[2][band] == pytest.approx(want[2][band], rel=1e-12,
                                             abs=0.0)

    def test_library_cannot_change_in_place(self, fault_run):
        """A library's signatures are a tuple, copied from the list it was
        given, and its arrays are built once."""
        signatures = fault_run[3]
        given = list(signatures[:1])
        library = SignatureLibrary(order=ORDER, signatures=given)
        given.append(signatures[1])
        assert library.signatures == (signatures[0],)
        assert library.arrays is library.arrays
        assert library.arrays[0].shape == (1, SHAPE[0] * SHAPE[1])
        with pytest.raises(AttributeError):
            library.signatures.append(signatures[1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            library.signatures = tuple(signatures)

    def test_new_library_classifies_as_numpy_form(self, fault_run):
        """Libraries made with a signature added or replaced each classify
        as the numpy form does, and differently from the one before."""
        thetas, nominal, thresholds, signatures = fault_run
        # the deviation of a band row: its similarity becomes 1
        band_row = Signature(Verdict.LOAD_INCREASE,
                             self.unit_deviation(thetas[7000], nominal))
        calls = []
        for sigs in ([signatures[0]], [signatures[0], band_row],
                     [Signature(Verdict.LOAD_INCREASE,
                                signatures[0].delta_theta), band_row]):
            library = SignatureLibrary(order=ORDER, signatures=sigs)
            got = classify_series(thetas, nominal, thresholds, library)
            want = classify_series_numpy(thetas, nominal, thresholds,
                                         library, DEFAULT_MATCH_FLOOR)
            assert np.array_equal(got[1], want[1])
            assert_bits_equal(got[2], want[2])
            calls.append(got)
        for before, after in zip(calls, calls[1:]):
            assert not np.array_equal(before[2], after[2], equal_nan=True) \
                or not np.array_equal(before[1], after[1])

    @staticmethod
    def unit_deviation(theta, nominal):
        delta = theta - nominal.theta_star
        return delta / np.linalg.norm(delta)


class TestBandProducts:
    """`classify_block`'s products of band deviations with the signatures,
    on values at the ends of the float range, against `dot_fixed`."""

    nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
    # d_high = inf keeps a deviation whose squares overflow in the band
    thr = Thresholds(d_high=np.inf, d_low=1e-300)

    @staticmethod
    def library():
        ones = np.ones(SHAPE)
        alternating = np.resize([1.0, -1.0], SHAPE)
        zero_first = ones.copy()
        zero_first.flat[0] = 0.0
        unit = ones / np.linalg.norm(ones)
        lib = flat_library([(ones, Verdict.FAULT),
                            (ones, Verdict.LOAD_INCREASE),  # ties the first
                            (alternating, Verdict.LOAD_INCREASE),
                            (zero_first, Verdict.LOAD_INCREASE)])
        # norms 1e-200 and 0: a divisor that underflows to 0, and one that
        # is 0 (or NaN, times an infinite d)
        return SignatureLibrary(order=ORDER, signatures=lib.signatures + (
            Signature(Verdict.LOAD_INCREASE, 1e-200 * unit),
            Signature(Verdict.FAULT, np.zeros(SHAPE))))

    @staticmethod
    def snapshots():
        """{case: snapshot}; theta* is zero, so each is its deviation."""
        def row(first, rest):
            theta = np.full(SHAPE, rest)
            theta.flat[0] = first
            return theta

        return {
            "zero": np.zeros(SHAPE),  # d = 0: normal
            # every product -0.0, so a sum from the first product is -0.0
            "negative_zeros": row(-0.5, -0.0),
            # products that are subnormal, summed in the subnormal range
            "subnormal": row(-1e-3, 1e-310),
            # squares and products overflow: d = inf, raw = inf, inf/inf
            "overflow": np.full(SHAPE, 1e308),
            "overflow_alternating": np.resize([1e308, -1e308], SHAPE),
            "tie": np.full(SHAPE, 0.5),
            "zero_divisor": row(-2.0, -1.0),
            "underflowing_divisor": row(-2e-150, -1e-150),
        }

    def test_special_values_equal_dot_fixed(self):
        cases = self.snapshots()
        thetas = np.stack(list(cases.values()))
        lib = self.library()
        def dot_fixed_products(rows, matrix):
            return np.array([matvec_fixed(matrix, r) for r in rows])

        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            want = classify_series_numpy(thetas, self.nom, self.thr, lib,
                                         DEFAULT_MATCH_FLOOR,
                                         products=dot_fixed_products)
            # the numpy column sums of the other tests give the same bits
            flat, matrix = thetas.reshape(len(thetas), -1), lib.arrays[0]
            assert_bits_equal(products_fixed(flat, matrix),
                              dot_fixed_products(flat, matrix))
        for size in (len(thetas), 1, 3):
            parts = [classify_series(thetas[lo:lo + size], self.nom,
                                     self.thr, lib)
                     for lo in range(0, len(thetas), size)]
            got = [np.concatenate(p) for p in zip(*parts)]
            for g, w in zip(got, want):
                assert_bits_equal(g, w)
        d, codes, similarity = got
        case = {name: (VERDICTS[codes[k]], similarity[k])
                for k, name in enumerate(cases)}
        assert case["zero"][0] is Verdict.NORMAL
        assert np.isnan(case["zero"][1])
        # the first NaN wins, at the first signature or after finite ones
        assert np.isinf(d[list(cases).index("overflow")])
        assert case["overflow"][0] is Verdict.FAULT
        assert np.isnan(case["overflow"][1])
        assert case["overflow_alternating"][0] is Verdict.LOAD_INCREASE
        assert np.isnan(case["overflow_alternating"][1])
        # the first of equal maxima
        assert case["tie"][0] is Verdict.FAULT
        assert case["tie"][1] == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < case["subnormal"][1] < 1e-300
        for name in ("negative_zeros", "zero_divisor",
                     "underflowing_divisor"):
            assert case[name][0] is Verdict.UNCLASSIFIED
            assert_bits_equal(np.array([case[name][1]]), np.array([0.0]))


def oracle_detection_times(t, d, t_start, t_end, thresholds):
    """Reference delays by a scan over the samples: (dt1_high, dt1_low,
    dt2)."""
    def first(hit, t0):
        return next((float(tk - t0) for tk, dk in zip(t, d)
                     if tk >= t0 and hit(dk)), None)

    return (first(lambda dk: dk > thresholds.d_high, t_start),
            first(lambda dk: dk > thresholds.d_low, t_start),
            first(lambda dk: dk <= thresholds.d_low, t_end))


class TestDebounce:
    N, F = NORMAL_CODE, FAULT_CODE

    def test_single_sample_chatter_suppressed(self):
        raw = np.array([self.N, self.N, self.F, self.N, self.N])
        assert debounce(raw, hold=3).tolist() == [self.N] * 5

    def test_sustained_change_passes(self):
        raw = np.array([self.N] * 3 + [self.F] * 5)
        out = debounce(raw, hold=3)
        assert out.tolist() == [self.N] * 5 + [self.F] * 3

    def test_hold_one_is_identity(self):
        raw = np.array([self.N, self.F, self.N, self.F])
        assert debounce(raw, hold=1).tolist() == raw.tolist()

    def test_bad_hold(self):
        with pytest.raises(ValueError, match="hold must be >= 1, got 0"):
            debounce(np.array([self.N]), hold=0)

    def test_negative_code_rejected_and_state_kept(self):
        """A rejected block writes neither the state nor the first times,
        though its updates before the negative code would change both."""
        state = debounce_state()
        debounce(np.array([self.F]), 3, state)
        with pytest.raises(ValueError, match="code 1 is negative"):
            debounce(np.array([self.N, -1]), 3, state)
        assert state.tolist() == [self.F, -1, 0]
        found = np.array([np.nan, 0.5, np.nan, -0.0, np.nan])
        before = found.copy()
        with pytest.raises(ValueError, match="code 1 is negative"):
            _kernels.debounce_block(np.array([self.N, -1]), 1, state, 0,
                                    np.array([1.0, 2.0]), np.array([2.0, 0.0]),
                                    (0.0, 1.0, 0.1, 1.0), found)
        assert state.tolist() == [self.F, -1, 0]
        assert found.view(np.uint64).tolist() == before.view(
            np.uint64).tolist()

    @pytest.mark.parametrize("hold", [1, 2, 3, 5])
    def test_state_carried_across_blocks(self, hold):
        """Blocks that share one state give the output of one call, with
        edges inside streaks and on the first verdict."""
        rng = np.random.default_rng(hold)
        codes = rng.choice(4, 500, p=[0.55, 0.15, 0.15, 0.15])
        want = debounce(codes, hold)
        for cuts in ([0, 1, 2, 3, 250, 251, 500], [0, 7, 100, 499, 500]):
            state = debounce_state()
            got = [debounce(codes[a:b], hold, state)
                   for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate(got).tolist() == want.tolist(), cuts

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 7)),
                         max_size=60),
           cuts=st.lists(st.integers(0, 420), max_size=8),
           hold=st.integers(1, 5))
    def test_blocks_equal_the_loop(self, runs, cuts, hold):
        """A code stream of random runs, split into random blocks (empty
        ones too): each block's output and the state it leaves are the
        per-verdict loop's, as an intp array."""
        codes = np.array([v for v, length in runs for _ in range(length)],
                         dtype=np.intp)
        edges = sorted(min(c, codes.size) for c in cuts)
        state, want_state = debounce_state(), debounce_state()
        for a, b in zip([0] + edges, edges + [codes.size]):
            got = debounce(codes[a:b], hold, state)
            want = debounce_loop(codes[a:b].tolist(), hold, want_state)
            assert got.dtype == np.intp
            assert got.tolist() == want
            assert state.tolist() == want_state.tolist()


def bits(values):
    """Each float of `values` as its uint64 bits, None as None."""
    return [None if v is None else int(np.float64(v).view(np.uint64))
            for v in values]


def times(found):
    """The kernel's first times `found`, NaN (not yet found) as None."""
    return tuple(None if np.isnan(v) else v for v in found.tolist())


def readonly(array):
    """`array`, made read-only."""
    array.flags.writeable = False
    return array


class TestDebounceBlock:
    """`_kernels.debounce_block`, a run's one call per block, against the
    array forms it replaced (`oracles.debounce_numpy`,
    `transitions_numpy` and `detection_times_numpy` with `first_time`),
    block by block with what a run carries."""

    THR = Thresholds(d_high=1.0, d_low=0.1)
    TS = 2e-4

    @staticmethod
    def parent_blocks(t, d, raw, arm_from, hold, window, cuts):
        """A run's bookkeeping over the blocks as the array forms did it:
        the stable codes, the transitions and the five first times."""
        state = debounce_state()
        crossings, first_fault, first_not_normal = (None,) * 3, None, None
        last_code, stable, changes = -1, [], []
        t_start, t_end = window
        for a, b in zip(cuts, cuts[1:]):
            tb, db = t[a:b], d[a:b]
            armed = np.arange(a, b) >= arm_from
            codes = np.where(armed, raw[a:b], NORMAL_CODE)
            out = debounce_numpy(codes, hold, state)
            crossings = detection_times_numpy(
                tb[armed], db[armed], t_start, t_end, TestDebounceBlock.THR,
                crossings)
            after = armed & (tb >= t_start)
            first_fault = first_time(tb, after & (out == FAULT_CODE),
                                     t_start, first_fault)
            first_not_normal = first_time(tb, after & (out != NORMAL_CODE),
                                          t_start, first_not_normal)
            changes += transitions_numpy(tb, out, last_code)
            if out.size:
                last_code = int(out[-1])
            stable.append(out)
        return (np.concatenate(stable), changes,
                (*crossings, first_fault, first_not_normal))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), hold=st.integers(1, 5),
           sizes=st.lists(st.sampled_from([0, 1, 3, 2048]), min_size=1,
                          max_size=6),
           arm=st.floats(0.0, 1.0), start=st.floats(-0.1, 1.1),
           length=st.floats(0.0, 0.6))
    def test_blocks_equal_the_array_forms(self, seed, hold, sizes, arm,
                                          start, length):
        """Random code and distance streams (d on each threshold too) in
        blocks of 0, 1, 3 and 2048 updates, with the state carried: the
        codes, the transitions and the five delays are bitwise those of
        the array forms."""
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        t = np.arange(1, n + 1) * self.TS
        raw = rng.choice(4, n, p=[0.5, 0.2, 0.2, 0.1])
        d = rng.choice([0.0, 0.05, self.THR.d_low, 0.5, self.THR.d_high,
                        2.0], n)
        arm_from = int(arm * n)
        t_start = start * n * self.TS
        window = (t_start, t_start + length * n * self.TS)
        cuts = np.cumsum([0] + sizes).tolist()
        want = self.parent_blocks(t, d, raw, arm_from, hold, window, cuts)
        state, found = debounce_state(), np.full(5, np.nan)
        stable, changes = [], []
        for a, b in zip(cuts, cuts[1:]):
            out, at = _kernels.debounce_block(
                raw[a:b], hold, state, max(0, arm_from - a), t[a:b], d[a:b],
                (*window, self.THR.d_low, self.THR.d_high), found)
            assert out.dtype == np.intp and at.dtype == np.intp
            changes += [(t[a + k], VERDICTS[out[k]].value)
                        for k in at.tolist()]
            stable.append(out)
        assert np.concatenate(stable).tolist() == want[0].tolist()
        assert bits(tk for tk, _ in changes) == bits(tk for tk, _ in want[1])
        assert [v for _, v in changes] == [v for _, v in want[1]]
        assert bits(times(found)) == bits(want[2])

    @classmethod
    def crossings(cls, t, d, t_start, t_end, found=None):
        """The kernel's first three times (dt1_high, dt1_low, dt2), None
        for none, over codes that are all normal, armed from the first
        update, carried in `found` (a new array when not given)."""
        t = np.asarray(t, float)
        found = np.full(5, np.nan) if found is None else found
        window = (t_start, t_end, cls.THR.d_low, cls.THR.d_high)
        _kernels.debounce_block(
            np.full(t.size, NORMAL_CODE), 1, debounce_state(), 0, t,
            np.asarray(d, float), window, found)
        return times(found)[:3]

    def test_step_crossing(self):
        t = np.arange(100) * 1e-3
        d = np.where((t >= 0.030) & (t < 0.060), 2.0, 0.01)
        dt1_high, dt1_low, dt2 = self.crossings(t, d, 0.028, 0.060)
        assert dt1_high == pytest.approx(0.002)
        assert dt1_low == pytest.approx(0.002)
        assert dt2 == pytest.approx(0.0)

    def test_low_trip(self):
        t = np.arange(100) * 1e-3
        d = np.where(t >= 0.050, 0.5, 0.01)
        dt1_high, dt1_low, dt2 = self.crossings(t, d, 0.050, 0.090)
        assert dt1_high is None
        assert dt1_low == pytest.approx(0.0)
        assert dt2 is None

    def test_never_trips(self):
        t = np.arange(10) * 1e-3
        d = np.full(10, 0.01)
        dt1_high, dt1_low, dt2 = self.crossings(t, d, 0.0, 0.005)
        assert dt1_high is None and dt1_low is None
        assert dt2 == pytest.approx(0.0)

    def test_never_recovers(self):
        t = np.arange(10) * 1e-3
        d = np.full(10, 5.0)
        dt1_high, dt1_low, dt2 = self.crossings(t, d, 0.0, 0.005)
        assert dt1_high == pytest.approx(0.0)
        assert dt1_low == pytest.approx(0.0)
        assert dt2 is None

    @pytest.mark.parametrize("seed", range(5))
    def test_crossings_match_scan_oracle(self, seed):
        """Both trip levels and the recovery, with d exactly on each
        threshold at some samples."""
        rng = np.random.default_rng(seed)
        t = np.arange(400) * 1e-3
        d = rng.choice([0.0, 0.05, self.THR.d_low, 0.5, self.THR.d_high,
                        2.0], size=t.size)
        t_start, t_end = rng.uniform(0.0, 0.4, 2)
        got = self.crossings(t, d, t_start, t_end)
        assert got == oracle_detection_times(t, d, t_start, t_end, self.THR)

    @pytest.mark.parametrize("seed", range(5))
    def test_crossings_carried_across_blocks(self, seed):
        """Blocks that pass each call's times to the next give the times
        of one call."""
        rng = np.random.default_rng(seed)
        t = np.arange(400) * 1e-3
        d = rng.choice([0.0, 0.05, 0.5, 2.0], size=t.size,
                       p=[0.4, 0.3, 0.2, 0.1])
        t_start, t_end = rng.uniform(0.0, 0.4, 2)
        found = np.full(5, np.nan)
        for a, b in zip([0, 1, 37, 200, 399], [1, 37, 200, 399, 400]):
            got = self.crossings(t[a:b], d[a:b], t_start, t_end, found)
        assert got == self.crossings(t, d, t_start, t_end)
        assert got == oracle_detection_times(t, d, t_start, t_end, self.THR)

    def test_found_entry_kept(self):
        """A first time already found stays, though a later block's updates
        hit it; the entries not yet found take the block's first hits."""
        t = np.arange(1, 6) * 1e-3
        d = np.array([2.0, 2.0, 0.0, 0.0, 2.0])
        codes = np.full(t.size, FAULT_CODE)
        window = (0.0, 0.002, self.THR.d_low, self.THR.d_high)
        fresh = np.full(5, np.nan)
        _kernels.debounce_block(codes, 1, debounce_state(), 0, t, d, window,
                                fresh)
        assert not np.isnan(fresh).any()
        found = np.array([0.5, np.nan, 0.25, np.nan, -0.0])
        before = found.copy()
        _kernels.debounce_block(codes, 1, debounce_state(), 0, t, d, window,
                                found)
        kept = [0, 2, 4]
        assert found[kept].view(np.uint64).tolist() == before[kept].view(
            np.uint64).tolist()
        assert found[[1, 3]].tolist() == fresh[[1, 3]].tolist()

    def test_no_window_searches_no_time(self):
        """Without a window (a run with no disturbance inside it) found
        is left as given and the debounce runs as ever."""
        codes = np.array([FAULT_CODE] * 4)
        found = np.array([np.nan, 1.5, np.nan, np.nan, np.nan])
        before = found.copy()
        out, at = _kernels.debounce_block(
            codes, 1, debounce_state(), 0, None, None, None, found)
        assert out.tolist() == codes.tolist() and at.tolist() == [0]
        assert found.view(np.uint64).tolist() == before.view(
            np.uint64).tolist()

    WINDOW = (0.0, 1.0, 0.1, 1.0)

    @pytest.mark.parametrize("args, message", [
        ((np.zeros(3, np.intp), 1, debounce_state(), 0, np.zeros(2),
          np.zeros(3), WINDOW, np.full(5, np.nan)),
         "argument t: expected a C-contiguous float64 array of shape (3,)"),
        ((np.zeros(3, np.intp), 1, debounce_state(), 0, np.zeros(3),
          np.zeros((3, 1)), WINDOW, np.full(5, np.nan)),
         "argument d: expected a C-contiguous float64 array of shape (3,)"),
        ((np.zeros((3, 1), np.intp), 1, debounce_state(), 0, None, None,
          None, None), "argument codes: expected one dimension"),
        ((np.zeros(3, np.intp), 1, np.array([-1, -1, 0], np.int32), 0,
          None, None, None, None),
         "argument state: expected a writable C-contiguous int64 array of "
         "shape (3,), got an ndarray of dtype 'i4'"),
        ((np.zeros(3, np.intp), 1, np.array([-1, 0], np.int64), 0, None,
          None, None, None),
         "argument state: expected a writable C-contiguous int64 array of "
         "shape (3,), got an ndarray of dtype 'i8' and shape (2,)"),
        ((np.zeros(3, np.intp), 1, readonly(debounce_state()), 0, None,
          None, None, None),
         "argument state: expected a writable C-contiguous int64 array of "
         "shape (3,), got an ndarray of dtype 'i8' and shape (3,), "
         "read-only"),
        ((np.zeros(3, np.intp), 1, debounce_state(), 0, np.zeros(3),
          np.zeros(3), WINDOW, np.full(3, np.nan)),
         "argument found: expected a writable C-contiguous float64 array of "
         "shape (5,), got an ndarray of dtype 'f8' and shape (3,)"),
        ((np.zeros(3, np.intp), 1, debounce_state(), 0, np.zeros(3),
          np.zeros(3), WINDOW, readonly(np.full(5, np.nan))),
         "argument found: expected a writable C-contiguous float64 array of "
         "shape (5,), got an ndarray of dtype 'f8' and shape (5,), "
         "read-only"),
        ((np.zeros(3, np.intp), 1, debounce_state(), 0, np.zeros(3),
          np.zeros(3), (0.0, 1.0), np.full(5, np.nan)), "window: expected"),
        ((np.zeros(3, np.intp), 1, debounce_state(), 0, np.zeros(3),
          np.zeros(3), list(WINDOW), np.full(5, np.nan)),
         "argument window: expected a tuple"),
        ((np.zeros(3, np.intp), 10**20, debounce_state(), 0, None, None,
          None, None),
         "argument hold: 100000000000000000000 is outside the range of a C "
         "ssize_t"),
        ((np.zeros(3, np.intp), 1, debounce_state(), -10**20, None, None,
          None, None),
         "argument armed: -100000000000000000000 is outside the range of a "
         "C ssize_t"),
    ], ids=["t_length", "d_shape", "codes_2d", "state_dtype", "state_shape",
            "state_readonly", "found_3", "found_readonly", "window_2",
            "window_list", "hold_huge", "armed_huge"])
    def test_bad_arguments_named(self, args, message):
        with pytest.raises((ValueError, TypeError), match=re.escape(message)):
            _kernels.debounce_block(*args)


def mixed_rows(rng, m):
    """m predictor snapshots of mixed magnitudes (1e-8 to 1e8), with whole
    rows of -0.0, one column of -0.0 and one of subnormals."""
    rows = rng.standard_normal((m,) + SHAPE) * 10.0 ** rng.uniform(
        -8, 8, (m,) + SHAPE)
    rows[rng.integers(0, m, m // 50 + 1)] = -0.0
    rows[:, 1, -1] = -0.0
    rows[:, 0, -1] = 5e-324 * rng.integers(1, 1000, m)
    return rows


class TestRunningMean:
    SIZES = [0, 1, 3, 100, 8192, 8193]

    def test_fold_has_the_bits_of_np_mean(self, rng):
        """Pieces of 0, 1, 3, 100, 8192 and 8193 rows folded one after
        another give np.mean over their join, as uint64; and so does every
        prefix of them."""
        rows = mixed_rows(rng, sum(self.SIZES))
        cuts = np.cumsum([0] + self.SIZES)
        mean = RunningMean()
        for a, b in zip(cuts, cuts[1:]):
            mean.add(rows[a:b])
            assert mean.count == b
            if b:
                want = np.mean(rows[:b], axis=0)
                assert np.array_equal(mean.mean().view(np.uint64),
                                      want.view(np.uint64)), b

    def test_np_mean_adds_rows_one_after_another(self, rng):
        """The order the fold continues: np.mean over axis 0 is the sum of
        the rows added to 0.0 from left to right (so a column of -0.0
        gives 0.0), divided by their count. Pairwise summation, which numpy
        uses along the fast axis, gives other bits on these rows, so a
        change of numpy's order fails here."""
        rows = mixed_rows(rng, sum(self.SIZES))
        columns = rows.reshape(rows.shape[0], -1).T
        sequential = np.array([functools.reduce(operator.add, c, 0.0)
                               for c in columns.tolist()]).reshape(SHAPE)
        want = sequential / rows.shape[0]
        got = np.mean(rows, axis=0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        pairwise = np.add.reduce(np.ascontiguousarray(columns), axis=1)
        assert not np.array_equal(pairwise, sequential.ravel())
        mean = RunningMean()
        mean.add(rows[:5000])
        mean.add(rows[5000:])
        assert np.array_equal(mean.mean().view(np.uint64),
                              want.view(np.uint64))

    def test_empty_block_leaves_the_sum(self):
        mean = RunningMean()
        mean.add(np.zeros((0,) + SHAPE))
        assert mean.count == 0 and mean.total is None
        rows = np.full((2,) + SHAPE, -0.0)
        rows[1, 0, 0] = 5e-324
        for block in (rows[:1], rows[:0], rows[1:], rows[:0]):
            mean.add(block)
        assert mean.count == 2
        assert np.array_equal(mean.mean().view(np.uint64),
                              np.mean(rows, axis=0).view(np.uint64))


    @pytest.mark.parametrize("m, window", [(1, 1), (2, 1), (300, 257),
                                           (9000, 8193)])
    def test_calibration_mean_has_the_bits_of_np_mean(self, rng, m, window):
        """theta* of `calibrate_nominal`, the kernel's row-by-row sum,
        against np.mean(axis=0) as uint64, on rows of mixed magnitudes
        with rows and a column of -0.0 and subnormals."""
        rows = mixed_rows(rng, m)
        nom = calibrate_nominal(np.arange(m)[-window:], rows[-window:])
        want = np.mean(rows[-window:], axis=0)
        assert np.array_equal(nom.theta_star.view(np.uint64),
                              want.view(np.uint64))

    def test_kernel_checks_the_sum(self):
        """`add_rows` writes the sum in place: it must be a writable
        float64 array of the rows' shape."""
        rows = np.ones((4,) + SHAPE)
        total = np.zeros(SHAPE)
        total.flags.writeable = False
        for bad, message in ((np.zeros(SHAPE[::-1]), "shape (2, 12)"),
                             (np.zeros(SHAPE, np.float32), "float64"),
                             (total, "writable")):
            with pytest.raises(ValueError, match=re.escape(message)):
                _kernels.add_rows(bad, rows)


class TestLibraryNorms:
    def test_norms_have_the_bits_of_numpy(self, rng):
        """The signature norms of `SignatureLibrary.arrays`, the kernel's
        pairwise sum, against np.sqrt(add.reduce(m * m, 1)) as uint64: on
        libraries of 1 to 8 signatures with magnitudes from 1e-300 to
        1e300, where squares underflow and overflow, and with -0.0."""
        for _ in range(300):
            count = int(rng.integers(1, 9))
            matrix = rng.standard_normal((count, SHAPE[0] * SHAPE[1])) \
                * 10.0 ** rng.uniform(-300, 300, (count, 1))
            matrix[0, rng.integers(matrix.shape[1])] = -0.0
            library = SignatureLibrary(order=ORDER, signatures=[
                Signature(Verdict.FAULT, row.reshape(SHAPE))
                for row in matrix])
            norms = library.arrays[1]
            assert np.array_equal(norms.view(np.uint64),
                                  norms_numpy(matrix).view(np.uint64))


def one_piece(t, thetas):
    """A run's predictors given as arrays: one (t, thetas) piece."""
    return [(t, thetas)]


class TestBuildLibrary:
    def test_synthetic_runs(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 101)
        sig = np.zeros(SHAPE)
        sig[0, 0] = 1.0
        thetas = np.where((t >= 0.2)[:, None, None], 0.5 * sig, 0.0)
        lib = build_library(
            [(Verdict.FAULT, one_piece(t, thetas), 0.2, 0.8, "synthetic")],
            nom, thr, order=ORDER)
        assert len(lib.signatures) == 1
        entry = lib.signatures[0]
        assert entry.label is Verdict.FAULT
        assert np.linalg.norm(entry.delta_theta) == pytest.approx(1.0)
        assert entry.delta_theta[0, 0] == pytest.approx(1.0)
        want = build_library_numpy(
            [(Verdict.FAULT, t, thetas, 0.2, 0.8, "synthetic")], nom, thr,
            ORDER)
        assert lib.to_json() == want.to_json()

    @pytest.mark.parametrize("cuts", [[], [0, 0, 1], [17, 250, 251, 700],
                                      list(range(0, 1000, 7))])
    def test_pieces_equal_whole_arrays(self, rng, cuts):
        """A run cut into pieces anywhere, empty ones included, gives the
        bits of the array form over the whole run: the window and its
        settled half span the cuts."""
        nom = calibrate_nominal([0.0], rng.standard_normal((1,) + SHAPE))
        thr = Thresholds(d_high=1e9, d_low=0.01)
        t = np.arange(1000) * 1e-3
        thetas = mixed_rows(rng, 1000)
        thetas[:, 0, 0] = 1.0 + 1e-3 * rng.standard_normal(1000)
        bounds = [0, *cuts, 1000]
        pieces = [(t[a:b], thetas[a:b]) for a, b in zip(bounds, bounds[1:])]
        runs = [(Verdict.FAULT, 0.2, 0.7, "a"),
                (Verdict.LOAD_INCREASE, 0.1, 1.2, "b")]
        lib = build_library([(label, iter(pieces), lo, hi, source)
                             for label, lo, hi, source in runs],
                            nom, thr, ORDER)
        want = build_library_numpy([(label, t, thetas, lo, hi, source)
                                    for label, lo, hi, source in runs],
                                   nom, thr, ORDER)
        assert lib.to_json() == want.to_json()
        for got, ref in zip(lib.signatures, want.signatures):
            assert np.array_equal(got.delta_theta.view(np.uint64),
                                  ref.delta_theta.view(np.uint64))

    def test_runs_read_one_at_a_time(self):
        """A run's pieces are read to their end before the next run is
        taken."""
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 101)
        thetas = np.full((101,) + SHAPE, 0.1)
        log = []

        def pieces(name):
            for a, b in ((0, 50), (50, 101)):
                log.append((name, a))
                yield t[a:b], thetas[a:b]
            log.append((name, "end"))

        def runs():
            for name in ("a", "b"):
                log.append(("run", name))
                yield Verdict.FAULT, pieces(name), 0.2, 0.8, name

        build_library(runs(), nom, thr, order=ORDER)
        assert log == [("run", "a"), ("a", 0), ("a", 50), ("a", "end"),
                       ("run", "b"), ("b", 0), ("b", 50), ("b", "end")]

    def test_quiet_run_rejected(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.5)
        t = np.linspace(0.0, 1.0, 101)
        thetas = np.zeros((101,) + SHAPE)
        thetas[:, 0, 0] = 0.1  # never exceeds d_low
        with pytest.raises(InsufficientDataError):
            build_library([(Verdict.FAULT, one_piece(t, thetas), 0.2, 0.8,
                            "quiet")], nom, thr, order=ORDER)

    def test_times_must_increase(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 11)[::-1]
        thetas = np.ones((11,) + SHAPE)
        with pytest.raises(ValueError, match="'back': snapshot times must "
                                             "increase"):
            build_library([(Verdict.FAULT, one_piece(t, thetas), 0.2, 0.8,
                            "back")], nom, thr, order=ORDER)

    @pytest.mark.parametrize("shift", [0.0, -0.5])
    def test_times_must_increase_across_pieces(self, shift):
        """Each piece increasing is not enough: a piece must start after
        the last snapshot before it, here at that time or before it, with
        an empty piece between them."""
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 11)
        thetas = np.ones((11,) + SHAPE)
        pieces = [(t[:6], thetas[:6]), (t[:0], thetas[:0]),
                  (t[5:] + shift, thetas[5:])]
        with pytest.raises(ValueError, match="'split': snapshot times must "
                                             "increase"):
            build_library([(Verdict.FAULT, pieces, 0.2, 0.8, "split")],
                          nom, thr, order=ORDER)

    def test_empty_window_rejected(self):
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 11)
        thetas = np.ones((11,) + SHAPE)
        with pytest.raises(InsufficientDataError):
            build_library([(Verdict.FAULT, one_piece(t, thetas), 5.0, 6.0,
                            "late")], nom, thr, order=ORDER)

    def test_empty_settled_half_rejected(self):
        """Snapshots inside the window but none in its second half: the
        signature would be the mean of no rows."""
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 3.0, 31)
        thetas = np.ones((31,) + SHAPE)
        with pytest.raises(InsufficientDataError,
                           match="run 'short': no snapshots in the settled "
                                 "second half of the disturbance window"):
            build_library([(Verdict.FAULT, one_piece(t, thetas), 2.0, 9.0,
                            "short")], nom, thr, order=ORDER)


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
        nom = calibrate_nominal([0.0], np.zeros((1,) + SHAPE))
        thr = Thresholds(d_high=1.0, d_low=0.01)
        t = np.linspace(0.0, 1.0, 11)
        thetas = np.full((11,) + SHAPE, 0.1)
        with pytest.raises(ValueError) as err:
            build_library([(label, one_piece(t, thetas), 0.2, 0.8,
                             "src_run")], nom, thr, order=ORDER)
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

    def test_from_json_rejects_integer_beyond_float_range(self):
        """JSON allows integers of any size; one that no float holds is a
        ValueError naming the entry and the key, not an OverflowError."""
        doc = json.loads(flat_library([(np.ones(SHAPE), Verdict.FAULT)])
                         .to_json())
        doc["signatures"][0]["delta_theta"][5] = 10**400
        with pytest.raises(ValueError) as err:
            SignatureLibrary.from_json(json.dumps(doc))
        assert str(err.value) == ("library entry 0 (''): delta_theta: int "
                                  "too large to convert to float")

    @pytest.mark.parametrize("value", [10**400, -10**309])
    def test_json_numbers_integer_beyond_float_range(self, value):
        with pytest.raises(ValueError) as err:
            json_numbers(value, "d_high", 0)
        assert str(err.value) == "d_high: int too large to convert to float"

    @pytest.mark.parametrize("order", [None, "3", 0, True, 3.0])
    def test_from_json_rejects_order(self, order):
        doc = json.loads(flat_library([(np.ones(SHAPE), Verdict.FAULT)])
                         .to_json())
        doc["order"] = order
        with pytest.raises(ValueError) as err:
            SignatureLibrary.from_json(json.dumps(doc))
        assert str(err.value) == \
            f"order: expected an integer >= 1, got {order!r}"

    @pytest.mark.parametrize("value", ["0.5", None, False])
    def test_from_json_rejects_non_number_signature(self, value):
        doc = json.loads(flat_library([(np.ones(SHAPE), Verdict.FAULT)])
                         .to_json())
        doc["signatures"][0]["delta_theta"][5] = value
        with pytest.raises(ValueError) as err:
            SignatureLibrary.from_json(json.dumps(doc))
        assert str(err.value) == (
            "library entry 0 (''): delta_theta: expected a 1-D list of "
            f"numbers, got {value!r}")

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
