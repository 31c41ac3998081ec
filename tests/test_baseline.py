"""Voltage limit-checking comparator."""

import numpy as np
import pytest

from gridarx.baseline import VoltageLimits, limit_check

BAND = VoltageLimits.around((1.0, 0.0), fraction=0.1)


class TestVoltageLimits:
    def test_around_symmetric_band(self):
        assert BAND.vd_min == pytest.approx(0.9)
        assert BAND.vd_max == pytest.approx(1.1)
        assert BAND.vq_min == pytest.approx(-0.1)
        assert BAND.vq_max == pytest.approx(0.1)

    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError):
            VoltageLimits(vd_min=1.0, vd_max=0.5, vq_min=-0.1, vq_max=0.1)


class TestLimitCheck:
    def test_operating_point_inside(self):
        assert not limit_check((1.0, 0.0), BAND)

    def test_sag_violates_lower_d(self):
        assert limit_check((0.85, 0.0), BAND)

    def test_swell_violates_upper_d(self):
        assert limit_check((1.2, 0.0), BAND)

    def test_q_axis_sides(self):
        assert limit_check((1.0, -0.2), BAND)
        assert limit_check((1.0, 0.2), BAND)

    def test_boundary_counts_as_violation(self):
        for v in [(BAND.vd_min, 0.0), (BAND.vd_max, 0.0),
                  (1.0, BAND.vq_min), (1.0, BAND.vq_max)]:
            assert limit_check(v, BAND), v

    def test_just_inside_passes(self):
        assert not limit_check((0.9 + 1e-9, 0.1 - 1e-9), BAND)
        assert not limit_check((1.1 - 1e-9, -0.1 + 1e-9), BAND)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            limit_check((np.nan, 0.0), BAND)
        with pytest.raises(ValueError):
            limit_check((1.0, np.inf), BAND)
        with pytest.raises(ValueError):
            limit_check([[1.0, 0.0], [1.0, -np.inf]], BAND)

    def test_array_equals_row_by_row(self, rng):
        edges = [BAND.vd_min, BAND.vd_max, BAND.vq_min, BAND.vq_max]
        v = rng.uniform(-0.3, 1.3, size=(500, 2))
        v[:8] = [(edges[0], 0.0), (edges[1], 0.0), (1.0, edges[2]),
                 (1.0, edges[3]), (1.0, 0.0), (0.9 + 1e-9, 0.1 - 1e-9),
                 (0.5, 0.5), (1.05, -0.05)]
        got = limit_check(v, BAND)
        assert got.shape == (500,)
        assert got.tolist() == [bool(limit_check(row, BAND)) for row in v]
        inside = [BAND.vd_min < d < BAND.vd_max
                  and BAND.vq_min < q < BAND.vq_max for d, q in v.tolist()]
        assert got.tolist() == [not ok for ok in inside]
        assert got.any() and not got.all()
