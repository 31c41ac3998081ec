"""Voltage limit-checking, the conventional comparator method.

A stateless window test on the measured dq voltage: each axis must stay
strictly inside its user-defined band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VoltageLimits:
    vd_min: float
    vd_max: float
    vq_min: float
    vq_max: float

    def __post_init__(self):
        if not (self.vd_min < self.vd_max and self.vq_min < self.vq_max):
            raise ValueError("each axis needs min < max")

    @classmethod
    def around(cls, v_dq, fraction: float = 0.1) -> "VoltageLimits":
        """Symmetric band of +/- fraction (of the base, 1 p.u.) per axis."""
        v_dq = np.asarray(v_dq, float)
        return cls(
            vd_min=float(v_dq[0] - fraction),
            vd_max=float(v_dq[0] + fraction),
            vq_min=float(v_dq[1] - fraction),
            vq_max=float(v_dq[1] + fraction),
        )


def limit_check(v_dq, limits: VoltageLimits):
    """Open-band test on dq voltage samples: True where a sample violates.

    `v_dq` is one (2,) sample or an (n, 2) array of them. A value on a band
    edge counts as a violation (the band is open).
    """
    v_dq = np.asarray(v_dq, float)
    if not np.all(np.isfinite(v_dq)):
        raise ValueError("non-finite voltage sample")
    vd, vq = v_dq[..., 0], v_dq[..., 1]
    return ((vd <= limits.vd_min) | (vd >= limits.vd_max)
            | (vq <= limits.vq_min) | (vq >= limits.vq_max))
