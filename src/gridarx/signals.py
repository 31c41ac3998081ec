"""dq-frame signal preparation: Park transforms and random binary
excitation.

Park convention used throughout the package: amplitude-invariant, d axis
aligned with the synchronization angle, q axis lagging d by 90 degrees. A
balanced cosine set of peak A whose phase-a waveform is in phase with the
angle maps to (d, q) = (A, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


_PHASE_SHIFTS = np.array([0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0])


def park_matrix(angle: float) -> np.ndarray:
    """2x3 amplitude-invariant abc -> dq transform at the given angle."""
    a = angle + _PHASE_SHIFTS
    return (2.0 / 3.0) * np.array([np.cos(a), -np.sin(a)])


def abc_to_dq(x_abc, angle: float) -> np.ndarray:
    x_abc = np.asarray(x_abc, dtype=float)
    if not np.all(np.isfinite(x_abc)):
        raise ValueError("non-finite abc sample")
    return park_matrix(angle) @ x_abc


def dq_to_abc(x_dq, angle: float) -> np.ndarray:
    """Inverse Park (zero-sequence-free)."""
    x_dq = np.asarray(x_dq, dtype=float)
    a = angle + _PHASE_SHIFTS
    return x_dq[0] * np.cos(a) - x_dq[1] * np.sin(a)


@dataclass(frozen=True)
class RbsConfig:
    """Random binary excitation: two uncorrelated +/-amplitude channels."""

    amplitude: float = 0.1  # p.u.
    chip_rate: float = 5000.0  # Hz; one chip per sample at 5 kHz
    seed: int = 0

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")
        if self.chip_rate <= 0.0:
            raise ValueError(f"chip_rate must be positive, got {self.chip_rate}")


def rbs_generate(config: RbsConfig, n: int, fs: float = 5000.0) -> np.ndarray:
    """(n, 2) array of +/-amplitude chips, held constant within chip periods.

    Deterministic given the seed; backed by the counter-based Philox
    generator. The two channels are drawn independently.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if config.chip_rate > fs + 1e-9:
        raise ValueError(
            f"chip_rate {config.chip_rate} exceeds sampling rate {fs}"
        )
    if n == 0:
        return np.zeros((0, 2))
    samples_per_chip = max(1, int(round(fs / config.chip_rate)))
    n_chips = -(-n // samples_per_chip)
    rng = np.random.Generator(np.random.Philox(config.seed))
    chips = config.amplitude * rng.choice([-1.0, 1.0], size=(n_chips, 2))
    return np.repeat(chips, samples_per_chip, axis=0)[:n]
