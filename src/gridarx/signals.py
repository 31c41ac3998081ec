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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class RbsStream:
    """The samples of `rbs_generate(config, n, fs)`, taken in consecutive
    pieces of any length.

    Chips are drawn from one Philox generator as the pieces need them; a
    chip that straddles two pieces is carried over. Each chip is one draw
    per channel, so the draws do not depend on how the run is cut up, and
    the pieces join bitwise into the one-call array.
    """

    def __init__(self, config: RbsConfig, fs: float = 5000.0):
        if config.chip_rate > fs + 1e-9:
            raise ValueError(
                f"chip_rate {config.chip_rate} exceeds sampling rate {fs}"
            )
        self.config = config
        self._per_chip = max(1, int(round(fs / config.chip_rate)))
        self._rng = np.random.Generator(np.random.Philox(config.seed))
        self._left = np.zeros((0, 2))  # samples of chips drawn, not taken

    def take(self, n: int) -> np.ndarray:
        """(n, 2) array of the next n samples."""
        need = n - self._left.shape[0]
        if need > 0:
            per_chip = self._per_chip
            chips = self.config.amplitude * self._rng.choice(
                [-1.0, 1.0], size=(-(-need // per_chip), 2))
            rows = np.concatenate(
                [self._left, np.repeat(chips, per_chip, axis=0)])
        else:
            rows = self._left
        self._left = rows[n:]
        return rows[:n]


def rbs_generate(config: RbsConfig, n: int, fs: float = 5000.0) -> np.ndarray:
    """(n, 2) array of +/-amplitude chips, held constant within chip periods.

    Deterministic given the seed; backed by the counter-based Philox
    generator. The two channels are drawn independently.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return RbsStream(config, fs).take(n)
