"""Per-phase batch timing model and online measurement.

A training batch decomposes into four phases: forward through the feature
block (ff), forward through the classifier (fc), backward through the
classifier (bc) and backward through the feature block (bf). The default
base profile (`DEFAULT_BASE_TIMINGS`) lets the backward feature phase
dominate, which is what makes freezing the feature block worthwhile for
slow clients. That is a premise of these constants, not a property of the
network fedsim trains: for the README's 8-32-10 network, bf is 256 of
1472 multiply-accumulates per sample, about 17% of a batch.

A client's ground-truth timings are the base profile divided by its speed
factor. Online measurement averages per-batch samples perturbed by
multiplicative Gaussian noise; with zero noise the measurement reproduces the
ground truth exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Fractions of a nominal 1-second batch on a full-speed client.
DEFAULT_BASE_TIMINGS: "PhaseTimings"

_NOISE_FLOOR = 1e-9


@dataclass(frozen=True)
class PhaseTimings:
    """Seconds per batch spent in each of the four phases."""

    ff: float
    fc: float
    bc: float
    bf: float

    def __post_init__(self) -> None:
        for name in ("ff", "fc", "bc", "bf"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                raise ValueError(f"phase time {name} must be positive, got {v}")

    @property
    def frozen_time(self) -> float:
        """Per-batch cost when the feature block is frozen (no bf phase)."""
        return self.ff + self.fc + self.bc

    @property
    def full_time(self) -> float:
        return self.ff + self.fc + self.bc + self.bf


DEFAULT_BASE_TIMINGS = PhaseTimings(ff=0.15, fc=0.05, bc=0.15, bf=0.65)


@dataclass(frozen=True)
class ClientProfile:
    """What the federator knows about a client when it schedules."""

    client_id: int
    timings: PhaseTimings
    remaining_updates: int

    def estimated_remaining_time(self) -> float:
        return self.remaining_updates * self.timings.full_time


def scale_timings(base: PhaseTimings, speed_factor: float) -> PhaseTimings:
    """Ground-truth timings of a client running at the given speed factor.

    A factor of 1.0 is the reference machine; 0.5 means every phase takes
    twice as long. Phase proportions are preserved.
    """
    if speed_factor <= 0:
        raise ValueError(f"speed_factor must be positive, got {speed_factor}")
    return PhaseTimings(
        ff=base.ff / speed_factor,
        fc=base.fc / speed_factor,
        bc=base.bc / speed_factor,
        bf=base.bf / speed_factor,
    )


def measure(
    client_id: int,
    true_timings: PhaseTimings,
    remaining_updates: int,
    profile_batches: int,
    noise_sigma: float,
    rng: np.random.Generator | None,
) -> ClientProfile:
    """Profile a client over its first `profile_batches` updates.

    Each profiled batch yields one noisy sample per phase (multiplicative
    Gaussian noise, clamped positive); the reported value is the per-phase
    mean. `remaining_updates` is what the client has left of its budget when
    the federator schedules: the profiled batches and any batches it ran
    while the schedule was being computed are already done.

    With zero noise every sample is 1.0 + 0.0 * z == 1.0, so the true
    timings come back exactly and `rng` is never drawn from; it may be None.
    """
    if remaining_updates < 0:
        raise ValueError(f"remaining_updates must be >= 0, got {remaining_updates}")
    if profile_batches < 1:
        raise ValueError(f"profile_batches must be >= 1, got {profile_batches}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if noise_sigma == 0.0:
        return ClientProfile(client_id, true_timings, remaining_updates)
    if rng is None:
        raise ValueError("a noisy measurement needs an rng")
    factors = np.maximum(
        rng.normal(1.0, noise_sigma, size=(profile_batches, 4)), _NOISE_FLOOR
    )
    means = factors.mean(axis=0)
    measured = PhaseTimings(
        ff=true_timings.ff * means[0],
        fc=true_timings.fc * means[1],
        bc=true_timings.bc * means[2],
        bf=true_timings.bf * means[3],
    )
    return ClientProfile(client_id, measured, remaining_updates)
