"""Centralized freeze-and-offload scheduling.

Given the profiles of the clients selected for a round, the federator
estimates each client's remaining completion time, splits the clients into a
sending set (slower than the mean) and a receiving set (at or below the
mean), and greedily pairs each sender with the receiver that minimizes the
estimated pair completion time, discounted by how similar the two clients'
class distributions are. Every receiver is used at most once per round.

The pair completion estimate scans offload points d = 1..min(remaining
updates) and evaluates

    max((r_a - d) * t_a + d * x_b, (r_b - d) * t_b)

where t_a, t_b are full per-batch times, x_b is the receiver's backward
feature phase time and r_a, r_b are remaining update counts. The scan exits
as soon as the cost rises, which is safe because both arms are linear in d.

`find_offload_point` is that scan for one pair. `build_schedule` evaluates
every sender x receiver pair of a round at once as one cost matrix
(`offload_points`), with the same float expressions, so both give bitwise
the same estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiling import ClientProfile
from .similarity import HistogramDistances


@dataclass(frozen=True)
class OffloadAssignment:
    weak_client_id: int
    strong_client_id: int
    offload_point: int
    estimated_completion: float


@dataclass(frozen=True)
class OffloadSchedule:
    assignments: tuple[OffloadAssignment, ...]
    sending_ids: tuple[int, ...]
    receiving_ids: tuple[int, ...]
    mean_completion: float


def mean_completion_time(profiles: list[ClientProfile]) -> float:
    """Mean of the clients' estimated remaining completion times."""
    if not profiles:
        raise ValueError("mean_completion_time needs at least one profile")
    return sum(p.estimated_remaining_time() for p in profiles) / len(profiles)


def split_sending_receiving(
    profiles: list[ClientProfile], mean_completion: float
) -> tuple[list[ClientProfile], list[ClientProfile]]:
    """Split profiles around the mean estimate.

    Clients strictly above the mean are senders, everyone else (ties
    included) receives. Senders come back sorted by ascending estimate,
    receivers by descending estimate; equal estimates fall back to ascending
    client id so the schedule is reproducible.
    """
    sending = [p for p in profiles if p.estimated_remaining_time() > mean_completion]
    receiving = [p for p in profiles if p.estimated_remaining_time() <= mean_completion]
    sending.sort(key=lambda p: (p.estimated_remaining_time(), p.client_id))
    receiving.sort(key=lambda p: (-p.estimated_remaining_time(), p.client_id))
    return sending, receiving


def find_offload_point(
    weak_batch_time: float,
    strong_batch_time: float,
    strong_offload_batch_time: float,
    weak_remaining: int,
    strong_remaining: int,
) -> tuple[float, int]:
    """Best offload point for a weak/strong pair.

    Returns (estimated completion time, d) where d is the number of the weak
    client's trailing updates handed to the strong client. The scan stops at
    the first cost increase and reports the d that achieved the returned
    cost.
    """
    if weak_batch_time <= 0 or strong_batch_time <= 0 or strong_offload_batch_time <= 0:
        raise ValueError("batch times must be positive")
    if weak_remaining < 1 or strong_remaining < 1:
        raise ValueError("remaining update counts must be >= 1")
    best = math.inf
    d = 0
    for d in range(1, min(weak_remaining, strong_remaining) + 1):
        current = max(
            (weak_remaining - d) * weak_batch_time + d * strong_offload_batch_time,
            (strong_remaining - d) * strong_batch_time,
        )
        if current > best:
            return best, d - 1
        best = current
    return best, d


def offload_points(
    weak_batch_time,
    strong_batch_time,
    strong_offload_batch_time,
    weak_remaining,
    strong_remaining,
) -> tuple[np.ndarray, np.ndarray]:
    """`find_offload_point` over broadcast arrays of pairs.

    Every offload point d = 1..min(r_a, r_b) of every pair is costed at once
    along a trailing axis, and each pair keeps the d where the scalar scan
    stops: the first d whose successor costs strictly more, else the last
    one. Returns (estimated completion times, offload points), bitwise equal
    to the scalar scan pair by pair. The inputs must be ones the scalar scan
    accepts: positive times and remaining counts of at least 1.
    """
    t_a = np.asarray(weak_batch_time, dtype=np.float64)[..., None]
    t_b = np.asarray(strong_batch_time, dtype=np.float64)[..., None]
    x_b = np.asarray(strong_offload_batch_time, dtype=np.float64)[..., None]
    r_a = np.asarray(weak_remaining, dtype=np.int64)[..., None]
    r_b = np.asarray(strong_remaining, dtype=np.int64)[..., None]
    limit = np.minimum(r_a, r_b)
    # d runs one past the largest limit. Points past a pair's limit cost
    # +inf, so every pair's scan stops at its limit at the latest.
    d = np.arange(1, int(limit.max()) + 2)
    cost = np.where(d <= limit, np.maximum((r_a - d) * t_a + d * x_b, (r_b - d) * t_b), np.inf)
    best = (cost[..., 1:] > cost[..., :-1]).argmax(axis=-1)
    flat = cost.reshape(-1, cost.shape[-1])
    return flat[np.arange(flat.shape[0]), best.ravel()].reshape(best.shape), best + 1


def build_schedule(
    profiles: list[ClientProfile],
    similarity: HistogramDistances,
    similarity_factor: float,
) -> OffloadSchedule:
    """Pair senders with receivers for one round.

    Senders are visited in ascending-estimate order; for each one every
    still-unused receiver is scored with the offload-point estimate scaled by
    ``1 + ln(S * f + 1)`` and the cheapest receiver wins (ties go to the
    lower client id). With f == 0 the similarity term vanishes and the choice
    depends on timing alone. Clients with no remaining updates take no part.
    S comes from `similarity.block(senders, receivers)`, the only distances a
    round reads; `similarity` is otherwise asked only whether it knows each
    profiled client.
    """
    if similarity_factor < 0:
        raise ValueError(f"similarity_factor must be >= 0, got {similarity_factor}")
    for p in profiles:
        if p.client_id not in similarity:
            raise ValueError(f"client {p.client_id} missing from the similarity distances")

    mean = mean_completion_time(profiles)
    sending, receiving = split_sending_receiving(profiles, mean)
    senders = [p for p in sending if p.remaining_updates >= 1]
    # Columns in id order, so that the first minimum of a row is the
    # lowest-id receiver among equal costs.
    receivers = sorted(
        (p for p in receiving if p.remaining_updates >= 1), key=lambda p: p.client_id
    )
    assignments: list[OffloadAssignment] = []
    if senders and receivers:
        completion, point = offload_points(
            [[p.timings.full_time] for p in senders],
            [p.timings.full_time for p in receivers],
            [p.timings.bf for p in receivers],
            [[p.remaining_updates] for p in senders],
            [p.remaining_updates for p in receivers],
        )
        scaled = (
            similarity.block([p.client_id for p in senders], [p.client_id for p in receivers])
            * similarity_factor
            + 1.0
        )
        # math.log per pair, as np.log need not round like it.
        discount = 1.0 + np.array([math.log(v) for v in scaled.ravel().tolist()])
        cost = completion * discount.reshape(scaled.shape)
        for row, weak in enumerate(senders[: len(receivers)]):
            col = int(cost[row].argmin())
            cost[:, col] = np.inf
            assignments.append(
                OffloadAssignment(
                    weak_client_id=weak.client_id,
                    strong_client_id=receivers[col].client_id,
                    offload_point=int(point[row, col]),
                    estimated_completion=float(completion[row, col]),
                )
            )

    return OffloadSchedule(
        assignments=tuple(assignments),
        sending_ids=tuple(p.client_id for p in sending),
        receiving_ids=tuple(p.client_id for p in receiving),
        mean_completion=mean,
    )
