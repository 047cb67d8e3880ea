"""Privacy-isolating store for client class histograms.

Clients submit raw class counts exactly once; the only information that ever
leaves this module is the pairwise distance matrix between normalized
histograms. There is intentionally no accessor for stored counts, and the
store is synchronized so submissions may arrive from concurrent contexts.

The distance used is the L1 distance between the two normalized class
histograms, which for histograms on a shared label set coincides with twice
the total variation distance and ranges over [0, 2].
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ClassCountSubmission:
    client_id: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class SubmissionReceipt:
    client_id: int


def histogram_distance(counts_a, counts_b) -> float:
    """L1 distance between normalized histograms of equal length."""
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"histogram length mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a / a.sum() - b / b.sum()).sum())


@dataclass
class SimilarityMatrix:
    """Pairwise histogram distances, indexed by client id."""

    values: np.ndarray
    client_ids: tuple[int, ...]
    _index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = len(self.client_ids)
        if self.values.shape != (m, m):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match {m} client ids"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix entries must be finite")
        # Disjoint histograms can land a few ulps above 2 after normalization.
        if self.values.min() < 0.0 or self.values.max() > 2.0 + 1e-9:
            raise ValueError("matrix entries must lie in [0, 2]")
        if not np.array_equal(self.values, self.values.T):
            raise ValueError("matrix must be symmetric")
        if np.any(np.diagonal(self.values) != 0.0):
            raise ValueError("matrix diagonal must be zero")
        self._index = {cid: i for i, cid in enumerate(self.client_ids)}

    def get(self, client_a: int, client_b: int) -> float:
        return float(self.values[self._index[client_a], self._index[client_b]])

    def block(self, rows, cols) -> np.ndarray:
        """Distances between the clients `rows` and `cols`, as a matrix."""
        index = self._index
        return self.values[[index[c] for c in rows]][:, [index[c] for c in cols]]

    def to_dict(self) -> dict:
        return {"client_ids": list(self.client_ids), "values": self.values.tolist()}


class SimilarityOracle:
    """Collects one class-count submission per expected client."""

    def __init__(self, expected_client_ids, num_classes: int) -> None:
        self._expected = tuple(sorted(int(c) for c in expected_client_ids))
        if len(set(self._expected)) != len(self._expected):
            raise ValueError("expected client ids must be unique")
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        self._num_classes = num_classes
        self._lock = threading.Lock()
        self._counts: dict[int, np.ndarray] = {}

    def submit(self, submission: ClassCountSubmission) -> SubmissionReceipt:
        cid = int(submission.client_id)
        counts = np.asarray(submission.counts, dtype=np.int64)
        if cid not in self._expected:
            raise ValueError(f"unknown client id {cid}")
        if counts.shape != (self._num_classes,):
            raise ValueError(
                f"client {cid} submitted {counts.shape[0]} counts, expected "
                f"{self._num_classes}"
            )
        if counts.min() < 0:
            raise ValueError(f"client {cid} submitted negative counts")
        if counts.sum() <= 0:
            raise ValueError(f"client {cid} submitted an all-zero histogram")
        with self._lock:
            if cid in self._counts:
                raise ValueError(f"client {cid} already submitted")
            self._counts[cid] = counts
        return SubmissionReceipt(client_id=cid)

    def compute_matrix(self) -> SimilarityMatrix:
        with self._lock:
            missing = [c for c in self._expected if c not in self._counts]
            if missing:
                raise ValueError(f"missing submissions from clients {missing}")
            normalized = np.stack(
                [self._counts[c] / self._counts[c].sum() for c in self._expected]
            )
        m = len(self._expected)
        values = np.zeros((m, m))
        # One row of the upper triangle at a time: each distance is the sum of
        # one contiguous row of absolute differences, which sums in the same
        # order as histogram_distance does for a single pair.
        for i in range(m - 1):
            d = np.abs(normalized[i] - normalized[i + 1 :]).sum(axis=1)
            values[i, i + 1 :] = d
            values[i + 1 :, i] = d
        return SimilarityMatrix(values=values, client_ids=self._expected)
