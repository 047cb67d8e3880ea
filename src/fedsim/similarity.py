"""Privacy-isolating store for client class histograms.

Clients submit raw class counts exactly once. The oracle then hands out a
`HistogramDistances`, which keeps the normalized histograms to itself and
answers distances on demand: the only information that ever leaves this
module is the distances between the clients asked for. A round asks for its
cohort's senders x receivers block; only `fedsim inspect` asks for the whole
clients x clients table. There is intentionally no accessor for stored counts
or histograms.

The distance used is the L1 distance between the two normalized class
histograms, which for histograms on a shared label set coincides with twice
the total variation distance and ranges over [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClassCountSubmission:
    client_id: int
    counts: tuple[int, ...]


class HistogramDistances:
    """Pairwise histogram distances, indexed by client id, computed on demand.

    Every distance is the sum of one contiguous row of absolute differences,
    `abs(n[i] - n[cols]).sum(axis=1)` for row client i, so a pair's
    distance sums in the same order whichever call asks for it. So `block`
    and `values` agree bitwise, and since `abs(x - y) == abs(y - x)`
    exactly, the distances are symmetric, zero on the diagonal and, for
    validated submissions, finite and within [0, 2] up to a few ulps.
    """

    def __init__(self, client_ids: tuple[int, ...], normalized: np.ndarray) -> None:
        self.client_ids = client_ids
        self._normalized = normalized
        self._index = {cid: i for i, cid in enumerate(client_ids)}

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._index

    def _rows(self, rows, cols) -> np.ndarray:
        n = self._normalized
        others = n[cols]
        out = np.empty((len(rows), others.shape[0]))
        for k, i in enumerate(rows):
            out[k] = np.abs(n[i] - others).sum(axis=1)
        return out

    def block(self, rows, cols) -> np.ndarray:
        """Distances between the clients `rows` and `cols`, as a matrix."""
        index = self._index
        return self._rows([index[c] for c in rows], [index[c] for c in cols])

    @property
    def values(self) -> np.ndarray:
        """The whole clients x clients table in `client_ids` order, built anew
        on each read: N * N float64 values."""
        return self._rows(range(len(self.client_ids)), slice(None))

    def to_dict(self) -> dict:
        return {"client_ids": list(self.client_ids), "values": self.values.tolist()}


class SimilarityOracle:
    """Collects one class-count submission per expected client."""

    def __init__(self, expected_client_ids, num_classes: int) -> None:
        ids = [int(c) for c in expected_client_ids]
        self._expected = frozenset(ids)
        if len(self._expected) != len(ids):
            raise ValueError("expected client ids must be unique")
        if num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {num_classes}")
        self._num_classes = num_classes
        self._counts: dict[int, np.ndarray] = {}

    def submit(self, submission: ClassCountSubmission) -> None:
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
        if cid in self._counts:
            raise ValueError(f"client {cid} already submitted")
        self._counts[cid] = counts

    def compute_matrix(self) -> HistogramDistances:
        """The distances between every expected client, once all submitted."""
        ids = tuple(sorted(self._expected))
        missing = [c for c in ids if c not in self._counts]
        if missing:
            raise ValueError(f"missing submissions from clients {missing}")
        normalized = np.stack([self._counts[c] / self._counts[c].sum() for c in ids])
        return HistogramDistances(ids, normalized)
