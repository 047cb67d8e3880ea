"""A hand-written distance table, for tests that give `build_schedule` chosen
distances. It answers `client_ids`, `in` and `block` as
`fedsim.similarity.HistogramDistances` does, from a dense matrix."""

import numpy as np


class DistanceTable:
    def __init__(self, values, client_ids) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self.client_ids = tuple(client_ids)
        self._index = {cid: i for i, cid in enumerate(self.client_ids)}

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._index

    def block(self, rows, cols) -> np.ndarray:
        index = self._index
        return self.values[[index[c] for c in rows]][:, [index[c] for c in cols]]
