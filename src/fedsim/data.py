"""Synthetic datasets and client partitioning.

The dataset is a mixture of per-class Gaussian clusters whose means sit on a
unit-spacing grid in the first one or two input dimensions (remaining
dimensions carry noise only). Partitioning supports an IID mode, where every
client's class histogram matches the global one up to integer rounding, and a
label-skew mode where each client holds samples from exactly k classes.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .seeding import TAG_DATASET, TAG_PARTITION, spawn_rng

TRAIN_FRACTION = 0.8
MAX_CLASS_DRAW_RETRIES = 20


class PartitionError(ValueError):
    """Raised when a feasible partition cannot be produced."""


@dataclass
class Dataset:
    inputs: np.ndarray  # (n, input_dim) float64
    labels: np.ndarray  # (n,) int64
    num_classes: int
    train_indices: np.ndarray  # (n_train,) int64
    test_indices: np.ndarray  # (n_test,) int64

    @functools.cached_property
    def test_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The held-out inputs and labels, gathered on first use and kept;
        every caller gets the same two arrays, so they are read-only."""
        rows = self.inputs[self.test_indices], self.labels[self.test_indices]
        for a in rows:
            a.flags.writeable = False
        return rows


@dataclass
class ClientPartition:
    client_id: int
    sample_indices: np.ndarray  # indices into Dataset.inputs, disjoint across clients
    class_counts: np.ndarray  # (num_classes,) int64

    @property
    def size(self) -> int:
        return int(self.sample_indices.shape[0])


def class_means(num_classes: int, input_dim: int) -> np.ndarray:
    """Cluster means on a unit-spacing grid.

    With input_dim >= 2 classes are laid out row-major on a square grid in the
    first two dimensions; with input_dim == 1 they sit at 0, 1, 2, ... on the
    single axis. All other coordinates are zero.
    """
    means = np.zeros((num_classes, input_dim))
    if input_dim == 1:
        means[:, 0] = np.arange(num_classes)
    else:
        side = math.ceil(math.sqrt(num_classes))
        for c in range(num_classes):
            means[c, 0] = c % side
            means[c, 1] = c // side
    return means


def generate_synthetic(
    num_classes: int,
    samples_per_class: int,
    input_dim: int,
    seed: int,
    noise_sigma: float = 0.8,
) -> Dataset:
    """Build a balanced Gaussian-cluster dataset with an 80/20 split."""
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if samples_per_class < 1:
        raise ValueError(f"samples_per_class must be >= 1, got {samples_per_class}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")

    rng = spawn_rng(seed, TAG_DATASET)
    means = class_means(num_classes, input_dim)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), samples_per_class)
    inputs = means[labels] + noise_sigma * rng.standard_normal((labels.shape[0], input_dim))

    order = rng.permutation(labels.shape[0])
    n_train = train_count(labels.shape[0])
    return Dataset(
        inputs=inputs,
        labels=labels,
        num_classes=num_classes,
        train_indices=np.sort(order[:n_train]),
        test_indices=np.sort(order[n_train:]),
    )


def train_count(num_samples: int) -> int:
    """Size of the train split of a dataset with `num_samples` samples."""
    return int(round(TRAIN_FRACTION * num_samples))


def client_quotas(total: int, num_clients: int, sizes) -> list[int]:
    """Integer per-client sample targets, either equal or weight-proportional."""
    if sizes is None or (isinstance(sizes, str) and sizes == "equal"):
        weights = [1.0] * num_clients
    else:
        weights = [float(w) for w in sizes]
        if len(weights) != num_clients:
            raise PartitionError(
                f"sizes list has {len(weights)} entries for {num_clients} clients"
            )
        if any(w <= 0 for w in weights):
            raise PartitionError("size weights must be positive")
    return _largest_remainder(weights, total)


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    """Apportion `total` units proportionally to weights, summing exactly."""
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(math.floor(r)) for r in raw]
    short = total - sum(counts)
    remainders = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def _counts_from_assignment(assigned: list, labels: np.ndarray, num_classes: int):
    partitions = []
    for cid, idx in enumerate(assigned):
        arr = np.sort(np.asarray(idx, dtype=np.int64))
        counts = np.bincount(labels[arr], minlength=num_classes).astype(np.int64)
        partitions.append(ClientPartition(cid, arr, counts))
    return partitions


def _partition_iid(
    dataset: Dataset, num_clients: int, quotas: list[int], rng: np.random.Generator
) -> list[ClientPartition]:
    train_labels = dataset.labels[dataset.train_indices]
    assigned: list[list[int]] = [[] for _ in range(num_clients)]
    weights = [float(q) for q in quotas]
    for c in range(dataset.num_classes):
        pool = dataset.train_indices[train_labels == c]
        pool = rng.permutation(pool)
        # Each class is dealt in proportion to the quotas.
        takes = _largest_remainder(weights, pool.shape[0])
        start = 0
        for cid, take in enumerate(takes):
            assigned[cid].extend(pool[start : start + take].tolist())
            start += take
    # Class pools smaller than the client count can round a client down to
    # no sample at all, though every quota is at least 1. Each such client,
    # in id order, takes the last sample dealt to the client holding the most
    # (the lowest id among equals), so every client has data to train on.
    # The heap holds (-size, id) of every client with data; empty clients
    # hold 0 and never win while it has an entry.
    heap = [(-len(a), cid) for cid, a in enumerate(assigned) if a]
    heapq.heapify(heap)
    for cid in range(num_clients):
        if not assigned[cid]:
            neg_size, donor = heap[0]
            assigned[cid].append(assigned[donor].pop())
            heapq.heapreplace(heap, (neg_size + 1, donor))
            heapq.heappush(heap, (-1, cid))
    return _counts_from_assignment(assigned, dataset.labels, dataset.num_classes)


def _draw_class_choices(
    num_clients: int, num_classes: int, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    return [np.sort(rng.choice(num_classes, size=k, replace=False)) for _ in range(num_clients)]


def _deal_round_robin(pool: np.ndarray, demand: list[int]) -> list[np.ndarray]:
    """Each member's share of the pool's first sum(demand) samples, dealt in
    sweeps 0..demand[pos]-1 for member pos: the pool's i-th sample goes to
    the i-th (sweep, member) pair in sweep-major order, found by one sort."""
    owner = np.repeat(np.arange(len(demand)), demand)
    ends = np.cumsum(demand)
    sweep = np.arange(ends[-1]) - np.repeat(ends - demand, demand)
    dealt = np.empty(ends[-1], dtype=pool.dtype)  # member by member
    dealt[np.lexsort((owner, sweep))] = pool[: ends[-1]]
    bounds = [0, *ends.tolist()]
    return [dealt[a:b] for a, b in zip(bounds, bounds[1:])]


def _partition_label_skew(
    dataset: Dataset,
    num_clients: int,
    k: int,
    quotas: list[int],
    rng: np.random.Generator,
) -> list[ClientPartition]:
    """Give each client exactly k classes, dealing shared classes round-robin."""
    train_labels = dataset.labels[dataset.train_indices]
    pools = {
        c: rng.permutation(dataset.train_indices[train_labels == c])
        for c in range(dataset.num_classes)
    }
    class_sizes = {c: pools[c].shape[0] for c in pools}

    for attempt in range(MAX_CLASS_DRAW_RETRIES):
        choices = _draw_class_choices(num_clients, dataset.num_classes, k, rng)
        choosers: dict[int, list[int]] = {c: [] for c in range(dataset.num_classes)}
        for cid, chosen in enumerate(choices):
            for c in chosen:
                choosers[int(c)].append(cid)
        # Every client must be able to take at least one sample of each of
        # its classes, otherwise its histogram would not have k nonzero rows.
        if all(len(choosers[c]) <= class_sizes[c] for c in choosers):
            break
    else:
        raise PartitionError(
            f"could not draw feasible class choices for {num_clients} clients with "
            f"{k} classes each after {MAX_CLASS_DRAW_RETRIES} attempts"
        )

    # Per-client per-class targets: the quota split as evenly as possible
    # across the client's k classes.
    targets: dict[tuple[int, int], int] = {}
    for cid, chosen in enumerate(choices):
        split = _largest_remainder([1.0] * k, quotas[cid])
        for c, t in zip(chosen, split):
            targets[(cid, int(c))] = t

    shares: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(dataset.num_classes):
        clients = choosers[c]
        if not clients:
            continue
        demand = [max(1, targets[(cid, c)]) for cid in clients]
        available = class_sizes[c]
        if sum(demand) > available:
            # Scale demands down proportionally while keeping one sample per
            # chooser, so the k-nonzero-classes guarantee survives shortage.
            scaled = _largest_remainder([float(d) for d in demand], available)
            demand = [max(1, s) for s in scaled]
            while sum(demand) > available:
                demand[int(np.argmax(demand))] -= 1
        # Round-robin deal over competing clients in ascending id order.
        for cid, share in zip(clients, _deal_round_robin(pools[c], demand)):
            shares[cid].append(share)

    assigned = [np.concatenate(parts) for parts in shares]
    partitions = _counts_from_assignment(assigned, dataset.labels, dataset.num_classes)
    for part, chosen in zip(partitions, choices):
        nonzero = np.nonzero(part.class_counts)[0]
        if nonzero.shape[0] != k or not np.array_equal(nonzero, chosen):
            raise PartitionError(
                f"client {part.client_id} ended with classes {nonzero.tolist()}, "
                f"expected {chosen.tolist()}"
            )
    return partitions


def partition(
    dataset: Dataset,
    num_clients: int,
    mode: str = "iid",
    classes_per_client: int | None = None,
    sizes=None,
    seed: int = 0,
) -> list[ClientPartition]:
    """Split the training indices across clients.

    Args:
        dataset: source dataset; only its train split is assigned.
        num_clients: number of partitions to produce.
        mode: "iid" or "noniid".
        classes_per_client: k for the noniid mode; each client holds samples
            from exactly k distinct classes.
        sizes: "equal" (default) or a list of positive per-client weights.
        seed: partition seed, independent from the dataset seed.

    Returns:
        One ClientPartition per client, with pairwise disjoint indices.
    """
    n_train = dataset.train_indices.shape[0]
    if num_clients < 1:
        raise PartitionError(f"num_clients must be >= 1, got {num_clients}")
    if n_train < num_clients:
        raise PartitionError(
            f"cannot split {n_train} training samples across {num_clients} clients"
        )
    quotas = client_quotas(n_train, num_clients, sizes)
    if min(quotas) < 1:
        raise PartitionError("every client needs at least one sample; adjust sizes")
    rng = spawn_rng(seed, TAG_PARTITION)

    if mode == "iid":
        return _partition_iid(dataset, num_clients, quotas, rng)
    if mode == "noniid":
        if classes_per_client is None:
            raise PartitionError("noniid mode requires classes_per_client")
        k = int(classes_per_client)
        if not 1 <= k <= dataset.num_classes:
            raise PartitionError(
                f"classes_per_client must be in [1, {dataset.num_classes}], got {k}"
            )
        if min(quotas) < k:
            raise PartitionError(
                f"smallest client quota {min(quotas)} cannot cover {k} classes"
            )
        return _partition_label_skew(dataset, num_clients, k, quotas, rng)
    raise PartitionError(f"unknown partition mode {mode!r}")

