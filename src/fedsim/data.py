"""Synthetic datasets and client partitioning.

The dataset is a mixture of per-class Gaussian clusters whose means sit on a
unit-spacing grid in the first one or two input dimensions (remaining
dimensions carry noise only). Partitioning supports an IID mode, where every
client's class histogram matches the global one up to integer rounding, and a
label-skew mode where each client holds samples from exactly k classes.

A partition is a function of the dataset, the client count, the mode, the
sizes and the seed. Only two kinds of draw fix its random stream, in this
order: one permutation of each class's training samples, class by class,
then, in label-skew mode, one draw of k classes per client in id order
(all of them again on each retry). Everything else is arithmetic on whole
arrays: every apportionment (the client quotas, the IID deal of each class,
the split of a quota over k classes) is one largest-remainder call, every
class's deal is written into one (owner, sample) pair per dealt sample, and
one sort orders every client's samples.
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
    # In place, with no temporary of the dataset's size: each class is one
    # block of rows, and sigma * z + mean is bitwise mean + sigma * z.
    inputs = rng.standard_normal((labels.shape[0], input_dim))
    inputs *= noise_sigma
    inputs.reshape(num_classes, samples_per_class, input_dim)[...] += means[:, None]

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
        weights = np.ones(num_clients)
    else:
        weights = [float(w) for w in sizes]
        if len(weights) != num_clients:
            raise PartitionError(
                f"sizes list has {len(weights)} entries for {num_clients} clients"
            )
        if any(w <= 0 for w in weights):
            raise PartitionError("size weights must be positive")
    return _largest_remainder(np.asarray(weights, dtype=np.float64), total).tolist()


def _largest_remainder(weights: np.ndarray, totals) -> np.ndarray:
    """Apportion each total proportionally to the weights, summing exactly.

    `totals` is one int or a 1-D array of them; the int64 result has one
    row per total, with one count per weight. In each row the scale is the
    total over the weights' left-to-right sum, each count is the floor of
    weight times scale, and the units still short go one each to the
    largest remainders, the lowest index first among equals.
    """
    totals = np.asarray(totals)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = weights * (totals[..., None] / np.add.accumulate(weights)[-1])
    if not np.isfinite(raw).all():
        math.floor(float(raw[~np.isfinite(raw)][0]))  # raises as int() of it would
    floors = np.floor(raw)
    counts = floors.astype(np.int64)
    # Python slice semantics: a negative shortfall leaves that many units
    # out from the end of the order instead.
    short = totals - counts.sum(axis=-1)
    n = weights.shape[0]
    first = np.where(short < 0, np.maximum(short + n, 0), short)
    rank = np.argsort(np.argsort(floors - raw, axis=-1, kind="stable"), axis=-1)
    return counts + (rank < first[..., None])


def _class_pools(dataset: Dataset, rng: np.random.Generator) -> list[np.ndarray]:
    """Each class's training samples in a random order, class by class."""
    train_labels = dataset.labels[dataset.train_indices]
    return [
        rng.permutation(dataset.train_indices[train_labels == c])
        for c in range(dataset.num_classes)
    ]


def _client_partitions(
    owner: np.ndarray, sample: np.ndarray, num_samples: int, counts: np.ndarray
) -> list[ClientPartition]:
    """Every client's samples, ascending, from an (owner, sample) pair per
    dealt sample and the clients x classes counts. Each client's indices
    and counts are views of one array each.

    Sorting `owner * num_samples + sample` puts every sample in its place;
    the key stays below clients x samples, which int64 holds for any
    dataset that fits in memory.
    """
    indices = np.sort(owner * num_samples + sample) % num_samples
    ends = np.cumsum(counts.sum(axis=1)).tolist()
    return [
        ClientPartition(cid, indices[a:b], counts[cid])
        for cid, (a, b) in enumerate(zip([0, *ends], ends))
    ]


def _partition_iid(
    dataset: Dataset, quotas: list[int], rng: np.random.Generator
) -> list[ClientPartition]:
    num_clients = len(quotas)
    pools = _class_pools(dataset, rng)
    # Each class is dealt in proportion to the quotas, in client order.
    takes = _largest_remainder(
        np.asarray(quotas, dtype=np.float64), [p.shape[0] for p in pools]
    )
    owner = np.repeat(np.tile(np.arange(num_clients), len(pools)), takes.ravel())
    # Class pools smaller than the client count can round a client down to
    # no sample at all, though every quota is at least 1. Each such client,
    # in id order, takes the last sample dealt to the client holding the most
    # (the lowest id among equals), so every client has data to train on.
    # The heap holds (-size, id) of every client with data. A donor holds
    # two or more while a client is empty, so no client that took a sample
    # gives one, and a donor's samples are the ones it was dealt, in order.
    held = takes.sum(axis=0).tolist()
    empty = [cid for cid, h in enumerate(held) if not h]
    if empty:
        by_client = np.argsort(owner, kind="stable")  # each client's in deal order
        last = (np.cumsum(held) - 1).tolist()
        heap = [(-h, cid) for cid, h in enumerate(held) if h]
        heapq.heapify(heap)
        for cid in empty:
            neg_size, donor = heap[0]
            owner[by_client[last[donor]]] = cid
            last[donor] -= 1
            heapq.heapreplace(heap, (neg_size + 1, donor))
            heapq.heappush(heap, (-1, cid))
    sample = np.concatenate(pools)
    cells = owner * dataset.num_classes + dataset.labels[sample]
    counts = np.bincount(cells, minlength=num_clients * dataset.num_classes)
    counts = counts.reshape(num_clients, dataset.num_classes).astype(np.int64, copy=False)
    return _client_partitions(owner, sample, dataset.labels.shape[0], counts)


def _shrink_demand(demand: np.ndarray, available: int) -> np.ndarray:
    """Scale demands down proportionally to `available` while keeping one
    sample per chooser, so the k-nonzero-classes guarantee survives shortage."""
    demand = np.maximum(_largest_remainder(demand.astype(np.float64), available), 1)
    while demand.sum() > available:
        demand[np.argmax(demand)] -= 1
    return demand


def _partition_label_skew(
    dataset: Dataset, k: int, quotas: list[int], rng: np.random.Generator
) -> list[ClientPartition]:
    """Give each client exactly k classes, dealing shared classes round-robin."""
    num_clients, num_classes = len(quotas), dataset.num_classes
    pools = _class_pools(dataset, rng)
    class_sizes = np.array([p.shape[0] for p in pools])

    chosen = np.empty((num_clients, k), dtype=np.int64)
    for attempt in range(MAX_CLASS_DRAW_RETRIES):
        for cid in range(num_clients):
            chosen[cid] = rng.choice(num_classes, size=k, replace=False)
        # Every client must be able to take at least one sample of each of
        # its classes, otherwise its histogram would not have k nonzero rows.
        if (np.bincount(chosen.ravel(), minlength=num_classes) <= class_sizes).all():
            break
    else:
        raise PartitionError(
            f"could not draw feasible class choices for {num_clients} clients with "
            f"{k} classes each after {MAX_CLASS_DRAW_RETRIES} attempts"
        )
    chosen.sort(axis=1)
    rows = np.arange(num_clients)[:, None]
    held = np.zeros((num_clients, num_classes), dtype=bool)
    held[rows, chosen] = True

    # Per-client per-class demand: the quota split as evenly as possible
    # across the client's k classes, in ascending class order.
    demand = np.zeros((num_clients, num_classes), dtype=np.int64)
    demand[rows, chosen] = _largest_remainder(np.ones(k), quotas)
    for c in np.flatnonzero(demand.sum(axis=0) > class_sizes).tolist():
        takers = np.flatnonzero(held[:, c])
        demand[takers, c] = _shrink_demand(demand[takers, c], class_sizes[c])
    # Each client is dealt exactly its demand of each class, so the demand
    # matrix is the clients x classes histogram of the partition.
    wrong = np.flatnonzero(((demand > 0) != held).any(axis=1))
    if wrong.size:
        bad = int(wrong[0])
        raise PartitionError(
            f"client {bad} ended with classes {np.flatnonzero(demand[bad]).tolist()}, "
            f"expected {chosen[bad].tolist()}"
        )

    # Each class is dealt round-robin over its clients in ascending id order:
    # its pool's i-th sample goes to the i-th (sweep, client) pair in
    # sweep-major order, where a client takes part in sweeps 0..demand-1.
    # One sort of a (class, sweep, client) key per pair puts the pairs of
    # every class in that order, class after class. A class's keys span its
    # largest demand times the clients, so every key stays below the train
    # samples times the clients.
    cls, cid = np.nonzero(demand.T)
    takes = demand[cid, cls]
    ends = np.cumsum(takes)
    sweep = np.arange(ends[-1]) - np.repeat(ends - takes, takes)
    span = demand.max(axis=0) * num_clients
    keys = np.repeat((np.cumsum(span) - span)[cls] + cid, takes) + sweep * num_clients
    keys.sort()
    dealt = demand.sum(axis=0).tolist()
    sample = np.concatenate([pool[:d] for pool, d in zip(pools, dealt)])
    return _client_partitions(keys % num_clients, sample, dataset.labels.shape[0], demand)


def partition(
    dataset: Dataset,
    num_clients: int,
    mode: str = "iid",
    classes_per_client: int | None = None,
    sizes=None,
    seed: int = 0,
) -> list[ClientPartition]:
    """Split the training indices across clients.

    The quotas apportion the train split by the weights (largest remainder,
    the weights summed left to right). IID mode deals each class's shuffled
    pool to the clients in proportion to their quotas, in client order; a
    client that rounds down to nothing takes the last sample dealt to the
    client holding the most. Noniid mode draws k classes per client, splits
    each quota evenly over them, scales a class's demands down where its
    pool is short, and deals each class round-robin over its clients in id
    order. The random stream is fixed by the class pools' permutations and
    the per-client class draws alone (see the module docstring).

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
        return _partition_iid(dataset, quotas, rng)
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
        return _partition_label_skew(dataset, k, quotas, rng)
    raise PartitionError(f"unknown partition mode {mode!r}")

