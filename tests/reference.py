"""Reference functions that only the tests use as oracles: the loss whose
gradients the model's backward pass computes, the distance between two
clients' class histograms that `fedsim.similarity.HistogramDistances`
answers for many pairs at once, and the partitioner as first written, one
Python pass per client, that `fedsim.data.partition` must match bit for bit,
and the aggregations as first written, one member after another, that
`fedsim.engine`'s one reduction over a stack of members must match bit for
bit. Also the mapped OpenBLAS, found as `fedsim.cli` finds it, and the numeric
environment that a model digest's failure message names."""

import ctypes
import heapq
import math
import os

import numpy as np

from fedsim import cli
from fedsim.data import MAX_CLASS_DRAW_RETRIES, ClientPartition, PartitionError
from fedsim.model import PartitionedModel
from fedsim.seeding import TAG_PARTITION, spawn_rng

# Floor applied inside log() so an exactly-zero predicted probability cannot
# produce -inf loss.
LOG_EPS = 1e-12


# What `numeric_environment()` reads on the host where the model digests in
# tests/test_cohort.py were recorded and pass; X86_V4 is numpy's AVX-512
# target. Another numpy build, SIMD target or OpenBLAS kernel can move a
# model's last bits: float64 exp and log follow numpy's dispatch, matmul
# follows the OpenBLAS kernel.
RECORDED_ENVIRONMENT = (
    "numpy 2.4.6, float64 exp and log on X86_V4, OpenBLAS 0.3.31.188.0 with the"
    " SkylakeX kernel"
)


def mapped_openblas():
    """(library, thread-count setter name) of the first OpenBLAS mapped into
    this process that exports a setter `fedsim.cli` knows, found as
    `cli._one_openblas_thread` finds it, or None."""
    try:
        with open(cli._MAPS, encoding="utf-8", errors="replace") as fh:
            paths = dict.fromkeys(line.split(maxsplit=5)[-1].rstrip("\n") for line in fh)
    except OSError:
        return None
    for path in paths:
        if "openblas" in os.path.basename(path):
            lib = ctypes.CDLL(path)
            name = next((n for n in cli._OPENBLAS_SETTERS if hasattr(lib, n)), None)
            if name is not None:
                return lib, name
    return None


def numeric_environment() -> str:
    """numpy's version, the SIMD target its float64 exp and log dispatch to,
    and the version and kernel of the mapped OpenBLAS."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.0
        simd = "an unknown target"
    else:
        found = opt_func_info(func_name="^(exp|log)$", signature="float64")
        simd = "/".join(sorted({t["current"] for sigs in found.values() for t in sigs.values()}))
    blas = "no OpenBLAS found"
    if (mapped := mapped_openblas()) is not None:
        lib, setter = mapped

        def text(getter):
            fn = getattr(lib, setter.replace("set_num_threads", getter))
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()

        blas = f"OpenBLAS {text('get_config').split()[1]} with the {text('get_corename')} kernel"
    return f"numpy {np.__version__}, float64 exp and log on {simd}, {blas}"


def environment_note() -> str:
    """A model digest's failure message: where the digests hold, and this run."""
    return (
        f"model digests recorded under: {RECORDED_ENVIRONMENT}; this run: {numeric_environment()}"
    )


def cross_entropy(probs, labels, proximal=None) -> float:
    """Mean negative log likelihood, optionally plus a proximal penalty.

    Args:
        probs: (batch, num_classes) probabilities from `fedsim.model.forward`.
        labels: (batch,) int class indices.
        proximal: optional (mu, anchor_model, current_model); adds
            (mu / 2) * squared l2 distance between the two parameter sets.
    """
    picked = probs[np.arange(labels.shape[0]), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, LOG_EPS))))
    if proximal is not None:
        mu, anchor, current = proximal
        sq = 0.0
        for a, c in zip(anchor.arrays(), current.arrays()):
            diff = c - a
            sq += float(np.sum(diff * diff))
        loss += 0.5 * mu * sq
    return loss


def histogram_distance(counts_a, counts_b) -> float:
    """L1 distance between normalized histograms of equal length."""
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"histogram length mismatch: {a.shape} vs {b.shape}")
    return float(np.abs(a / a.sum() - b / b.sum()).sum())


def largest_remainder(weights: list[float], total: int) -> list[int]:
    """Apportion `total` units proportionally to weights, summing exactly."""
    scale = total / _left_sum(weights)
    raw = [w * scale for w in weights]
    counts = [int(math.floor(r)) for r in raw]
    short = total - sum(counts)
    remainders = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in remainders[:short]:
        counts[i] += 1
    return counts


def _left_sum(values) -> float:
    # The float sum that `sum` computed before Python 3.12.
    total = 0
    for v in values:
        total += v
    return total


def client_quotas(total: int, num_clients: int, sizes) -> list[int]:
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
    return largest_remainder(weights, total)


def counts_from_assignment(assigned: list, labels: np.ndarray, num_classes: int):
    partitions = []
    for cid, idx in enumerate(assigned):
        arr = np.sort(np.asarray(idx, dtype=np.int64))
        counts = np.bincount(labels[arr], minlength=num_classes).astype(np.int64)
        partitions.append(ClientPartition(cid, arr, counts))
    return partitions


def partition_iid(dataset, num_clients: int, quotas: list[int], rng) -> list[ClientPartition]:
    train_labels = dataset.labels[dataset.train_indices]
    assigned: list[list[int]] = [[] for _ in range(num_clients)]
    weights = [float(q) for q in quotas]
    for c in range(dataset.num_classes):
        pool = dataset.train_indices[train_labels == c]
        pool = rng.permutation(pool)
        takes = largest_remainder(weights, pool.shape[0])
        start = 0
        for cid, take in enumerate(takes):
            assigned[cid].extend(pool[start : start + take].tolist())
            start += take
    # Each empty client, in id order, takes the last sample dealt to the
    # client holding the most (the lowest id among equals).
    heap = [(-len(a), cid) for cid, a in enumerate(assigned) if a]
    heapq.heapify(heap)
    for cid in range(num_clients):
        if not assigned[cid]:
            neg_size, donor = heap[0]
            assigned[cid].append(assigned[donor].pop())
            heapq.heapreplace(heap, (neg_size + 1, donor))
            heapq.heappush(heap, (-1, cid))
    return counts_from_assignment(assigned, dataset.labels, dataset.num_classes)


def deal_round_robin(pool: np.ndarray, demand: list[int]) -> list[np.ndarray]:
    """Each member's share of the pool's first sum(demand) samples, dealt in
    sweeps 0..demand[pos]-1 for member pos, sweep-major."""
    owner = np.repeat(np.arange(len(demand)), demand)
    ends = np.cumsum(demand)
    sweep = np.arange(ends[-1]) - np.repeat(ends - demand, demand)
    dealt = np.empty(ends[-1], dtype=pool.dtype)
    dealt[np.lexsort((owner, sweep))] = pool[: ends[-1]]
    bounds = [0, *ends.tolist()]
    return [dealt[a:b] for a, b in zip(bounds, bounds[1:])]


def partition_label_skew(dataset, num_clients: int, k: int, quotas: list[int], rng):
    train_labels = dataset.labels[dataset.train_indices]
    pools = {
        c: rng.permutation(dataset.train_indices[train_labels == c])
        for c in range(dataset.num_classes)
    }
    class_sizes = {c: pools[c].shape[0] for c in pools}

    for attempt in range(MAX_CLASS_DRAW_RETRIES):
        choices = [
            np.sort(rng.choice(dataset.num_classes, size=k, replace=False))
            for _ in range(num_clients)
        ]
        choosers: dict[int, list[int]] = {c: [] for c in range(dataset.num_classes)}
        for cid, chosen in enumerate(choices):
            for c in chosen:
                choosers[int(c)].append(cid)
        if all(len(choosers[c]) <= class_sizes[c] for c in choosers):
            break
    else:
        raise PartitionError(
            f"could not draw feasible class choices for {num_clients} clients with "
            f"{k} classes each after {MAX_CLASS_DRAW_RETRIES} attempts"
        )

    targets: dict[tuple[int, int], int] = {}
    for cid, chosen in enumerate(choices):
        split = largest_remainder([1.0] * k, quotas[cid])
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
            scaled = largest_remainder([float(d) for d in demand], available)
            demand = [max(1, s) for s in scaled]
            while sum(demand) > available:
                demand[int(np.argmax(demand))] -= 1
        for cid, share in zip(clients, deal_round_robin(pools[c], demand)):
            shares[cid].append(share)

    assigned = [np.concatenate(parts) for parts in shares]
    partitions = counts_from_assignment(assigned, dataset.labels, dataset.num_classes)
    for part, chosen in zip(partitions, choices):
        nonzero = np.nonzero(part.class_counts)[0]
        if nonzero.shape[0] != k or not np.array_equal(nonzero, chosen):
            raise PartitionError(
                f"client {part.client_id} ended with classes {nonzero.tolist()}, "
                f"expected {chosen.tolist()}"
            )
    return partitions


def partition(dataset, num_clients, mode="iid", classes_per_client=None, sizes=None, seed=0):
    """`fedsim.data.partition` with one Python pass per client."""
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
        return partition_iid(dataset, num_clients, quotas, rng)
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
        return partition_label_skew(dataset, num_clients, k, quotas, rng)
    raise PartitionError(f"unknown partition mode {mode!r}")


def member_rows(models) -> np.ndarray:
    """The models as the aggregations take them: a (members, parameters)
    array whose row k is models[k]'s parameters, flat, in order."""
    return np.stack([np.concatenate([a.ravel() for a in m.arrays()]) for m in models])


def aggregate_fedavg(models, weights) -> PartitionedModel:
    """`fedsim.engine.aggregate_fedavg` on a list of models: each member's
    parameters times its share, added in turn into zeros."""
    total = _left_sum(weights)
    acc = [np.zeros_like(a) for a in models[0].arrays()]
    for model, w in zip(models, weights):
        p = w / total
        for slot, arr in zip(acc, model.arrays()):
            slot += p * arr
    return PartitionedModel(*acc, num_classes=models[0].num_classes)


def aggregate_fednova(global_model, models, weights, local_steps) -> PartitionedModel:
    """`fedsim.engine.aggregate_fednova` on a list of models: each member's
    normalized delta added in turn into zeros, then scaled onto the global
    model."""
    total = _left_sum(weights)
    p = [w / total for w in weights]
    effective = _left_sum(pi * tau for pi, tau in zip(p, local_steps))
    acc = [np.zeros_like(a) for a in global_model.arrays()]
    for model, pi, tau in zip(models, p, local_steps):
        for slot, arr, base in zip(acc, model.arrays(), global_model.arrays()):
            slot += pi * (arr - base) / tau
    merged = [base + effective * slot for base, slot in zip(global_model.arrays(), acc)]
    return PartitionedModel(*merged, num_classes=global_model.num_classes)
