"""Two-block dense classifier with a splittable parameter layout.

The network is `inputs -> tanh(x W1 + b1) -> softmax(h W2 + b2)`. The first
affine layer plus nonlinearity form the *feature block*, the second affine
layer plus softmax the *classifier block*. The two blocks can be detached,
trained on different machines and recombined, which is what the offloading
strategies in the engine rely on.

Every array may carry a leading cohort axis: a model whose arrays have shapes
(K, input_dim, hidden_dim), (K, hidden_dim), (K, hidden_dim, num_classes) and
(K, num_classes), trained on batches of shape (K, batch, input_dim), is K
independent models stepped in lockstep. Each of the K slices comes out
bitwise equal to training that model alone, because every product is a
per-slice matmul and every reduction runs over the same axis in the same
order as in the unstacked case.

`forward`, `backward_full`, `backward_frozen` and `sgd_step` allocate their
results and are the reference. Training runs `sgd_step_in_place` instead,
on a stack laid out as one flat block (`on_block`, `PartitionedModel.copy`)
only, so a model trains alone as a stack of one: a `Workspace` holds every
intermediate of a step for the entire stack of a lockstep call, in new
arrays or in an `Arena`'s, which keeps them for the next call, and each
step writes into it with `out=` and updates the parameters in place, with
the same ufuncs on the same operands in the same order, so the bytes are
those of the reference. The parameters move, and are pulled toward a
FedProx anchor, over ranges of the flat block, one range where every row
moves both blocks: elementwise, each entry meets the same operands in the
same ufuncs however the block is cut. The layouts differ
where that saves numpy a small loop per sample: the activations, their
gradient and the logits are kept samples first, (batch, k, features), so
that adding a bias and summing over the samples run over entire rows, and
the softmax runs class-major, in a (classes, batch, k) copy of the logits,
so that each reduction over the classes is a few ufunc calls on entire rows
of k * batch values: the max is exact in any order, and the sum adds the
rows in numpy's own pairwise order for a contiguous axis (`_class_sum`).
A step on k rows runs the last k rows of the stack, so rows can join the
front of the stack later, and its intermediates fill the start of each
workspace buffer, so they are entire arrays whatever k is. Its mode is one
pair (f, c) of row counts: the first min(f, k) running rows move the
feature block and the last min(c, k) move the classifier. So full,
classifier-only and donated rows step side by side, a row that does not
move keeps its bytes, and one pair serves every step of a stack of n rows:
(n, n) is a full step, (0, n) classifier-only and (n, 0) a donated step.

All arithmetic is float64.
"""

from __future__ import annotations

import errno
import math
import mmap
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Raised when array dimensions do not line up."""


class DivergenceError(ValueError):
    """Raised when a step would make a parameter non-finite; no parameter has moved."""


@dataclass
class Batch:
    """A mini-batch of training data.

    Attributes:
        inputs: float array of shape (..., batch, input_dim).
        labels: int array of shape (..., batch) with values in
            [0, num_classes).
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.inputs.ndim < 2:
            raise ShapeError(
                f"batch inputs must be at least 2-D, got shape {self.inputs.shape}"
            )
        if self.labels.ndim != self.inputs.ndim - 1:
            raise ShapeError(
                f"batch labels must have one axis less than inputs, got shapes "
                f"{self.labels.shape} and {self.inputs.shape}"
            )
        if self.inputs.shape[:-1] != self.labels.shape:
            raise ShapeError(
                f"batch size mismatch: inputs {self.inputs.shape[:-1]} vs "
                f"labels {self.labels.shape}"
            )
        if self.labels.shape[-1] < 1:
            raise ShapeError("batch must contain at least one sample")


@dataclass
class FeatureBlock:
    weights: np.ndarray  # (..., input_dim, hidden_dim)
    bias: np.ndarray  # (..., hidden_dim)


@dataclass
class ClassifierBlock:
    weights: np.ndarray  # (..., hidden_dim, num_classes)
    bias: np.ndarray  # (..., num_classes)


@dataclass
class PartitionedModel:
    """Dense two-block classifier parameters.

    `block`, where it is set, is the flat array whose consecutive views the
    four arrays are, in order (see `on_block`); `sgd_step_in_place` trains
    only such a stack, and moves its parameters over ranges of the block.
    Only `on_block` sets it, and so `copy` and `merge`, which lay their
    model out on one: a model built from arrays, by `dataclasses.replace`
    or by `pickle` has none, since its arrays need not be views of one block.
    """

    feature_weights: np.ndarray
    feature_bias: np.ndarray
    classifier_weights: np.ndarray
    classifier_bias: np.ndarray
    num_classes: int
    block: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def input_dim(self) -> int:
        return self.feature_weights.shape[-2]

    @property
    def hidden_dim(self) -> int:
        return self.feature_weights.shape[-1]

    @property
    def size(self) -> int:
        """The number of parameters, over every row of a stack."""
        return sum(a.size for a in self.arrays())

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.feature_weights,
            self.feature_bias,
            self.classifier_weights,
            self.classifier_bias,
        )

    def __getstate__(self) -> dict:
        return {**vars(self), "block": None}

    def copy(self, into: np.ndarray | None = None) -> "PartitionedModel":
        """A copy laid out as one block: the start of the flat `into`, or a new array."""
        arrays = self.arrays()
        block = np.empty(self.size) if into is None else into[: self.size]
        copy = on_block(block, [a.shape for a in arrays], self.num_classes)
        for out, a in zip(copy.arrays(), arrays):
            np.copyto(out, a)
        return copy


def on_block(block: np.ndarray, shapes, num_classes: int) -> PartitionedModel:
    """A model whose four arrays, of `shapes`, are consecutive views of the
    start of the flat array `block`, which holds no other value."""
    views, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(block[pos : pos + size].reshape(shape))
        pos += size
    model = PartitionedModel(*views, num_classes=num_classes)
    model.block = block[:pos]
    return model


class Arena:
    """Named flat arrays kept from one use to the next.

    `get` returns a view of the given shape over the start of the array of
    that name, made anew when it is too small and never shrunk, so what one
    use leaves there the next overwrites. Whatever is built on an arena's
    arrays is the arena's until its next use. Each array is mapped on pages
    of its own, twice the size asked for: a page counts in memory only once
    written, so the unused half costs none, and the pages go back to the
    system as soon as no array uses them, leaving no hole in the heap.
    """

    def __init__(self) -> None:
        self._arrays: dict = {}

    def get(self, name, shape, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        array = self._arrays.get(name)
        if array is None or array.size < size:
            self._arrays.pop(name, None)
            dtype = np.dtype(dtype)
            try:
                pages = mmap.mmap(-1, 2 * size * dtype.itemsize or 1)
            except OSError as exc:
                if exc.errno != errno.ENOMEM:
                    raise
                raise MemoryError(f"cannot map {2 * size} x {dtype} for {name!r}") from exc
            array = self._arrays[name] = np.frombuffer(pages, dtype, 2 * size)
        return array[:size].reshape(shape)


def scratch(arena: Arena | None, name, shape, dtype=np.float64) -> np.ndarray:
    """`arena`'s array `name` as `shape` (see `Arena.get`), or a new array."""
    return np.empty(shape, dtype) if arena is None else arena.get(name, shape, dtype)


@dataclass
class Gradients:
    """Per-block gradients. Feature gradients are None from `backward_frozen`."""

    feature_weights: np.ndarray | None
    feature_bias: np.ndarray | None
    classifier_weights: np.ndarray
    classifier_bias: np.ndarray


def init_model(input_dim: int, hidden_dim: int, num_classes: int, seed: int) -> PartitionedModel:
    """Create a model with uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] init.

    Biases use the same interval as their layer's weights.
    """
    if input_dim < 1 or hidden_dim < 1 or num_classes < 2:
        raise ValueError(
            f"invalid dimensions: input_dim={input_dim} hidden_dim={hidden_dim} "
            f"num_classes={num_classes}"
        )
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(input_dim)
    bound2 = 1.0 / np.sqrt(hidden_dim)
    return PartitionedModel(
        feature_weights=rng.uniform(-bound1, bound1, size=(input_dim, hidden_dim)),
        feature_bias=rng.uniform(-bound1, bound1, size=hidden_dim),
        classifier_weights=rng.uniform(-bound2, bound2, size=(hidden_dim, num_classes)),
        classifier_bias=rng.uniform(-bound2, bound2, size=num_classes),
        num_classes=num_classes,
    )


def _check_batch(model: PartitionedModel, batch: Batch) -> None:
    if batch.inputs.shape[-1] != model.input_dim:
        raise ShapeError(
            f"batch input_dim {batch.inputs.shape[-1]} does not match model "
            f"input_dim {model.input_dim}"
        )
    if batch.labels.min() < 0 or batch.labels.max() >= model.num_classes:
        raise ValueError(
            f"labels must lie in [0, {model.num_classes}), got range "
            f"[{batch.labels.min()}, {batch.labels.max()}]"
        )


def forward_logits(
    model: PartitionedModel, batch: Batch, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Run the network up to the softmax: (hidden activations, logits).

    `forward` takes its logits from here, so anything read off these is
    bitwise what `forward` computes. The in-place adds and tanh are the
    same ufuncs on the same operands as their allocating forms, and so are
    the products into `out`, a pair of C-contiguous arrays of the results'
    shapes, when it is given.
    """
    _check_batch(model, batch)
    hidden, logits = (None, None) if out is None else out
    hidden = np.matmul(batch.inputs, model.feature_weights, out=hidden)
    hidden += model.feature_bias[..., None, :]
    np.tanh(hidden, out=hidden)
    logits = np.matmul(hidden, model.classifier_weights, out=logits)
    logits += model.classifier_bias[..., None, :]
    return hidden, logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Turn C-contiguous logits into class probabilities over the last axis,
    in place, and return them."""
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=logits)
    np.exp(logits, out=logits)
    np.divide(logits, logits.sum(axis=-1, keepdims=True), out=logits)
    return logits


def forward(model: PartitionedModel, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Run the network and return (hidden activations, class probabilities)."""
    hidden, logits = forward_logits(model, batch)
    return hidden, softmax(logits)


def _classifier_grads(
    hidden: np.ndarray, probs: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    batch = labels.shape[-1]
    # Subtracting the one-hot labels takes exactly 1.0 off each picked
    # probability and leaves every other entry as it is (x - 0.0 == x).
    dlogits = probs - (labels[..., None] == np.arange(probs.shape[-1]))
    dlogits /= batch
    return np.swapaxes(hidden, -1, -2) @ dlogits, dlogits.sum(axis=-2), dlogits


def backward_full(model: PartitionedModel, batch: Batch) -> Gradients:
    """Gradients of the mean cross entropy for every parameter."""
    hidden, probs = forward(model, batch)
    d_w2, d_b2, dlogits = _classifier_grads(hidden, probs, batch.labels)
    dhidden = dlogits @ np.swapaxes(model.classifier_weights, -1, -2)
    dpre = dhidden * (1.0 - hidden * hidden)
    return Gradients(
        feature_weights=np.swapaxes(batch.inputs, -1, -2) @ dpre,
        feature_bias=dpre.sum(axis=-2),
        classifier_weights=d_w2,
        classifier_bias=d_b2,
    )


def backward_frozen(model: PartitionedModel, batch: Batch) -> Gradients:
    """Classifier gradients only; the feature block is treated as constant."""
    hidden, probs = forward(model, batch)
    d_w2, d_b2, _ = _classifier_grads(hidden, probs, batch.labels)
    return Gradients(
        feature_weights=None,
        feature_bias=None,
        classifier_weights=d_w2,
        classifier_bias=d_b2,
    )


def sgd_step(model: PartitionedModel, grads: Gradients, lr: float) -> PartitionedModel:
    """Return a new model moved one SGD step along the given gradients.

    Blocks without gradients are carried over unchanged. Raises
    DivergenceError if a moved parameter comes out non-finite, whether from
    a non-finite gradient or from `lr * g` or `p - lr * g` overflowing.
    """
    gradients = (
        grads.feature_weights,
        grads.feature_bias,
        grads.classifier_weights,
        grads.classifier_bias,
    )
    new = [p.copy() if g is None else p - lr * g for p, g in zip(model.arrays(), gradients)]
    for p, g in zip(new, gradients):
        if g is not None and not np.isfinite(p).all():
            raise DivergenceError("non-finite gradient values")
    return PartitionedModel(*new, num_classes=model.num_classes)


class Workspace:
    """Buffers for in-place SGD steps of one stack.

    A lockstep call makes one workspace and runs every step in it: the
    hidden activations and their gradient, the logits (which end as their
    gradient), a class-major copy of the logits in which the softmax runs,
    one value and one index per sample, the four gradient arrays and the
    proximal differences, all sized for the entire stack. The first four,
    the activations, are consecutive views of one flat array, in that
    order, whose start `engine.evaluate_accuracy` reuses once training is
    done. The gradient arrays are consecutive views of one flat block, laid
    out as `on_block` lays out a stack, and so are the differences. Row i
    of the stack is row i of the gradient arrays and the differences; the
    other buffers serve the running rows of a step from their start. A step
    on a batch of k rows runs the last k rows of the stack and moves each
    block on a range of those (see `sgd_step_in_place`); the views of each
    such layout are made once and kept. The buffers are new arrays, or
    views of `arena`'s, which the workspace then holds until the arena's
    next use. A model without exactly one leading axis raises ShapeError.
    """

    def __init__(
        self, model: PartitionedModel, batch_size: int, arena: Arena | None = None
    ) -> None:
        lead = model.feature_weights.shape[:-2]
        if len(lead) != 1:
            raise ShapeError(f"a workspace serves one stack, got leading axes {lead}")
        self.stack = lead[0]
        samples = self.stack * batch_size
        self.batch_size = batch_size
        shapes, params = [a.shape for a in model.arrays()], model.size

        def empty(name, size, dtype=np.float64):
            return scratch(arena, name, (size,), dtype)

        places = empty("places", samples, np.intp)
        np.copyto(places, np.arange(samples))
        hidden, logits = samples * model.hidden_dim, samples * model.num_classes
        activations = empty("activations", 2 * (hidden + logits))
        self._buffers = (
            # Samples first, (batch, k, features) for a step on k rows.
            activations[:hidden],
            activations[hidden : 2 * hidden],
            activations[2 * hidden : 2 * hidden + logits],
            # The class-major block, (classes, batch, k) for a step on k rows.
            activations[2 * hidden + logits :],
            empty("values", samples),  # each sample's max, then its sum
            empty("picks", samples, np.intp),  # where each sample's label's entry lies
            places,  # each sample's place in a class's row of the block
            on_block(empty("grads", params), shapes, model.num_classes),
            on_block(empty("diffs", params), shapes, model.num_classes),
        )
        self._views: dict[tuple, _StepViews] = {}

    def views(self, batch: Batch, mode: tuple[int, int]) -> _StepViews:
        """The rows and buffer views of one step on `batch` under `mode`."""
        labels = batch.labels
        if labels.ndim != 2 or labels.shape[-1] != self.batch_size:
            raise ShapeError(
                f"a workspace for a stack of {self.stack} and batches of "
                f"{self.batch_size} cannot train on labels of shape {labels.shape}"
            )
        k = labels.shape[0]
        views = self._views.get((k, mode))
        if views is None:
            views = self._views[(k, mode)] = _StepViews(self._buffers, k, mode)
        return views


def _ranges(arrays, rows) -> list[slice]:
    """The ranges of a stack's flat block that hold the rows `rows[i]`, a
    slice, of each of `arrays`, the stack's four arrays on the block in
    order (see `on_block`); ranges that meet are joined into one."""
    ranges, pos = [], 0
    for a, r in zip(arrays, rows):
        row = a.size // len(a)
        if r.start < r.stop:
            lo, hi = pos + r.start * row, pos + r.stop * row
            if ranges and ranges[-1].stop == lo:
                lo = ranges.pop().start
            ranges.append(slice(lo, hi))
        pos += a.size
    return ranges


class _StepViews:
    """Which rows of a stack of n one step runs and moves, and the buffers' views.

    The step runs the last k rows (`run`). In `mode` (f, c) the first
    min(f, k) of those move the feature block (`feature`) and the last
    min(c, k) the classifier; the rows in both ranges take full steps.
    `moved` holds the ranges of the stack's flat block whose
    parameters the step moves, and `pulled` those of the full steps' rows,
    whose gradients a FedProx anchor pulls on: each array's rows are one
    range of the block, and ranges that meet are joined, so a step where
    every row moves both blocks moves one range, all of the block. The
    gradients and the differences are laid out as the stack, so the same
    ranges cut them. The other buffers serve the k running rows from their
    start, the activations and logits as (batch, k, features).
    """

    def __init__(self, buffers: tuple, k: int, mode: tuple[int, int]) -> None:
        hidden, dhidden, logits, block, values, picks, places, grads, diffs = buffers
        n = grads.feature_weights.shape[0]
        batch, classes = values.size // n, logits.size // values.size
        if not 1 <= k <= n:
            raise ShapeError(f"{k} members do not fit a stack of {n}")
        f, c = mode
        if f < 0 or c < 0:
            raise ValueError(f"training mode {mode!r} has a negative row count")
        f, c = min(f, k), min(c, k)
        lo = n - k
        self.run, self.feature, classifier = slice(lo, n), slice(lo, lo + f), slice(n - c, n)
        arrays = grads.arrays()
        self.moved = _ranges(arrays, (self.feature,) * 2 + (classifier,) * 2)
        self.pulled = _ranges(arrays, (slice(n - c, lo + f),) * 4)
        self.flat = (grads.block, diffs.block)
        # The feature rows as rows of the batch.
        self.feature_inputs = slice(0, f)
        samples = k * batch
        # Every buffer serves the running rows from its start, so each of
        # their views is an entire array for every k.
        hidden, dhidden, logits, block = (
            b[: samples * (b.size // values.size)] for b in (hidden, dhidden, logits, block)
        )
        # The running rows' logits, free while the softmax runs, hold the
        # class sum's partial sums.
        self.softmax = (
            block.reshape(classes, batch, k),
            block.reshape(classes, samples),
            logits.reshape(classes, samples),
            values[:samples],
        )
        self.logit_rows = logits.reshape(batch, k * classes)
        hidden, dhidden, logits = (b.reshape(batch, k, -1) for b in (hidden, dhidden, logits))
        self.running = (hidden, logits)
        # The flat block, and where each sample's label's entry lies in it.
        self.onehot = (
            block,
            picks[:samples].reshape(k, batch),
            places[:samples].reshape(batch, k).T,
        )
        # Empty where no row moves the block.
        c_rows, f_rows = (g[classifier] for g in arrays[2:]), (g[self.feature] for g in arrays[:2])
        self.classifier_views = (hidden[:, k - c :], logits[:, k - c :], *c_rows) if c else ()
        self.feature_views = (hidden[:, :f], dhidden[:, :f], logits[:, :f], *f_rows) if f else ()


def _class_sum(terms: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the sum of `terms` over its first axis into `out`, bitwise as
    `np.add.reduce` sums a contiguous axis of that many terms.

    Each add is one ufunc call on entire rows, so a class-major block sums
    over its classes in a few calls instead of one small loop per sample.
    numpy's order is pairwise: fewer than 8 terms add one after another;
    up to 128 go into eight running sums, r0..r7, one for every eighth
    term, which combine as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    before the terms past the last block of eight add one after another;
    more than 128 are the sum of two halves, split at a multiple of 8.
    numpy starts from 0.0 and this from the first term, which differs only
    where every term is -0.0: the sum is then -0.0 here and 0.0 there (the
    terms of a softmax sum to 1 or more). `scratch` holds the partial sums,
    in as many rows of `out`'s shape as there are terms (12 rows plus one
    per halving at most), and overlaps neither `terms` nor `out`.
    """
    n = len(terms)
    if n < 8:
        np.copyto(out, terms[0])
        for term in terms[1:]:
            np.add(out, term, out=out)
        return
    if n > 128:
        half = n // 2
        half -= half % 8
        _class_sum(terms[:half], scratch[-1], scratch[:-1])
        _class_sum(terms[half:], out, scratch[:-1])
        np.add(scratch[-1], out, out=out)
        return
    full = n - n % 8
    if full > 8:
        sums = scratch[:8]
        np.add(terms[:8], terms[8:16], out=sums)
        for i in range(16, full, 8):
            np.add(sums, terms[i : i + 8], out=sums)
        pairs, halves = scratch[8:12], sums[:2]
    else:
        sums, pairs, halves = terms[:8], scratch[:4], scratch[4:6]
    np.add(sums[0::2], sums[1::2], out=pairs)
    np.add(pairs[0::2], pairs[1::2], out=halves)
    np.add(halves[0], halves[1], out=out)
    for term in terms[full:]:
        np.add(out, term, out=out)


def sgd_step_in_place(
    model: PartitionedModel,
    batch: Batch,
    workspace: Workspace,
    lr: float,
    mode: tuple[int, int],
    prox_mu: float = 0.0,
    anchor: PartitionedModel | None = None,
) -> None:
    """One SGD step that writes the new parameters into `model`'s arrays.

    `model` is the stack that `workspace` serves, laid out as one block
    (`on_block`), and a batch of k rows runs its last k models; any other
    model raises ShapeError before any parameter moves. `mode` is a
    pair (f, c) of row counts: the first min(f, k) of the k rows move their
    feature block, with full gradients and a fixed classifier (a donated
    block), and the last min(c, k) move their classifier only, as with
    `backward_frozen`; a row in both takes a full step, as
    `sgd_step(model, backward_full(model, batch), lr)`. So on a stack of n
    rows (n, n) is a full step, (0, n) classifier-only and (n, 0) a donated
    step, whatever k is, and one step can train full, classifier-only and
    donated rows side by side. A negative count raises ValueError. A
    nonzero `prox_mu` adds `prox_mu * (p - anchor)` to each gradient of the
    rows that take full steps; the anchor is then a stack with the model's
    rows, laid out as one block, or the step raises ShapeError.

    Every intermediate lives in `workspace`, and each entry is computed
    with the ufunc, operands and order of the allocating functions above,
    so the new parameters are bitwise theirs. The activations and logits
    are kept samples first, so the bias adds and the bias gradients' sums
    over the samples, in order, run over entire rows, and the products read
    them as the same matrices with a longer row stride (BLAS's leading
    dimension), which moves no bit of a product. The softmax and its
    gradient run class-major, in a (classes, batch, k) copy of the logits:
    the max over the classes is exact in any order, the sum over them
    follows numpy's pairwise order (`_class_sum`), and the one-hot labels
    come off as 1.0 subtracted at each sample's label; the gradient then
    goes back to the logits that the products read. The classifier
    gradients are computed for the rows that move the classifier only, and
    the backward pass through the feature block for the rows that move it
    only. The pull and the move then run over the ranges of the flat
    block that the step's rows cover (`_StepViews`): the new parameters
    are computed into the gradient buffer and checked to be finite before
    any parameter moves, so a non-finite gradient and an overflow of
    `lr * g` or `p - lr * g` both raise DivergenceError.
    """
    _check_batch(model, batch)
    if model.feature_weights.shape[:-2] != (workspace.stack,):
        raise ShapeError(
            f"a workspace for a stack of {workspace.stack} cannot train a model of"
            f" shape {model.feature_weights.shape}"
        )
    if model.block is None:
        raise ShapeError("training takes a stack laid out as one block (see on_block)")
    views = workspace.views(batch, mode)
    pull = prox_mu != 0.0 and bool(views.pulled)
    if pull and anchor is None:
        raise ValueError("proximal training requires an anchor model")
    if pull and (
        anchor.block is None
        or anchor.block.shape != model.block.shape
        or anchor.feature_weights.shape != model.feature_weights.shape
    ):
        raise ShapeError("the anchor must be a stack with the model's rows, on one block")
    params = model.arrays()
    fw, fb, cw, cb = (a[views.run] for a in params)
    hidden, logits = views.running
    by_class, terms, partials, values = views.softmax
    inputs = batch.inputs
    np.matmul(inputs, fw, out=hidden.swapaxes(0, 1))
    np.add(hidden, fb, out=hidden)
    np.tanh(hidden, out=hidden)
    np.matmul(hidden.swapaxes(0, 1), cw, out=logits.swapaxes(0, 1))
    # The running rows' biases are one contiguous run of k * classes values,
    # so the add runs over entire rows of the samples-first logits.
    logit_rows = views.logit_rows
    np.add(logit_rows, cb.reshape(-1), out=logit_rows)
    np.copyto(by_class, logits.transpose(2, 0, 1))
    # Only a max that ties +0.0 with -0.0 or is NaN can differ from the
    # reference's, in its sign or its NaN payload: exp(+-0.0) is 1 either
    # way, and a NaN fails the finite check before any parameter moves.
    np.maximum.reduce(terms, axis=0, out=values)
    np.subtract(terms, values, out=terms)
    np.exp(terms, out=terms)
    _class_sum(terms, values, partials)
    # From here on the block holds the probabilities, then their gradient.
    np.divide(terms, values, out=terms)
    # Subtracting the one-hot labels takes exactly 1.0 off each label's
    # probability and leaves every other entry as it is (x - 0.0 == x).
    # The labels were checked to lie in range: a negative one would wrap.
    flat, picks, places = views.onehot
    np.multiply(batch.labels, picks.size, out=picks)
    np.add(picks, places, out=picks)
    flat[picks] -= 1.0
    np.divide(terms, batch.labels.shape[-1], out=terms)
    np.copyto(logits, by_class.transpose(1, 2, 0))
    if views.classifier_views:
        # Before the feature rows' `hidden` turns into the tanh derivative.
        c_hidden, c_logits, g_cw, g_cb = views.classifier_views
        np.matmul(c_hidden.transpose(1, 2, 0), c_logits.swapaxes(0, 1), out=g_cw)
        np.add.reduce(c_logits, axis=0, out=g_cb)
    if views.feature_views:
        f_hidden, dhidden, f_logits, g_fw, g_fb = views.feature_views
        f_cw, f_inputs = params[2][views.feature], inputs[views.feature_inputs]
        np.matmul(f_logits.swapaxes(0, 1), f_cw.swapaxes(-1, -2), out=dhidden.swapaxes(0, 1))
        # hidden -> 1 - hidden**2, the tanh derivative; dhidden -> dpre.
        np.multiply(f_hidden, f_hidden, out=f_hidden)
        np.subtract(1.0, f_hidden, out=f_hidden)
        np.multiply(dhidden, f_hidden, out=dhidden)
        np.matmul(f_inputs.swapaxes(-1, -2), dhidden.swapaxes(0, 1), out=g_fw)
        np.add.reduce(dhidden, axis=0, out=g_fb)
    # Each range of the flat block moves as one array: elementwise, each
    # entry meets the same operands in the same ufuncs however it is cut.
    grads, diffs = views.flat
    block = model.block
    if pull:
        for rows in views.pulled:
            g, diff = grads[rows], diffs[rows]
            np.subtract(block[rows], anchor.block[rows], out=diff)
            np.multiply(prox_mu, diff, out=diff)
            np.add(g, diff, out=g)
    moves = [(grads[rows], block[rows]) for rows in views.moved]
    for g, p in moves:
        # g -> p - lr * g, bitwise the new parameter, checked before any moves.
        np.multiply(g, lr, out=g)
        np.subtract(p, g, out=g)
    for g, _ in moves:
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient values")
    for g, p in moves:
        np.copyto(p, g)


def split(model: PartitionedModel) -> tuple[FeatureBlock, ClassifierBlock]:
    """Detach the two blocks as independent copies."""
    return (
        FeatureBlock(model.feature_weights.copy(), model.feature_bias.copy()),
        ClassifierBlock(model.classifier_weights.copy(), model.classifier_bias.copy()),
    )


def merge(feature: FeatureBlock, classifier: ClassifierBlock) -> PartitionedModel:
    """Recombine two blocks into a model laid out as one new block, which
    shares no memory with either; inverse of split()."""
    if feature.weights.shape[-1] != classifier.weights.shape[-2]:
        raise ShapeError(
            f"hidden dim mismatch: feature block has {feature.weights.shape[-1]}, "
            f"classifier block expects {classifier.weights.shape[-2]}"
        )
    blocks = (feature.weights, feature.bias, classifier.weights, classifier.bias)
    return PartitionedModel(*blocks, num_classes=classifier.weights.shape[-1]).copy()
