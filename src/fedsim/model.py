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
results and are the reference. Training runs `sgd_step_in_place` instead:
a `Workspace` preallocates every intermediate of a step for the whole stack
of a lockstep call, and each step writes into it with `out=` and updates
the parameters in place, with the same ufuncs on the same operands in the
same order, so the bytes are those of the reference. A step on k rows runs
the last k rows of the stack and of every buffer, so rows can join the
front of the stack later, and it moves the feature block on one range of
those rows and the classifier on another: full, classifier-only and
donated rows step side by side, and a row that does not move keeps its
bytes.

All arithmetic is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Floor applied inside log() so an exactly-zero predicted probability cannot
# produce -inf loss.
LOG_EPS = 1e-12


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
    """Dense two-block classifier parameters."""

    feature_weights: np.ndarray
    feature_bias: np.ndarray
    classifier_weights: np.ndarray
    classifier_bias: np.ndarray
    num_classes: int

    @property
    def input_dim(self) -> int:
        return self.feature_weights.shape[-2]

    @property
    def hidden_dim(self) -> int:
        return self.feature_weights.shape[-1]

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.feature_weights,
            self.feature_bias,
            self.classifier_weights,
            self.classifier_bias,
        )

    def copy(self) -> "PartitionedModel":
        return PartitionedModel(
            self.feature_weights.copy(),
            self.feature_bias.copy(),
            self.classifier_weights.copy(),
            self.classifier_bias.copy(),
            self.num_classes,
        )


@dataclass
class Gradients:
    """Per-block gradients. Feature gradients are None in frozen mode."""

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


def forward_logits(model: PartitionedModel, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Run the network up to the softmax: (hidden activations, logits).

    `forward` takes its logits from here, so anything read off these is
    bitwise what `forward` computes. The in-place adds and tanh are the
    same ufuncs on the same operands as their allocating forms.
    """
    _check_batch(model, batch)
    hidden = batch.inputs @ model.feature_weights
    hidden += model.feature_bias[..., None, :]
    np.tanh(hidden, out=hidden)
    logits = hidden @ model.classifier_weights
    logits += model.classifier_bias[..., None, :]
    return hidden, logits


def forward(model: PartitionedModel, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
    """Run the network and return (hidden activations, class probabilities)."""
    hidden, logits = forward_logits(model, batch)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    return hidden, probs


def cross_entropy(
    probs: np.ndarray,
    labels: np.ndarray,
    proximal: tuple[float, PartitionedModel, PartitionedModel] | None = None,
) -> float:
    """Mean negative log likelihood, optionally plus a proximal penalty.

    Args:
        probs: (batch, num_classes) probabilities from forward().
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
    """Preallocated buffers for in-place SGD steps of one model or one stack.

    A lockstep call makes one workspace and runs every step in it: the
    hidden activations and their gradient, the logits (which become the
    probabilities and then their gradient), each row's max and sum, the
    one-hot label mask, the four gradient arrays and the proximal
    differences, all sized for the whole stack. Row i of every buffer serves
    row i of the stack. A step on a batch of k rows runs the last k rows of
    the stack and moves each block on a range of those (see
    `sgd_step_in_place`); the views of each such layout are made once and
    kept. A lone model is served as a stack of one.
    """

    def __init__(self, model: PartitionedModel, batch_size: int) -> None:
        lead = model.feature_weights.shape[:-2]
        if len(lead) > 1:
            raise ShapeError(f"a workspace serves one model or one stack, got shape {lead}")
        self.stack = lead[0] if lead else None
        rows = (self.stack or 1, batch_size)
        self.batch_size = batch_size
        self.classes = np.arange(model.num_classes)
        shapes = [(rows[0], *a.shape[len(lead) :]) for a in model.arrays()]
        self._buffers = (
            np.empty((*rows, model.hidden_dim)),  # hidden
            np.empty((*rows, model.hidden_dim)),  # dhidden
            np.empty((*rows, model.num_classes)),  # logits
            np.empty((*rows, 1)),  # each row's max, then its sum
            np.empty((*rows, model.num_classes), dtype=bool),  # one-hot labels
            tuple(np.empty(shape) for shape in shapes),  # gradients
            tuple(np.empty(shape) for shape in shapes),  # proximal differences
        )
        self._views: dict[tuple, _StepViews] = {}

    def views(self, batch: Batch, mode: str | tuple[int, int]) -> _StepViews:
        """The rows and buffer views of one step on `batch` under `mode`."""
        labels = batch.labels
        stacked = self.stack is not None
        if labels.shape[-1] != self.batch_size or labels.ndim != 1 + stacked:
            raise ShapeError(
                f"a workspace for {self.stack or 'a lone'} model(s) and batches of "
                f"{self.batch_size} cannot train on labels of shape {labels.shape}"
            )
        k = labels.shape[0] if stacked else 1
        views = self._views.get((k, mode))
        if views is None:
            views = self._views[(k, mode)] = _StepViews(self._buffers, k, mode)
        return views


_WHOLE = slice(None)


def _rows(arrays, rows: slice) -> tuple:
    return tuple(arrays) if rows is _WHOLE else tuple(a[rows] for a in arrays)


class _StepViews:
    """Which rows of a stack of n one step runs and moves, and the buffers' rows.

    The step runs the last k rows. In `mode` (f, c) the first f of those
    move the feature block and the last c move the classifier; the rows in
    both ranges are full steps. "full" is (k, k), "frozen" (0, k) and
    "feature" (k, 0). Each range is a slice of the stack, `_WHOLE` where it
    is every row, so that the usual full step slices nothing.
    """

    def __init__(self, buffers: tuple, k: int, mode: str | tuple[int, int]) -> None:
        hidden, dhidden, logits, reduced, onehot, grads, diffs = buffers
        n = hidden.shape[0]
        if not 1 <= k <= n:
            raise ShapeError(f"{k} members do not fit a stack of {n}")
        if isinstance(mode, str):
            if mode not in ("full", "frozen", "feature"):
                raise ValueError(f"unknown training mode {mode!r}")
            f, c = k * (mode != "frozen"), k * (mode != "feature")
        else:
            f, c = mode
            if not (0 <= f <= k and 0 <= c <= k):
                raise ValueError(f"training mode {mode!r} names rows outside the {k} running")
        lo = n - k

        def span(start: int, stop: int) -> slice | None:
            if start >= stop:
                return None
            return _WHOLE if (start, stop) == (0, n) else slice(start, stop)

        self.run = span(lo, n)
        self.feature = span(lo, lo + f)
        self.classifier = span(n - c, n)
        self.both = span(n - c, lo + f)
        # The feature rows as rows of the batch.
        self.feature_inputs = _WHOLE if f == k else slice(0, f)
        self.running = _rows((hidden, logits, reduced, onehot), self.run)
        if self.classifier is not None:
            self.classifier_views = _rows((hidden, logits, grads[2], grads[3]), self.classifier)
        if self.feature is not None:
            self.feature_views = _rows((hidden, dhidden, logits, grads[0], grads[1]), self.feature)
        if self.both is not None:
            self.both_views = (_rows(grads, self.both), _rows(diffs, self.both))
        # The gradient buffer of each moving parameter and its rows.
        blocks = (self.feature, self.feature, self.classifier, self.classifier)
        self.moving = [
            (i, grads[i] if rows is _WHOLE else grads[i][rows], rows)
            for i, rows in enumerate(blocks)
            if rows is not None
        ]


def sgd_step_in_place(
    model: PartitionedModel,
    batch: Batch,
    workspace: Workspace,
    lr: float,
    mode: str | tuple[int, int] = "full",
    prox_mu: float = 0.0,
    anchor: PartitionedModel | None = None,
) -> None:
    """One SGD step that writes the new parameters into `model`'s arrays.

    Modes: "full" moves both blocks, as `sgd_step(model, backward_full(model,
    batch), lr)`; "frozen" moves the classifier only, as with
    `backward_frozen`; "feature" moves the feature block only, with full
    gradients and a fixed classifier (a donated block). A stacked batch of k
    rows runs the last k models of the stack, and the mode may then be a
    pair (f, c): the first f of those k rows move their feature block, as in
    "feature", and the last c move their classifier, as in "frozen"; a row
    in both takes a full step. So one step can train full, classifier-only
    and donated rows side by side, each as its own mode would. A nonzero
    `prox_mu` adds `prox_mu * (p - anchor)` to each gradient of the rows
    that take full steps; the anchor is one model for every row, or a stack
    of one per row.

    Every intermediate lives in `workspace`, and each is computed with the
    ufunc, operands, order and reduction axis of the allocating functions
    above (`ndarray.max` and `ndarray.sum` are `maximum.reduce` and
    `add.reduce`), so the new parameters are bitwise theirs. The classifier
    gradients are computed for the rows that move the classifier only, and
    the backward pass through the feature block for the rows that move it
    only. The new parameters of both blocks are computed into the gradient
    buffers and checked to be finite before any parameter moves, so a
    non-finite gradient and an overflow of `lr * g` or `p - lr * g` both
    raise DivergenceError.
    """
    _check_batch(model, batch)
    views = workspace.views(batch, mode)
    if prox_mu != 0.0 and views.both is not None and anchor is None:
        raise ValueError("proximal training requires an anchor model")
    if workspace.stack is None:
        model = PartitionedModel(*(a[None] for a in model.arrays()), num_classes=model.num_classes)
        batch = Batch(batch.inputs[None], batch.labels[None])
    params = model.arrays()
    fw, fb, cw, cb = _rows(params, views.run)
    hidden, logits, reduced, onehot = views.running
    inputs = batch.inputs
    np.matmul(inputs, fw, out=hidden)
    np.add(hidden, fb[..., None, :], out=hidden)
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, cw, out=logits)
    np.add(logits, cb[..., None, :], out=logits)
    np.maximum.reduce(logits, axis=-1, keepdims=True, out=reduced)
    np.subtract(logits, reduced, out=logits)
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=-1, keepdims=True, out=reduced)
    # From here on `logits` holds the probabilities, then their gradient.
    np.divide(logits, reduced, out=logits)
    np.equal(batch.labels[..., None], workspace.classes, out=onehot)
    np.subtract(logits, onehot, out=logits)
    np.divide(logits, batch.labels.shape[-1], out=logits)
    if views.classifier is not None:
        # Before the feature rows' `hidden` turns into the tanh derivative.
        c_hidden, c_logits, g_cw, g_cb = views.classifier_views
        np.matmul(c_hidden.swapaxes(-1, -2), c_logits, out=g_cw)
        np.add.reduce(c_logits, axis=-2, out=g_cb)
    if views.feature is not None:
        f_hidden, dhidden, f_logits, g_fw, g_fb = views.feature_views
        f_cw = params[2] if views.feature is _WHOLE else params[2][views.feature]
        f_inputs = inputs if views.feature_inputs is _WHOLE else inputs[views.feature_inputs]
        np.matmul(f_logits, f_cw.swapaxes(-1, -2), out=dhidden)
        # hidden -> 1 - hidden**2, the tanh derivative; dhidden -> dpre.
        np.multiply(f_hidden, f_hidden, out=f_hidden)
        np.subtract(1.0, f_hidden, out=f_hidden)
        np.multiply(dhidden, f_hidden, out=dhidden)
        np.matmul(f_inputs.swapaxes(-1, -2), dhidden, out=g_fw)
        np.add.reduce(dhidden, axis=-2, out=g_fb)
    if prox_mu != 0.0 and views.both is not None:
        # The anchor is one model broadcast over the rows, or a stack with
        # one row per row of the model, sliced like the parameters.
        anchors = anchor.arrays()
        if anchor.feature_weights.ndim == 3:
            anchors = _rows(anchors, views.both)
        grads, diffs = views.both_views
        for g, p, a, diff in zip(grads, _rows(params, views.both), anchors, diffs):
            np.subtract(p, a, out=diff)
            np.multiply(prox_mu, diff, out=diff)
            np.add(g, diff, out=g)
    moving = [(g, params[i] if rows is _WHOLE else params[i][rows]) for i, g, rows in views.moving]
    for g, p in moving:
        # g -> p - lr * g, bitwise the new parameter, checked before any moves.
        np.multiply(g, lr, out=g)
        np.subtract(p, g, out=g)
    for g, _ in moving:
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradient values")
    for g, p in moving:
        np.copyto(p, g)


def split(model: PartitionedModel) -> tuple[FeatureBlock, ClassifierBlock]:
    """Detach the two blocks as independent copies."""
    return (
        FeatureBlock(model.feature_weights.copy(), model.feature_bias.copy()),
        ClassifierBlock(model.classifier_weights.copy(), model.classifier_bias.copy()),
    )


def merge(feature: FeatureBlock, classifier: ClassifierBlock) -> PartitionedModel:
    """Recombine two blocks into a model; inverse of split()."""
    if feature.weights.shape[-1] != classifier.weights.shape[-2]:
        raise ShapeError(
            f"hidden dim mismatch: feature block has {feature.weights.shape[-1]}, "
            f"classifier block expects {classifier.weights.shape[-2]}"
        )
    return PartitionedModel(
        feature_weights=feature.weights.copy(),
        feature_bias=feature.bias.copy(),
        classifier_weights=classifier.weights.copy(),
        classifier_bias=classifier.bias.copy(),
        num_classes=classifier.weights.shape[-1],
    )
