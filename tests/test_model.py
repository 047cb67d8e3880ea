"""Tests for the two-block model: forward, gradients, SGD, split and merge."""

import dataclasses
import pickle
from copy import deepcopy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim.model import (
    Arena,
    Batch,
    DivergenceError,
    Gradients,
    PartitionedModel,
    ShapeError,
    _class_sum,
    backward_frozen,
    backward_full,
    forward,
    forward_logits,
    init_model,
    merge,
    sgd_step,
    softmax,
    split,
)

from reference import cross_entropy


def random_batch(model, size, seed):
    rng = np.random.default_rng(seed)
    return Batch(
        inputs=rng.standard_normal((size, model.input_dim)),
        labels=rng.integers(0, model.num_classes, size=size),
    )


def flatten_model(model):
    return np.concatenate([a.ravel() for a in model.arrays()])


def model_from_flat(flat, template):
    shapes = [a.shape for a in template.arrays()]
    sizes = [int(np.prod(s)) for s in shapes]
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    arrays = [p.reshape(s) for p, s in zip(parts, shapes)]
    return PartitionedModel(*arrays, num_classes=template.num_classes)


def numeric_gradient(model, batch, eps=1e-6):
    """Central finite differences of the loss at every coordinate."""
    flat = flatten_model(model)
    grad = np.zeros_like(flat)
    for i in range(flat.shape[0]):
        up, down = flat.copy(), flat.copy()
        up[i] += eps
        down[i] -= eps
        _, p_up = forward(model_from_flat(up, model), batch)
        _, p_down = forward(model_from_flat(down, model), batch)
        grad[i] = (
            cross_entropy(p_up, batch.labels) - cross_entropy(p_down, batch.labels)
        ) / (2 * eps)
    return grad


class TestInit:
    def test_deterministic(self):
        a = init_model(6, 5, 3, seed=9)
        b = init_model(6, 5, 3, seed=9)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_seed_changes_weights(self):
        a = init_model(6, 5, 3, seed=9)
        b = init_model(6, 5, 3, seed=10)
        assert not np.array_equal(a.feature_weights, b.feature_weights)

    def test_bounds_scale_with_fan_in(self):
        model = init_model(16, 4, 3, seed=0)
        assert np.abs(model.feature_weights).max() <= 1 / 4
        assert np.abs(model.classifier_weights).max() <= 1 / 2
        assert np.abs(model.feature_bias).max() <= 1 / 4

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_model(0, 5, 3, seed=0)
        with pytest.raises(ValueError):
            init_model(4, 5, 1, seed=0)


class TestForward:
    def test_shapes_and_normalization(self):
        model = init_model(4, 7, 5, seed=1)
        batch = random_batch(model, 9, seed=2)
        hidden, probs = forward(model, batch)
        assert hidden.shape == (9, 7)
        assert probs.shape == (9, 5)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs.min() >= 0.0

    def test_logits_are_the_allocating_expressions_bitwise(self):
        # forward_logits adds in place; the bytes must be those of the plain
        # expressions, for one model and for a stack on stacked batches.
        model = init_model(4, 7, 5, seed=1)
        batch = random_batch(model, 9, seed=2)
        stacked = PartitionedModel(*(np.stack([a, 2 * a]) for a in model.arrays()), 5)
        inputs = np.stack([batch.inputs, -batch.inputs])
        stacked_batch = Batch(inputs, np.stack([batch.labels, batch.labels]))
        for m, b in ((model, batch), (stacked, stacked_batch)):
            hidden, logits = forward_logits(m, b)
            plain = np.tanh(b.inputs @ m.feature_weights + m.feature_bias[..., None, :])
            assert hidden.tobytes() == plain.tobytes()
            plain = plain @ m.classifier_weights + m.classifier_bias[..., None, :]
            assert logits.tobytes() == plain.tobytes()

    def test_into_given_arrays_and_in_place_softmax_bitwise(self):
        # Products into an arena's arrays and the softmax in place on the
        # logits give the bytes of the allocating expressions.
        model = init_model(4, 7, 5, seed=1)
        batch = random_batch(model, 9, seed=2)
        flat = Arena().get("scratch", (9 * 12,))
        out = flat[:63].reshape(9, 7), flat[63:].reshape(9, 5)
        hidden, logits = forward_logits(model, batch, out)
        assert hidden.base is flat.base and logits.base is flat.base
        plain_hidden, plain_logits = forward_logits(model, batch)
        assert hidden.tobytes() == plain_hidden.tobytes()
        assert logits.tobytes() == plain_logits.tobytes()
        exp = np.exp(plain_logits - plain_logits.max(axis=-1, keepdims=True))
        plain = exp / exp.sum(axis=-1, keepdims=True)
        assert softmax(logits) is logits
        assert logits.tobytes() == plain.tobytes()
        assert forward(model, batch)[1].tobytes() == plain.tobytes()

    def test_softmax_stable_for_large_logits(self):
        model = init_model(2, 2, 2, seed=1)
        batch = Batch(inputs=np.full((1, 2), 1e4), labels=np.array([0]))
        _, probs = forward(model, batch)
        assert np.all(np.isfinite(probs))

    def test_rejects_wrong_input_dim(self):
        model = init_model(4, 3, 2, seed=1)
        bad = Batch(inputs=np.zeros((2, 5)), labels=np.array([0, 1]))
        with pytest.raises(ShapeError):
            forward(model, bad)

    def test_rejects_out_of_range_labels(self):
        model = init_model(4, 3, 2, seed=1)
        bad = Batch(inputs=np.zeros((2, 4)), labels=np.array([0, 2]))
        with pytest.raises(ValueError):
            forward(model, bad)


class TestBatchValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Batch(inputs=np.zeros((0, 3)), labels=np.zeros(0, dtype=int))

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            Batch(inputs=np.zeros((3, 2)), labels=np.zeros(2, dtype=int))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            Batch(inputs=np.zeros(3), labels=np.zeros(3, dtype=int))

    def test_stacked_batch_shapes(self):
        Batch(inputs=np.zeros((3, 4, 2)), labels=np.zeros((3, 4), dtype=int))
        with pytest.raises(ShapeError):
            Batch(inputs=np.zeros((3, 4, 2)), labels=np.zeros(4, dtype=int))
        with pytest.raises(ShapeError):
            Batch(inputs=np.zeros((3, 4, 2)), labels=np.zeros((2, 4), dtype=int))

    def test_stacked_forward_checks_every_member(self):
        stacked = PartitionedModel(
            *(np.stack([a, a]) for a in init_model(4, 3, 2, seed=1).arrays()), num_classes=2
        )
        labels = np.array([[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            forward(stacked, Batch(inputs=np.zeros((2, 2, 4)), labels=labels))
        with pytest.raises(ShapeError):
            forward(stacked, Batch(inputs=np.zeros((2, 2, 5)), labels=labels % 2))


class TestCrossEntropy:
    def test_matches_manual_value(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8]])
        labels = np.array([0, 1])
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert cross_entropy(probs, labels) == pytest.approx(expected)

    def test_proximal_term(self):
        model = init_model(3, 4, 2, seed=5)
        other = init_model(3, 4, 2, seed=6)
        probs = np.array([[0.5, 0.5]])
        labels = np.array([0])
        base = cross_entropy(probs, labels)
        sq = sum(
            float(np.sum((c - a) ** 2))
            for a, c in zip(model.arrays(), other.arrays())
        )
        got = cross_entropy(probs, labels, proximal=(0.3, model, other))
        assert got == pytest.approx(base + 0.15 * sq)

    def test_mu_zero_is_plain_loss(self):
        model = init_model(3, 4, 2, seed=5)
        probs = np.array([[0.5, 0.5]])
        labels = np.array([0])
        assert cross_entropy(probs, labels, proximal=(0.0, model, model)) == (
            cross_entropy(probs, labels)
        )


class TestGradients:
    def test_matches_finite_differences(self):
        # Independent oracle: central differences on the scalar loss.
        model = init_model(3, 4, 3, seed=11)
        batch = random_batch(model, 6, seed=12)
        grads = backward_full(model, batch)
        analytic = np.concatenate(
            [
                grads.feature_weights.ravel(),
                grads.feature_bias.ravel(),
                grads.classifier_weights.ravel(),
                grads.classifier_bias.ravel(),
            ]
        )
        numeric = numeric_gradient(model, batch)
        denom = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_frozen_matches_full_classifier_grads(self):
        model = init_model(5, 4, 3, seed=3)
        batch = random_batch(model, 8, seed=4)
        full = backward_full(model, batch)
        frozen = backward_frozen(model, batch)
        assert frozen.feature_weights is None
        assert frozen.feature_bias is None
        assert np.array_equal(full.classifier_weights, frozen.classifier_weights)
        assert np.array_equal(full.classifier_bias, frozen.classifier_bias)

    def test_gradient_descends_loss(self):
        model = init_model(4, 6, 3, seed=21)
        batch = random_batch(model, 16, seed=22)
        _, probs = forward(model, batch)
        before = cross_entropy(probs, batch.labels)
        stepped = sgd_step(model, backward_full(model, batch), lr=0.1)
        _, probs_after = forward(stepped, batch)
        assert cross_entropy(probs_after, batch.labels) < before


class TestSgdStep:
    def test_elementwise_update(self):
        model = init_model(3, 3, 2, seed=7)
        batch = random_batch(model, 4, seed=8)
        grads = backward_full(model, batch)
        stepped = sgd_step(model, grads, lr=0.25)
        assert np.array_equal(
            stepped.feature_weights, model.feature_weights - 0.25 * grads.feature_weights
        )
        assert np.array_equal(
            stepped.classifier_bias, model.classifier_bias - 0.25 * grads.classifier_bias
        )

    def test_frozen_step_preserves_feature_block(self):
        model = init_model(3, 3, 2, seed=7)
        batch = random_batch(model, 4, seed=8)
        stepped = sgd_step(model, backward_frozen(model, batch), lr=0.25)
        assert np.array_equal(stepped.feature_weights, model.feature_weights)
        assert np.array_equal(stepped.feature_bias, model.feature_bias)
        assert not np.array_equal(stepped.classifier_weights, model.classifier_weights)

    def test_does_not_mutate_input(self):
        model = init_model(3, 3, 2, seed=7)
        snapshot = [a.copy() for a in model.arrays()]
        batch = random_batch(model, 4, seed=8)
        sgd_step(model, backward_full(model, batch), lr=0.5)
        for a, s in zip(model.arrays(), snapshot):
            assert np.array_equal(a, s)

    def test_rejects_non_finite(self):
        model = init_model(3, 3, 2, seed=7)
        bad = Gradients(
            feature_weights=np.full_like(model.feature_weights, np.nan),
            feature_bias=np.zeros_like(model.feature_bias),
            classifier_weights=np.zeros_like(model.classifier_weights),
            classifier_bias=np.zeros_like(model.classifier_bias),
        )
        with pytest.raises(ValueError):
            sgd_step(model, bad, lr=0.1)

    def test_rejects_an_overflowing_step(self):
        # Finite gradients whose product with a huge learning rate overflows.
        model = init_model(3, 3, 2, seed=7)
        batch = random_batch(model, 4, seed=8)
        grads = backward_full(model, Batch(batch.inputs * 100.0, batch.labels))
        assert all(np.isfinite(g).all() for g in (grads.feature_weights, grads.feature_bias))
        with pytest.raises(DivergenceError, match="non-finite gradient values"):
            sgd_step(model, grads, lr=1.7e308)


class TestArena:
    def test_arrays_are_kept_and_grow_to_what_is_asked(self):
        arena = Arena()
        a = arena.get("a", (2, 3))
        a[...] = 7.0
        # The same name views the start of the same array, in any shape.
        b = arena.get("a", (5,))
        assert np.shares_memory(a, b) and b.shape == (5,) and np.all(b == 7.0)
        assert not np.shares_memory(a, arena.get("b", (6,)))
        assert arena.get("i", (4,), np.intp).dtype == np.intp
        # Asking for more makes a new array; the views already handed out
        # keep theirs.
        grown = arena.get("a", (1000,))
        assert grown.size == 1000 and not np.shares_memory(a, grown)
        assert np.all(a == 7.0)
        assert np.shares_memory(grown, arena.get("a", (3,)))

    def test_a_map_the_system_refuses_is_out_of_memory(self):
        with pytest.raises(MemoryError, match="cannot map"):
            Arena().get("huge", (2**46,))

    def test_copy_lays_a_model_out_as_one_block(self):
        model = init_model(3, 4, 2, seed=5)
        into = Arena().get("m", (model.size,))
        for copy in (model.copy(), model.copy(into), model.copy().copy()):
            assert copy.block.shape == (3 * 4 + 4 + 4 * 2 + 2,)
            assert copy.block.tobytes() == b"".join(a.tobytes() for a in model.arrays())
            for a in copy.arrays():
                assert np.shares_memory(a, copy.block)
                assert not np.shares_memory(a, model.feature_weights)
        assert np.shares_memory(model.copy(into).block, into)
        # A model whose arrays are its own, however it was made, has no block.
        copy = model.copy()
        for other in (pickle.loads(pickle.dumps(copy)), deepcopy(copy),
                      dataclasses.replace(copy, feature_weights=copy.feature_weights.copy())):
            assert other.block is None
            assert [a.tobytes() for a in other.arrays()] == [a.tobytes() for a in copy.arrays()]


class TestSplitMerge:
    def test_roundtrip_is_identity(self):
        model = init_model(5, 6, 4, seed=13)
        rebuilt = merge(*split(model))
        for a, b in zip(model.arrays(), rebuilt.arrays()):
            assert np.array_equal(a, b)
        assert rebuilt.num_classes == model.num_classes

    def test_blocks_are_copies(self):
        model = init_model(5, 6, 4, seed=13)
        feature, _ = split(model)
        feature.weights[0, 0] = 99.0
        assert model.feature_weights[0, 0] != 99.0

    def test_merge_lays_out_one_new_block(self):
        feature, classifier = split(init_model(5, 6, 4, seed=13))
        merged = merge(feature, classifier)
        assert merged.block.shape == (merged.size,)
        for a in merged.arrays():
            assert np.shares_memory(a, merged.block)
        for part in (feature.weights, feature.bias, classifier.weights, classifier.bias):
            assert not np.shares_memory(merged.block, part)

    def test_merge_rejects_mismatched_hidden(self):
        a = init_model(5, 6, 4, seed=13)
        b = init_model(5, 7, 4, seed=13)
        fa, _ = split(a)
        _, cb = split(b)
        with pytest.raises(ShapeError):
            merge(fa, cb)

    def test_cross_client_recombination(self):
        a = init_model(5, 6, 4, seed=13)
        b = init_model(5, 6, 4, seed=14)
        fa, _ = split(a)
        _, cb = split(b)
        mixed = merge(fa, cb)
        assert np.array_equal(mixed.feature_weights, a.feature_weights)
        assert np.array_equal(mixed.classifier_weights, b.classifier_weights)



class TestClassMajorSoftmax:
    """The in-place step's softmax runs class-major: the reductions over the
    classes of a (k, batch, classes) array become adds and maxima of whole
    class rows of a (classes, k * batch) copy, with the same bits."""

    SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf]

    @staticmethod
    def class_sum(terms, out, scratch):
        """Run `_class_sum`'s additions, in order."""
        for a, b, into in _class_sum(terms, out, scratch):
            np.add(a, b, out=into)

    @staticmethod
    def class_major(x):
        k, batch, classes = x.shape
        return np.ascontiguousarray(x.transpose(2, 0, 1)).reshape(classes, k * batch)

    @staticmethod
    def assert_same_bits(a, b):
        # NaN (from inf - inf) compares by its bytes too.
        assert a.shape == b.shape and a.tobytes() == b.tobytes()

    # 2..300 classes cross numpy's blocks of 8 and its halving above 128.
    @settings(max_examples=150, deadline=None)
    @given(
        classes=st.integers(2, 300),
        rows=st.integers(1, 100),
        batch=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        signed=st.booleans(),
        special=st.lists(st.sampled_from(SPECIAL), max_size=4),
    )
    @example(classes=10, rows=100, batch=32, seed=0, signed=False, special=[])
    @example(classes=129, rows=3, batch=7, seed=1, signed=True, special=[-0.0, np.inf])
    @example(classes=300, rows=1, batch=1, seed=2, signed=True, special=[])
    def test_class_sum_is_numpys_sum_over_a_contiguous_axis(
        self, classes, rows, batch, seed, signed, special
    ):
        with np.errstate(over="ignore", invalid="ignore"):
            self.check_class_sum(classes, rows, batch, seed, signed, special)

    def check_class_sum(self, classes, rows, batch, seed, signed, special):
        rng = np.random.default_rng(seed)
        shape = (rows, batch, classes)
        if signed:
            # Any magnitude, so that sums round, overflow and cancel.
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 309, size=shape)
        else:
            # What the step sums: exp of shifted logits.
            logits = 10.0 * rng.standard_normal(shape)
            x = np.exp(logits - logits.max(axis=-1, keepdims=True))
        if special:
            picks = rng.random(shape) < 0.3
            x[picks] = rng.choice(special, size=int(picks.sum()))
        expected = np.add.reduce(x, axis=-1, keepdims=True).ravel()
        out = np.empty(rows * batch)
        self.class_sum(self.class_major(x), out, np.empty((classes, rows * batch)))
        # numpy adds its terms to 0.0 and the helper starts from the first
        # one, so a sample whose terms are all -0.0 sums to 0.0 in numpy and
        # to -0.0 in the helper; a softmax's terms never are.
        kept = ~np.all((x == 0) & np.signbit(x), axis=-1).ravel()
        self.assert_same_bits(out[kept], expected[kept])

    def test_class_sum_on_all_negative_zero_terms(self):
        # The one case where the helper and numpy differ, in a zero's sign.
        x = np.full((2, 3, 10), -0.0)
        out = np.empty(6)
        self.class_sum(self.class_major(x), out, np.empty((10, 6)))
        assert np.all(out == 0.0) and np.all(np.signbit(out))
        assert not np.signbit(np.add.reduce(x, axis=-1)).any()

    @settings(max_examples=100, deadline=None)
    @given(
        classes=st.integers(2, 40),
        rows=st.integers(1, 20),
        batch=st.integers(1, 20),
        pool=st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_class_major_max_shifts_the_logits_as_the_reference_does(
        self, classes, rows, batch, pool, seed
    ):
        # Logits drawn from a few values tie often, +0.0 with -0.0 included.
        rng = np.random.default_rng(seed)
        x = rng.choice(np.array(pool), size=(rows, batch, classes))
        reference = np.maximum.reduce(x, axis=-1, keepdims=True)
        terms = self.class_major(x)
        top = np.maximum.reduce(terms, axis=0)
        # The same value; a tie of +0.0 and -0.0 may take either sign...
        assert np.array_equal(top, reference.ravel())
        # ...which the shift and exp erase: exp(+-0.0) is 1.
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = np.exp(terms - top)
            expected = np.exp(x - reference)
        self.assert_same_bits(shifted, self.class_major(expected))
