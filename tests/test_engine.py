"""Tests for round planning, training paths, and aggregation rules."""

import dataclasses
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import engine
from fedsim.cli import main
from fedsim.config import ConfigError, parse_config
from fedsim.data import generate_synthetic
from fedsim.engine import (
    BatchCursor,
    CohortCursor,
    DeadlineDrop,
    FedAvg,
    FedNova,
    FedProx,
    FreezeOffload,
    RoundPlan,
    Tifl,
    aggregate_fedavg,
    aggregate_fednova,
    build_state,
    build_tiers,
    evaluate_accuracy,
    execute_offloaded,
    local_train,
    plan_round,
    run_experiment,
    run_experiments,
    run_round,
    select_clients,
)
from fedsim.model import (
    Arena,
    Batch,
    PartitionedModel,
    Workspace,
    forward,
    init_model,
    merge,
    sgd_step_in_place,
    softmax,
    split,
)
from fedsim.seeding import TAG_BATCHES, spawn_rng
from fedsim.similarity import SimilarityOracle
import reference
from reference import member_rows


def tiny_config(**overrides):
    raw = {
        "dataset": {"num_classes": 4, "samples_per_class": 40, "input_dim": 4},
        "clients": {"count": 6, "per_round": 3},
        "training": {
            "rounds": 2,
            "local_updates": 8,
            "batch_size": 8,
            "learning_rate": 0.05,
            "hidden_dim": 8,
        },
    }
    for key, value in overrides.items():
        raw.setdefault(key, {})
        if isinstance(value, dict):
            raw[key] = {**raw.get(key, {}), **value}
        else:
            raw[key] = value
    return parse_config(raw)


def completion(trace, client_id):
    """When the client's last part landed, relative to the round start."""
    return next(p.completion for p in trace.clients if p.client_id == client_id)


class TestRoundPlan:
    def test_rejects_non_finite_time(self):
        # One slow client's budget overflows the clock; the plan refuses it
        # under every strategy rather than close the round at infinity.
        cfg = tiny_config(
            clients={"count": 3, "per_round": 3, "speed_factors": [1.0, 1.0, 1e-306]},
            training={"rounds": 1},
        )
        strategies = [FedAvg(), FedProx(), FedNova(), Tifl(num_tiers=1), DeadlineDrop(),
                      FreezeOffload()]
        for strategy in strategies:
            state = build_state(cfg, strategy, seed=0)
            state.clock = 1.75e308
            with pytest.raises(ValueError, match="plan times must be finite, got inf"):
                plan_round(state, 0)

    @pytest.mark.parametrize(
        "strategy",
        [FedAvg(), FedProx(mu=0.1), FedNova(), Tifl(num_tiers=2), DeadlineDrop(multiplier=0.8),
         FreezeOffload(profile_noise_sigma=0.1)],
        ids=lambda s: s.label,
    )
    def test_plans_read_no_model(self, strategy):
        # Every round planned up front from a model of NaNs is the round the
        # experiment ran, so planning reads no model value.
        cfg = tiny_config(
            clients={"count": 8, "per_round": 4}, training={"rounds": 6}, latency={"dispatch": 0.5}
        )
        state = build_state(cfg, strategy, seed=3)
        for array in state.global_model.arrays():
            array.fill(np.nan)
        plans = [plan_round(state, r) for r in range(cfg.training.rounds)]
        names = [f.name for f in dataclasses.fields(RoundPlan)]
        traces = run_experiment(cfg, strategy, seed=3).traces
        assert plans == [RoundPlan(**{k: getattr(t, k) for k in names}) for t in traces]
        assert state.clock == sum(t.duration for t in traces)
        if isinstance(strategy, FreezeOffload):
            assert any(p.offload_records for p in plans)
        if isinstance(strategy, DeadlineDrop):
            assert any(p.dropped for p in plans)

    def test_each_round_is_planned_just_before_it_trains(self, monkeypatch):
        # Two lanes with one FedProx mu train as one stack: each round, both
        # lanes plan it, then one `local_train` call trains it.
        calls = []
        plan, train = engine.plan_round, engine.local_train

        def planning(*args):
            calls.append("plan")
            return plan(*args)

        def training(*args, **kwargs):
            calls.append("train")
            return train(*args, **kwargs)

        monkeypatch.setattr(engine, "plan_round", planning)
        monkeypatch.setattr(engine, "local_train", training)
        cfg = tiny_config(training={"rounds": 5})
        run_experiments(cfg, [(FedAvg(), 3), (FreezeOffload(), 4)])
        assert calls == ["plan", "plan", "train"] * 5

    def test_a_planning_error_surfaces_after_the_rounds_before_it_train(
        self, monkeypatch, tmp_path, capsys
    ):
        # Round 2's plan fails: rounds 0 and 1 train first, then the library
        # raises the plan's error, and `fedsim run` exits 1 with it.
        problem = "strategies: fedavg cannot plan round 2"
        plan, train = FedAvg.plan, engine.local_train
        trained = []

        def planning(self, state, round_index):
            if round_index == 2:
                raise ConfigError([problem])
            return plan(self, state, round_index)

        def training(*args, **kwargs):
            trained.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(FedAvg, "plan", planning)
        monkeypatch.setattr(engine, "local_train", training)
        raw = {
            "dataset": {"num_classes": 4, "samples_per_class": 40, "input_dim": 4},
            "clients": {"count": 6, "per_round": 3},
            "training": {"rounds": 4, "local_updates": 8, "batch_size": 8, "hidden_dim": 8},
            "strategies": [{"name": "fedavg"}],
        }
        with pytest.raises(ConfigError, match=problem):
            run_experiments(parse_config(raw), [(FedAvg(), 3)])
        assert len(trained) == 2
        config_path = tmp_path / "exp.yaml"
        config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "out"
        args = ["run", "--config", str(config_path), "--out", str(out), "--workers", "1"]
        assert main(args) == 1
        assert problem in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestBatchCursor:
    def make(self, n=20, batch=8, seed=0):
        rng = np.random.default_rng(3)
        inputs = rng.standard_normal((n, 2))
        labels = rng.integers(0, 2, size=n)
        indices = np.arange(n)
        return BatchCursor(inputs, labels, indices, batch, spawn_rng(seed, 1, 2))

    def test_batch_shapes(self):
        cursor = self.make()
        b = cursor.next_batch()
        assert b.inputs.shape == (8, 2)
        assert b.labels.shape == (8,)

    def test_deterministic(self):
        a, b = self.make(seed=5), self.make(seed=5)
        for _ in range(6):
            assert np.array_equal(a.next_batch().inputs, b.next_batch().inputs)

    def test_covers_all_samples_each_pass(self):
        # 20 samples, batch 5: every 4 consecutive batches form a permutation.
        cursor = self.make(n=20, batch=5)
        seen = np.concatenate([cursor.next_batch().labels for _ in range(4)])
        assert seen.shape[0] == 20

    def test_wraps_with_reshuffle(self):
        cursor = self.make(n=10, batch=8)
        for _ in range(5):
            assert cursor.next_batch().inputs.shape == (8, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchCursor(
                np.zeros((4, 2)), np.zeros(4, dtype=int), np.arange(0), 2,
                np.random.default_rng(0),
            )


def stack_of_one(model):
    """A lone model as the stack of one that training takes, laid out as one block."""
    arrays = (a[None] for a in model.arrays())
    return PartitionedModel(*arrays, num_classes=model.num_classes).copy()


def stream_of_one(inputs, labels, batch_size, rng, steps, arena):
    """The next `steps` batches of a stream over every sample, for a stack of one."""
    stream = BatchCursor(inputs, labels, np.arange(len(labels)), batch_size, rng)
    block = stream._take(steps * batch_size).reshape(steps, batch_size)
    return CohortCursor(inputs, labels, [block], arena)


class TestLocalTrain:
    def setup_method(self):
        self.model = stack_of_one(init_model(4, 6, 3, seed=1))
        rng = np.random.default_rng(2)
        self.inputs = rng.standard_normal((40, 4))
        self.labels = rng.integers(0, 3, size=40)

    def train(self, steps, **kwargs):
        """`local_train` of `steps` steps on the stream of seed 9, in a fresh arena."""
        arena = Arena()
        cursor = stream_of_one(self.inputs, self.labels, 8, np.random.default_rng(9), steps, arena)
        return local_train(self.model, cursor, steps, 0.05, arena, **kwargs)

    def test_zero_updates_is_identity(self):
        trained = self.train(0)
        assert np.array_equal(trained.feature_weights, self.model.feature_weights)

    def test_prox_zero_matches_plain_bitwise(self):
        plain = self.train(6)
        prox = self.train(6, prox_mu=0.0)
        for a, b in zip(plain.arrays(), prox.arrays()):
            assert np.array_equal(a, b)

    def test_prox_pulls_toward_anchor(self):
        # The anchor is the stack passed in, which training leaves as it is.
        plain = self.train(20)
        prox = self.train(20, prox_mu=1.0)
        drift_plain = sum(
            float(np.sum((a - b) ** 2))
            for a, b in zip(plain.arrays(), self.model.arrays())
        )
        drift_prox = sum(
            float(np.sum((a - b) ** 2))
            for a, b in zip(prox.arrays(), self.model.arrays())
        )
        assert drift_prox < drift_plain

    def test_prox_requires_anchor(self):
        # `local_train` always hands its step the stack it starts from; the
        # step itself refuses to pull without an anchor, before any move.
        arena = Arena()
        cursor = stream_of_one(self.inputs, self.labels, 8, np.random.default_rng(9), 1, arena)
        before = self.model.block.copy()
        workspace = Workspace(self.model, 8, arena)
        with pytest.raises(ValueError, match="requires an anchor"):
            sgd_step_in_place(self.model, cursor.next_batch(), workspace, 0.05, (1, 1), 0.5)
        assert self.model.block.tobytes() == before.tobytes()


class TestExecuteOffloaded:
    def test_matches_manual_loop_and_freezes_classifier(self):
        donor = init_model(4, 6, 3, seed=4)
        rng = np.random.default_rng(5)
        inputs = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, size=30)

        arena = Arena()
        cursor = stream_of_one(inputs, labels, 10, np.random.default_rng(6), 4, arena)
        feature, classifier = split(stack_of_one(donor))
        trained = execute_offloaded(feature, classifier, cursor, 4, 0.1, arena)

        # Manual oracle on the lone model: full-model gradients, feature-only
        # updates.
        from fedsim.model import backward_full

        oracle_cursor = BatchCursor(
            inputs, labels, np.arange(30), 10, np.random.default_rng(6)
        )
        model = donor
        for _ in range(4):
            batch = oracle_cursor.next_batch()
            grads = backward_full(model, batch)
            model = PartitionedModel(
                feature_weights=model.feature_weights - 0.1 * grads.feature_weights,
                feature_bias=model.feature_bias - 0.1 * grads.feature_bias,
                classifier_weights=model.classifier_weights,
                classifier_bias=model.classifier_bias,
                num_classes=model.num_classes,
            )
        assert np.array_equal(trained.weights[0], model.feature_weights)
        assert np.array_equal(trained.bias[0], model.feature_bias)
        # The donated classifier must come back untouched.
        rebuilt = merge(trained, classifier)
        assert np.array_equal(rebuilt.classifier_weights[0], donor.classifier_weights)


class TestAggregation:
    def models(self, n=3):
        return [init_model(3, 4, 2, seed=i) for i in range(n)]

    def test_fedavg_elementwise_oracle(self):
        models = self.models()
        weights = [10.0, 30.0, 60.0]
        merged = aggregate_fedavg(models[0], member_rows(models), weights)
        for pos, arr in enumerate(merged.arrays()):
            expected = sum(
                (w / 100.0) * m.arrays()[pos] for m, w in zip(models, weights)
            )
            assert np.allclose(arr, expected, atol=1e-12)

    def test_fedavg_single_model_identity(self):
        model = self.models(1)[0]
        merged = aggregate_fedavg(model, member_rows([model]), [5.0])
        for a, b in zip(merged.arrays(), model.arrays()):
            assert np.allclose(a, b, atol=1e-15)

    def test_fedavg_rejects_bad_weights(self):
        models = self.models(2)
        with pytest.raises(ValueError):
            aggregate_fedavg(models[0], member_rows(models), [1.0])
        with pytest.raises(ValueError):
            aggregate_fedavg(models[0], member_rows(models), [1.0, 0.0])
        with pytest.raises(ValueError):
            aggregate_fedavg(models[0], member_rows(models)[:0], [])

    def test_fednova_hand_example(self):
        # Scalar-like check on real arrays: global 0, two equal-weight
        # clients at w=2 (tau=1) and w=4 (tau=4).
        # effective = 0.5*1 + 0.5*4 = 2.5
        # step = 0.5*(2-0)/1 + 0.5*(4-0)/4 = 1.5 -> new = 2.5 * 1.5 = 3.75
        base = self.models(1)[0]
        zeros = aggregate_fedavg(base, member_rows([base]), [1.0])
        g = zeros.arrays()
        from fedsim.model import PartitionedModel

        def constant(v):
            return PartitionedModel(
                np.full_like(g[0], v),
                np.full_like(g[1], v),
                np.full_like(g[2], v),
                np.full_like(g[3], v),
                num_classes=zeros.num_classes,
            )

        merged = aggregate_fednova(
            constant(0.0), member_rows([constant(2.0), constant(4.0)]), [1.0, 1.0], [1, 4]
        )
        for arr in merged.arrays():
            assert np.allclose(arr, 3.75, atol=1e-12)

    def test_fednova_uniform_steps_matches_fedavg(self):
        models = self.models()
        weights = [10.0, 30.0, 60.0]
        base = init_model(3, 4, 2, seed=99)
        nova = aggregate_fednova(base, member_rows(models), weights, [7, 7, 7])
        avg = aggregate_fedavg(base, member_rows(models), weights)
        for a, b in zip(nova.arrays(), avg.arrays()):
            assert np.allclose(a, b, atol=1e-12)

    def test_fednova_equals_fedavg_while_every_client_runs_its_budget(self):
        # Every client runs local_updates steps, so FedNova's normalization
        # cancels: the same durations and accuracies as FedAvg.
        config = tiny_config(training={"rounds": 6}, clients={"count": 8, "per_round": 4})
        avg = run_experiment(config, FedAvg(), seed=2)
        nova = run_experiment(config, FedNova(), seed=2)
        assert [t.duration for t in nova.traces] == [t.duration for t in avg.traces]
        assert [t.accuracy for t in nova.traces] == [t.accuracy for t in avg.traces]
        assert len({t.accuracy for t in avg.traces}) > 1

    def test_fednova_sums_left_to_right(self):
        # The weights and the p_k * tau_k terms are summed left to right, as
        # `sum` did up to Python 3.11; a compensated sum (math.fsum, or `sum`
        # from 3.12) gives other totals on these inputs.
        models = self.models(11)
        base = init_model(3, 4, 2, seed=99)
        weights = [1.0] + [1e-16] * 10
        steps = [3] + [7] * 10
        total = 0.0
        for w in weights:
            total += w
        p = [w / total for w in weights]
        effective = 0.0
        for pi, tau in zip(p, steps):
            effective += pi * tau
        assert math.fsum(weights) != total
        assert math.fsum(pi * tau for pi, tau in zip(p, steps)) != effective
        acc = [np.zeros_like(a) for a in base.arrays()]
        for model, pi, tau in zip(models, p, steps):
            for slot, arr, b in zip(acc, model.arrays(), base.arrays()):
                slot += pi * (arr - b) / tau
        merged = aggregate_fednova(base, member_rows(models), weights, steps)
        for got, b, slot in zip(merged.arrays(), base.arrays(), acc):
            assert np.array_equal(got, b + effective * slot)

    @settings(max_examples=120, deadline=None)
    @given(
        members=st.integers(1, 150),
        hidden=st.sampled_from([1, 3]),
        updates=st.integers(1, 12),
        nova=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(members=150, hidden=1, updates=12, nova=True, seed=0)
    @example(members=1, hidden=1, updates=1, nova=False, seed=1)
    def test_one_reduction_is_the_member_loop_bitwise(self, members, hidden, updates, nova, seed):
        # `_aggregate` gathers each member's rows of the trained stack (a
        # weak member's feature and classifier rows differ) and reduces them
        # in one pass; the loops in `reference` add one member after
        # another. Tied weights, 0.0 and -0.0 entries and FedNova's tau from
        # 1 to local_updates.
        rng = np.random.default_rng(seed)
        stack_rows = members + int(rng.integers(0, members + 1))

        def values(*shape):
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
            v[rng.random(shape) < 0.2] = 0.0
            v[rng.random(shape) < 0.2] = -0.0
            return v

        dims = [(2, hidden), (hidden,), (hidden, 3), (3,)]
        trained = PartitionedModel(*(values(stack_rows, *d) for d in dims), num_classes=3).copy()
        start = PartitionedModel(*(values(*d) for d in dims), num_classes=3)
        feature = rng.permutation(stack_rows)[:members]
        weak = rng.random(members) < 0.3
        classifier = np.where(weak, rng.permutation(stack_rows)[:members], feature)
        counts = rng.integers(1, 4, members)
        taus = rng.integers(1, updates + 1, members)
        dropped = rng.random(members) < 0.1
        dropped[0] = False
        plan = SimpleNamespace(
            clients=[
                SimpleNamespace(
                    client_id=k, dropped=bool(dropped[k]), full_steps=int(taus[k]), frozen_steps=0
                )
                for k in range(members)
            ]
        )
        state = SimpleNamespace(
            global_model=start,
            strategy=SimpleNamespace(normalized_averaging=nova),
            client=lambda cid: SimpleNamespace(num_samples=int(counts[cid])),
        )
        rows = {(0, k): (int(feature[k]), int(classifier[k])) for k in range(members)}
        got = engine._aggregate(state, plan, 0, trained, rows, Arena())
        kept = [k for k in range(members) if not dropped[k]]
        models = [
            PartitionedModel(
                trained.feature_weights[feature[k]],
                trained.feature_bias[feature[k]],
                trained.classifier_weights[classifier[k]],
                trained.classifier_bias[classifier[k]],
                num_classes=3,
            )
            for k in kept
        ]
        weights = [float(counts[k]) for k in kept]
        if nova:
            steps = [int(taus[k]) for k in kept]
            want = reference.aggregate_fednova(start, models, weights, steps)
        else:
            want = reference.aggregate_fedavg(models, weights)
        for a, b in zip(got.arrays(), want.arrays()):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_fednova_rejects_bad_steps(self):
        base = init_model(3, 4, 2, seed=99)
        with pytest.raises(ValueError):
            aggregate_fednova(base, member_rows(self.models(2)), [1.0, 1.0], [3, 0])


class TestEvaluateAccuracy:
    """Against the reference: `forward`, then the arg-max of the probabilities."""

    # Test labels 0..3 occur 14, 10, 7 and 9 times, so predicting class 1
    # and predicting class 2 score differently.
    DATASET = generate_synthetic(num_classes=4, samples_per_class=50, input_dim=3, seed=0)

    @staticmethod
    def reference(model, dataset):
        idx = dataset.test_indices
        labels = dataset.labels[idx]
        _, probs = forward(model, Batch(dataset.inputs[idx], labels))
        return float(np.mean(np.argmax(probs, axis=1) == labels))

    @pytest.fixture
    def softmax_calls(self, monkeypatch):
        """How many evaluations took the softmax path."""
        calls = []

        def counting(logits):
            calls.append(logits)
            return softmax(logits)

        monkeypatch.setattr(engine, "softmax", counting)
        return calls

    def with_logits(self, bias):
        """A model whose logits are `bias` on every row: zero classifier
        weights leave exactly the bias."""
        model = init_model(3, 5, 4, seed=1)
        model.classifier_weights[...] = 0.0
        model.classifier_bias[...] = bias
        return model

    def test_seeded_models_take_the_shortcut_and_match(self, softmax_calls):
        scores = set()
        for seed in range(30):
            model = init_model(3, 5, 4, seed=seed)
            model.classifier_weights *= 1 + seed  # wider logit spreads
            accuracy = evaluate_accuracy(model, self.DATASET, Arena())
            assert accuracy == self.reference(model, self.DATASET)
            scores.add(accuracy)
        assert softmax_calls == []
        assert len(scores) > 5

    def test_trained_models_match(self, softmax_calls):
        cfg = tiny_config(training={"rounds": 4})
        for seed in (1, 2, 3):
            result = run_experiment(cfg, FedAvg(), seed=seed)
            dataset = build_state(cfg, FedAvg(), seed).dataset
            assert evaluate_accuracy(result.final_model, dataset, Arena()) == self.reference(
                result.final_model, dataset
            )
            assert result.traces[-1].accuracy == self.reference(result.final_model, dataset)
        assert softmax_calls == []

    @pytest.mark.parametrize(
        "bias, predicted, softmax",
        [
            # An exact tie of the top two: the lower index wins.
            ([0.5, 2.0, 2.0, -1.0], 1, True),
            # A lead inside the margin, 1e-6 * max(1, |2|) ...
            ([0.5, 2.0, 2.0 - 1e-6, -1.0], 1, True),
            # ... and one just outside it.
            ([0.5, 2.0, 2.0 - 3e-6, -1.0], 1, False),
            ([0.5, 2.0 - 1e-6, 2.0, -1.0], 2, True),
            ([0.5, -1e6, -1e6 + 0.5, 0.0], 0, False),
            # NaN and +inf make every probability NaN: the first index wins.
            ([0.0, np.nan, 3.0, 0.0], 0, True),
            ([0.0, np.inf, 3.0, 0.0], 0, True),
            # -inf logits get probability 0.
            ([-np.inf, 3.0, -np.inf, 1.0], 1, False),
        ],
    )
    def test_crafted_logits(self, softmax_calls, bias, predicted, softmax):
        model = self.with_logits(bias)
        labels = self.DATASET.labels[self.DATASET.test_indices]
        # NaN and infinite logits make the softmax's subtraction invalid.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            accuracy = evaluate_accuracy(model, self.DATASET, Arena())
            assert accuracy == self.reference(model, self.DATASET)
        assert accuracy == np.mean(labels == predicted)
        assert len(softmax_calls) == int(softmax)

    def test_test_rows_are_gathered_once(self):
        dataset = generate_synthetic(num_classes=4, samples_per_class=50, input_dim=3, seed=0)
        model = init_model(3, 5, 4, seed=1)
        evaluate_accuracy(model, dataset, Arena())
        inputs, labels = dataset.test_rows
        evaluate_accuracy(model, dataset, Arena())
        assert dataset.test_rows[0] is inputs and dataset.test_rows[1] is labels
        assert not inputs.flags.writeable and not labels.flags.writeable
        assert np.array_equal(inputs, dataset.inputs[dataset.test_indices])
        assert np.array_equal(labels, dataset.labels[dataset.test_indices])


class TestSeedSharing:
    def test_each_seed_builds_once_and_every_lane_runs_as_alone(self, monkeypatch):
        cfg = tiny_config(
            partition={"mode": "noniid", "classes_per_client": 2}, training={"rounds": 3}
        )
        strategies = [FedAvg(), Tifl(num_tiers=2), FreezeOffload(),
                      FreezeOffload(similarity_factor=0.5)]
        tasks = [(strategy, seed) for seed in (3, 4) for strategy in strategies]
        alone = [run_experiment(cfg, strategy, seed) for strategy, seed in tasks]

        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name, kwargs.get("seed")] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(engine, "generate_synthetic",
                            counting("generate_synthetic", engine.generate_synthetic))
        monkeypatch.setattr(engine, "partition", counting("partition", engine.partition))
        monkeypatch.setattr(SimilarityOracle, "compute_matrix",
                            counting("compute_matrix", SimilarityOracle.compute_matrix))
        together = run_experiments(cfg, tasks)
        assert calls == {
            ("generate_synthetic", 3): 1, ("generate_synthetic", 4): 1,
            ("partition", 3): 1, ("partition", 4): 1,
            ("compute_matrix", None): 2,
        }
        for a, b in zip(alone, together):
            assert (a.strategy_label, a.seed) == (b.strategy_label, b.seed)
            assert a.traces == b.traces
            assert a.summary == b.summary
            for x, y in zip(a.final_model.arrays(), b.final_model.arrays()):
                assert x.tobytes() == y.tobytes()

    def test_lanes_of_a_seed_share_its_clients_but_keep_their_own_model(self):
        cfg = tiny_config()
        shared = engine.SeedData.build(cfg, 3)
        a = engine._lane_state(cfg, FedAvg(), shared)
        b = engine._lane_state(cfg, FreezeOffload(), shared)
        assert a.dataset is b.dataset
        assert a.clients is b.clients is shared.clients
        assert all(a.client(c.client_id) is c for c in shared.clients)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.clients[0].speed_factor = 2.0
        assert a.global_model is not b.global_model
        a.global_model.feature_weights[0, 0] += 1.0
        assert b.global_model.feature_weights[0, 0] != a.global_model.feature_weights[0, 0]


class TestSelection:
    def test_deterministic_and_in_range(self):
        a = select_clients(20, 5, round_index=3, seed=42)
        b = select_clients(20, 5, round_index=3, seed=42)
        assert a == b
        assert len(set(a)) == 5
        assert all(0 <= c < 20 for c in a)

    def test_varies_by_round(self):
        picks = {tuple(select_clients(20, 5, r, seed=42)) for r in range(10)}
        assert len(picks) > 1

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError):
            select_clients(4, 5, 0, seed=0)

    def test_build_tiers_orders_fastest_first(self):
        cfg = tiny_config(clients={"count": 6, "per_round": 2,
                                   "speed_factors": [0.2, 1.0, 0.5, 0.9, 0.1, 0.6]})
        state = build_state(cfg, Tifl(num_tiers=3), seed=0)
        tiers = build_tiers(state.clients, 3)
        assert len(tiers) == 3
        assert sorted(c for tier in tiers for c in tier) == list(range(6))
        # Fastest clients (1.0 and 0.9) form the first tier.
        assert set(tiers[0]) == {1, 3}
        assert set(tiers[2]) == {0, 4}

    def test_tifl_round_selects_within_one_tier(self):
        cfg = tiny_config(clients={"count": 6, "per_round": 2,
                                   "speed_factors": [0.2, 1.0, 0.5, 0.9, 0.1, 0.6]},
                          training={"rounds": 3})
        result = run_experiment(cfg, Tifl(num_tiers=3), seed=1)
        state = build_state(cfg, Tifl(num_tiers=3), seed=1)
        tiers = build_tiers(state.clients, 3)
        for t in result.traces:
            tier = set(tiers[t.round_index % 3])
            assert set(t.selected) <= tier


class TestDeadlineRound:
    def test_slow_client_dropped(self):
        # Speeds 1.0, 1.0, 0.1: completions 8, 8, 80; mean 32; the straggler
        # misses the deadline and the round closes at the second-slowest.
        cfg = tiny_config(
            clients={"count": 3, "per_round": 3, "speed_factors": [1.0, 1.0, 0.1]},
            training={"rounds": 1},
        )
        result = run_experiment(cfg, DeadlineDrop(multiplier=1.0), seed=2)
        trace = result.traces[0]
        assert trace.dropped == (2,)
        assert trace.duration == pytest.approx(8.0)
        assert completion(trace, 2) == pytest.approx(80.0)

    def test_all_dropped_closes_at_deadline(self):
        # A deadline multiplier far below any completion drops everyone.
        cfg = tiny_config(
            clients={"count": 3, "per_round": 3, "speed_factors": [1.0, 1.0, 0.1]},
            training={"rounds": 1},
        )
        state = build_state(cfg, DeadlineDrop(multiplier=0.01), seed=2)
        before = [a.copy() for a in state.global_model.arrays()]
        trace = run_round(state, 0)
        assert len(trace.dropped) == 3
        assert trace.duration == pytest.approx(0.32)
        for a, b in zip(state.global_model.arrays(), before):
            assert np.array_equal(a, b)

    def test_no_drops_when_generous(self):
        cfg = tiny_config(
            clients={"count": 3, "per_round": 3, "speed_factors": [1.0, 1.0, 0.5]},
            training={"rounds": 1},
        )
        result = run_experiment(cfg, DeadlineDrop(multiplier=10.0), seed=2)
        assert result.traces[0].dropped == ()
        assert result.traces[0].duration == pytest.approx(16.0)


def batches_done_uncapped(start, per_batch, now, cap):
    """`engine._batches_done` as it was, converting the uncapped quotient."""
    if now < start:
        return 0
    k = int((now - start) / per_batch)
    while k + 1 <= cap and start + (k + 1) * per_batch <= now:
        k += 1
    while k > 0 and start + k * per_batch > now:
        k -= 1
    return min(k, cap)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.0, 1e12),
    st.floats(1e-300, 1e6),
    st.floats(-10.0, 1e12),
    st.integers(0, 40),
)
# A finite quotient past 2**53 whose truncation overshoots `now`: counting
# down from it by 1 never moved the product.
@example(0.0, 1.9205508798359996e-278, 506309313164.471, 16)
def test_batches_done_caps_before_converting(start, per_batch, elapsed, cap):
    now = start + elapsed
    done = engine._batches_done(start, per_batch, now, cap)
    # The largest count up to the cap whose batches end by `now`.
    assert done == max((k for k in range(cap + 1) if start + k * per_batch <= now), default=0)
    # Where the old quotient is finite and below 2**53, so that its count's
    # downward steps of 1 still move the product, the old count ends and agrees.
    if (now - start) / per_batch < 2**53:
        assert done == batches_done_uncapped(start, per_batch, now, cap)


class TestFreezeOffloadRound:
    def worked_example(self):
        # Two clients, base full batch 1s split 0.15/0.10/0.15/0.60, speeds
        # 1.0 and 0.25, budget 16, profile over the first 2 batches.
        return tiny_config(
            dataset={"num_classes": 2, "samples_per_class": 40, "input_dim": 2},
            clients={"count": 2, "per_round": 2, "speed_factors": [1.0, 0.25]},
            training={"rounds": 1, "local_updates": 16, "batch_size": 4,
                      "hidden_dim": 4},
            profile={"base": {"ff": 0.15, "fc": 0.10, "bc": 0.15, "bf": 0.60}},
            strategies=[{"name": "freeze_offload", "profile_batches": 2}],
        )

    def test_hand_computed_timeline(self):
        # Profiles land at 2s (fast) and 8s (slow); at t=8 the fast client
        # has 8 of 16 updates left (estimate 8sced) and the slow one 14
        # (estimate 56s); mean 32 makes the slow client the only sender.
        # Offload scan gives d=8, so the handoff happens after the slow
        # client's 8th full batch at t=32. Classifier-only finishes the other
        # 8 updates by 32 + 8*1.6 = 44.8; the fast client finishes its own
        # work at 16 and the donated block at 32 + 8*0.6*1.0... the block
        # requires bf=0.6 per batch: 32 + 4.8 = 36.8. Round lasts 44.8s.
        cfg = self.worked_example()
        result = run_experiment(cfg, cfg.strategies[0], seed=0)
        trace = result.traces[0]
        assert trace.num_offloads == 1
        (record,) = trace.offload_records
        assert record.client_id == 1
        assert record.receiver == 0
        assert trace.schedule.assignments[0].offload_point == 8
        assert record.full_steps == 8
        assert record.frozen_steps == 8
        assert record.handoff_time == pytest.approx(32.0)
        assert completion(trace, 1) == pytest.approx(44.8)
        assert completion(trace, 0) == pytest.approx(16.0)
        assert trace.duration == pytest.approx(44.8)

    def test_handoffs_at_the_arrival_keep_schedule_order(self):
        # Batch times of 5, 4, 1 and 1 s. Profiles land by 5 s; clients 1
        # and then 0, in ascending estimate, are scheduled to keep 5 full
        # steps, but the schedule arrives at 5 + 30 = 35 s, after both have
        # passed that point and before either has finished. So both hand off
        # at the arrival, and the tie keeps schedule order, not selection
        # order.
        cfg = tiny_config(
            clients={"count": 4, "per_round": 4, "speed_factors": [0.2, 0.25, 1.0, 1.0]},
            training={"rounds": 1, "local_updates": 16},
            latency={"dispatch": 30.0},
        )
        plan = plan_round(build_state(cfg, FreezeOffload(), seed=0), 0)
        records = plan.offload_records
        assert [a.weak_client_id for a in plan.schedule.assignments] == [1, 0]
        assert [p.client_id for p in records] == [1, 0]
        assert [p.handoff_time for p in records] == [35.0, 35.0]
        assert [(p.full_steps, p.frozen_steps) for p in records] == [(8, 8), (7, 9)]
        assert set(records) == {p for p in plan.clients if p.receiver is not None}

    def test_beats_plain_fedavg_duration(self):
        cfg = self.worked_example()
        offload = run_experiment(cfg, cfg.strategies[0], seed=0)
        plain = run_experiment(cfg, FedAvg(), seed=0)
        assert plain.traces[0].duration == pytest.approx(64.0)
        assert offload.traces[0].duration < plain.traces[0].duration

    def test_work_conservation(self):
        # Every executed handoff preserves the weak client's update budget:
        # full + frozen == budget, and the strong client retrains exactly the
        # frozen tail on the feature block.
        cfg = tiny_config(
            clients={"count": 8, "per_round": 4},
            training={"rounds": 4},
            partition={"mode": "noniid", "classes_per_client": 2},
        )
        for seed in range(3):
            result = run_experiment(cfg, FreezeOffload(), seed=seed)
            records = [r for t in result.traces for r in t.offload_records]
            assert records, "expected at least one offload across the run"
            for r in records:
                assert r.full_steps + r.frozen_steps == 8
                assert 1 <= r.full_steps <= 7

    def test_round_durations_never_exceed_fedavg(self):
        # With zero dispatch and transfer latency an offload round can never
        # be slower than the same round under plain fedavg.
        cfg = tiny_config(clients={"count": 8, "per_round": 4},
                          training={"rounds": 5})
        fast = run_experiment(cfg, FreezeOffload(), seed=3)
        slow = run_experiment(cfg, FedAvg(), seed=3)
        for a, b in zip(fast.traces, slow.traces):
            assert a.duration <= b.duration + 1e-9

    def test_schedule_recorded_in_trace(self):
        cfg = tiny_config(clients={"count": 8, "per_round": 4},
                          training={"rounds": 1})
        result = run_experiment(cfg, FreezeOffload(), seed=3)
        trace = result.traces[0]
        assert trace.schedule is not None
        assert set(trace.schedule.sending_ids) | set(trace.schedule.receiving_ids) == (
            set(trace.selected)
        )
        assert trace.num_offloads == len(trace.schedule.assignments)

    def test_transfer_latency_delays_offloaded_part(self):
        cfg_fast = self.worked_example()
        import dataclasses

        from fedsim.config import LatencyConfig

        cfg_slow = dataclasses.replace(
            cfg_fast, latency=LatencyConfig(dispatch=0.0, transfer=30.0)
        )
        fast = run_experiment(cfg_fast, cfg_fast.strategies[0], seed=0)
        slow = run_experiment(cfg_slow, cfg_slow.strategies[0], seed=0)
        # Handoff at 32, transfer 30: block arrives at 62 after the fast
        # client's own work, so the offloaded part lands at 62 + 4.8 = 66.8
        # and the weak contribution completes there instead of at 44.8.
        assert completion(fast.traces[0], 1) == pytest.approx(44.8)
        assert completion(slow.traces[0], 1) == pytest.approx(66.8)


class TestDeterminism:
    def test_identical_reruns(self):
        cfg = tiny_config(partition={"mode": "noniid", "classes_per_client": 2})
        for strategy in [FedAvg(), FreezeOffload(), Tifl(), DeadlineDrop()]:
            a = run_experiment(cfg, strategy, seed=5)
            b = run_experiment(cfg, strategy, seed=5)
            assert [t.duration for t in a.traces] == [t.duration for t in b.traces]
            assert [t.accuracy for t in a.traces] == [t.accuracy for t in b.traces]
            assert [t.selected for t in a.traces] == [t.selected for t in b.traces]

    def test_fedprox_zero_is_fedavg_bitwise(self):
        cfg = tiny_config(training={"rounds": 3})
        avg_state = build_state(cfg, FedAvg(), seed=8)
        prox_state = build_state(cfg, FedProx(mu=0.0), seed=8)
        for r in range(3):
            run_round(avg_state, r)
            run_round(prox_state, r)
            for a, b in zip(
                avg_state.global_model.arrays(), prox_state.global_model.arrays()
            ):
                assert np.array_equal(a, b)

    def test_seed_changes_everything(self):
        cfg = tiny_config()
        a = run_experiment(cfg, FedAvg(), seed=5)
        b = run_experiment(cfg, FedAvg(), seed=6)
        assert [t.duration for t in a.traces] != [t.duration for t in b.traces]


class TestAccuracyProgress:
    def test_training_learns_separable_data(self):
        # Low-noise data and plenty of rounds: fedavg must reach high
        # held-out accuracy on this small problem.
        cfg = tiny_config(
            dataset={"num_classes": 4, "samples_per_class": 40, "input_dim": 4,
                     "noise_sigma": 0.2},
            clients={"count": 4, "per_round": 4},
            training={"rounds": 25, "local_updates": 16, "batch_size": 16,
                      "learning_rate": 0.1, "hidden_dim": 16},
        )
        result = run_experiment(cfg, FedAvg(), seed=1)
        assert result.summary.final_accuracy > 0.9

    def test_accuracy_in_unit_range(self):
        cfg = tiny_config()
        result = run_experiment(cfg, FedAvg(), seed=1)
        for t in result.traces:
            assert 0.0 <= t.accuracy <= 1.0

    def test_summary_fields(self):
        cfg = tiny_config()
        result = run_experiment(cfg, FedAvg(), seed=1)
        s = result.summary
        assert s.rounds == 2
        assert s.total_time == pytest.approx(sum(t.duration for t in result.traces))
        assert s.best_accuracy >= s.final_accuracy
        doc = s.to_dict()
        assert doc["strategy"] == "fedavg"
        assert doc["seed"] == 1
