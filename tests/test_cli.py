"""Tests for config parsing and the command line interface."""

import json
import os

import pytest
import yaml

from fedsim import cli
from fedsim.cli import main, trace_path, write_trace
from fedsim.config import (
    ConfigError,
    echo_dict,
    load_config,
    parse_config,
)
from fedsim.engine import (
    DeadlineDrop,
    FedAvg,
    FedProx,
    FreezeOffload,
    Tifl,
    run_experiment,
)

FAST_RAW = {
    "dataset": {"num_classes": 4, "samples_per_class": 40, "input_dim": 4},
    "clients": {"count": 6, "per_round": 2},
    "training": {
        "rounds": 2,
        "local_updates": 8,
        "batch_size": 8,
        "learning_rate": 0.05,
        "hidden_dim": 8,
    },
    "seed": 7,
}


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


class TestParseConfig:
    def test_empty_document_uses_defaults(self):
        cfg = parse_config({})
        assert cfg.clients.count == 24
        assert cfg.clients.per_round == 3
        assert cfg.training.rounds == 100
        assert cfg.training.local_updates == 16
        assert cfg.profile.batches == 1
        assert cfg.seed == 42
        assert len(cfg.strategies) == 1
        assert isinstance(cfg.strategies[0], FedAvg)

    def test_none_document_uses_defaults(self):
        assert parse_config(None).seed == 42

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2])

    def test_collects_all_problems(self):
        raw = {
            "dataset": {"num_classes": 1},
            "training": {"rounds": 0},
            "mystery": {},
        }
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        text = str(info.value)
        assert "dataset.num_classes" in text
        assert "training.rounds" in text
        assert "mystery" in text
        assert len(info.value.problems) == 3

    def test_rejects_float_truncation(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"training": {"rounds": 2.5}})
        assert "training.rounds" in str(info.value)

    def test_accepts_whole_float(self):
        assert parse_config({"training": {"rounds": 2.0}}).training.rounds == 2

    @pytest.mark.parametrize(
        "raw, where",
        [
            ({"training": {"rounds": True}}, "training.rounds"),
            ({"training": {"rounds": float("inf")}}, "training.rounds"),
            ({"training": {"local_updates": "16"}}, "training.local_updates"),
            ({"training": {"learning_rate": "0.05"}}, "training.learning_rate"),
            ({"latency": {"transfer": False}}, "latency.transfer"),
            ({"seed": True}, "top level.seed"),
            ({"strategies": [{"name": "fedprox", "mu": "0.1"}]}, "strategies[0].mu"),
            ({"strategies": [{"name": "tifl", "tiers": True}]}, "strategies[0].tiers"),
            (
                {"clients": {"count": 2, "per_round": 2}, "partition": {"sizes": [True, 3]}},
                "partition.sizes",
            ),
            (
                {"clients": {"count": 2, "per_round": 2, "speed_factors": [True, 0.5]}},
                "clients.speed_factors",
            ),
            (
                {"clients": {"count": 2, "per_round": 2, "speed_factors": ["0.5", 0.5]}},
                "clients.speed_factors",
            ),
            (
                {"profile": {"base": {"ff": "0.1", "fc": 0.1, "bc": 0.1, "bf": 0.7}}},
                "profile.base",
            ),
            ({"dataset": {"noise_sigma": float("nan")}}, "dataset.noise_sigma"),
            ({"latency": {"dispatch": float("inf")}}, "latency.dispatch"),
            ({"strategies": [{"name": "fedprox", "mu": float("nan")}]}, "strategies[0].mu"),
            (dict(FAST_RAW, partition={"sizes": [1, 1, 1, 1, 1, 1000]}), "partition.sizes"),
            (
                dict(FAST_RAW, partition={"mode": "noniid", "classes_per_client": 3,
                                          "sizes": [1, 1, 1, 1, 1, 60]}),
                "partition.sizes",
            ),
            (dict(FAST_RAW, clients={"count": 200, "per_round": 2}), "partition"),
            (
                {"clients": {"count": 2, "per_round": 2}, "partition": {"sizes": [1e-320, 1e-320]}},
                "partition.sizes",
            ),
            (
                {"clients": {"count": 2, "per_round": 2}, "partition": {"sizes": [float("inf"), 1]}},
                "partition.sizes",
            ),
            (
                {"profile": {"base": {"ff": 1e308, "fc": 1e308, "bc": 0.1, "bf": 0.1}}},
                "virtual time overflows",
            ),
            (
                {"clients": {"count": 2, "per_round": 2, "speed_factors": [1e-320, 0.5]}},
                "virtual time overflows",
            ),
            ({"latency": {"dispatch": 1e308}, "training": {"rounds": 2}}, "virtual time overflows"),
            # Whole numbers no int64 holds.
            ({"dataset": {"samples_per_class": 1e308}}, "dataset.samples_per_class"),
            ({"training": {"local_updates": 1e308}}, "training.local_updates"),
            ({"training": {"hidden_dim": 1e300}}, "training.hidden_dim"),
            ({"seed": 1e300}, "top level.seed"),
            (yaml.safe_load("dataset: {input_dim: 9223372036854775808}"), "dataset.input_dim"),
            # Unknown keys of mixed types are still listed.
            ({"strategies": [{"name": "fedavg", 1: "a", "b": 2}]}, "strategies[0]: unknown keys"),
            # More clients than training samples, without apportioning them.
            ({"clients": {"count": 2**63 - 1, "per_round": 2}}, "partition: the smallest of"),
            ({"clients": {"count": 100_000_000, "per_round": 2}}, "partition: the smallest of"),
            # Arrays larger than numpy can address.
            ({"training": {"hidden_dim": 2**62}}, "stacked models"),
            ({"training": {"batch_size": 2**60}}, "workspace"),
            ({"dataset": {"samples_per_class": 2**60}}, "dataset (num_classes"),
        ],
    )
    def test_rejects_bools_and_strings_as_numbers(self, raw, where):
        with pytest.raises(ConfigError) as info:
            parse_config(raw)
        assert len(info.value.problems) == 1
        assert info.value.problems[0].startswith(where)

    def test_accepts_ints_for_float_fields(self):
        cfg = parse_config(
            {"training": {"learning_rate": 1}, "latency": {"dispatch": 2},
             "strategies": [{"name": "deadline", "multiplier": 2}]}
        )
        assert cfg.training.learning_rate == 1.0
        assert isinstance(cfg.training.learning_rate, float)
        assert cfg.latency.dispatch == 2.0
        assert cfg.strategies[0].multiplier == 2.0

    def test_unknown_key_in_section(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"clients": {"counts": 5}})
        assert "unknown key 'counts'" in str(info.value)

    def test_strategy_by_name_string(self):
        cfg = parse_config({"strategies": ["fednova"]})
        assert cfg.strategies[0].label == "fednova"

    def test_bad_strategy_name(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"strategies": [{"name": "fastest"}]})
        assert "strategies[0].name" in str(info.value)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"strategies": ["fedavg", "fedavg"]})
        assert "duplicate label 'fedavg'" in str(info.value)

    def test_same_family_different_params_ok(self):
        cfg = parse_config(
            {"strategies": [
                {"name": "deadline", "multiplier": 1.0},
                {"name": "deadline", "multiplier": 1.5},
            ]}
        )
        assert [s.label for s in cfg.strategies] == ["deadline_m1", "deadline_m1.5"]

    def test_strategy_parameters(self):
        cfg = parse_config(
            {"strategies": [
                {"name": "fedprox", "mu": 0.1},
                {"name": "tifl", "tiers": 4},
                {"name": "deadline", "multiplier": 2.0},
                {"name": "freeze_offload", "similarity_factor": 0.5,
                 "profile_batches": 3},
            ],
             "training": {"local_updates": 8}}
        )
        prox, tifl, dead, freeze = cfg.strategies
        assert isinstance(prox, FedProx) and prox.mu == 0.1
        assert isinstance(tifl, Tifl) and tifl.num_tiers == 4
        assert isinstance(dead, DeadlineDrop) and dead.multiplier == 2.0
        assert isinstance(freeze, FreezeOffload)
        assert freeze.similarity_factor == 0.5
        assert freeze.profile_batches == 3

    def test_freeze_offload_inherits_profile_section(self):
        cfg = parse_config(
            {"profile": {"batches": 2, "noise_sigma": 0.1},
             "strategies": [{"name": "freeze_offload"}]}
        )
        s = cfg.strategies[0]
        assert s.profile_batches == 2
        assert s.profile_noise_sigma == 0.1

    def test_unknown_strategy_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"strategies": [{"name": "fedavg", "mu": 0.1}]})
        assert "unknown keys ['mu']" in str(info.value)

    def test_speed_factor_validation(self):
        with pytest.raises(ConfigError):
            parse_config({"clients": {"count": 3, "speed_factors": [0.5, 1.0]}})
        with pytest.raises(ConfigError):
            parse_config({"clients": {"count": 2, "speed_factors": [0.5, 1.5]}})
        with pytest.raises(ConfigError):
            parse_config({"clients": {"speed_low": 0.0}})

    def test_per_round_bounds(self):
        with pytest.raises(ConfigError):
            parse_config({"clients": {"count": 3, "per_round": 4}})

    def test_noniid_requires_classes_per_client(self):
        with pytest.raises(ConfigError):
            parse_config({"partition": {"mode": "noniid"}})
        with pytest.raises(ConfigError):
            parse_config(
                {"dataset": {"num_classes": 4},
                 "partition": {"mode": "noniid", "classes_per_client": 5}}
            )

    def test_profile_batches_below_updates(self):
        with pytest.raises(ConfigError):
            parse_config({"training": {"local_updates": 4}, "profile": {"batches": 4}})
        with pytest.raises(ConfigError):
            parse_config(
                {"training": {"local_updates": 4},
                 "strategies": [{"name": "freeze_offload", "profile_batches": 4}]}
            )

    def test_strategy_rule_reported_once(self):
        # Two strategies breaking the same cross-field rule give one line.
        with pytest.raises(ConfigError) as info:
            parse_config(
                {"training": {"local_updates": 4},
                 "strategies": [{"name": "freeze_offload", "profile_batches": 4},
                                {"name": "freeze_offload", "profile_batches": 5,
                                 "similarity_factor": 2.0}]}
            )
        assert info.value.problems == [
            "strategies: freeze_offload profile_batches must be < training.local_updates (4)"
        ]

    def test_profile_base_override(self):
        cfg = parse_config(
            {"profile": {"base": {"ff": 0.1, "fc": 0.2, "bc": 0.3, "bf": 0.4}}}
        )
        assert cfg.profile.base.fc == 0.2
        with pytest.raises(ConfigError):
            parse_config({"profile": {"base": {"ff": 0.1}}})

    def test_sizes_validation(self):
        with pytest.raises(ConfigError):
            parse_config({"clients": {"count": 3}, "partition": {"sizes": [1.0, 2.0]}})
        with pytest.raises(ConfigError):
            parse_config(
                {"clients": {"count": 2}, "partition": {"sizes": [1.0, -2.0]}}
            )
        cfg = parse_config(
            {"clients": {"count": 2, "per_round": 2}, "partition": {"sizes": [1, 3]}}
        )
        assert cfg.partition.sizes == [1, 3]

    def test_echo_dict_round_trips_json(self):
        cfg = parse_config(
            {"strategies": ["fedavg", {"name": "freeze_offload"}],
             "clients": {"count": 4, "per_round": 2,
                         "speed_factors": [0.2, 0.4, 0.6, 0.8]}}
        )
        doc = echo_dict(cfg)
        text = json.dumps(doc, sort_keys=True)
        back = json.loads(text)
        assert back["seed"] == 42
        assert back["clients"]["speed_factors"] == [0.2, 0.4, 0.6, 0.8]
        labels = [s["label"] for s in back["strategies"]]
        assert labels == ["fedavg", "freeze_offload_f1"]
        assert back["profile"]["base"]["bf"] == 0.65


class TestLoadConfig:
    def test_loads_yaml(self, tmp_path):
        path = write_yaml(tmp_path / "exp.yaml", FAST_RAW)
        cfg = load_config(path)
        assert cfg.seed == 7
        assert cfg.clients.count == 6

    def test_bad_yaml_is_config_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("training: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert "not valid YAML" in str(info.value)

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/exp.yaml")


class TestWriteTrace:
    def test_trace_format(self, tmp_path):
        cfg = parse_config(FAST_RAW)
        result = run_experiment(cfg, FedAvg(), seed=7)
        path = write_trace(str(tmp_path), result)
        assert path == trace_path(str(tmp_path), "fedavg", 7)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "round,duration_s,accuracy,dropped,num_offloads"
        assert len(lines) == 1 + cfg.training.rounds
        first = lines[1].split(",")
        assert first[0] == "0"
        # Float fields round-trip exactly through repr.
        assert float(first[1]) == result.traces[0].duration
        assert float(first[2]) == result.traces[0].accuracy


class TestRunCommand:
    def run_cli(self, tmp_path, raw, extra=()):
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        out = tmp_path / "results"
        code = main(["run", "--config", config_path, "--out", str(out),
                     "--workers", "1", *extra])
        return code, out

    def test_writes_all_outputs(self, tmp_path, capsys):
        raw = dict(FAST_RAW, strategies=["fedavg", {"name": "freeze_offload"}])
        code, out = self.run_cli(tmp_path, raw)
        assert code == 0
        captured = capsys.readouterr()
        assert "fedavg seed 7" in captured.out
        assert "freeze_offload_f1 seed 7" in captured.out
        assert (out / "trace_fedavg_7.csv").exists()
        assert (out / "trace_freeze_offload_f1_7.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert {e["strategy"] for e in doc["experiments"]} == {
            "fedavg", "freeze_offload_f1"
        }
        assert doc["aggregates"]["fedavg"]["replicates"] == 1
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["seed"] == 7
        assert echo["training"]["rounds"] == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        code, out = self.run_cli(tmp_path, FAST_RAW)
        assert code == 0
        first_trace = (out / "trace_fedavg_7.csv").read_bytes()
        first_summary = (out / "summary.json").read_bytes()
        code, out = self.run_cli(tmp_path, FAST_RAW)
        assert code == 0
        assert (out / "trace_fedavg_7.csv").read_bytes() == first_trace
        assert (out / "summary.json").read_bytes() == first_summary

    def test_pool_matches_serial(self, tmp_path):
        raw = dict(FAST_RAW, replicates=2,
                   strategies=["fedavg", {"name": "freeze_offload"}])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["run", "--config", config_path, "--out", str(serial),
                     "--workers", "1"]) == 0
        assert main(["run", "--config", config_path, "--out", str(pooled),
                     "--workers", "2"]) == 0
        for name in ["trace_fedavg_7.csv", "trace_fedavg_8.csv",
                     "trace_freeze_offload_f1_7.csv", "summary.json"]:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    def test_worker_counts_write_identical_files(self, tmp_path):
        # Six lanes: one process trains them all in lockstep, two or three
        # split them across workers.
        raw = dict(FAST_RAW, replicates=2,
                   strategies=["fedavg", {"name": "fedprox", "mu": 0.5}, "freeze_offload"])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"w{workers}"
            assert main(["run", "--config", config_path, "--out", str(out),
                         "--workers", workers]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 6 + 2
        assert outputs[0] == outputs[1] == outputs[2]

    def test_negative_workers_exits_1(self, tmp_path, capsys):
        code, out = self.run_cli(tmp_path, FAST_RAW, extra=("--workers", "-5"))
        assert code == 1
        assert "invalid configuration:\n  - workers: must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_and_replicate_overrides(self, tmp_path):
        code, out = self.run_cli(
            tmp_path, FAST_RAW, extra=("--seed", "100", "--replicates", "2")
        )
        assert code == 0
        assert (out / "trace_fedavg_100.csv").exists()
        assert (out / "trace_fedavg_101.csv").exists()
        doc = json.loads((out / "summary.json").read_text())
        assert [e["seed"] for e in doc["experiments"]] == [100, 101]
        assert doc["aggregates"]["fedavg"]["replicates"] == 2

    def test_bad_replicates_value(self, tmp_path):
        code, _ = self.run_cli(tmp_path, FAST_RAW, extra=("--replicates", "0"))
        assert code == 1

    def test_config_error_exits_1(self, tmp_path, capsys):
        raw = dict(FAST_RAW, training={"rounds": 0})
        code, _ = self.run_cli(tmp_path, raw)
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw",
        [
            {"dataset": {"noise_sigma": float("nan")}},
            {"latency": {"dispatch": float("inf")}},
            {"strategies": [{"name": "fedprox", "mu": float("nan")}]},
        ],
        ids=["noise_sigma-nan", "dispatch-inf", "mu-nan"],
    )
    def test_non_finite_float_exits_1(self, tmp_path, capsys, raw):
        code, out = self.run_cli(tmp_path, dict(FAST_RAW, **raw))
        assert code == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("dataset", "samples_per_class", 1e308),
            ("training", "local_updates", 1e308),
            ("training", "hidden_dim", 1e300),
            (None, "seed", 1e300),
        ],
        ids=["samples_per_class", "local_updates", "hidden_dim", "seed"],
    )
    def test_int_outside_int64_exits_1(self, tmp_path, capsys, section, key, value):
        raw = dict(FAST_RAW, dataset=dict(FAST_RAW["dataset"]), training=dict(FAST_RAW["training"]))
        (raw if section is None else raw[section])[key] = value
        code, out = self.run_cli(tmp_path, raw)
        assert code == 1
        assert f"{section or 'top level'}.{key}: expected a 64-bit int" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "flag, value, problem",
        [("--seed", "-1", "seed: must be >= 0, got -1"),
         ("--replicates", "0", "replicates: must be >= 1, got 0")],
    )
    def test_bad_override_is_a_config_error(self, tmp_path, capsys, flag, value, problem):
        code, out = self.run_cli(tmp_path, FAST_RAW, extra=(flag, value))
        assert code == 1
        assert f"invalid configuration:\n  - {problem}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_infeasible_sizes_exit_1(self, tmp_path, capsys):
        raw = dict(FAST_RAW, partition={"sizes": [1, 1, 1, 1, 1, 1000]})
        code, out = self.run_cli(tmp_path, raw)
        assert code == 1
        assert "partition.sizes: the smallest of 6 clients gets 0" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    # 24 training samples in 2 classes: every one of 12 clients needs both,
    # which seed 7's split allows and seed 8's does not.
    UNDRAWABLE = dict(
        FAST_RAW,
        dataset={"num_classes": 2, "samples_per_class": 15, "input_dim": 3},
        clients={"count": 12, "per_round": 3},
        partition={"mode": "noniid", "classes_per_client": 2},
    )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_partition_the_seed_cannot_draw_exits_1(self, tmp_path, capsys, workers):
        for name in ("ok", "bad"):
            (tmp_path / name).mkdir()
        ok, _ = self.run_cli(tmp_path / "ok", dict(self.UNDRAWABLE, seed=7))
        assert ok == 0
        code, _ = self.run_cli(
            tmp_path / "bad", dict(self.UNDRAWABLE, seed=7, replicates=2), extra=("--workers", workers)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid configuration:\n  - partition: could not draw feasible class choices" in err
        assert "(seed 8)" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "section, key", [("training", "learning_rate"), ("dataset", "noise_sigma")]
    )
    def test_diverging_training_exits_1(self, tmp_path, capsys, workers, section, key):
        raw = dict(FAST_RAW, replicates=2, **{section: {**FAST_RAW[section], key: 1e308}})
        code, out = self.run_cli(tmp_path, raw, extra=("--workers", workers))
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid configuration:\n  - training: diverged in round 0 (seed 7):" in err
        assert "non-finite gradient values" in err

    @pytest.mark.parametrize(
        "raw, problem",
        [
            (
                dict(FAST_RAW, profile={"noise_sigma": 1e308}, strategies=["freeze_offload"]),
                "profile.noise_sigma: 1e+308 breaks the profiles in round 0 (seed 7):",
            ),
            (
                dict(FAST_RAW, training=dict(FAST_RAW["training"], hidden_dim=2**62)),
                "stacked models (strategies * replicates * per_round,"
                " max(input_dim, num_classes), hidden_dim):"
                " 2 x 4 x 4611686018427387904 float64 values exceed",
            ),
        ],
        ids=["profile-noise_sigma", "hidden_dim"],
    )
    def test_value_too_large_to_run_exits_1(self, tmp_path, capsys, raw, problem):
        code, out = self.run_cli(tmp_path, raw)
        assert code == 1
        assert f"invalid configuration:\n  - {problem}" in capsys.readouterr().err

    # Workspaces of 2 clients x 8 samples x 5e16 hidden units fit one array,
    # twice that does not.
    WIDE = dict(FAST_RAW, training=dict(FAST_RAW["training"], hidden_dim=5 * 10**16))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_stack_of_the_whole_run_too_large_exits_1(self, tmp_path, capsys, workers):
        parse_config(self.WIDE)  # one lane fits
        code, out = self.run_cli(tmp_path, dict(self.WIDE, replicates=2), extra=("--workers", workers))
        assert code == 1
        assert (
            "invalid configuration:\n  - workspace (strategies * replicates * per_round,"
            " batch_size, hidden_dim): 4 x 8 x 50000000000000000 float64 values exceed"
        ) in capsys.readouterr().err
        assert not out.exists()

    def test_leaves_no_temp_files(self, tmp_path):
        raw = dict(FAST_RAW, replicates=2)
        code, out = self.run_cli(tmp_path, raw)
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "config_echo.json", "summary.json", "trace_fedavg_7.csv", "trace_fedavg_8.csv"
        ]

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "summary.json"
        path.write_text("old\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            cli._write_atomic(str(path), "new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


class TestCompareCommand:
    @pytest.fixture()
    def results_dir(self, tmp_path):
        raw = dict(FAST_RAW, strategies=["fedavg", {"name": "freeze_offload"}])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        out = tmp_path / "results"
        assert main(["run", "--config", config_path, "--out", str(out),
                     "--workers", "1"]) == 0
        return out

    def test_compare_reports_reduction(self, results_dir, capsys):
        capsys.readouterr()
        code = main(["compare", "--out", str(results_dir),
                     "--baseline", "fedavg", "--target", "freeze_offload_f1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "freeze_offload_f1 vs fedavg" in text
        assert "% reduction" in text
        assert "seed 7" in text

    def test_short_flag_spelling(self, results_dir, capsys):
        capsys.readouterr()
        code = main(["compare", "--out", str(results_dir),
                     "--a", "freeze_offload_f1", "--b", "fedavg"])
        assert code == 0
        assert "% reduction" in capsys.readouterr().out

    def test_unknown_label_lists_available(self, results_dir, capsys):
        capsys.readouterr()
        code = main(["compare", "--out", str(results_dir),
                     "--baseline", "fedavg", "--target", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "available: fedavg, freeze_offload_f1" in err

    def test_mismatched_replicates_rejected(self, tmp_path, capsys):
        doc = {"experiments": [
            {"strategy": "a", "seed": 1, "total_time_s": 10.0,
             "final_accuracy": 0.5},
            {"strategy": "a", "seed": 2, "total_time_s": 12.0,
             "final_accuracy": 0.5},
            {"strategy": "b", "seed": 1, "total_time_s": 20.0,
             "final_accuracy": 0.4},
        ]}
        (tmp_path / "summary.json").write_text(json.dumps(doc))
        code = main(["compare", "--out", str(tmp_path), "--a", "a", "--b", "b"])
        assert code == 2
        assert "replicate counts differ" in capsys.readouterr().err

    def test_missing_summary_exits_2(self, tmp_path, capsys):
        code = main(["compare", "--out", str(tmp_path), "--target", "x"])
        assert code == 2
        assert "summary.json" in capsys.readouterr().err


class TestInspectCommand:
    def test_prints_client_table(self, tmp_path, capsys):
        raw = dict(FAST_RAW, strategies=[{"name": "freeze_offload"}])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        code = main(["inspect", "--config", config_path])
        assert code == 0
        text = capsys.readouterr().out
        assert "6 clients" in text
        assert "class counts" in text
        assert "similarity" in text

    def test_json_report(self, tmp_path, capsys):
        raw = dict(FAST_RAW, strategies=[{"name": "freeze_offload"}])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        report = tmp_path / "report.json"
        code = main(["inspect", "--config", config_path, "--json", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["clients"]) == 6
        assert doc["similarity"] is not None
        assert len(doc["similarity"]["client_ids"]) == 6

    def test_similarity_from_freeze_offload_listed_second(self, tmp_path, capsys):
        raw = dict(FAST_RAW, strategies=[{"name": "fedavg"}, {"name": "freeze_offload"}])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        report = tmp_path / "report.json"
        code = main(["inspect", "--config", config_path, "--json", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["similarity"] is not None
        assert len(doc["similarity"]["client_ids"]) == 6
        assert "label-distribution distance" in capsys.readouterr().out

    def test_similarity_null_without_freeze_offload(self, tmp_path, capsys):
        config_path = write_yaml(tmp_path / "exp.yaml", FAST_RAW)
        report = tmp_path / "report.json"
        code = main(["inspect", "--config", config_path, "--json", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["similarity"] is None
        assert "label-distribution distance" not in capsys.readouterr().out

    def test_seed_override_changes_speeds(self, tmp_path, capsys):
        config_path = write_yaml(tmp_path / "exp.yaml", FAST_RAW)
        assert main(["inspect", "--config", config_path, "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["inspect", "--config", config_path, "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second
        assert "seed 1" in first and "seed 2" in second

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        config_path = write_yaml(tmp_path / "exp.yaml", FAST_RAW)
        assert main(["inspect", "--config", config_path, "--seed", "-1"]) == 1
        assert "seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_seed_override_on_empty_document(self, tmp_path, capsys):
        config_path = tmp_path / "empty.yaml"
        config_path.write_text("", encoding="utf-8")
        assert main(["inspect", "--config", str(config_path), "--seed", "3"]) == 0
        assert "seed 3: 24 clients" in capsys.readouterr().out


class TestArgumentErrors:
    def test_no_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        capsys.readouterr()
