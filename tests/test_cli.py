"""Tests for config parsing and the command line interface."""

import ctypes
import errno
import functools
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import yaml

import fedsim
from fedsim import cli, engine
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
    run_experiments,
)
from fedsim.model import Batch, forward_logits, init_model
from fedsim.profiling import DEFAULT_BASE_TIMINGS
from fedsim.similarity import HistogramDistances, SimilarityOracle

from reference import mapped_openblas

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


def openblas():
    """(get_num_threads, set_num_threads) of the first OpenBLAS mapped into
    this process that exports a setter `cli` knows, or None."""
    mapped = mapped_openblas()
    if mapped is None:
        return None
    lib, name = mapped
    get, set_ = getattr(lib, name.replace("_set_", "_get_")), getattr(lib, name)
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def threads_after_limit():
    """In a pool worker: limit BLAS as `run` does, then read its threads
    (None without OpenBLAS)."""
    cli._one_openblas_thread()
    blas = openblas()
    return None if blas is None else blas[0]()


def threads_around_limit():
    """In a pool worker: the threads of this process before and after it
    limits BLAS as `run` does."""
    before = len(os.listdir("/proc/self/task"))
    cli._one_openblas_thread()
    return before, len(os.listdir("/proc/self/task"))


class TestParseConfig:
    def test_empty_document_uses_defaults(self):
        cfg = parse_config({})
        assert cfg.clients.count == 24
        assert cfg.clients.per_round == 3
        assert cfg.training.rounds == 100
        assert cfg.training.local_updates == 16
        assert cfg.profile.base == DEFAULT_BASE_TIMINGS
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
            # A round's batches, where no one of the two counts is too large.
            ({"training": {"local_updates": 2**40, "batch_size": 2**30}}, "batches (local_updates"),
            ({"training": {"local_updates": 2**62, "batch_size": 1}}, "batches (local_updates"),
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
        # Only freeze_offload profiles, so one local update (FedSGD) runs
        # under every other strategy.
        cfg = parse_config(
            dict(FAST_RAW, training=dict(FAST_RAW["training"], local_updates=1),
                 strategies=["fedavg", "fedprox", "fednova", {"name": "tifl", "tiers": 2},
                             "deadline"])
        )
        results = run_experiments(cfg, [(s, cfg.seed) for s in cfg.strategies])
        assert [len(r.traces) for r in results] == [2] * 5
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

    def test_pool_deals_each_worker_a_seed_major_slice(self, tmp_path, monkeypatch, capsys):
        # Nine lanes over three seeds on two workers: contiguous slices of the
        # lanes in seed-major order put only the seed the split falls inside
        # in both workers, so 4 (worker, seed) pairs build seed data, not 6.
        held = set()

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, groups):
                groups = list(groups)
                held.update((w, seed) for w, (_, lanes, _) in enumerate(groups) for _, seed in lanes)
                return map(fn, groups)

        raw = dict(FAST_RAW, replicates=3, strategies=["fedavg", "fednova", "freeze_offload"])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            if workers == "2":
                monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
            assert main(["run", "--config", config_path, "--out", str(out),
                         "--workers", workers]) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert sorted(held) == [(0, 7), (0, 8), (1, 8), (1, 9)]
        assert outputs[0] == outputs[1]

    def test_zero_workers_counts_the_affinity_cpus(self, tmp_path, monkeypatch):
        # Pinned to one CPU, `--workers 0` runs every lane in this process,
        # however many CPUs the machine has.
        def no_pool(*args, **kwargs):
            raise AssertionError("a pinned run started a process pool")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        raw = dict(FAST_RAW, replicates=2)
        code, out = self.run_cli(tmp_path, raw, extra=("--workers", "0"))
        assert code == 0
        assert (out / "trace_fedavg_7.csv").exists() and (out / "trace_fedavg_8.csv").exists()

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

    def test_unknown_names_listed_in_document_order(self, tmp_path):
        # In child processes with two string hash seeds: iterating a set of
        # the keys would list them in a different order under each.
        path = tmp_path / "exp.yaml"
        path.write_text("aa: 1\nbb: 2\ncc: 3\nclients: {zz: 1, yy: 2, count: 8}\n",
                        encoding="utf-8")
        src = os.path.dirname(os.path.dirname(fedsim.__file__))
        errs = []
        for hash_seed in ("0", "1"):
            done = subprocess.run(
                [sys.executable, "-m", "fedsim.cli", "run", "--workers", "1",
                 "--config", str(path), "--out", str(tmp_path / "out")],
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 1, done.stderr
            errs.append(done.stderr)
        assert errs[0] == errs[1]
        assert errs[0] == (
            "error: invalid configuration:\n"
            "  - top level: unknown section 'aa'\n"
            "  - top level: unknown section 'bb'\n"
            "  - top level: unknown section 'cc'\n"
            "  - clients: unknown key 'zz'\n"
            "  - clients: unknown key 'yy'\n"
        )

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

    # Seed 9's fedavg lane and seed 10's deadline lane diverge in round 0;
    # seed 9's deadline lane does not.
    DIVERGING_LANES = {
        "dataset": {"num_classes": 3, "samples_per_class": 20, "input_dim": 2,
                    "noise_sigma": 1.0e308},
        "clients": {"count": 6, "per_round": 3},
        "training": {"rounds": 1, "local_updates": 2, "batch_size": 4, "hidden_dim": 4},
        "strategies": [{"name": "deadline", "multiplier": 0.5}, "fedavg"],
        "seed": 9,
        "replicates": 2,
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serial_and_pooled_name_the_same_diverged_lane(self, tmp_path, capsys, workers):
        # Serial and pooled runs order the lanes seed-major alike, so both
        # name seed 9's fedavg lane rather than the deadline lane of seed 10,
        # which comes first in task order.
        code, _ = self.run_cli(tmp_path, self.DIVERGING_LANES, extra=("--workers", workers))
        assert code == 1
        assert "training: diverged in round 0 (seed 9):" in capsys.readouterr().err

    # The gradients stay finite; lr * g overflows on a member's last step.
    OVERFLOWING = {
        "dataset": {"num_classes": 3, "samples_per_class": 20, "input_dim": 2},
        "clients": {"count": 6, "per_round": 4},
        "training": {
            "rounds": 1,
            "local_updates": 2,
            "batch_size": 4,
            "hidden_dim": 4,
            "learning_rate": 1.0e300,
        },
        "strategies": ["fedprox"],
        "seed": 1,
    }

    def test_step_that_overflows_exits_1(self, tmp_path, capsys):
        code, out = self.run_cli(tmp_path, self.OVERFLOWING)
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid configuration:\n  - training: diverged in round 0 (seed 1):" in err
        assert not (out / "summary.json").exists()

    def test_step_that_overflows_prints_no_numpy_warning(self, tmp_path):
        # In a child process, whose stderr shows numpy's warnings as a user
        # sees them; the step's own check reports the divergence.
        src = os.path.dirname(os.path.dirname(fedsim.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "fedsim.cli", "run", "--workers", "1",
             "--config", write_yaml(tmp_path / "exp.yaml", self.OVERFLOWING),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert "training: diverged in round 0 (seed 1)" in done.stderr
        assert "Warning" not in done.stderr

    def test_tiny_batches_against_a_long_dispatch_run(self, tmp_path, capsys):
        # Batch times of 4e-300 s against a 1e10 s dispatch latency: the count
        # of batches a weak client has run when the schedule arrives is
        # (1e10 / 4e-300), which overflows a float.
        raw = {
            "dataset": {"num_classes": 3, "samples_per_class": 20, "input_dim": 2},
            "clients": {"count": 6, "per_round": 4},
            "training": {"rounds": 2, "local_updates": 4, "batch_size": 4, "hidden_dim": 4},
            "profile": {"base": {"ff": 1.0e-300, "fc": 1.0e-300, "bc": 1.0e-300, "bf": 1.0e-300}},
            "latency": {"dispatch": 1.0e10},
            "strategies": ["freeze_offload"],
            "seed": 1,
        }
        code, out = self.run_cli(tmp_path, raw)
        assert code == 0, capsys.readouterr().err
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "raw, problem",
        [
            (
                dict(FAST_RAW,
                     strategies=[{"name": "freeze_offload", "profile_noise_sigma": 1e308}]),
                "strategies: freeze_offload_f1 profile_noise_sigma 1e+308 breaks the profiles"
                " in round 0 (seed 7):",
            ),
            (
                dict(FAST_RAW, training=dict(FAST_RAW["training"], hidden_dim=2**62)),
                "stacked models (strategies * replicates * per_round,"
                " max(input_dim, num_classes), hidden_dim):"
                " 2 x 4 x 4611686018427387904 float64 values exceed",
            ),
            (
                dict(FAST_RAW, training=dict(FAST_RAW["training"], local_updates=2**40,
                                             batch_size=2**30)),
                "batches (local_updates, strategies * replicates * per_round, batch_size)"
                " of sample indices: 1099511627776 x 2 x 1073741824 int64 values exceed",
            ),
        ],
        ids=["profile-noise_sigma", "hidden_dim", "local_updates-batch_size"],
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

    @pytest.mark.parametrize(
        "config, out, code, culprit",
        [
            ("exp.yaml", "file", errno.EEXIST, "out"),
            ("exp.yaml", "file/sub", errno.ENOTDIR, "out"),
            (".", "o", errno.EISDIR, "config"),
        ],
        ids=["out-is-a-file", "out-below-a-file", "config-is-a-directory"],
    )
    def test_os_error_on_a_named_path_exits_2(self, tmp_path, capsys, config, out, code, culprit):
        write_yaml(tmp_path / "exp.yaml", FAST_RAW)
        (tmp_path / "file").write_text("")
        paths = {"config": str(tmp_path / config), "out": str(tmp_path / out)}
        assert main(["run", "--config", paths["config"], "--out", paths["out"]]) == 2
        expected = OSError(code, os.strerror(code), paths[culprit])
        assert capsys.readouterr().err == f"error: {expected}\n"


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

    def test_replicates_on_different_seeds_rejected(self, tmp_path, capsys):
        row = {"strategy": "a", "seed": 1, "total_time_s": 10.0, "final_accuracy": 0.5}
        doc = {"experiments": [
            row, dict(row, seed=2), dict(row, strategy="b"), dict(row, strategy="b", seed=3),
        ]}
        (tmp_path / "summary.json").write_text(json.dumps(doc))
        code = main(["compare", "--out", str(tmp_path), "--a", "a", "--b", "b"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "seeds differ (a: [1, 2], b: [1, 3])" in err

    def test_missing_summary_exits_2(self, tmp_path, capsys):
        code = main(["compare", "--out", str(tmp_path), "--target", "x"])
        assert code == 2
        assert "summary.json" in capsys.readouterr().err

    def compare_malformed(self, tmp_path, capsys, text):
        """Exit code and stderr of `compare` on a summary.json holding `text`,
        which must print nothing to stdout."""
        (tmp_path / "summary.json").write_text(text)
        code = main(["compare", "--out", str(tmp_path), "--a", "a", "--b", "b"])
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: {tmp_path / 'summary.json'}: ")
        return code, err

    def test_non_json_summary_exits_2(self, tmp_path, capsys):
        code, err = self.compare_malformed(tmp_path, capsys, "{not json")
        assert code == 2
        assert "not valid JSON" in err

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        code, err = self.compare_malformed(tmp_path, capsys, "[]")
        assert code == 2
        assert 'expected an object with an "experiments" list' in err

    def test_entry_without_total_time_exits_2_before_printing(self, tmp_path, capsys):
        row = {"strategy": "a", "seed": 1, "final_accuracy": 0.5}
        doc = {"experiments": [row, dict(row, strategy="b", total_time_s=3.0)]}
        code, err = self.compare_malformed(tmp_path, capsys, json.dumps(doc))
        assert code == 2
        assert "experiments[0] has no 'total_time_s'" in err

    def test_seed_listed_twice_under_one_label_exits_2(self, tmp_path, capsys):
        row = {"strategy": "a", "seed": 1, "total_time_s": 10.0, "final_accuracy": 0.5}
        doc = {"experiments": [
            row, dict(row, total_time_s=30.0), dict(row, strategy="b"),
            dict(row, strategy="b", seed=2),
        ]}
        code, err = self.compare_malformed(tmp_path, capsys, json.dumps(doc))
        assert code == 2
        assert "experiments[1] repeats seed 1 of 'a'" in err

    def test_non_numeric_total_time_exits_2(self, tmp_path, capsys):
        row = {"strategy": "a", "seed": 1, "total_time_s": "3", "final_accuracy": 0.5}
        code, err = self.compare_malformed(tmp_path, capsys, json.dumps({"experiments": [row]}))
        assert code == 2
        assert "experiments[0].total_time_s must be a positive number, got '3'" in err


class TestInspectCommand:
    def test_builds_no_model(self, tmp_path, monkeypatch, capsys):
        # inspect reads only the seed's data: no lane state and no model.
        def refuse(*args, **kwargs):
            raise AssertionError("inspect built a model")

        monkeypatch.setattr(engine, "init_model", refuse)
        raw = dict(FAST_RAW, strategies=["fedavg", "tifl", {"name": "freeze_offload"}])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        report = tmp_path / "report.json"
        assert main(["inspect", "--config", config_path, "--json", str(report)]) == 0
        assert json.loads(report.read_text())["similarity"] is not None

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

    def test_similarity_computed_once_for_several_freeze_offload_entries(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        compute = SimilarityOracle.compute_matrix

        def counting(oracle):
            calls.append(oracle)
            return compute(oracle)

        monkeypatch.setattr(SimilarityOracle, "compute_matrix", counting)
        raw = dict(FAST_RAW, strategies=[
            {"name": "freeze_offload"},
            {"name": "fedavg"},
            {"name": "freeze_offload", "similarity_factor": 0.5},
        ])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        assert main(["inspect", "--config", config_path]) == 0
        assert len(calls) == 1
        assert "label-distribution distance" in capsys.readouterr().out

    def test_json_in_missing_directory_names_the_path(self, tmp_path, capsys):
        config_path = write_yaml(tmp_path / "exp.yaml", FAST_RAW)
        report = tmp_path / "missing" / "report.json"
        assert main(["inspect", "--config", config_path, "--json", str(report)]) == 2
        expected = OSError(errno.ENOENT, os.strerror(errno.ENOENT), str(report))
        assert capsys.readouterr().err == f"error: {expected}\n"

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

    def test_json_table_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys):
        def no_memory(self):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(HistogramDistances, "values", property(no_memory))
        # Over 16 clients, so that only --json asks for the table.
        raw = dict(FAST_RAW, clients={"count": 20, "per_round": 2},
                   strategies=[{"name": "freeze_offload"}])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        report = tmp_path / "report.json"
        assert main(["inspect", "--config", config_path, "--json", str(report)]) == 1
        err = capsys.readouterr().err
        assert "out of memory building the 20 x 20 similarity table for --json" in err
        assert not report.exists()


class TestOutOfMemory:
    def test_building_seed_data_exits_1(self, tmp_path, monkeypatch, capsys):
        def no_memory(**kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(engine, "generate_synthetic", no_memory)
        config_path = write_yaml(tmp_path / "exp.yaml", FAST_RAW)
        assert main(["run", "--config", config_path, "--out", str(tmp_path / "out"),
                     "--workers", "1"]) == 1
        err = capsys.readouterr().err
        assert "out of memory building the dataset of seed 7 and its partition:" in err
        assert "160 samples x 4 inputs over 6 clients" in err

    @staticmethod
    def run_limited(tmp_path, raw, *args):
        """`fedsim` in a child process whose address space is capped at 3 GB."""
        resource = pytest.importorskip("resource")
        cap = 3 * 10**9

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        src = os.path.dirname(os.path.dirname(fedsim.__file__))
        return subprocess.run(
            [sys.executable, "-m", "fedsim.cli", *args,
             "--config", write_yaml(tmp_path / "exp.yaml", raw)],
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit,
            capture_output=True, text=True, timeout=300,
        )

    def test_huge_dataset_exits_1(self, tmp_path):
        done = self.run_limited(tmp_path, {"dataset": {"samples_per_class": 10**9}},
                                "run", "--out", str(tmp_path / "out"), "--workers", "1")
        assert done.returncode == 1, done.stderr
        assert "out of memory building the dataset of seed 42" in done.stderr

    @pytest.mark.parametrize(
        "training, problem",
        [
            (
                {"hidden_dim": 10**8},
                "out of memory building the fedavg model of seed 42: 8 inputs,"
                " 100000000 hidden units and 10 classes (14.16 GiB)",
            ),
            (
                {"batch_size": 10**8},
                "out of memory building round 0's training: 3 stacked models of 618"
                " parameters and 16 batches of 100000000 samples",
            ),
        ],
        ids=["hidden_dim", "batch_size"],
    )
    def test_huge_model_or_batches_exit_1(self, tmp_path, training, problem):
        done = self.run_limited(tmp_path, {"training": training},
                                "run", "--out", str(tmp_path / "out"), "--workers", "1")
        assert done.returncode == 1, done.stderr
        assert problem in done.stderr

    def test_thirty_thousand_clients_run_and_inspect_json(self, tmp_path):
        # The whole 30 000 x 30 000 table would take 6.7 GiB: a run never
        # builds it, and inspect --json, which has to, exits 1.
        raw = {
            "dataset": {"num_classes": 10, "samples_per_class": 4000, "input_dim": 2},
            "clients": {"count": 30000, "per_round": 20},
            "training": {"rounds": 2, "local_updates": 4, "batch_size": 1, "hidden_dim": 8},
            "strategies": [{"name": "freeze_offload"}],
        }
        done = self.run_limited(tmp_path, raw, "run", "--out", str(tmp_path / "out"),
                                "--workers", "1")
        assert done.returncode == 0, done.stderr
        done = self.run_limited(tmp_path, raw, "inspect", "--json", str(tmp_path / "r.json"))
        assert done.returncode == 1, done.stderr
        assert "out of memory building the 30000 x 30000 similarity table" in done.stderr


class TestOpenBlasThreads:
    """Each process that trains for `run` sets OpenBLAS to one thread."""

    def test_run_leaves_one_thread_and_the_library_none(self, tmp_path):
        # In a child interpreter, because any `run` in this one has already
        # limited its BLAS. The child first sets two threads, so that a
        # library call that touched them would show.
        if openblas() is None:
            pytest.skip("no OpenBLAS mapped")
        child = (
            "import sys\n"
            "from test_cli import openblas\n"
            "from fedsim import cli, config, engine\n"
            "get, set_ = openblas()\n"
            "set_(2)\n"
            "cfg = config.load_config(sys.argv[3])\n"
            "engine.run_experiment(cfg, cfg.strategies[0], cfg.seed)\n"
            "library = get()\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, library, get())\n"
        )
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(fedsim.__file__))
        done = subprocess.run(
            [sys.executable, "-c", child, "run", "--config",
             write_yaml(tmp_path / "exp.yaml", FAST_RAW), "--out", str(tmp_path / "out"),
             "--workers", "1"],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 2 1"

    def test_without_maps_does_nothing(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"opened {path}")

        monkeypatch.setattr(cli, "_MAPS", str(tmp_path / "missing"))
        monkeypatch.setattr(cli.ctypes, "CDLL", refuse)
        assert cli._one_openblas_thread() is None

    def test_without_setter_does_nothing(self, tmp_path, monkeypatch):
        # Only mapped files named like OpenBLAS are opened, each once; a
        # library with no known setter is left alone.
        maps = tmp_path / "maps"
        maps.write_text(
            "7f00-7f01 r-xp 00000000 08:01 11 /usr/lib/libopenblasp-r0.3.so\n"
            "7f01-7f02 r--p 00001000 08:01 11 /usr/lib/libopenblasp-r0.3.so\n"
            "7f02-7f03 r-xp 00000000 08:01 12 /usr/lib/libm.so.6\n"
            "7f03-7f04 rw-p 00000000 00:00 0\n"
            "7f04-7f05 rw-p 00000000 00:00 0 [heap]\n"
        )
        opened = []

        class NoSetter:
            def __init__(self, path):
                opened.append(path)

        monkeypatch.setattr(cli, "_MAPS", str(maps))
        monkeypatch.setattr(cli.ctypes, "CDLL", NoSetter)
        assert cli._one_openblas_thread() is None
        assert opened == ["/usr/lib/libopenblasp-r0.3.so"]

    def test_forward_logits_same_bytes_at_one_and_two_threads(self):
        # What the limit rests on: OpenBLAS splits a product's output among
        # threads, never its inner sums, so its thread count changes no bits.
        blas = openblas()
        if blas is None or cli._usable_cpus() < 2:
            pytest.skip("needs OpenBLAS and at least 2 usable CPUs")
        get, set_ = blas
        model = init_model(8, 32, 10, seed=3)
        rng = np.random.default_rng(5)
        batch = Batch(inputs=rng.standard_normal((8000, 8)), labels=rng.integers(0, 10, 8000))
        before = get()
        try:
            logits = []
            for threads in (1, 2):
                set_(threads)
                assert get() == threads
                logits.append(forward_logits(model, batch)[1].tobytes())
        finally:
            set_(before)
        assert logits[0] == logits[1]

    def test_forked_worker_of_a_limited_process_starts_no_thread(self):
        # `run` limits its own process before it forks the pool. A forked
        # worker then reads one thread and leaves it be: setting the count
        # there would restart OpenBLAS's helper thread, which then spins.
        if openblas() is None or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs OpenBLAS and /proc/self/task")
        cli._one_openblas_thread()
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
            before, after = pool.submit(threads_around_limit).result(timeout=300)
        assert after == before

    def test_spawn_pool_writes_the_serial_files_and_limits_blas(self, tmp_path, monkeypatch):
        # A spawned worker inherits nothing through fork, as under
        # Python 3.14's default `forkserver`: it must limit BLAS itself.
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            cli, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=spawn)
        )
        raw = dict(FAST_RAW, replicates=2, strategies=["fedavg", "freeze_offload"])
        config_path = write_yaml(tmp_path / "exp.yaml", raw)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["run", "--config", config_path, "--out", str(out),
                         "--workers", workers]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 4 + 2
        assert outputs[0] == outputs[1]
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            threads = pool.submit(threads_after_limit).result(timeout=300)
        assert threads == (None if openblas() is None else 1)


class TestArgumentErrors:
    def test_no_command_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2
        capsys.readouterr()
