import contextlib
import csv
import hashlib
import io
import json
import math
import re
import tempfile
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
import protofed.cli as cli
import protofed.federation as federation
from protofed.cli import (
    COMPARISON_COLUMNS,
    METRICS_COLUMNS,
    CsvSource,
    RunSpec,
    main,
    parse_config,
    run,
)
from helpers import write_nbaiot_layout

FIXTURES = Path(__file__).parent / "fixtures"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def minimal_config(tmp_path, **overrides):
    config = {
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "data": {"synthetic": {"n_classes": 3, "dims": 6, "cluster_spread": 0.05,
                               "samples_per_class": 60, "seed": 1}},
        "partition": {"scenario": "severe", "n_clients": 3},
        "federation": {
            "strategies": ["fedavg"],
            "rounds": 2,
            "trigger_round": 2,
            "train": {"epochs": 1, "batch_size": 16, "learning_rate": 0.005},
            "model": {"hidden": [[8, 0.001], [4, 0.001]], "dropout_p": 0.5},
            "scale_mode": "none",
        },
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        spec = parse_config(minimal_config(tmp_path))
        assert spec.n_clients == 3
        cfg = spec.federation
        assert cfg.threshold == 0.97
        assert cfg.trigger_round == 2
        assert cfg.train.adam_beta1 == 0.9
        assert cfg.aug.target_fraction == 0.10
        assert cfg.model.input_dim == 6

    def test_threshold_invariant_message(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["threshold"] = 1.5
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=r"threshold must be in \(0,1\]"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["rouns"] = 5
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="unknown key 'rouns' in federation"):
            parse_config(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "seed": 3,\n  oops\n}')
        with pytest.raises(ValueError, match="line 3"):
            parse_config(path)

    def test_data_requires_exactly_one_source(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["data"]["csv_dir"] = {"path": "x"}
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="exactly one"):
            parse_config(path)

    def test_committed_severe_fixture_parses_to_three_strategies(self):
        spec = parse_config(FIXTURES / "severe_nonidd.json")
        assert spec.strategies == ("fedavg", "fedprox", "fedp3e")
        assert spec.scenario == "severe"
        assert spec.federation.rounds == 20
        assert spec.federation.train.prox_mu == 0.1
        assert spec.federation.seed == 11

    # Each case is a data section and the source it parses to.
    @pytest.mark.parametrize("data", [
        ({"synthetic": {"n_classes": 2, "dims": 5, "clusters_per_class": 2, "cluster_spread": 0.2,
                        "samples_per_class": 30, "seed": 9}},
         pf.SyntheticSpec(2, 5, 2, 0.2, 30, seed=9)),
        ({"csv_dir": {"path": "captures", "n_features": 4, "class_patterns": [["x", 0], ["y", 1]],
                      "class_names": ["x", "y"]}},
         CsvSource("captures", pf.CsvSchema(4, (("x", 0), ("y", 1)), ("x", "y")))),
    ])
    def test_every_field_round_trips(self, tmp_path, data):
        # Every key is given a value other than its default, so a key the
        # reader skipped or misnamed leaves its field unequal to the expected one.
        section, data = data
        input_dim = data.dims if isinstance(data, pf.SyntheticSpec) else data.schema.n_features
        train = pf.TrainConfig(epochs=3, batch_size=9, learning_rate=0.02, adam_beta1=0.8,
                               adam_beta2=0.99, adam_epsilon=1e-6, prox_mu=0.3)
        federation = pf.FederationConfig(
            rounds=7, train=train, aug=pf.AugmentationPolicy(0.2, "missing_only"), threshold=0.9,
            trigger_round=3, noise_sigma=0.02,
            model=pf.ModelSpec(input_dim, ((7, 0.002), (5, 0.0)), 0.25, 2),
            train_fraction=0.7, scale_mode="global", eval_weighting="uniform",
            gmm_components=2, gmm_max_components=4, global_prototypes_per_class=3,
            aggregate_running_stats=False, seed=8,
        )
        spec = RunSpec(data, "light", 2, federation, ("fedprox", "fedp3e"), "elsewhere",
                       ((5, 6), (7, 8)))
        for obj in (spec, federation, train, federation.aug):
            for f in fields(obj):
                assert getattr(obj, f.name) != f.default, f.name
        config = {
            "seed": 8,
            "output_dir": "elsewhere",
            "data": section,
            "partition": {"scenario": "light", "n_clients": 2, "quotas": [[5, 6], [7, 8]]},
            "federation": {
                "strategies": ["fedprox", "fedp3e"], "rounds": 7, "threshold": 0.9,
                "trigger_round": 3, "noise_sigma": 0.02,
                "train": {"epochs": 3, "batch_size": 9, "learning_rate": 0.02, "adam_beta1": 0.8,
                          "adam_beta2": 0.99, "adam_epsilon": 1e-6, "prox_mu": 0.3},
                "aug": {"target_fraction": 0.2, "eligible_classes": "missing_only"},
                "model": {"hidden": [[7, 0.002], [5, 0.0]], "dropout_p": 0.25},
                "train_fraction": 0.7, "scale_mode": "global", "eval_weighting": "uniform",
                "gmm_components": 2, "gmm_max_components": 4, "global_prototypes_per_class": 3,
                "aggregate_running_stats": False,
            },
        }
        path = tmp_path / "every_field.json"
        path.write_text(json.dumps(config))
        assert parse_config(path) == spec

    @pytest.mark.parametrize("section", ["train", "aug"])
    def test_seed_is_not_a_training_or_augmentation_key(self, tmp_path, section):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"].setdefault(section, {})["seed"] = 4
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"unknown key 'seed' in federation.{section}"):
            parse_config(path)

    def test_explicit_quota_table(self, tmp_path):
        path = minimal_config(tmp_path)
        without = parse_config(path)
        raw = json.loads(path.read_text())
        raw["partition"]["quotas"] = [[40, 0, 0], [0, 40, 0], [0, 0, 40]]
        path.write_text(json.dumps(raw))
        spec = parse_config(path)
        assert spec == replace(without, quotas=((40, 0, 0), (0, 40, 0), (0, 0, 40)))
        assert run(spec) == 0

    def test_quota_client_count_checked(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["partition"]["quotas"] = [[40, 0, 0], [0, 40, 0]]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="quotas cover 2 clients"):
            parse_config(path)

    def test_duplicate_strategy_rejected(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["strategies"] = ["fedavg", "fedavg"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="only once"):
            parse_config(path)


class TestRun:
    def test_outputs_have_documented_schema(self, tmp_path):
        spec = parse_config(minimal_config(tmp_path))
        assert run(spec) == 0
        out = Path(spec.output_dir)
        with open(out / "metrics_fedavg.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == METRICS_COLUMNS
        assert len(rows) - 1 == 2  # one data row per round
        with open(out / "comparison.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == COMPARISON_COLUMNS
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategies"]["fedavg"]["exchange_round"] is None

    def test_exchange_round_lands_in_summary(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["strategies"] = ["fedp3e"]
        raw["federation"]["rounds"] = 3
        path.write_text(json.dumps(raw))
        spec = parse_config(path)
        assert run(spec) == 0
        summary = json.loads((Path(spec.output_dir) / "summary.json").read_text())
        entry = summary["strategies"]["fedp3e"]
        assert entry["exchange_round"] == 2
        assert entry["comm_cost"]["prototype_download_floats_per_client"] > 0

    def test_reruns_are_byte_identical(self, tmp_path):
        digests = []
        for attempt in range(2):
            out = tmp_path / f"attempt{attempt}"
            spec = parse_config(minimal_config(tmp_path, output_dir=str(out)))
            assert run(spec) == 0
            blob = b"".join(
                sorted((p.read_bytes() for p in out.iterdir()), key=len)
            )
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]

    def test_failure_returns_nonzero(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["data"] = {"csv_dir": {"path": str(tmp_path / "no_such_dir")}}
        path.write_text(json.dumps(raw))
        spec = parse_config(path)
        assert run(spec) == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def _class_without_rows(tmp_path, trigger_round):
        """fedavg then fedp3e on two severe clients over three classes, so no
        client holds a row of the third class."""
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["partition"]["n_clients"] = 2
        raw["federation"].update({"strategies": ["fedavg", "fedp3e"], "trigger_round": trigger_round})
        path.write_text(json.dumps(raw))
        return path

    def test_failed_run_leaves_output_dir_untouched(self, tmp_path, capsys):
        # fedavg finishes; fedp3e then fails in its round-2 exchange, which
        # has no prototypes of the third class.
        path = self._class_without_rows(tmp_path, trigger_round=2)
        out = tmp_path / "out"
        out.mkdir()
        earlier = b'{"from": "an earlier run"}\n'
        (out / "summary.json").write_bytes(earlier)
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "round 2, client 0" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert (out / "summary.json").read_bytes() == earlier

    def test_round_one_exchange_without_a_class_fails_before_training(self, tmp_path, capsys,
                                                                        monkeypatch):
        # A round-1 exchange always fires, so its failure is certain.
        calls = []
        monkeypatch.setattr(federation, "train_local", lambda *args, **kwargs: calls.append(args))
        path = self._class_without_rows(tmp_path, trigger_round=1)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: round 1: no client holds a training row of class 'class_2', "
                       "so fedp3e's exchange has no prototypes of it\n")
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestMain:
    def test_run_subcommand(self, tmp_path):
        path = minimal_config(tmp_path)
        out = tmp_path / "cli_out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_severe_fixture_reproduces_reference_hashes(self, tmp_path):
        # A faster path must write the same bytes; the hashes are stated once,
        # in the benchmark's reference file.
        expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["severe3"]
        out = tmp_path / "out"
        config = str(FIXTURES / "severe_nonidd.json")
        assert main(["run", config, "--seed", "11", "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == expected

    def test_shared_class_exchange_reproduces_pinned_hashes(self, tmp_path):
        # Under the light partition every client holds every class, so each
        # class is reclustered from rows of all four uploads; the severe
        # fixture never joins uploads of one class.
        config = {
            "seed": 5,
            "data": {"synthetic": {"n_classes": 3, "dims": 8, "clusters_per_class": 2,
                                   "cluster_spread": 0.15, "samples_per_class": 120, "seed": 7}},
            "partition": {"scenario": "light", "n_clients": 4},
            "federation": {"strategies": ["fedp3e"], "rounds": 3, "trigger_round": 2,
                           "train": {"epochs": 3, "learning_rate": 0.02},
                           "model": {"hidden": [[8, 0.001]]}, "scale_mode": "local"},
        }
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == {
            "comparison.csv": "456cd161ecf58c4596c91e22c7602f741ca6877a1f2531ad1dca73f46c5ea208",
            "metrics_fedp3e.csv": "73886958af4726bd214a95754829e7efd8c020b3da4eb081c87b122dcd6abd30",
            "summary.json": "f75f3d90d2cfa84069a1c72583cdb2b2cb3a8832e090badfc6b7831c69092b6a",
        }

    def test_csv_dir_exchange_reproduces_pinned_hashes(self, tmp_path):
        # The CSV loader and 115-dimensional EM on the path a real N-BaIoT run
        # takes: device files on disk, local scaling, the exchange in round 1.
        write_nbaiot_layout(tmp_path / "nbaiot", seed=8)
        config = {
            "seed": 11,
            "data": {"csv_dir": {"path": str(tmp_path / "nbaiot")}},
            "partition": {"scenario": "moderate", "n_clients": 3},
            "federation": {"strategies": ["fedp3e"], "rounds": 2, "trigger_round": 1,
                           "train": {"epochs": 1}, "scale_mode": "local"},
        }
        path = tmp_path / "nbaiot.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategies"]["fedp3e"]["exchange_round"] == 1
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == {
            "comparison.csv": "aaa6a4f417ba400edc470084a25aa37f0f16817d9c2a093bd65ffc6cdce36d3e",
            "metrics_fedp3e.csv": "8c9d45227f09ce26e3dcc407197dc3ea69bfc12adb8b36c2d5c9e90abd93530f",
            "summary.json": "5e1798feb4c865640d1b00e5baaab07daf8e6bdb6998114b5a5ef40886e6097e",
        }

    def test_light_partition_twelve_clients_reproduces_pinned_hashes(self, tmp_path):
        # The benchmark's light12 shape cut to the fixture's six-round
        # trigger: twelve small clients that all hold every class.
        config = json.loads((FIXTURES / "severe_nonidd.json").read_text(encoding="utf-8"))
        config["data"]["synthetic"]["clusters_per_class"] = 2
        config["partition"] = {"scenario": "light", "n_clients": 12}
        config["federation"].update(strategies=["fedavg", "fedprox"], rounds=6)
        config["federation"]["train"]["epochs"] = 2
        path = tmp_path / "light12.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == {
            "comparison.csv": "13ae38102293a2fa7fcd075fb44ae279a6a050bb42dbb832f358864cb0c7e8ea",
            "metrics_fedavg.csv": "f0cd9384bb4fd0d22ecc54452e32d637db33ae9a3ae7312a4f6398a48036aaf6",
            "metrics_fedprox.csv": "e30b4f5df3df07c8a28598d6fa29db4463e2eda130dee0b0a4d6d49404c8581d",
            "summary.json": "a82c5edf321488ceadb66680cfaaff99bfd15e740f94ea753755ef670a6b7e9d",
        }

    def test_loaded_dataset_released_before_first_run(self, tmp_path, monkeypatch):
        # neither the loaded matrix nor the client shards outlive the split
        loaded, alive = [], []
        synthesize, partition, run_federation = cli.synthesize, cli.partition, cli.run_federation

        def recording_synthesize(spec):
            ds = synthesize(spec)
            loaded.extend([weakref.ref(ds), weakref.ref(ds.features)])
            return ds

        def recording_partition(ds, plan, seed):
            shards = partition(ds, plan, seed)
            loaded.extend(weakref.ref(shard.features) for shard in shards)
            return shards

        def checking_run_federation(cfg, clients, strategy):
            if not alive:
                alive.append([ref() is not None for ref in loaded])
            return run_federation(cfg, clients, strategy)

        monkeypatch.setattr(cli, "synthesize", recording_synthesize)
        monkeypatch.setattr(cli, "partition", recording_partition)
        monkeypatch.setattr(cli, "run_federation", checking_run_federation)
        assert main(["run", str(minimal_config(tmp_path))]) == 0
        assert alive == [[False] * 5]

    def test_training_holds_about_one_copy_of_the_data(self, tmp_path, monkeypatch):
        data = {"synthetic": {"n_classes": 3, "dims": 50, "cluster_spread": 0.05,
                              "samples_per_class": 2000, "seed": 1}}
        path = minimal_config(tmp_path, data=data, partition={"scenario": "light", "n_clients": 4})
        raw = json.loads(path.read_text())
        raw["federation"].update(strategies=["fedavg", "fedprox"], rounds=1, trigger_round=1)
        raw["federation"]["train"]["prox_mu"] = 0.01
        path.write_text(json.dumps(raw))
        shard_bytes, live = [], []
        partition, train_local = cli.partition, federation.train_local

        def measuring_partition(ds, plan, seed):
            shards = partition(ds, plan, seed)
            shard_bytes.append(sum(shard.features.nbytes for shard in shards))
            return shards

        def measuring_train_local(*args, **kwargs):
            if not live:
                live.append(tracemalloc.get_traced_memory()[0] - before)
                tracemalloc.stop()
            return train_local(*args, **kwargs)

        monkeypatch.setattr(cli, "partition", measuring_partition)
        monkeypatch.setattr(federation, "train_local", measuring_train_local)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        finally:
            tracemalloc.stop()
        # the splits are one copy of the shards; the shards themselves are gone
        assert live[0] <= 1.5 * shard_bytes[0]

    def test_seed_override(self, tmp_path):
        path = minimal_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", str(path), "--out", str(out_a), "--seed", "99"]) == 0
        assert main(["run", str(path), "--out", str(out_b)]) == 0
        a = json.loads((out_a / "summary.json").read_text())
        b = json.loads((out_b / "summary.json").read_text())
        assert a["seed"] == 99 and b["seed"] == 3

    def test_strategy_filter(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["strategies"] = ["fedavg", "fedp3e"]
        path.write_text(json.dumps(raw))
        out = tmp_path / "filtered"
        assert main(["run", str(path), "--out", str(out), "--strategies", "fedp3e"]) == 0
        assert (out / "metrics_fedp3e.csv").exists()
        assert not (out / "metrics_fedavg.csv").exists()

    def test_unknown_strategy_filter_fails(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        assert main(["run", str(path), "--strategies", "fedsgd"]) == 2
        assert "not part of this config" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value, expected", [
        ("federation", "rounds", None, "federation.rounds: expected int, got null"),
        ("federation", "train", 5, "federation.train: expected object, got 5"),
        ("federation", "aggregate_running_stats", "false",
         'federation.aggregate_running_stats: expected bool, got "false"'),
        ("partition", "quotas", 5, "partition.quotas: expected"),
        # Adam's step is 0/0 at these values, so training would only fail later
        ("federation.train", "adam_beta1", 1.0, "adam_beta1 must be in [0, 1), got 1.0"),
        ("federation.train", "adam_beta2", 1.0, "adam_beta2 must be in [0, 1), got 1.0"),
        ("federation.train", "adam_epsilon", 0, "adam_epsilon must be > 0, got 0.0"),
        # json.loads takes these literals, and each passes its key's range check
        ("federation.train", "prox_mu", math.nan, "federation.train.prox_mu: expected float, got NaN"),
        ("federation.train", "learning_rate", math.nan,
         "federation.train.learning_rate: expected float, got NaN"),
        ("federation", "noise_sigma", math.nan, "federation.noise_sigma: expected float, got NaN"),
        ("federation", "noise_sigma", math.inf, "federation.noise_sigma: expected float, got Infinity"),
        ("federation.model", "hidden", [[8, math.nan]], "federation.model.hidden: expected float, got NaN"),
    ], ids=["rounds-null", "train-number", "bool-string", "quotas-number",
            "beta1-one", "beta2-one", "epsilon-zero",
            "prox-mu-nan", "learning-rate-nan", "noise-sigma-nan", "noise-sigma-inf", "hidden-nan"])
    def test_mistyped_value_is_a_usage_error(self, tmp_path, capsys, section, key, value, expected):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["strategies"] = ["fedavg", "fedprox"]
        raw["federation"]["train"]["prox_mu"] = 0.1
        target = raw
        for name in section.split("."):
            target = target[name]
        target[key] = value
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {expected}" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("gmm_components", 0), ("global_prototypes_per_class", 0), ("global_prototypes_per_class", -1),
    ])
    def test_non_positive_prototype_count_is_a_usage_error(self, tmp_path, capsys, key, value):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"].update({"strategies": ["fedp3e"], key: value})
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_clients_is_a_usage_error(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["partition"]["n_clients"] = 0
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "error: n_clients must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err


@st.composite
def small_configs(draw):
    """A tiny run config over every scenario, scale mode and strategy.

    Adam's values fall on both sides of their bounds, a training value may
    be NaN, and fedprox may come without a proximal weight, so some configs
    are usage errors.
    """
    rounds = draw(st.integers(1, 2))
    adam = {"adam_beta1": draw(st.sampled_from([0.0, 0.5, 0.9, 0.999])),
            "adam_beta2": draw(st.sampled_from([0.0, 0.9, 0.999, 0.999999])),
            "adam_epsilon": draw(st.sampled_from([1e-300, 1e-7, 1.0]))}
    beyond = {"adam_beta1": [1.0, 1.5, -0.1], "adam_beta2": [1.0, -0.1], "adam_epsilon": [0.0, -1e-7]}
    key = draw(st.sampled_from([None, None, None, *beyond]))
    if key is not None:
        adam[key] = draw(st.sampled_from(beyond[key]))
    train = {
        "epochs": 1,
        "batch_size": draw(st.sampled_from([4, 32])),
        "learning_rate": draw(st.sampled_from([0.005, 0.5, 10.0])),
        **adam,
        "prox_mu": draw(st.sampled_from([0.0, 0.1, 0.1])),
    }
    key = draw(st.sampled_from([None, None, None, None, "learning_rate", "prox_mu", *adam]))
    if key is not None:
        train[key] = math.nan
    return {
        "seed": draw(st.integers(0, 1000)),
        "data": {"synthetic": {"n_classes": draw(st.integers(2, 4)), "dims": 3,
                               "cluster_spread": draw(st.sampled_from([0.05, 1.0])),
                               "samples_per_class": draw(st.integers(4, 30)),
                               "seed": draw(st.integers(0, 1000))}},
        "partition": {"scenario": draw(st.sampled_from(pf.datasets.SCENARIOS)),
                      "n_clients": draw(st.integers(1, 7))},
        "federation": {
            "strategies": draw(st.lists(st.sampled_from(federation.STRATEGIES),
                                        min_size=1, max_size=3, unique=True)),
            "rounds": rounds,
            "trigger_round": draw(st.integers(1, rounds)),
            "train": train,
            "aug": {"eligible_classes": draw(st.sampled_from(["missing_only", "below_mean_count", "all"]))},
            "model": {"hidden": [[4, 0.001]], "dropout_p": draw(st.sampled_from([0.0, 0.5]))},
            "scale_mode": draw(st.sampled_from(["local", "global", "none"])),
        },
    }


def _run_main(config: Path, out: Path) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", str(config), "--out", str(out)])
    return code, err.getvalue()


def _finite_cells(path: Path) -> bool:
    """Every cell of a CSV is a finite number, a strategy name or empty."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    for cell in (cell for row in rows for cell in row):
        if cell in federation.STRATEGIES or cell == "":
            continue
        if not math.isfinite(float(cell)):
            return False
    return True


class TestExitContract:
    @settings(max_examples=60, deadline=None)
    @given(small_configs())
    def test_generated_configs_keep_the_exit_contract(self, config):
        train = config["federation"]["train"]
        usage_error = (
            not (0.0 <= train["adam_beta1"] < 1.0 and 0.0 <= train["adam_beta2"] < 1.0)
            or train["adam_epsilon"] <= 0
            or any(map(math.isnan, train.values()))
            or ("fedprox" in config["federation"]["strategies"] and train["prox_mu"] == 0)
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "config.json", Path(tmp) / "out"
            path.write_text(json.dumps(config))
            code, err = _run_main(path, out)
            assert "Traceback" not in err
            if usage_error or code == 2:
                assert code == 2, err
                assert len(err.splitlines()) == 1 and err.startswith("error: "), err
                assert not out.exists()
            elif code == 1:
                assert re.search(r"\b(client|round) \d+", err), err
                assert not out.exists()
            else:
                assert code == 0, err
                strategies = config["federation"]["strategies"]
                names = {f"metrics_{s}.csv" for s in strategies} | {"comparison.csv", "summary.json"}
                assert {p.name for p in out.iterdir()} == names
                assert all(_finite_cells(out / name) for name in names if name.endswith(".csv"))
                again = Path(tmp) / "again"
                assert _run_main(path, again) == (0, "")
                assert all((out / n).read_bytes() == (again / n).read_bytes() for n in names)


class TestRunSpecValidation:
    def test_needs_at_least_one_config(self):
        data = pf.SyntheticSpec(2, 3, 1, 0.1, 10, seed=0)
        with pytest.raises(ValueError, match="at least one strategy"):
            RunSpec(data, "iid", 2, pf.FederationConfig(), (), "out")
