import csv
import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest

import protofed as pf
from protofed.cli import (
    COMPARISON_COLUMNS,
    METRICS_COLUMNS,
    CsvSource,
    RunSpec,
    main,
    parse_config,
    run,
    spec_to_config,
)

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
        cfg = spec.configs[0]
        assert cfg.accuracy_threshold == 0.97
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
        assert [c.strategy for c in spec.configs] == ["fedavg", "fedprox", "fedp3e"]
        assert spec.scenario == "severe"
        assert spec.configs[0].rounds == 20
        assert spec.configs[1].train.prox_mu == 0.1

    def test_fixture_round_trips_through_serialize_and_parse(self, tmp_path):
        spec = parse_config(FIXTURES / "severe_nonidd.json")
        rewritten = tmp_path / "rewritten.json"
        rewritten.write_text(json.dumps(spec_to_config(spec)))
        assert parse_config(rewritten) == spec

    @pytest.mark.parametrize("data", [
        pf.SyntheticSpec(2, 5, 2, 0.2, 30, seed=9),
        CsvSource("captures", pf.CsvSchema(4, (("x", 0), ("y", 1)), ("x", "y"))),
    ])
    def test_every_field_round_trips(self, tmp_path, data):
        input_dim = data.dims if isinstance(data, pf.SyntheticSpec) else data.schema.n_features
        train = pf.TrainConfig(epochs=3, batch_size=9, learning_rate=0.02, adam_beta1=0.8,
                               adam_beta2=0.99, adam_epsilon=1e-6, prox_mu=0.3)
        configs = tuple(
            pf.FederationConfig(
                strategy=strategy, n_clients=2, rounds=7, train=train,
                aug=pf.AugmentationPolicy(0.2, "missing_only"), accuracy_threshold=0.9,
                trigger_round=3, noise_sigma=0.02,
                model=pf.ModelSpec(input_dim, ((7, 0.002), (5, 0.0)), 0.25, 2),
                train_fraction=0.7, scale_mode="global", eval_weighting="uniform",
                gmm_components=2, gmm_max_components=4, global_prototypes_per_class=3,
                aggregate_running_stats=False, seed=8,
            )
            for strategy in ("fedprox", "fedp3e")
        )
        spec = RunSpec(data, "light", 2, configs, "elsewhere", 8, ((5, 6), (7, 8)))
        for obj in (spec, configs[0], train, configs[0].aug):
            for f in fields(obj):
                assert getattr(obj, f.name) != f.default, f.name
        path = tmp_path / "every_field.json"
        path.write_text(json.dumps(spec_to_config(spec)))
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
        raw = json.loads(path.read_text())
        raw["partition"]["quotas"] = [[40, 0, 0], [0, 40, 0], [0, 0, 40]]
        path.write_text(json.dumps(raw))
        spec = parse_config(path)
        assert spec.quotas == ((40, 0, 0), (0, 40, 0), (0, 0, 40))
        assert run(spec) == 0
        rewritten = tmp_path / "again.json"
        rewritten.write_text(json.dumps(spec_to_config(spec)))
        assert parse_config(rewritten) == spec

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
    ], ids=["rounds-null", "train-number", "bool-string", "quotas-number"])
    def test_mistyped_value_is_a_usage_error(self, tmp_path, capsys, section, key, value, expected):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw[section][key] = value
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {expected}" in capsys.readouterr().err

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

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestRunSpecValidation:
    def test_needs_at_least_one_config(self):
        data = pf.SyntheticSpec(2, 3, 1, 0.1, 10, seed=0)
        with pytest.raises(ValueError, match="at least one"):
            RunSpec(data, "iid", 2, (), "out", 0)
