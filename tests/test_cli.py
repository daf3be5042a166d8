import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from collections import Counter
from dataclasses import Field, fields, replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
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
from protofed.datasets import CLASS_NAMES, SCENARIOS
from helpers import arithmetic, stated_spec, write_nbaiot_layout

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
README = Path(__file__).resolve().parent.parent / "README.md"


def pinned_on() -> str:
    """The message of a failed byte gate. Output bytes pin the arithmetic as
    well as the program, so a mismatch under other arithmetic does not by
    itself show a fault in the program."""
    return (f"this run: {arithmetic()}; the pinned hashes hold under OpenBLAS's SkylakeX "
            f"kernels and numpy's X86_V4 loops")


# Each retired key: its section and the one value it still takes.
RETIRED = [
    ("federation", "eval_weighting", "test_size"),
    ("federation", "global_prototypes_per_class", None),
    ("federation", "aggregate_running_stats", True),
    ("federation", "gmm_max_components", 5),
    ("federation", "train_fraction", 0.8),
    ("federation.train", "adam_beta1", 0.9),
    ("federation.train", "adam_beta2", 0.999),
    ("federation.train", "adam_epsilon", 1e-7),
    ("federation.aug", "eligible_classes", "below_mean_count"),
]


# A data section whose every key differs from its default, and the source it parses to.
SYNTHETIC = ({"synthetic": {"n_classes": 2, "dims": 5, "clusters_per_class": 2, "cluster_spread": 0.2,
                            "samples_per_class": 30, "seed": 9}},
             pf.SyntheticSpec(n_classes=2, dims=5, cluster_spread=0.2, samples_per_class=30,
                              clusters_per_class=2, seed=9))
# The same for a model section, and the hidden layers it parses to.
MODEL = ({"hidden": [[7, 0.002], [5, 0.0]], "dropout_p": 0.25}, ((7, 0.002), (5, 0.0)))


def _section(raw: dict, section: str) -> dict:
    """The object at a dotted section path of a JSON config, added empty where it is left out."""
    for name in section.split("."):
        raw = raw.setdefault(name, {})
    return raw


def layout_leaves(layout, path=()):
    """(key path, field) for each key of a ``cli._LAYOUT`` section that sets a
    field; a dataclass section's keys are its fields."""
    for key, entry in (cli._fields(layout) if isinstance(layout, type) else layout).items():
        if isinstance(entry, Field):
            yield (*path, key), entry
        else:
            yield from layout_leaves(entry, (*path, key))


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
        assert cfg.train.prox_mu == 0.0
        assert cfg.target_fraction == 0.10

    def test_threshold_invariant_message(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["threshold"] = 1.5
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=r"^threshold must be in \(0, 1\], got 1\.5$"):
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

    @pytest.mark.parametrize("data, line, reason", [
        (b"\xff{}", 1, "invalid start byte"),
        (b'{\n  "output_dir": "caf\xe9"\n}', 2, "invalid continuation byte"),
    ], ids=["first-byte", "latin-1"])
    def test_non_utf8_config_is_a_usage_error_naming_file_and_line(self, tmp_path, capsys,
                                                                   data, line, reason):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} line {line}: not UTF-8 text ({reason})\n"

    def test_deeply_nested_config_is_a_usage_error_naming_file(self, tmp_path, capsys):
        # json.loads recurses once per level, so this used to end in a RecursionError traceback.
        path = tmp_path / "config.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: nested too deeply to parse\n"

    def test_top_level_array_is_a_usage_error_naming_file(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: top-level config must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_data_requires_exactly_one_source(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["data"]["csv_dir"] = {"path": "x"}
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="exactly one"):
            parse_config(path)

    def test_committed_severe_fixture_parses_to_three_strategies(self):
        spec = parse_config(FIXTURES / "severe_nonidd.json")
        assert spec == stated_spec(json.loads((FIXTURES / "severe_nonidd.json").read_text()))
        assert spec.strategies == ("fedavg", "fedprox", "fedp3e")
        assert spec.scenario == "severe"
        assert spec.federation.rounds == 20
        assert spec.federation.train.prox_mu == 0.1
        assert spec.federation.seed == 11

    # Each case is a data section and the source it parses to, then a model
    # section and the hidden layers it parses to. A key left out parses to
    # its field's default.
    @pytest.mark.parametrize("data", [
        (*SYNTHETIC, *MODEL),
        ({"csv_dir": {"path": "captures"}}, CsvSource("captures"), *MODEL),
        ({"synthetic": {"n_classes": 2, "dims": 5, "cluster_spread": 0.2, "samples_per_class": 30}},
         pf.SyntheticSpec(n_classes=2, dims=5, cluster_spread=0.2, samples_per_class=30,
                          clusters_per_class=1, seed=0), *MODEL),
        (*SYNTHETIC, {"dropout_p": 0.25}, pf.FederationConfig().hidden),
    ])
    def test_every_field_round_trips(self, tmp_path, data):
        # Every other key is given a value other than its default, so a key the
        # reader skipped or misnamed leaves its field unequal to the expected one.
        section, data, model, hidden = data
        train = pf.TrainConfig(epochs=3, batch_size=9, learning_rate=0.02, prox_mu=0.3)
        federation = pf.FederationConfig(
            rounds=7, train=train, target_fraction=0.2, threshold=0.9,
            trigger_round=3, noise_sigma=0.02,
            hidden=((7, 0.002), (5, 0.0)), dropout_p=0.25,
            scale_mode="none", gmm_components=2, seed=8,
        )
        spec = RunSpec(data, "light", 2, federation, ("fedprox", "fedp3e"), "elsewhere")
        for obj in (spec, federation, train):
            for f in fields(obj):
                assert getattr(obj, f.name) != f.default, f.name
        config = {
            "seed": 8,
            "output_dir": "elsewhere",
            "data": section,
            "partition": {"scenario": "light", "n_clients": 2},
            "federation": {
                "strategies": ["fedprox", "fedp3e"], "rounds": 7, "threshold": 0.9,
                "trigger_round": 3, "noise_sigma": 0.02,
                "train": {"epochs": 3, "batch_size": 9, "learning_rate": 0.02, "prox_mu": 0.3},
                "aug": {"target_fraction": 0.2},
                "model": model,
                "scale_mode": "none", "gmm_components": 2,
            },
        }
        path = tmp_path / "every_field.json"
        path.write_text(json.dumps(config))
        assert parse_config(path) == replace(spec, federation=replace(federation, hidden=hidden))

    def test_retired_keys_parse_at_their_old_values(self, tmp_path):
        # The benchmark's workload configs still write these keys.
        assert {(section, key) for section, key, _ in RETIRED} == {
            (section, key) for section, table in cli._RETIRED.items() for key in table}
        path = minimal_config(tmp_path)
        expected = parse_config(path)
        every = json.loads(path.read_text())
        for section, key, value in RETIRED:
            raw = json.loads(path.read_text())
            for target in (raw, every):
                _section(target, section)[key] = value
            path.write_text(json.dumps(raw))
            assert parse_config(path) == expected, f"{section}.{key}"
        path.write_text(json.dumps(every))
        assert parse_config(path) == expected

    @pytest.mark.parametrize("section", ["train", "aug"])
    def test_seed_is_not_a_training_or_augmentation_key(self, tmp_path, section):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"].setdefault(section, {})["seed"] = 4
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"unknown key 'seed' in federation.{section}"):
            parse_config(path)

    def test_readme_schema_lists_exactly_the_accepted_keys(self, tmp_path):
        readme = README.read_text(encoding="utf-8")
        block = readme.split("```jsonc\n", 1)[1].split("\n```", 1)[0]
        schema = json.loads(re.sub(r"\s*//.*", "", block))

        def leaves(obj, path=()):
            for key, value in obj.items():
                yield from leaves(value, (*path, key)) if isinstance(value, dict) else [(*path, key)]

        assert sorted(leaves(schema)) == sorted(path for path, _ in layout_leaves(cli._LAYOUT))
        # Each documented value parses, one data source at a time.
        for source in schema["data"]:
            path = tmp_path / f"{source}.json"
            path.write_text(json.dumps({**schema, "data": {source: schema["data"][source]}}))
            parse_config(path)

    def test_layout_wires_each_field_exactly_once(self):
        # A field added to a config dataclass but not to the JSON layout
        # would keep its default in every run, whatever a config says.
        classes = (pf.TrainConfig, pf.SyntheticSpec, CsvSource, pf.FederationConfig, RunSpec)
        owner = {f: cls.__name__ for cls in classes for f in fields(cls)}
        # Set by a nested section, or by parse_config from the others.
        built = {("FederationConfig", "train"), ("RunSpec", "data"), ("RunSpec", "federation")}
        wired = Counter((owner[f], f.name) for _, f in layout_leaves(cli._LAYOUT))
        assert wired == Counter({(name, f.name) for f, name in owner.items()} - built)

    def test_readme_schema_lists_the_scenarios_in_order(self):
        block = README.read_text(encoding="utf-8").split("```jsonc\n", 1)[1].split("\n```", 1)[0]
        listed = re.search(r'"scenario":.*// required; (.*)$', block, re.MULTILINE).group(1)
        assert tuple(listed.split(" | ")) == SCENARIOS

    def test_readme_schema_defaults_are_the_parsed_defaults(self, tmp_path):
        # A key left out must parse like the key set to its documented
        # default: "default X", or a bare "default" beside the shown value.
        readme = README.read_text(encoding="utf-8")
        block = readme.split("```jsonc\n", 1)[1].split("\n```", 1)[0]
        schema = json.loads(re.sub(r"\s*//.*", "", block))
        keys, documented = [], {}
        for line in block.splitlines()[1:-1]:  # inside the outer braces
            code, _, comment = line.partition("//")
            if code.strip().startswith("}"):
                keys.pop()
            member = re.match(r'\s*"(\w+)":\s*(.*?),?\s*$', code)
            if member is None:
                continue
            key, shown = member.groups()
            note = re.search(r"\bdefault\b(.*)", comment)
            if note is not None:
                rest = note.group(1).strip()
                if rest == "" or rest.startswith((";", "as shown")):
                    documented[(*keys, key)] = json.loads(shown)
                else:
                    documented[(*keys, key)] = json.JSONDecoder().raw_decode(rest)[0]
            if shown == "{":
                keys.append(key)
        assert len(documented) >= 20

        def parsed(source, path, *value):
            """The README config on one data source, with ``path`` set to
            ``value`` or, given none, left out: its spec, or its error, as
            leaving out ``prox_mu`` stops the listed fedprox."""
            config = json.loads(json.dumps({**schema, "data": {source: schema["data"][source]}}))
            *parents, key = path
            section = config
            for parent in parents:
                section = section[parent]
            del section[key]
            if value:
                section[key] = value[0]
            file = tmp_path / "defaults.json"
            file.write_text(json.dumps(config))
            try:
                return parse_config(file)
            except ValueError as err:
                return str(err)

        for path, value in documented.items():
            sources = [path[1]] if path[0] == "data" else list(schema["data"])
            for source in sources:
                assert parsed(source, path) == parsed(source, path, value), path

    def test_csv_dir_schema_defaults_to_the_nbaiot_layout(self, tmp_path):
        spec = parse_config(minimal_config(tmp_path, data={"csv_dir": {"path": "captures"}}))
        assert spec.data == CsvSource("captures")
        assert CLASS_NAMES == ("benign", "gafgyt", "mirai")

    @pytest.mark.parametrize("key, value", [
        ("n_features", 115),
        ("class_names", ["benign", "gafgyt", "mirai"]),
        ("class_patterns", [["benign", 0], ["gafgyt", 1], ["mirai", 2]]),
    ])
    def test_csv_dir_takes_only_a_path(self, tmp_path, capsys, key, value):
        data = {"csv_dir": {"path": str(tmp_path / "captures"), key: value}}
        path = minimal_config(tmp_path, data=data)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: unknown key {key!r} in data.csv_dir\n"

    def test_empty_csv_dir_path_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # Path("") is the working directory, so a run that took it would load the CSVs here.
        monkeypatch.chdir(tmp_path)
        path = minimal_config(tmp_path, data={"csv_dir": {"path": ""}})
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: data.csv_dir: path must not be empty\n"

    @pytest.mark.parametrize("section, expected", [
        ("", "seed must be >= 0, got -1"),
        ("data.synthetic", "data.synthetic: seed must be >= 0, got -1"),
    ], ids=["top-level", "data.synthetic"])
    def test_seed_range_message_names_its_section(self, tmp_path, capsys, section, expected):
        # Both sections have a seed, so only the section tells the two apart.
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        (_section(raw, section) if section else raw)["seed"] = -1
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

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

    def test_nbaiot_layout_run_gets_a_115_input_3_class_model(self, tmp_path, monkeypatch):
        # The config names no sizes: the CSV data give 115 inputs and 3 classes, and
        # the omitted model section the default 128/64 layers, 23,683 floats in all.
        write_nbaiot_layout(tmp_path / "nbaiot", seed=8, devices=1, rows=12)
        built = []
        build_model = federation.build_model
        monkeypatch.setattr(federation, "build_model",
                            lambda spec, seed: built.append(spec) or build_model(spec, seed))
        path = minimal_config(tmp_path, data={"csv_dir": {"path": str(tmp_path / "nbaiot")}})
        raw = json.loads(path.read_text())
        del raw["federation"]["model"]
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 0
        assert built == [pf.ModelSpec(115, ((128, 1e-3), (64, 1e-3)), 0.5, 3)]
        with open(tmp_path / "out" / "metrics_fedavg.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["up_floats"] for row in rows} == {str(3 * 23_683)}

    def test_failure_returns_nonzero(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["data"] = {"csv_dir": {"path": str(tmp_path / "no_such_dir")}}
        path.write_text(json.dumps(raw))
        spec = parse_config(path)
        assert run(spec) == 1
        assert "error:" in capsys.readouterr().err

    def test_diverged_global_model_fails_in_evaluation_with_one_line(self, tmp_path, capsys):
        # One step per client at this rate leaves every loss and parameter
        # finite (about 1e300), so the first non-finite value is the test loss.
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"].update({"rounds": 1, "trigger_round": 1, "train": {
            "epochs": 1, "batch_size": 64, "learning_rate": 1e300}})
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: round 1, client 0: [^\n]*non-finite[^\n]*\n", err), err

    @staticmethod
    def _class_without_rows(tmp_path, trigger_round):
        """fedavg then fedp3e, exchanging at ``trigger_round``, on two severe
        clients over three classes: no client holds a row of the third class,
        so the broadcast has no prototypes of it."""
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["partition"]["n_clients"] = 2
        raw["federation"].update({"strategies": ["fedavg", "fedp3e"], "trigger_round": trigger_round})
        path.write_text(json.dumps(raw))
        return path

    def test_failed_run_leaves_output_dir_untouched(self, tmp_path, capsys, monkeypatch):
        # fedavg finishes; fedp3e then fails in its round-2 exchange, the only
        # place augmentation runs.
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(federation, "augment", boom)
        path = self._class_without_rows(tmp_path, trigger_round=2)
        out = tmp_path / "out"
        out.mkdir()
        earlier = b'{"from": "an earlier run"}\n'
        (out / "summary.json").write_bytes(earlier)
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "round 2, client 0" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert (out / "summary.json").read_bytes() == earlier

    def test_write_that_fails_midway_leaves_the_earlier_files_whole(self, tmp_path, monkeypatch,
                                                                     capsys):
        out = tmp_path / "out"
        assert main(["run", str(minimal_config(tmp_path)), "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        writer = csv.writer

        class FailsAfterHeader:
            def __init__(self, handle, **kwargs):
                self.inner, self.rows = writer(handle, **kwargs), 0

            def writerow(self, row):
                if self.rows:
                    raise OSError("No space left on device")
                self.rows += 1
                self.inner.writerow(row)

            def writerows(self, rows):
                for row in rows:
                    self.writerow(row)

        monkeypatch.setattr(csv, "writer", FailsAfterHeader)
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["rounds"] = 3
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_write_that_fails_before_any_rename_leaves_the_earlier_files_whole(self, tmp_path,
                                                                             monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(["run", str(minimal_config(tmp_path)), "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["rounds"] = 3
        path.write_text(json.dumps(raw))
        write_bytes, calls = Path.write_bytes, []

        def fails_on_second_call(self, data):
            calls.append(self.name)
            if len(calls) == 2:
                raise OSError("No space left on device")
            return write_bytes(self, data)

        monkeypatch.setattr(Path, "write_bytes", fails_on_second_call)
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: No space left on device\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_rename_that_fails_midway_leaves_no_summary(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        assert main(["run", str(minimal_config(tmp_path)), "--out", str(out)]) == 0
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["rounds"] = 3
        path.write_text(json.dumps(raw))
        replace, calls = Path.replace, []

        def fails_on_second_call(self, target):
            calls.append(self.name)
            if len(calls) == 2:
                raise OSError("Input/output error")
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", fails_on_second_call)
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: Input/output error\n"
        names = [p.name for p in out.iterdir()]
        assert "summary.json" not in names
        assert not [name for name in names if name.endswith(".tmp")]

    def test_rerun_deletes_only_the_metrics_of_strategies_it_left_out(self, tmp_path):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["strategies"] = ["fedavg", "fedp3e"]
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        others = {"notes.txt": b"mine", "metrics_fedsgd.csv": b"not a strategy"}
        for name, data in others.items():
            (out / name).write_bytes(data)
        raw["federation"]["strategies"] = ["fedavg"]
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "comparison.csv", "metrics_fedavg.csv", "metrics_fedsgd.csv", "notes.txt", "summary.json"]
        assert all((out / name).read_bytes() == data for name, data in others.items())
        assert list(json.loads((out / "summary.json").read_text())["strategies"]) == ["fedavg"]

    @pytest.mark.parametrize("trigger_round", [1, 2])
    def test_exchange_without_a_class_anywhere_runs(self, tmp_path, trigger_round):
        # The class no client holds has no prototypes, so it gets no synthetic rows.
        path = self._class_without_rows(tmp_path, trigger_round=trigger_round)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategies"]["fedp3e"]["exchange_round"] == trigger_round
        assert all(_finite_cells(p) for p in out.glob("*.csv"))

    def test_csv_dir_without_mirai_captures_runs_fedp3e(self, tmp_path):
        # Some N-BaIoT devices have no Mirai captures, so a device subset can
        # lack that class on every silo.
        root = tmp_path / "nbaiot"
        write_nbaiot_layout(root, seed=8, devices=1, rows=12)
        for mirai in root.glob("*.mirai.*.csv"):
            mirai.unlink()
        path = minimal_config(tmp_path, data={"csv_dir": {"path": str(root)}},
                              partition={"scenario": "iid", "n_clients": 3})
        raw = json.loads(path.read_text())
        raw["federation"].update({"strategies": ["fedp3e"], "trigger_round": 1})
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategies"]["fedp3e"]["exchange_round"] == 1

    def test_more_clients_than_rows_fails_before_the_partition_plan(self, tmp_path, capsys,
                                                                     monkeypatch):
        # Clients get disjoint rows, so one of 181 clients over 180 rows would be empty.
        calls = []
        monkeypatch.setattr(cli, "build_partition_plan", lambda *args: calls.append(args))
        path = minimal_config(tmp_path, partition={"scenario": "iid", "n_clients": 181})
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: n_clients=181 exceeds the 180 rows loaded\n"
        assert calls == []
        assert not (tmp_path / "out").exists()


class TestMain:
    def test_run_subcommand(self, tmp_path):
        path = minimal_config(tmp_path)
        out = tmp_path / "cli_out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_severe_fixture_reproduces_reference_hashes(self, severe_run):
        # A faster path must write the same bytes; the hashes are stated once,
        # in the benchmark's reference file.
        expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["severe3"]
        out, _ = severe_run
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert got == expected, pinned_on()

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
        }, pinned_on()

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
        }, pinned_on()

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
        }, pinned_on()

    def test_loaded_dataset_released_before_first_run(self, tmp_path, monkeypatch):
        # neither the loaded matrix nor the client shards outlive the split
        loaded, alive = [], []
        synthesize, partition, run_federation = cli.synthesize, cli.partition, cli.run_federation

        def recording_synthesize(spec):
            ds = synthesize(spec)
            loaded.extend([weakref.ref(ds), weakref.ref(ds.features)])
            return ds

        def recording_partition(ds, quotas, seed):
            shards = partition(ds, quotas, seed)
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

        def measuring_partition(ds, quotas, seed):
            shards = partition(ds, quotas, seed)
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

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--strategies", "fedavg"]],
                             ids=["seed", "strategies"])
    def test_config_only_setting_is_not_a_flag(self, tmp_path, capsys, flag):
        # The run seed and the strategy list are stated once, in the config.
        with pytest.raises(SystemExit) as exit_:
            main(["run", str(FIXTURES / "severe_nonidd.json"), "--out", str(tmp_path / "out"), *flag])
        assert exit_.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_readme_synopsis_lists_exactly_the_run_options(self, capsys):
        block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        synopsis = block.split("```bash\n", 1)[1].split("\n```", 1)[0]
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        accepted = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[\w-]+", synopsis)) == accepted

    @pytest.mark.parametrize("section, key, value, expected", [
        ("federation", "rounds", None, "federation.rounds: expected int, got null"),
        ("federation", "strategies", [], "federation.strategies must list at least one strategy"),
        ("federation", "train", 5, "federation.train: expected object, got 5"),
        # knobs outside the protocol, now gone
        ("partition", "quotas", [[40, 0, 0], [0, 40, 0], [0, 0, 40]], "unknown key 'quotas' in partition"),
        ("federation", "scale_mode", "global", "unknown scale_mode 'global'"),
        ("federation.aug", "eligible_classes", "all",
         'federation.aug.eligible_classes: retired, accepts only "below_mean_count", got "all"'),
        # a retired key is accepted only in its own section
        ("federation", "adam_beta1", 0.9, "unknown key 'adam_beta1' in federation"),
        ("federation.train", "gmm_max_components", 5,
         "unknown key 'gmm_max_components' in federation.train"),
        # json.loads takes these literals, and each passes its key's range check
        ("federation.train", "prox_mu", math.nan, "federation.train.prox_mu: expected float, got NaN"),
        ("federation.train", "learning_rate", math.nan,
         "federation.train.learning_rate: expected float, got NaN"),
        ("federation", "noise_sigma", math.nan, "federation.noise_sigma: expected float, got NaN"),
        ("federation", "noise_sigma", math.inf, "federation.noise_sigma: expected float, got Infinity"),
        ("federation.model", "hidden", [[8, math.nan]], "federation.model.hidden: expected float, got NaN"),
        # the model section's rules are ModelSpec's, checked by FederationConfig
        ("federation.model", "hidden", [[0, 0.001]], "hidden layer units must be >= 1, got 0"),
        ("federation.model", "dropout_p", 1.0, "dropout_p must be in [0, 1)"),
        ("partition", "scenario", "extreme", f"unknown scenario 'extreme'; expected one of {SCENARIOS}"),
        # a section given as null is not left out
        ("federation", "train", None, "federation.train: expected object, got null"),
        ("federation", "aug", None, "federation.aug: expected object, got null"),
        ("federation", "model", None, "federation.model: expected object, got null"),
    ], ids=["rounds-null", "strategies-empty", "train-number", "quotas-table",
            "scale-mode-global", "eligible-all", "retired-beta1-in-federation",
            "retired-gmm-max-in-train", "prox-mu-nan", "learning-rate-nan", "noise-sigma-nan",
            "noise-sigma-inf", "hidden-nan", "hidden-zero-units", "dropout-one", "scenario-extreme",
            "train-null", "aug-null", "model-null"])
    def test_mistyped_value_is_a_usage_error(self, tmp_path, capsys, section, key, value, expected):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"]["strategies"] = ["fedavg", "fedprox"]
        raw["federation"]["train"]["prox_mu"] = 0.1
        _section(raw, section)[key] = value
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {expected}" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    # Every key without a default, listed here rather than read from the
    # layout, so the reader's rule for what is required is checked against it.
    @pytest.mark.parametrize("section, key", [pytest.param(section, key, id=key) for section, key in [
        ("config", "data"), ("config", "partition"), ("config", "federation"),
        ("partition", "scenario"), ("partition", "n_clients"), ("federation", "strategies"),
        ("data.synthetic", "n_classes"), ("data.synthetic", "dims"), ("data.synthetic", "cluster_spread"),
        ("data.synthetic", "samples_per_class"), ("data.csv_dir", "path"),
    ]])
    def test_missing_required_key_is_a_usage_error(self, tmp_path, capsys, section, key):
        csv_dir = {"data": {"csv_dir": {"path": "captures"}}} if section == "data.csv_dir" else {}
        path = minimal_config(tmp_path, **csv_dir)
        raw = json.loads(path.read_text())
        target = raw if section == "config" else _section(raw, section)
        del target[key]
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: missing key {key!r} in {section}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("gmm_components", 0)])
    def test_non_positive_prototype_count_is_a_usage_error(self, tmp_path, capsys, key, value):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["federation"].update({"strategies": ["fedp3e"], key: value})
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{key} must be >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, kept, value", [
        pytest.param(section, key, kept, value, id=f"{key}-{value}")
        for (section, key, kept), value in [*zip(RETIRED, ("uniform", 3, False, 4, 0.7, 0.8, 0.99,
                                                           1e-6, "missing_only")),
                                            (RETIRED[2], 1)]
    ])
    def test_retired_key_off_its_old_value_is_a_usage_error(self, tmp_path, capsys, section, key,
                                                            kept, value):
        # 1 == True in Python, yet JSON's 1 is not true.
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        _section(raw, section)[key] = value
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        expected = f"{section}.{key}: retired, accepts only {json.dumps(kept)}, got {json.dumps(value)}"
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "out").exists()

    def test_zero_clients_is_a_usage_error(self, tmp_path, capsys):
        path = minimal_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["partition"]["n_clients"] = 0
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: n_clients must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_output_dir_is_a_usage_error(self, tmp_path, capsys, monkeypatch, via):
        # Path("") is the working directory, so a run that took it would write here.
        monkeypatch.chdir(tmp_path)
        path = minimal_config(tmp_path, output_dir="" if via == "config" else "out")
        assert main(["run", str(path), *(["--out", ""] if via == "flag" else [])]) == 2
        assert capsys.readouterr().err == "error: output_dir must not be empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("below, reason", [
        ("", "{afile!r} is not a directory"),
        ("/sub", "{afile!r} is not a directory"),
        ("\ud800", "'utf-8' codec can't encode character '\\ud800' in position {end}: "
                   "surrogates not allowed"),
        ("\0x", "embedded null byte"),
    ], ids=["file", "under-file", "surrogate", "nul"])
    def test_output_dir_at_or_under_a_file_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                             via, below, reason):
        # Such a run would train every strategy and then fail its first write,
        # as would one whose path the OS cannot encode.
        def no_loading(spec):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "_load_dataset", no_loading)
        afile = str(tmp_path / "afile")
        (tmp_path / "afile").write_text("kept\n")
        out = afile + below
        path = minimal_config(tmp_path, **({"output_dir": out} if via == "config" else {}))
        assert main(["run", str(path), *(["--out", out] if via == "flag" else [])]) == 2
        reason = reason.format(afile=afile, end=len(afile))
        assert capsys.readouterr().err == f"error: output_dir {out!r}: {reason}\n"
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_out_replaces_a_rejected_output_dir(self, tmp_path, monkeypatch):
        # The directory is checked once, as the run will use it.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        path = minimal_config(tmp_path, output_dir="afile")
        assert main(["run", str(path), "--out", "good"]) == 0
        assert (tmp_path / "good" / "summary.json").exists()
        assert (tmp_path / "afile").read_text() == "kept\n"

    def test_missing_config_fails(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("member, doubled, section", [
        ('"seed": 3', '"seed": 3, "seed": 4', "config"),
        ('"seed": 1', '"seed": 1, "seed": 1', "data.synthetic"),
        ('"rounds": 2', '"rounds": 30, "rounds": 2', "federation"),
        ('"epochs": 1', '"epochs": 1, "epochs": 1', "federation.train"),
    ], ids=["config", "data.synthetic", "federation", "federation.train"])
    def test_duplicate_key_is_a_usage_error(self, tmp_path, capsys, member, doubled, section):
        path = minimal_config(tmp_path)
        text = path.read_text()
        assert text.count(member) == 1
        path.write_text(text.replace(member, doubled))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key = member.split('"')[1]
        assert err == f"error: duplicate key {key!r} in {section}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("valid", [False, True], ids=["missing-config", "tiny-config"])
    def test_python_m_protofed_passes_the_exit_code_through(self, tmp_path, valid):
        path = minimal_config(tmp_path) if valid else tmp_path / "absent.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "protofed", "run", str(path), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == (0 if valid else 2), done.stderr
        assert (tmp_path / "out" / "summary.json").exists() == valid


# Training values that are usage errors: below their bound, NaN, or no
# proximal weight, which only a run that lists fedprox refuses.
BAD_TRAINING_VALUES = [("learning_rate", 0.0), ("learning_rate", -0.1), ("batch_size", 0),
                       ("prox_mu", -0.1), ("learning_rate", math.nan), ("prox_mu", math.nan),
                       ("prox_mu", 0.0)]


@st.composite
def small_configs(draw):
    """A tiny run config over every scenario, scale mode and strategy.

    About one config in five sets one training value from
    ``BAD_TRAINING_VALUES``, and one in ten moves the retired
    ``eligible_classes`` off its one value, so most configs run and each exit
    code occurs.
    """
    rounds = draw(st.integers(1, 2))
    train = {
        "epochs": 1,
        "batch_size": draw(st.sampled_from([4, 32])),
        "learning_rate": draw(st.sampled_from([0.005, 0.5, 10.0])),
        "prox_mu": 0.1,
    }
    if draw(st.integers(0, 4)) == 4:
        key, value = draw(st.sampled_from(BAD_TRAINING_VALUES))
        train[key] = value
    # A prefix of a permutation, where a list of unique strategies would
    # reject draws and waste examples.
    strategies = draw(st.permutations(federation.STRATEGIES))[:draw(st.integers(1, 3))]
    eligible = "missing_only" if draw(st.integers(0, 9)) == 9 else "below_mean_count"
    return {
        "seed": draw(st.integers(0, 1000)),
        "data": {"synthetic": {"n_classes": draw(st.integers(2, 4)), "dims": 3,
                               "cluster_spread": draw(st.sampled_from([0.05, 1.0])),
                               "samples_per_class": draw(st.integers(12, 40)),
                               "seed": draw(st.integers(0, 1000))}},
        "partition": {"scenario": draw(st.sampled_from(pf.datasets.SCENARIOS)),
                      "n_clients": draw(st.integers(1, 7))},
        "federation": {
            "strategies": strategies,
            "rounds": rounds,
            "trigger_round": draw(st.integers(1, rounds)),
            "train": train,
            "aug": {"eligible_classes": eligible},
            "model": {"hidden": [[4, 0.001]], "dropout_p": draw(st.sampled_from([0.0, 0.5]))},
            "scale_mode": draw(st.sampled_from(["local", "none"])),
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
        usage_error = (  # NaN fails every comparison
            not (train["learning_rate"] > 0 and train["batch_size"] >= 1 and train["prox_mu"] >= 0)
            or ("fedprox" in config["federation"]["strategies"] and train["prox_mu"] == 0)
            or config["federation"]["aug"]["eligible_classes"] != "below_mean_count"
        )
        with tempfile.TemporaryDirectory() as tmp:
            path, out, used = Path(tmp) / "config.json", Path(tmp) / "out", Path(tmp) / "used"
            path.write_text(json.dumps(config))
            used.mkdir()
            earlier = {name: b"another run\n" for name in
                       [*(f"metrics_{s}.csv" for s in federation.STRATEGIES), "comparison.csv", "summary.json"]}
            for name, data in earlier.items():
                (used / name).write_bytes(data)
            code, err = _run_main(path, out)
            event(f"exit {code}")
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
            # The same run into a directory that holds another run's outputs
            # leaves exactly this run's files there, or the earlier ones if it fails.
            assert _run_main(path, used) == (code, err)
            left = {p.name: p.read_bytes() for p in used.iterdir()}
            assert left == ({n: (out / n).read_bytes() for n in names} if code == 0 else earlier)


class TestRunSpecValidation:
    def test_needs_at_least_one_config(self):
        data = pf.SyntheticSpec(n_classes=2, dims=3, cluster_spread=0.1,
                                samples_per_class=10, seed=0)
        with pytest.raises(ValueError, match="at least one strategy"):
            RunSpec(data, "iid", 2, pf.FederationConfig(), (), "out")
