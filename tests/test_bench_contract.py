"""The benchmark in perfbench/ wraps functions by module attribute and checks
exact call counts; these tests keep the names and call pattern it relies on."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import protofed as pf
import protofed.cli as cli
import protofed.mixtures as mixtures
import protofed.network as network
from helpers import stated_spec, two_blob_dataset, write_nbaiot_layout

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_child():
    return load_perfbench("child")


@pytest.mark.parametrize("workload", ["severe3", "light12", "nbaiot9"])
def test_workload_configs_parse_at_the_default_seed(tmp_path, monkeypatch, workload):
    # A schema change that rejects these configs would fail every benchmark
    # run, and one that reads them differently would change what it measures.
    workloads = load_perfbench("workloads")
    # writing nbaiot9's CSV files takes about a second; parsing never reads them
    monkeypatch.setattr(workloads, "write_nbaiot_dir", lambda seed, root, separation: None)
    path = workloads.write_config(workload, 11, tmp_path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    spec = cli.parse_config(path)
    assert spec.strategies == tuple(raw["federation"]["strategies"])
    assert spec.federation.seed == raw["seed"] == 11
    assert spec == stated_spec(raw)


def test_every_retired_key_is_still_written_by_a_workload(tmp_path, monkeypatch):
    # cli._RETIRED exists only for these configs: an entry none of them
    # writes at its value is one to delete.
    workloads = load_perfbench("workloads")
    monkeypatch.setattr(workloads, "write_nbaiot_dir", lambda seed, root, separation: None)
    written = set()
    for name in workloads.WORKLOADS:
        (tmp_path / name).mkdir()
        raw = json.loads(workloads.write_config(name, 11, tmp_path / name).read_text(encoding="utf-8"))
        for section, table in cli._RETIRED.items():
            obj = raw
            for part in section.split("."):
                obj = obj.get(part, {})
            written.update((section, key, json.dumps(obj[key])) for key in table if key in obj)
    for section, table in cli._RETIRED.items():
        for key, value in table.items():
            assert (section, key, json.dumps(value)) in written, f"{section}.{key}"


def test_every_traced_target_resolves_to_a_callable():
    targets = load_child().targets("trace")
    assert targets
    for module, name, key, _ in targets:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name} ({key})"


def test_train_local_calls_adam_step_once_per_mini_batch(monkeypatch):
    calls = []
    original = network.adam_step

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(network, "adam_step", counting)
    ds = two_blob_dataset(20, 3, 0.1, seed=0)  # 40 rows
    config = pf.TrainConfig(epochs=3, batch_size=16, learning_rate=0.01)
    pf.train_local(pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.3, 2), seed=0), ds, config, 1)
    assert len(calls) == config.epochs * math.ceil(ds.n_samples / config.batch_size)


@pytest.mark.parametrize("n", [1, 3, 40])
def test_select_k_bic_fits_through_the_module_attribute_once_per_k(monkeypatch, n):
    # SEVERE3_COUNTS pins the em_fit calls that the wrapper on mixtures.em_fit sees.
    calls = []
    original = mixtures.em_fit

    def counting(X, n_components, seed):
        calls.append(n_components)
        return original(X, n_components, seed)

    monkeypatch.setattr(mixtures, "em_fit", counting)
    pf.select_k_bic(np.random.default_rng(n).random((n, 2)), seed=0)
    assert calls == list(range(1, min(mixtures.GMM_MAX_COMPONENTS, n) + 1))


def traced_fedp3e_run(tmp_path, data):
    """Tracer stats of one tiny fedp3e run over the config ``data`` section.

    Every probe of a trace-mode child reads the real arguments and results;
    a probe that reads a missing field fails the run.
    """
    config = {
        "seed": 0,
        "data": data,
        "partition": {"scenario": "severe", "n_clients": 3},
        "federation": {
            "strategies": ["fedp3e"], "rounds": 1, "trigger_round": 1, "gmm_components": None,
            "train": {"epochs": 1}, "model": {"hidden": [[4, 0.0]], "dropout_p": 0.0},
            "scale_mode": "none",
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    child = load_child()
    tracer = child.Tracer(child.targets("trace"))
    with tracer:
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert tracer.restored()
    stats = tracer.stats
    assert stats["network.train_local"].calls == 3 and stats["augment.augment"].calls == 3
    assert stats["network.train_local"].counts["samples"] > 0
    assert stats["mixtures.em_fit"].counts["iters"] > 0
    federation_counts = stats["federation.run_federation"].counts
    assert federation_counts["model_floats"] > 0 and federation_counts["proto_up_floats"] > 0
    return stats


def test_run_federation_passes_datasets_and_configs_where_probes_read_them(tmp_path):
    traced_fedp3e_run(tmp_path, {"synthetic": {"n_classes": 3, "dims": 4, "cluster_spread": 0.05,
                                               "samples_per_class": 30, "seed": 0}})


def test_load_csv_dir_probe_counts_the_rows_loaded(tmp_path):
    # nbaiot9 reads its data through cli.load_csv_dir, which a synthetic run never calls.
    write_nbaiot_layout(tmp_path / "nbaiot", seed=8, devices=1, rows=12)
    stats = traced_fedp3e_run(tmp_path, {"csv_dir": {"path": str(tmp_path / "nbaiot")}})
    assert stats["datasets.load_csv_dir"].counts["rows"] == 5 * 12  # five captures of 12 rows


def test_clients_are_split_once_per_run_and_trained_once_per_strategy(tmp_path):
    # perfbench times the split through federation.stratified_split and each
    # strategy through cli.run_federation; the split is shared by every strategy.
    config = {
        "seed": 0,
        "data": {"synthetic": {"n_classes": 3, "dims": 4, "cluster_spread": 0.05,
                               "samples_per_class": 30, "seed": 0}},
        "partition": {"scenario": "light", "n_clients": 3},
        "federation": {
            "strategies": ["fedavg", "fedp3e"], "rounds": 1, "trigger_round": 1,
            "train": {"epochs": 1}, "model": {"hidden": [[4, 0.0]], "dropout_p": 0.0},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    child = load_child()
    wrapped = {(module.__name__, name) for module, name, _, _ in child.targets("trace")}
    assert {("protofed.federation", "stratified_split"), ("protofed.cli", "run_federation")} <= wrapped
    tracer = child.Tracer(child.targets("trace"))
    with tracer:
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert tracer.stats["datasets.stratified_split"].calls == 3
    assert tracer.stats["federation.run_federation"].calls == 2
    assert tracer.stats["network.train_local"].calls == 2 * 3
