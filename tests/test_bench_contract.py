"""The benchmark in perfbench/ wraps functions by module attribute and checks
exact call counts; these tests keep the names and call pattern it relies on."""

import importlib.util
import math
from pathlib import Path

import protofed as pf
import protofed.federation as federation
import protofed.network as network
from helpers import two_blob_dataset

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_run_federation_passes_datasets_and_configs_where_probes_read_them(monkeypatch):
    # child.py reads args[1].n_samples * args[2].epochs of train_local and
    # args[0].n_samples of augment
    calls = []

    def record(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(federation, "train_local", record(federation.train_local))
    monkeypatch.setattr(federation, "augment", record(federation.augment))
    data = pf.synthesize(pf.SyntheticSpec(3, 4, 1, 0.05, 30, seed=0))
    shards = pf.partition(data, pf.build_partition_plan("severe", data.class_counts(), 3), seed=0)
    cfg = pf.FederationConfig(
        "fedp3e", rounds=1, trigger_round=1, train=pf.TrainConfig(epochs=1),
        model=pf.ModelSpec(4, ((4, 0.0),), 0.0, 3), scale_mode="none", gmm_components=1,
    )
    assert pf.run_federation(cfg, shards)[0].exchange_triggered
    names = [name for name, _ in calls]
    assert names.count("augment") == 3 and names.count("train_local") == 3
    for name, args in calls:
        if name == "train_local":
            assert isinstance(args[1], pf.Dataset) and isinstance(args[2], pf.TrainConfig)
        else:
            assert isinstance(args[0], pf.Dataset)
