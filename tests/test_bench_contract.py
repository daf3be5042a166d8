"""The benchmark in perfbench/ wraps functions by module attribute and checks
exact call counts; these tests keep the names and call pattern it relies on."""

import importlib.util
import math
from pathlib import Path

import protofed as pf
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
    config = pf.TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, seed=1)
    pf.train_local(pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.3, 2), seed=0), ds, config)
    assert len(calls) == config.epochs * math.ceil(ds.n_samples / config.batch_size)
