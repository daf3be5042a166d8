import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
import protofed.federation as federation
from protofed.cli import RunSpec
from protofed.federation import FederationError, _combine_reports
from helpers import nudged_runs, randomized_params

SRC = Path(__file__).resolve().parent.parent / "src"


def scalar_params(values, seed=0):
    """Tiny 1-in/1-out model whose tensors are set to a constant."""
    spec = pf.ModelSpec(1, (), 0.0, 1)
    params = pf.build_model(spec, seed=seed)
    params.tensors["w_out"][...] = np.array([[float(values)]])
    params.tensors["b_out"][...] = np.array([float(values)])
    return params


def severe_shards(n_per_class=60, dims=6, seed=0):
    data = pf.synthesize(pf.SyntheticSpec(n_classes=3, dims=dims, cluster_spread=0.05,
                                          samples_per_class=n_per_class, seed=seed))
    plan = pf.build_partition_plan("severe", data.class_counts(), 3)
    return pf.partition(data, plan, seed=seed)


def severe_clients():
    """The severe shards split as every ``small_config`` splits them."""
    return pf.split_clients(small_config(), severe_shards())


def small_config(**overrides):
    base = dict(
        rounds=4,
        trigger_round=2,
        threshold=0.97,
        noise_sigma=0.01,
        train=pf.TrainConfig(epochs=2, batch_size=16, learning_rate=0.005),
        hidden=((8, 1e-3), (4, 1e-3)),
        dropout_p=0.5,
        scale_mode="none",
        seed=5,
    )
    base.update(overrides)
    return pf.FederationConfig(**base)


class TestFedavgAggregate:
    def test_single_client_identity(self):
        params = randomized_params(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), 1)
        merged = pf.fedavg_aggregate([(params, 10)])
        assert np.array_equal(merged.flat, params.flat)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.lists(st.integers(1, 1000), min_size=1, max_size=8))
    def test_identical_models_average_to_themselves(self, seed, weights):
        # rounding of w/total and of the running sum may cost up to one ulp per client
        params = randomized_params(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed)
        merged = pf.fedavg_aggregate([(params, w) for w in weights])
        np.testing.assert_array_max_ulp(merged.flat, params.flat, maxulp=len(weights))
        np.testing.assert_array_max_ulp(merged.stats, params.stats, maxulp=len(weights))

    def test_equal_weights_midpoint(self):
        merged = pf.fedavg_aggregate([(scalar_params(0.0), 5), (scalar_params(4.0), 5)])
        assert merged.tensors["w_out"][0, 0] == 2.0

    def test_weighted_mean(self):
        merged = pf.fedavg_aggregate([(scalar_params(0.0), 1), (scalar_params(4.0), 3)])
        assert merged.tensors["w_out"][0, 0] == 3.0

    def test_running_stats_are_averaged(self):
        a = pf.build_model(pf.ModelSpec(2, ((3, 0.0),), 0.0, 2), seed=0)
        b = pf.build_model(pf.ModelSpec(2, ((3, 0.0),), 0.0, 2), seed=0)
        a.running["mean1"][...] = np.zeros(3)
        b.running["mean1"][...] = np.ones(3)
        merged = pf.fedavg_aggregate([(a, 1), (b, 1)])
        assert np.allclose(merged.running["mean1"], 0.5)

    def test_bit_equal_to_two_loop_oracle(self):
        rng = np.random.default_rng(2)
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
        updates = [(randomized_params(spec, int(rng.integers(1e6))), int(rng.integers(1, 50)))
                   for _ in range(4)]
        merged = pf.fedavg_aggregate(updates)
        total = sum(w for _, w in updates)
        for name in merged.tensors:
            flat = [p.tensors[name].ravel() for p, _ in updates]
            expected = np.zeros_like(flat[0])
            for i in range(expected.size):
                acc = 0.0
                for (params, weight), values in zip(updates, flat):
                    acc += (weight / total) * values[i]
                expected[i] = acc
            assert np.array_equal(merged.tensors[name].ravel(), expected)

    def test_empty_and_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            pf.fedavg_aggregate([])
        with pytest.raises(ValueError, match="zero"):
            pf.fedavg_aggregate([(scalar_params(1.0), 0)])

    def test_shape_mismatch_rejected(self):
        a = randomized_params(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), 0)
        b = randomized_params(pf.ModelSpec(3, ((5, 0.0),), 0.0, 2), 0)
        with pytest.raises(ValueError, match="shape mismatch"):
            pf.fedavg_aggregate([(a, 1), (b, 1)])


class TestScaleClients:
    def test_one_scaled_copy_alive_at_a_time(self, monkeypatch):
        scaled, alive = [], []
        min_max_scale = federation.min_max_scale

        def recording_scale(ds):
            # every copy scaled so far must be gone before the next is made
            alive.append(sum(ref() is not None for ref in scaled))
            result = min_max_scale(ds)
            scaled.extend([weakref.ref(result), weakref.ref(result.features)])
            return result

        monkeypatch.setattr(federation, "min_max_scale", recording_scale)
        splits = pf.split_clients(small_config(scale_mode="local"), severe_shards())
        assert len(splits) == 3
        assert alive == [0, 0, 0]

    def test_unsplittable_class_names_the_client(self):
        shards = severe_shards()
        one_row = shards[1].select(np.array([0]))
        with pytest.raises(FederationError, match="client 1: class 'class_1' has 1 sample"):
            pf.split_clients(small_config(), [shards[0], one_row, shards[2]])


def fake_metrics(accuracy, n_clients=3):
    report = pf.EvalReport(accuracy, accuracy, accuracy, accuracy, 0.5, 100)
    return pf.RoundMetrics(
        client_reports=(report,) * n_clients,
        model_floats=100,
        proto_upload_floats=(0,) * n_clients,
        proto_download_floats=0,
    )


class TestCombineReports:
    def test_nine_perfect_clients_combine_to_one(self):
        # weights of 1/9 sum to 1.0000000000000002, just past the ratio bound
        sizes = (71, 547, 524, 600, 164, 108, 611, 64, 401)
        reports = tuple(pf.EvalReport(1.0, 1.0, 1.0, 1.0, 0.01, n) for n in sizes)
        combined = _combine_reports(reports)
        assert combined.accuracy == 1.0
        assert combined.macro_precision == 1.0
        assert combined.macro_recall == 1.0
        assert combined.macro_f1 == 1.0
        assert combined.n_samples == sum(sizes)


class TestShouldTriggerExchange:
    def config(self):
        return small_config(rounds=10, trigger_round=6)

    def test_low_mean_accuracy_triggers(self):
        history = [fake_metrics(0.96)] * 5
        assert pf.should_trigger_exchange(history, self.config()) is True

    def test_high_mean_accuracy_stays_dormant(self):
        history = [fake_metrics(0.98)] * 5
        assert pf.should_trigger_exchange(history, self.config()) is False

    def test_only_fires_at_trigger_round(self):
        history = [fake_metrics(0.5)] * 6  # next round is 7
        assert pf.should_trigger_exchange(history, self.config()) is False

    def test_other_strategies_never_fire(self, monkeypatch):
        # run_federation asks the rule only under fedp3e
        asked = []
        monkeypatch.setattr(federation, "should_trigger_exchange", lambda *args: asked.append(1) or True)
        train = pf.TrainConfig(epochs=1, batch_size=16, learning_rate=0.005, prox_mu=0.1)
        cfg = small_config(rounds=2, trigger_round=2, train=train)
        for strategy in ("fedavg", "fedprox"):
            history = pf.run_federation(cfg, severe_clients(), strategy)
            assert not any(m.exchange_triggered for m in history)
        assert asked == []
        history = pf.run_federation(cfg, severe_clients(), "fedp3e")
        assert [m.exchange_triggered for m in history] == [True, True] and len(asked) == 2


class TestClientPrototypes:
    def test_uploaded_rows_bit_equal_to_em_fit_means(self):
        rng = np.random.default_rng(12)
        labels = np.array([0] * 30 + [1] * 20 + [3] * 1)
        train = pf.Dataset(rng.random((labels.size, 4)), labels, ("a", "b", "c", "d"))
        cfg = small_config(gmm_components=2)
        protos = federation._client_prototypes(train, cfg, r=2, client=1)
        assert tuple(sorted(protos.by_class)) == (0, 1, 3)
        for class_id, rows in protos.by_class.items():
            seed = federation._int_seed(cfg.seed, federation._SEED_GMM, 2, 1, class_id)
            class_rows = train.features[labels == class_id]
            model = pf.em_fit(class_rows, min(2, class_rows.shape[0]), seed)
            assert np.array_equal(rows, model.means)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_lone_prototypes_are_jittered_at_the_config_noise_sigma(self, monkeypatch, sigma):
        # One component per class and one class per client leave each class
        # one global prototype, so every synthetic row is that row plus noise.
        broadcast = []

        def recording_aggregate(uploads, seed):
            broadcast.append(pf.aggregate_prototypes(uploads, seed))
            return broadcast[-1]

        monkeypatch.setattr(federation, "aggregate_prototypes", recording_aggregate)
        cfg = small_config(gmm_components=1, noise_sigma=sigma)
        train_sets = [train for train, _ in pf.split_clients(cfg, severe_shards())]
        before = [train.n_samples for train in train_sets]
        federation._exchange(cfg, train_sets, 2)
        (gp,) = broadcast
        assert all(rows.shape[0] == 1 for rows in gp.by_class.values())
        assert all(train.n_samples > n for train, n in zip(train_sets, before))
        synthetic = np.vstack([train.features[n:] for train, n in zip(train_sets, before)])
        labels = np.concatenate([train.labels[n:] for train, n in zip(train_sets, before)])
        centers = np.vstack([gp.by_class[int(label)] for label in labels])
        if sigma == 0.0:
            assert synthetic.tobytes() == centers.tobytes()
        else:
            deviations = synthetic - centers
            assert deviations.all()
            assert np.abs(deviations).max() <= 5 * sigma
            # A lower level would keep the rows closer than this.
            assert np.abs(deviations).max() > sigma

    def test_exchange_does_not_import_numpy_ma(self):
        # numpy.ma adds about a MiB to a run's resident memory, and np.unique imports it.
        # A fresh interpreter, because another test may have imported it already.
        script = """
import sys
import protofed as pf
data = pf.synthesize(pf.SyntheticSpec(n_classes=3, dims=4, cluster_spread=0.05,
                                      samples_per_class=30, seed=0))
shards = pf.partition(data, pf.build_partition_plan("severe", data.class_counts(), 3), seed=0)
cfg = pf.FederationConfig(rounds=1, trigger_round=1, threshold=1.0, gmm_components=None,
                          train=pf.TrainConfig(epochs=1), hidden=((4, 0.0),), dropout_p=0.0,
                          scale_mode="none", seed=0)
history = pf.run_federation(cfg, pf.split_clients(cfg, shards), "fedp3e")
assert history[0].exchange_triggered
print("numpy.ma" in sys.modules)
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


class TestRunFederation:
    def test_fedavg_float_accounting_is_model_only(self):
        clients = severe_clients()
        cfg = small_config()
        history = pf.run_federation(cfg, clients, "fedavg")
        d_w = pf.build_model(pf.ModelSpec(6, cfg.hidden, cfg.dropout_p, 3), 0).trainable_count
        for metrics in history:
            assert metrics.uploaded_floats == 3 * d_w
            assert metrics.downloaded_floats == 3 * d_w
            assert metrics.proto_upload_floats == (0, 0, 0)
            assert not metrics.exchange_triggered

    def test_exchange_only_at_trigger_round(self):
        clients = severe_clients()
        history = pf.run_federation(small_config(), clients, "fedp3e")
        flags = [m.exchange_triggered for m in history]
        assert flags == [False, True, False, False]
        assert sum(flags) <= 1
        assert pf.exchange_round(history) == 2

    def test_exchange_round_carries_prototype_floats(self):
        clients = severe_clients()
        history = pf.run_federation(small_config(), clients, "fedp3e")
        exchange = history[1]
        assert all(count > 0 for count in exchange.proto_upload_floats)
        assert exchange.proto_download_floats > 0
        cfg = small_config()
        d_w = pf.build_model(pf.ModelSpec(6, cfg.hidden, cfg.dropout_p, 3), 0).trainable_count
        assert exchange.uploaded_floats > 3 * d_w
        # every round still moves at least two model payloads per client
        for metrics in history:
            assert metrics.uploaded_floats + metrics.downloaded_floats >= 2 * d_w

    def test_exchange_flag_is_a_nonempty_broadcast(self, severe_run):
        # The severe fixture runs 20 rounds with its exchange at round 6.
        _, histories = severe_run
        flags = {strategy: [r for r, m in enumerate(history, 1) if m.exchange_triggered]
                 for strategy, history in histories.items()}
        assert flags == {"fedavg": [], "fedprox": [], "fedp3e": [6]}
        for history in histories.values():
            for m in history:
                assert m.exchange_triggered == (m.proto_download_floats > 0)
                assert m.exchange_triggered == any(m.proto_upload_floats)

    def test_bit_identical_reruns(self):
        clients = severe_clients()
        cfg = small_config()
        a = pf.run_federation(cfg, clients, "fedp3e")
        b = pf.run_federation(cfg, clients, "fedp3e")
        for ma, mb in zip(a, b):
            assert ma == mb

    def test_strategies_share_the_splits(self):
        # the exchange augments the train sets; the caller's splits stay as they were
        clients = severe_clients()
        before = list(clients)
        history = pf.run_federation(small_config(), clients, "fedp3e")
        assert pf.exchange_round(history) == 2
        assert all(a is b for pair, kept in zip(clients, before) for a, b in zip(pair, kept))
        after_p3e = pf.run_federation(small_config(), clients, "fedavg")
        assert after_p3e == pf.run_federation(small_config(), severe_clients(), "fedavg")

    def test_nan_feature_fails_before_training(self):
        # one NaN cell used to train through and fail in round 1 on a NaN loss
        shards = severe_shards()
        features = shards[0].features.copy()
        features[4, 2] = np.nan
        with pytest.raises(ValueError, match="row 4, column 2 is nan"):
            shards[0] = pf.Dataset(features, shards[0].labels, shards[0].class_names)
            pf.split_clients(small_config(rounds=2, trigger_round=1), shards)

    def test_client_error_carries_context(self):
        shards = severe_shards()
        bad = [shards[0], shards[1], pf.Dataset(np.empty((0, 6)), [], ("a", "b", "c"))]
        with pytest.raises(FederationError, match="client 2"):
            pf.split_clients(small_config(), bad)

    def test_class_names_must_agree(self):
        shards = severe_shards()
        shards[1] = pf.Dataset(shards[1].features, shards[1].labels, ("x", "y", "z"))
        with pytest.raises(FederationError, match=r"client 1: classes \('x', 'y', 'z'\)"):
            pf.split_clients(small_config(), shards)

    def test_feature_count_must_agree(self):
        shards = severe_shards()
        wide = np.hstack([shards[1].features, np.zeros((shards[1].n_samples, 1))])
        shards[1] = pf.Dataset(wide, shards[1].labels, shards[1].class_names)
        with pytest.raises(FederationError, match="client 1: 7 features, client 0 has 6"):
            pf.split_clients(small_config(), shards)

    def test_no_clients_rejected(self):
        with pytest.raises(ValueError, match="at least one client"):
            pf.split_clients(small_config(), [])

    def test_client_count_comes_from_the_data(self):
        clients = severe_clients()
        history = pf.run_federation(small_config(rounds=1, trigger_round=1), clients[:2], "fedavg")
        assert history[0].n_clients == 2
        assert len(history[0].proto_upload_floats) == 2

    def test_divergence_names_round_and_client(self):
        # used to stop with a bare "mean_loss must be >= 0, got nan" from evaluate
        train = pf.TrainConfig(epochs=2, batch_size=16, learning_rate=1e300)
        cfg = small_config(train=train)
        with pytest.raises(FederationError, match=r"round 1, client 0: non-finite loss"):
            pf.run_federation(cfg, severe_clients(), "fedavg")

    def test_huge_finite_loss_is_not_divergence(self):
        train = pf.TrainConfig(epochs=2, batch_size=16, learning_rate=1e8)
        cfg = small_config(train=train)
        history = pf.run_federation(cfg, severe_clients(), "fedavg")
        assert len(history) == cfg.rounds
        assert history[-1].global_report.mean_loss > 1e3
        assert all(math.isfinite(m.global_report.mean_loss) for m in history)

    def test_evaluation_error_carries_context(self, monkeypatch):
        def failing(params, ds):
            raise ValueError("evaluation failed")

        monkeypatch.setattr(federation, "evaluate", failing)
        with pytest.raises(FederationError, match="round 1, client 0: evaluation failed"):
            pf.run_federation(small_config(), severe_clients(), "fedavg")

    # The context a round gives a failure of each module attribute it calls.
    FAILURE_CONTEXT = {
        "select_k_bic": "round 2, client 0",
        "perturb": "round 2, client 0",
        "aggregate_prototypes": "round 2",
        "augment": "round 2, client 0",
        "train_local": "round 2, client 0",
        "fedavg_aggregate": "round 2",
        "evaluate": "round 2, client 0",
    }

    @pytest.mark.parametrize("name", FAILURE_CONTEXT)
    def test_each_phase_failure_names_its_round(self, monkeypatch, name):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        ask = federation.should_trigger_exchange

        def failing_from_round_two(history, cfg):
            if len(history) == 1:
                monkeypatch.setattr(federation, name, boom)
            return ask(history, cfg)

        monkeypatch.setattr(federation, "should_trigger_exchange", failing_from_round_two)
        # small_config's exchange fires in round 2, so every phase runs then.
        with pytest.raises(FederationError, match=f"^{self.FAILURE_CONTEXT[name]}: boom$"):
            pf.run_federation(small_config(rounds=2), severe_clients(), "fedp3e")

    def test_scaled_copies_released_before_training(self, monkeypatch):
        scaled, alive = [], []
        min_max_scale, train_local = federation.min_max_scale, federation.train_local

        def recording_scale(ds):
            result = min_max_scale(ds)
            scaled.extend([weakref.ref(result), weakref.ref(result.features)])
            return result

        def checking_train_local(*args, **kwargs):
            if not alive:
                alive.append([ref() is not None for ref in scaled])
            return train_local(*args, **kwargs)

        monkeypatch.setattr(federation, "min_max_scale", recording_scale)
        monkeypatch.setattr(federation, "train_local", checking_train_local)
        cfg = small_config(rounds=1, trigger_round=1, scale_mode="local")
        pf.run_federation(cfg, pf.split_clients(cfg, severe_shards()), "fedavg")
        assert alive == [[False] * 6]

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="threshold must be in"):
            small_config(threshold=1.5)
        with pytest.raises(ValueError, match="trigger_round"):
            small_config(trigger_round=9, rounds=4)
        with pytest.raises(ValueError, match="prox_mu"):
            federation.check_strategy("fedprox", small_config())
        with pytest.raises(ValueError, match="strategy"):
            federation.check_strategy("fedsgd", small_config())

    @pytest.mark.parametrize("strategy, message", [
        ("fedsgd", "unknown strategy 'fedsgd'"), ("fedprox", "fedprox requires train.prox_mu > 0"),
    ])
    def test_strategy_rejected_before_training(self, monkeypatch, strategy, message):
        monkeypatch.setattr(federation, "train_local", None)
        with pytest.raises(ValueError, match=message):
            pf.run_federation(small_config(), severe_clients(), strategy)

    @pytest.mark.parametrize("key, value", [("gmm_components", 0)])
    def test_non_positive_prototype_counts_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be >= 1, got {value}"):
            small_config(**{key: value})

    def test_model_sizes_come_from_the_data(self, monkeypatch):
        # One config sizes the model to each client set's features and classes.
        built = []
        build_model = federation.build_model
        monkeypatch.setattr(federation, "build_model",
                            lambda spec, seed: built.append(spec) or build_model(spec, seed))
        cfg = pf.FederationConfig(rounds=1, trigger_round=1, hidden=((4, 0.0),), dropout_p=0.0,
                                  train=pf.TrainConfig(epochs=1), scale_mode="none", seed=0)
        for n_classes, dims in ((3, 6), (2, 9)):
            data = pf.synthesize(pf.SyntheticSpec(n_classes=n_classes, dims=dims, cluster_spread=0.05,
                                                  samples_per_class=20, seed=dims))
            shards = pf.partition(data, pf.build_partition_plan("iid", data.class_counts(), 2), seed=0)
            history = pf.run_federation(cfg, pf.split_clients(cfg, shards), "fedavg")
            spec = pf.ModelSpec(dims, cfg.hidden, cfg.dropout_p, n_classes)
            assert built[-1] == spec
            assert history[0].model_floats == pf.build_model(spec, 0).trainable_count

    @pytest.mark.parametrize("overrides, message", [
        ({"hidden": ((0, 1e-3),)}, "hidden layer units must be >= 1, got 0"),
        ({"hidden": ((8, -1.0),)}, "l2 coefficients must be >= 0, got -1.0"),
        ({"hidden": ((8, math.inf),)}, "l2 coefficients must be finite, got inf"),
        ({"dropout_p": 1.0}, r"dropout_p must be in \[0, 1\), got 1.0"),
        ({"hidden": ()}, "dropout requires at least one hidden layer"),
    ], ids=["zero-units", "negative-l2", "infinite-l2", "dropout-one", "dropout-without-layers"])
    def test_bad_architecture_fails_at_the_config_with_model_spec_message(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            pf.FederationConfig(**overrides)

    def test_hidden_layers_normalised_as_model_spec_does(self):
        cfg = pf.FederationConfig(hidden=[[8, 0], [4, 1]])
        assert cfg.hidden == ((8, 0.0), (4, 1.0))
        assert type(cfg.hidden[0][1]) is float
        assert hash(cfg) == hash(pf.FederationConfig(hidden=((8, 0.0), (4, 1.0))))


def test_claims_hold_across_one_ulp_nudges_of_the_initial_model():
    # A severe split that fedavg leaves at chance and fedp3e learns. The float
    # counts do not depend on the model, so they are pinned: one prototype per
    # class, 6 floats up from each client and 3 x 6 down, so a broadcast that
    # dropped a class would show here and nowhere else in the band.
    fed = small_config(train=pf.TrainConfig(epochs=3, batch_size=16, learning_rate=0.02),
                       hidden=((8, 1e-3),), dropout_p=0.0)
    data = pf.SyntheticSpec(n_classes=3, dims=6, cluster_spread=0.05, samples_per_class=60, seed=0)
    config = RunSpec(data, "severe", 3, fed, ("fedavg", "fedp3e"))
    d_w = pf.build_model(pf.ModelSpec(6, fed.hidden, fed.dropout_p, 3), 0).trainable_count
    runs = nudged_runs(config, np.linspace(0, d_w - 1, 8).astype(int))
    quiet = (d_w, (0, 0, 0), 0)
    expected = {"fedavg": [quiet] * 4, "fedp3e": [quiet, (d_w, (6, 6, 6), 18), quiet, quiet]}
    for histories in runs:
        assert pf.exchange_round(histories["fedp3e"]) == 2
        for strategy, history in histories.items():
            floats = [(m.model_floats, m.proto_upload_floats, m.proto_download_floats) for m in history]
            assert floats == expected[strategy]
        final = {strategy: history[-1].global_report.accuracy for strategy, history in histories.items()}
        assert final["fedp3e"] >= final["fedavg"]
    # The nudges reach the outputs, or the band would say nothing.
    assert len({repr(histories["fedp3e"]) for histories in runs}) > 1


class TestProxDeviation:
    def test_larger_mu_shrinks_local_drift(self):
        # one local-training round per seed; at most one seed may violate
        spec = pf.ModelSpec(4, ((6, 0.0),), 0.0, 2)
        violations = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            features = rng.random((80, 4))
            labels = (features.sum(axis=1) > 2.0).astype(int)
            ds = pf.Dataset(features, labels, ("lo", "hi"))
            anchor = pf.build_model(spec, seed=seed)
            drifts = {}
            for mu in (0.1, 2.0):
                config = pf.TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, prox_mu=mu)
                trained, _ = pf.train_local(anchor, ds, config, seed)
                drifts[mu] = np.linalg.norm(trained.flat - anchor.flat)
            if drifts[2.0] > drifts[0.1]:
                violations += 1
        assert violations <= 1

