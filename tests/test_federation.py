import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
import protofed.federation as federation
from protofed.federation import FederationError, _combine_reports, _scale_clients
from protofed.network import flatten_trainable
from helpers import randomized_params


def scalar_params(values, seed=0):
    """Tiny 1-in/1-out model whose tensors are set to a constant."""
    spec = pf.ModelSpec(1, (), 0.0, 1)
    params = pf.build_model(spec, seed=seed)
    params.tensors["w_out"][...] = np.array([[float(values)]])
    params.tensors["b_out"][...] = np.array([float(values)])
    return params


def severe_shards(n_per_class=60, dims=6, seed=0):
    data = pf.synthesize(pf.SyntheticSpec(3, dims, 1, 0.05, n_per_class, seed=seed))
    plan = pf.build_partition_plan("severe", data.class_counts(), 3)
    return pf.partition(data, plan, seed=seed)


def small_config(strategy="fedavg", **overrides):
    base = dict(
        strategy=strategy,
        n_clients=3,
        rounds=4,
        trigger_round=2,
        accuracy_threshold=0.97,
        noise_sigma=0.01,
        train=pf.TrainConfig(epochs=2, batch_size=16, learning_rate=0.005),
        model=pf.ModelSpec(6, ((8, 1e-3), (4, 1e-3)), 0.5, 3),
        scale_mode="none",
        seed=5,
    )
    base.update(overrides)
    return pf.FederationConfig(**base)


class TestFedavgAggregate:
    def test_single_client_identity(self):
        params = randomized_params(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), 1)
        merged = pf.fedavg_aggregate([(params, 10)])
        assert np.array_equal(flatten_trainable(merged), flatten_trainable(params))

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
    def test_global_mode_scales_by_pooled_min_and_max(self):
        rng = np.random.default_rng(3)
        clients = []
        for k, n in enumerate((5, 8, 4)):
            features = np.column_stack([rng.normal(k, 1.0 + k, (n, 3)), np.full(n, 7.0)])
            clients.append(pf.Dataset(features, np.arange(n) % 2, ("a", "b")))
        scaled = _scale_clients(clients, "global")
        assert [ds.n_samples for ds in scaled] == [5, 8, 4]
        for before, after in zip(clients, scaled):
            assert np.array_equal(before.labels, after.labels)
        pooled = np.vstack([ds.features for ds in scaled])
        assert np.array_equal(pooled.min(axis=0), [0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(pooled.max(axis=0), [1.0, 1.0, 1.0, 0.0])
        # bytes of the per-client implementation this replaced
        digest = hashlib.sha256(pooled.tobytes()).hexdigest()
        assert digest == "88a1b8daf1fb6a74d8feedfa588667d9d28eee7c902558c81a4bb73d2f65479c"


def fake_metrics(round_index, accuracy, exchanged=False, n_clients=3):
    report = pf.EvalReport(accuracy, accuracy, accuracy, accuracy, 0.5, 100)
    return pf.RoundMetrics(
        round_index=round_index,
        global_report=report,
        client_reports=(report,) * n_clients,
        model_upload_floats=n_clients * 100,
        model_download_floats=n_clients * 100,
        proto_upload_floats=(0,) * n_clients,
        proto_download_floats=0,
        exchange_triggered=exchanged,
    )


class TestCombineReports:
    @pytest.mark.parametrize("weighting", ["test_size", "uniform"])
    def test_nine_perfect_clients_combine_to_one(self, weighting):
        # weights of 1/9 sum to 1.0000000000000002, just past the ratio bound
        sizes = (71, 547, 524, 600, 164, 108, 611, 64, 401)
        reports = tuple(pf.EvalReport(1.0, 1.0, 1.0, 1.0, 0.01, n) for n in sizes)
        combined = _combine_reports(reports, weighting)
        assert combined.accuracy == 1.0
        assert combined.macro_precision == 1.0
        assert combined.macro_recall == 1.0
        assert combined.macro_f1 == 1.0
        assert combined.n_samples == sum(sizes)


class TestShouldTriggerExchange:
    def config(self, strategy="fedp3e"):
        return small_config(strategy=strategy, rounds=10, trigger_round=6)

    def test_low_mean_accuracy_triggers(self):
        history = [fake_metrics(t, 0.96) for t in range(1, 6)]
        assert pf.should_trigger_exchange(history, self.config()) is True

    def test_high_mean_accuracy_stays_dormant(self):
        history = [fake_metrics(t, 0.98) for t in range(1, 6)]
        assert pf.should_trigger_exchange(history, self.config()) is False

    def test_only_fires_at_trigger_round(self):
        history = [fake_metrics(t, 0.5) for t in range(1, 7)]  # next round is 7
        assert pf.should_trigger_exchange(history, self.config()) is False

    def test_never_fires_twice(self):
        history = [fake_metrics(t, 0.5, exchanged=(t == 3)) for t in range(1, 6)]
        assert pf.should_trigger_exchange(history, self.config()) is False

    def test_other_strategies_never_fire(self):
        history = [fake_metrics(t, 0.5) for t in range(1, 6)]
        assert pf.should_trigger_exchange(history, self.config("fedavg")) is False


class TestClientPrototypes:
    def test_uploaded_rows_bit_equal_to_em_fit_means(self):
        rng = np.random.default_rng(12)
        labels = np.array([0] * 30 + [1] * 20 + [3] * 1)
        train = pf.Dataset(rng.random((labels.size, 4)), labels, ("a", "b", "c", "d"))
        cfg = small_config("fedp3e", gmm_components=2)
        protos = federation._client_prototypes(train, cfg, round_index=2, client=1)
        assert protos.classes() == (0, 1, 3)
        assert protos.noise_sigma == 0.0
        for class_id, rows in protos.by_class.items():
            seed = federation._int_seed(cfg.seed, federation._SEED_GMM, 2, 1, class_id)
            class_rows = train.features[labels == class_id]
            model = pf.em_fit(class_rows, min(2, class_rows.shape[0]), seed)
            assert np.array_equal(rows, model.means)


class TestRunFederation:
    def test_fedavg_float_accounting_is_model_only(self):
        shards = severe_shards()
        cfg = small_config("fedavg")
        history = pf.run_federation(cfg, shards)
        d_w = pf.build_model(cfg.model, 0).trainable_count
        for metrics in history:
            assert metrics.uploaded_floats == 3 * d_w
            assert metrics.downloaded_floats == 3 * d_w
            assert metrics.proto_upload_floats == (0, 0, 0)
            assert not metrics.exchange_triggered

    def test_exchange_only_at_trigger_round(self):
        shards = severe_shards()
        history = pf.run_federation(small_config("fedp3e"), shards)
        flags = [m.exchange_triggered for m in history]
        assert flags == [False, True, False, False]
        assert sum(flags) <= 1
        assert pf.exchange_round(history) == 2

    def test_exchange_round_carries_prototype_floats(self):
        shards = severe_shards()
        history = pf.run_federation(small_config("fedp3e"), shards)
        exchange = history[1]
        assert all(count > 0 for count in exchange.proto_upload_floats)
        assert exchange.proto_download_floats > 0
        d_w = pf.build_model(small_config("fedp3e").model, 0).trainable_count
        assert exchange.uploaded_floats > 3 * d_w
        # every round still moves at least two model payloads per client
        for metrics in history:
            assert metrics.uploaded_floats + metrics.downloaded_floats >= 2 * d_w

    def test_bit_identical_reruns(self):
        shards = severe_shards()
        cfg = small_config("fedp3e")
        a = pf.run_federation(cfg, shards)
        b = pf.run_federation(cfg, shards)
        for ma, mb in zip(a, b):
            assert ma == mb

    def test_client_error_carries_context(self):
        shards = severe_shards()
        bad = [shards[0], shards[1], pf.Dataset(np.empty((0, 6)), [], ("a", "b", "c"))]
        with pytest.raises(FederationError, match="client 2"):
            pf.run_federation(small_config("fedavg"), bad)

    def test_nan_feature_fails_before_training(self):
        # one NaN cell used to train through and fail in round 1 on a NaN loss
        shards = severe_shards()
        features = shards[0].features.copy()
        features[4, 2] = np.nan
        with pytest.raises(ValueError, match="row 4, column 2 is nan"):
            shards[0] = pf.Dataset(features, shards[0].labels, shards[0].class_names)
            pf.run_federation(small_config("fedavg", rounds=2, trigger_round=1), shards)

    def test_class_names_must_agree(self):
        shards = severe_shards()
        shards[1] = pf.Dataset(shards[1].features, shards[1].labels, ("x", "y", "z"))
        with pytest.raises(FederationError, match=r"client 1: classes \('x', 'y', 'z'\)"):
            pf.run_federation(small_config("fedavg"), shards)

    def test_feature_count_must_agree(self):
        shards = severe_shards()
        wide = np.hstack([shards[1].features, np.zeros((shards[1].n_samples, 1))])
        shards[1] = pf.Dataset(wide, shards[1].labels, shards[1].class_names)
        with pytest.raises(FederationError, match="client 1: 7 features, client 0 has 6"):
            pf.run_federation(small_config("fedavg"), shards)

    def test_client_count_checked(self):
        shards = severe_shards()
        with pytest.raises(ValueError, match="3 clients"):
            pf.run_federation(small_config("fedavg"), shards[:2])

    def test_divergence_names_round_and_client(self):
        # used to stop with a bare "mean_loss must be >= 0, got nan" from evaluate
        train = pf.TrainConfig(epochs=2, batch_size=16, learning_rate=1e300)
        cfg = small_config("fedavg", train=train)
        with pytest.raises(FederationError, match=r"round 1, client 0: non-finite loss"):
            pf.run_federation(cfg, severe_shards())

    def test_huge_finite_loss_is_not_divergence(self):
        train = pf.TrainConfig(epochs=2, batch_size=16, learning_rate=1e8)
        cfg = small_config("fedavg", train=train)
        history = pf.run_federation(cfg, severe_shards())
        assert len(history) == cfg.rounds
        assert history[-1].global_report.mean_loss > 1e3
        assert all(math.isfinite(m.global_report.mean_loss) for m in history)

    def test_evaluation_error_carries_context(self, monkeypatch):
        def failing(params, ds):
            raise ValueError("evaluation failed")

        monkeypatch.setattr(federation, "evaluate", failing)
        with pytest.raises(FederationError, match="round 1, client 0: evaluation failed"):
            pf.run_federation(small_config("fedavg"), severe_shards())

    def test_uniform_eval_weighting(self):
        shards = severe_shards()
        cfg = small_config("fedavg", eval_weighting="uniform", rounds=1, trigger_round=1)
        history = pf.run_federation(cfg, shards)
        reports = history[0].client_reports
        expected = float(np.mean([r.accuracy for r in reports]))
        assert history[0].global_report.accuracy == pytest.approx(expected)

    def test_running_stats_can_be_excluded_from_aggregation(self):
        shards = severe_shards()
        cfg = small_config("fedavg", rounds=1, trigger_round=1, aggregate_running_stats=False)
        history = pf.run_federation(cfg, shards)
        assert history  # run completes; per-round stats equal the initial model's
        cfg2 = small_config("fedavg", rounds=1, trigger_round=1)
        history2 = pf.run_federation(cfg2, shards)
        assert history2[0].global_report != history[0].global_report

    def test_config_invariants(self):
        with pytest.raises(ValueError, match="threshold must be in"):
            small_config("fedavg", accuracy_threshold=1.5)
        with pytest.raises(ValueError, match="trigger_round"):
            small_config("fedavg", trigger_round=9, rounds=4)
        with pytest.raises(ValueError, match="prox_mu"):
            small_config("fedprox")
        with pytest.raises(ValueError, match="strategy"):
            small_config("fedsgd")

    @pytest.mark.parametrize("key, value", [
        ("gmm_components", 0), ("gmm_max_components", 0),
        ("global_prototypes_per_class", 0), ("global_prototypes_per_class", -1),
    ])
    def test_non_positive_prototype_counts_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be >= 1, got {value}"):
            small_config("fedp3e", **{key: value})


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
                trained, _ = pf.train_local(anchor, ds, config, seed, w_global=anchor)
                drifts[mu] = np.linalg.norm(
                    flatten_trainable(trained) - flatten_trainable(anchor)
                )
            if drifts[2.0] > drifts[0.1]:
                violations += 1
        assert violations <= 1


class TestCommCostReport:
    def test_analytic_counts_and_ratios(self):
        report = pf.comm_cost_report(
            [], d_w=23_683, d_x=115, protos_per_class=3, global_protos_per_class=4,
            classes_per_client=3, n_global_classes=3,
        )
        assert report.upload_floats == 1035
        assert report.download_floats == 1380
        assert report.upload_ratio == pytest.approx(1035 / 23_683)
        assert report.matches_run

    def test_mismatch_detected(self):
        metrics = fake_metrics(1, 0.5)
        report = pf.comm_cost_report(
            [metrics], d_w=99, d_x=10, protos_per_class=1, global_protos_per_class=1,
            classes_per_client=1, n_global_classes=1,
        )
        assert not report.matches_run
        assert any("model upload" in m for m in report.mismatches)
