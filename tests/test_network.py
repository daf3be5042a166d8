import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.network import init_adam, loss_and_grads
from helpers import fd_max_relative_error, randomized_params, two_blob_dataset

REFERENCE_SPEC = pf.ModelSpec(115, ((128, 1e-3), (64, 1e-3)), 0.5, 3)


class TestBuildModel:
    def test_reference_architecture_parameter_count(self):
        model = pf.build_model(REFERENCE_SPEC, seed=0)
        assert model.trainable_count == 23_683

    def test_hand_counted_tiny_model(self):
        # 2*3 + 3 weights/bias, 2*3 batch-norm, 3*2 + 2 output = 23
        model = pf.build_model(pf.ModelSpec(2, ((3, 0.0),), 0.0, 2), seed=0)
        assert model.trainable_count == 23

    def test_same_seed_same_parameters(self):
        a = pf.build_model(REFERENCE_SPEC, seed=42)
        b = pf.build_model(REFERENCE_SPEC, seed=42)
        assert np.array_equal(a.flat, b.flat)

    def test_biases_and_norm_defaults(self):
        model = pf.build_model(pf.ModelSpec(4, ((5, 0.0),), 0.0, 3), seed=1)
        assert (model.tensors["b1"] == 0).all()
        assert (model.tensors["gamma1"] == 1).all()
        assert (model.running["mean1"] == 0).all()
        assert (model.running["var1"] == 1).all()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_trainable_count_matches_closed_form(self, data):
        dims = data.draw(st.integers(1, 20))
        hidden = data.draw(st.lists(st.integers(1, 16), min_size=0, max_size=3))
        classes = data.draw(st.integers(1, 5))
        spec = pf.ModelSpec(dims, tuple((u, 0.0) for u in hidden), 0.0, classes)
        model = pf.build_model(spec, seed=0)
        expected = 0
        fan_in = dims
        for units in hidden:
            expected += fan_in * units + units + 2 * units
            fan_in = units
        expected += fan_in * classes + classes
        assert model.trainable_count == expected

    def test_dropout_requires_hidden_layer(self):
        with pytest.raises(ValueError, match="dropout"):
            pf.ModelSpec(3, (), 0.5, 2)


class TestForward:
    """The forward pass, seen through the losses and statistics it produces."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_probability_rows_sum_to_one(self, seed):
        # At L2 0 the eval loss of one row labelled c is -log p_c.
        rng = np.random.default_rng(seed)
        params = randomized_params(pf.ModelSpec(4, ((6, 0.0), (5, 0.0)), 0.0, 3), seed)
        for row in rng.standard_normal((7, 1, 4)):
            total = sum(math.exp(-loss_and_grads(params, row, [c], mode="eval")[0]) for c in range(3))
            assert abs(total - 1.0) < 1e-6

    def test_train_eval_differ_only_via_batch_norm_stats(self):
        rng = np.random.default_rng(0)
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
        params = randomized_params(spec, 0)
        x = rng.standard_normal((8, 3))
        y = rng.integers(0, 2, 8)
        # Align the running statistics with this batch's statistics.
        z = x @ params.tensors["w1"] + params.tensors["b1"]
        h = np.maximum(z, 0.0)
        params.running["mean1"][...] = h.mean(axis=0)
        params.running["var1"][...] = h.var(axis=0)
        eval_loss, _ = loss_and_grads(params, x, y, mode="eval")
        train_loss, _ = loss_and_grads(params, x, y, mode="train")
        assert train_loss == pytest.approx(eval_loss, abs=1e-12)

    def test_hand_computed_linear_softmax(self):
        spec = pf.ModelSpec(2, (), 0.0, 2)
        params = pf.build_model(spec, seed=0)
        params.tensors["w_out"][...] = np.array([[1.0, 2.0], [3.0, 4.0]])
        params.tensors["b_out"][...] = np.array([0.5, -0.5])
        logits = np.array([1.0 + 6.0 + 0.5, 2.0 + 8.0 - 0.5])
        expected = np.exp(logits) / np.exp(logits).sum()
        for c in range(2):
            loss, _ = loss_and_grads(params, np.array([[1.0, 2.0]]), [c], mode="eval")
            assert loss == pytest.approx(-math.log(expected[c]), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            loss_and_grads(params, np.zeros((2, 5)), np.zeros(2, dtype=int), mode="eval")
        with pytest.raises(ValueError, match="dimension mismatch"):
            pf.train_local(params, two_blob_dataset(2, 5, 0.05, seed=0), pf.TrainConfig(epochs=1), 0)

    def test_train_mode_updates_running_stats(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        before = params.running["mean1"].copy()
        ds = two_blob_dataset(8, 3, 0.05, seed=0)
        shifted = pf.Dataset(ds.features + 5.0, ds.labels, ds.class_names)
        trained, _ = pf.train_local(params, shifted, pf.TrainConfig(epochs=1), seed=0)
        assert not np.allclose(before, trained.running["mean1"])
        assert np.array_equal(before, params.running["mean1"])


class TestLossAndGrads:
    def test_prox_off_equals_plain_loss(self):
        spec = pf.ModelSpec(3, ((4, 0.01),), 0.0, 2)
        params = randomized_params(spec, 1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5)
        base, _ = loss_and_grads(params, x, y, mode="eval")
        with_anchor, _ = loss_and_grads(
            params, x, y, prox_mu=0.0, w_global=params.copy(), mode="eval"
        )
        assert base == with_anchor

    def test_zero_deviation_means_zero_prox(self):
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
        params = randomized_params(spec, 2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, 5)
        plain, _ = loss_and_grads(params, x, y, mode="eval")
        anchored, _ = loss_and_grads(params, x, y, prox_mu=10.0, w_global=params.copy(), mode="eval")
        assert anchored == pytest.approx(plain, abs=1e-12)

    def test_prox_without_anchor_rejected(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        with pytest.raises(ValueError, match="w_global"):
            loss_and_grads(params, np.zeros((2, 3)), np.zeros(2, dtype=int), prox_mu=0.5)

    def test_gradients_match_finite_differences(self):
        spec = pf.ModelSpec(2, ((3, 0.0),), 0.0, 2)
        assert fd_max_relative_error(spec, seed=0, mode="eval") <= 1e-4
        assert fd_max_relative_error(spec, seed=1, mode="train") <= 1e-4
        spec_l2 = pf.ModelSpec(2, ((3, 0.01), (3, 0.002)), 0.0, 3)
        assert fd_max_relative_error(spec_l2, seed=2, mode="train", prox_mu=0.7) <= 1e-4
        # dropout scales the first block's output and its upstream gradient alike
        spec_dropout = pf.ModelSpec(2, ((3, 0.01), (3, 0.002)), 0.5, 3)
        mask = (np.random.default_rng(3).random((6, 3)) >= 0.5) / 0.5
        assert fd_max_relative_error(spec_dropout, seed=3, mode="train", dropout_mask=mask) <= 1e-4


class TestAdamStep:
    def test_zero_gradient_leaves_parameters(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        before = params.flat.copy()
        grads = np.zeros_like(params.flat)
        stepped, state = pf.adam_step(params, grads, init_adam(params), pf.TrainConfig())
        assert np.array_equal(stepped.flat, before)
        assert state.t == 1

    def test_steps_in_place_and_returns_its_arguments(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        flat, stats = params.flat, params.stats.copy()
        state = init_adam(params)
        m, v = state.m, state.v
        grads = np.linspace(-1.0, 1.0, params.flat.size)
        for t in (1, 2):
            stepped, new_state = pf.adam_step(params, grads, state, pf.TrainConfig())
            assert stepped is params and new_state is state and state.t == t
        assert params.flat is flat and state.m is m and state.v is v
        assert np.array_equal(params.stats, stats)
        assert not np.array_equal(params.flat, pf.build_model(params.spec, seed=0).flat)

    def test_first_step_is_bias_corrected(self):
        # scalar parameter at 0, gradient 1, lr 0.1: m_hat/sqrt(v_hat) = 1
        spec = pf.ModelSpec(1, (), 0.0, 1)
        params = pf.build_model(spec, seed=0)
        params.tensors["w_out"][...] = np.array([[0.0]])
        grads = np.array([1.0, 0.0])  # w_out, b_out
        config = pf.TrainConfig(learning_rate=0.1, adam_epsilon=1e-7)
        stepped, _ = pf.adam_step(params, grads, init_adam(params), config)
        assert stepped.tensors["w_out"][0, 0] == pytest.approx(-0.1, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        grads = np.zeros(params.flat.size + 1)  # b1 one entry too long
        with pytest.raises(ValueError, match="shape mismatch"):
            pf.adam_step(params, grads, init_adam(params), pf.TrainConfig())


class TestTrainLocal:
    def test_one_step_per_epoch_when_batch_covers_data(self):
        ds = two_blob_dataset(5, 3, 0.05, seed=0)
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
        start = pf.build_model(spec, seed=1)
        config = pf.TrainConfig(epochs=3, batch_size=1000, learning_rate=0.01)
        trained, history = pf.train_local(start, ds, config, 9)
        assert len(history) == 3
        # oracle: replay the same three full-batch steps by hand
        work = start.copy()
        state = init_adam(work)
        rng = np.random.default_rng(np.random.SeedSequence(9))
        for _ in range(3):
            order = rng.permutation(ds.n_samples)
            _, grads = loss_and_grads(work, ds.features[order], ds.labels[order], mode="train")
            grads = np.concatenate([g.ravel() for g in grads.values()])
            work, state = pf.adam_step(work, grads, state, config)
        assert np.array_equal(trained.flat, work.flat)

    def test_learns_separable_blobs(self):
        # enough steps for the batch-norm running stats (EMA 0.99) to settle
        ds = two_blob_dataset(120, 4, 0.05, seed=2)
        spec = pf.ModelSpec(4, ((8, 0.001),), 0.0, 2)
        start = pf.build_model(spec, seed=0)
        config = pf.TrainConfig(epochs=15, batch_size=16, learning_rate=0.01)
        trained, history = pf.train_local(start, ds, config, 3)
        report = pf.evaluate(trained, ds)
        assert report.accuracy >= 0.95
        assert history[-1] < history[0]

    def test_huge_mu_contracts_toward_anchor(self):
        ds = two_blob_dataset(20, 3, 0.1, seed=4)
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
        start = randomized_params(spec, 5)
        anchor = pf.build_model(spec, seed=6)
        before = np.linalg.norm(start.flat - anchor.flat)
        config = pf.TrainConfig(epochs=2, batch_size=8, learning_rate=0.001, prox_mu=1e6)
        trained, _ = pf.train_local(start, ds, config, 7, w_global=anchor)
        after = np.linalg.norm(trained.flat - anchor.flat)
        assert after <= before

    def test_two_runs_identical(self):
        ds = two_blob_dataset(20, 3, 0.1, seed=8)
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.3, 2)
        start = pf.build_model(spec, seed=0)
        config = pf.TrainConfig(epochs=2, batch_size=8, learning_rate=0.01)
        first, hist_a = pf.train_local(start, ds, config, 11)
        second, hist_b = pf.train_local(start, ds, config, 11)
        assert hist_a == hist_b
        assert np.array_equal(first.flat, second.flat)

    def test_input_params_unchanged(self):
        ds = two_blob_dataset(20, 3, 0.1, seed=8)
        start = randomized_params(pf.ModelSpec(3, ((4, 0.01),), 0.3, 2), 0)
        flat, stats = start.flat.copy(), start.stats.copy()
        config = pf.TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, prox_mu=0.1)
        trained, _ = pf.train_local(start, ds, config, 11, w_global=start)
        assert np.array_equal(start.flat, flat) and np.array_equal(start.stats, stats)
        assert not np.array_equal(trained.flat, flat)
        assert not np.array_equal(trained.stats, stats)

    def test_non_finite_loss_names_epoch_and_batch(self):
        ds = two_blob_dataset(20, 3, 0.1, seed=8)  # 40 rows: 3 batches of 16
        start = pf.build_model(pf.ModelSpec(3, ((4, 0.01),), 0.0, 2), seed=0)
        config = pf.TrainConfig(epochs=2, batch_size=16, learning_rate=1e300)
        with pytest.raises(FloatingPointError, match=r"non-finite loss nan in epoch 1, batch 2"):
            pf.train_local(start, ds, config, 0)

    def test_empty_dataset_rejected(self):
        ds = pf.Dataset(np.empty((0, 3)), [], ("a",))
        start = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        with pytest.raises(ValueError, match="empty"):
            pf.train_local(start, ds, pf.TrainConfig(), 0)


class TestEvaluate:
    def test_all_correct_gives_perfect_scores(self):
        ds = two_blob_dataset(40, 4, 0.03, seed=1)
        spec = pf.ModelSpec(4, ((8, 0.0),), 0.0, 2)
        trained, _ = pf.train_local(
            pf.build_model(spec, seed=0), ds,
            pf.TrainConfig(epochs=20, batch_size=16, learning_rate=0.02), 2,
        )
        report = pf.evaluate(trained, ds)
        if report.accuracy == 1.0:
            assert report.macro_f1 == 1.0
            assert report.macro_precision == 1.0
        else:  # keep the assertion meaningful even if the fit is imperfect
            assert report.accuracy >= 0.95

    def test_hand_computed_confusion_arithmetic(self):
        # predictions: argmax of [x, -x] -> class 0 iff x > 0
        spec = pf.ModelSpec(1, (), 0.0, 2)
        params = pf.build_model(spec, seed=0)
        params.tensors["w_out"][...] = np.array([[1.0, -1.0]])
        params.tensors["b_out"][...] = np.zeros(2)
        features = np.array([[1.0], [-1.0], [-1.0], [-1.0]])
        labels = np.array([0, 0, 1, 1])  # confusion [[1, 1], [0, 2]]
        report = pf.evaluate(params, pf.Dataset(features, labels, ("a", "b")))
        assert report.accuracy == pytest.approx(0.75)
        assert report.macro_precision == pytest.approx((1.0 + 2.0 / 3.0) / 2)
        assert report.macro_recall == pytest.approx((0.5 + 1.0) / 2)

    def test_chance_level_on_random_labels(self):
        rng = np.random.default_rng(9)
        ds = pf.Dataset(rng.random((3000, 4)), rng.integers(0, 3, 3000), ("a", "b", "c"))
        params = pf.build_model(pf.ModelSpec(4, ((6, 0.0),), 0.0, 3), seed=1)
        report = pf.evaluate(params, ds)
        assert abs(report.accuracy - 1.0 / 3.0) <= 0.05

    def test_loss_excludes_regularizers(self):
        ds = two_blob_dataset(10, 3, 0.1, seed=3)
        spec = pf.ModelSpec(3, ((4, 0.5),), 0.0, 2)  # huge l2
        params = randomized_params(spec, 4)
        report = pf.evaluate(params, ds)
        plain_ce, _ = loss_and_grads(params, ds.features, ds.labels, mode="eval")
        l2_term = 0.5 * float((params.tensors["w1"] ** 2).sum())
        assert report.mean_loss == pytest.approx(plain_ce - l2_term, abs=1e-9)


    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 11).flatmap(lambda c: st.tuples(
        st.just(c),
        st.lists(st.tuples(st.integers(0, c - 1), st.integers(0, c - 1)), min_size=1, max_size=40),
    )))
    @example((4, [(0, 0), (0, 2), (1, 1)]))  # class 2 predicted but never true, class 3 in neither
    @example((3, [(1, 2), (1, 2)]))  # no true positives: precision and recall are 0 everywhere
    def test_macro_scores_equal_per_class_loop(self, case):
        n_classes, pairs = case
        labels = np.array([t for t, _ in pairs])
        preds = np.array([p for _, p in pairs])
        # One-hot inputs through an identity output layer predict exactly ``preds``.
        params = pf.build_model(pf.ModelSpec(n_classes, (), 0.0, n_classes), seed=0)
        params.tensors["w_out"][...] = np.eye(n_classes)
        params.tensors["b_out"][...] = 0.0
        names = tuple(f"c{i}" for i in range(n_classes))
        report = pf.evaluate(params, pf.Dataset(np.eye(n_classes)[preds], labels, names))

        confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
        for t, p in pairs:
            confusion[t, p] += 1
        precisions, recalls, f1s = [], [], []
        for c in range(n_classes):
            tp, predicted, actual = confusion[c, c], confusion[:, c].sum(), confusion[c, :].sum()
            if predicted == 0 and actual == 0:
                continue
            p = tp / predicted if predicted > 0 else 0.0
            r = tp / actual if actual > 0 else 0.0
            precisions.append(p)
            recalls.append(r)
            f1s.append(2 * p * r / (p + r) if (p + r) > 0 else 0.0)
        assert report.accuracy == float((labels == preds).mean())
        assert report.macro_precision == float(np.mean(precisions))
        assert report.macro_recall == float(np.mean(recalls))
        assert report.macro_f1 == float(np.mean(f1s))


class TestEvalReport:
    def test_ratios_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="accuracy"):
            pf.EvalReport(1.0000000000000002, 0.5, 0.5, 0.5, 0.1, 3)
        with pytest.raises(ValueError, match="macro_f1"):
            pf.EvalReport(0.5, 0.5, 0.5, -0.1, 0.1, 3)

    def test_negative_or_nan_loss_rejected(self):
        with pytest.raises(ValueError, match="mean_loss"):
            pf.EvalReport(0.5, 0.5, 0.5, 0.5, -1e-9, 3)
        with pytest.raises(ValueError, match="mean_loss"):
            pf.EvalReport(0.5, 0.5, 0.5, 0.5, math.nan, 3)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            pf.EvalReport(0.5, 0.5, 0.5, 0.5, 0.1, 0)


class TestParamLayout:
    def test_view_writes_reach_flat_vector_and_record(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        params.tensors["b1"][...] = [1.0, 2.0, 3.0, 4.0]
        params.running["var1"][2] = 9.0
        # layout: w1 (3x4), then b1; running: mean1 (4), then var1
        assert params.flat[12:16].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert params.stats[6] == 9.0

    def test_rebinding_a_name_raises(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        with pytest.raises(TypeError):
            params.tensors["b1"] = np.ones(4)
        with pytest.raises(TypeError):
            params.running["mean1"] = np.ones(4)

    def test_buffer_of_wrong_size_rejected(self):
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
        with pytest.raises(ValueError, match="flat must have shape"):
            pf.ModelParams(spec, np.zeros(pf.build_model(spec, seed=0).trainable_count + 1))
