import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.cli import CsvSource, RunSpec
from protofed.network import BN_MOMENTUM, _loss_and_grad, loss_and_grads
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

    def test_unknown_mode_rejected(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        with pytest.raises(ValueError, match="^mode must be 'train' or 'eval', got 'test'$"):
            loss_and_grads(params, np.zeros((2, 3)), np.zeros(2, dtype=int), mode="test")

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


def _adam_step(params, grad, t=1, learning_rate=1e-4):
    """One Adam step of ``params.flat`` from zero moments; returns the moments."""
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    pf.adam_step(params.flat, grad, m, v, t, learning_rate)
    return m, v


class TestAdamStep:
    def test_zero_gradient_leaves_parameters(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        before = params.flat.copy()
        m, v = _adam_step(params, np.zeros_like(params.flat))
        assert np.array_equal(params.flat, before)
        assert not m.any() and not v.any()

    def test_steps_in_place_and_returns_none(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        flat, stats = params.flat, params.stats.copy()
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        grads = np.linspace(-1.0, 1.0, params.flat.size)
        for t in (1, 2):
            assert pf.adam_step(params.flat, grads, m, v, t, 1e-4) is None
        assert params.flat is flat
        assert m.any() and v.any()
        assert np.array_equal(params.stats, stats)
        assert not np.array_equal(params.flat, pf.build_model(params.spec, seed=0).flat)

    def test_first_step_is_bias_corrected(self):
        # scalar parameter at 0, gradient 1, lr 0.1: m_hat/sqrt(v_hat) = 1
        spec = pf.ModelSpec(1, (), 0.0, 1)
        params = pf.build_model(spec, seed=0)
        params.tensors["w_out"][...] = np.array([[0.0]])
        grads = np.array([1.0, 0.0])  # w_out, b_out
        _adam_step(params, grads, learning_rate=0.1)
        assert params.tensors["w_out"][0, 0] == pytest.approx(-0.1, abs=1e-6)

    def test_shape_mismatch_rejected(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        grads = np.zeros(params.flat.size + 1)  # b1 one entry too long
        with pytest.raises(ValueError, match="shape mismatch"):
            _adam_step(params, grads)


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
        m, v = np.zeros_like(work.flat), np.zeros_like(work.flat)
        rng = np.random.default_rng(np.random.SeedSequence(9))
        for t in (1, 2, 3):
            order = rng.permutation(ds.n_samples)
            _, grads = loss_and_grads(work, ds.features[order], ds.labels[order], mode="train")
            grads = np.concatenate([g.ravel() for g in grads.values()])
            pf.adam_step(work.flat, grads, m, v, t, config.learning_rate)
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
        # the anchor is the model train_local starts from
        ds = two_blob_dataset(20, 3, 0.1, seed=4)
        start = randomized_params(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), 5)
        drift = {}
        for mu in (0.0, 1e6):
            config = pf.TrainConfig(epochs=2, batch_size=8, learning_rate=0.001, prox_mu=mu)
            trained, _ = pf.train_local(start, ds, config, 7)
            drift[mu] = np.linalg.norm(trained.flat - start.flat)
        assert drift[1e6] < drift[0.0]

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
        trained, _ = pf.train_local(start, ds, config, 11)
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

    @pytest.mark.parametrize("prox_mu", [0.0, 0.5])
    def test_matches_a_per_batch_loop_with_dropout_and_a_short_last_batch(self, prox_mu):
        ds = two_blob_dataset(20, 3, 0.1, seed=8)  # 40 rows: batches of 16, 16 and 8
        start = randomized_params(pf.ModelSpec(3, ((6, 0.01), (4, 0.01)), 0.3, 2), 2)
        config = pf.TrainConfig(epochs=3, batch_size=16, learning_rate=0.01, prox_mu=prox_mu)
        trained, history = pf.train_local(start, ds, config, 5)
        # oracle: gather each batch's rows and draw its dropout mask batch by
        # batch; the proximal term anchors at the model training started from
        spec, p = start.spec, start.spec.dropout_p
        work, grad = start.copy(), pf.ModelParams(spec)
        stats, batch_stats = work.stats, grad.stats
        m, v = np.zeros_like(work.flat), np.zeros_like(work.flat)
        t = 0  # counts steps across epochs
        rng = np.random.default_rng(np.random.SeedSequence(5))
        expected = []
        for _ in range(config.epochs):
            order = rng.permutation(ds.n_samples)
            total = 0.0
            for begin in range(0, ds.n_samples, config.batch_size):
                idx = order[begin : begin + config.batch_size]
                mask = (rng.random((idx.size, spec.hidden[0][0])) >= p) / (1.0 - p)
                loss = _loss_and_grad(work, grad, ds.features[idx], ds.labels[idx],
                                      prox_mu, start, True, mask)
                stats *= BN_MOMENTUM
                batch_stats *= 1.0 - BN_MOMENTUM
                stats += batch_stats
                t += 1
                pf.adam_step(work.flat, grad.flat, m, v, t, config.learning_rate)
                total += loss * idx.size
            expected.append(total / ds.n_samples)
        assert history == expected
        assert np.array_equal(trained.flat, work.flat)
        assert np.array_equal(trained.stats, work.stats)


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

    @pytest.mark.parametrize("run", [
        lambda params, ds: pf.train_local(params, ds, pf.TrainConfig(epochs=1), 0),
        pf.evaluate,
    ], ids=["train_local", "evaluate"])
    def test_labels_beyond_the_model_classes_rejected(self, run):
        # evaluate used to fail in its loss with numpy's IndexError
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        ds = pf.Dataset(np.zeros((3, 3)), np.array([0, 1, 2]), ("a", "b", "c"))
        with pytest.raises(ValueError, match="^labels outside the model's class range$"):
            run(params, ds)

    def test_empty_dataset_rejected(self):
        params = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
        ds = pf.Dataset(np.empty((0, 3)), [], ("a", "b"))
        with pytest.raises(ValueError, match="^cannot evaluate on an empty dataset$"):
            pf.evaluate(params, ds)

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

    def test_bound_views_see_in_place_buffer_writes(self):
        ds = two_blob_dataset(20, 3, 0.1, seed=8)
        params = randomized_params(pf.ModelSpec(3, ((5, 0.01), (4, 0.01)), 0.0, 2), 0)
        pf.evaluate(params, ds)  # binds the views
        rng = np.random.default_rng(1)
        params.flat[...] = rng.standard_normal(params.flat.size)
        params.stats[...] = 0.5 + rng.random(params.stats.size)
        fresh = pf.ModelParams(params.spec, params.flat.copy(), params.stats.copy())
        assert pf.evaluate(params, ds) == pf.evaluate(fresh, ds)

    def test_training_a_copy_leaves_the_original_and_its_views(self):
        ds = two_blob_dataset(20, 3, 0.1, seed=8)
        params = randomized_params(pf.ModelSpec(3, ((5, 0.01), (4, 0.01)), 0.3, 2), 0)
        report = pf.evaluate(params, ds)
        blocks = params._blocks
        flat, stats = params.flat.copy(), params.stats.copy()
        config = pf.TrainConfig(epochs=2, batch_size=8, learning_rate=0.01)
        trained, _ = pf.train_local(params.copy(), ds, config, 11)
        assert np.array_equal(params.flat, flat) and np.array_equal(params.stats, stats)
        assert params._blocks is blocks
        for owner in (params, trained):
            for block in owner._blocks:
                trainable = (block.w, block.b, block.gamma, block.beta)
                assert all(np.shares_memory(v, owner.flat) for v in trainable)
                assert all(np.shares_memory(v, owner.stats) for v in (block.mean, block.var))
        assert pf.evaluate(params, ds) == report
        assert pf.evaluate(trained, ds) != report

    def test_buffer_of_wrong_size_rejected(self):
        spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
        with pytest.raises(ValueError, match="flat must have shape"):
            pf.ModelParams(spec, np.zeros(pf.build_model(spec, seed=0).trainable_count + 1))


def _loss_with_prox_mu(prox_mu):
    model = pf.build_model(pf.ModelSpec(3, ((4, 0.0),), 0.0, 2), seed=0)
    return loss_and_grads(model, np.zeros((2, 3)), np.zeros(2, dtype=np.int64),
                          prox_mu=prox_mu, w_global=model)


def _report(**scores):
    values = dict(accuracy=0.5, macro_precision=0.5, macro_recall=0.5, macro_f1=0.5,
                  mean_loss=1.0, n_samples=4)
    return pf.EvalReport(**{**values, **scores})


def _protos():
    return pf.Prototypes({0: np.zeros((2, 3))})


def _augment(target_fraction=0.1, noise_sigma=0.0):
    local = pf.Dataset(np.zeros((4, 3)), np.array([1, 1, 1, 0]), ("a", "b"))
    return pf.augment(local, _protos(), target_fraction, noise_sigma, 0)


# Every float setting: (test id, name in its messages, range rule, build from a value).
_FLOAT_SETTINGS = [
    ("learning_rate", "learning_rate", "> 0", lambda v: pf.TrainConfig(learning_rate=v)),
    ("prox_mu", "prox_mu", ">= 0", lambda v: pf.TrainConfig(prox_mu=v)),
    ("l2", "l2 coefficients", ">= 0", lambda v: pf.ModelSpec(3, ((4, v),), 0.0, 2)),
    ("dropout_p", "dropout_p", "in [0, 1)", lambda v: pf.ModelSpec(3, ((4, 0.0),), v, 2)),
    ("loss-prox_mu", "prox_mu", ">= 0", _loss_with_prox_mu),
    *((score, score, "in [0, 1]", lambda v, score=score: _report(**{score: v}))
      for score in ("accuracy", "macro_precision", "macro_recall", "macro_f1")),
    ("mean_loss", "mean_loss", ">= 0", lambda v: _report(mean_loss=v)),
    ("threshold", "threshold", "in (0, 1]", lambda v: pf.FederationConfig(threshold=v)),
    ("federation-noise_sigma", "noise_sigma", ">= 0", lambda v: pf.FederationConfig(noise_sigma=v)),
    ("federation-target_fraction", "target_fraction", "in (0, 1]",
     lambda v: pf.FederationConfig(target_fraction=v)),
    ("cluster_spread", "cluster_spread", "> 0",
     lambda v: pf.SyntheticSpec(n_classes=2, dims=3, cluster_spread=v, samples_per_class=10)),
    ("target_fraction", "target_fraction", "in (0, 1]", lambda v: _augment(target_fraction=v)),
    # The level at which augment jitters a class's lone prototype.
    ("prototypes-noise_sigma", "noise_sigma", ">= 0", lambda v: _augment(noise_sigma=v)),
    ("sigma", "sigma", ">= 0", lambda v: pf.perturb(_protos(), v, 0)),
]


def _cases(*values_and_suffixes):
    """One case per float setting and value, its id the setting's id and the value's suffix."""
    return [pytest.param(name, rule, build, value, id=key + suffix)
            for value, suffix in values_and_suffixes for key, name, rule, build in _FLOAT_SETTINGS]


def _refusal(name, rule, value):
    return f"^{re.escape(f'{name} must be {rule}, got {value}')}$"


@pytest.mark.parametrize("name, rule, build, value", _cases((math.nan, "")))
def test_nan_fails_the_range_check(name, rule, build, value):
    # A NaN compares false both ways, so only a check that the value is in range rejects it.
    with pytest.raises(ValueError, match=_refusal(name, rule, value)):
        build(value)


@pytest.mark.parametrize("name, rule, build, value", _cases((math.inf, ""), (-math.inf, "-negative")))
def test_infinity_fails_the_finiteness_check(name, rule, build, value):
    # A check with only a lower bound lets infinity through to fail later, or never.
    unbounded = value > 0 and rule in ("> 0", ">= 0")
    with pytest.raises(ValueError, match=_refusal(name, "finite" if unbounded else rule, value)):
        build(value)


_BELOW_0, _ABOVE_0 = math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0)
_BELOW_1, _ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
# Each rule's bounds, as (the nearest value inside, the nearest value outside).
_EDGES = {
    "> 0": [(_ABOVE_0, 0.0)],
    ">= 0": [(0.0, _BELOW_0)],
    "in [0, 1)": [(0.0, _BELOW_0), (_BELOW_1, 1.0)],
    "in (0, 1)": [(_ABOVE_0, 0.0), (_BELOW_1, 1.0)],
    "in (0, 1]": [(_ABOVE_0, 0.0), (1.0, _ABOVE_1)],
    "in [0, 1]": [(0.0, _BELOW_0), (1.0, _ABOVE_1)],
}


@pytest.mark.parametrize("name, rule, build, inside, outside", [
    pytest.param(name, rule, build, inside, outside,
                 id=f"{key}-{'upper' if outside > inside else 'lower'}")
    for key, name, rule, build in _FLOAT_SETTINGS for inside, outside in _EDGES[rule]
])
def test_range_bounds_are_exact(name, rule, build, inside, outside):
    build(inside)
    with pytest.raises(ValueError, match=_refusal(name, rule, outside)):
        build(outside)


# Every count setting: (test id, name in its messages, least value, build from a value).
_COUNT_SETTINGS = [
    ("input_dim", "input_dim", 1, lambda v: pf.ModelSpec(v, ((4, 0.0),), 0.0, 2)),
    ("output_classes", "output_classes", 1, lambda v: pf.ModelSpec(3, ((4, 0.0),), 0.0, v)),
    ("units", "hidden layer units", 1, lambda v: pf.ModelSpec(3, ((v, 0.0),), 0.0, 2)),
    ("epochs", "epochs", 1, lambda v: pf.TrainConfig(epochs=v)),
    ("batch_size", "batch_size", 1, lambda v: pf.TrainConfig(batch_size=v)),
    ("n_samples", "n_samples", 1, lambda v: _report(n_samples=v)),
    ("rounds", "rounds", 1, lambda v: pf.FederationConfig(rounds=v, trigger_round=1)),
    *((key, key, 1, lambda v, key=key: pf.FederationConfig(**{key: v}))
      for key in ("trigger_round", "gmm_components")),
    ("federation-seed", "seed", 0, lambda v: pf.FederationConfig(seed=v)),
    ("n_classes", "n_classes", 1,
     lambda v: pf.SyntheticSpec(n_classes=v, dims=3, cluster_spread=0.1, samples_per_class=10)),
    ("dims", "dims", 1,
     lambda v: pf.SyntheticSpec(n_classes=2, dims=v, cluster_spread=0.1, samples_per_class=10)),
    ("clusters_per_class", "clusters_per_class", 1,
     lambda v: pf.SyntheticSpec(n_classes=2, dims=3, cluster_spread=0.1, samples_per_class=10,
                                clusters_per_class=v)),
    ("samples_per_class", "samples_per_class", 1,
     lambda v: pf.SyntheticSpec(n_classes=2, dims=3, cluster_spread=0.1, samples_per_class=v)),
    ("synthetic-seed", "seed", 0,
     lambda v: pf.SyntheticSpec(n_classes=2, dims=3, cluster_spread=0.1, samples_per_class=10, seed=v)),
    ("plan-n_clients", "n_clients", 1, lambda v: pf.build_partition_plan("iid", (4, 4), v)),
    ("run-n_clients", "n_clients", 1,
     lambda v: RunSpec(CsvSource("data"), "iid", v, pf.FederationConfig(), ("fedavg",), "out")),
    ("n_clusters", "n_clusters", 1, lambda v: pf.minibatch_kmeans(np.eye(2), v, 0)),
    ("n_prototypes", "n_prototypes", 1, pf.choose_cluster_count),
    ("class_id", "class ids", 0, lambda v: pf.Prototypes({v: [[0.0]]})),
    ("n_components", "n_components", 1, lambda v: pf.em_fit(np.eye(2), v, 0)),
    ("adam-t", "t", 1,
     lambda v: pf.adam_step(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), v, 0.1)),
]


@pytest.mark.parametrize("name, least, build, value, shape", [
    pytest.param(name, least, build, value, shape, id=f"{key}-{suffix}")
    for key, name, least, build in _COUNT_SETTINGS
    for value, shape, suffix in (
        (math.nan, "an integer", "nan"), (math.inf, "an integer", "inf"),
        (-math.inf, "an integer", "-inf"), (1.5, "an integer", "fraction"),
        (least - 1, f">= {least}", "below"),
        # Only gmm_components may be None, which leaves K to BIC.
        *[(None, "an integer", "none")] * (key != "gmm_components"),
    )
])
def test_count_refuses_a_non_integer_or_a_value_below_its_bound(name, least, build, value, shape):
    # operator.index refuses every float, so NaN, infinities and fractions all fail as non-integers.
    with pytest.raises(ValueError, match=_refusal(name, shape, value)):
        build(value)


@pytest.mark.parametrize("least, build", [
    pytest.param(least, build, id=key) for key, _, least, build in _COUNT_SETTINGS
])
def test_count_takes_its_bound_as_a_numpy_integer(least, build):
    build(np.int64(least))


@pytest.mark.parametrize("build, message", [
    (lambda: pf.ModelSpec(2, ((4.7, 0.0),), 0.0, 2), "hidden layer units must be an integer, got 4.7"),
    (lambda: pf.FederationConfig(hidden=((4.7, 1e-3),)),
     "hidden layer units must be an integer, got 4.7"),
    (lambda: pf.Prototypes({1.5: [[0.0]]}), "class ids must be an integer, got 1.5"),
    (lambda: pf.FederationConfig(rounds=float("nan")), "rounds must be an integer, got nan"),
], ids=["model-units", "federation-units", "class-id", "nan-rounds"])
def test_fractional_count_is_refused_not_truncated(build, message):
    # int() used to turn 4.7 units into 4 and class 1.5 into 1, and a NaN
    # rounds count failed the trigger_round check instead.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
