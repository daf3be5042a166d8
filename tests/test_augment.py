import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
from helpers import on_some_segment


def make_local(counts, dims=3, seed=0, n_classes=None):
    rng = np.random.default_rng(seed)
    n_classes = n_classes or len(counts)
    labels = np.concatenate([np.full(n, c) for c, n in enumerate(counts)]).astype(int)
    names = tuple(f"c{i}" for i in range(n_classes))
    return pf.Dataset(rng.random((labels.size, dims)), labels, names)


def make_gp(class_to_vectors):
    return pf.Prototypes({c: np.asarray(v, dtype=float) for c, v in class_to_vectors.items()})


def reference_synthetic(gp, plan, noise_sigma, seed):
    """The synthetic rows and labels of ``plan``, (class id, rows) in eligible order,
    drawn one row at a time: a coefficient, then a distinct prototype pair to
    interpolate or, for a lone prototype, a Gaussian jitter."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    rows, labels = [], []
    for class_id, n_rows in plan:
        protos = gp.by_class[class_id]
        for _ in range(n_rows):
            c = rng.random()
            if len(protos) >= 2:
                a, b = protos[rng.choice(len(protos), 2, replace=False)]
                rows.append(a + c * (b - a))
            else:
                rows.append(protos[0] + rng.normal(0.0, noise_sigma, size=protos.shape[1]))
            labels.append(class_id)
    return np.asarray(rows), np.asarray(labels, dtype=np.int64)


class TestAugment:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=2, max_size=5).filter(any),
        st.floats(0.01, 1.0),
        st.integers(1, 3),
        st.integers(0, 1000),
    )
    def test_adds_exact_budget_with_eligible_labels(self, counts, fraction, n_protos, seed):
        local = make_local(counts, seed=seed)
        rng = np.random.default_rng(seed)
        gp = make_gp({c: rng.random((n_protos, 3)) for c in range(len(counts))})
        n = local.n_samples
        eligible = {c for c, k in enumerate(counts) if k < n / len(counts)}
        out = pf.augment(local, gp, fraction, 0.01, seed=seed)
        assert out.n_samples - n == (round(fraction * n) if eligible else 0)
        assert np.array_equal(out.features[:n], local.features)
        assert np.array_equal(out.labels[:n], local.labels)
        assert set(out.labels[n:].tolist()) <= eligible

    @pytest.mark.parametrize("counts, n_classes, gp_rows, noise_sigma, plan", [
        # Class 1 is absent locally and gets the whole budget of 6 from 4 prototypes.
        pytest.param([60], 2, {1: 4}, 0.01, [(1, 6)], id="multi-prototype"),
        pytest.param([60], 2, {1: 1}, 0.05, [(1, 6)], id="lone-prototype"),
        # Mean count 50/3: a budget of 5 over classes 1 and 2, the remainder to class 2.
        pytest.param([40, 6, 4], 3, {0: 2, 1: 3, 2: 1}, 0.02, [(1, 2), (2, 3)], id="remainder"),
    ])
    def test_synthetic_rows_equal_the_reference_loop(self, counts, n_classes, gp_rows, noise_sigma, plan):
        local = make_local(counts, dims=4, seed=3, n_classes=n_classes)
        rng = np.random.default_rng(4)
        gp = make_gp({c: rng.random((k, 4)) for c, k in gp_rows.items()})
        out = pf.augment(local, gp, 0.10, noise_sigma, 15)
        rows, labels = reference_synthetic(gp, plan, noise_sigma, 15)
        n = local.n_samples
        assert out.features[n:].tobytes() == rows.tobytes()
        assert out.labels[n:].tolist() == labels.tolist()

    def test_exact_ten_percent_budget(self):
        local = make_local([500, 400, 100])
        gp = make_gp({c: np.random.default_rng(c).random((3, 3)) for c in range(3)})
        out = pf.augment(local, gp, 0.10, 0.01, 1)
        assert out.n_samples == 1100

    def test_rounding_on_small_sets(self):
        local = make_local([20, 17])  # 37 rows -> round(3.7) = 4
        gp = make_gp({0: [[0.1] * 3, [0.9] * 3], 1: [[0.2] * 3, [0.8] * 3]})
        out = pf.augment(local, gp, 0.10, 0.01, 2)
        assert out.n_samples == 41

    def test_below_mean_count_includes_missing(self):
        local = make_local([90, 9], n_classes=3)  # mean count = 33; classes 1, 2 eligible
        gp = make_gp({c: [[0.1] * 3, [0.9] * 3] for c in range(3)})
        out = pf.augment(local, gp, 0.10, 0.01, 4)
        added = out.labels[99:]
        assert set(added.tolist()) == {1, 2}
        # remainder goes to the rarest eligible class (class 2, locally absent)
        assert (added == 2).sum() >= (added == 1).sum()

    def test_segment_membership_oracle(self):
        rng = np.random.default_rng(5)
        local = make_local([200], n_classes=2)
        protos = rng.random((4, 6))
        out = pf.augment(
            pf.Dataset(rng.random((200, 6)), np.zeros(200, dtype=int), ("a", "b")),
            pf.Prototypes({1: protos}),
            0.10,
            0.01,
            6,
        )
        synthetic = out.features[200:]
        assert len(synthetic) == 20
        for row in synthetic:
            assert on_some_segment(row, protos)

    def test_label_conservation(self):
        local = make_local([300, 60, 40])
        gp = make_gp({c: np.random.default_rng(10 + c).random((3, 3)) for c in range(3)})
        out = pf.augment(local, gp, 0.10, 0.01, 7)
        budget = round(0.10 * 400)
        base, rem = divmod(budget, 2)
        expected = local.class_counts().copy()
        expected[1] += base
        expected[2] += base + rem  # class 2 is the rarest eligible
        assert out.class_counts().tolist() == expected.tolist()

    def test_deterministic(self):
        local = make_local([100, 20])
        gp = make_gp({c: np.random.default_rng(20 + c).random((3, 3)) for c in range(2)})
        a = pf.augment(local, gp, 0.15, 0.01, 8)
        b = pf.augment(local, gp, 0.15, 0.01, 8)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_eligible_class_without_prototypes_gets_no_rows(self):
        # Mean count 22: classes 1, 2 and 3 are below it, but gp lacks class 3.
        local = make_local([70, 10, 8], n_classes=4)
        gp = make_gp({c: [[0.1 * c] * 3, [0.1 * c + 0.05] * 3] for c in range(3)})
        out = pf.augment(local, gp, 0.10, 0.01, 9)
        budget, rows = round(0.10 * 88), local.class_counts().copy()
        rows[1] += budget // 2
        rows[2] += budget // 2 + budget % 2  # the rarest covered class, not class 3
        assert out.class_counts().tolist() == rows.tolist()

    def test_no_covered_eligible_class_is_identity(self):
        local = make_local([50], n_classes=3)  # classes 1 and 2 are eligible
        gp = make_gp({0: [[0.5] * 3, [0.6] * 3]})
        assert pf.augment(local, gp, 0.10, 0.01, 9) is local

    def test_single_prototype_jitter_fallback(self):
        local = make_local([60], n_classes=2)
        center = np.full(3, 0.5)
        gp = pf.Prototypes({1: center[None, :]})
        out = pf.augment(local, gp, 0.10, 0.01, 10)
        synthetic = out.features[60:]
        assert len(synthetic) == 6
        assert np.abs(synthetic - center).max() <= 5 * 0.01

    def test_no_eligible_classes_is_identity(self):
        local = make_local([50, 50])
        gp = make_gp({0: [[0.1] * 3], 1: [[0.9] * 3]})
        out = pf.augment(local, gp, 0.10, 0.01, 11)
        assert out.n_samples == 100

    def test_policy_validation(self):
        local = make_local([50, 5])
        gp = make_gp({0: [[0.1] * 3], 1: [[0.9] * 3]})
        with pytest.raises(ValueError, match=r"^target_fraction must be in \(0, 1\], got 0.0$"):
            pf.augment(local, gp, 0.0, 0.01, 12)
        with pytest.raises(ValueError, match="^noise_sigma must be >= 0, got -0.01$"):
            pf.augment(local, gp, 0.10, -0.01, 12)

    def test_empty_local_set_rejected(self):
        local = make_local([0, 0])
        gp = make_gp({0: [[0.1] * 3], 1: [[0.9] * 3]})
        with pytest.raises(ValueError, match="^cannot augment an empty dataset$"):
            pf.augment(local, gp, 0.10, 0.01, 13)

    def test_prototypes_covering_no_class_rejected(self):
        with pytest.raises(ValueError, match="^global prototypes cover no classes$"):
            pf.augment(make_local([50, 5]), pf.Prototypes({}), 0.10, 0.01, 14)
