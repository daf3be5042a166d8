import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.augment import ELIGIBILITY_RULES


def make_local(counts, dims=3, seed=0, n_classes=None):
    rng = np.random.default_rng(seed)
    n_classes = n_classes or len(counts)
    labels = np.concatenate([np.full(n, c) for c, n in enumerate(counts)]).astype(int)
    names = tuple(f"c{i}" for i in range(n_classes))
    return pf.Dataset(rng.random((labels.size, dims)), labels, names)


def make_gp(class_to_vectors, sigma=0.01):
    protos = {c: np.asarray(v, dtype=float) for c, v in class_to_vectors.items()}
    return pf.Prototypes(protos, noise_sigma=sigma)


class TestSmotePair:
    def test_endpoints(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 5.0])
        assert np.array_equal(pf.smote_pair(a, b, 0.0), a)
        assert np.array_equal(pf.smote_pair(a, b, 1.0), b)

    def test_midpoint(self):
        out = pf.smote_pair(np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5)
        assert out.tolist() == [1.0, 2.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            pf.smote_pair(np.zeros(2), np.zeros(3), 0.5)

    def test_coefficient_range_enforced(self):
        with pytest.raises(ValueError, match="coefficient"):
            pf.smote_pair(np.zeros(2), np.ones(2), 1.5)


class TestAugment:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 30), min_size=2, max_size=5).filter(any),
        st.floats(0.01, 1.0),
        st.sampled_from(ELIGIBILITY_RULES),
        st.integers(1, 3),
        st.integers(0, 1000),
    )
    def test_adds_exact_budget_with_eligible_labels(self, counts, fraction, rule, n_protos, seed):
        local = make_local(counts, seed=seed)
        rng = np.random.default_rng(seed)
        gp = make_gp({c: rng.random((n_protos, 3)) for c in range(len(counts))})
        n = local.n_samples
        eligible = {
            "missing_only": {c for c, k in enumerate(counts) if k == 0},
            "below_mean_count": {c for c, k in enumerate(counts) if k < n / len(counts)},
            "all": set(range(len(counts))),
        }[rule]
        out = pf.augment(local, gp, pf.AugmentationPolicy(fraction, rule), seed=seed)
        assert out.n_samples - n == (round(fraction * n) if eligible else 0)
        assert np.array_equal(out.features[:n], local.features)
        assert np.array_equal(out.labels[:n], local.labels)
        assert set(out.labels[n:].tolist()) <= eligible

    def test_exact_ten_percent_budget(self):
        local = make_local([500, 400, 100])
        gp = make_gp({c: np.random.default_rng(c).random((3, 3)) for c in range(3)})
        out = pf.augment(local, gp, pf.AugmentationPolicy(0.10, "all"), 1)
        assert out.n_samples == 1100

    def test_rounding_on_small_sets(self):
        local = make_local([20, 17])  # 37 rows -> round(3.7) = 4
        gp = make_gp({0: [[0.1] * 3, [0.9] * 3], 1: [[0.2] * 3, [0.8] * 3]})
        out = pf.augment(local, gp, pf.AugmentationPolicy(0.10, "all"), 2)
        assert out.n_samples == 41

    def test_missing_only_labels(self):
        local = make_local([50], n_classes=3)
        gp = make_gp({c: [[0.1 * c] * 3, [0.2 * c + 0.1] * 3] for c in range(3)})
        out = pf.augment(local, gp, pf.AugmentationPolicy(0.10, "missing_only"), 3)
        new_labels = set(out.labels[50:].tolist())
        assert new_labels <= {1, 2}
        assert out.n_samples == 55

    def test_below_mean_count_includes_missing(self):
        local = make_local([90, 9], n_classes=3)  # mean count = 33; classes 1, 2 eligible
        gp = make_gp({c: [[0.1] * 3, [0.9] * 3] for c in range(3)})
        out = pf.augment(local, gp, pf.AugmentationPolicy(0.10, "below_mean_count"), 4)
        added = out.labels[99:]
        assert set(added.tolist()) == {1, 2}
        # remainder goes to the rarest eligible class (class 2, locally absent)
        assert (added == 2).sum() >= (added == 1).sum()

    def test_segment_membership_oracle(self):
        rng = np.random.default_rng(5)
        local = make_local([200], n_classes=2)
        protos = rng.random((4, 6))
        gp = pf.Prototypes({1: protos}, noise_sigma=0.01)
        out = pf.augment(
            pf.Dataset(rng.random((200, 6)), np.zeros(200, dtype=int), ("a", "b")),
            gp,
            pf.AugmentationPolicy(0.10, "missing_only"),
            6,
        )
        synthetic = out.features[200:]
        assert len(synthetic) == 20
        for row in synthetic:
            assert _on_some_segment(row, protos)

    def test_label_conservation(self):
        local = make_local([300, 60, 40])
        gp = make_gp({c: np.random.default_rng(10 + c).random((3, 3)) for c in range(3)})
        out = pf.augment(local, gp, pf.AugmentationPolicy(0.10, "below_mean_count"), 7)
        budget = round(0.10 * 400)
        base, rem = divmod(budget, 2)
        expected = local.class_counts().copy()
        expected[1] += base
        expected[2] += base + rem  # class 2 is the rarest eligible
        assert out.class_counts().tolist() == expected.tolist()

    def test_deterministic(self):
        local = make_local([100, 20])
        gp = make_gp({c: np.random.default_rng(20 + c).random((3, 3)) for c in range(2)})
        policy = pf.AugmentationPolicy(0.15, "below_mean_count")
        a = pf.augment(local, gp, policy, 8)
        b = pf.augment(local, gp, policy, 8)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_eligible_class_without_prototypes_rejected(self):
        local = make_local([50], n_classes=3)
        gp = make_gp({1: [[0.5] * 3, [0.6] * 3]})  # class 2 missing from gp
        with pytest.raises(ValueError, match="'c2'.*no prototypes"):
            pf.augment(local, gp, pf.AugmentationPolicy(0.10, "missing_only"), 9)

    def test_single_prototype_jitter_fallback(self):
        local = make_local([60], n_classes=2)
        center = np.full(3, 0.5)
        gp = pf.Prototypes({1: center[None, :]}, noise_sigma=0.01)
        out = pf.augment(local, gp, pf.AugmentationPolicy(0.10, "missing_only"), 10)
        synthetic = out.features[60:]
        assert len(synthetic) == 6
        assert np.abs(synthetic - center).max() <= 5 * 0.01

    def test_no_eligible_classes_is_identity(self):
        local = make_local([50, 50])
        gp = make_gp({0: [[0.1] * 3], 1: [[0.9] * 3]})
        out = pf.augment(local, gp, pf.AugmentationPolicy(0.10, "below_mean_count"), 11)
        assert out.n_samples == 100

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="target_fraction"):
            pf.AugmentationPolicy(0.0, "all")
        with pytest.raises(ValueError, match="eligibility"):
            pf.AugmentationPolicy(0.1, "sometimes")


def _on_some_segment(row, protos, tol=1e-9):
    """True when row = a + coeff (b - a) for one prototype pair, coeff in [0,1]."""
    n = protos.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = protos[i], protos[j]
            span = b - a
            coeffs = []
            consistent = True
            for d in range(len(a)):
                if abs(span[d]) < tol:
                    if abs(row[d] - a[d]) > tol:
                        consistent = False
                        break
                else:
                    coeffs.append((row[d] - a[d]) / span[d])
            if not consistent or not coeffs:
                continue
            lam = coeffs[0]
            if all(abs(c - lam) <= tol for c in coeffs) and -tol <= lam <= 1 + tol:
                return True
    return False
