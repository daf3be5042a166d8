import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
from protofed.mixtures import COVARIANCE_FLOOR, n_free_parameters, responsibilities


def blob(rng, center, spread, n, dims):
    return rng.normal(center, spread, (n, dims))


class TestEmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        x = blob(rng, 2.0, 0.4, 60, 3)
        model = pf.em_fit(x, 1, seed=0)
        assert model.weights.tolist() == [1.0]
        assert np.allclose(model.means[0], x.mean(axis=0))
        assert np.allclose(model.covariances[0], np.maximum(x.var(axis=0), COVARIANCE_FLOOR))

    def test_recovers_separated_blob_centers(self):
        rng = np.random.default_rng(1)
        spread, n = 0.1, 150
        x = np.vstack([blob(rng, 0.0, spread, n, 2), blob(rng, 5.0, spread, n, 2)])
        model = pf.em_fit(x, 2, seed=1)
        tol = 3 * spread / np.sqrt(n)
        recovered = sorted(model.means[:, 0])
        assert abs(recovered[0] - 0.0) <= tol
        assert abs(recovered[1] - 5.0) <= tol

    def test_rerun_same_seed_identical(self):
        rng = np.random.default_rng(2)
        x = rng.random((80, 3))
        a = pf.em_fit(x, 3, seed=5)
        b = pf.em_fit(x, 3, seed=5)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.covariances, b.covariances)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            x = rng.random((50, 2)) * rng.uniform(0.5, 3.0)
            model = pf.em_fit(x, rng.integers(1, 4), seed=trial)
            diffs = np.diff(model.log_likelihood_history)
            assert (diffs >= -1e-8).all()

    def test_responsibilities_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = rng.random((40, 3))
        model = pf.em_fit(x, 3, seed=0)
        resp = responsibilities(model, x)
        assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-9

    def test_too_many_components_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            pf.em_fit(np.zeros((2, 2)), 3, seed=0)

    def test_non_finite_input_rejected(self):
        x = np.ones((5, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pf.em_fit(x, 1, seed=0)


class TestSelectKBic:
    def test_single_sample_forces_one_component(self):
        k, model = pf.select_k_bic(np.array([[0.5, 0.5]]), k_max=5, seed=0)
        assert k == 1
        assert model.n_components == 1

    def test_tight_blob_selects_one(self):
        rng = np.random.default_rng(6)
        x = blob(rng, 0.0, 0.2, 500, 2)
        k, _ = pf.select_k_bic(x, k_max=5, seed=3)
        assert k == 1

    def test_three_blobs_select_three(self):
        rng = np.random.default_rng(7)
        x = np.vstack([
            blob(rng, (0.0, 0.0), 0.08, 200, 2),
            blob(rng, (2.0, 0.0), 0.08, 200, 2),
            blob(rng, (0.0, 2.0), 0.08, 200, 2),
        ])
        k, _ = pf.select_k_bic(x, k_max=5, seed=3)
        assert k == 3

    def test_matches_brute_force_bic_table(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            x = rng.random((rng.integers(20, 60), 2)) * rng.uniform(0.5, 2.0)
            seed = int(rng.integers(0, 1000))
            k_max = 4
            picked_k, picked_model = pf.select_k_bic(x, k_max=k_max, seed=seed)
            # independent table: refit each candidate and recompute the score
            children = np.random.SeedSequence(seed).spawn(min(k_max, x.shape[0]))
            table = []
            for k in range(1, min(k_max, x.shape[0]) + 1):
                model = pf.em_fit(x, k, children[k - 1])
                p = (k - 1) + k * x.shape[1] + k * x.shape[1]
                table.append(p * np.log(x.shape[0]) - 2.0 * model.log_likelihood)
            assert picked_k == int(np.argmin(table)) + 1
            assert pf.bic_score(picked_model, x.shape[0]) == pytest.approx(min(table))

    def test_free_parameter_count(self):
        assert n_free_parameters(3, 4) == 2 + 12 + 12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pf.select_k_bic(np.empty((0, 2)), k_max=3, seed=0)


class TestPerturb:
    def make_set(self, dims=4):
        return pf.Prototypes({0: [np.zeros(dims), np.ones(dims)], 1: [np.full(dims, 0.5)]})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 5))
    def test_zero_sigma_is_identity(self, seed, n_entries, dims):
        rng = np.random.default_rng(seed)
        class_ids = rng.integers(0, 4, n_entries)
        rows = rng.normal(0.0, 3.0, (n_entries, dims))
        ps = pf.Prototypes({int(c): rows[class_ids == c] for c in np.unique(class_ids)})
        out = pf.perturb(ps, 0.0, seed=seed)
        assert list(out.by_class) == list(ps.by_class)
        for class_id, before in ps.by_class.items():
            assert np.array_equal(before, out.by_class[class_id])
        assert out.noise_sigma == 0.0

    def test_noise_std_matches_sigma(self):
        # chi-square bounds for the sample std over 10,000 draws at sigma=0.01
        ps = pf.Prototypes({0: np.zeros((1, 3))})
        draws = np.array([pf.perturb(ps, 0.01, seed=s).by_class[0][0] for s in range(10_000)])
        stds = draws.std(axis=0)
        assert (stds >= 0.0097).all() and (stds <= 0.0103).all()

    def test_noise_mean_near_zero(self):
        ps = pf.Prototypes({0: np.full((1, 3), 2.0)})
        sigma, n = 0.01, 10_000
        draws = np.array([pf.perturb(ps, sigma, seed=s).by_class[0][0] for s in range(n)])
        deltas = (draws - 2.0).mean(axis=0)
        assert np.abs(deltas).max() <= 4 * sigma / np.sqrt(n)

    def test_commutes_with_entry_permutation(self):
        ps = self.make_set()
        permuted = pf.Prototypes({0: ps.by_class[0][::-1], 1: ps.by_class[1]})
        direct = pf.perturb(permuted, 0.05, seed=9)
        swapped = pf.perturb(ps, 0.05, seed=9)
        assert np.array_equal(direct.by_class[0], swapped.by_class[0][::-1])
        assert np.array_equal(direct.by_class[1], swapped.by_class[1])

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            pf.perturb(self.make_set(), -0.1, seed=0)

    def test_sigma_recorded(self):
        out = pf.perturb(self.make_set(), 0.25, seed=1)
        assert out.noise_sigma == 0.25


class TestPrototypeSetWire:
    """The client-to-server direction: perturbed prototypes as a client uploads them."""

    def test_float_count(self):
        upload = pf.perturb(pf.Prototypes({2: [[0.1, 0.2, 0.3]], 0: [[0.4, 0.5, 0.6]]}), 0.01, seed=0)
        assert upload.floats == 2 * 3

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="finite"):
            pf.Prototypes({0: np.array([[np.inf, 1.0]])})
        with pytest.raises(ValueError, match="class ids"):
            pf.Prototypes({-1: np.zeros((1, 2))})
