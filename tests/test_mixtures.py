import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protofed as pf
import protofed.mixtures as mixtures
from protofed.clustering import kmeans_plusplus
from protofed.mixtures import (
    _LOG_2PI,
    COVARIANCE_FLOOR,
    EM_MAX_ITER,
    EM_TOL,
    GMM_MAX_COMPONENTS,
    _e_step,
    _log_density,
    _m_step,
    n_free_parameters,
)


def blob(rng, center, spread, n, dims):
    return rng.normal(center, spread, (n, dims))


# The EM formulas with a fresh temporary per step and the textbook loop: the
# reference that the scratch-buffer versions in protofed.mixtures must match
# bit for bit.
def reference_log_gaussian_prob(X, means, covs):
    n, d = X.shape
    out = np.empty((n, means.shape[0]))
    for j in range(means.shape[0]):
        diff = X - means[j]
        var = covs[j]
        maha = ((diff**2) / var).sum(axis=1)
        out[:, j] = -0.5 * (d * _LOG_2PI + np.log(var).sum() + maha)
    return out


def reference_m_step(X, resp):
    nk = resp.sum(axis=0) + 10 * np.finfo(np.float64).eps
    means = (resp.T @ X) / nk[:, None]
    covs = np.empty((resp.shape[1], X.shape[1]))
    for j in range(resp.shape[1]):
        diff = X - means[j]
        covs[j] = np.maximum((resp[:, j, None] * diff**2).sum(axis=0) / nk[j], COVARIANCE_FLOOR)
    return nk / nk.sum(), means, covs


def reference_em_fit(X, k, seed, max_iter):
    rng = np.random.default_rng(seed)
    means = kmeans_plusplus(X, k, rng).copy()
    covs = np.tile(np.maximum(X.var(axis=0), COVARIANCE_FLOOR), (k, 1))
    weights = np.full(k, 1.0 / k)

    def e_step(weights, means, covs):
        weighted = reference_log_gaussian_prob(X, means, covs) + np.log(weights)
        peak = weighted.max(axis=1, keepdims=True)
        norm = (peak + np.log(np.exp(weighted - peak).sum(axis=1, keepdims=True)))[:, 0]
        return np.exp(weighted - norm[:, None]), float(norm.sum())

    history, previous = [], -np.inf
    for _ in range(max_iter):
        resp, ll = e_step(weights, means, covs)
        history.append(ll)
        if ll - previous < EM_TOL:
            break
        previous = ll
        weights, means, covs = reference_m_step(X, resp)
    else:
        history.append(e_step(weights, means, covs)[1])
    return weights, means, covs, history


def oracle_data(n, d, k):
    rng = np.random.default_rng([n, d, k])
    # Column scales over four decades, as in N-BaIoT traffic statistics.
    return rng, rng.normal(size=(n, d)) * 10.0 ** rng.uniform(0.0, 4.0, size=d)


ORACLE_SHAPES = [(681, 115, 5), (15, 115, 5), (4, 115, 3), (60, 8, 1), (33, 2, 4)]


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

    def test_e_step_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        x = rng.random((40, 3))
        model = pf.em_fit(x, 3, seed=0)
        resp, _ = _e_step(reference_log_gaussian_prob(x, model.means, model.covariances), model.weights)
        assert np.abs(resp.sum(axis=1) - 1.0).max() < 1e-9

    def test_too_many_components_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            pf.em_fit(np.zeros((2, 2)), 3, seed=0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"^X must be 2-D, got shape \(5,\)$"):
            pf.em_fit(np.zeros(5), 1, seed=0)

    def test_non_finite_input_rejected(self):
        x = np.ones((5, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pf.em_fit(x, 1, seed=0)


class TestScratchBufferOracle:
    @pytest.mark.parametrize("n, d, k", ORACLE_SHAPES)
    def test_buffered_steps_match_fresh_temporaries(self, n, d, k):
        rng, X = oracle_data(n, d, k)
        means = X[rng.choice(n, size=k)] + rng.normal(size=(k, d))
        covs = np.maximum(rng.uniform(0.0, 2.0, size=(k, d)) * X.var(axis=0), COVARIANCE_FLOOR)
        resp = rng.dirichlet(np.ones(k), size=n)
        log_prob = np.column_stack([_log_density((X - means[j]) ** 2, covs[j]) for j in range(k)])
        assert np.array_equal(log_prob, reference_log_gaussian_prob(X, means, covs))
        # Scratch contents left by an earlier step must not leak into this one.
        sq, buf, log_prob = np.full_like(X, np.nan), np.full_like(X, np.nan), np.full((n, k), np.nan)
        want = reference_m_step(X, resp)
        for got, expected in zip(_m_step(X, resp, sq, buf, log_prob), want):
            assert np.array_equal(got, expected)
        assert np.array_equal(log_prob, reference_log_gaussian_prob(X, want[1], want[2]))


class TestWholeFitOracle:
    @staticmethod
    def assert_fit_matches(X, k, seed, max_iter):
        model = pf.em_fit(X, k, seed)
        weights, means, covs, history = reference_em_fit(X, k, seed, max_iter)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.means, means)
        assert np.array_equal(model.covariances, covs)
        assert model.log_likelihood_history == tuple(history)
        assert model.log_likelihood == history[-1]
        return model

    # 681x115 with K=5 runs all EM_MAX_ITER M-steps, so its full fit is left
    # to the capped case below.
    @pytest.mark.parametrize("n, d, k", [s for s in ORACLE_SHAPES if s != (681, 115, 5)])
    def test_em_fit_matches_the_textbook_loop(self, n, d, k):
        _, X = oracle_data(n, d, k)
        self.assert_fit_matches(X, k, seed=n, max_iter=EM_MAX_ITER)

    def test_iteration_cap_stops_after_max_iter_m_steps(self, monkeypatch):
        monkeypatch.setattr(mixtures, "EM_MAX_ITER", 3)
        _, X = oracle_data(681, 115, 5)
        model = self.assert_fit_matches(X, 5, seed=681, max_iter=3)
        assert len(model.log_likelihood_history) == 4


class TestSelectKBic:
    def test_single_sample_forces_one_component(self):
        model = pf.select_k_bic(np.array([[0.5, 0.5]]), seed=0)
        assert model.n_components == 1

    def test_tight_blob_selects_one(self):
        rng = np.random.default_rng(6)
        x = blob(rng, 0.0, 0.2, 500, 2)
        assert pf.select_k_bic(x, seed=3).n_components == 1

    def test_three_blobs_select_three(self):
        rng = np.random.default_rng(7)
        x = np.vstack([
            blob(rng, (0.0, 0.0), 0.08, 200, 2),
            blob(rng, (2.0, 0.0), 0.08, 200, 2),
            blob(rng, (0.0, 2.0), 0.08, 200, 2),
        ])
        assert pf.select_k_bic(x, seed=3).n_components == 3

    def test_matches_brute_force_bic_table(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            x = rng.random((rng.integers(20, 60), 2)) * rng.uniform(0.5, 2.0)
            seed = int(rng.integers(0, 1000))
            picked_model = pf.select_k_bic(x, seed=seed)
            # independent table: refit each candidate and recompute the score
            k_hi = min(GMM_MAX_COMPONENTS, x.shape[0])
            children = np.random.SeedSequence(seed).spawn(k_hi)
            table = []
            for k in range(1, k_hi + 1):
                model = pf.em_fit(x, k, children[k - 1])
                p = (k - 1) + k * x.shape[1] + k * x.shape[1]
                table.append(p * np.log(x.shape[0]) - 2.0 * model.log_likelihood)
            assert picked_model.n_components == int(np.argmin(table)) + 1
            assert pf.bic_score(picked_model, x.shape[0]) == pytest.approx(min(table))

    def test_free_parameter_count(self):
        assert n_free_parameters(3, 4) == 2 + 12 + 12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pf.select_k_bic(np.empty((0, 2)), seed=0)


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

    def test_nan_sigma_rejected(self):
        # Blamed on the prototypes before: NaN noise made them non-finite.
        with pytest.raises(ValueError, match="^sigma must be >= 0, got nan$"):
            pf.perturb(pf.Prototypes({0: np.zeros((2, 3))}), float("nan"), seed=0)


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
