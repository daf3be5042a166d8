"""Per-class Gaussian mixture fitting, BIC selection and prototype perturbation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .clustering import Prototypes, kmeans_plusplus

COVARIANCE_FLOOR = 1e-6
EM_TOL = 1e-4
EM_MAX_ITER = 200

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GmmModel:
    """Fitted mixture: simplex weights, component means and covariances.

    Covariances are per-component diagonal vectors, floored at
    COVARIANCE_FLOOR so densities stay finite.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    log_likelihood: float
    log_likelihood_history: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        covs = np.asarray(self.covariances, dtype=np.float64)
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        if (weights <= 0).any():
            raise ValueError("all mixture weights must be > 0")
        if (covs < COVARIANCE_FLOOR - 1e-15).any():
            raise ValueError(f"covariance entries must be >= {COVARIANCE_FLOOR}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def n_features(self) -> int:
        return int(self.means.shape[1])


def _log_gaussian_prob(X: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """log N(x; mu_k, diag(var_k)) for every (sample, component) pair."""
    n, d = X.shape
    k = means.shape[0]
    out = np.empty((n, k))
    for j in range(k):
        diff = X - means[j]
        var = covs[j]
        maha = ((diff**2) / var).sum(axis=1)
        log_det = np.log(var).sum()
        out[:, j] = -0.5 * (d * _LOG_2PI + log_det + maha)
    return out


def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    peak = arr.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(arr - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def _e_step(
    X: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> tuple[np.ndarray, float]:
    weighted = _log_gaussian_prob(X, means, covs) + np.log(weights)
    norm = _logsumexp(weighted, axis=1)
    resp = np.exp(weighted - norm[:, None])
    return resp, float(norm.sum())


def responsibilities(model: GmmModel, X: np.ndarray) -> np.ndarray:
    """Posterior component memberships; every row sums to 1."""
    resp, _ = _e_step(np.asarray(X, dtype=np.float64), model.weights, model.means, model.covariances)
    return resp


def em_fit(
    X: np.ndarray,
    n_components: int,
    seed: int | np.random.SeedSequence,
) -> GmmModel:
    """Fit a diagonal Gaussian mixture by EM with k-means++ seeded initialization.

    Iterates until the log-likelihood improves by less than EM_TOL or
    EM_MAX_ITER is reached; the recorded log-likelihood history is
    non-decreasing up to floating-point slack.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    n, d = X.shape
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if n_components > n:
        raise ValueError(f"n_components={n_components} exceeds {n} samples")

    rng = np.random.default_rng(seed)
    means = kmeans_plusplus(X, n_components, rng).copy()
    covs = np.tile(np.maximum(X.var(axis=0), COVARIANCE_FLOOR), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    history: list[float] = []
    previous = -np.inf
    for _ in range(EM_MAX_ITER):
        resp, ll = _e_step(X, weights, means, covs)
        history.append(ll)
        if ll - previous < EM_TOL:
            break
        previous = ll
        weights, means, covs = _m_step(X, resp)
    else:
        _, ll = _e_step(X, weights, means, covs)
        history.append(ll)

    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihood=history[-1],
        log_likelihood_history=tuple(history),
    )


def _m_step(X: np.ndarray, resp: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nk = resp.sum(axis=0) + 10 * np.finfo(np.float64).eps
    weights = nk / nk.sum()
    means = (resp.T @ X) / nk[:, None]
    covs = np.empty((resp.shape[1], X.shape[1]))
    for j in range(resp.shape[1]):
        diff = X - means[j]
        covs[j] = np.maximum((resp[:, j, None] * diff**2).sum(axis=0) / nk[j], COVARIANCE_FLOOR)
    return weights, means, covs


def n_free_parameters(n_components: int, n_features: int) -> int:
    """Free-parameter count: (K-1) weights + K*d means + K*d variances."""
    return (n_components - 1) + 2 * n_components * n_features


def bic_score(model: GmmModel, n_samples: int) -> float:
    """p * ln(n) - 2 * ln(L); lower is better."""
    p = n_free_parameters(model.n_components, model.n_features)
    return p * math.log(n_samples) - 2.0 * model.log_likelihood


def select_k_bic(X: np.ndarray, k_max: int, seed: int) -> tuple[int, GmmModel]:
    """Fit K = 1..min(k_max, n) mixtures and keep the BIC argmin.

    Ties break toward smaller K, and fewer than two samples force K = 1.
    Candidate fits use child seeds spawned from ``seed`` in K order, so the
    selection is reproducible component count by component count.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("cannot select components for an empty matrix")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    k_hi = 1 if X.shape[0] < 2 else min(k_max, X.shape[0])
    children = np.random.SeedSequence(seed).spawn(k_hi)
    best_k, best_model, best_bic = 0, None, np.inf
    for k in range(1, k_hi + 1):
        model = em_fit(X, k, children[k - 1])
        score = bic_score(model, X.shape[0])
        if score < best_bic:
            best_k, best_model, best_bic = k, model, score
    return best_k, best_model


def _entry_seed(seed: int, class_id: int, row: np.ndarray) -> np.random.SeedSequence:
    # Keyed on the row itself so perturbation commutes with reordering.
    digest = hashlib.blake2b(row.tobytes(), digest_size=8).digest()
    return np.random.SeedSequence([seed, class_id, int.from_bytes(digest, "little")])


def perturb(ps: Prototypes, sigma: float, seed: int) -> Prototypes:
    """Add independent N(0, sigma^2) noise per coordinate, reproducibly.

    Each row draws from its own stream derived from (seed, class, row), so
    reordering the rows reorders the noise with them.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    noisy = {}
    for class_id, rows in ps.by_class.items():
        noise = [
            np.random.default_rng(_entry_seed(seed, class_id, row)).normal(0.0, sigma, size=row.shape)
            for row in rows
        ]
        noisy[class_id] = rows + np.array(noise)
    return Prototypes(noisy, sigma)
