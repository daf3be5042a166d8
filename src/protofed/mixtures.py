"""Per-class Gaussian mixture fitting, BIC selection and prototype perturbation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_range
from .clustering import Prototypes, kmeans_plusplus

COVARIANCE_FLOOR = 1e-6
EM_TOL = 1e-4
EM_MAX_ITER = 200
GMM_MAX_COMPONENTS = 5  # the BIC search's largest K

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
    log_likelihood_history: tuple[float, ...]

    @property
    def log_likelihood(self) -> float:
        """The fitted model's log-likelihood: the history's last entry."""
        return self.log_likelihood_history[-1]

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def n_features(self) -> int:
        return int(self.means.shape[1])


def _log_density(sq: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Row-wise log N(x; mu, diag(var)), given ``sq = (x - mu)**2``.

    ``sq`` is divided by ``var`` in place, so it is spent afterwards.
    """
    sq /= var
    maha = sq.sum(axis=1)
    log_det = np.log(var).sum()
    return -0.5 * (sq.shape[1] * _LOG_2PI + log_det + maha)


def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    peak = arr.max(axis=axis, keepdims=True)
    return (peak + np.log(np.exp(arr - peak).sum(axis=axis, keepdims=True))).squeeze(axis)


def _e_step(log_prob: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Responsibilities and the log-likelihood from per-component log-densities."""
    weighted = log_prob + np.log(weights)
    norm = _logsumexp(weighted, axis=1)
    resp = np.exp(weighted - norm[:, None])
    return resp, float(norm.sum())


def em_fit(
    X: np.ndarray,
    n_components: int,
    seed: int | np.random.SeedSequence,
) -> GmmModel:
    """Fit a diagonal Gaussian mixture by EM with k-means++ seeded initialization.

    Stops once the log-likelihood improves by less than EM_TOL, or after
    EM_MAX_ITER M-steps, so the history holds at most EM_MAX_ITER + 1
    log-likelihoods and is non-decreasing up to floating-point slack. Each
    M-step computes a component's squared deviations once, for its variance
    and for the next E-step's log-density.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    n, d = X.shape
    check_range("n_components", n_components, "integer >= 1")
    if n_components > n:
        raise ValueError(f"n_components={n_components} exceeds {n} samples")

    rng = np.random.default_rng(seed)
    means = kmeans_plusplus(X, n_components, rng).copy()
    covs = np.tile(np.maximum(X.var(axis=0), COVARIANCE_FLOOR), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)
    sq, buf = np.empty_like(X), np.empty_like(X)
    log_prob = np.empty((n, n_components))
    for j in range(n_components):
        log_prob[:, j] = _log_density(np.square(np.subtract(X, means[j], out=sq), out=sq), covs[j])

    history: list[float] = []
    previous = -np.inf
    while True:
        resp, ll = _e_step(log_prob, weights)
        history.append(ll)
        if ll - previous < EM_TOL or len(history) > EM_MAX_ITER:
            break
        previous = ll
        weights, means, covs = _m_step(X, resp, sq, buf, log_prob)

    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        log_likelihood_history=tuple(history),
    )


def _m_step(
    X: np.ndarray, resp: np.ndarray, sq: np.ndarray, buf: np.ndarray, log_prob: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights, means and floored variances; ``log_prob`` gets the next E-step's densities.

    Each component's squared deviations go into the scratch array ``sq``
    once and serve both its variance and its log-density. ``sq`` and
    ``buf`` are laid out like ``X``, so every sum runs over the same shape
    as with fresh temporaries and the result is bit-equal.
    """
    nk = resp.sum(axis=0) + 10 * np.finfo(np.float64).eps
    weights = nk / nk.sum()
    means = (resp.T @ X) / nk[:, None]
    covs = np.empty((resp.shape[1], X.shape[1]))
    for j in range(resp.shape[1]):
        np.square(np.subtract(X, means[j], out=sq), out=sq)
        np.multiply(sq, resp[:, j, None], out=buf)
        covs[j] = np.maximum(buf.sum(axis=0) / nk[j], COVARIANCE_FLOOR)
        log_prob[:, j] = _log_density(sq, covs[j])
    return weights, means, covs


def n_free_parameters(n_components: int, n_features: int) -> int:
    """Free-parameter count: (K-1) weights + K*d means + K*d variances."""
    return (n_components - 1) + 2 * n_components * n_features


def bic_score(model: GmmModel, n_samples: int) -> float:
    """p * ln(n) - 2 * ln(L); lower is better."""
    p = n_free_parameters(model.n_components, model.n_features)
    return p * math.log(n_samples) - 2.0 * model.log_likelihood


def select_k_bic(X: np.ndarray, seed: int) -> GmmModel:
    """Fit K = 1..min(GMM_MAX_COMPONENTS, n) mixtures and return the BIC argmin.

    Ties break toward smaller K, and fewer than two samples force K = 1.
    Candidate fits use child seeds spawned from ``seed`` in K order, so the
    selection is reproducible component count by component count.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise ValueError("cannot select components for an empty matrix")
    k_hi = min(GMM_MAX_COMPONENTS, X.shape[0])
    children = np.random.SeedSequence(seed).spawn(k_hi)
    best_model, best_bic = None, np.inf
    for k in range(1, k_hi + 1):
        model = em_fit(X, k, children[k - 1])
        score = bic_score(model, X.shape[0])
        if score < best_bic:
            best_model, best_bic = model, score
    return best_model


def _entry_seed(seed: int, class_id: int, row: np.ndarray) -> np.random.SeedSequence:
    # Keyed on the row itself so perturbation commutes with reordering.
    digest = hashlib.blake2b(row.tobytes(), digest_size=8).digest()
    return np.random.SeedSequence([seed, class_id, int.from_bytes(digest, "little")])


def perturb(ps: Prototypes, sigma: float, seed: int) -> Prototypes:
    """Add independent N(0, sigma^2) noise per coordinate, reproducibly.

    Each row draws from its own stream derived from (seed, class, row), so
    reordering the rows reorders the noise with them.
    """
    check_range("sigma", sigma, ">= 0")
    noisy = {}
    for class_id, rows in ps.by_class.items():
        noise = [
            np.random.default_rng(_entry_seed(seed, class_id, row)).normal(0.0, sigma, size=row.shape)
            for row in rows
        ]
        noisy[class_id] = rows + np.array(noise)
    return Prototypes(noisy)
