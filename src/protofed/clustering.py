"""Server-side consolidation of uploaded prototypes via mini-batch k-means."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .mixtures import PrototypeSet

CLUSTER_CAP = 4
KMEANS_BATCH_SIZE = 32
KMEANS_ITERS = 100


def kmeans_plusplus(points: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared-distance sampling."""
    n = points.shape[0]
    if n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} exceeds {n} points")
    centers = np.empty((n_clusters, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    return centers


def minibatch_kmeans(
    points: np.ndarray,
    n_clusters: int,
    batch_size: int,
    n_iters: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray:
    """Sculley-style mini-batch k-means with per-center learning rates.

    Each iteration draws a seeded mini-batch, assigns it to the nearest
    centers and moves every hit center by 1/count toward its point, so every
    centroid stays a convex combination of the data.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n_clusters > n:
        raise ValueError(f"n_clusters={n_clusters} exceeds {n} points")
    rng = np.random.default_rng(seed)
    centers = kmeans_plusplus(pts, n_clusters, rng).copy()
    counts = np.zeros(n_clusters)
    take = min(batch_size, n)
    for _ in range(n_iters):
        idx = rng.choice(n, size=take, replace=False)
        batch = pts[idx]
        d2 = ((batch[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assigned = d2.argmin(axis=1)
        for row, center_id in enumerate(assigned):
            counts[center_id] += 1
            eta = 1.0 / counts[center_id]
            centers[center_id] += eta * (batch[row] - centers[center_id])
    return centers


def choose_cluster_count(n_prototypes: int) -> int:
    """Heuristic number of global prototypes for a class.

    ceil(4/9 of the received prototypes), at least 1, never more than the
    prototypes available nor CLUSTER_CAP.
    """
    if n_prototypes < 1:
        raise ValueError("n_prototypes must be >= 1")
    k = math.ceil(n_prototypes * 4.0 / 9.0)
    return max(1, min(k, n_prototypes, CLUSTER_CAP))


@dataclass(frozen=True)
class GlobalPrototypes:
    """Reclustered per-class prototype centroids broadcast to every client.

    ``noise_sigma`` records the perturbation level of the uploads (used by
    single-prototype augmentation).
    """

    prototypes: dict[int, np.ndarray]
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        cleaned: dict[int, np.ndarray] = {}
        for class_id, centers in self.prototypes.items():
            arr = np.asarray(centers, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] < 1:
                raise ValueError(f"class {class_id}: centroids must form a non-empty 2-D array")
            if not np.isfinite(arr).all():
                raise ValueError(f"class {class_id}: centroids must be finite")
            arr.setflags(write=False)
            cleaned[int(class_id)] = arr
        object.__setattr__(self, "prototypes", cleaned)

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.prototypes))

    @property
    def floats(self) -> int:
        """Payload size: the number of floats broadcast to each client."""
        return sum(centers.size for centers in self.prototypes.values())


def aggregate_prototypes(
    uploads: Sequence["PrototypeSet"],
    seed: int = 0,
    cluster_count: int | None = None,
) -> GlobalPrototypes:
    """Group uploaded prototypes by class and recluster each group.

    ``cluster_count`` fixes the centroids per class (capped by the points
    received); None picks them with ``choose_cluster_count``.

    Points are sorted lexicographically before clustering, so the result does
    not depend on the order clients are listed in. Classes seen by a single
    client still yield centroids, which is how disjoint silos learn about
    classes they do not hold.
    """
    by_class: dict[int, list[np.ndarray]] = {}
    sigma = 0.0
    for upload in uploads:
        sigma = max(sigma, upload.noise_sigma)
        for class_id, vector in upload.entries:
            by_class.setdefault(class_id, []).append(vector)
    if not by_class:
        raise ValueError("no prototypes to aggregate")

    prototypes: dict[int, np.ndarray] = {}
    for class_id in sorted(by_class):
        pts = np.asarray(by_class[class_id], dtype=np.float64)
        pts = pts[np.lexsort(pts.T[::-1])]
        k = choose_cluster_count(len(pts)) if cluster_count is None else min(cluster_count, len(pts))
        prototypes[class_id] = minibatch_kmeans(
            pts, k, KMEANS_BATCH_SIZE, KMEANS_ITERS, seed=np.random.SeedSequence([seed, class_id])
        )
    return GlobalPrototypes(prototypes, noise_sigma=sigma)
