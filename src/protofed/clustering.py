"""Server-side consolidation of uploaded prototypes via mini-batch k-means."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
class Prototypes:
    """Class-wise prototype rows, as a client uploads them or the server broadcasts them.

    ``by_class`` maps each class id to a (k, d) array with one prototype per
    row. ``noise_sigma`` records the perturbation level the rows carry (used
    by single-prototype augmentation).
    """

    by_class: dict[int, np.ndarray]
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        frozen: dict[int, np.ndarray] = {}
        for class_id, rows in self.by_class.items():
            if class_id < 0:
                raise ValueError("class ids must be >= 0")
            arr = np.array(rows, dtype=np.float64)
            if arr.ndim != 2 or arr.size == 0:
                raise ValueError(f"class {class_id}: prototypes must form a non-empty 2-D array")
            if not np.isfinite(arr).all():
                raise ValueError(f"class {class_id}: prototypes must be finite")
            arr.setflags(write=False)
            frozen[int(class_id)] = arr
        object.__setattr__(self, "by_class", frozen)

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.by_class))

    @property
    def floats(self) -> int:
        """Payload size: the number of floats sent."""
        return sum(rows.size for rows in self.by_class.values())


def aggregate_prototypes(
    uploads: Sequence[Prototypes],
    seed: int = 0,
    cluster_count: int | None = None,
) -> Prototypes:
    """Join uploaded prototypes by class and recluster each class's rows.

    ``cluster_count`` fixes the centroids per class (capped by the points
    received); None picks them with ``choose_cluster_count``.

    Points are sorted lexicographically before clustering, so the result does
    not depend on the order clients are listed in. Classes seen by a single
    client still yield centroids, which is how disjoint silos learn about
    classes they do not hold.
    """
    classes = sorted({class_id for upload in uploads for class_id in upload.by_class})
    if not classes:
        raise ValueError("no prototypes to aggregate")

    centroids: dict[int, np.ndarray] = {}
    for class_id in classes:
        pts = np.concatenate([u.by_class[class_id] for u in uploads if class_id in u.by_class])
        pts = pts[np.lexsort(pts.T[::-1])]
        k = choose_cluster_count(len(pts)) if cluster_count is None else min(cluster_count, len(pts))
        centroids[class_id] = minibatch_kmeans(
            pts, k, KMEANS_BATCH_SIZE, KMEANS_ITERS, seed=np.random.SeedSequence([seed, class_id])
        )
    return Prototypes(centroids, noise_sigma=max(u.noise_sigma for u in uploads))
