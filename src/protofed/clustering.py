"""Server-side consolidation of uploaded prototypes via mini-batch k-means."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._checks import check_range

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
    d2 = np.full(n, np.inf)
    for j in range(1, n_clusters):
        d2 = np.minimum(d2, ((points - centers[j - 1]) ** 2).sum(axis=1))
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = points[idx]
    return centers


def minibatch_kmeans(
    points: np.ndarray, n_clusters: int, seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Sculley-style mini-batch k-means with per-center learning rates.

    Each of KMEANS_ITERS iterations draws a seeded mini-batch of up to
    KMEANS_BATCH_SIZE points, assigns it to the nearest centers and moves
    every hit center by 1/count toward its point, so every centroid stays a
    convex combination of the data.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    check_range("n_clusters", n_clusters, "integer >= 1")
    rng = np.random.default_rng(seed)
    centers = kmeans_plusplus(pts, n_clusters, rng).copy()
    counts = np.zeros(n_clusters)
    take = min(KMEANS_BATCH_SIZE, n)
    for _ in range(KMEANS_ITERS):
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

    ceil(4/9 of the received prototypes), never more than CLUSTER_CAP; for
    n >= 1 the ceiling lies in [1, n].
    """
    check_range("n_prototypes", n_prototypes, "integer >= 1")
    return min(math.ceil(n_prototypes * 4.0 / 9.0), CLUSTER_CAP)


@dataclass(frozen=True)
class Prototypes:
    """Class-wise prototype rows, as a client uploads them or the server broadcasts them.

    ``by_class`` maps each class id to a (k, d) array with one prototype per row.
    """

    by_class: dict[int, np.ndarray]

    def __post_init__(self) -> None:
        frozen: dict[int, np.ndarray] = {}
        for class_id, rows in self.by_class.items():
            check_range("class ids", class_id, "integer >= 0")
            arr = np.array(rows, dtype=np.float64)
            if arr.ndim != 2 or arr.size == 0:
                raise ValueError(f"class {class_id}: prototypes must form a non-empty 2-D array")
            if not np.isfinite(arr).all():
                raise ValueError(f"class {class_id}: prototypes must be finite")
            arr.setflags(write=False)
            frozen[int(class_id)] = arr
        object.__setattr__(self, "by_class", frozen)

    @property
    def floats(self) -> int:
        """Payload size: the number of floats sent."""
        return sum(rows.size for rows in self.by_class.values())


def aggregate_prototypes(uploads: Sequence[Prototypes], seed: int) -> Prototypes:
    """Join uploaded prototypes by class and recluster each class's rows.

    ``choose_cluster_count`` picks each class's number of centroids. Points
    are sorted lexicographically before clustering, so the result does not
    depend on the order clients are listed in. Classes seen by a single
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
        k = choose_cluster_count(len(pts))
        centroids[class_id] = minibatch_kmeans(pts, k, np.random.SeedSequence([seed, class_id]))
    return Prototypes(centroids)
