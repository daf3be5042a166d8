"""Synthesis of minority-class samples by interpolating global prototypes."""

from __future__ import annotations

import numpy as np

from ._checks import check_range
from .clustering import Prototypes
from .datasets import Dataset, frozen


def augment(
    local: Dataset, gp: Prototypes, target_fraction: float, noise_sigma: float, seed: int
) -> Dataset:
    """Append synthetic rows drawn from ``seed`` for the locally under-represented classes.

    The eligible classes are those ``gp`` covers with fewer rows than the
    local mean count, locally absent classes included; a class no silo holds
    has no prototypes, so it gets no rows. The budget is
    round(target_fraction * |local|), split evenly across them with the
    remainder going to the locally rarest one. Multi-prototype classes
    interpolate a seeded pair of distinct prototypes with a uniform
    coefficient; a single-prototype class falls back to Gaussian jitter at
    ``noise_sigma``.
    """
    check_range("target_fraction", target_fraction, "in (0, 1]")
    check_range("noise_sigma", noise_sigma, ">= 0")
    if local.n_samples == 0:
        raise ValueError("cannot augment an empty dataset")
    if not gp.by_class:
        raise ValueError("global prototypes cover no classes")
    counts = local.class_counts()
    mean = local.n_samples / local.n_classes
    eligible = [c for c in range(local.n_classes) if counts[c] < mean and c in gp.by_class]
    budget = round(target_fraction * local.n_samples)
    if not eligible or budget == 0:
        return local

    base, remainder = divmod(budget, len(eligible))
    rarest = min(eligible, key=lambda c: (counts[c], c))
    per_class = {c: base + (remainder if c == rarest else 0) for c in eligible}

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    new_rows: list[np.ndarray] = []
    new_labels: list[int] = []
    for class_id in eligible:
        protos = gp.by_class[class_id]
        for _ in range(per_class[class_id]):
            coeff = rng.random()
            if protos.shape[0] >= 2:
                i, j = rng.choice(protos.shape[0], size=2, replace=False)
                row = protos[i] + coeff * (protos[j] - protos[i])
            else:
                row = protos[0] + rng.normal(0.0, noise_sigma, size=protos.shape[1])
            new_rows.append(row)
            new_labels.append(class_id)

    features = np.vstack([local.features, np.asarray(new_rows)])
    labels = np.concatenate([local.labels, np.asarray(new_labels, dtype=np.int64)])
    return Dataset(frozen(features), frozen(labels), local.class_names)
