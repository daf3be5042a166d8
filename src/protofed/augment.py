"""Synthesis of minority-class samples by interpolating global prototypes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import Prototypes
from .datasets import Dataset

ELIGIBILITY_RULES = ("missing_only", "below_mean_count", "all")


@dataclass(frozen=True)
class AugmentationPolicy:
    """How much to synthesize and for which classes.

    target_fraction sets the synthetic budget as a fraction of the local
    training-set size. Eligibility rules select classes against the global
    class space: missing_only picks locally absent classes,
    below_mean_count picks classes with fewer samples than the local mean
    (absent classes included), and all picks every class.
    """

    target_fraction: float = 0.10
    eligible_classes: str = "below_mean_count"

    def __post_init__(self) -> None:
        if not 0.0 < self.target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")
        if self.eligible_classes not in ELIGIBILITY_RULES:
            raise ValueError(
                f"unknown eligibility rule {self.eligible_classes!r}; "
                f"expected one of {ELIGIBILITY_RULES}"
            )


def smote_pair(a: np.ndarray, b: np.ndarray, coeff: float) -> np.ndarray:
    """Linear interpolation a + coeff * (b - a), exact per coordinate."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if not 0.0 <= coeff <= 1.0:
        raise ValueError("interpolation coefficient must be in [0, 1]")
    return a + coeff * (b - a)


def _eligible_classes(local: Dataset, policy: AugmentationPolicy) -> list[int]:
    counts = local.class_counts()
    if policy.eligible_classes == "missing_only":
        return [c for c in range(local.n_classes) if counts[c] == 0]
    if policy.eligible_classes == "below_mean_count":
        mean = local.n_samples / local.n_classes
        return [c for c in range(local.n_classes) if counts[c] < mean]
    return list(range(local.n_classes))


def augment(local: Dataset, gp: Prototypes, policy: AugmentationPolicy, seed: int) -> Dataset:
    """Append synthetic rows drawn from ``seed`` for the policy's eligible classes.

    The budget is round(target_fraction * |local|), split evenly across the
    eligible classes with the remainder going to the locally rarest one.
    Multi-prototype classes interpolate a seeded pair of distinct prototypes
    with a uniform coefficient; a single-prototype class falls back to
    Gaussian jitter at the recorded upload noise level.

    Raises:
        ValueError: an eligible class has no prototypes in ``gp``.
    """
    if local.n_samples == 0:
        raise ValueError("cannot augment an empty dataset")
    if not gp.by_class:
        raise ValueError("global prototypes cover no classes")
    eligible = _eligible_classes(local, policy)
    for class_id in eligible:
        if class_id not in gp.by_class:
            raise ValueError(
                f"augmentation policy selects class {local.class_names[class_id]!r} "
                "but no prototypes were received for it"
            )
    budget = round(policy.target_fraction * local.n_samples)
    if not eligible or budget == 0:
        return local

    counts = local.class_counts()
    base, remainder = divmod(budget, len(eligible))
    rarest = min(eligible, key=lambda c: (counts[c], c))
    per_class = {c: base + (remainder if c == rarest else 0) for c in eligible}

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    new_rows: list[np.ndarray] = []
    new_labels: list[int] = []
    for class_id in sorted(eligible):
        protos = gp.by_class[class_id]
        for _ in range(per_class[class_id]):
            coeff = rng.random()
            if protos.shape[0] >= 2:
                i, j = rng.choice(protos.shape[0], size=2, replace=False)
                row = smote_pair(protos[i], protos[j], coeff)
            else:
                row = protos[0] + rng.normal(0.0, gp.noise_sigma, size=protos.shape[1])
            new_rows.append(row)
            new_labels.append(class_id)

    features = np.vstack([local.features, np.asarray(new_rows)])
    labels = np.concatenate([local.labels, np.asarray(new_labels, dtype=np.int64)])
    return Dataset(features, labels, local.class_names)
