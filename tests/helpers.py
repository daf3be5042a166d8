"""Shared test utilities: finite-difference checks, tiny data builders and a memory probe."""

from __future__ import annotations

import tracemalloc

import numpy as np

import protofed as pf
from protofed.network import loss_and_grads


def randomized_params(spec: pf.ModelSpec, seed: int) -> pf.ModelParams:
    """Model params with non-degenerate weights and running statistics."""
    rng = np.random.default_rng(seed)
    params = pf.build_model(spec, seed)
    for name in params.tensors:
        params.tensors[name][...] = params.tensors[name] + 0.1 * rng.standard_normal(
            params.tensors[name].shape
        )
    for name in params.running:
        if name.startswith("mean"):
            params.running[name][...] = 0.1 * rng.standard_normal(params.running[name].shape)
        else:
            params.running[name][...] = 0.5 + rng.random(params.running[name].shape)
    return params


def fd_max_relative_error(
    spec: pf.ModelSpec,
    seed: int,
    mode: str = "train",
    prox_mu: float = 0.0,
    batch_rows: int = 6,
    step: float = 1e-4,
    dropout_mask: np.ndarray | None = None,
) -> float:
    """Worst relative error of analytic gradients vs central differences.

    ``dropout_mask``, one row per batch row, stays fixed across every loss
    evaluation, so the loss is a smooth function of the parameters.

    Relative error per coordinate is |analytic - fd| / max(1, |analytic|,
    |fd|), which behaves like absolute error for near-zero gradients.
    """
    rng = np.random.default_rng(seed)
    params = randomized_params(spec, seed)
    x = rng.standard_normal((batch_rows, spec.input_dim))
    y = rng.integers(0, spec.output_classes, batch_rows)
    w_global = pf.build_model(spec, seed + 1) if prox_mu > 0 else None

    options = dict(prox_mu=prox_mu, w_global=w_global, mode=mode, dropout_mask=dropout_mask)
    _, grads = loss_and_grads(params, x, y, **options)

    def loss_at() -> float:
        value, _ = loss_and_grads(params, x, y, **options)
        return value

    worst = 0.0
    for name, tensor in params.tensors.items():
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = tensor[idx]
            tensor[idx] = original + step
            plus = loss_at()
            tensor[idx] = original - step
            minus = loss_at()
            tensor[idx] = original
            fd = (plus - minus) / (2 * step)
            analytic = grads[name][idx]
            rel = abs(analytic - fd) / max(1.0, abs(analytic), abs(fd))
            worst = max(worst, rel)
    return worst


def two_blob_dataset(n_per_class: int, dims: int, spread: float, seed: int) -> pf.Dataset:
    """Two linearly separable Gaussian blobs labelled 0 and 1."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.25, spread, (n_per_class, dims))
    b = rng.normal(0.75, spread, (n_per_class, dims))
    features = np.vstack([a, b])
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return pf.Dataset(features, labels, ("zero", "one"))


def lloyd_kmeans(points: np.ndarray, centers: np.ndarray, iters: int = 200) -> np.ndarray:
    """Full-batch Lloyd iterations from the given starting centers."""
    centers = centers.copy()
    for _ in range(iters):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        moved = False
        for j in range(centers.shape[0]):
            members = points[assign == j]
            if len(members):
                new = members.mean(axis=0)
                if not np.allclose(new, centers[j]):
                    moved = True
                centers[j] = new
        if not moved:
            break
    return centers


def kmeans_sse(points: np.ndarray, centers: np.ndarray) -> float:
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


def write_nbaiot_layout(root, seed, devices=3, rows=60):
    """Small N-BaIoT-layout captures: one file per (device, capture), 115 `.10g` columns.

    Column magnitudes span four decades, as in the real traffic statistics, so
    the cells use both fixed and exponent notation.
    """
    rng = np.random.default_rng(seed)
    n_cols = pf.nbaiot_schema().n_features
    magnitude = 10.0 ** rng.uniform(0.0, 4.0, size=n_cols)
    offset = {cls: rng.normal(0.0, 0.3, size=n_cols) for cls in ("benign", "gafgyt", "mirai")}
    header = ",".join(f"stat_{i}" for i in range(n_cols)) + "\n"
    root.mkdir()
    for device in range(1, devices + 1):
        centre = rng.uniform(4.0, 6.0, size=n_cols)
        for capture in ("benign", "gafgyt.combo", "gafgyt.udp", "mirai.ack", "mirai.syn"):
            block = (centre + offset[capture.split(".")[0]]
                     + rng.normal(0.0, 1.0, size=(rows, n_cols))) * magnitude
            lines = "".join(",".join(format(v, ".10g") for v in row) + "\n" for row in block)
            (root / f"{device}.{capture}.csv").write_text(header + lines, encoding="utf-8")


def traced_peak_bytes(call):
    """``call()`` and the most memory it held at once beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before
