"""Shared test utilities: finite-difference checks, tiny data generators, a segment oracle,
a memory probe, the run spec a JSON config states, runs from one-ULP nudged initial models
and the arithmetic a run uses."""

from __future__ import annotations

import ctypes
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

import protofed as pf
from protofed import federation
from protofed.cli import CsvSource, RunSpec, _load_dataset
from protofed.datasets import N_FEATURES
from protofed.network import loss_and_grads

# The committed severe non-IID run: the benchmark's severe3 and acceptance criterion 3.
SEVERE_FIXTURE = Path(__file__).parent / "fixtures" / "severe_nonidd.json"


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
    n_cols = N_FEATURES
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


def on_some_segment(row, protos, tol=1e-9):
    """True when row = a + coeff (b - a) for one prototype pair, coeff in [0,1]."""
    n = protos.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = protos[i], protos[j]
            span = b - a
            coeffs = []
            consistent = True
            for d in range(len(a)):
                if abs(span[d]) < tol:
                    if abs(row[d] - a[d]) > tol:
                        consistent = False
                        break
                else:
                    coeffs.append((row[d] - a[d]) / span[d])
            if not consistent or not coeffs:
                continue
            lam = coeffs[0]
            if all(abs(c - lam) <= tol for c in coeffs) and -tol <= lam <= 1 + tol:
                return True
    return False


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


def stated_spec(raw: dict) -> RunSpec:
    """The run spec a complete JSON config states, built key by key from its
    own values, so a schema change that moves or re-defaults a key shows."""
    source = raw["data"]
    data = (pf.SyntheticSpec(**source["synthetic"]) if "synthetic" in source
            else CsvSource(source["csv_dir"]["path"]))
    fed, model, train = raw["federation"], raw["federation"]["model"], raw["federation"]["train"]
    federation = pf.FederationConfig(
        rounds=fed["rounds"],
        train=pf.TrainConfig(epochs=train["epochs"], batch_size=train["batch_size"],
                             learning_rate=train["learning_rate"], prox_mu=train["prox_mu"]),
        target_fraction=fed["aug"]["target_fraction"],
        threshold=fed["threshold"], trigger_round=fed["trigger_round"], noise_sigma=fed["noise_sigma"],
        hidden=tuple(tuple(layer) for layer in model["hidden"]), dropout_p=model["dropout_p"],
        scale_mode=fed["scale_mode"], gmm_components=fed["gmm_components"], seed=raw["seed"],
    )
    return RunSpec(data, raw["partition"]["scenario"], raw["partition"]["n_clients"], federation,
                   tuple(fed["strategies"]), raw["output_dir"])


def nudged_runs(config: RunSpec, positions) -> list[dict[str, list[pf.RoundMetrics]]]:
    """Every strategy's history of ``config``, once per position ``i``, with the
    initial model's ``flat[i]`` moved one ULP up to ``np.nextafter(flat[i], inf)``.
    The data are loaded, partitioned and split once, as ``protofed run`` does."""
    ds = _load_dataset(config)
    plan = pf.build_partition_plan(config.scenario, ds.class_counts(), config.n_clients)
    clients = pf.split_clients(config.federation, pf.partition(ds, plan, config.federation.seed))
    runs = []
    for i in positions:
        def nudged(spec, seed, i=i):
            params = pf.build_model(spec, seed)
            params.flat[i] = np.nextafter(params.flat[i], np.inf)
            return params

        with mock.patch.object(federation, "build_model", nudged):
            runs.append({s: pf.run_federation(config.federation, clients, s) for s in config.strategies})
    return runs


def arithmetic() -> str:
    """The floating-point arithmetic this process runs on: numpy's version, the
    SIMD groups numpy dispatches to on this CPU, and the kernel core that
    numpy's bundled OpenBLAS chose at load time (``unknown`` where no such
    library reports one). Output bytes depend on all three."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    simd = [name for name in getattr(umath, "__cpu_dispatch__", features) if features.get(name)]
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return f"numpy {np.__version__}, SIMD groups {' '.join(simd) or 'none'}, OpenBLAS core {core}"
