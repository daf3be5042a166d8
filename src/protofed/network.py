"""Dense softmax classifier with batch norm, dropout, L2 and a proximal term.

Everything runs in float64 and every gradient is analytic, so the whole
backward pass can be validated against central finite differences.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .datasets import Dataset

BN_EPSILON = 1e-3
BN_MOMENTUM = 0.99

_PARAMS_FORMAT = "protofed-params-v1"

_Layout = tuple[tuple[str, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: input -> [dense+relu+batchnorm]* -> softmax.

    ``hidden`` lists (units, l2_coefficient) per hidden layer. Dropout, when
    enabled, sits after the first batch-norm block only.
    """

    input_dim: int
    hidden: tuple[tuple[int, float], ...]
    dropout_p: float
    output_classes: int

    def __post_init__(self) -> None:
        hidden = tuple((int(u), float(l2)) for u, l2 in self.hidden)
        if self.input_dim < 1 or self.output_classes < 1:
            raise ValueError("input_dim and output_classes must be >= 1")
        for units, l2 in hidden:
            if units < 1:
                raise ValueError("hidden layer units must be >= 1")
            if l2 < 0:
                raise ValueError("l2 coefficients must be >= 0")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")
        if self.dropout_p > 0 and not hidden:
            raise ValueError("dropout requires at least one hidden layer")
        object.__setattr__(self, "hidden", hidden)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *(u for u, _ in self.hidden), self.output_classes)


def mlp_spec(
    input_dim: int,
    output_classes: int,
    hidden: tuple[tuple[int, float], ...] = ((128, 1e-3), (64, 1e-3)),
    dropout_p: float = 0.5,
) -> ModelSpec:
    """Default architecture: 128- and 64-unit hidden layers, dropout 0.5."""
    return ModelSpec(input_dim, hidden, dropout_p, output_classes)


@lru_cache(maxsize=64)
def _layout(spec: ModelSpec) -> tuple[_Layout, _Layout]:
    """(name, shape) of each trainable tensor and each running statistic.

    The one statement of the parameter layout: list order is buffer order in
    ``ModelParams.flat``/``stats``, in gradients and in parameter records.
    """
    trainable: list[tuple[str, tuple[int, ...]]] = []
    running: list[tuple[str, tuple[int, ...]]] = []
    fan_in = spec.input_dim
    for i, (units, _) in enumerate(spec.hidden, start=1):
        trainable += [(f"w{i}", (fan_in, units)), (f"b{i}", (units,)),
                      (f"gamma{i}", (units,)), (f"beta{i}", (units,))]
        running += [(f"mean{i}", (units,)), (f"var{i}", (units,))]
        fan_in = units
    trainable += [("w_out", (fan_in, spec.output_classes)), ("b_out", (spec.output_classes,))]
    return tuple(trainable), tuple(running)


def _size(layout: _Layout) -> int:
    return sum(math.prod(shape) for _, shape in layout)


def _views(buffer: np.ndarray, layout: _Layout) -> Mapping[str, np.ndarray]:
    """Read-only name -> view mapping over consecutive slices of ``buffer``."""
    views = {}
    offset = 0
    for name, shape in layout:
        size = math.prod(shape)
        views[name] = buffer[offset : offset + size].reshape(shape)
        offset += size
    return MappingProxyType(views)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Trainable parameters and batch-norm running statistics, two flat buffers.

    ``flat`` holds the trainables (w1, b1, gamma1, beta1, ..., w_out, b_out)
    and ``stats`` the non-trainable running mean/var per batch-norm layer,
    each one contiguous float64 vector. ``tensors`` and ``running`` are
    read-only name -> view mappings over them: ``params.tensors["w1"][...] = x``
    writes into ``flat``, while rebinding a name raises TypeError. Omitted
    buffers start at zero.
    """

    spec: ModelSpec
    flat: np.ndarray | None = None
    stats: np.ndarray | None = None
    tensors: Mapping[str, np.ndarray] = field(init=False, repr=False)
    running: Mapping[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        trainable, running = _layout(self.spec)
        for name, views, layout in (("flat", "tensors", trainable), ("stats", "running", running)):
            size = _size(layout)
            buffer = getattr(self, name)
            buffer = np.zeros(size) if buffer is None else np.ascontiguousarray(buffer, np.float64)
            if buffer.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},), got {buffer.shape}")
            object.__setattr__(self, name, buffer)
            object.__setattr__(self, views, _views(buffer, layout))

    @property
    def trainable_count(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.spec, self.flat.copy(), self.stats.copy())


def build_model(spec: ModelSpec, seed: int) -> ModelParams:
    """Seeded Glorot-uniform weights, zero biases, identity batch norm."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = ModelParams(spec)
    for name, view in (*params.tensors.items(), *params.running.items()):
        if name.startswith("w"):
            limit = math.sqrt(6.0 / sum(view.shape))
            view[...] = rng.uniform(-limit, limit, size=view.shape)
        elif name.startswith(("gamma", "var")):
            view[...] = 1.0
    return params


def _softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    return exp / total, shifted - np.log(total)


def _run_layers(
    params: ModelParams,
    batch: np.ndarray,
    mode: str,
    dropout_mask: np.ndarray | None,
) -> dict:
    """Forward pass returning all intermediates needed by the backward pass."""
    spec = params.spec
    if batch.ndim != 2 or batch.shape[1] != spec.input_dim:
        raise ValueError(
            f"dimension mismatch: batch has shape {batch.shape}, "
            f"model expects (*, {spec.input_dim})"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")

    activation = batch
    layers = []
    for i in range(1, len(spec.hidden) + 1):
        z = activation @ params.tensors[f"w{i}"] + params.tensors[f"b{i}"]
        h = np.maximum(z, 0.0)
        if mode == "train":
            mean = h.mean(axis=0)
            var = h.var(axis=0)
        else:
            mean = params.running[f"mean{i}"]
            var = params.running[f"var{i}"]
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (h - mean) * inv_std
        bn_out = params.tensors[f"gamma{i}"] * xhat + params.tensors[f"beta{i}"]
        out = bn_out * dropout_mask if (i == 1 and dropout_mask is not None) else bn_out
        layers.append(
            {"x_in": activation, "z": z, "mean": mean, "var": var, "inv_std": inv_std, "xhat": xhat}
        )
        activation = out
    logits = activation @ params.tensors["w_out"] + params.tensors["b_out"]
    probs, log_probs = _softmax(logits)
    return {
        "layers": layers,
        "last_hidden": activation,
        "probs": probs,
        "log_probs": log_probs,
    }


def forward(
    params: ModelParams,
    batch: np.ndarray,
    mode: str = "eval",
    seed: int | None = None,
) -> tuple[np.ndarray, dict]:
    """Class probabilities for a batch, plus the cached activations.

    In train mode batch norm uses batch statistics and updates the running
    statistics in place via an exponential moving average; dropout needs a
    seed when the spec enables it. In eval mode both are frozen.
    """
    batch = np.asarray(batch, dtype=np.float64)
    mask = None
    if mode == "train" and params.spec.dropout_p > 0:
        if seed is None:
            raise ValueError("train-mode forward with dropout requires a seed")
        rng = np.random.default_rng(seed)
        mask = _dropout_mask(rng, (batch.shape[0], params.spec.hidden[0][0]), params.spec.dropout_p)
    cache = _run_layers(params, batch, mode, mask)
    if mode == "train":
        _update_running_stats(params, cache)
    return cache["probs"], cache


def _dropout_mask(rng: np.random.Generator, shape: tuple[int, int], p: float) -> np.ndarray:
    return (rng.random(shape) >= p) / (1.0 - p)


def _update_running_stats(params: ModelParams, cache: dict) -> None:
    """Move the running statistics toward a train-mode pass's batch statistics."""
    layers = cache["layers"]
    if layers:
        batch = np.concatenate([stat for layer in layers for stat in (layer["mean"], layer["var"])])
        params.stats[...] = BN_MOMENTUM * params.stats + (1.0 - BN_MOMENTUM) * batch


def loss_and_grads(
    params: ModelParams,
    batch: np.ndarray,
    labels: np.ndarray,
    prox_mu: float = 0.0,
    w_global: ModelParams | None = None,
    mode: str = "train",
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, Mapping[str, np.ndarray]]:
    """Regularized cross-entropy loss and its exact analytic gradients by tensor name.

    loss = mean CE + sum_i l2_i * ||w_i||^2 + (prox_mu / 2) * ||params - w_global||^2,
    the proximal term ranging over trainable tensors only. Running statistics
    are never modified here, so the loss is a pure function of ``params``.
    """
    loss, grad, _ = _loss_grad_cache(params, batch, labels, prox_mu, w_global, mode, dropout_mask)
    return loss, _views(grad, _layout(params.spec)[0])


def _loss_grad_cache(
    params: ModelParams,
    batch: np.ndarray,
    labels: np.ndarray,
    prox_mu: float,
    w_global: ModelParams | None,
    mode: str,
    dropout_mask: np.ndarray | None,
) -> tuple[float, np.ndarray, dict]:
    """Loss, the gradient as one vector laid out like ``params.flat``, and the forward cache."""
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    spec = params.spec
    if labels.size and (labels.min() < 0 or labels.max() >= spec.output_classes):
        raise ValueError("labels outside the model's class range")
    if prox_mu < 0:
        raise ValueError("prox_mu must be >= 0")
    if prox_mu > 0 and w_global is None:
        raise ValueError("prox_mu > 0 requires w_global")

    cache = _run_layers(params, batch, mode, dropout_mask)
    n = batch.shape[0]
    ce = -float(cache["log_probs"][np.arange(n), labels].mean())
    loss = ce
    for i, (_, l2) in enumerate(spec.hidden, start=1):
        if l2 > 0:
            loss += l2 * float((params.tensors[f"w{i}"] ** 2).sum())
    if prox_mu > 0:
        loss += 0.5 * prox_mu * float(((params.flat - w_global.flat) ** 2).sum())

    grad = np.empty_like(params.flat)
    grads = _views(grad, _layout(spec)[0])
    dlogits = cache["probs"].copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads["w_out"][...] = cache["last_hidden"].T @ dlogits
    grads["b_out"][...] = dlogits.sum(axis=0)
    upstream = dlogits @ params.tensors["w_out"].T

    for i in range(len(spec.hidden), 0, -1):
        layer = cache["layers"][i - 1]
        dy = upstream * dropout_mask if (i == 1 and dropout_mask is not None) else upstream
        grads[f"gamma{i}"][...] = (dy * layer["xhat"]).sum(axis=0)
        grads[f"beta{i}"][...] = dy.sum(axis=0)
        dxhat = dy * params.tensors[f"gamma{i}"]
        if mode == "train":
            # Batch statistics depend on the activations, so differentiate
            # through the mean and (biased) variance as well.
            dh = (layer["inv_std"] / n) * (
                n * dxhat
                - dxhat.sum(axis=0)
                - layer["xhat"] * (dxhat * layer["xhat"]).sum(axis=0)
            )
        else:
            dh = dxhat * layer["inv_std"]
        dz = dh * (layer["z"] > 0)
        l2 = spec.hidden[i - 1][1]
        grads[f"w{i}"][...] = layer["x_in"].T @ dz + 2.0 * l2 * params.tensors[f"w{i}"]
        grads[f"b{i}"][...] = dz.sum(axis=0)
        upstream = dz @ params.tensors[f"w{i}"].T

    if prox_mu > 0:
        grad += prox_mu * (params.flat - w_global.flat)
    return loss, grad, cache


@dataclass(frozen=True)
class TrainConfig:
    """Local-epoch training knobs (Adam optimizer, optional proximal pull)."""

    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 1e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-7
    prox_mu: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be >= 0")


@dataclass
class AdamState:
    """First and second moment estimates, laid out like ``ModelParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def init_adam(params: ModelParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(
    params: ModelParams,
    grad: np.ndarray,
    state: AdamState,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update of the flat trainable vector."""
    if grad.shape != params.flat.shape:
        raise ValueError(f"shape mismatch: grad {grad.shape} vs params {params.flat.shape}")
    t = state.t + 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    m = b1 * state.m + (1.0 - b1) * grad
    v = b2 * state.v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1**t)
    v_hat = v / (1.0 - b2**t)
    flat = params.flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return ModelParams(params.spec, flat, params.stats.copy()), AdamState(m, v, t)


def train_local(
    params: ModelParams,
    ds: Dataset,
    config: TrainConfig,
    seed: int,
    w_global: ModelParams | None = None,
) -> tuple[ModelParams, list[float]]:
    """Train for ``config.epochs`` epochs of mini-batches shuffled from ``seed``.

    Returns the updated parameters and one mean loss per epoch. The input
    ``params`` is not mutated; a fresh Adam state is used per call.
    """
    if ds.n_samples == 0:
        raise ValueError("cannot train on an empty dataset")
    if config.prox_mu > 0 and w_global is None:
        raise ValueError("prox_mu > 0 requires w_global")
    work = params.copy()
    state = init_adam(work)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = ds.n_samples
    history: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = ds.features[idx]
            yb = ds.labels[idx]
            mask = None
            if work.spec.dropout_p > 0:
                mask = _dropout_mask(
                    rng, (xb.shape[0], work.spec.hidden[0][0]), work.spec.dropout_p
                )
            loss, grad, cache = _loss_grad_cache(
                work, xb, yb, config.prox_mu, w_global, "train", mask
            )
            _update_running_stats(work, cache)
            work, state = adam_step(work, grad, state, config)
            total += loss * len(idx)
        history.append(total / n)
    return work, history


@dataclass(frozen=True)
class EvalReport:
    """Classification quality on one dataset (macro-averaged metrics)."""

    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    mean_loss: float
    n_samples: int

    def __post_init__(self) -> None:
        for name in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not self.mean_loss >= 0:  # also rejects NaN
            raise ValueError(f"mean_loss must be >= 0, got {self.mean_loss}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def evaluate(params: ModelParams, ds: Dataset) -> EvalReport:
    """Eval-mode metrics: accuracy, macro precision/recall/F1 and mean CE loss.

    Macro averages run over the classes present in the labels or predictions;
    per-class ratios that are undefined (no predictions, or no true samples)
    count as 0. The loss excludes L2 and proximal terms.
    """
    if ds.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    cache = _run_layers(params, ds.features, "eval", None)
    probs = cache["probs"]
    preds = probs.argmax(axis=1)
    n = ds.n_samples
    mean_loss = -float(cache["log_probs"][np.arange(n), ds.labels].mean())
    accuracy = float((preds == ds.labels).mean())

    n_classes = params.spec.output_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (ds.labels, preds), 1)
    present = np.flatnonzero((confusion.sum(axis=1) > 0) | (confusion.sum(axis=0) > 0))
    precisions, recalls, f1s = [], [], []
    for c in present:
        tp = confusion[c, c]
        predicted = confusion[:, c].sum()
        actual = confusion[c, :].sum()
        p = tp / predicted if predicted > 0 else 0.0
        r = tp / actual if actual > 0 else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f1)
    return EvalReport(
        accuracy=accuracy,
        macro_precision=float(np.mean(precisions)),
        macro_recall=float(np.mean(recalls)),
        macro_f1=float(np.mean(f1s)),
        mean_loss=mean_loss,
        n_samples=n,
    )


def flatten_trainable(params: ModelParams) -> np.ndarray:
    """A copy of the flat trainable vector."""
    return params.flat.copy()


def _header(spec: ModelSpec) -> dict:
    trainable, running = _layout(spec)
    return {
        "format": _PARAMS_FORMAT,
        "spec": {**vars(spec), "hidden": [list(h) for h in spec.hidden]},
        "tensors": [[name, list(shape)] for name, shape in trainable],
        "running": [[name, list(shape)] for name, shape in running],
    }


def params_to_bytes(params: ModelParams) -> bytes:
    """Flat little-endian float64 record with a JSON header line."""
    header = json.dumps(_header(params.spec), sort_keys=True).encode("utf-8")
    payload = params.flat.astype("<f8").tobytes() + params.stats.astype("<f8").tobytes()
    return header + b"\n" + payload


def params_from_bytes(data: bytes) -> ModelParams:
    newline = data.index(b"\n")
    header = json.loads(data[:newline].decode("utf-8"))
    if header.get("format") != _PARAMS_FORMAT:
        raise ValueError(f"unrecognized parameter record format: {header.get('format')!r}")
    spec = ModelSpec(**header["spec"])
    if header != _header(spec):
        raise ValueError("parameter record tensors do not match its model spec")
    payload = np.frombuffer(data[newline + 1 :], dtype="<f8")
    trainable, running = _layout(spec)
    split = _size(trainable)
    if payload.size != split + _size(running):
        raise ValueError("parameter record length does not match its header")
    return ModelParams(spec, payload[:split].astype(np.float64), payload[split:].astype(np.float64))


def save_params(params: ModelParams, path: str | Path) -> None:
    Path(path).write_bytes(params_to_bytes(params))


def load_params(path: str | Path) -> ModelParams:
    return params_from_bytes(Path(path).read_bytes())
