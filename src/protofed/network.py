"""Dense softmax classifier with batch norm, dropout, L2 and a proximal term.

Everything runs in float64 and every gradient is analytic, so the whole
backward pass can be validated against central finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._checks import check_range
from .datasets import Dataset

BN_EPSILON = 1e-3
BN_MOMENTUM = 0.99
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-7

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
        check_range("input_dim", self.input_dim, "integer >= 1")
        check_range("output_classes", self.output_classes, "integer >= 1")
        for units, l2 in self.hidden:
            check_range("hidden layer units", units, "integer >= 1")
            check_range("l2 coefficients", l2, ">= 0")
        check_range("dropout_p", self.dropout_p, "in [0, 1)")
        if self.dropout_p > 0 and not self.hidden:
            raise ValueError("dropout requires at least one hidden layer")
        object.__setattr__(self, "hidden", tuple((int(u), float(l2)) for u, l2 in self.hidden))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *(u for u, _ in self.hidden), self.output_classes)


def _layout(spec: ModelSpec) -> tuple[_Layout, _Layout]:
    """(name, shape) of each trainable tensor and each running statistic.

    The one statement of the parameter layout: list order is buffer order in
    ``ModelParams.flat``/``stats`` and in gradients.
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
            size = sum(math.prod(shape) for _, shape in layout)
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

    @cached_property
    def _blocks(self) -> list[_Block]:
        """One ``_Block`` per hidden layer, bound on first use and valid for
        the model's life, since ``flat`` and ``stats`` are never rebound."""
        t, r = self.tensors, self.running
        return [
            _Block(t[f"w{i}"], t[f"b{i}"], t[f"gamma{i}"], t[f"beta{i}"],
                   r[f"mean{i}"], r[f"var{i}"], l2)
            for i, (_, l2) in enumerate(self.spec.hidden, start=1)
        ]


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


@dataclass(frozen=True, slots=True)
class _Block:
    """Views of one dense+relu+batch-norm block's tensors and statistics, and
    the block's L2 coefficient."""

    w: np.ndarray
    b: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    l2: float


class _Pass(NamedTuple):
    """What a forward pass keeps for the backward pass: (input, pre-activation,
    1/std, normalized activation) per block, the last hidden activation, and
    the class probabilities and log-probabilities."""

    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    last_hidden: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


def _forward(params: ModelParams, batch: np.ndarray, grad: ModelParams | None,
             dropout_mask: np.ndarray | None) -> _Pass:
    """The forward pass. In train mode (``grad`` given) batch norm normalizes
    with this batch's statistics and writes them to ``grad.stats``; in eval
    mode it uses the running statistics."""
    n = batch.shape[0]
    activation = batch
    saved = []
    for i, block in enumerate(params._blocks):
        z = activation @ block.w
        z += block.b
        # xhat = (h - mean) * inv_std, built in place from h = relu(z); in
        # train mode the variance reads the same h - mean.
        xhat = np.maximum(z, 0.0)
        if grad is not None:
            stats = grad._blocks[i]
            mean = np.add.reduce(xhat, axis=0, out=stats.mean)
            mean /= n
            xhat -= mean
            var = np.add.reduce(xhat * xhat, axis=0, out=stats.var)
            var /= n
        else:
            xhat -= block.mean
            var = block.var
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv_std
        out = xhat * block.gamma
        out += block.beta
        if i == 0 and dropout_mask is not None:
            out *= dropout_mask
        saved.append((activation, z, inv_std, xhat))
        activation = out
    shifted = activation @ params.tensors["w_out"]
    shifted += params.tensors["b_out"]
    shifted -= np.maximum.reduce(shifted, axis=1, keepdims=True)
    probs = np.exp(shifted)
    total = np.add.reduce(probs, axis=1, keepdims=True)
    probs /= total
    shifted -= np.log(total, out=total)  # now the log-probabilities
    return _Pass(saved, activation, probs, shifted)


def _cross_entropy(log_probs: np.ndarray, labels: np.ndarray) -> float:
    n = labels.shape[0]
    return -float(np.add.reduce(log_probs[np.arange(n), labels])) / n


def _backward(params: ModelParams, grad: ModelParams, cache: _Pass, labels: np.ndarray,
              train: bool, dropout_mask: np.ndarray | None) -> None:
    """Write the gradient of mean cross-entropy plus L2 into ``grad.flat``."""
    n = labels.shape[0]
    grads = grad.tensors
    dlogits = cache.probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    np.matmul(cache.last_hidden.T, dlogits, out=grads["w_out"])
    np.add.reduce(dlogits, axis=0, out=grads["b_out"])
    upstream = dlogits @ params.tensors["w_out"].T
    for i in range(len(params._blocks) - 1, -1, -1):
        block, block_grad = params._blocks[i], grad._blocks[i]
        x_in, z, inv_std, xhat = cache.blocks[i]
        dy = upstream
        if i == 0 and dropout_mask is not None:
            dy *= dropout_mask
        np.add.reduce(dy * xhat, axis=0, out=block_grad.gamma)
        np.add.reduce(dy, axis=0, out=block_grad.beta)
        # One buffer turns from dy into dxhat, dh and dz in place.
        dz = dy
        dz *= block.gamma
        if train:
            # Batch statistics depend on the activations, so differentiate
            # through the mean and (biased) variance as well:
            # dh = (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)).
            dxhat_sum = np.add.reduce(dz, axis=0)
            pulled = dz * xhat
            np.multiply(xhat, np.add.reduce(pulled, axis=0), out=pulled)
            dz *= n
            dz -= dxhat_sum
            dz -= pulled
            dz *= inv_std / n
        else:
            dz *= inv_std
        dz *= z > 0
        dw = np.matmul(x_in.T, dz, out=block_grad.w)
        dw += 2.0 * block.l2 * block.w
        np.add.reduce(dz, axis=0, out=block_grad.b)
        if i:
            upstream = dz @ block.w.T


def _loss_and_grad(
    params: ModelParams,
    grad: ModelParams,
    batch: np.ndarray,
    labels: np.ndarray,
    prox_mu: float,
    w_global: ModelParams | None,
    train: bool,
    dropout_mask: np.ndarray | None,
) -> float:
    """Regularized loss of one batch; its gradient goes to ``grad.flat`` and,
    in train mode, its batch statistics to ``grad.stats``."""
    cache = _forward(params, batch, grad if train else None, dropout_mask)
    loss = _cross_entropy(cache.log_probs, labels)
    for block in params._blocks:
        if block.l2 > 0:
            loss += block.l2 * float(np.add.reduce(block.w * block.w, axis=None))
    _backward(params, grad, cache, labels, train, dropout_mask)
    if prox_mu > 0:
        pull = params.flat - w_global.flat
        loss += 0.5 * prox_mu * float(np.add.reduce(pull * pull))
        pull *= prox_mu
        np.add(grad.flat, pull, out=grad.flat)
    return loss


def _check_batch(spec: ModelSpec, batch: np.ndarray) -> None:
    if batch.ndim != 2 or batch.shape[1] != spec.input_dim:
        raise ValueError(
            f"dimension mismatch: batch has shape {batch.shape}, "
            f"model expects (*, {spec.input_dim})"
        )


def _check_labels(spec: ModelSpec, labels: np.ndarray) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= spec.output_classes):
        raise ValueError("labels outside the model's class range")


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
    batch = np.asarray(batch, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _check_labels(params.spec, labels)
    check_range("prox_mu", prox_mu, ">= 0")
    if prox_mu > 0 and w_global is None:
        raise ValueError("prox_mu > 0 requires w_global")
    _check_batch(params.spec, batch)
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    grad = ModelParams(params.spec)
    loss = _loss_and_grad(params, grad, batch, labels, prox_mu, w_global, mode == "train",
                          dropout_mask)
    return loss, grad.tensors


@dataclass(frozen=True)
class TrainConfig:
    """Local-epoch training knobs (Adam optimizer, optional proximal pull)."""

    epochs: int = 15
    batch_size: int = 32
    learning_rate: float = 1e-4
    prox_mu: float = 0.0

    def __post_init__(self) -> None:
        for name, rule in (("epochs", "integer >= 1"), ("batch_size", "integer >= 1"),
                           ("learning_rate", "> 0"), ("prox_mu", ">= 0")):
            check_range(name, getattr(self, name), rule)


def adam_step(flat: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              learning_rate: float) -> None:
    """Adam's ``t``-th bias-corrected update of ``flat``, in place.

    Like an optimizer's ``step()``, it updates ``flat`` and the moment
    estimates ``m`` and ``v`` (laid out like ``flat``) in place; ``t``
    counts steps from 1.
    """
    if grad.shape != flat.shape:
        raise ValueError(f"shape mismatch: grad {grad.shape} vs params {flat.shape}")
    check_range("t", t, "integer >= 1")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # Each line keeps the elementwise order of
    #   m = b1 * m + (1 - b1) * grad;  v = b2 * v + (1 - b2) * grad * grad
    #   flat -= lr * m_hat / (sqrt(v_hat) + epsilon)
    # so the result is bit for bit that of the out-of-place expressions.
    step = grad * (1.0 - b1)
    m *= b1
    m += step
    np.multiply(grad, 1.0 - b2, out=step)
    step *= grad
    v *= b2
    v += step
    np.divide(m, 1.0 - b1**t, out=step)
    step *= learning_rate
    denom = v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
    step /= denom
    flat -= step


def train_local(
    params: ModelParams,
    ds: Dataset,
    config: TrainConfig,
    seed: int,
) -> tuple[ModelParams, list[float]]:
    """Train for ``config.epochs`` epochs of mini-batches shuffled from ``seed``.

    Returns the updated parameters and one mean loss per epoch. The proximal
    term, when ``config.prox_mu > 0``, pulls toward ``params``: the model the
    client received. The input ``params`` is not mutated; a fresh Adam state
    is used per call. A non-finite batch loss raises FloatingPointError
    naming the epoch and the batch, both counted from 1.
    """
    if ds.n_samples == 0:
        raise ValueError("cannot train on an empty dataset")
    spec = params.spec
    _check_labels(spec, ds.labels)
    _check_batch(spec, ds.features)
    work = params.copy()
    grad = ModelParams(spec)
    stats, batch_stats = work.stats, grad.stats
    m, v = np.zeros_like(work.flat), np.zeros_like(work.flat)
    t = 0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = ds.n_samples
    history: list[float] = []
    # Divergence is reported by the loss check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            features, labels = ds.features[order], ds.labels[order]
            # One draw of n rows gives the doubles of the per-batch draws in row order.
            masks = None
            if spec.dropout_p > 0:
                p = spec.dropout_p
                masks = (rng.random((n, spec.hidden[0][0])) >= p) / (1.0 - p)
            total = 0.0
            for batch_index, start in enumerate(range(0, n, config.batch_size), start=1):
                stop = min(start + config.batch_size, n)
                mask = None if masks is None else masks[start:stop]
                loss = _loss_and_grad(work, grad, features[start:stop], labels[start:stop],
                                      config.prox_mu, params, True, mask)
                if not math.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss {loss} in epoch {epoch}, batch {batch_index}"
                    )
                # Running statistics move toward this batch's, in place:
                # stats = m * stats + (1 - m) * batch_stats.
                stats *= BN_MOMENTUM
                batch_stats *= 1.0 - BN_MOMENTUM
                stats += batch_stats
                t += 1
                adam_step(work.flat, grad.flat, m, v, t, config.learning_rate)
                total += loss * (stop - start)
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
            check_range(name, getattr(self, name), "in [0, 1]")
        check_range("mean_loss", self.mean_loss, ">= 0")
        check_range("n_samples", self.n_samples, "integer >= 1")


def evaluate(params: ModelParams, ds: Dataset) -> EvalReport:
    """Eval-mode metrics: accuracy, macro precision/recall/F1 and mean CE loss.

    Macro averages run over the classes present in the labels or predictions;
    per-class ratios that are undefined (no predictions, or no true samples)
    count as 0. The loss excludes L2 and proximal terms; a non-finite loss,
    as from a diverged model, raises FloatingPointError.
    """
    if ds.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    _check_labels(params.spec, ds.labels)
    _check_batch(params.spec, ds.features)
    # A diverged model is reported by the loss check below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        cache = _forward(params, ds.features, None, None)
        mean_loss = _cross_entropy(cache.log_probs, ds.labels)
    if not math.isfinite(mean_loss):
        raise FloatingPointError(f"the global model's test loss is non-finite: {mean_loss}")
    preds = cache.probs.argmax(axis=1)
    n = ds.n_samples
    accuracy = float((preds == ds.labels).mean())

    n_classes = params.spec.output_classes
    confusion = np.bincount(
        ds.labels * n_classes + preds, minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)
    predicted = confusion.sum(axis=0)
    actual = confusion.sum(axis=1)
    present = (actual > 0) | (predicted > 0)
    tp, predicted, actual = np.diagonal(confusion)[present], predicted[present], actual[present]
    precisions = np.divide(tp, predicted, out=np.zeros(tp.size), where=predicted > 0)
    recalls = np.divide(tp, actual, out=np.zeros(tp.size), where=actual > 0)
    total = precisions + recalls
    f1s = np.divide(2 * precisions * recalls, total, out=np.zeros(tp.size), where=total > 0)
    return EvalReport(
        accuracy=accuracy,
        macro_precision=float(np.mean(precisions)),
        macro_recall=float(np.mean(recalls)),
        macro_f1=float(np.mean(f1s)),
        mean_loss=mean_loss,
        n_samples=n,
    )
