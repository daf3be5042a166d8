"""Simulated cross-silo federation: FedAvg, FedProx and prototype exchange."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .augment import AugmentationPolicy, augment
from .clustering import Prototypes, aggregate_prototypes
from .datasets import Dataset, min_max_scale, stratified_split
from .mixtures import em_fit, perturb, select_k_bic
from .network import (
    EvalReport,
    ModelParams,
    ModelSpec,
    TrainConfig,
    build_model,
    evaluate,
    mlp_spec,
    train_local,
)

STRATEGIES = ("fedavg", "fedprox", "fedp3e")

# Purpose tags for deriving per-(round, client) sub-seeds.
_SEED_SPLIT = 1
_SEED_INIT = 2
_SEED_TRAIN = 3
_SEED_GMM = 4
_SEED_NOISE = 5
_SEED_AGG = 6
_SEED_AUG = 7


class FederationError(RuntimeError):
    """A module failure annotated with round/client context."""


@contextmanager
def _failing_at(where: str) -> Iterator[None]:
    """Re-raise a failure inside the block as a FederationError naming ``where``."""
    try:
        yield
    except Exception as err:
        raise FederationError(f"{where}: {err}") from err


@dataclass(frozen=True)
class FederationConfig:
    """All protocol knobs for one federated run."""

    strategy: str
    n_clients: int
    rounds: int = 20
    train: TrainConfig = TrainConfig()
    aug: AugmentationPolicy = AugmentationPolicy()
    accuracy_threshold: float = 0.97
    trigger_round: int = 6
    noise_sigma: float = 0.01
    model: ModelSpec | None = None
    train_fraction: float = 0.8
    scale_mode: str = "local"
    eval_weighting: str = "test_size"
    gmm_components: int | None = None
    gmm_max_components: int = 5
    global_prototypes_per_class: int | None = None
    aggregate_running_stats: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.accuracy_threshold <= 1.0:
            raise ValueError("threshold must be in (0,1]")
        if not 1 <= self.trigger_round <= self.rounds:
            raise ValueError("trigger_round must satisfy 1 <= trigger_round <= rounds")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.strategy == "fedprox" and self.train.prox_mu <= 0:
            raise ValueError("fedprox requires train.prox_mu > 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.scale_mode not in ("local", "global", "none"):
            raise ValueError(f"unknown scale_mode {self.scale_mode!r}")
        if self.eval_weighting not in ("test_size", "uniform"):
            raise ValueError(f"unknown eval_weighting {self.eval_weighting!r}")
        for name in ("gmm_components", "gmm_max_components", "global_prototypes_per_class"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class RoundMetrics:
    """Everything measured in one round, including protocol float counts.

    ``proto_upload_floats`` holds one count per client (zeros unless the
    exchange ran this round); ``proto_download_floats`` is the per-client
    broadcast payload size.
    """

    round_index: int
    global_report: EvalReport
    client_reports: tuple[EvalReport, ...]
    model_upload_floats: int
    model_download_floats: int
    proto_upload_floats: tuple[int, ...]
    proto_download_floats: int
    exchange_triggered: bool

    @property
    def n_clients(self) -> int:
        return len(self.client_reports)

    @property
    def uploaded_floats(self) -> int:
        return self.model_upload_floats + sum(self.proto_upload_floats)

    @property
    def downloaded_floats(self) -> int:
        return self.model_download_floats + self.n_clients * self.proto_download_floats


def fedavg_aggregate(updates: list[tuple[ModelParams, int]]) -> ModelParams:
    """Data-size weighted mean of client models, running statistics included."""
    if not updates:
        raise ValueError("need at least one update to aggregate")
    total = sum(weight for _, weight in updates)
    if total <= 0:
        raise ValueError("all client weights are zero")
    reference, _ = updates[0]
    dims = reference.spec.layer_dims
    for params, _ in updates[1:]:
        if params.spec.layer_dims != dims:
            raise ValueError(f"shape mismatch: layers {params.spec.layer_dims} vs {dims}")
    # Accumulate client by client: a stacked sum or matmul would round differently.
    flat = np.zeros_like(reference.flat)
    stats = np.zeros_like(reference.stats)
    for params, weight in updates:
        flat += (weight / total) * params.flat
        stats += (weight / total) * params.stats
    return ModelParams(reference.spec, flat, stats)


def should_trigger_exchange(history: list[RoundMetrics], cfg: FederationConfig) -> bool:
    """Decide, at the start of round len(history)+1, whether to exchange.

    True only for the fedp3e strategy, exactly at the trigger round, with no
    prior exchange, and with the mean global accuracy of all earlier rounds
    below the threshold (an empty history counts as accuracy 0).
    """
    round_index = len(history) + 1
    if cfg.strategy != "fedp3e":
        return False
    if round_index != cfg.trigger_round:
        return False
    if any(m.exchange_triggered for m in history):
        return False
    if not history:
        return True
    mean_acc = float(np.mean([m.global_report.accuracy for m in history]))
    return mean_acc < cfg.accuracy_threshold


def _int_seed(master: int, *fields: int) -> int:
    return int(np.random.SeedSequence([master, *fields]).generate_state(1)[0])


def _scale_clients(client_data: list[Dataset], mode: str) -> list[Dataset]:
    if mode == "none":
        return list(client_data)
    if mode == "local":
        return [min_max_scale(ds) for ds in client_data]
    pooled = min_max_scale(Dataset(
        np.vstack([ds.features for ds in client_data]),
        np.concatenate([ds.labels for ds in client_data]),
        client_data[0].class_names,
    ))
    parts = np.split(pooled.features, np.cumsum([ds.n_samples for ds in client_data])[:-1])
    return [Dataset(part, ds.labels, ds.class_names) for ds, part in zip(client_data, parts)]


def _combine_reports(reports: Sequence[EvalReport], weighting: str) -> EvalReport:
    if weighting == "test_size":
        weights = np.array([r.n_samples for r in reports], dtype=np.float64)
    else:
        weights = np.ones(len(reports))
    weights = weights / weights.sum()

    def mean(name: str) -> float:
        return float(sum(w * getattr(r, name) for w, r in zip(weights, reports)))

    # Weights summing to just over 1 can lift a mean of perfect scores past 1.0.
    return EvalReport(
        accuracy=min(1.0, mean("accuracy")),
        macro_precision=min(1.0, mean("macro_precision")),
        macro_recall=min(1.0, mean("macro_recall")),
        macro_f1=min(1.0, mean("macro_f1")),
        mean_loss=mean("mean_loss"),
        n_samples=int(sum(r.n_samples for r in reports)),
    )


def _client_prototypes(train: Dataset, cfg: FederationConfig, round_index: int, client: int) -> Prototypes:
    means = {}
    for class_id in np.unique(train.labels):
        rows = train.features[train.labels == class_id]
        seed = _int_seed(cfg.seed, _SEED_GMM, round_index, client, int(class_id))
        if cfg.gmm_components is not None:
            k = min(cfg.gmm_components, rows.shape[0])
            model = em_fit(rows, k, seed)
        else:
            _, model = select_k_bic(rows, min(cfg.gmm_max_components, rows.shape[0]), seed)
        means[int(class_id)] = model.means
    return Prototypes(means)


def run_federation(cfg: FederationConfig, client_data: list[Dataset]) -> list[RoundMetrics]:
    """Execute the configured protocol over the given client datasets.

    Every client scales and splits its data locally, trains for the
    configured epochs each round, and uploads its model for weighted
    averaging. Under the fedp3e strategy a one-shot prototype exchange can
    fire at the trigger round, after which clients train on augmented data.
    All randomness is derived from per-(round, client) sub-seeds, so results
    are bit-identical across reruns. A failure in a round raises
    FederationError naming the round, and the client where there is one.
    """
    if len(client_data) != cfg.n_clients:
        raise ValueError(
            f"config expects {cfg.n_clients} clients but got {len(client_data)} datasets"
        )
    first = client_data[0]
    for k, ds in enumerate(client_data):
        if ds.n_samples == 0:
            raise FederationError(f"client {k}: empty dataset")
        if ds.n_features != first.n_features:
            raise FederationError(f"client {k}: {ds.n_features} features, client 0 has {first.n_features}")
        if ds.class_names != first.class_names:
            raise FederationError(f"client {k}: classes {ds.class_names}, client 0 has {first.class_names}")

    scaled = _scale_clients(client_data, cfg.scale_mode)
    train_sets: list[Dataset] = []
    test_sets: list[Dataset] = []
    for k, ds in enumerate(scaled):
        try:
            train, test = stratified_split(ds, cfg.train_fraction, _int_seed(cfg.seed, _SEED_SPLIT, k))
        except ValueError as err:
            raise FederationError(f"client {k}: {err}") from err
        train_sets.append(train)
        test_sets.append(test)

    n_classes = first.n_classes
    spec = cfg.model or mlp_spec(first.n_features, n_classes)
    if spec.input_dim != first.n_features:
        raise ValueError(f"model expects {spec.input_dim} inputs but data has {first.n_features}")
    if spec.output_classes != n_classes:
        raise ValueError(f"model expects {spec.output_classes} classes but data has {n_classes}")
    global_params = build_model(spec, _int_seed(cfg.seed, _SEED_INIT))
    d_w = global_params.trainable_count

    train_cfg = cfg.train if cfg.strategy == "fedprox" else replace(cfg.train, prox_mu=0.0)

    history: list[RoundMetrics] = []
    for round_index in range(1, cfg.rounds + 1):
        exchange = should_trigger_exchange(history, cfg)
        proto_upload = [0] * cfg.n_clients
        proto_download = 0
        if exchange:
            uploads = []
            for k in range(cfg.n_clients):
                with _failing_at(f"round {round_index}, client {k}"):
                    ps = _client_prototypes(train_sets[k], cfg, round_index, k)
                    ps = perturb(ps, cfg.noise_sigma, _int_seed(cfg.seed, _SEED_NOISE, round_index, k))
                proto_upload[k] = ps.floats
                uploads.append(ps)
            gp = aggregate_prototypes(
                uploads,
                seed=_int_seed(cfg.seed, _SEED_AGG, round_index),
                cluster_count=cfg.global_prototypes_per_class,
            )
            proto_download = gp.floats
            for k in range(cfg.n_clients):
                with _failing_at(f"round {round_index}, client {k}"):
                    train_sets[k] = augment(
                        train_sets[k], gp, cfg.aug, _int_seed(cfg.seed, _SEED_AUG, round_index, k)
                    )

        updates = []
        for k in range(cfg.n_clients):
            seed = _int_seed(cfg.seed, _SEED_TRAIN, round_index, k)
            with _failing_at(f"round {round_index}, client {k}"):
                updated, _ = train_local(
                    global_params, train_sets[k], train_cfg, seed, w_global=global_params
                )
            updates.append((updated, train_sets[k].n_samples))

        with _failing_at(f"round {round_index}"):
            aggregated = fedavg_aggregate(updates)
        if not cfg.aggregate_running_stats:
            aggregated = ModelParams(aggregated.spec, aggregated.flat, global_params.stats.copy())
        global_params = aggregated

        reports = []
        for k, test in enumerate(test_sets):
            with _failing_at(f"round {round_index}, client {k}"):
                reports.append(evaluate(global_params, test))
        metrics = RoundMetrics(
            round_index=round_index,
            global_report=_combine_reports(reports, cfg.eval_weighting),
            client_reports=tuple(reports),
            model_upload_floats=cfg.n_clients * d_w,
            model_download_floats=cfg.n_clients * d_w,
            proto_upload_floats=tuple(proto_upload),
            proto_download_floats=proto_download,
            exchange_triggered=exchange,
        )
        history.append(metrics)
    return history


def exchange_round(history: list[RoundMetrics]) -> int | None:
    """Round index of the one-shot exchange, or None if it never fired."""
    for metrics in history:
        if metrics.exchange_triggered:
            return metrics.round_index
    return None


def exchange_cost_ratios(
    uploads: Sequence[int], download: int, d_w: int
) -> tuple[list[float], float, float]:
    """Exchange floats as fractions of one ``d_w``-float model update.

    Returns each client's upload ratio, the per-client download ratio, and
    the total: the mean upload plus the download, over ``d_w``.
    """
    mean_upload = sum(uploads) / len(uploads)
    return [u / d_w for u in uploads], download / d_w, (mean_upload + download) / d_w


@dataclass(frozen=True)
class CommCostReport:
    """Analytic one-shot exchange cost versus what the run actually shipped."""

    upload_floats: int
    download_floats: int
    upload_ratio: float
    download_ratio: float
    total_ratio: float
    matches_run: bool
    mismatches: tuple[str, ...]


def comm_cost_report(
    run: list[RoundMetrics],
    d_w: int,
    d_x: int,
    protos_per_class: int,
    global_protos_per_class: int,
    classes_per_client: int,
    n_global_classes: int,
) -> CommCostReport:
    """Prototype-exchange float accounting relative to a model update.

    Computes the analytic payloads (classes_per_client * protos_per_class *
    d_x uploaded per client; n_global_classes * global_protos_per_class * d_x
    downloaded per client) and cross-checks them, along with the model float
    counts, against the payload sizes the run recorded.
    """
    upload = classes_per_client * protos_per_class * d_x
    download = n_global_classes * global_protos_per_class * d_x
    mismatches: list[str] = []
    for metrics in run:
        k = metrics.n_clients
        if metrics.model_upload_floats != k * d_w:
            mismatches.append(
                f"round {metrics.round_index}: model upload {metrics.model_upload_floats} != {k * d_w}"
            )
        if metrics.model_download_floats != k * d_w:
            mismatches.append(
                f"round {metrics.round_index}: model download {metrics.model_download_floats} != {k * d_w}"
            )
        if metrics.exchange_triggered:
            for client, sent in enumerate(metrics.proto_upload_floats):
                if sent != upload:
                    mismatches.append(
                        f"round {metrics.round_index}, client {client}: "
                        f"prototype upload {sent} != analytic {upload}"
                    )
            if metrics.proto_download_floats != download:
                mismatches.append(
                    f"round {metrics.round_index}: prototype download "
                    f"{metrics.proto_download_floats} != analytic {download}"
                )
    (upload_ratio,), download_ratio, total_ratio = exchange_cost_ratios((upload,), download, d_w)
    return CommCostReport(
        upload_floats=upload,
        download_floats=download,
        upload_ratio=upload_ratio,
        download_ratio=download_ratio,
        total_ratio=total_ratio,
        matches_run=not mismatches,
        mismatches=tuple(mismatches),
    )
