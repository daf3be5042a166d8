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
    """The protocol knobs of a run, shared by every strategy it compares."""

    rounds: int = 20
    train: TrainConfig = TrainConfig()
    aug: AugmentationPolicy = AugmentationPolicy()
    threshold: float = 0.97
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
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0,1]")
        if not 1 <= self.trigger_round <= self.rounds:
            raise ValueError("trigger_round must satisfy 1 <= trigger_round <= rounds")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
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


def check_strategy(strategy: str, cfg: FederationConfig) -> None:
    """Reject a strategy name that is unknown or that ``cfg`` cannot run."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "fedprox" and cfg.train.prox_mu <= 0:
        raise ValueError("fedprox requires train.prox_mu > 0")


@dataclass(frozen=True)
class RoundMetrics:
    """Everything measured in one round, including protocol float counts.

    ``model_upload_floats`` counts the model downloads too: every client
    receives one global model of the size it uploads. ``proto_upload_floats``
    holds one count per client (zeros unless the exchange ran this round);
    ``proto_download_floats`` is the per-client broadcast payload size.
    """

    round_index: int
    global_report: EvalReport
    client_reports: tuple[EvalReport, ...]
    model_upload_floats: int
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
        return self.model_upload_floats + self.n_clients * self.proto_download_floats


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

    True exactly at the trigger round, with no prior exchange, and with the
    mean global accuracy of all earlier rounds below the threshold (an empty
    history counts as accuracy 0). Only the fedp3e strategy asks.
    """
    if len(history) + 1 != cfg.trigger_round or any(m.exchange_triggered for m in history):
        return False
    if not history:
        return True
    mean_acc = float(np.mean([m.global_report.accuracy for m in history]))
    return mean_acc < cfg.threshold


def _int_seed(master: int, *fields: int) -> int:
    return int(np.random.SeedSequence([master, *fields]).generate_state(1)[0])


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


def split_clients(cfg: FederationConfig, client_data: list[Dataset]) -> list[tuple[Dataset, Dataset]]:
    """Scale and split each client's data locally, one ``(train, test)`` pair per client.

    Every silo must share client 0's feature count and class names. Under
    ``scale_mode="global"`` the bounds are the pooled column minima and
    maxima, taken before any client is scaled; clients are then scaled one
    at a time, so at most one scaled copy is alive beside the splits.
    Failures raise FederationError naming the client.
    """
    if not client_data:
        raise ValueError("need at least one client dataset")
    first = client_data[0]
    for k, ds in enumerate(client_data):
        if ds.n_samples == 0:
            raise FederationError(f"client {k}: empty dataset")
        if ds.n_features != first.n_features:
            raise FederationError(f"client {k}: {ds.n_features} features, client 0 has {first.n_features}")
        if ds.class_names != first.class_names:
            raise FederationError(f"client {k}: classes {ds.class_names}, client 0 has {first.class_names}")

    bounds = None
    if cfg.scale_mode == "global":
        # Min and max are exact, so the clients' extremes are the pooled data's.
        bounds = (np.min([ds.features.min(axis=0) for ds in client_data], axis=0),
                  np.max([ds.features.max(axis=0) for ds in client_data], axis=0))
    clients = []
    for k, ds in enumerate(client_data):
        if cfg.scale_mode != "none":
            ds = min_max_scale(ds, bounds)
        with _failing_at(f"client {k}"):
            clients.append(stratified_split(ds, cfg.train_fraction, _int_seed(cfg.seed, _SEED_SPLIT, k)))
    return clients


def check_round_one_exchange(
    cfg: FederationConfig, clients: list[tuple[Dataset, Dataset]], strategies: Sequence[str]
) -> None:
    """Reject a fedp3e run whose round-1 exchange must fail, before any strategy trains.

    At ``trigger_round == 1`` the exchange always fires, and a class with no
    row in any client's train split gets no prototypes, yet every eligibility
    rule selects it for augmentation. A later exchange may never fire.
    """
    if "fedp3e" not in strategies or cfg.trigger_round != 1:
        return
    held = np.sum([train.class_counts() for train, _ in clients], axis=0)
    if not held.all():
        name = clients[0][0].class_names[int(np.argmin(held))]
        raise FederationError(f"round 1: no client holds a training row of class {name!r}, "
                              "so fedp3e's exchange has no prototypes of it")


def run_federation(
    cfg: FederationConfig, clients: list[tuple[Dataset, Dataset]], strategy: str
) -> list[RoundMetrics]:
    """Run ``strategy`` over the ``(train, test)`` pairs of ``split_clients``.

    Every client trains for the configured epochs each round on its train
    set, uploads its model for weighted averaging, and evaluates the global
    model on its test set. Only fedprox applies ``cfg.train.prox_mu``. Under
    fedp3e a one-shot prototype exchange can fire at the trigger round, after
    which clients train on augmented data; ``clients`` itself is left as it
    was, so several strategies can run on the same splits. All randomness
    is derived from per-(round, client) sub-seeds, so results are
    bit-identical across reruns. A failure in a round raises FederationError naming the round,
    and the client where there is one.
    """
    check_strategy(strategy, cfg)
    n_clients = len(clients)
    train_sets = [train for train, _ in clients]
    test_sets = [test for _, test in clients]
    first = train_sets[0]
    n_classes = first.n_classes
    spec = cfg.model or mlp_spec(first.n_features, n_classes)
    if spec.input_dim != first.n_features:
        raise ValueError(f"model expects {spec.input_dim} inputs but data has {first.n_features}")
    if spec.output_classes != n_classes:
        raise ValueError(f"model expects {spec.output_classes} classes but data has {n_classes}")
    global_params = build_model(spec, _int_seed(cfg.seed, _SEED_INIT))
    d_w = global_params.trainable_count

    train_cfg = cfg.train if strategy == "fedprox" else replace(cfg.train, prox_mu=0.0)

    history: list[RoundMetrics] = []
    for round_index in range(1, cfg.rounds + 1):
        exchange = strategy == "fedp3e" and should_trigger_exchange(history, cfg)
        proto_upload = [0] * n_clients
        proto_download = 0
        if exchange:
            uploads = []
            for k in range(n_clients):
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
            for k in range(n_clients):
                with _failing_at(f"round {round_index}, client {k}"):
                    train_sets[k] = augment(
                        train_sets[k], gp, cfg.aug, _int_seed(cfg.seed, _SEED_AUG, round_index, k)
                    )

        updates = []
        for k in range(n_clients):
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
            model_upload_floats=n_clients * d_w,
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
