"""Simulated cross-silo federation: FedAvg, FedProx and prototype exchange."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from ._checks import check_range
from .augment import augment
from .clustering import Prototypes, aggregate_prototypes
from .datasets import Dataset, min_max_scale, stratified_split
from .mixtures import em_fit, perturb, select_k_bic
from .network import EvalReport, ModelParams, ModelSpec, TrainConfig, build_model, evaluate, train_local

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
    """The protocol knobs of a run, shared by every strategy it compares.

    ``hidden`` and ``dropout_p`` are the model's design choices, as in
    ``ModelSpec``; the data set its input and output sizes. fedp3e's
    augmentation budget is ``target_fraction`` of each train set, and it
    jitters a class's lone prototype at the upload level ``noise_sigma``.
    """

    rounds: int = 20
    train: TrainConfig = TrainConfig()
    target_fraction: float = 0.10
    threshold: float = 0.97
    trigger_round: int = 6
    noise_sigma: float = 0.01
    hidden: tuple[tuple[int, float], ...] = ((128, 1e-3), (64, 1e-3))
    dropout_p: float = 0.5
    scale_mode: str = "local"
    gmm_components: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # ModelSpec states the architecture's rules; any input and output size will do.
        object.__setattr__(self, "hidden", ModelSpec(1, self.hidden, self.dropout_p, 1).hidden)
        check_range("rounds", self.rounds, "integer >= 1")
        check_range("target_fraction", self.target_fraction, "in (0, 1]")
        check_range("threshold", self.threshold, "in (0, 1]")
        check_range("trigger_round", self.trigger_round, "integer >= 1")
        if self.trigger_round > self.rounds:
            raise ValueError(f"trigger_round must be <= rounds ({self.rounds}), got {self.trigger_round}")
        check_range("noise_sigma", self.noise_sigma, ">= 0")
        if self.scale_mode not in ("local", "none"):
            raise ValueError(f"unknown scale_mode {self.scale_mode!r}")
        if self.gmm_components is not None:
            check_range("gmm_components", self.gmm_components, "integer >= 1")
        check_range("seed", self.seed, "integer >= 0")


def check_strategy(strategy: str, cfg: FederationConfig) -> None:
    """Reject a strategy name that is unknown or that ``cfg`` cannot run."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "fedprox" and cfg.train.prox_mu <= 0:
        raise ValueError("fedprox requires train.prox_mu > 0")


@dataclass(frozen=True)
class RoundMetrics:
    """Everything measured in one round, including protocol float counts.

    A round's number is its 1-based position in the history that holds it.

    ``model_floats`` is the size of one model update; every client uploads
    one and receives one global model of that size. ``proto_upload_floats``
    holds one count per client (zeros unless the exchange ran this round);
    ``proto_download_floats`` is the per-client broadcast payload size.
    """

    client_reports: tuple[EvalReport, ...]
    model_floats: int
    proto_upload_floats: tuple[int, ...]
    proto_download_floats: int

    @property
    def exchange_triggered(self) -> bool:
        """Whether the exchange ran this round: only then is anything broadcast."""
        return self.proto_download_floats > 0

    @property
    def global_report(self) -> EvalReport:
        """The client reports' mean, weighted by test-set size."""
        return _combine_reports(self.client_reports)

    @property
    def n_clients(self) -> int:
        return len(self.client_reports)

    @property
    def model_upload_floats(self) -> int:
        return self.n_clients * self.model_floats

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

    True exactly at the trigger round, so at most once per run, and with the
    mean global accuracy of all earlier rounds below the threshold (an empty
    history counts as accuracy 0). Only the fedp3e strategy asks.
    """
    if len(history) + 1 != cfg.trigger_round:
        return False
    if not history:
        return True
    mean_acc = float(np.mean([m.global_report.accuracy for m in history]))
    return mean_acc < cfg.threshold


def _int_seed(master: int, *fields: int) -> int:
    return int(np.random.SeedSequence([master, *fields]).generate_state(1)[0])


def _combine_reports(reports: Sequence[EvalReport]) -> EvalReport:
    weights = np.array([r.n_samples for r in reports], dtype=np.float64)
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


def _client_prototypes(train: Dataset, cfg: FederationConfig, r: int, client: int) -> Prototypes:
    means = {}
    for class_id in np.flatnonzero(train.class_counts()):
        rows = train.features[train.labels == class_id]
        seed = _int_seed(cfg.seed, _SEED_GMM, r, client, int(class_id))
        if cfg.gmm_components is not None:
            model = em_fit(rows, min(cfg.gmm_components, rows.shape[0]), seed)
        else:
            model = select_k_bic(rows, seed)
        means[int(class_id)] = model.means
    return Prototypes(means)


def split_clients(cfg: FederationConfig, client_data: list[Dataset]) -> list[tuple[Dataset, Dataset]]:
    """Scale and split each client's data locally, one ``(train, test)`` pair per client.

    Every silo must share client 0's feature count and class names. Clients
    are scaled one at a time, so at most one scaled copy is alive beside the
    splits. Failures raise FederationError naming the client.
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

    clients = []
    for k, ds in enumerate(client_data):
        if cfg.scale_mode == "local":
            ds = min_max_scale(ds)
        with _failing_at(f"client {k}"):
            clients.append(stratified_split(ds, _int_seed(cfg.seed, _SEED_SPLIT, k)))
    return clients


def _exchange(
    cfg: FederationConfig, train_sets: list[Dataset], r: int
) -> tuple[tuple[int, ...], int]:
    """Round ``r``'s exchange: upload, recluster, then augment each entry of ``train_sets``.

    Returns each client's upload size and the broadcast size, in floats.
    """
    uploads = []
    for k, train in enumerate(train_sets):
        with _failing_at(f"round {r}, client {k}"):
            ps = _client_prototypes(train, cfg, r, k)
            uploads.append(perturb(ps, cfg.noise_sigma, _int_seed(cfg.seed, _SEED_NOISE, r, k)))
    with _failing_at(f"round {r}"):
        gp = aggregate_prototypes(uploads, seed=_int_seed(cfg.seed, _SEED_AGG, r))
    for k, train in enumerate(train_sets):
        with _failing_at(f"round {r}, client {k}"):
            seed = _int_seed(cfg.seed, _SEED_AUG, r, k)
            train_sets[k] = augment(train, gp, cfg.target_fraction, cfg.noise_sigma, seed)
    return tuple(ps.floats for ps in uploads), gp.floats


def _train(cfg: FederationConfig, train_cfg: TrainConfig, global_params: ModelParams,
           train_sets: list[Dataset], r: int) -> ModelParams:
    """Round ``r``'s local training on every client, then FedAvg: the new global model."""
    updates = []
    for k, train in enumerate(train_sets):
        seed = _int_seed(cfg.seed, _SEED_TRAIN, r, k)
        with _failing_at(f"round {r}, client {k}"):
            updated, _ = train_local(global_params, train, train_cfg, seed)
        updates.append((updated, train.n_samples))
    with _failing_at(f"round {r}"):
        return fedavg_aggregate(updates)


def run_federation(
    cfg: FederationConfig, clients: list[tuple[Dataset, Dataset]], strategy: str
) -> list[RoundMetrics]:
    """Run ``strategy`` over the ``(train, test)`` pairs of ``split_clients``.

    Each round runs three phases. Exchange (fedp3e only, once, at the trigger
    round): clients upload noisy GMM prototypes, the server reclusters them,
    and each client augments its train set, which later rounds keep. Train:
    every client trains from the global model, and FedAvg makes the next one.
    Evaluate: every client scores the new global model on its test set. Only
    fedprox applies ``cfg.train.prox_mu``. ``clients`` itself is left as it
    was, so several strategies can run on the same splits. All randomness is
    derived from per-(round, client) sub-seeds, so results are bit-identical
    across reruns. A failure in a round raises FederationError naming the
    round, and the client where there is one.
    """
    check_strategy(strategy, cfg)
    train_sets = [train for train, _ in clients]
    first = train_sets[0]
    spec = ModelSpec(first.n_features, cfg.hidden, cfg.dropout_p, first.n_classes)
    global_params = build_model(spec, _int_seed(cfg.seed, _SEED_INIT))
    train_cfg = cfg.train if strategy == "fedprox" else replace(cfg.train, prox_mu=0.0)

    history: list[RoundMetrics] = []
    for r in range(1, cfg.rounds + 1):
        exchange = strategy == "fedp3e" and should_trigger_exchange(history, cfg)
        uploads, download = _exchange(cfg, train_sets, r) if exchange else ((0,) * len(clients), 0)
        global_params = _train(cfg, train_cfg, global_params, train_sets, r)
        reports = []
        for k, (_, test) in enumerate(clients):
            with _failing_at(f"round {r}, client {k}"):
                reports.append(evaluate(global_params, test))
        history.append(RoundMetrics(
            client_reports=tuple(reports),
            model_floats=global_params.trainable_count,
            proto_upload_floats=uploads,
            proto_download_floats=download,
        ))
    return history


def exchange_round(history: list[RoundMetrics]) -> int | None:
    """Round number of the one-shot exchange, or None if it never fired."""
    for r, metrics in enumerate(history, 1):
        if metrics.exchange_triggered:
            return r
    return None


def exchange_cost_ratios(metrics: RoundMetrics) -> tuple[list[float], float, float]:
    """A round's prototype floats as fractions of one model update.

    Returns each client's upload ratio, the per-client download ratio, and
    the total: the mean upload plus the download, over ``metrics.model_floats``.
    """
    d_w = metrics.model_floats
    uploads, download = metrics.proto_upload_floats, metrics.proto_download_floats
    mean_upload = sum(uploads) / len(uploads)
    return [u / d_w for u in uploads], download / d_w, (mean_upload + download) / d_w
