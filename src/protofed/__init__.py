"""Deterministic cross-silo federated learning simulator.

Library layout:
    datasets    ingestion, scaling, splitting, partitioning, synthesis
    network     dense softmax classifier (batch norm, dropout, Adam)
    mixtures    per-class GMM prototypes with noise perturbation
    clustering  server-side prototype consolidation (mini-batch k-means)
    augment     SMOTE-style interpolation of global prototypes
    federation  run config, client splits, the round loop per strategy, aggregation, exchange costs
    cli         JSON-config experiment runner
"""

from .augment import augment
from .clustering import (
    Prototypes,
    aggregate_prototypes,
    choose_cluster_count,
    minibatch_kmeans,
)
from .datasets import (
    Dataset,
    SyntheticSpec,
    build_partition_plan,
    load_csv_dir,
    min_max_scale,
    partition,
    stratified_split,
    synthesize,
)
from .federation import (
    FederationConfig,
    RoundMetrics,
    exchange_cost_ratios,
    exchange_round,
    fedavg_aggregate,
    run_federation,
    should_trigger_exchange,
    split_clients,
)
from .mixtures import (
    bic_score,
    em_fit,
    perturb,
    select_k_bic,
)
from .network import (
    EvalReport,
    ModelParams,
    ModelSpec,
    TrainConfig,
    adam_step,
    build_model,
    evaluate,
    loss_and_grads,
    train_local,
)

__all__ = [
    "Dataset",
    "EvalReport",
    "FederationConfig",
    "ModelParams",
    "ModelSpec",
    "Prototypes",
    "RoundMetrics",
    "SyntheticSpec",
    "TrainConfig",
    "adam_step",
    "aggregate_prototypes",
    "augment",
    "bic_score",
    "build_model",
    "build_partition_plan",
    "choose_cluster_count",
    "em_fit",
    "evaluate",
    "exchange_cost_ratios",
    "exchange_round",
    "fedavg_aggregate",
    "load_csv_dir",
    "loss_and_grads",
    "min_max_scale",
    "minibatch_kmeans",
    "partition",
    "perturb",
    "run_federation",
    "select_k_bic",
    "should_trigger_exchange",
    "split_clients",
    "stratified_split",
    "synthesize",
    "train_local",
]

__version__ = "0.1.0"
