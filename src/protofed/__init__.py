"""Deterministic cross-silo federated learning simulator.

Library layout:
    datasets    ingestion, scaling, splitting, partitioning, synthesis
    network     dense softmax classifier (batch norm, dropout, Adam)
    mixtures    per-class GMM prototypes with noise perturbation
    clustering  server-side prototype consolidation (mini-batch k-means)
    augment     SMOTE-style interpolation of global prototypes
    federation  the round loop, aggregation and communication accounting
    cli         JSON-config experiment runner
"""

from .augment import AugmentationPolicy, augment, smote_pair
from .clustering import (
    Prototypes,
    aggregate_prototypes,
    choose_cluster_count,
    minibatch_kmeans,
)
from .datasets import (
    CsvSchema,
    Dataset,
    PartitionPlan,
    SyntheticSpec,
    build_partition_plan,
    load_csv_dir,
    min_max_scale,
    nbaiot_schema,
    partition,
    stratified_split,
    synthesize,
)
from .federation import (
    CommCostReport,
    FederationConfig,
    RoundMetrics,
    comm_cost_report,
    exchange_round,
    fedavg_aggregate,
    run_federation,
    should_trigger_exchange,
)
from .mixtures import (
    GmmModel,
    bic_score,
    em_fit,
    perturb,
    select_k_bic,
)
from .network import (
    AdamState,
    EvalReport,
    ModelParams,
    ModelSpec,
    TrainConfig,
    adam_step,
    build_model,
    evaluate,
    forward,
    load_params,
    loss_and_grads,
    mlp_spec,
    save_params,
    train_local,
)

__all__ = [
    "AdamState",
    "AugmentationPolicy",
    "CommCostReport",
    "CsvSchema",
    "Dataset",
    "EvalReport",
    "FederationConfig",
    "GmmModel",
    "ModelParams",
    "ModelSpec",
    "PartitionPlan",
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
    "comm_cost_report",
    "em_fit",
    "evaluate",
    "exchange_round",
    "fedavg_aggregate",
    "forward",
    "load_csv_dir",
    "load_params",
    "loss_and_grads",
    "min_max_scale",
    "minibatch_kmeans",
    "mlp_spec",
    "nbaiot_schema",
    "partition",
    "perturb",
    "run_federation",
    "save_params",
    "select_k_bic",
    "should_trigger_exchange",
    "smote_pair",
    "stratified_split",
    "synthesize",
    "train_local",
]

__version__ = "0.1.0"
