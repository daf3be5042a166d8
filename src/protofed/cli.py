"""Experiment runner: JSON run configs in, per-round metrics files out."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, Field, dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

from .augment import AugmentationPolicy
from .datasets import (
    CsvSchema,
    Dataset,
    PartitionPlan,
    SCENARIOS,
    SyntheticSpec,
    build_partition_plan,
    load_csv_dir,
    nbaiot_schema,
    partition,
    synthesize,
)
from .federation import (
    FederationConfig,
    RoundMetrics,
    check_round_one_exchange,
    check_strategy,
    exchange_cost_ratios,
    exchange_round,
    run_federation,
    split_clients,
)
from .network import DEFAULT_DROPOUT_P, EvalReport, ModelSpec, TrainConfig

# Output column name of each EvalReport score, in column order.
_SCORES = {"accuracy": "accuracy", "precision": "macro_precision", "recall": "macro_recall",
           "f1": "macro_f1", "loss": "mean_loss"}
METRICS_COLUMNS = ("round", *_SCORES, "up_floats", "down_floats", "exchange")
COMPARISON_COLUMNS = ("strategy", *_SCORES, "total_up_floats", "total_down_floats", "exchange_round")


@dataclass(frozen=True)
class CsvSource:
    path: str
    schema: CsvSchema


@dataclass(frozen=True)
class RunSpec:
    """A parsed run configuration: one dataset, one federation, its strategies.

    ``federation.seed`` seeds the partition as well as every strategy.
    ``quotas`` optionally pins the per-client, per-class sample counts;
    when absent the scenario's built-in quota table is derived from the data.
    """

    data: SyntheticSpec | CsvSource
    scenario: str
    n_clients: int
    federation: FederationConfig
    strategies: tuple[str, ...]
    output_dir: str
    quotas: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("run spec needs at least one strategy")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("each strategy may appear only once per run spec")
        for strategy in self.strategies:
            check_strategy(strategy, self.federation)
        if self.quotas is not None and len(self.quotas) != self.n_clients:
            raise ValueError(
                f"quotas cover {len(self.quotas)} clients but partition declares {self.n_clients}"
            )


# Defaults of optional keys whose dataclass field has none.
_DEFAULTS = {
    SyntheticSpec: {"clusters_per_class": 1, "seed": 0},
    CsvSchema: vars(nbaiot_schema()),
    ModelSpec: {"dropout_p": DEFAULT_DROPOUT_P},
}
# Fields the CLI fills itself instead of reading them from their own section.
_FILLED = {
    RunSpec: ("data", "federation", "strategies", "output_dir"),
    CsvSource: ("schema",),
    FederationConfig: ("seed", "train", "aug", "model"),
    ModelSpec: ("input_dim", "output_classes"),
}
# JSON types accepted per scalar annotation; bool is not an int here.
_SCALARS = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


@lru_cache(maxsize=None)
def _own_fields(cls: type) -> dict[str, Field]:
    """JSON key -> field, for each field ``cls`` reads from its own section."""
    return {f.name: f for f in fields(cls) if f.name not in _FILLED.get(cls, ())}


def _check_keys(obj, section: str, *classes: type, extra: tuple[str, ...] = ()) -> None:
    """Reject ``obj`` unless it is an object holding only keys the classes read."""
    if not isinstance(obj, dict):
        raise ValueError(f"{section}: expected object, got {json.dumps(obj)}")
    unknown = sorted(set(obj).difference(extra, *map(_own_fields, classes)))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {section}")


def _require(obj: dict, key: str, section: str):
    if key not in obj:
        raise ValueError(f"missing key {key!r} in {section}")
    return obj[key]


def _convert(value, hint: str, section: str, key: str):
    """``value`` as the type the annotation string ``hint`` names.

    Annotations are read as text, never evaluated: every hint in the schema
    is a scalar, ``X | None``, ``tuple[X, ...]`` or a pair ``tuple[X, Y]``.
    """
    if hint.endswith(" | None"):
        return None if value is None else _convert(value, hint[: -len(" | None")], section, key)
    if type(value) in _SCALARS.get(hint, ()):
        if hint != "float":
            return value
        # json.loads takes NaN and Infinity, which slip through range checks.
        if abs(value) <= sys.float_info.max:
            return float(value)
    if hint.startswith("tuple[") and isinstance(value, list):
        head, _, tail = hint[len("tuple["):-1].rpartition(", ")
        hints = [head] * len(value) if tail == "..." else [head, tail]
        if len(value) == len(hints):
            return tuple(_convert(v, h, section, key) for v, h in zip(value, hints))
    raise ValueError(f"{section}.{key}: expected {hint}, got {json.dumps(value)}")


def _read(obj, section: str, cls: type, *also: type, extra: tuple[str, ...] = ()) -> dict:
    """Field values of ``cls`` given in, or defaulted for, a JSON section.

    ``also`` and ``extra`` name the other classes and keys the section holds.
    """
    _check_keys(obj, section, cls, *also, extra=extra)
    defaults = _DEFAULTS.get(cls, {})
    values = {}
    for key, f in _own_fields(cls).items():
        if key in obj:
            values[f.name] = _convert(obj[key], f.type, section, key)
        elif f.name in defaults:
            values[f.name] = defaults[f.name]
        elif f.default is MISSING:
            raise ValueError(f"missing key {key!r} in {section}")
    return values


def parse_config(path: str | Path) -> RunSpec:
    """Load and validate a JSON run configuration.

    Unknown keys are rejected at every level, every value is checked against
    its field's type, and every invariant violation is reported with the
    offending key named.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: parse error at line {err.lineno}: {err.msg}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top-level config must be a JSON object")
    _check_keys(raw, "config", extra=("seed", "output_dir", "data", "partition", "federation"))
    seed = _convert(raw.get("seed", 0), "int", "config", "seed")
    output_dir = _convert(raw.get("output_dir", "runs"), "str", "config", "output_dir")
    data = _parse_data(_require(raw, "data", "config"))
    part = _read(_require(raw, "partition", "config"), "partition", RunSpec)

    fed = _require(raw, "federation", "config")
    base = _read(fed, "federation", FederationConfig, extra=("strategies", "train", "aug", "model"))
    strategies = _convert(
        _require(fed, "strategies", "federation"), "tuple[str, ...]", "federation", "strategies"
    )
    if not strategies:
        raise ValueError("federation.strategies must be a non-empty list")
    train = TrainConfig(**_read(fed.get("train", {}), "federation.train", TrainConfig))
    aug = AugmentationPolicy(**_read(fed.get("aug", {}), "federation.aug", AugmentationPolicy))
    model = fed.get("model")
    if model is not None:
        input_dim, n_classes = _data_dims(data)
        model = ModelSpec(input_dim=input_dim, output_classes=n_classes,
                          **_read(model, "federation.model", ModelSpec))
    federation = FederationConfig(seed=seed, train=train, aug=aug, model=model, **base)
    return RunSpec(data=data, federation=federation, strategies=strategies, output_dir=output_dir, **part)


def _parse_data(section) -> SyntheticSpec | CsvSource:
    _check_keys(section, "data", extra=("synthetic", "csv_dir"))
    if ("synthetic" in section) == ("csv_dir" in section):
        raise ValueError("data must define exactly one of 'synthetic' or 'csv_dir'")
    if "synthetic" in section:
        return SyntheticSpec(**_read(section["synthetic"], "data.synthetic", SyntheticSpec))
    src = section["csv_dir"]
    schema = CsvSchema(**_read(src, "data.csv_dir", CsvSchema, CsvSource))
    return CsvSource(schema=schema, **_read(src, "data.csv_dir", CsvSource, CsvSchema))


def _data_dims(data: SyntheticSpec | CsvSource) -> tuple[int, int]:
    if isinstance(data, SyntheticSpec):
        return data.dims, data.n_classes
    return data.schema.n_features, len(data.schema.class_names)


def _load_dataset(spec: RunSpec) -> Dataset:
    if isinstance(spec.data, SyntheticSpec):
        return synthesize(spec.data)
    return load_csv_dir(spec.data.path, spec.data.schema)


def _write_metrics_csv(path: Path, history: list[RoundMetrics]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(METRICS_COLUMNS)
        for m in history:
            writer.writerow([m.round_index, *_score_cells(m.global_report),
                             m.uploaded_floats, m.downloaded_floats, int(m.exchange_triggered)])


def _score_cells(report: EvalReport) -> list[str]:
    return [repr(getattr(report, name)) for name in _SCORES.values()]


def _strategy_summary(history: list[RoundMetrics]) -> dict:
    final = history[-1].global_report
    ex_round = exchange_round(history)
    comm = None
    if ex_round is not None:
        m = history[ex_round - 1]
        d_w = m.model_upload_floats // m.n_clients
        uploads, download, total = exchange_cost_ratios(
            m.proto_upload_floats, m.proto_download_floats, d_w
        )
        comm = {
            "model_floats": d_w,
            "prototype_upload_floats_per_client": list(m.proto_upload_floats),
            "prototype_download_floats_per_client": m.proto_download_floats,
            "upload_ratio_per_client": uploads,
            "download_ratio": download,
            "total_exchange_ratio": total,
        }
    return {
        "rounds": len(history),
        **{f"final_{column}": getattr(final, name) for column, name in _SCORES.items()},
        "uploaded_floats_total": sum(m.uploaded_floats for m in history),
        "downloaded_floats_total": sum(m.downloaded_floats for m in history),
        "exchange_round": ex_round,
        "comm_cost": comm,
    }


def run(spec: RunSpec) -> int:
    """Execute every configured strategy; return a process exit code.

    Writes metrics_<strategy>.csv per strategy plus summary.json and
    comparison.csv into the spec's output directory, once every strategy
    has finished; a run that fails writes nothing. Outputs are
    byte-deterministic for a given spec.
    """
    try:
        _execute(spec)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def _execute(spec: RunSpec) -> None:
    ds = _load_dataset(spec)
    if spec.quotas is not None:
        plan = PartitionPlan(spec.scenario, spec.quotas)
    else:
        plan = build_partition_plan(spec.scenario, ds.class_counts(), spec.n_clients)
    shards = partition(ds, plan, spec.federation.seed)
    # The shards hold every row the run needs, so the loaded matrix goes.
    del ds
    clients = split_clients(spec.federation, shards)
    del shards
    check_round_one_exchange(spec.federation, clients, spec.strategies)
    # Every strategy runs before the first write, so a failed run writes nothing.
    runs = [(s, run_federation(spec.federation, clients, s)) for s in spec.strategies]

    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "seed": spec.federation.seed,
        "scenario": spec.scenario,
        "n_clients": spec.n_clients,
        "strategies": {},
    }
    rows = []
    for strategy, history in runs:
        _write_metrics_csv(out / f"metrics_{strategy}.csv", history)
        entry = summary["strategies"][strategy] = _strategy_summary(history)
        ex_round = entry["exchange_round"]
        rows.append([strategy, *_score_cells(history[-1].global_report),
                     entry["uploaded_floats_total"], entry["downloaded_floats_total"],
                     "" if ex_round is None else ex_round])

    with open(out / "comparison.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COMPARISON_COLUMNS)
        writer.writerows(rows)
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="protofed",
        description="Deterministic cross-silo federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a JSON run configuration")
    run_parser.add_argument("config", help="path to the run configuration file")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--out", default=None, help="override the output directory")
    run_parser.add_argument(
        "--strategies", default=None,
        help="comma-separated subset of the configured strategies",
    )
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config)
        if args.seed is not None:
            spec = replace(spec, federation=replace(spec.federation, seed=args.seed))
        if args.out is not None:
            spec = replace(spec, output_dir=args.out)
        if args.strategies is not None:
            wanted = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
            missing = [s for s in wanted if s not in spec.strategies]
            if missing:
                raise ValueError(f"strategy {missing[0]!r} is not part of this config")
            spec = replace(spec, strategies=wanted)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
