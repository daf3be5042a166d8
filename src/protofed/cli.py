"""Experiment runner: JSON run configs in, per-round metrics files out."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import MISSING, Field, dataclass, fields
from pathlib import Path

from ._checks import check_range
from .datasets import (
    Dataset,
    SCENARIOS,
    TRAIN_FRACTION,
    SyntheticSpec,
    build_partition_plan,
    load_csv_dir,
    partition,
    synthesize,
)
from .federation import (
    STRATEGIES,
    FederationConfig,
    RoundMetrics,
    check_strategy,
    exchange_cost_ratios,
    exchange_round,
    run_federation,
    split_clients,
)
from .mixtures import GMM_MAX_COMPONENTS
from .network import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, EvalReport, TrainConfig

# Output column name of each EvalReport score, in column order.
_SCORES = {"accuracy": "accuracy", "precision": "macro_precision", "recall": "macro_recall",
           "f1": "macro_f1", "loss": "mean_loss"}
METRICS_COLUMNS = ("round", *_SCORES, "up_floats", "down_floats", "exchange")
COMPARISON_COLUMNS = ("strategy", *_SCORES, "total_up_floats", "total_down_floats", "exchange_round")


@dataclass(frozen=True)
class CsvSource:
    path: str

    def __post_init__(self) -> None:
        if not self.path:  # Path("") is the working directory, which no one means to read.
            raise ValueError("path must not be empty")


@dataclass(frozen=True)
class RunSpec:
    """A parsed run configuration: one dataset, one federation, its strategies.

    ``federation.seed`` seeds the partition as well as every strategy.
    """

    data: SyntheticSpec | CsvSource
    scenario: str
    n_clients: int
    federation: FederationConfig
    strategies: tuple[str, ...]
    output_dir: str = "runs"

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("federation.strategies must list at least one strategy")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        check_range("n_clients", self.n_clients, "integer >= 1")
        if len(set(self.strategies)) != len(self.strategies):
            raise ValueError("each strategy may appear only once per run spec")
        for strategy in self.strategies:
            check_strategy(strategy, self.federation)
        # Path("") is the working directory, which no one means to fill.
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")
        # A path the OS cannot encode, or a file on it, would fail the first write,
        # after every strategy had run. Path.exists reads the former as absent.
        out = Path(self.output_dir)
        try:
            out.stat()
        except OSError:
            pass
        except ValueError as err:
            raise ValueError(f"output_dir {self.output_dir!r}: {err}") from None
        existing = next((p for p in (out, *out.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ValueError(f"output_dir {self.output_dir!r}: {str(existing)!r} is not a directory")


# JSON types accepted per scalar annotation; bool is not an int here.
_SCALARS = {"int": (int,), "float": (int, float), "str": (str,)}
# Keys per section that no longer configure anything, each accepted only at
# the one value every run now has. The benchmark's workload configs still
# write them; delete this table once ROADMAP item 1a drops them there.
_RETIRED = {"federation": {"eval_weighting": "test_size", "global_prototypes_per_class": None,
                           "aggregate_running_stats": True, "gmm_max_components": GMM_MAX_COMPONENTS,
                           "train_fraction": TRAIN_FRACTION},
            "federation.train": {"adam_beta1": ADAM_BETA1, "adam_beta2": ADAM_BETA2,
                                 "adam_epsilon": ADAM_EPSILON},
            "federation.aug": {"eligible_classes": "below_mean_count"}}


def _fields(cls: type, *names: str) -> dict[str, Field]:
    """JSON key -> field of ``cls`` in field order, for each of ``names``, or for every field."""
    return {f.name: f for f in fields(cls) if not names or f.name in names}


class _OneOf(dict):
    """A section that holds exactly one of its keys."""


# The JSON layout of a run config: each key of a section names the field it
# sets or a nested section. A dict section's keys set its parent's fields; a
# dataclass section, or a _OneOf section's one source, is built and sets its
# parent's field of the same name. The sections at the top are required.
_LAYOUT = {
    **_fields(FederationConfig, "seed"), **_fields(RunSpec, "output_dir"),
    "data": _OneOf(synthetic=SyntheticSpec, csv_dir=CsvSource),
    "partition": _fields(RunSpec, "scenario", "n_clients"),
    "federation": {
        **_fields(FederationConfig, "rounds", "threshold", "trigger_round", "noise_sigma",
                  "scale_mode", "gmm_components"),
        **_fields(RunSpec, "strategies"), "train": TrainConfig,
        "aug": _fields(FederationConfig, "target_fraction"),
        "model": _fields(FederationConfig, "hidden", "dropout_p"),
    },
}


def _check_keys(obj, section: str, keys: tuple[str, ...]) -> None:
    """Reject ``obj`` unless it is an object holding only ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{section}: expected object, got {json.dumps(obj)}")
    repeated = getattr(obj, "repeated", None)
    if repeated is not None:
        raise ValueError(f"duplicate key {repeated!r} in {section}")
    unknown = sorted(set(obj).difference(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {section}")


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


def _walk(obj, layout: dict, section: str = "config") -> dict:
    """Field name -> value for each key a JSON section and its nested sections give."""
    retired = _RETIRED.get(section, {})
    _check_keys(obj, section, (*layout, *retired))
    for key, value in retired.items():
        # Compared as JSON text, so 1 is not taken for true.
        given, kept = json.dumps(obj.get(key, value)), json.dumps(value)
        if given != kept:
            raise ValueError(f"{section}.{key}: retired, accepts only {kept}, got {given}")
    if isinstance(layout, _OneOf):
        if len(obj) != 1:
            raise ValueError(f"{section} must define exactly one of {' or '.join(map(repr, layout))}")
        layout = {key: layout[key] for key in obj}
    values = {}
    for key, entry in layout.items():
        leaf = isinstance(entry, Field)
        if key not in obj and (entry.default is MISSING if leaf else section == "config"):
            raise ValueError(f"missing key {key!r} in {section}")
        if leaf:
            if key in obj:
                values[key] = _convert(obj[key], entry.type, section, key)
            continue
        inner = key if section == "config" else f"{section}.{key}"
        if isinstance(entry, type):
            given = _walk(obj.get(key, {}), _fields(entry), inner)
            # Range messages name the bare field, and two sections share "seed".
            try:
                values[key] = entry(**given)
            except ValueError as err:
                raise ValueError(f"{inner}: {err}") from None
        elif isinstance(entry, _OneOf):
            (values[key],) = _walk(obj.get(key, {}), entry, inner).values()
        else:
            values.update(_walk(obj.get(key, {}), entry, inner))
    return values


class _Object(dict):
    """One JSON object's members; ``repeated`` is the first key it gives
    twice, where ``json.loads`` would keep the last value."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        self.repeated = None
        if len(self) < len(pairs):
            seen = set()
            self.repeated = next(k for k, _ in pairs if k in seen or seen.add(k))


def parse_config(path: str | Path, output_dir: str | None = None) -> RunSpec:
    """Load and validate a JSON run configuration laid out as ``_LAYOUT``.

    Unknown and duplicated keys are rejected at every level, every value is
    checked against its field's type, and every invariant violation is
    reported with the offending key named. ``output_dir``, when given,
    replaces the config's own before the directory is checked.
    """
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=_Object)
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path} line {line}: not UTF-8 text ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: parse error at line {err.lineno}: {err.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top-level config must be a JSON object")
    values = _walk(raw, _LAYOUT)
    if output_dir is not None:
        values["output_dir"] = output_dir
    own = _fields(FederationConfig)
    federation = FederationConfig(**{k: v for k, v in values.items() if k in own})
    return RunSpec(federation=federation, **{k: v for k, v in values.items() if k not in own})


def _load_dataset(spec: RunSpec) -> Dataset:
    if isinstance(spec.data, SyntheticSpec):
        return synthesize(spec.data)
    return load_csv_dir(spec.data.path)


def _csv_text(columns: tuple[str, ...], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _metrics_csv(history: list[RoundMetrics]) -> str:
    rows = [[r, *_score_cells(m.global_report), m.uploaded_floats, m.downloaded_floats,
             int(m.exchange_triggered)] for r, m in enumerate(history, 1)]
    return _csv_text(METRICS_COLUMNS, rows)


def _score_cells(report: EvalReport) -> list[str]:
    return [repr(getattr(report, name)) for name in _SCORES.values()]


def _strategy_summary(history: list[RoundMetrics]) -> dict:
    final = history[-1].global_report
    ex_round = exchange_round(history)
    comm = None
    if ex_round is not None:
        m = history[ex_round - 1]
        uploads, download, total = exchange_cost_ratios(m)
        comm = {
            "model_floats": m.model_floats,
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
    comparison.csv into the spec's output directory once every strategy has
    finished: all under temporary names first, then each renamed into place,
    summary.json last. Before the first rename it deletes the earlier
    summary.json and the metrics file of each strategy it did not run; a run
    that fails writes nothing. Outputs are byte-deterministic for a given spec.
    """
    try:
        _execute(spec)
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


def _execute(spec: RunSpec) -> None:
    ds = _load_dataset(spec)
    # Clients get disjoint rows, so one would be empty: fail before building the plan.
    if spec.n_clients > ds.n_samples:
        raise ValueError(f"n_clients={spec.n_clients} exceeds the {ds.n_samples} rows loaded")
    quotas = build_partition_plan(spec.scenario, ds.class_counts(), spec.n_clients)
    shards = partition(ds, quotas, spec.federation.seed)
    # The shards hold every row the run needs, so the loaded matrix goes.
    del ds
    clients = split_clients(spec.federation, shards)
    del shards
    # Every strategy runs before the first write, so a failed run writes nothing.
    runs = [(s, run_federation(spec.federation, clients, s)) for s in spec.strategies]

    summary = {
        "seed": spec.federation.seed,
        "scenario": spec.scenario,
        "n_clients": spec.n_clients,
        "strategies": {},
    }
    files, rows = {}, []
    for strategy, history in runs:
        files[f"metrics_{strategy}.csv"] = _metrics_csv(history)
        entry = summary["strategies"][strategy] = _strategy_summary(history)
        ex_round = entry["exchange_round"]
        rows.append([strategy, *_score_cells(history[-1].global_report),
                     entry["uploaded_floats_total"], entry["downloaded_floats_total"],
                     "" if ex_round is None else ex_round])
    files["comparison.csv"] = _csv_text(COMPARISON_COLUMNS, rows)
    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"

    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # Every file is staged before the first rename, so a failed write leaves
    # the earlier run's files as they were.
    staged = {name: out / f".{name}.tmp" for name in files}
    try:
        for name, text in files.items():
            staged[name].write_bytes(text.encode("utf-8"))
        # The earlier run's summary goes before the first rename, and this
        # run's comes last, so a failed rename leaves no summary beside a mix
        # of runs. A metrics file of a strategy this run left out goes too.
        left_out = [f"metrics_{s}.csv" for s in STRATEGIES if s not in spec.strategies]
        for name in ("summary.json", *left_out):
            (out / name).unlink(missing_ok=True)
        for name, tmp in staged.items():
            tmp.replace(out / name)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="protofed",
        description="Deterministic cross-silo federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a JSON run configuration")
    run_parser.add_argument("config", help="path to the run configuration file")
    run_parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    try:
        spec = parse_config(args.config, args.out)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return run(spec)

