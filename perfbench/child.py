"""One timed `protofed run`, in a fresh process with BLAS pinned to one thread.

Usage: python3 perfbench/child.py <request.json>

The request names the config, the output directory, the result file and the
mode. ``plain`` wraps only the cli-level calls (plus a row counter on
``train_local``); ``trace`` also wraps the public functions of every layer,
each where its caller looks it up. Wrappers keep their spans in memory and
are removed before the result is written.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A span's tail is the highest of these quantiles with at least ten samples
# beyond it; with fewer samples than that, the median stands in.
TAIL_QUANTILES = (0.999, 0.99, 0.9)
SETUP_SPANS = ("cli.parse_config", "datasets.synthesize", "datasets.load_csv_dir",
               "datasets.build_partition_plan", "datasets.partition")


class Stat:
    """Calls, busy time and child-span time of one wrapped function."""

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.child = 0.0
        self.intervals: list[tuple[float, float]] = []
        self.counts: Counter = Counter()
        self.shapes: Counter = Counter()

    def summary(self) -> dict:
        ordered = sorted(end - start for start, end in self.intervals)
        n = len(ordered)

        def index(q: float) -> int:
            return min(n - 1, int(q * n))

        tail_q = next((q for q in TAIL_QUANTILES if n - 1 - index(q) >= 10), 0.5)
        return {
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.busy - self.child,
            "p50_us": ordered[index(0.5)] * 1e6 if n else 0.0,
            "tail_us": ordered[index(tail_q)] * 1e6 if n else 0.0,
            "tail_pct": 100.0 * tail_q,
            "counts": dict(self.counts),
            "shapes": dict(self.shapes.most_common(8)),
        }


def _shape(*values) -> str | None:
    """Shape of the first array or Dataset among ``values``, as "rowsxcols"."""
    for value in values:
        shape = getattr(getattr(value, "features", value), "shape", None)
        if shape is not None:
            return "x".join(str(n) for n in shape)
    return None


class Tracer:
    """Patches ``module.name`` with a timing wrapper and restores it on exit.

    Single-threaded: a stack of child-time accumulators gives each span its
    self time (duration minus the time covered by wrapped callees).
    """

    def __init__(self, targets) -> None:
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, name, key, probe in self.targets:
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(key, original, probe))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)

    def restored(self) -> bool:
        return all(getattr(module, name) is original for module, name, original in self._saved)

    def _wrap(self, key, fn, probe):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.busy += elapsed
                stat.child += inner
                stat.intervals.append((start, start + elapsed))
            if probe is not None:
                probe(stat, args, result)
            return result

        return wrapper


def _count_train_rows(stat, args, result) -> None:
    stat.counts["samples"] += args[1].n_samples * args[2].epochs
    stat.shapes[_shape(args[1])] += 1


def _count_em(stat, args, result) -> None:
    stat.counts["iters"] += len(result.log_likelihood_history)
    stat.shapes[_shape(args[0])] += 1


def _count_augment(stat, args, result) -> None:
    stat.counts["rows_added"] += result.n_samples - args[0].n_samples


def _count_loaded(stat, args, result) -> None:
    stat.counts["rows"] += result.n_samples
    stat.shapes[_shape(result)] += 1


def _record_shape(stat, args, result) -> None:
    stat.shapes[_shape(*args, result)] += 1


def _federation_probe(stat, args, result) -> None:
    first = result[0]
    stat.counts["model_floats"] = first.model_upload_floats // first.n_clients
    stat.counts["proto_up_floats"] += sum(sum(m.proto_upload_floats) for m in result)
    stat.counts["proto_down_floats"] += sum(m.n_clients * m.proto_download_floats for m in result)


def targets(mode: str):
    """(module, attribute, span name, probe) for every wrapped function."""
    from protofed import cli, clustering, federation, mixtures, network

    plain = [
        (cli, "main", "cli.main", None),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "synthesize", "datasets.synthesize", _record_shape),
        (cli, "load_csv_dir", "datasets.load_csv_dir", _count_loaded),
        (cli, "build_partition_plan", "datasets.build_partition_plan", None),
        (cli, "partition", "datasets.partition", _record_shape),
        (cli, "run_federation", "federation.run_federation", _federation_probe),
        (federation, "train_local", "network.train_local", _count_train_rows),
    ]
    if mode == "plain":
        return plain
    return plain + [
        (federation, "evaluate", "network.evaluate", _record_shape),
        (federation, "stratified_split", "datasets.stratified_split", _record_shape),
        (federation, "select_k_bic", "mixtures.select_k_bic", _record_shape),
        (federation, "em_fit", "mixtures.em_fit", _count_em),
        (federation, "perturb", "mixtures.perturb", None),
        (federation, "aggregate_prototypes", "clustering.aggregate_prototypes", None),
        (federation, "augment", "augment.augment", _count_augment),
        (federation, "fedavg_aggregate", "federation.fedavg_aggregate", None),
        (network, "adam_step", "network.adam_step", None),
        (mixtures, "em_fit", "mixtures.em_fit", _count_em),
        (clustering, "minibatch_kmeans", "clustering.minibatch_kmeans", _record_shape),
    ]


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the record says unknown
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "pins": {name: os.environ.get(name) for name in PINS},
        "PROTOFED_WORKERS": os.environ.get("PROTOFED_WORKERS"),
    }


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    if any(os.environ.get(name) != "1" for name in PINS) or "PROTOFED_WORKERS" in os.environ:
        print("child: BLAS pins or PROTOFED_WORKERS not set up by the parent", file=sys.stderr)
        return 2
    import protofed
    from protofed import cli

    src = Path(request["src"]).resolve()
    if src not in Path(protofed.__file__).resolve().parents:
        print(f"child: imported protofed from {protofed.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer(targets(request["mode"]))
    with tracer:
        rc = cli.main(["run", request["config"], "--out", request["out"]])
    stats = tracer.stats
    run_s = stats["cli.main"].busy
    # A failed run is timed up to its exit; the parent marks it failed.
    e2e = {
        "run_s": run_s,
        "setup_s": sum(stats[key].busy for key in SETUP_SPANS),
        "train_samples_per_s": stats["network.train_local"].counts["samples"] / run_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # `protofed run` runs the strategies in config order, up to the first failure.
    config = json.loads(Path(request["config"]).read_text(encoding="utf-8"))
    strategies = config["federation"]["strategies"]
    for strategy, (start, end) in zip(strategies, stats["federation.run_federation"].intervals):
        e2e[f"{strategy}_s"] = end - start
    result = {
        "rc": rc,
        "mode": request["mode"],
        "e2e": e2e,
        "wrappers_removed": tracer.restored(),
        "stats": {key: stat.summary() for key, stat in stats.items()},
        "env": environment(),
    }
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
