"""Benchmark for `protofed run`: end-to-end wall times and per-layer timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload severe3 --seed 11 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # every metric, BENCHMARK.json's workloads
    python3 perfbench/run.py --compare base.jsonl new.jsonl

Each repetition is a fresh child process (perfbench/child.py) that drives
`protofed.cli.main` in-process with BLAS pinned to one thread: a closed
loop, one run at a time. ``--trace 0`` repeats untraced runs and reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates an untraced
run with a traced one and reports the per-layer metrics. Every repetition's
output files are checked: exit code, finite values, identical bytes across
repetitions, the exchange round, and reference hashes on the default seed.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from child import PINS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
# A run stops starting repetitions that would end past this many seconds.
RUN_LIMIT_S = 150.0
STRATEGIES = ("fedavg", "fedprox", "fedp3e")
# --compare pairs a base and a new record only if one started within this many
# seconds of the other's end, and claims a gain only from this many pairs.
PAIR_GAP_S = 60.0
MIN_PAIRS = 10
# Exact layer counts of severe3; they follow from the fixture's sizes, not its seed.
SEVERE3_COUNTS = {
    "network.adam_step.calls": 27675,
    "network.train_local.calls": 180,
    "network.train_local.samples": 885600,
    "mixtures.select_k_bic.calls": 3,
    "mixtures.em_fit.calls": 15,
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program, no complete run)."""


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json at {ROOT}")
    return json.loads(path.read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite value {name}")


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def _csv_finite(path: Path) -> bool:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    for cell in (c for line in lines for c in line.split(",")):
        try:
            if not math.isfinite(float(cell)):
                return False
        except ValueError:
            continue  # strategy names and empty exchange cells
    return True


def check_outputs(out: Path, strategies, expected_exchange) -> tuple[dict, dict, dict]:
    """Hash the output files; return (hashes, per-strategy failure reasons, final accuracies)."""
    reasons = {s: [] for s in strategies}
    files = [f"metrics_{s}.csv" for s in strategies] + ["summary.json", "comparison.csv"]
    missing = [name for name in files if not (out / name).is_file()]
    if missing:
        for s in strategies:
            reasons[s].append(f"missing {', '.join(missing)}")
        return {}, reasons, {}
    hashes = {name: _sha256(out / name) for name in files}
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"),
                             parse_constant=_reject_constant)
    except ValueError as err:
        for s in strategies:
            reasons[s].append(f"summary.json: {err}")
        return hashes, reasons, {}
    if not _csv_finite(out / "comparison.csv"):
        for s in strategies:
            reasons[s].append("non-finite value in comparison.csv")
    accuracy = {}
    for s in strategies:
        section = summary["strategies"].get(s)
        if section is None or not _all_finite(section):
            reasons[s].append("summary.json section missing or non-finite")
            continue
        accuracy[s] = section["final_accuracy"]
        if not _csv_finite(out / f"metrics_{s}.csv"):
            reasons[s].append(f"non-finite value in metrics_{s}.csv")
        if s == "fedp3e" and section["exchange_round"] != expected_exchange:
            reasons[s].append(
                f"exchange_round {section['exchange_round']}, expected {expected_exchange}"
            )
    return hashes, reasons, accuracy


def _owners(file_name: str, strategies) -> list[str]:
    """Strategies whose run a wrong output file fails: its own, or all for shared files."""
    owner = file_name.removeprefix("metrics_").removesuffix(".csv")
    return [owner] if owner in strategies else list(strategies)


def run_child(request: dict, timeout: float) -> dict | None:
    """Run one repetition in a fresh interpreter; None if it failed to report."""
    env = {k: v for k, v in os.environ.items() if k != "PROTOFED_WORKERS"}
    env.update({name: "1" for name in PINS}, PYTHONHASHSEED="0")
    src = request["src"]
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    req_path = Path(request["result"]).with_suffix(".request.json")
    req_path.write_text(json.dumps(request), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(req_path)],
            env=env, cwd=ROOT, timeout=timeout, capture_output=True, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"# child timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"# child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(Path(request["result"]).read_text(encoding="utf-8"))
    if result["rc"] != 0:
        print(f"# protofed run exited {result['rc']}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rep: dict, untraced: dict, names: list[str]) -> dict:
    """The named layer metrics of one traced repetition.

    A name ``<span>.<field>`` reads that field of the span's summary; the
    others are derived below. ``untraced`` holds the run's untraced medians.
    """
    stats = rep["stats"]
    tl, adam, em = (stats[k] for k in ("network.train_local", "network.adam_step", "mixtures.em_fit"))
    csv_load, fed = stats["datasets.load_csv_dir"], stats["federation.run_federation"]
    iters = em["counts"].get("iters", 0)
    derived = {
        "network.train_local.samples": tl["counts"].get("samples", 0),
        "network.adam_step.us_per_call": _ratio(adam["busy_s"], adam["calls"]) * 1e6,
        "network.step_us": _ratio(tl["self_s"], adam["calls"]) * 1e6,
        "mixtures.em_fit.iters": iters,
        "mixtures.em_fit.us_per_iter": _ratio(em["busy_s"], iters) * 1e6,
        "mixtures.fits_per_selection": _ratio(em["calls"], stats["mixtures.select_k_bic"]["calls"]),
        "augment.rows_added": stats["augment.augment"]["counts"].get("rows_added", 0),
        "datasets.load_csv_dir.rows_per_s":
            _ratio(csv_load["counts"].get("rows", 0), csv_load["busy_s"]),
        "federation.model_floats": fed["counts"].get("model_floats", 0),
        "federation.proto_up_floats": fed["counts"].get("proto_up_floats", 0),
        "federation.proto_down_floats": fed["counts"].get("proto_down_floats", 0),
        "cli.self_s": stats["cli.main"]["self_s"],
        "bench.trace_overhead": _ratio(rep["e2e"]["run_s"], untraced["run_s"]),
    }
    for s in STRATEGIES:  # 0 where the workload does not run the strategy
        derived[f"{s}_s"] = untraced.get(f"{s}_s", 0.0)
        derived[f"{s}.final_acc"] = rep["accuracy"].get(s, 0.0)
    metrics = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif field in stats.get(span, {}):
            metrics[name] = stats[span][field]
        else:
            raise BenchError(f"per-layer metric {name} is not measured")
    return metrics


def _median_by_key(rows: list[dict]) -> dict:
    """Median of each key over the rows that have it."""
    keys = dict.fromkeys(key for row in rows for key in row)
    return {key: statistics.median(row[key] for row in rows if key in row) for key in keys}


def _repetition(request: dict, timeout: float, strategies, workload: str, seed: int,
                first: dict | None, reference: dict) -> tuple[dict, dict]:
    """Run and check one repetition; return it with per-strategy failure reasons."""
    rep = run_child(request, timeout) or {"rc": None, "mode": request["mode"],
                                          "wrappers_removed": True}
    out = Path(request["out"])
    expected = workloads.EXPECTED_EXCHANGE_ROUND.get(workload)
    rep["hashes"], reasons, rep["accuracy"] = check_outputs(out, strategies, expected)
    shutil.rmtree(out, ignore_errors=True)
    if rep["rc"] != 0:
        for s in strategies:
            reasons[s].append(f"protofed run exit code {rep['rc']}")
    for name, digest in rep["hashes"].items():
        if first and first.get(name) != digest:
            for s in _owners(name, strategies):
                reasons[s].append(f"{name} differs from repetition 0")
        if seed == workloads.DEFAULT_SEED and reference and reference.get(name) != digest:
            for s in _owners(name, strategies):
                reasons[s].append(f"{name} differs from the reference")
    return rep, reasons


def run_workload(workload: str, seed: int, seconds: float, trace: bool, definition: dict) -> dict:
    """Generate inputs, run repetitions for ``seconds``, check outputs, derive metrics."""
    src = ROOT / "src"
    if not (src / "protofed" / "__init__.py").is_file():
        raise BenchError(f"no protofed sources under {src}")
    # A workload without reference hashes has none on the default seed yet.
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8")).get(workload, {})
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reps: list[dict] = []
    failures: list[str] = []
    attempted = failed = 0
    started = time.time()
    try:
        config = workloads.write_config(workload, seed, work)
        strategies = json.loads(config.read_text(encoding="utf-8"))["federation"]["strategies"]
        start = time.monotonic()
        while True:
            cycle_start = time.monotonic()
            for mode in ("plain", "trace") if trace else ("plain",):
                n = len(reps)
                request = {"config": str(config), "out": str(work / f"out{n}"), "mode": mode,
                           "src": str(src), "result": str(work / f"result{n}.json")}
                timeout = max(10.0, RUN_LIMIT_S + 20.0 - (time.monotonic() - start))
                rep, reasons = _repetition(request, timeout, strategies, workload, seed,
                                           reps[0]["hashes"] if reps else None, reference)
                reps.append(rep)
                for s in strategies:
                    attempted += 1
                    if reasons[s]:
                        failed += 1
                        failures.append(f"rep {n} ({mode}) {s}: {'; '.join(reasons[s])}")
            now = time.monotonic()
            # At least two repetitions, whose outputs are compared byte for byte;
            # then stop before a cycle that would end past the measuring time.
            if len(reps) >= 2 and (now - start) + (now - cycle_start) > min(seconds, RUN_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    # Runs that protofed failed still report their timings; the failure
    # counts in ``failed`` and makes the result incorrect.
    timed = [r for r in reps if "e2e" in r]
    plain = [r for r in timed if r["mode"] == "plain"]
    traced = [r for r in timed if r["mode"] == "trace"]
    if not plain or (trace and not traced):
        raise BenchError(f"no timed repetition of {workload}: {'; '.join(failures)}")
    self_checks = []
    if not all(r["wrappers_removed"] for r in reps):
        self_checks.append("a wrapper was still installed after the run")
    untraced = _median_by_key([r["e2e"] for r in plain])
    names = [m["name"] for m in definition["per_layer"]]
    layers = [per_layer(r, untraced, names) for r in traced]
    if trace and workload == "severe3":
        for key, want in SEVERE3_COUNTS.items():
            got = {row[key] for row in layers}
            if got != {want}:
                self_checks.append(f"{key} counted {sorted(got)}, expected {want}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "started": started,
        "elapsed_s": time.time() - started,
        "repetitions": {"plain": len(plain), "trace": len(traced), "all": len(reps)},
        "per_rep": [{"mode": r["mode"], "rc": r["rc"], **r["e2e"]} for r in timed],
        "env": timed[0]["env"],
        "hashes": reps[0]["hashes"],
        "shapes": {k: v["shapes"] for k, v in traced[0]["stats"].items() if v["shapes"]} if traced else {},
        "failures": failures,
        "self_checks": self_checks,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": untraced,
        "per_layer": _median_by_key(layers) if layers else {},
    }


def result_line(record: dict, definition: dict) -> dict:
    """The result line printed last: every end-to-end or every per-layer metric."""
    section = "per_layer" if record["trace"] else "end_to_end"
    measured = record[section]
    metrics = {}
    for metric in definition[section]:
        if metric["name"] not in measured:
            raise BenchError(f"{record['workload']}: metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
    return {
        "correct": record["failed"] == 0 and not record["self_checks"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_record(record: dict, definition: dict) -> None:
    env = record["env"]
    pins = " ".join(f"{k}={v}" for k, v in env["pins"].items())
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['repetitions']['plain']} untraced + {record['repetitions']['trace']} traced runs")
    print(f"# env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} {pins} PROTOFED_WORKERS={env['PROTOFED_WORKERS'] or 'unset'}")
    for name, digest in sorted(record["hashes"].items()):
        print(f"# sha256 {name} {digest}")
    for key, shapes in sorted(record["shapes"].items()):
        print(f"# shapes {key} {shapes}")
    for line in record["failures"] + record["self_checks"]:
        print(f"# FAIL {line}")
    share = _ratio(record["failed"], record["attempted"])
    print(f"failed_share {share:.4g} ratio ({record['failed']} of {record['attempted']} strategy runs failed)")
    if record["trace"]:
        for metric in definition["per_layer"]:
            print(f"{metric['name']} {record['per_layer'][metric['name']]:.6g} {metric['unit']}")
        return
    for metric in definition["end_to_end"]:
        print(f"{metric['name']} {record['end_to_end'][metric['name']]:.6g} {metric['unit']}")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _gap(a: dict, b: dict) -> float:
    """Seconds between the end of the earlier record and the start of the later one."""
    first, second = sorted((a, b), key=lambda r: r["started"])
    return max(0.0, second["started"] - first["started"] - first["elapsed_s"])


def _pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """Base and new records of one workload, trace mode and seed, run next to each other."""
    pairs, unused = [], list(base)
    for n in new:
        near = [b for b in unused if (b["workload"], b["trace"], b["seed"])
                == (n["workload"], n["trace"], n["seed"]) and _gap(b, n) <= PAIR_GAP_S]
        if near:
            b = min(near, key=lambda r: _gap(r, n))
            unused.remove(b)
            pairs.append((b, n))
    return pairs


def compare(base_path: str, new_path: str, definition: dict) -> int:
    """Print per workload and metric: medians, quartiles, ratio and verdict.

    Only records run next to each other are compared (see ``_pairs``), because
    the host's speed drifts over minutes. End-to-end metrics come from
    ``--trace 0`` records and per-layer metrics from ``--trace 1`` records.
    """
    base, new = _load_records(base_path), _load_records(new_path)
    old_hashes = {(r["workload"], r["seed"]): r["hashes"] for r in base}
    changed = sorted({
        (r["workload"], r["seed"], name) for r in new
        for name, digest in r["hashes"].items()
        if (r["workload"], r["seed"]) in old_hashes
        and old_hashes[(r["workload"], r["seed"])].get(name) != digest
    })
    for wl, seed, name in changed:
        print(f"HASH CHANGED {wl} seed {seed} {name}")
    pairs = _pairs(base, new)
    for wl in sorted({b["workload"] for b, _ in pairs}):
        print(f"== {wl}")
        print(f"{'metric':40} {'base median [q1, q3]':36} {'new median [q1, q3]':36} ratio  pairs verdict")
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            for metric in definition[section]:
                name = metric["name"]
                values = [(b[section][name], n[section][name]) for b, n in pairs
                          if b["workload"] == wl and b["trace"] == trace
                          and name in b[section] and name in n[section]]
                if not values:
                    continue
                bq = _quartiles([b for b, _ in values])
                nq = _quartiles([n for _, n in values])
                verdict = _verdict(values, metric) if section == "end_to_end" else ""
                print(f"{name:40} {bq[1]:<11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]".ljust(77)
                      + f" {nq[1]:<11.5g} [{nq[0]:.5g}, {nq[2]:.5g}]".ljust(37)
                      + f" {_ratio(nq[1], bq[1]):6.3f} {len(values):5} {verdict}")
    print(f"{len(pairs)} pair(s) of adjacent records; "
          f"{len(base) + len(new) - 2 * len(pairs)} record(s) left unpaired")
    print(f"{len(changed)} output hash change(s)")
    return 1 if changed else 0


def _verdict(values: list[tuple[float, float]], metric: dict) -> str:
    """Verdict for one metric: improved, no worse than the bound, worse, or unresolved.

    ``values`` holds (base, new) of records run next to each other.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base, new = [b for b, _ in values], [n for _, n in values]
    bq, nq = _quartiles(base), _quartiles(new)
    spread = bq[2] - bq[0]
    gain = sign * (bq[1] - nq[1])
    wins = sum(1 for b, n in values if sign * (b - n) > 0)
    if len(values) >= MIN_PAIRS and wins >= 0.9 * len(values) and gain > spread:
        return "improved"
    if _ratio(spread, abs(bq[1])) > metric["bound"]:
        every_run_better = all(sign * (b - n) > 0 for n in new for b in base)
        return "improved" if every_run_better else "unresolved"
    return "no worse" if -gain <= metric["bound"] * abs(bq[1]) else "worse"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(workloads.WORKLOADS)}, or all "
                             "(the workloads of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the full record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two JSONL record files instead of running")
    args = parser.parse_args(argv)
    try:
        definition = load_definition()
        if args.compare:
            return compare(*args.compare, definition)
        seconds = definition["run_seconds"] if args.seconds is None else args.seconds
        if args.workload == "all":
            plan = [(wl["name"], t) for wl in definition["workloads"] for t in (False, True)]
        elif args.workload in workloads.WORKLOADS:
            plan = [(args.workload, bool(args.trace))]
        else:
            raise BenchError(f"unknown workload {args.workload!r}")
        lines = {}
        for workload, trace in plan:
            record = run_workload(workload, args.seed, seconds, trace, definition)
            line = result_line(record, definition)
            print_record(record, definition)
            if args.record:
                with open(args.record, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")
            lines[f"{workload}.trace{int(trace)}"] = line
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{k}.{m}": v for k, line in lines.items() for m, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
