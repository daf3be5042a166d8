"""Workload inputs for the protofed benchmark, generated from a seed.

Each workload turns a seed into a `protofed run` JSON config (and, for the
CSV workload, a directory of N-BaIoT-layout files). The same seed always
gives byte-identical inputs. ``DEFAULT_SEED`` reproduces the repository's
severe non-IID fixture exactly.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 11

# tests/fixtures/severe_nonidd.json, copied so that the benchmark keeps its
# meaning if the test fixture changes.
SEVERE_FIXTURE = {
    "seed": 11,
    "output_dir": "runs/severe",
    "data": {
        "synthetic": {
            "n_classes": 3,
            "dims": 20,
            "clusters_per_class": 1,
            "cluster_spread": 0.05,
            "samples_per_class": 400,
            "seed": 20250807,
        }
    },
    "partition": {"scenario": "severe", "n_clients": 3},
    "federation": {
        "strategies": ["fedavg", "fedprox", "fedp3e"],
        "rounds": 20,
        "threshold": 0.97,
        "trigger_round": 6,
        "noise_sigma": 0.01,
        "train": {
            "epochs": 15,
            "batch_size": 32,
            "learning_rate": 0.005,
            "adam_beta1": 0.9,
            "adam_beta2": 0.999,
            "adam_epsilon": 1e-07,
            "prox_mu": 0.1,
        },
        "aug": {"target_fraction": 0.1, "eligible_classes": "below_mean_count"},
        "model": {"hidden": [[32, 0.001], [16, 0.001]], "dropout_p": 0.5},
        "train_fraction": 0.8,
        "scale_mode": "none",
        "eval_weighting": "test_size",
        "gmm_components": None,
        "gmm_max_components": 5,
        "global_prototypes_per_class": None,
        "aggregate_running_stats": True,
    },
}

# Data seed of the fixture minus its run seed, so DEFAULT_SEED maps onto it.
_DATA_SEED_OFFSET = 20250807 - DEFAULT_SEED


def severe3(seed: int, work: Path) -> dict:
    """The ROADMAP baseline fixture with its run and data seeds shifted by ``seed``."""
    cfg = copy.deepcopy(SEVERE_FIXTURE)
    cfg["seed"] = seed
    cfg["data"]["synthetic"]["seed"] = _DATA_SEED_OFFSET + seed
    return cfg


def light12(seed: int, work: Path) -> dict:
    """Many small clients and short rounds: per-call overhead dominates.

    Only fedavg and fedprox run, so the exchange layers stay idle.
    """
    cfg = copy.deepcopy(SEVERE_FIXTURE)
    cfg["seed"] = seed
    cfg["data"]["synthetic"].update(clusters_per_class=2, seed=_DATA_SEED_OFFSET + seed)
    cfg["partition"] = {"scenario": "light", "n_clients": 12}
    fed = cfg["federation"]
    fed.update(strategies=["fedavg", "fedprox"], rounds=40)
    fed["train"]["epochs"] = 2
    return cfg


# N-BaIoT names its 115 columns by statistic and time window (5 windows x 23).
_NBAIOT_STATS = (
    [f"MI_dir_{{w}}_{s}" for s in ("weight", "mean", "variance")]
    + [f"H_{{w}}_{s}" for s in ("weight", "mean", "variance")]
    + [f"HH_{{w}}_{s}" for s in ("weight", "mean", "std", "magnitude", "radius", "covariance", "pcc")]
    + [f"HH_jit_{{w}}_{s}" for s in ("weight", "mean", "variance")]
    + [f"HpHp_{{w}}_{s}" for s in ("weight", "mean", "std", "magnitude", "radius", "covariance", "pcc")]
)
NBAIOT_COLUMNS = tuple(
    stat.format(w=w) for w in ("L5", "L3", "L1", "L0.1", "L0.01") for stat in _NBAIOT_STATS
)
# (class, capture name) per file; every device records each capture.
_NBAIOT_CAPTURES = (
    ("benign", "benign"),
    ("gafgyt", "gafgyt.combo"),
    ("gafgyt", "gafgyt.udp"),
    ("mirai", "mirai.ack"),
    ("mirai", "mirai.syn"),
)
_NBAIOT_DEVICES = 9
_NBAIOT_ROWS_PER_CLASS = 3000
# Spreads per column, in within-file standard deviations. Device centres lie
# about 15 apart over the 115 columns, so each device's traffic is a mode of
# its own, as in the real captures.
_NBAIOT_DEVICE_SPREAD = 1.0
_NBAIOT_CAPTURE_SPREAD = 0.05
# Class offsets of nbaiot9: two classes of one device lie about 3 apart, and
# about 2% of rows lie nearer a file of another class, so no client can score
# 1.0.
NBAIOT_SEPARATION = 0.2
# nbaiot9sep's class offsets: about 75 apart, so the classes separate
# completely. `protofed run` fails on it on most seeds (see
# perfbench/README.md, "Known program defect").
NBAIOT_SEPARABLE = 5.0


def write_nbaiot_dir(seed: int, root: Path, separation: float) -> None:
    """Write synthetic captures in the N-BaIoT file layout.

    Each (device, capture) file is one unit-variance Gaussian blob, scaled
    per column by magnitudes spread over four decades as in the real traffic
    statistics. Its centre is the device's centre plus its class's offset,
    which is drawn per column with standard deviation ``separation``.
    """
    rng = np.random.default_rng([seed, 9])
    n_cols = len(NBAIOT_COLUMNS)
    magnitude = 10.0 ** rng.uniform(0.0, 4.0, size=n_cols)
    base = rng.uniform(4.0, 6.0, size=n_cols)
    device_centre = base + rng.normal(0.0, _NBAIOT_DEVICE_SPREAD, size=(_NBAIOT_DEVICES, n_cols))
    class_offset = {
        cls: rng.normal(0.0, separation, size=n_cols) for cls in ("benign", "gafgyt", "mirai")
    }
    n_files = {c: _NBAIOT_DEVICES * sum(k == c for k, _ in _NBAIOT_CAPTURES) for c in class_offset}
    file_index = dict.fromkeys(class_offset, 0)
    root.mkdir(parents=True, exist_ok=True)
    header = ",".join(NBAIOT_COLUMNS) + "\n"
    for device in range(1, _NBAIOT_DEVICES + 1):
        for cls, capture in _NBAIOT_CAPTURES:
            # The class's rows are split evenly over its files.
            rows = len(range(file_index[cls], _NBAIOT_ROWS_PER_CLASS, n_files[cls]))
            file_index[cls] += 1
            centre = (device_centre[device - 1] + class_offset[cls]
                      + rng.normal(0.0, _NBAIOT_CAPTURE_SPREAD, size=n_cols))
            block = (centre + rng.normal(0.0, 1.0, size=(rows, n_cols))) * magnitude
            lines = (",".join(format(v, ".10g") for v in row) for row in block)
            with open(root / f"{device}.{capture}.csv", "w", encoding="utf-8") as handle:
                handle.write(header)
                handle.writelines(line + "\n" for line in lines)


def nbaiot9(seed: int, work: Path, separation: float = NBAIOT_SEPARATION) -> dict:
    """CSV ingestion plus the one-shot exchange on 115-feature captures.

    Only fedp3e runs. The exchange fires in round 1, and two rounds of one
    epoch keep training small, so GMM selection, re-clustering and ingestion
    carry the run.
    """
    data_dir = work / "nbaiot"
    write_nbaiot_dir(seed, data_dir, separation)
    cfg = copy.deepcopy(SEVERE_FIXTURE)
    cfg["seed"] = seed
    cfg["data"] = {"csv_dir": {"path": str(data_dir)}}
    cfg["partition"] = {"scenario": "moderate", "n_clients": 9}
    fed = cfg["federation"]
    fed.update(strategies=["fedp3e"], rounds=2, trigger_round=1, scale_mode="local")
    fed["train"]["epochs"] = 1
    return cfg


def nbaiot9sep(seed: int, work: Path) -> dict:
    """nbaiot9 with completely separable classes; it reproduces a known defect."""
    return nbaiot9(seed, work, NBAIOT_SEPARABLE)


# The measured workloads of BENCHMARK.json, then those run only by name.
WORKLOADS = {"severe3": severe3, "light12": light12, "nbaiot9": nbaiot9, "nbaiot9sep": nbaiot9sep}

# The round in which fedp3e must exchange, on the workloads that run it.
EXPECTED_EXCHANGE_ROUND = {"severe3": 6, "nbaiot9": 1, "nbaiot9sep": 1}


def write_config(workload: str, seed: int, work: Path) -> Path:
    """Generate the workload's inputs under ``work`` and return the config path."""
    cfg = WORKLOADS[workload](seed, work)
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    return path
