"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale federation experiments run on committed synthetic fixtures
(fixed generator specs and seeds below); thresholds were frozen after pilot
runs of those exact configurations.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

import protofed as pf
from protofed.cli import _metrics_csv, parse_config
from protofed.mixtures import GMM_MAX_COMPONENTS
from helpers import SEVERE_FIXTURE, fd_max_relative_error, on_some_segment, randomized_params

# Committed fixture for the severe / IID trend experiments.
TREND_DATA = pf.SyntheticSpec(
    n_classes=3, dims=20, clusters_per_class=1, cluster_spread=0.05,
    samples_per_class=400, seed=20250807,
)
TREND_HIDDEN = ((32, 1e-3), (16, 1e-3))
TREND_TRAIN = pf.TrainConfig(epochs=15, batch_size=32, learning_rate=0.005)
RUN_SEED = 11

# Committed fixture for the proximal-sensitivity experiment: fine-grained
# interleaved clusters so heavy regularization stalls below convergence.
PROX_DATA = pf.SyntheticSpec(
    n_classes=3, dims=2, clusters_per_class=12, cluster_spread=0.015,
    samples_per_class=600, seed=20250807,
)
PROX_HIDDEN = ((64, 1e-3), (32, 1e-3))

FULL_SCALE_D_W = 23_683  # trainable count of the 115-feature architecture
FULL_SCALE_D_X = 115


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


TREND_CONFIG = pf.FederationConfig(
    rounds=20, trigger_round=6, threshold=0.97, noise_sigma=0.01, train=TREND_TRAIN,
    hidden=TREND_HIDDEN, dropout_p=0.5, scale_mode="none", seed=RUN_SEED,
)


def partitioned(data_spec: pf.SyntheticSpec, scenario: str) -> list[pf.Dataset]:
    data = pf.synthesize(data_spec)
    plan = pf.build_partition_plan(scenario, data.class_counts(), 3)
    return pf.partition(data, plan, seed=RUN_SEED)


def test_criterion_1_model_fidelity():
    params = pf.build_model(pf.ModelSpec(115, ((128, 1e-3), (64, 1e-3)), 0.5, 3), seed=0)
    ok = params.trainable_count == FULL_SCALE_D_W
    assert report("1 model-fidelity", ok, f"trainable={params.trainable_count}, expected 23683")


def _comm_cost_run() -> list[pf.RoundMetrics]:
    """Two-round run where every client holds 3 classes and uploads 3x3 prototypes."""
    data = pf.synthesize(pf.SyntheticSpec(n_classes=3, dims=FULL_SCALE_D_X, cluster_spread=0.05,
                                          samples_per_class=60, seed=4))
    plan = pf.build_partition_plan("iid", data.class_counts(), 3)
    shards = pf.partition(data, plan, seed=4)
    cfg = pf.FederationConfig(
        rounds=2, trigger_round=2, threshold=0.97, noise_sigma=0.01,
        train=pf.TrainConfig(epochs=1, batch_size=32, learning_rate=1e-4),
        hidden=((128, 1e-3), (64, 1e-3)), dropout_p=0.5,
        scale_mode="none", gmm_components=3, seed=4,
    )
    return pf.run_federation(cfg, pf.split_clients(cfg, shards), "fedp3e")


def _exchange_cost(history: list[pf.RoundMetrics]):
    """The exchange round and its cost ratios, as ``summary.json`` reports them."""
    m = history[pf.exchange_round(history) - 1]
    return m, pf.exchange_cost_ratios(m)


def test_criterion_2_communication_cost_reproduction():
    history = _comm_cost_run()
    assert pf.exchange_round(history) == 2
    m, (uploads, download, _) = _exchange_cost(history)
    upload_pp = [100 * ratio for ratio in uploads]
    download_pp = 100 * download
    ok = (
        m.model_floats == FULL_SCALE_D_W
        and m.proto_upload_floats == (1035,) * 3
        and m.proto_download_floats == 1380
        and all(abs(pp - 4.37) <= 0.005 for pp in upload_pp)
        and abs(download_pp - 5.83) <= 0.005
    )
    assert report(
        "2 comm-cost", ok,
        f"model={m.model_floats}, upload={list(m.proto_upload_floats)} "
        f"({', '.join(f'{pp:.4f}%' for pp in upload_pp)}), "
        f"download={m.proto_download_floats} ({download_pp:.4f}%)",
    )


def test_criterion_2_total_ratio_reference_value():
    """The one-shot exchange costs 10.20% of a model update in total.

    The reference prints this total as 9.58%, a figure that contradicts its
    own components: 1035 uploaded floats (4.37%) plus 1380 downloaded floats
    (5.83%) is 2415/23683 = 10.197%, and 4.37 + 5.83 = 10.20. No payload of
    whole 115-float prototypes reaches 9.58% either: that is about 2269
    floats, or 19.7 prototypes (19 give 9.23%, 20 give 9.71%). The expected
    total is therefore taken from the reference's published counts, and the
    9.58% is treated as an erratum. PAPER.md holds only the abstract, so
    whether the misprint is in the paper's cost table or in a later copy of
    it, and which cost 9.58% was meant to give, cannot be settled here.
    """
    _, (uploads, download, total) = _exchange_cost(_comm_cost_run())
    expected_pp = 100 * (1035 + 1380) / 23683
    # Each published component is rounded to 0.01 pp, so their sum is
    # within 0.01 pp of the exact total.
    assert abs((4.37 + 5.83) - expected_pp) <= 0.01
    upload = sum(uploads) / len(uploads)
    total_pp = 100 * total
    is_sum = math.isclose(total, upload + download, rel_tol=1e-12)
    ok = is_sum and abs(total_pp - expected_pp) <= 0.005
    report(
        "2b comm-cost-total", ok,
        f"total={total_pp:.4f}%, expected {expected_pp:.4f}% (reference prints 9.58%, an erratum)",
    )
    assert ok, (
        f"total exchange ratio is {total_pp:.4f}%, upload+download is "
        f"{100 * (upload + download):.4f}%; expected "
        f"(1035+1380)/23683 = {expected_pp:.4f}% (4.37% + 5.83%). The reference's "
        "9.58% contradicts these components and is not the value checked"
    )


def test_criterion_3_severe_noniid_trend(severe_run):
    # The committed severe fixture is this experiment: fedavg and fedp3e do
    # not read its prox_mu, which only its fedprox run uses.
    spec = parse_config(SEVERE_FIXTURE)
    assert (spec.data, spec.scenario, spec.n_clients) == (TREND_DATA, "severe", 3)
    assert spec.federation == replace(TREND_CONFIG, train=replace(TREND_TRAIN, prox_mu=0.1))
    _, histories = severe_run
    p3e, avg = histories["fedp3e"], histories["fedavg"]
    acc_p3e = p3e[-1].global_report.accuracy
    acc_avg = avg[-1].global_report.accuracy
    ok = acc_avg <= 0.60 and acc_p3e >= acc_avg + 0.25 and pf.exchange_round(p3e) == 6
    assert report(
        "3 severe-trend", ok,
        f"fedavg={acc_avg:.4f} (<=0.60), fedp3e={acc_p3e:.4f} "
        f"(>= fedavg+0.25), exchange_round={pf.exchange_round(p3e)}",
    )


def test_criterion_4_iid_parity_trend():
    clients = pf.split_clients(TREND_CONFIG, partitioned(TREND_DATA, "iid"))
    p3e = pf.run_federation(TREND_CONFIG, clients, "fedp3e")
    avg = pf.run_federation(TREND_CONFIG, clients, "fedavg")
    early_mean = float(np.mean([m.global_report.accuracy for m in p3e[:5]]))
    diff = abs(p3e[-1].global_report.accuracy - avg[-1].global_report.accuracy)
    ok = early_mean >= 0.97 and pf.exchange_round(p3e) is None and diff <= 0.02
    assert report(
        "4 iid-parity", ok,
        f"mean-acc-rounds-1-5={early_mean:.4f} (>=0.97), exchange=dormant, "
        f"|fedp3e-fedavg|={diff:.4f} (<=0.02)",
    )


def test_criterion_5_gradient_suite():
    cases = []
    for seed in range(8):
        cases.append((pf.ModelSpec(2, ((3, 0.0),), 0.0, 2), seed, "train", 0.0))
    for seed in range(4):
        cases.append((pf.ModelSpec(3, ((4, 0.0),), 0.0, 3), 100 + seed, "eval", 0.0))
    for seed in range(4):
        cases.append((pf.ModelSpec(2, ((3, 0.01), (3, 0.001)), 0.0, 2), 200 + seed, "train", 0.0))
    for seed in range(4):
        cases.append((pf.ModelSpec(3, ((3, 0.0),), 0.0, 2), 300 + seed, "train", 0.5))
    for seed in range(4):
        cases.append((pf.ModelSpec(2, ((4, 0.005),), 0.0, 3), 400 + seed, "eval", 1.5))
    assert len(cases) >= 20
    worst = 0.0
    for spec, seed, mode, mu in cases:
        worst = max(worst, fd_max_relative_error(spec, seed, mode=mode, prox_mu=mu))
    ok = worst <= 1e-4
    assert report(
        "5 gradient-suite", ok,
        f"{len(cases)} instances (dense, batch-norm train/eval, softmax-CE, L2, "
        f"proximal), max rel err={worst:.3e} (<=1e-4)",
    )


def test_criterion_6_em_bic_oracle():
    rng = np.random.default_rng(60)
    # EM monotonicity on 50 random instances
    monotone = True
    for trial in range(50):
        n = int(rng.integers(20, 60))
        d = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        x = rng.random((n, d)) * rng.uniform(0.5, 3.0)
        model = pf.em_fit(x, k, seed=trial)
        if (np.diff(model.log_likelihood_history) < -1e-8).any():
            monotone = False
            break

    # BIC argmin equals an independently recomputed table on 20 fixtures
    oracle_agrees = True
    for trial in range(20):
        n = int(rng.integers(15, 50))
        x = rng.random((n, 2)) * rng.uniform(0.5, 2.0)
        seed = int(rng.integers(0, 10_000))
        k_hi = min(GMM_MAX_COMPONENTS, n)
        picked_k = pf.select_k_bic(x, seed=seed).n_components
        children = np.random.SeedSequence(seed).spawn(k_hi)
        table = []
        for k in range(1, k_hi + 1):
            model = pf.em_fit(x, k, children[k - 1])
            p = (k - 1) + k * 2 + k * 2
            table.append(p * np.log(n) - 2.0 * model.log_likelihood)
        if picked_k != int(np.argmin(table)) + 1:
            oracle_agrees = False
            break

    # three well-separated blobs recover K* = 3
    blobs = np.vstack([
        rng.normal((0.0, 0.0), 0.08, (200, 2)),
        rng.normal((2.0, 0.0), 0.08, (200, 2)),
        rng.normal((0.0, 2.0), 0.08, (200, 2)),
    ])
    k_star = pf.select_k_bic(blobs, seed=3).n_components

    ok = monotone and oracle_agrees and k_star == 3
    assert report(
        "6 em-bic", ok,
        f"monotone(50)={monotone}, bic-oracle(20)={oracle_agrees}, "
        f"three-blob K*={k_star}",
    )


def test_criterion_7_smote_geometry():
    rng = np.random.default_rng(70)
    protos = rng.random((5, 8))
    gp = pf.Prototypes({1: protos})
    local = pf.Dataset(rng.random((1000, 8)), np.zeros(1000, dtype=int), ("a", "b"))
    out = pf.augment(local, gp, 0.10, 0.01, 71)
    synthetic = out.features[1000:]
    budget_1000 = synthetic.shape[0]

    on_segment = sum(on_some_segment(row, protos) for row in synthetic)
    small = pf.Dataset(rng.random((37, 8)), np.zeros(37, dtype=int), ("a", "b"))
    out_small = pf.augment(small, gp, 0.10, 0.01, 72)
    budget_37 = out_small.n_samples - 37

    ok = budget_1000 == 100 and on_segment == budget_1000 and budget_37 == 4
    assert report(
        "7 smote-geometry", ok,
        f"segment-membership {on_segment}/{budget_1000}, "
        f"budgets: 1000->{budget_1000}, 37->{budget_37}",
    )


def test_criterion_8_aggregation_oracle_and_determinism():
    rng = np.random.default_rng(80)
    spec = pf.ModelSpec(3, ((4, 0.0),), 0.0, 2)
    oracle_ok = True
    for trial in range(50):
        updates = [
            (randomized_params(spec, int(rng.integers(1e6))), int(rng.integers(1, 40)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        merged = pf.fedavg_aggregate(updates)
        total = sum(w for _, w in updates)
        for name in merged.tensors:
            flats = [p.tensors[name].ravel() for p, _ in updates]
            expected = np.zeros_like(flats[0])
            for i in range(expected.size):
                acc = 0.0
                for (_, weight), values in zip(updates, flats):
                    acc += (weight / total) * values[i]
                expected[i] = acc
            if not np.array_equal(merged.tensors[name].ravel(), expected):
                oracle_ok = False

    # two identical fedp3e runs hash to identical metrics CSVs
    data = pf.synthesize(pf.SyntheticSpec(n_classes=3, dims=8, cluster_spread=0.05,
                                          samples_per_class=90, seed=81))
    plan = pf.build_partition_plan("severe", data.class_counts(), 3)
    shards = pf.partition(data, plan, seed=81)
    cfg = pf.FederationConfig(
        rounds=6, trigger_round=3, threshold=0.97, noise_sigma=0.01,
        train=pf.TrainConfig(epochs=3, batch_size=16, learning_rate=0.005),
        hidden=((8, 1e-3), (4, 1e-3)), dropout_p=0.5,
        scale_mode="none", seed=82,
    )
    clients = pf.split_clients(cfg, shards)
    digests = []
    for _ in range(2):
        history = pf.run_federation(cfg, clients, "fedp3e")
        digests.append(hashlib.sha256(_metrics_csv(history).encode()).hexdigest())

    ok = oracle_ok and digests[0] == digests[1]
    assert report(
        "8 aggregation-determinism", ok,
        f"oracle bit-equal over 50 sets={oracle_ok}, run hashes equal={digests[0] == digests[1]}",
    )


def test_criterion_9_fedprox_sensitivity():
    shards = partitioned(PROX_DATA, "light")
    finals = {}
    for mu in (0.1, 1.0):
        cfg = pf.FederationConfig(
            rounds=20, trigger_round=6, threshold=0.97, noise_sigma=0.01,
            train=pf.TrainConfig(epochs=15, batch_size=32, learning_rate=0.005, prox_mu=mu),
            hidden=PROX_HIDDEN, dropout_p=0.5, scale_mode="none", seed=RUN_SEED,
        )
        history = pf.run_federation(cfg, pf.split_clients(cfg, shards), "fedprox")
        finals[mu] = history[-1].global_report.accuracy
    gap = finals[0.1] - finals[1.0]
    ok = gap >= 0.10
    assert report(
        "9 fedprox-sensitivity", ok,
        f"mu=0.1 final={finals[0.1]:.4f}, mu=1.0 final={finals[1.0]:.4f}, "
        f"gap={gap:.4f} (>=0.10)",
    )
