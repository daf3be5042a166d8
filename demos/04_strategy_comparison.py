"""Side-by-side federation: plain averaging vs proximal vs prototype exchange
on fully disjoint silos (each client holds exactly one class).

Run with: python demos/04_strategy_comparison.py
"""

import protofed as pf

data = pf.synthesize(pf.SyntheticSpec(n_classes=3, dims=12, cluster_spread=0.05,
                                      samples_per_class=200, seed=42))
plan = pf.build_partition_plan("severe", data.class_counts(), n_clients=3)
shards = pf.partition(data, plan, seed=0)
print("severe non-IID silos:", [s.class_counts().tolist() for s in shards])

# One config serves all three strategies; only fedprox applies prox_mu.
cfg = pf.FederationConfig(
    rounds=10, trigger_round=4, threshold=0.97, noise_sigma=0.01,
    train=pf.TrainConfig(epochs=10, batch_size=32, learning_rate=0.005, prox_mu=0.1),
    hidden=((32, 1e-3), (16, 1e-3)), dropout_p=0.5, scale_mode="none", seed=1,
)
# Each silo splits its data into train and test once; every strategy trains
# on the same splits, and the shards are no longer needed.
clients = pf.split_clients(cfg, shards)
del shards
histories = {s: pf.run_federation(cfg, clients, s) for s in ("fedavg", "fedprox", "fedp3e")}

print("\nglobal accuracy by round")
print("round  " + "  ".join(f"{s:>8}" for s in histories))
for idx in range(10):
    row = [f"{histories[s][idx].global_report.accuracy:8.4f}" for s in histories]
    marker = " <- exchange" if histories["fedp3e"][idx].exchange_triggered else ""
    print(f"{idx + 1:5}  " + "  ".join(row) + marker)

exchange = pf.exchange_round(histories["fedp3e"])
metrics = histories["fedp3e"][exchange - 1]
uploads, download, total = pf.exchange_cost_ratios(metrics)
print(f"\none-shot exchange at round {exchange}:")
print(f"  model update: {metrics.model_floats} floats per client per direction")
up = metrics.proto_upload_floats[0]
down = metrics.proto_download_floats
print(f"  prototype upload: {up} floats per client ({100 * uploads[0]:.2f}% of a model)")
print(f"  prototype download: {down} floats per client ({100 * download:.2f}% of a model)")
print(f"  exchange total: {100 * total:.2f}% of a model")
