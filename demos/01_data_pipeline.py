"""Walk through of the data pipeline: synthesis, scaling, splitting, silos.

Run with: python demos/01_data_pipeline.py
"""

import numpy as np

import protofed as pf

# A desk-scale stand-in for a traffic dataset: three classes, each a pair of
# Gaussian blobs inside the unit cube.
spec = pf.SyntheticSpec(
    n_classes=3, dims=10, clusters_per_class=2, cluster_spread=0.04,
    samples_per_class=300, seed=7,
)
data = pf.synthesize(spec)
print(f"synthesized {data.n_samples} samples x {data.n_features} features")
print("class counts:", dict(zip(data.class_names, data.class_counts())))

# Min-max scaling maps every column to [0, 1]; constant columns go to 0.
scaled = pf.min_max_scale(data)
print(f"\nafter scaling: min={scaled.features.min():.3f} max={scaled.features.max():.3f}")

# 80/20 stratified split, seeded.
train, test = pf.stratified_split(scaled, seed=1)
print(f"split: train={train.n_samples} test={test.n_samples}")
print("train class counts:", train.class_counts().tolist())

# The four built-in heterogeneity scenarios as quota tables.
print("\nper-client class histograms by scenario")
for scenario in ("iid", "light", "moderate", "severe"):
    plan = pf.build_partition_plan(scenario, data.class_counts(), n_clients=3)
    shards = pf.partition(data, plan, seed=1)
    rows = [shard.class_counts().tolist() for shard in shards]
    print(f"  {scenario:>9}: {rows}")

# Partitions are disjoint: no sample appears on two clients.
plan = pf.build_partition_plan("light", data.class_counts(), n_clients=3)
shards = pf.partition(data, plan, seed=1)
seen: set[tuple] = set()
for shard in shards:
    rows = {tuple(r) for r in shard.features}
    assert not rows & seen
    seen |= rows
print(f"\n{len(seen)} unique rows assigned, no overlap between silos")
