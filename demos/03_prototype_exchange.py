"""The prototype pipeline: GMM fitting, noise, reclustering, SMOTE synthesis.

Run with: python demos/03_prototype_exchange.py
"""

import numpy as np

import protofed as pf

rng = np.random.default_rng(0)

# A client's view of one class: two clusters of traffic in feature space.
class_rows = np.vstack([
    rng.normal(0.2, 0.03, (120, 5)),
    rng.normal(0.7, 0.03, (80, 5)),
])

# The mixture size is chosen by the Bayesian Information Criterion.
model = pf.select_k_bic(class_rows, seed=1)
print(f"BIC selects {model.n_components} components; weights={np.round(model.weights, 3)}")
print("component means (first 2 dims):")
print(np.round(model.means[:, :2], 3))

# Component means become the class prototypes; noise protects the raw stats.
protos = pf.Prototypes({1: model.means})
noisy = pf.perturb(protos, sigma=0.01, seed=2)
shift = np.abs(noisy.by_class[1] - protos.by_class[1]).max()
print(f"\nperturbed {len(noisy.by_class[1])} prototypes, max coordinate shift {shift:.4f}")

print(f"upload payload: {noisy.floats} floats ({len(noisy.by_class[1])} vectors x 5 dims)")

# Server side: three clients submit prototypes; per class they are reclustered
# with mini-batch k-means into a compact global set.
uploads = [noisy]
for client in (1, 2):
    crng = np.random.default_rng(client)
    rows = crng.normal(0.45, 0.1, (3, 5))
    uploads.append(pf.perturb(pf.Prototypes({1: rows}), 0.01, seed=client))
received = sum(len(u.by_class[1]) for u in uploads)
gp = pf.aggregate_prototypes(uploads, seed=3)
print(f"\nserver received {received} prototypes for class 1, "
      f"kept {gp.by_class[1].shape[0]} global centroids "
      f"(heuristic: {pf.choose_cluster_count(received)})")

# Client side again: a silo that never saw class 1 synthesizes samples for it
# by interpolating between global prototypes.
local = pf.Dataset(rng.random((200, 5)), np.zeros(200, dtype=int), ("benign", "attack"))
augmented = pf.augment(local, gp, 0.10, 0.01, seed=4)
added = augmented.n_samples - local.n_samples
print(f"\naugmentation: {local.n_samples} -> {augmented.n_samples} rows "
      f"({added} synthetic, labels {sorted(set(augmented.labels[200:].tolist()))})")
