"""The dense classifier: architecture, gradients, local training, metrics.

Run with: python demos/02_classifier_training.py
"""

import numpy as np

import protofed as pf
from protofed.network import loss_and_grads

# The reference architecture: 128- and 64-unit hidden layers with batch norm
# and L2 1e-3, dropout 0.5 after the first block, as FederationConfig's
# defaults; N-BaIoT data fixes the 115 inputs and the 3-way softmax.
defaults = pf.FederationConfig()
reference = pf.ModelSpec(115, defaults.hidden, defaults.dropout_p, 3)
model = pf.build_model(reference, seed=0)
print(f"reference architecture: {reference.layer_dims}, "
      f"{model.trainable_count} trainable parameters")

# Gradients are exact: spot-check one coordinate against central differences.
small = pf.ModelSpec(4, ((6, 1e-3),), 0.0, 2)
params = pf.build_model(small, seed=1)
rng = np.random.default_rng(1)
x = rng.standard_normal((8, 4))
y = rng.integers(0, 2, 8)
_, grads = loss_and_grads(params, x, y, mode="train")
h = 1e-4
w = params.tensors["w1"]
w[0, 0] += h
plus, _ = loss_and_grads(params, x, y, mode="train")
w[0, 0] -= 2 * h
minus, _ = loss_and_grads(params, x, y, mode="train")
w[0, 0] += h
fd = (plus - minus) / (2 * h)
print(f"\nanalytic dL/dw1[0,0] = {grads['w1'][0, 0]:+.8f}")
print(f"finite-difference    = {fd:+.8f}")

# Local training: 15 epochs of shuffled mini-batches with Adam.
data = pf.synthesize(pf.SyntheticSpec(n_classes=2, dims=6, cluster_spread=0.05,
                                      samples_per_class=200, seed=3))
spec = pf.ModelSpec(6, ((16, 1e-3), (8, 1e-3)), 0.5, 2)
start = pf.build_model(spec, seed=4)
config = pf.TrainConfig(epochs=15, batch_size=32, learning_rate=0.005)
trained, losses = pf.train_local(start, data, config, seed=5)
print(f"\nepoch losses: first={losses[0]:.4f} last={losses[-1]:.4f}")

report = pf.evaluate(trained, data)
print(f"evaluation: accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f} "
      f"loss={report.mean_loss:.4f}")
