"""Train the small CNN on the planted-signal dataset and watch it learn.

The dataset renders 4-candle windows whose last candle has either a tiny
or a huge body relative to its range; the label is that fact. A real
visual signal, so validation accuracy should race to 1.0, while the same
run on shuffled labels should sit at the coin-flip line.
"""

import numpy as np

from candlekit import MiniCNN, ModelConfig, TrainConfig, TrainingSet, train
from candlekit.datasets import planted_signal_set
from candlekit.rng import Rng, derive_seed

ts = planted_signal_set(n_samples=400, seed=7)
cfg = ModelConfig(variant="mini_cnn", input_shape=(3, 32, 32), block_widths=(4, 8), fc_dim=32, seed=5)
tc = TrainConfig(epochs=8, batch_size=32, lr=1e-3, seed=11)

print("planted signal:")
report = train(MiniCNN(cfg), ts, tc)
for e in report.entries:
    loss = "  (init)" if e.train_loss is None else f"loss {e.train_loss:.4f}"
    print(f"  epoch {e.epoch:>2}  {loss}  val acc {e.val_accuracy:.3f}")

labels = list(ts.labels.copy())
Rng(derive_seed(202, "shuffle-labels")).shuffle(labels)
shuffled = TrainingSet(history=ts.history, labels=np.asarray(labels, dtype=np.float32), order=ts.order)

print("\nshuffled labels (no signal):")
report = train(MiniCNN(cfg), shuffled, tc)
for e in report.entries[-3:]:
    print(f"  epoch {e.epoch:>2}  val acc {e.val_accuracy:.3f}")
