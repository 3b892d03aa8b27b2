"""Decompose-compress-predict: CAE over sub-charts, then a 1-D CNN.

The Decomposer is one model. Training it first trains the autoencoder on
every 3-candle sub-chart of the training charts, then freezes the encoder,
turns each 30-candle chart into a (latent_dim x 28) sequence, and
classifies strength from that. Prediction takes the raw sub-chart stacks.
"""

from candlekit import ModelConfig, TrainConfig, build_model, predict, train
from candlekit.datasets import assemble_subchart_dataset
from candlekit.experiment import build_dataset, manifest_from_dict

manifest = manifest_from_dict(
    {
        "master_seed": 9,
        "output_dir": "demo_out/subchart",
        "datasets": [{"name": "walk", "synth": {"n": 420, "volatility": 0.02}}],
        "arms": [{"arm_name": "subchart_arm", "model": "subchart", "include_pattern": False}],
        "model": {"subchart_hw": [16, 16], "block_widths": [4, 8], "latent_dim": 16},
        "train": {"epochs": 3, "batch_size": 32},
    }
)

ddir = build_dataset(manifest, "walk")
ds = assemble_subchart_dataset([ddir], (16, 16), manifest.render_spec)
n, s = ds.subcharts.shape[:2]
print(f"dataset: {n} samples x {s} sub-charts each")

cfg = ModelConfig(variant="subchart", input_shape=(3, 16, 16), block_widths=(4, 8), latent_dim=16,
                  seq_len=s, seed=2)
model = build_model(cfg)
report = train(model, ds, TrainConfig(epochs=3, batch_size=32, seed=3))

print("\nphase 1 (CAE reconstruction MSE: full passes at the ends, mean minibatch MSE between):")
last = len(report.cae_mse) - 1
for i, mse in enumerate(report.cae_mse):
    tag = ("full pass, before training" if i == 0
           else "full pass, after training" if i == last else "minibatch mean")
    print(f"  epoch {i}: {mse:.4f} ({tag})")

print(f"\nencoded sequences: {model.encode(ds.subcharts[:1]).shape[1:]} per sample")
print("phase 2 (CNN1D on latent sequences):")
for e in report.entries:
    loss = "  (init)" if e.train_loss is None else f"loss {e.train_loss:.4f}"
    print(f"  epoch {e.epoch:>2}  {loss}  val acc {e.val_accuracy:.3f}")

probs = predict(model, (ds.subcharts[-5:],))
print(f"\nlast 5 charts, from raw sub-charts: p(strong) = {[round(float(p), 3) for p in probs]}")
