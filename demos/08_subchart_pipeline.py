"""Decompose-compress-predict: CAE over sub-charts, then a 1-D CNN.

Phase 1 trains the autoencoder on every 3-candle sub-chart of the
training charts; phase 2 freezes the encoder, turns each 30-candle chart
into a (latent_dim x 28) sequence, and classifies strength from that.
"""

from pathlib import Path

from candlekit import ModelConfig, TrainConfig, train_subchart_pipeline
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
print(f"dataset: {ds.subcharts.shape[0]} samples x {ds.subcharts.shape[1]} sub-charts each")

cfg = ModelConfig(variant="cae", input_shape=(3, 16, 16), block_widths=(4, 8), latent_dim=16, seed=2)
result = train_subchart_pipeline(ds, TrainConfig(epochs=3, batch_size=32, seed=3), cfg)

print("\nphase 1 (CAE reconstruction MSE: full passes at the ends, mean minibatch MSE between):")
last = len(result.cae_epoch_mse) - 1
for i, mse in enumerate(result.cae_epoch_mse):
    tag = ("full pass, before training" if i == 0
           else "full pass, after training" if i == last else "minibatch mean")
    print(f"  epoch {i}: {mse:.4f} ({tag})")

print(f"\nencoded sequences: {result.encoded_shape}")
print("phase 2 (CNN1D on latent sequences):")
for e in result.report.entries:
    loss = "  (init)" if e.train_loss is None else f"loss {e.train_loss:.4f}"
    print(f"  epoch {e.epoch:>2}  {loss}  val acc {e.val_accuracy:.3f}")
