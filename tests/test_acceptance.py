"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Each test measures its own runtime where a budget is
part of the criterion.
"""

import json
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from candlekit import (
    Candle,
    PatternRuleParams,
    RenderSpec,
    Series,
    SynthParams,
    TrainConfig,
    MiniCNN,
    ModelConfig,
    TrainingSet,
    build_model,
    detect_all,
    evaluate,
    inverse_parse,
    pixel_quantum,
    render_window,
    segment_columns,
    subcharts,
    synth_series,
    train,
    window,
)
from candlekit import nn
from candlekit.datasets import assemble_subchart_dataset, planted_signal_set
from candlekit.decompose import ParsedDirection
from candlekit.experiment import manifest_from_dict, run_experiment
from candlekit.rng import Rng, derive_seed

from oracles import oracle_detect_all, oracle_match, oracle_metrics


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


SMOOTH = [
    nn.Conv2D(2, 3, 3),
    nn.Conv1D(2, 3, 3, pad=1),
    nn.Dense(5, 4),
    nn.Sigmoid(),
    nn.Flatten(),
    nn.Reshape((2, 6)),
    nn.NearestUpsample2D(2),
]
KINKED = [nn.ReLU(), nn.MaxPool2D(2, 2), nn.MaxPool1D(2, 2)]


def test_1_gradient_fidelity():
    with criterion("ACCEPT-1 gradient fidelity"):
        t0 = time.monotonic()
        worst_smooth = 0.0
        worst_kinked = 0.0
        for trial in range(20):
            for spec in SMOOTH:
                err = nn.grad_check(spec, seed=1000 + trial)
                worst_smooth = max(worst_smooth, err)
                assert err < 1e-6, (spec, err)
            for spec in KINKED:
                err = nn.grad_check(spec, seed=2000 + trial)
                worst_kinked = max(worst_kinked, err)
                assert err < 1e-4, (spec, err)
            for kind in ("bce", "mse"):
                err = nn.grad_check_loss(kind, seed=3000 + trial)
                worst_kinked = max(worst_kinked, err)
                assert err < 1e-4, (kind, err)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
        print(
            f"  worst smooth {worst_smooth:.2e}, worst kinked/loss {worst_kinked:.2e}, "
            f"{elapsed:.1f}s",
            end=" ",
        )


def test_2_render_parse_round_trip():
    with criterion("ACCEPT-2 render/parse round trip"):
        t0 = time.monotonic()
        spec = RenderSpec()
        worst_ratio = 0.0
        for seed in range(1000):
            w = window(synth_series(seed, 30), 29, 30)
            axis = (min(c.low for c in w.candles), max(c.high for c in w.candles))
            parsed = inverse_parse(render_window(w, spec), spec, axis)
            q = pixel_quantum(axis, spec)
            for got, truth in zip(parsed, w.candles):
                for f in ("open", "high", "low", "close"):
                    err = abs(getattr(got, f) - getattr(truth, f))
                    worst_ratio = max(worst_ratio, err / q)
                    assert err <= q, (seed, f, err, q)
                if truth.open != truth.close:
                    want = (
                        ParsedDirection.UP if truth.close > truth.open else ParsedDirection.DOWN
                    )
                    assert got.direction is want, (seed, truth)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"round trip took {elapsed:.1f}s"
        print(f"  1000 windows, worst error {worst_ratio:.3f} quanta, {elapsed:.1f}s", end=" ")


def _grid_series(prefix_level: float, c1, c2) -> Series:
    rows = [
        (prefix_level, prefix_level, prefix_level, prefix_level),
        (prefix_level, prefix_level, prefix_level, prefix_level),
        c1,
        c2,
    ]
    return Series(
        symbol="G",
        candles=tuple(
            Candle(timestamp=t, open=o, high=h, low=l, close=c)
            for t, (o, h, l, c) in enumerate(rows)
        ),
    )


def test_3_pattern_oracle_equivalence():
    with criterion("ACCEPT-3 pattern oracle equivalence"):
        params = PatternRuleParams()
        for seed in range(200):
            s = synth_series(seed, 200)
            tuples = [(c.open, c.high, c.low, c.close) for c in s.candles]
            got = [(m.end_index, m.kind.value) for m in detect_all(s, params)]
            assert got == oracle_detect_all(tuples, params), f"series seed {seed}"

        # exhaustive quantized grid for the 1- and 2-candle kinds
        levels = [10.0, 11.0, 12.0, 13.0, 14.0]
        valid = [
            (o, h, l, c)
            for o, h, l, c in product(levels, repeat=4)
            if l <= min(o, c) and h >= max(o, c)
        ]
        assert len(valid) == 105
        grid_params = PatternRuleParams(trend_lookback=2)
        short_kinds = [
            "doji", "hammer", "inverted_hammer", "shooting_star",
            "bullish_engulfing", "bearish_engulfing",
        ]
        from candlekit import PatternKind, match_at

        kind_of = {k.value: k for k in PatternKind}
        checked = 0
        for prefix in (20.0, 5.0):
            for c1, c2 in product(valid, valid):
                s = _grid_series(prefix, c1, c2)
                tuples = [(c.open, c.high, c.low, c.close) for c in s.candles]
                for kind in short_kinds:
                    got = match_at(s, 3, kind_of[kind], grid_params) is not None
                    want = oracle_match(tuples, 3, kind, grid_params)
                    assert got == want, (prefix, c1, c2, kind)
                    checked += 1
        print(f"  200 series + {checked} grid predicate evaluations", end=" ")


def test_4_metric_oracle_equivalence():
    with criterion("ACCEPT-4 metric oracle equivalence"):
        assert evaluate([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]).auc == 0.75
        rng = Rng(derive_seed(4, "metric-instances"))
        for case in range(200):
            n = 2 + rng.next_u64() % 49
            # coarse quantization provokes plenty of ties
            probs = [round(rng.uniform() * 10) / 10 for _ in range(n)]
            labels = [int(rng.uniform() < 0.5) for _ in range(n)]
            want = oracle_metrics(probs, labels)
            got = evaluate(np.array(probs), np.array(labels))
            assert (got.tp, got.fp, got.tn, got.fn) == (
                want["tp"], want["fp"], want["tn"], want["fn"],
            ), case
            assert got.accuracy == want["accuracy"], case
            assert got.f1 == want["f1"], case
            assert got.auc == want["auc"], case
        print("  200 instances, exact equality incl. ties", end=" ")


def test_5_decomposition_law():
    with criterion("ACCEPT-5 decomposition law"):
        spec = RenderSpec()
        s = synth_series(17, 60)
        for n in (1, 3, 30):
            img = render_window(window(s, 40, n), spec)
            extents = segment_columns(img, spec)
            assert len(extents) == n
            for i, ext in enumerate(extents):
                x0 = spec.margin_px + i * (spec.candle_px + spec.gap_px)
                assert (ext.x_start, ext.x_end) == (x0, x0 + spec.candle_px - 1), (n, i)
        crops = subcharts(render_window(window(s, 40, 30), spec), spec, k=3, stride=1)
        assert len(crops) == 28
        assert all(len(segment_columns(c, spec)) == 3 for c in crops)
        print("  extents exact for n in {1,3,30}; 30-candle chart -> 28 sub-charts", end=" ")


PLANTED_CFG = ModelConfig(
    variant="mini_cnn", input_shape=(3, 32, 32), block_widths=(4, 8), fc_dim=32, seed=5
)
PLANTED_TC = TrainConfig(epochs=30, batch_size=32, lr=1e-3, seed=11)


def test_6_learning_sanity_planted_signal():
    with criterion("ACCEPT-6 learning sanity"):
        t0 = time.monotonic()
        ts = planted_signal_set(n_samples=600, seed=7)

        model = MiniCNN(PLANTED_CFG)
        report = train(model, ts, PLANTED_TC)
        best = report.best_val_accuracy()
        assert best >= 0.95, f"planted-signal best val accuracy {best}"

        shuffled = list(ts.labels.copy())
        Rng(derive_seed(202, "shuffle-labels")).shuffle(shuffled)
        ts_shuffled = TrainingSet(
            history=ts.history,
            labels=np.asarray(shuffled, dtype=np.float32),
            order=ts.order,
        )
        chance_model = MiniCNN(PLANTED_CFG)
        chance_report = train(chance_model, ts_shuffled, PLANTED_TC)
        final = chance_report.final_val_accuracy()
        assert 0.40 <= final <= 0.60, f"shuffled-label final val accuracy {final}"

        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"learning sanity took {elapsed:.0f}s"
        print(f"  planted best {best:.3f}, shuffled final {final:.3f}, {elapsed:.0f}s", end=" ")


def _desk_manifest(out_dir, n=360):
    return manifest_from_dict(
        {
            "master_seed": 42,
            "output_dir": str(out_dir),
            "datasets": [
                {"name": "desk_a", "synth": {"n": n, "volatility": 0.02}},
                {"name": "desk_b", "synth": {"n": n, "volatility": 0.03, "start_price": 40.0}},
            ],
            "arms": [
                {"arm_name": "with_pattern", "model": "two_stream", "include_pattern": True},
                {"arm_name": "non_pattern", "model": "mini_cnn", "include_pattern": False},
            ],
            "model": {
                "hist_hw": [32, 32],
                "pattern_hw": [16, 16],
                "subchart_hw": [16, 16],
                "block_widths": [4, 8],
                "pattern_widths": [4],
                "fc_dim": 16,
                "latent_dim": 16,
            },
            "train": {"epochs": 2, "batch_size": 32},
        }
    )


def test_7_cae_objective(tmp_path):
    with criterion("ACCEPT-7 CAE objective"):
        from candlekit.experiment import build_dataset

        man = _desk_manifest(tmp_path / "out")
        ddir = build_dataset(man, "desk_a")
        ds = assemble_subchart_dataset([ddir], (16, 16), man.render_spec, k=3, stride=1)
        cfg = ModelConfig(
            variant="subchart",
            input_shape=(3, 16, 16),
            block_widths=(4, 8),
            latent_dim=16,
            seed=9,
        )
        model = build_model(cfg)
        report = train(model, ds, TrainConfig(epochs=2, batch_size=32, seed=21))
        first, last = report.cae_mse[0], report.cae_mse[-1]
        assert last <= 0.5 * first, f"MSE {first} -> {last}"
        n = ds.subcharts.shape[0]
        encoded_shape = model.encode(ds.subcharts).shape
        assert encoded_shape == (n, 16, 28)
        print(f"  MSE {first:.4f} -> {last:.4f}, encoded {encoded_shape}", end=" ")


@pytest.fixture(scope="module")
def double_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    man = _desk_manifest(root / "unused")
    report_a = run_experiment(man, out_dir=root / "run_a")
    report_b = run_experiment(man, out_dir=root / "run_b")
    return root, report_a, report_b


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_8_comparison_harness(double_run):
    with criterion("ACCEPT-8 comparison harness"):
        root, report, _ = double_run
        assert report.all_ok()
        assert len(report.rows) == 4  # 2 datasets x 2 arms
        for row in report.rows:
            assert set(row["metrics"]) == {"accuracy", "f1", "auc"}
            assert row["class_balance"]["strong"] + row["class_balance"]["weak"] == row["n_samples"]

        md = (root / "run_a" / "report.md").read_text()
        for arm in ("with_pattern", "non_pattern"):
            assert f"## Arm `{arm}`" in md
        dataset_rows = [l for l in md.splitlines() if l.startswith("| desk_")]
        metric_rows = [r for r in dataset_rows if len(r.split("|")) == 6]
        assert len(metric_rows) >= 4  # one per dataset per arm table
        for line in metric_rows:
            for cell in line.split("|")[2:5]:
                cell = cell.strip()
                assert cell == "n/a" or (("." in cell) and len(cell.split(".")[1]) == 3), line

        a = (root / "run_a" / "report.json").read_bytes()
        b = (root / "run_b" / "report.json").read_bytes()
        assert a == b
        print("  2 datasets x 2 arms, 3-decimal cells, rerun identical", end=" ")


def test_9_end_to_end_determinism(double_run):
    with criterion("ACCEPT-9 determinism"):
        root, _, _ = double_run
        a = _tree_bytes(root / "run_a")
        b = _tree_bytes(root / "run_b")
        assert a.keys() == b.keys()
        diffs = [k for k in a if a[k] != b[k]]
        assert not diffs, f"files differ between runs: {diffs}"
        n_ppm = sum(1 for k in a if k.endswith(".ppm"))
        n_ckpt = sum(1 for k in a if k.endswith(".ckpt"))
        assert n_ppm > 0 and n_ckpt > 0
        print(f"  {len(a)} files byte-identical ({n_ppm} images, {n_ckpt} checkpoints)", end=" ")
