from dataclasses import replace

import numpy as np
import pytest

from candlekit import (
    SubchartDataset,
    MiniCNN,
    ModelConfig,
    TrainConfig,
    TrainingSet,
    TwoStream,
    build_model,
    evaluate,
    predict,
    split_indices,
    train,
    train_subchart_pipeline,
)
from candlekit.errors import (
    BadParams,
    EmptyPartition,
    InvalidShape,
    LengthMismatch,
)
from candlekit.models import CAEModel
from candlekit.rng import Rng

from oracles import oracle_metrics

SMALL_CFG = ModelConfig(
    variant="mini_cnn", input_shape=(3, 16, 16), block_widths=(4, 8), fc_dim=16, seed=3
)
TS_CFG = ModelConfig(
    variant="two_stream",
    input_shape=(3, 16, 16),
    block_widths=(4, 8),
    fc_dim=16,
    pattern_shape=(3, 8, 8),
    pattern_widths=(4,),
    seed=4,
)


def random_training_set(n=24, seed=0, hw=16, two_stream=False):
    rng = np.random.default_rng(seed)
    return TrainingSet(
        inputs=rng.random((n, 3, hw, hw), dtype=np.float32),
        labels=(rng.random(n) < 0.5).astype(np.float32),
        order=np.arange(n, dtype=np.int64),
        pattern=rng.random((n, 3, 8, 8), dtype=np.float32) if two_stream else None,
    )


class TestBuildModel:
    def test_mini_cnn_shape_trace(self):
        cfg = ModelConfig(variant="mini_cnn", input_shape=(3, 64, 64), block_widths=(8, 16, 32))
        m = MiniCNN(cfg)
        spatial = [s for s in m.towers[0].shapes if len(s) == 3]
        assert spatial[0] == (3, 64, 64)
        assert spatial[-1] == (32, 8, 8)
        assert m.towers[0].shapes[5 * len(cfg.block_widths) + 1] == (2048,)

    def test_two_stream_output_in_unit_interval(self):
        m = TwoStream(TS_CFG)
        rng = np.random.default_rng(1)
        probs, _ = m.forward(
            (rng.random((5, 3, 16, 16), dtype=np.float32), rng.random((5, 3, 8, 8), dtype=np.float32))
        )
        assert probs.shape == (5,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_cnn1d_zero_length_pooling_fails_at_build(self):
        cfg = ModelConfig(variant="cnn1d", block_widths=(8, 16, 32), latent_dim=8, seq_len=3)
        with pytest.raises(InvalidShape):
            build_model(cfg)

    def test_cnn1d_uses_half_the_blocks(self):
        from candlekit.nn import Conv1D

        cfg = ModelConfig(variant="cnn1d", block_widths=(8, 16, 32), latent_dim=8, seq_len=28)
        m = build_model(cfg)
        conv_blocks = [s for s in m.towers[0].specs if isinstance(s, Conv1D)]
        assert len(conv_blocks) == 2  # ceil(3 / 2)

    def test_bad_variant(self):
        with pytest.raises(BadParams):
            ModelConfig(variant="perceptron")


class TestEvaluate:
    def test_perfect_separation(self):
        r = evaluate([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        assert (r.accuracy, r.f1, r.auc) == (1.0, 1.0, 1.0)

    def test_worked_auc_075(self):
        assert evaluate([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]).auc == 0.75

    def test_hand_confusion(self):
        r = evaluate([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0], threshold=0.5)
        assert (r.tp, r.fp, r.fn, r.tn) == (1, 1, 1, 1)
        assert r.accuracy == 0.5 and r.f1 == 0.5
        assert r.n == r.tp + r.fp + r.tn + r.fn == 4

    def test_tie_half_credit(self):
        assert evaluate([0.5, 0.5], [1, 0]).auc == 0.5

    def test_single_class_auc_none_other_metrics_present(self):
        r = evaluate([0.9, 0.1], [1, 1])
        assert r.auc is None and r.accuracy == 0.5

    def test_threshold_is_inclusive(self):
        r = evaluate([0.5], [1], threshold=0.5)
        assert r.tp == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate([0.5, 0.5], [1])
        with pytest.raises(LengthMismatch):
            evaluate([], [])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        probs = rng.random(40)
        labels = (rng.random(40) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = evaluate(probs, labels).auc
        squeezed = evaluate(0.001 + 0.5 * probs**3, labels).auc
        assert base == pytest.approx(squeezed, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 50))
            probs = np.round(rng.random(n), 2)  # rounding provokes ties
            labels = (rng.random(n) < 0.5).astype(int)
            want = oracle_metrics(list(probs), list(labels))
            got = evaluate(probs, labels)
            assert (got.tp, got.fp, got.tn, got.fn) == (
                want["tp"], want["fp"], want["tn"], want["fn"],
            )
            assert got.accuracy == want["accuracy"] and got.f1 == want["f1"]
            assert got.auc == want["auc"]


class TestSplits:
    def test_chronological_ordering(self):
        order = np.array([5, 3, 9, 1, 7, 2, 8, 0, 6, 4])
        tc = TrainConfig(train_frac=0.6, val_frac=0.2)
        tr, va, te = split_indices(order, None, tc)
        assert order[tr].max() < order[va].min() < order[va].max() < order[te].min()
        assert len(tr) + len(va) + len(te) == 10

    def test_merged_members_split_independently(self):
        order = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        member = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        tc = TrainConfig(train_frac=0.6, val_frac=0.2)
        tr, va, te = split_indices(order, member, tc)
        for part, size in ((tr, 3), (va, 1), (te, 1)):
            assert np.sum(member[part] == 0) == size
            assert np.sum(member[part] == 1) == size

    def test_empty_partition(self):
        with pytest.raises(EmptyPartition):
            split_indices(np.arange(3), None, TrainConfig())

    def test_non_chronological_is_seeded(self):
        order = np.arange(40)
        tc = TrainConfig(chronological=False, seed=5)
        a = split_indices(order, None, tc)
        b = split_indices(order, None, tc)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not np.array_equal(np.sort(order[a[0]]), order[a[0]])


class TestTrain:
    def test_epochs_zero_initial_eval_only(self):
        ts = random_training_set(seed=1)
        model = MiniCNN(SMALL_CFG)
        report = train(model, ts, TrainConfig(epochs=0, batch_size=8))
        assert len(report.entries) == 1
        assert report.entries[0].epoch == 0 and report.entries[0].train_loss is None

    def test_deterministic_end_to_end(self):
        ts = random_training_set(seed=2)
        tc = TrainConfig(epochs=2, batch_size=8, seed=13)
        runs = []
        for _ in range(2):
            model = MiniCNN(SMALL_CFG)
            report = train(model, ts, tc)
            runs.append((report, [a.copy() for a in model.arrays()]))
        (r1, w1), (r2, w2) = runs
        assert r1.to_json() == r2.to_json()
        assert all(np.array_equal(a, b) for a, b in zip(w1, w2))

    def test_loss_decreases_on_learnable_data(self):
        # labels perfectly determined by channel-0 mean
        rng = np.random.default_rng(3)
        x = rng.random((40, 3, 16, 16), dtype=np.float32)
        labels = (x[:, 0].mean(axis=(1, 2)) > 0.5).astype(np.float32)
        x[:, 0] += labels[:, None, None]  # widen the gap
        ts = TrainingSet(inputs=np.clip(x, 0, 2), labels=labels, order=np.arange(40))
        model = MiniCNN(SMALL_CFG)
        report = train(model, ts, TrainConfig(epochs=8, batch_size=8, seed=1))
        losses = [e.train_loss for e in report.entries[1:]]
        assert losses[-1] < losses[0]

    def test_sgd_path(self):
        ts = random_training_set(seed=4)
        model = MiniCNN(SMALL_CFG)
        report = train(model, ts, TrainConfig(epochs=1, batch_size=8, optimizer="sgd", lr=0.01))
        assert len(report.entries) == 2


class TestPredict:
    def test_range_and_determinism(self):
        ts = random_training_set(seed=5)
        model = MiniCNN(SMALL_CFG)
        a = predict(model, (ts.inputs,))
        b = predict(model, (ts.inputs,))
        assert np.array_equal(a, b)
        assert ((a > 0) & (a < 1)).all()


class TestTwoStreamConsistency:
    def test_zeroed_pattern_fusion_reproduces_mini_cnn(self):
        two = TwoStream(TS_CFG)
        mini = MiniCNN(SMALL_CFG)
        # share tower weights, then wire the fusion layer so the pattern
        # features get zero weight
        two.towers[0].set_arrays(mini.towers[0].arrays()[: len(two.towers[0].arrays())])
        mini_head = mini.towers[0].arrays()[len(two.towers[0].arrays()) :]
        d1_w, d1_b, d2_w, d2_b = mini_head
        f_h = two.towers[0].output_shape[0]
        fused_w = np.zeros_like(two.head.params[0].weight)
        fused_w[:f_h] = d1_w
        two.head.params[0].weight[...] = fused_w
        two.head.params[0].bias[...] = d1_b
        two.head.params[2].weight[...] = d2_w
        two.head.params[2].bias[...] = d2_b

        rng = np.random.default_rng(7)
        x_h = rng.random((6, 3, 16, 16), dtype=np.float32)
        x_p = rng.random((6, 3, 8, 8), dtype=np.float32)
        p_two, _ = two.forward((x_h, x_p))
        p_mini, _ = mini.forward((x_h,))
        assert np.max(np.abs(p_two - p_mini)) < 1e-6

    def test_pattern_stream_is_live(self):
        two = TwoStream(TS_CFG)
        ts = random_training_set(n=16, seed=6, two_stream=True)
        from candlekit.nn import loss_bce

        probs, caches = two.forward((ts.inputs, ts.pattern))
        _, grad = loss_bce(probs, ts.labels)
        two.backward(grad, caches)
        norms = [float(np.abs(p.grad_w).sum()) for p in two.towers[1].trainable()]
        assert all(n > 0 for n in norms)

    def test_backward_skips_only_the_tower_input_gradients(self):
        # Model.backward drops each tower's input gradient; the parameter
        # gradients must equal those of a full backward through every tower.
        from candlekit.nn import loss_bce

        two = TwoStream(TS_CFG)
        ts = random_training_set(n=8, seed=9, two_stream=True)
        probs, caches = two.forward((ts.inputs, ts.pattern))
        _, grad = loss_bce(probs, ts.labels)

        def grads():
            out = [a.copy() for p in two.trainable() for a in (p.grad_w, p.grad_b)]
            for p in two.trainable():
                p.grad_w[...] = 0
                p.grad_b[...] = 0
            return out

        two.backward(grad, caches)
        skipped = grads()
        g = two.head.backward(grad.reshape(-1, 1), caches[-1])
        cut = two.towers[0].output_shape[0]
        for tower, g_t, cache, x in zip(two.towers, np.split(g, [cut], axis=1), caches,
                                        (ts.inputs, ts.pattern)):
            assert tower.backward(g_t, cache).shape == x.shape
        full = grads()
        assert len(skipped) == len(full) == 2 * len(two.trainable())
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(skipped, full))
        assert all(np.abs(a).sum() > 0 for a in skipped[::2])


class TestTrainSubchartPipeline:
    def test_shapes_and_phase1_progress(self):
        rng = np.random.default_rng(8)
        n, s = 30, 6
        ds = SubchartDataset(
            subcharts=rng.random((n, s, 3, 8, 8), dtype=np.float32),
            labels=(rng.random(n) < 0.5).astype(np.float32),
            order=np.arange(n, dtype=np.int64),
        )
        cfg = ModelConfig(variant="cae", input_shape=(3, 8, 8), block_widths=(4, 8),
                          latent_dim=8, seq_len=s, seed=2)
        result = train_subchart_pipeline(ds, TrainConfig(epochs=2, batch_size=16, seed=3), cfg)
        assert result.encoded_shape == (n, 8, s)
        assert len(result.cae_epoch_mse) == 3
        assert result.cae_epoch_mse[-1] < result.cae_epoch_mse[0]
        assert len(result.report.entries) == 3

    def test_phase2_on_uninformative_labels_sits_at_chance(self):
        # noise images with independent random labels: the classifier has
        # nothing to learn and validation should hug the coin-flip line
        rng = np.random.default_rng(12)
        n, s = 240, 6
        ds = SubchartDataset(
            subcharts=rng.random((n, s, 3, 8, 8), dtype=np.float32),
            labels=(rng.random(n) < 0.5).astype(np.float32),
            order=np.arange(n, dtype=np.int64),
        )
        cfg = ModelConfig(variant="cae", input_shape=(3, 8, 8), block_widths=(4, 8),
                          latent_dim=8, seq_len=s, seed=2)
        result = train_subchart_pipeline(ds, TrainConfig(epochs=3, batch_size=32, seed=4), cfg)
        assert 0.40 <= result.report.final_val_accuracy() <= 0.60

    def test_cae_record_ends_are_full_reconstruction_passes(self):
        # [0] and [-1] are the reconstruction MSE over every training crop
        # before and after phase 1; epochs=0 gives one entry each
        rng = np.random.default_rng(9)
        n, s = 30, 6
        ds = SubchartDataset(
            subcharts=rng.random((n, s, 3, 8, 8), dtype=np.float32),
            labels=(rng.random(n) < 0.5).astype(np.float32),
            order=np.arange(n, dtype=np.int64),
        )
        cfg = ModelConfig(variant="cae", input_shape=(3, 8, 8), block_widths=(4, 8),
                          latent_dim=8, seq_len=s, seed=2)
        tc = TrainConfig(epochs=2, batch_size=16, seed=3)
        tr, _va, _te = split_indices(ds.order, ds.member, tc)
        crops = ds.subcharts[tr].reshape((-1, 3, 8, 8))

        def recon_mse(cae):
            recon, _ = cae.forward((crops,))
            return float(np.mean(np.square(recon - crops, dtype=np.float64)))

        result = train_subchart_pipeline(ds, tc, cfg)
        assert result.cae_epoch_mse[0] == pytest.approx(recon_mse(CAEModel(cfg)), rel=1e-6)
        assert result.cae_epoch_mse[-1] == pytest.approx(recon_mse(result.cae), rel=1e-6)
        untrained = train_subchart_pipeline(ds, replace(tc, epochs=0), cfg)
        assert len(untrained.cae_epoch_mse) == 1 and len(untrained.report.entries) == 1
