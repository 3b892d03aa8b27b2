import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from candlekit import (
    Decomposer,
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
)
from candlekit.errors import (
    BadParams,
    EmptyPartition,
    InvalidShape,
    LengthMismatch,
    NonFiniteValue,
    ShapeMismatch,
)
from candlekit import models
from candlekit.models import _PREDICT_CHUNK, CAEModel, _average_ranks, _fit
from candlekit.nn import Sequential, arrays_to_bytes, loss_mse
from candlekit.rng import Rng

from oracles import oracle_average_ranks, oracle_metrics

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
        history=rng.random((n, 3, hw, hw), dtype=np.float32),
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
        cfg = ModelConfig(variant="subchart", block_widths=(8, 16, 32), latent_dim=8, seq_len=3)
        with pytest.raises(InvalidShape):
            build_model(cfg)

    def test_cnn1d_uses_half_the_blocks(self):
        from candlekit.nn import Conv1D

        cfg = ModelConfig(variant="subchart", block_widths=(8, 16, 32), latent_dim=8, seq_len=28)
        m = build_model(cfg)
        conv_blocks = [s for s in m.cnn1d.towers[0].specs if isinstance(s, Conv1D)]
        assert len(conv_blocks) == 2  # ceil(3 / 2)

    def test_bad_variant(self):
        with pytest.raises(BadParams):
            ModelConfig(variant="perceptron")

    @pytest.mark.parametrize("input_shape", [(3, 16), (3, 16, 16, 16)])
    def test_subchart_input_of_the_wrong_rank_is_an_invalid_shape(self, input_shape):
        # the CAE's bottleneck comes from its own encoder, so a sub-chart that is not
        # (C, H, W) fails the shape law rather than unpacking into three sizes
        cfg = ModelConfig(variant="subchart", input_shape=input_shape)
        with pytest.raises(InvalidShape, match="subchart model"):
            models.check_shapes(cfg)
        with pytest.raises(InvalidShape):
            build_model(cfg)

    def test_check_shapes_names_the_variant_for_a_bad_layer_size(self):
        with pytest.raises(InvalidShape, match="mini_cnn model"):
            models.check_shapes(ModelConfig(variant="mini_cnn", input_shape=(3, 8, 8), fc_dim=0))

    @pytest.mark.parametrize("variant, n_streams", [
        ("mini_cnn", 2), ("two_stream", 1), ("subchart", 2), ("subchart", 0),
    ])
    def test_forward_checks_its_input_tuple(self, variant, n_streams):
        # every model checks the tuple of streams the same way
        model = build_model(replace(TS_CFG, variant=variant, latent_dim=8, seq_len=6))
        x = np.zeros((2, 6, 3, 16, 16) if variant == "subchart" else (2, 3, 16, 16), np.float32)
        with pytest.raises(ShapeMismatch, match="takes a tuple"):
            model.forward((x,) * n_streams)

    @pytest.mark.parametrize("variant, digest", [
        ("mini_cnn", "3c64c56a21e2a74a078401875dfdb5e4495b3218f3cf4366a8c5cad8e36ffa28"),
        ("two_stream", "5b284c7e08551fafa9b119053dff7396162aa44156d063c8681a8fbd77470130"),
        ("subchart", "84a6081a99f7ee0cf51ca1cf16b932d0a001d6c0827e4c478ffec74d334ee17f"),
    ])
    def test_initial_weights_are_pinned(self, variant, digest):
        # Checkpoints of earlier runs load only while stack order, layer
        # order and seed tags stay as they were.
        cfg = replace(TS_CFG, variant=variant, fc_dim=8, latent_dim=8, seq_len=8, seed=5)
        assert hashlib.sha256(arrays_to_bytes(build_model(cfg).arrays())).hexdigest() == digest


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_non_finite_probability_fails(self, value):
        # ranking would put a NaN above every number, where the oracle gives it no credit
        with pytest.raises(NonFiniteValue):
            evaluate([value, 0.2], [1, 0])
        with pytest.raises(LengthMismatch):  # the length check comes first
            evaluate([value, 0.2], [1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        probs = rng.random(40)
        labels = (rng.random(40) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = evaluate(probs, labels).auc
        squeezed = evaluate(0.001 + 0.5 * probs**3, labels).auc
        assert base == pytest.approx(squeezed, abs=1e-12)

    def test_average_ranks_match_the_loop(self):
        # ties share their mean rank, and NaNs rank last in index order, bit for bit
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 300))
            values = np.round(rng.random(n), int(rng.integers(0, 3)))
            values[rng.random(n) < 0.1] = np.nan
            values[rng.random(n) < 0.05] = np.inf
            assert _average_ranks(values).tolist() == oracle_average_ranks(values.tolist())

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


class TestTrain:
    @pytest.mark.parametrize("variant, missing", [
        ("mini_cnn", "history"), ("two_stream", "pattern"), ("subchart", "subcharts"),
    ])
    def test_a_stream_the_model_reads_must_be_in_the_set(self, variant, missing):
        # the set holds every stream but the one this arm's model reads
        model = build_model(replace(TS_CFG, variant=variant, latent_dim=8, seq_len=6))
        rng = np.random.default_rng(8)
        streams = {"history": rng.random((24, 3, 16, 16), dtype=np.float32),
                   "pattern": rng.random((24, 3, 8, 8), dtype=np.float32),
                   "subcharts": rng.random((24, 6, 3, 16, 16), dtype=np.float32)}
        del streams[missing]
        ts = TrainingSet(labels=np.arange(24) % 2.0, order=np.arange(24), **streams)
        with pytest.raises(ShapeMismatch, match=re.escape(f"['{missing}']")):
            train(model, ts, TrainConfig(epochs=1, batch_size=8))
        with pytest.raises(ShapeMismatch, match=re.escape(f"['{missing}']")):
            models.batch_inputs(model, ts, np.arange(4))

    @pytest.mark.parametrize("variant", ["mini_cnn", "two_stream", "subchart"])
    def test_pixel_set_trains_as_its_float32_twin(self, variant):
        # streams fed as uint8 pixels give, bit for bit, what their scaled float32 twins give
        rng = np.random.default_rng(14)
        pixels = TrainingSet(
            history=rng.integers(0, 256, (40, 3, 16, 16), dtype=np.uint8),
            pattern=rng.integers(0, 256, (40, 3, 8, 8), dtype=np.uint8),
            subcharts=rng.integers(0, 256, (40, 6, 3, 16, 16), dtype=np.uint8),
            labels=(rng.random(40) < 0.5).astype(np.float32),
            order=np.arange(40, dtype=np.int64),
        )
        twin = replace(pixels, **{name: models.model_input(getattr(pixels, name))
                                  for name in ("history", "pattern", "subcharts")})
        assert twin.subcharts.dtype == np.float32
        tc = TrainConfig(epochs=2, batch_size=8, seed=15)
        _tr, _va, te = split_indices(pixels.order, pixels.member, tc)
        runs = []
        for ts in (pixels, twin):
            model = build_model(replace(TS_CFG, variant=variant, latent_dim=8, seq_len=6))
            report = train(model, ts, tc)
            runs.append((report.to_json(), model.arrays(), predict(model, models.batch_inputs(model, ts, te))))
        (r1, w1, p1), (r2, w2, p2) = runs
        assert r1 == r2 and ('"cae_mse": []' in r1) == (variant != "subchart")
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(w1 + [p1], w2 + [p2], strict=True))

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
        ts = TrainingSet(history=np.clip(x, 0, 2), labels=labels, order=np.arange(40))
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
        a = predict(model, (ts.history,))
        b = predict(model, (ts.history,))
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

        probs, caches = two.forward((ts.history, ts.pattern))
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
        probs, caches = two.forward((ts.history, ts.pattern))
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
                                        (ts.history, ts.pattern)):
            assert tower.backward(g_t, cache).shape == x.shape
        full = grads()
        assert len(skipped) == len(full) == 2 * len(two.trainable())
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(skipped, full))
        assert all(np.abs(a).sum() > 0 for a in skipped[::2])


class TestTrainSubchartPipeline:
    def test_shapes_and_phase1_progress(self):
        rng = np.random.default_rng(8)
        n, s = 30, 6
        ds = TrainingSet(
            subcharts=rng.random((n, s, 3, 8, 8), dtype=np.float32),
            labels=(rng.random(n) < 0.5).astype(np.float32),
            order=np.arange(n, dtype=np.int64),
        )
        cfg = ModelConfig(variant="subchart", input_shape=(3, 8, 8), block_widths=(4, 8),
                          latent_dim=8, seq_len=s, seed=2)
        model = build_model(cfg)
        report = train(model, ds, TrainConfig(epochs=2, batch_size=16, seed=3))
        assert model.encode(ds.subcharts).shape == (n, 8, s)
        assert len(report.cae_mse) == 3
        assert report.cae_mse[-1] < report.cae_mse[0]
        assert len(report.entries) == 3

    def test_phase2_on_uninformative_labels_sits_at_chance(self):
        # noise images with independent random labels: the classifier has
        # nothing to learn and validation should hug the coin-flip line
        rng = np.random.default_rng(12)
        n, s = 240, 6
        ds = TrainingSet(
            subcharts=rng.random((n, s, 3, 8, 8), dtype=np.float32),
            labels=(rng.random(n) < 0.5).astype(np.float32),
            order=np.arange(n, dtype=np.int64),
        )
        cfg = ModelConfig(variant="subchart", input_shape=(3, 8, 8), block_widths=(4, 8),
                          latent_dim=8, seq_len=s, seed=2)
        report = train(build_model(cfg), ds, TrainConfig(epochs=3, batch_size=32, seed=4))
        assert 0.40 <= report.final_val_accuracy() <= 0.60

    def test_cae_record_ends_are_full_reconstruction_passes(self):
        # [0] and [-1] are the reconstruction MSE over every training crop
        # before and after phase 1, bit for bit what a full forward pass in
        # the same chunks gives (126 crops: not a whole number of chunks);
        # epochs=0 gives one entry each
        rng = np.random.default_rng(9)
        n, s = 30, 6
        ds = TrainingSet(
            subcharts=rng.random((n, s, 3, 8, 8), dtype=np.float32),
            labels=(rng.random(n) < 0.5).astype(np.float32),
            order=np.arange(n, dtype=np.int64),
        )
        cfg = ModelConfig(variant="subchart", input_shape=(3, 8, 8), block_widths=(4, 8),
                          latent_dim=8, seq_len=s, seed=2)
        tc = TrainConfig(epochs=2, batch_size=16, seed=3)
        tr, _va, _te = split_indices(ds.order, ds.member, tc)
        crops = ds.subcharts[tr].reshape((-1, 3, 8, 8))
        assert len(crops) % _PREDICT_CHUNK

        def recon_mse(cae):
            total = 0.0
            for i in range(0, len(crops), _PREDICT_CHUNK):
                chunk = crops[i : i + _PREDICT_CHUNK]
                total += float(np.sum((cae.forward((chunk,))[0] - chunk) ** 2))
            return total / crops.size

        model = build_model(cfg)
        report = train(model, ds, tc)
        assert report.cae_mse[0] == recon_mse(CAEModel(cfg))
        assert report.cae_mse[-1] == recon_mse(model.cae)
        untrained = train(build_model(cfg), ds, replace(tc, epochs=0))
        assert len(untrained.cae_mse) == 1 and len(untrained.entries) == 1

    def test_cae_on_merged_rows_equals_training_on_copied_crops(self):
        # two members split apart, so the training samples are not one
        # contiguous range of rows; the CAE trains on row numbers into a view
        # of the sub-chart array and must match a run on the copied crops
        rng = np.random.default_rng(10)
        n, s = 40, 6
        ds = TrainingSet(
            subcharts=rng.random((n, s, 3, 8, 8), dtype=np.float32),
            labels=(rng.random(n) < 0.5).astype(np.float32),
            order=np.tile(np.arange(n // 2, dtype=np.int64), 2),
            member=np.repeat(np.arange(2, dtype=np.int64), n // 2),
        )
        cfg = ModelConfig(variant="subchart", input_shape=(3, 8, 8), block_widths=(4, 8),
                          latent_dim=8, seq_len=s, seed=2)
        tc = TrainConfig(epochs=2, batch_size=16, seed=3)
        tr, _va, _te = split_indices(ds.order, ds.member, tc)
        assert np.any(np.diff(tr) != 1)

        ref = build_model(cfg)
        cae = ref.cae
        imgs = ds.subcharts[tr].reshape((-1, 3, 8, 8))

        def recon_mse(latent):
            total = 0.0
            for i in range(0, len(imgs), _PREDICT_CHUNK):
                z, x = latent[i : i + _PREDICT_CHUNK], imgs[i : i + _PREDICT_CHUNK]
                total += float(np.sum((cae.head.predict(z) - x) ** 2))
            return total / imgs.size

        first = recon_mse(cae.encode(imgs))
        losses = list(_fit(cae, (imgs,), imgs, range(len(imgs)), loss_mse, tc, "cae-shuffle"))
        latent = ref.encode(ds.subcharts)[tr].transpose(0, 2, 1).reshape(-1, 8)

        model = build_model(cfg)
        report = train(model, ds, tc)
        assert report.cae_mse == [first, *losses[:-1], recon_mse(latent)]
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(model.cae.arrays(), cae.arrays(), strict=True))

    def test_predict_on_raw_stacks_equals_cnn1d_on_encoded_sequences(self):
        # the inference path (encode inside forward, per chunk of samples)
        # against encoding every sample first; 70 rows: not a whole number of chunks
        rng = np.random.default_rng(11)
        n, s = 70, 6
        assert n % _PREDICT_CHUNK
        stacks = rng.random((n, s, 3, 8, 8), dtype=np.float32)
        model = build_model(ModelConfig(variant="subchart", input_shape=(3, 8, 8),
                                        block_widths=(4, 8), latent_dim=8, seq_len=s, seed=5))
        assert isinstance(model, Decomposer)
        probs = predict(model, (stacks,))
        assert probs.shape == (n,)
        assert np.array_equal(probs, predict(model.cnn1d, (model.encode(stacks),)))

    def test_arrays_are_the_cae_then_the_cnn1d(self):
        model = build_model(ModelConfig(variant="subchart", input_shape=(3, 8, 8),
                                        block_widths=(4, 8), latent_dim=8, seq_len=6, seed=5))
        own = model.arrays()
        parts = model.cae.arrays() + model.cnn1d.arrays()
        assert len(own) == len(parts) and all(a is b for a, b in zip(own, parts))


SUB_CFG = ModelConfig(variant="subchart", input_shape=(3, 8, 8), block_widths=(4, 8),
                      latent_dim=8, seq_len=6, seed=2)
NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])


def _model_and_set(variant):
    """A fresh model and a small random training set for it; row 0 is a training row."""
    if variant == "mini_cnn":
        return MiniCNN(SMALL_CFG), random_training_set(seed=5)
    rng = np.random.default_rng(6)
    return build_model(SUB_CFG), TrainingSet(
        subcharts=rng.random((30, 6, 3, 8, 8), dtype=np.float32),
        labels=(rng.random(30) < 0.5).astype(np.float32),
        order=np.arange(30, dtype=np.int64),
    )


class TestNonFiniteValues:
    # Between them the two models hold Conv2D, Conv1D and Dense weights, and
    # their layers after those include ReLU, max-pool, upsample and sigmoid.
    # Injections run under errstate: numpy warns on inf - inf and 0 * inf, and
    # the test settings turn that warning into an error.
    @NON_FINITE
    @pytest.mark.parametrize("variant", ["mini_cnn", "subchart"])
    def test_non_finite_input_fails_training(self, variant, value):
        model, ts = _model_and_set(variant)
        getattr(ts, model.reads[0])[0].flat[7] = value
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
            train(model, ts, TrainConfig(epochs=1, batch_size=8))

    @NON_FINITE
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("variant", ["mini_cnn", "subchart"])
    def test_non_finite_weight_fails_training_by_its_first_step(self, monkeypatch, variant, optimizer,
                                                                  value):
        # One trainable layer at a time. A forward pass catches most cases
        # before any step (a NaN output); the rest must raise right after the
        # poisoned layer's first step, with no forward pass in between.
        events = []  # "forward", or per step whether it updated the poisoned layer
        real_forward, real_step = Sequential.forward, getattr(models, f"{optimizer}_step")

        def forward(stack, x):
            events.append("forward")
            return real_forward(stack, x)

        def step(params, lr):
            events.append(any(p is poisoned for p in params))
            real_step(params, lr)

        monkeypatch.setattr(Sequential, "forward", forward)
        monkeypatch.setattr(models, f"{optimizer}_step", step)
        for layer in range(len(_model_and_set(variant)[0].trainable())):
            model, ts = _model_and_set(variant)
            poisoned = model.trainable()[layer]
            poisoned.weight.flat[0] = value
            events.clear()
            with np.errstate(all="ignore"), pytest.raises(NonFiniteValue):
                train(model, ts, TrainConfig(epochs=1, batch_size=8, optimizer=optimizer))
            assert True not in events or events.index(True) == len(events) - 1

    @NON_FINITE
    @pytest.mark.parametrize("variant", ["mini_cnn", "subchart"])
    def test_set_arrays_rejects_a_non_finite_array(self, variant, value):
        model = _model_and_set(variant)[0]
        arrays = [a.copy() for a in model.arrays()]
        arrays[-1].flat[0] = value
        with pytest.raises(NonFiniteValue):
            model.set_arrays(arrays)
