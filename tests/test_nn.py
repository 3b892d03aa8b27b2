import errno
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import DIMS_65, HUGE_ZERO_DIMS, mutated
from oracles import oracle_conv, oracle_maxpool, oracle_optimizer, oracle_upsample_grad

from candlekit import nn
from candlekit.errors import (
    BadSpec,
    CandlekitError,
    CorruptCheckpoint,
    InvalidShape,
    MalformedHeader,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedPixelData,
)

SMOOTH_LAYERS = [
    nn.Conv2D(2, 3, 3),
    nn.Conv2D(2, 3, 3, stride=2, pad=1),
    nn.Conv1D(2, 3, 3, pad=1),
    nn.Conv1D(2, 3, 3, stride=2),
    nn.Conv2D(3, 2, 2, pad=1),
    nn.Conv1D(3, 2, 5, stride=2, pad=1),
    nn.Dense(5, 4),
    nn.Sigmoid(),
    nn.Flatten(),
    nn.Reshape((2, 6)),
    nn.NearestUpsample2D(2),
]
KINKED_LAYERS = [
    nn.ReLU(), nn.MaxPool2D(2, 2), nn.MaxPool2D(3, 2), nn.MaxPool1D(2, 2), nn.MaxPool1D(3, 2)
]


class TestShapeLaw:
    def test_conv_floor_formula(self):
        assert nn.output_shape(nn.Conv2D(3, 8, 3, stride=1, pad=1), (3, 64, 64)) == (8, 64, 64)
        assert nn.output_shape(nn.Conv2D(3, 8, 3, stride=2, pad=0), (3, 7, 7)) == (8, 3, 3)
        assert nn.output_shape(nn.MaxPool2D(2, 2), (8, 5, 5)) == (8, 2, 2)

    def test_nonpositive_dim_fails_at_build(self):
        with pytest.raises(InvalidShape):
            nn.output_shape(nn.Conv2D(3, 8, 5), (3, 4, 4))
        with pytest.raises(InvalidShape):
            nn.Sequential([nn.MaxPool1D(2, 2)] * 6, (4, 28), seed=0)

    def test_channel_mismatch(self):
        # channel counts, then inputs of the other spatial rank
        for spec, in_shape in [
            (nn.Conv2D(3, 8, 3), (4, 8, 8)),
            (nn.Conv1D(3, 8, 3), (4, 8)),
            (nn.Conv1D(3, 8, 3), (3, 8, 8)),
            (nn.MaxPool1D(2, 2), (3, 8, 8)),
            (nn.MaxPool2D(2, 2), (3, 8)),
        ]:
            with pytest.raises(InvalidShape):
                nn.output_shape(spec, in_shape)

    @pytest.mark.parametrize("spec, in_shape", [
        (nn.Conv2D(3, 8, 3, stride=0), (3, 8, 8)),
        (nn.MaxPool2D(2, 0), (3, 8, 8)),
        (nn.Conv1D(3, 8, 0), (3, 8)),
        (nn.Conv2D(3, 8, 3, pad=-1), (3, 8, 8)),
        (nn.MaxPool1D(0, 2), (3, 8)),
        (nn.Dense(0, 2), (0,)),
        (nn.NearestUpsample2D(0), (3, 4, 4)),
    ], ids=["conv2d-stride-0", "maxpool2d-stride-0", "conv1d-kernel-0", "conv2d-pad-negative",
            "maxpool1d-k-0", "dense-n_in-0", "upsample-factor-0"])
    def test_bad_spec_sizes_fail_at_build(self, spec, in_shape):
        # the spec is checked before the shape law divides by its stride
        with pytest.raises(BadSpec):
            nn.Sequential([spec], in_shape, seed=0)
        with pytest.raises(BadSpec):  # before a zero fan-in divides
            nn.init_params(spec, 0)


class TestInit:
    def test_deterministic_per_seed(self):
        a = nn.init_params(nn.Dense(4, 2), seed=9)
        b = nn.init_params(nn.Dense(4, 2), seed=9)
        c = nn.init_params(nn.Dense(4, 2), seed=10)
        assert np.array_equal(a.weight, b.weight)
        assert not np.array_equal(a.weight, c.weight)

    def test_shapes_and_zero_bias(self):
        p = nn.init_params(nn.Dense(4, 2), seed=0)
        assert p.weight.shape == (4, 2) and p.weight.size == 8
        assert p.bias.shape == (2,) and (p.bias == 0).all()
        q = nn.init_params(nn.Conv2D(3, 8, 3), seed=0)
        assert q.weight.shape == (8, 3, 3, 3) and (q.bias == 0).all()

    def test_he_uniform_bound(self):
        p = nn.init_params(nn.Dense(6, 50), seed=5)
        bound = math.sqrt(6.0 / 6)
        assert (np.abs(p.weight) < bound).all()


class TestForward:
    def test_identity_kernel_conv(self):
        spec = nn.Conv2D(1, 1, 1)
        p = nn.init_params(spec, 0)
        p.weight[...] = 1.0
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        y, _ = nn.forward(spec, p, x)
        assert np.array_equal(y, x)

    def test_maxpool_example(self):
        y, _ = nn.forward(nn.MaxPool2D(2, 2), nn.init_params(nn.MaxPool2D(2, 2), 0),
                          np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert y.reshape(()) == 4.0

    def test_dense_hand_example(self):
        spec = nn.Dense(2, 2)
        p = nn.init_params(spec, 0)
        p.weight[...] = np.eye(2)
        p.bias[...] = (1.0, 1.0)
        y, _ = nn.forward(spec, p, np.array([[3.0, -2.0]], dtype=np.float32))
        assert np.allclose(y, [[4.0, -1.0]])

    def test_sigmoid_strictly_inside_unit_interval(self):
        spec = nn.Sigmoid()
        x = np.array([-80.0, -1.0, 0.0, 1.0, 80.0], dtype=np.float32)
        y, _ = nn.forward(spec, nn.init_params(spec, 0), x)
        assert ((y > 0) & (y < 1)).all()

    def test_sigmoid_saturates_inside_the_clip_bounds(self):
        spec = nn.Sigmoid()
        x = np.array([-1e4, -90.0, 0.0, 90.0, 1e4], dtype=np.float32)
        y, _ = nn.forward(spec, nn.init_params(spec, 0), x)
        y64 = y.astype(np.float64)
        assert y.dtype == np.float32 and ((y64 >= 1e-7) & (y64 <= 1 - 1e-7)).all()
        assert y[0] == y[1] and y[3] == y[4] and y[2] == 0.5

    def test_relu_backward_routing(self):
        spec = nn.ReLU()
        p = nn.init_params(spec, 0)
        x = np.array([2.0, -3.0, 0.5])
        y, cache = nn.forward(spec, p, x)
        g = nn.backward(spec, p, cache, np.ones_like(x))
        assert np.array_equal(g, [1.0, 0.0, 1.0])

    def test_relu_keeps_nan(self):
        spec = nn.ReLU()
        y, _ = nn.forward(spec, nn.init_params(spec, 0), np.array([np.nan, -1.0, 2.0]))
        assert np.isnan(y[0]) and np.array_equal(y[1:], [0.0, 2.0])
        net = nn.Sequential([nn.ReLU(), nn.Dense(3, 1)], (3,), seed=0)
        with pytest.raises(NonFiniteValue):
            net.forward(np.array([[np.nan, -1.0, 2.0]], dtype=np.float32))

    def test_maxpool_propagates_nan(self):
        # the first window holds a NaN, the second does not
        for spec, x, second in [
            (nn.MaxPool1D(2, 2), np.array([[[1.0, np.nan, 3.0, 2.0]]]), 3.0),
            (nn.MaxPool2D(2, 2), np.array([[[[1.0, 5.0, 3.0, 2.0], [np.nan, 0, 1.0, 4.0]]]]), 4.0),
        ]:
            y, _ = nn.forward(spec, nn.init_params(spec, 0), x)
            assert np.isnan(y.reshape(-1)[0]) and y.reshape(-1)[1] == second

    def test_shape_mismatch(self):
        spec = nn.Dense(3, 2)
        with pytest.raises(ShapeMismatch):
            nn.forward(spec, nn.init_params(spec, 0), np.zeros((1, 4), dtype=np.float32))

    @pytest.mark.parametrize("spec, shape", [
        (nn.Reshape((5,)), (2, 4)),
        (nn.NearestUpsample2D(2), (2, 3, 4)),
        (nn.MaxPool2D(2, 2), (1, 3, 1, 8)),
        (nn.Conv1D(3, 4, 3), (2, 3, 2)),
    ], ids=["reshape-wrong-size", "upsample-3d", "pool-too-small", "conv-too-small"])
    def test_batch_the_shape_law_rejects(self, spec, shape):
        with pytest.raises(ShapeMismatch):
            nn.forward(spec, nn.init_params(spec, 0), np.zeros(shape, dtype=np.float32))

    def test_dense_weight_gradient_outer_product(self):
        spec = nn.Dense(2, 3)
        p = nn.init_params(spec, 1)
        x = np.array([[1.0, 0.0]])
        _, cache = nn.forward(spec, p, x)
        g_out = np.array([[0.3, -0.7, 2.0]])
        nn.backward(spec, p, cache, g_out)
        assert np.allclose(p.grad_w[0], g_out[0])
        assert np.allclose(p.grad_w[1], 0.0)


class TestGradChecks:
    @pytest.mark.parametrize("spec", SMOOTH_LAYERS, ids=lambda s: type(s).__name__ + repr(s))
    def test_smooth_layers(self, spec):
        for seed in (1, 2, 3):
            assert nn.grad_check(spec, seed) < 1e-6

    @pytest.mark.parametrize("spec", KINKED_LAYERS, ids=lambda s: type(s).__name__ + repr(s))
    def test_kinked_layers(self, spec):
        for seed in (1, 2, 3):
            assert nn.grad_check(spec, seed) < 1e-4

    def test_losses(self):
        for seed in (1, 2, 3):
            assert nn.grad_check_loss("bce", seed) < 1e-4
            assert nn.grad_check_loss("mse", seed) < 1e-4

    def test_overlapping_pool_windows(self):
        assert nn.grad_check(nn.MaxPool2D(3, 1), 7, in_shape=(1, 2, 5, 5)) < 1e-4


ORACLE_DTYPES = [np.float32, np.float64]


def _close(actual, expected, dtype):
    tol = 1e-5 if dtype == np.float32 else 1e-12
    return actual.dtype == dtype and np.allclose(actual, expected, rtol=tol, atol=tol)


def _rows(a, rank):
    """A rank-1 tensor as the oracles' 2-D one over a single row."""
    return a if rank == 2 else a[:, :, None, :]


def _conv_id(c):
    name = f"{type(c).__name__}-s{c.stride}-p{c.pad}"
    first = (c.in_ch, c.out_ch, c.kernel) == (2, 3, 3)  # the original cases keep their ids
    return name if first else f"{name}-{c.in_ch}to{c.out_ch}-k{c.kernel}"


class TestOracles:
    """Conv and max-pool passes, and upsample backward, against longhand loop nests."""

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("spec", [
        cls(2, 3, 3, stride=s, pad=p)
        for cls in (nn.Conv1D, nn.Conv2D) for s in (1, 2) for p in (0, 1)
    ] + [
        # more in than out channels, an even kernel, a kernel wider than the padding
        cls(i, o, k, stride=s, pad=1)
        for cls in (nn.Conv1D, nn.Conv2D) for s in (1, 2)
        for i, o, k in [(3, 2, 3), (2, 3, 2), (3, 2, 5)]
    ], ids=_conv_id)
    def test_conv(self, spec, dtype):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, spec.in_ch, 7, 6)[: spec.rank + 2]).astype(dtype)
        params = nn.init_params(spec, 5, dtype)
        params.bias[...] = rng.standard_normal(spec.out_ch)
        y, cache = nn.forward(spec, params, x)
        g = rng.standard_normal(y.shape).astype(dtype)
        dx = nn.backward(spec, params, cache, g)
        r = spec.rank
        pad = (spec.pad, spec.pad) if r == 2 else (0, spec.pad)
        want = oracle_conv(_rows(x, r).tolist(), _rows(params.weight, r).tolist(),
                           params.bias.tolist(), spec.stride, pad, _rows(g, r).tolist())
        for got, expected in zip((y, dx, params.grad_w, params.grad_b), want):
            assert _close(_rows(got, r) if got.ndim > 1 else got, expected, dtype)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_conv_property(self, data):
        rank, k, stride, pad = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 2), (1, 5), (1, 3), (0, 2)))
        # rows barely wider than the kernel: a tap's column shift runs into the next padded row
        low = max(1, k - 2 * pad)
        width = data.draw(st.integers(low, low + 3))
        height = data.draw(st.sampled_from([h for h in range(low, low + 4) if h != width]))
        c_in, c_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        spec = (nn.Conv1D, nn.Conv2D)[rank - 1](c_in, c_out, k, stride=stride, pad=pad)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal((2, c_in, height, width)[: rank + 1] + (width,))
        params = nn.init_params(spec, 5, np.float64)
        params.bias[...] = rng.standard_normal(c_out)
        y, cache = nn.forward(spec, params, x)
        g = rng.standard_normal(y.shape)
        dx = nn.backward(spec, params, cache, g)
        pad2 = (pad, pad) if rank == 2 else (0, pad)
        want = oracle_conv(_rows(x, rank).tolist(), _rows(params.weight, rank).tolist(),
                           params.bias.tolist(), stride, pad2, _rows(g, rank).tolist())
        for got, expected in zip((y, dx, params.grad_w, params.grad_b), want):
            assert _close(_rows(got, rank) if got.ndim > 1 else got, expected, np.float64)

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("spec", [
        nn.MaxPool1D(2, 2), nn.MaxPool1D(3, 2), nn.MaxPool2D(2, 2), nn.MaxPool2D(3, 2),
        # overlapping windows: one input is a different tap of each window holding it
        nn.MaxPool1D(3, 1), nn.MaxPool2D(3, 1),
    ], ids=lambda m: f"{type(m).__name__}-k{m.k}-s{m.stride}")
    def test_maxpool(self, spec, ties, dtype):
        rng = np.random.default_rng(4)
        shape = (2, 3, 7, 8)[: spec.rank + 2]
        x = (rng.integers(0, 3, shape) if ties else rng.standard_normal(shape)).astype(dtype)
        y, cache = nn.forward(spec, nn.init_params(spec, 0), x)
        g = rng.standard_normal(y.shape).astype(dtype)
        dx = nn.backward(spec, nn.init_params(spec, 0), cache, g)
        r = spec.rank
        kh = spec.k if r == 2 else 1
        want = oracle_maxpool(_rows(x, r).tolist(), kh, spec.k, spec.stride, _rows(g, r).tolist())
        assert _close(_rows(y, r), want[0], dtype) and _close(_rows(dx, r), want[1], dtype)

    @pytest.mark.parametrize("dtype", ORACLE_DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_upsample_backward(self, factor, dtype):
        spec = nn.NearestUpsample2D(factor)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4, 5)).astype(dtype)
        y, cache = nn.forward(spec, nn.init_params(spec, 0), x)
        g = rng.standard_normal(y.shape).astype(dtype)
        dx = nn.backward(spec, nn.init_params(spec, 0), cache, g)
        assert _close(dx, oracle_upsample_grad(g.tolist(), factor), dtype)


class TestLosses:
    def test_bce_half_is_ln2(self):
        value, _ = nn.loss_bce(np.array([0.5]), np.array([1.0]))
        assert value == pytest.approx(math.log(2.0), rel=1e-12)

    def test_bce_perfect_prediction_near_zero(self):
        value, _ = nn.loss_bce(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert 0 <= value <= -math.log(1.0 - nn.BCE_EPS) + 1e-12

    def test_mse_examples(self):
        assert nn.loss_mse(np.ones(4), np.ones(4))[0] == 0.0
        value, grad = nn.loss_mse(np.full(4, 3.0), np.full(4, 1.0))
        assert value == 4.0
        assert np.allclose(grad, 2.0 * 2.0 / 4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            nn.loss_bce(np.zeros(3), np.zeros(4))


class TestOptimizers:
    def _dense(self):
        p = nn.init_params(nn.Dense(2, 2), seed=3)
        return p

    def test_zero_gradient_is_noop(self):
        for step in (lambda ps: nn.sgd_step(ps, 0.1), lambda ps: nn.adam_step(ps, 0.1)):
            p = self._dense()
            before = p.weight.copy()
            step([p])
            assert np.array_equal(p.weight, before)

    def test_sgd_example(self):
        p = self._dense()
        p.weight[...] = 1.0
        p.grad_w[...] = 0.5
        nn.sgd_step([p], lr=0.1)
        assert np.allclose(p.weight, 0.95)
        assert (p.grad_w == 0).all()

    def test_adam_first_step_magnitude_is_lr(self):
        p = self._dense()
        p.grad_w[...] = 1.0
        before = p.weight.copy()
        nn.adam_step([p], lr=1e-3)
        # bias-corrected first step: m_hat = v_hat = 1 -> update = lr/(1+eps)
        assert np.allclose(np.abs(before - p.weight), 1e-3, atol=1e-6)
        assert (p.grad_w == 0).all()

    def test_adam_gradients_zeroed_and_t_advances(self):
        p = self._dense()
        p.grad_w[...] = 1.0
        nn.adam_step([p], lr=1e-3)
        assert p.step == 1
        p.grad_w[...] = 1.0
        nn.adam_step([p], lr=1e-3)
        assert p.step == 2

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_steps_equal_the_longhand_oracle(self, kind):
        # three steps on a conv and a dense layer, each element against the
        # weight and bias updated apart in float32; lr is large and not a power
        # of two, so a reordered product or sum changes some weight's last bit
        step = {"adam": nn.adam_step, "sgd": nn.sgd_step}[kind]
        layers = [nn.init_params(nn.Conv2D(2, 3, 3), seed=4), nn.init_params(nn.Dense(5, 2), seed=5)]
        rng = np.random.default_rng(8)
        start = [(list(p.weight.ravel()), list(p.bias)) for p in layers]
        grads = [[] for _ in layers]
        for _ in range(3):
            for p, g in zip(layers, grads):
                gw = rng.standard_normal(p.weight.shape).astype(np.float32)
                gb = rng.standard_normal(p.bias.shape).astype(np.float32)
                p.grad_w[...] = gw
                p.grad_b[...] = gb
                g.append((list(gw.ravel()), list(gb)))
            step(layers, 0.3)
            assert all((p.grad_w == 0).all() and (p.grad_b == 0).all() for p in layers)
        for p, (w0, b0), g in zip(layers, start, grads):
            want_w, want_b = oracle_optimizer(kind, w0, b0, g, 0.3)
            assert p.weight.ravel().tobytes() == np.array(want_w, dtype=np.float32).tobytes()
            assert p.bias.tobytes() == np.array(want_b, dtype=np.float32).tobytes()

    def test_only_conv_and_dense_hold_params(self):
        free = [nn.MaxPool1D(2, 2), nn.MaxPool2D(2, 2), nn.ReLU(), nn.Sigmoid(), nn.Flatten(),
                nn.Reshape((2, 2)), nn.NearestUpsample2D(2)]
        assert all(nn.init_params(spec, 0) is None for spec in free)
        specs = [nn.Conv2D(1, 2, 3, pad=1), nn.ReLU(), nn.MaxPool2D(2, 2), nn.NearestUpsample2D(2),
                 nn.Flatten(), nn.Dense(32, 4), nn.Sigmoid(), nn.Reshape((2, 2))]
        net = nn.Sequential(specs, (1, 4, 4), seed=0)
        assert [id(p) for p in net.trainable()] == [id(net.params[0]), id(net.params[5])]


class TestSequential:
    def test_seeded_determinism(self):
        specs = [nn.Dense(4, 3), nn.ReLU(), nn.Dense(3, 1), nn.Sigmoid()]
        a = nn.Sequential(specs, (4,), seed=11)
        b = nn.Sequential(specs, (4,), seed=11)
        x = np.linspace(-1, 1, 8).reshape(2, 4).astype(np.float32)
        assert np.array_equal(a.predict(x), b.predict(x))

    def test_finite_guard_trips(self):
        specs = [nn.Dense(2, 2)]
        net = nn.Sequential(specs, (2,), seed=0)
        net.params[0].weight[...] = np.inf
        with pytest.raises(NonFiniteValue):
            net.forward(np.ones((1, 2), dtype=np.float32))

    def test_set_arrays_rejects_non_finite_values(self):
        net = nn.Sequential([nn.Dense(2, 2), nn.ReLU(), nn.Dense(2, 1)], (2,), seed=0)
        before = [a.copy() for a in net.arrays()]
        for value in (np.nan, np.inf, -np.inf):
            for i in range(len(before)):
                arrays = [a.copy() for a in before]
                arrays[i].flat[-1] = value
                with pytest.raises(NonFiniteValue):
                    net.set_arrays(arrays)
        assert all(np.array_equal(a, b) for a, b in zip(net.arrays(), before))

    @pytest.mark.parametrize("specs, column, value, expected", [
        ([nn.Dense(2, 1), nn.Sigmoid()], 0, np.inf, [1.0]),
        ([nn.Dense(2, 1), nn.Sigmoid()], 0, -np.inf, [0.0]),
        ([nn.Dense(2, 1), nn.ReLU()], 0, -np.inf, [0.0]),
        ([nn.Dense(2, 2), nn.Reshape((1, 2)), nn.MaxPool1D(2, 2)], 0, -np.inf, [[2.0]]),
    ], ids=["sigmoid-inf", "sigmoid-minus-inf", "relu-minus-inf", "maxpool-minus-inf"])
    def test_inf_written_into_params_can_give_a_finite_prediction(self, specs, column, value, expected):
        # Only a stack's input and output are checked, not each layer: an inf
        # put straight into a layer's weights (not through set_arrays, which
        # rejects it) is absorbed by the layer after it. Training still fails
        # at its first step, because the weight check follows every step.
        net = nn.Sequential(specs, (2,), seed=0)
        net.params[0].weight[...] = 1.0
        net.params[0].weight[:, column] = value
        net.params[0].bias[...] = 0.0
        with np.errstate(all="ignore"):
            out = net.predict(np.ones((1, 2), dtype=np.float32))
        assert np.isfinite(out).all() and np.allclose(out, [expected], atol=1e-6)  # sigmoid clips to 1e-7

    def test_set_arrays_round_trip(self):
        specs = [nn.Conv2D(1, 2, 3, pad=1), nn.ReLU(), nn.Flatten(), nn.Dense(32, 1)]
        a = nn.Sequential(specs, (1, 4, 4), seed=5)
        b = nn.Sequential(specs, (1, 4, 4), seed=6)
        b.set_arrays(a.arrays())
        x = np.random.default_rng(0).random((3, 1, 4, 4)).astype(np.float32)
        assert np.array_equal(a.predict(x), b.predict(x))


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        arrays = [
            np.linspace(-2, 2, 24, dtype=np.float32).reshape(2, 3, 4),
            np.array([1.5], dtype=np.float32),
        ]
        path = tmp_path / "model.ckpt"
        nn.save_arrays(path, arrays)
        back = nn.load_arrays(path)
        assert len(back) == 2
        for a, b in zip(arrays, back):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("stage", ["write", "rename"])
    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch, stage):
        path = tmp_path / "model.ckpt"
        nn.save_arrays(path, [np.ones(3, dtype=np.float32)])
        before = path.read_bytes()
        write_bytes = Path.write_bytes

        def write_half(self, data):  # a disk that fills up part-way through the write
            write_bytes(self, data[: len(data) // 2])
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def refuse(src, dst):
            raise OSError(errno.EACCES, os.strerror(errno.EACCES))

        if stage == "write":
            monkeypatch.setattr(Path, "write_bytes", write_half)
        else:
            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            nn.save_arrays(path, [np.zeros((4, 5), dtype=np.float32)])
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]  # no temp file left

    def test_scalar_and_strided_arrays_keep_their_shape(self):
        arrays = [np.array(2.5, dtype=np.float32), np.arange(12, dtype=np.float32).reshape(3, 4).T]
        back = nn.bytes_to_arrays(nn.arrays_to_bytes(arrays))
        for a, b in zip(arrays, back):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_header_and_truncation_errors(self):
        with pytest.raises(MalformedHeader):
            nn.bytes_to_arrays(b"NOPE" + b"\x00" * 8)
        good = nn.arrays_to_bytes([np.zeros(4, dtype=np.float32)])
        with pytest.raises(TruncatedPixelData):
            nn.bytes_to_arrays(good[:-3])
        overflowing_dims = good[:12] + struct.pack("<5I", 4, 2**16, 2**16, 2**16, 2**16)
        for data in (good[:6], good + b"\x00", overflowing_dims):
            with pytest.raises(CorruptCheckpoint):
                nn.bytes_to_arrays(data)

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.one_of(
            st.just(b""),
            # a valid stream header, then the ndim and dims of a first array
            st.builds(
                lambda count, dims: b"CKPT" + struct.pack(f"<III{len(dims)}I", 1, count, len(dims), *dims),
                st.integers(0, 3),
                st.lists(st.integers(0, 4), max_size=3),
            ),
        ),
        tail=st.binary(max_size=64),
    )
    def test_arbitrary_bytes_give_arrays_or_candlekit_error(self, head, tail):
        data = head + tail
        try:
            arrays = nn.bytes_to_arrays(data)
        except CandlekitError:
            return
        assert nn.arrays_to_bytes(arrays) == data  # an accepted stream is canonical

    @settings(max_examples=300, deadline=None)
    @given(data=mutated(nn.arrays_to_bytes([np.arange(6, dtype=np.float32).reshape(2, 3), np.ones(4, np.float32)]),
                        chunks=(DIMS_65, HUGE_ZERO_DIMS), spots=(8, 12, 48)))  # count, each array's ndim
    def test_mutated_stream_gives_arrays_or_candlekit_error(self, data):
        try:
            assert nn.arrays_to_bytes(nn.bytes_to_arrays(data)) == data
        except CandlekitError:
            pass
