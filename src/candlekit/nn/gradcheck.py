"""Finite-difference verification of every backward pass.

The check builds a layer in float64, picks a random input and a random
output cotangent G, and compares the analytic gradient of
L = sum(forward(x) * G) against central differences (f(+h) - f(-h)) / 2h
for every element of the input, weights, and bias. Kinked layers (ReLU,
max-pool) get inputs resampled/nudged away from their kinks so the
difference quotient is taken on a smooth branch.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import BadSpec
from ..rng import Rng, derive_seed
from .layers import (
    _CONV,
    _POOL,
    Dense,
    LayerSpec,
    NearestUpsample2D,
    ReLU,
    Reshape,
    backward,
    forward,
    init_params,
)
from .losses import loss_bce, loss_mse

_SPATIAL = {1: (10,), 2: (6, 6)}


def default_input_shape(spec: LayerSpec) -> tuple[int, ...]:
    """Small batched input shape suited to each layer type."""
    if isinstance(spec, _CONV):
        return (1, spec.in_ch) + _SPATIAL[spec.rank]
    if isinstance(spec, _POOL):
        return (1, 2) + _SPATIAL[spec.rank]
    if isinstance(spec, Dense):
        return (2, spec.n_in)
    if isinstance(spec, NearestUpsample2D):
        return (1, 2, 3, 3)
    if isinstance(spec, Reshape):
        return (2,) + tuple(spec.shape)
    return (2, 3, 4)  # ReLU / Sigmoid / Flatten take anything


def _uniform_array(rng: Rng, shape: tuple[int, ...]) -> np.ndarray:
    return (2.0 * rng.uniforms(math.prod(shape)) - 1.0).reshape(shape)


def _avoid_relu_kink(x: np.ndarray, h: float) -> np.ndarray:
    margin = 10.0 * h
    near = np.abs(x) < margin
    sign = np.where(x >= 0, 1.0, -1.0)
    return np.where(near, sign * margin, x)


def _pool_windows(spec, x: np.ndarray) -> np.ndarray:
    """Pool windows flattened row-major: (N, C, *out, k**rank)."""
    v = sliding_window_view(x, (spec.k,) * spec.rank, axis=tuple(range(2, 2 + spec.rank)))
    v = v[(slice(None), slice(None)) + (slice(None, None, spec.stride),) * spec.rank]
    return v.reshape(*v.shape[: 2 + spec.rank], -1)


def _pool_windows_ok(spec, x: np.ndarray, h: float) -> bool:
    top2 = np.sort(_pool_windows(spec, x), axis=-1)[..., -2:]
    return bool((top2[..., 1] - top2[..., 0] > 10.0 * h).all())


def _sample_input(spec: LayerSpec, seed: int, h: float, shape: tuple[int, ...]) -> np.ndarray:
    for attempt in range(100):
        rng = Rng(derive_seed(seed, f"input{attempt}"))
        x = _uniform_array(rng, shape)
        if isinstance(spec, ReLU):
            return _avoid_relu_kink(x, h)
        if not isinstance(spec, _POOL) or _pool_windows_ok(spec, x, h):
            return x
    raise BadSpec(f"could not sample a kink-free input for {spec} after 100 tries")


def _max_rel_error(objective, targets, analytic, h: float) -> float:
    """Max relative error of each analytic gradient vs central differences of
    ``objective`` over every element of the matching target array."""
    max_err = 0.0
    for arr, grad in zip(targets, analytic):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = objective()
            flat[i] = orig - h
            f_minus = objective()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-8)
            max_err = max(max_err, err)
    return max_err


def grad_check(
    spec: LayerSpec,
    seed: int,
    h: float = 1e-5,
    in_shape: tuple[int, ...] | None = None,
) -> float:
    """Max relative error of backward vs central differences (float64)."""
    shape = in_shape if in_shape is not None else default_input_shape(spec)
    params = init_params(spec, derive_seed(seed, "params"), dtype=np.float64)
    x = _sample_input(spec, seed, h, shape)
    g_rng = Rng(derive_seed(seed, "cotangent"))

    y, cache = forward(spec, params, x)
    g_out = _uniform_array(g_rng, y.shape)

    dx = backward(spec, params, cache, g_out)
    analytic = [dx]
    if params.has_params:
        analytic.extend((params.grad_w.copy(), params.grad_b.copy()))
        params.grad_w[...] = 0
        params.grad_b[...] = 0

    def objective() -> float:
        out, _ = forward(spec, params, x)
        return float(np.sum(out * g_out))

    targets = [x] + ([params.weight, params.bias] if params.has_params else [])
    return _max_rel_error(objective, targets, analytic, h)


def grad_check_loss(kind: str, seed: int, h: float = 1e-5, n: int = 16) -> float:
    """Finite-difference check of a loss gradient ('bce' or 'mse')."""
    rng = Rng(derive_seed(seed, f"loss-{kind}"))
    if kind == "bce":
        x = 0.05 + 0.9 * rng.uniforms(n)
        targets = (rng.uniforms(n) < 0.5).astype(np.float64)
        loss = loss_bce
    elif kind == "mse":
        x = _uniform_array(rng, (n,))
        targets = _uniform_array(rng, (n,))
        loss = loss_mse
    else:
        raise BadSpec(f"unknown loss kind {kind!r}")

    _, grad = loss(x, targets)
    return _max_rel_error(lambda: loss(x, targets)[0], [x], [grad], h)
