"""Layer specs with forward/backward passes on numpy arrays.

Tensors are plain ndarrays laid out N x C x H x W for images, N x C x L for
sequences, and N x F flat. Convolution is cross-correlation (no kernel
flip) with zero padding; max-pool ties break to the first index in
row-major window order so the backward routing is deterministic. Training
runs in float32; gradient checking builds float64 parameters.

Convolution and max-pool have one implementation for 1-D and 2-D: the
spec classes differ only in their ``rank`` (the number of spatial axes),
and every pass slides one k^rank window over the trailing axes.
Conv lowers to channel-first im2col patches (N, C*k^rank, positions), so
forward is one batched matmul; backward rebuilds the patches (no cache),
and conv and max-pool route input gradients with one strided add per tap.

Output dims follow floor((in + 2*pad - kernel) / stride) + 1; a stack that
would reach a nonpositive dim fails at build time with InvalidShape rather
than at some later forward pass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import BadSpec, InvalidShape, ShapeMismatch
from ..rng import Rng


@dataclass(frozen=True)
class Conv2D:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    pad: int = 0
    rank: ClassVar[int] = 2


@dataclass(frozen=True)
class Conv1D:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    pad: int = 0
    rank: ClassVar[int] = 1


@dataclass(frozen=True)
class MaxPool2D:
    k: int
    stride: int
    rank: ClassVar[int] = 2


@dataclass(frozen=True)
class MaxPool1D:
    k: int
    stride: int
    rank: ClassVar[int] = 1


@dataclass(frozen=True)
class Dense:
    n_in: int
    n_out: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class Sigmoid:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class Reshape:
    shape: tuple[int, ...]


@dataclass(frozen=True)
class NearestUpsample2D:
    factor: int


LayerSpec = (
    Conv2D
    | Conv1D
    | MaxPool2D
    | MaxPool1D
    | Dense
    | ReLU
    | Sigmoid
    | Flatten
    | Reshape
    | NearestUpsample2D
)


_CONV = (Conv1D, Conv2D)
_POOL = (MaxPool1D, MaxPool2D)


def _out_dim(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


def _window_dims(spec, spatial: tuple[int, ...], k: int, s: int, p: int, error) -> tuple:
    """Output spatial dims of a k-wide window at stride s; raises ``error`` below 1."""
    dims = tuple(_out_dim(n, k, s, p) for n in spatial)
    if min(dims) < 1:
        shown = "x".join(map(str, dims))
        raise error(f"{type(spec).__name__} would produce {shown} from {spatial}")
    return dims


def output_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape (batch dim excluded); raises InvalidShape."""
    if isinstance(spec, _CONV):
        if len(in_shape) != spec.rank + 1 or in_shape[0] != spec.in_ch:
            name = type(spec).__name__
            raise InvalidShape(f"{name}({spec.in_ch}ch) cannot take input {in_shape}")
        dims = _window_dims(spec, in_shape[1:], spec.kernel, spec.stride, spec.pad, InvalidShape)
        return (spec.out_ch, *dims)
    if isinstance(spec, _POOL):
        if len(in_shape) != spec.rank + 1:
            name = type(spec).__name__
            raise InvalidShape(f"{name} needs C and {spec.rank} spatial dims, got {in_shape}")
        dims = _window_dims(spec, in_shape[1:], spec.k, spec.stride, 0, InvalidShape)
        return (in_shape[0], *dims)
    if isinstance(spec, Dense):
        if len(in_shape) != 1 or in_shape[0] != spec.n_in:
            raise InvalidShape(f"Dense({spec.n_in}) cannot take input {in_shape}")
        return (spec.n_out,)
    if isinstance(spec, (ReLU, Sigmoid)):
        return in_shape
    if isinstance(spec, Flatten):
        return (int(np.prod(in_shape)),)
    if isinstance(spec, Reshape):
        if int(np.prod(in_shape)) != int(np.prod(spec.shape)):
            raise InvalidShape(f"cannot reshape {in_shape} into {spec.shape}")
        return tuple(spec.shape)
    if isinstance(spec, NearestUpsample2D):
        if len(in_shape) != 3:
            raise InvalidShape(f"NearestUpsample2D needs CxHxW input, got {in_shape}")
        return (in_shape[0], in_shape[1] * spec.factor, in_shape[2] * spec.factor)
    raise BadSpec(f"unknown layer spec {spec!r}")


class Params:
    """Weight/bias with same-shape gradient and Adam-moment buffers."""

    __slots__ = ("weight", "bias", "grad_w", "grad_b", "m_w", "v_w", "m_b", "v_b", "step")

    def __init__(self, weight: np.ndarray | None, bias: np.ndarray | None) -> None:
        self.weight = weight
        self.bias = bias
        self.grad_w = np.zeros_like(weight) if weight is not None else None
        self.grad_b = np.zeros_like(bias) if bias is not None else None
        self.m_w = np.zeros_like(weight) if weight is not None else None
        self.v_w = np.zeros_like(weight) if weight is not None else None
        self.m_b = np.zeros_like(bias) if bias is not None else None
        self.v_b = np.zeros_like(bias) if bias is not None else None
        self.step = 0

    @property
    def has_params(self) -> bool:
        return self.weight is not None


def _he_uniform(shape: tuple[int, ...], fan_in: int, seed: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    flat = (2.0 * Rng(seed).uniforms(math.prod(shape)) - 1.0) * bound
    return flat.reshape(shape).astype(dtype)


def init_params(spec: LayerSpec, seed: int, dtype=np.float32) -> Params:
    """He-uniform weights (U(-b, b), b = sqrt(6/fan_in)), zero biases."""
    if isinstance(spec, _CONV):
        if min(spec.in_ch, spec.out_ch, spec.kernel, spec.stride) < 1 or spec.pad < 0:
            raise BadSpec(f"bad {type(spec).__name__} spec {spec}")
        taps = (spec.kernel,) * spec.rank
        w = _he_uniform((spec.out_ch, spec.in_ch, *taps), spec.in_ch * math.prod(taps), seed, dtype)
        return Params(w, np.zeros(spec.out_ch, dtype=dtype))
    if isinstance(spec, Dense):
        if min(spec.n_in, spec.n_out) < 1:
            raise BadSpec(f"bad Dense spec {spec}")
        w = _he_uniform((spec.n_in, spec.n_out), spec.n_in, seed, dtype)
        return Params(w, np.zeros(spec.n_out, dtype=dtype))
    if isinstance(spec, _POOL):
        if min(spec.k, spec.stride) < 1:
            raise BadSpec(f"bad pool spec {spec}")
        return Params(None, None)
    if isinstance(spec, NearestUpsample2D) and spec.factor < 1:
        raise BadSpec(f"bad upsample factor {spec.factor}")
    return Params(None, None)


def _windows(x: np.ndarray, k: int, s: int, rank: int) -> np.ndarray:
    """View (N, C, *out, *[k]*rank) of the k-wide windows at stride s over the last axes."""
    v = sliding_window_view(x, (k,) * rank, axis=tuple(range(2, 2 + rank)))
    return v[(slice(None), slice(None)) + (slice(None, None, s),) * rank]


def _pool_windows(spec: MaxPool1D | MaxPool2D, x: np.ndarray) -> np.ndarray:
    """Pool windows flattened row-major: (N, C, *out, k**rank)."""
    v = _windows(x, spec.k, spec.stride, spec.rank)
    return v.reshape(*v.shape[: 2 + spec.rank], -1)


def _im2col(xp: np.ndarray, k: int, s: int, rank: int) -> np.ndarray:
    """Padded input (N, C, *spatial) -> channel-first patches (N, C * k**rank, prod(out))."""
    order = (0, 1, *range(2 + rank, 2 + 2 * rank), *range(2, 2 + rank))
    v = np.ascontiguousarray(_windows(xp, k, s, rank).transpose(order))
    return v.reshape(xp.shape[0], xp.shape[1] * k**rank, -1)


def forward(spec: LayerSpec, params: Params, x: np.ndarray):
    """Returns (output, cache); cache feeds the matching backward call."""
    if isinstance(spec, _CONV):
        r, k, s, p = spec.rank, spec.kernel, spec.stride, spec.pad
        if x.ndim != r + 2 or x.shape[1] != spec.in_ch:
            name = type(spec).__name__
            raise ShapeMismatch(f"{name} expected (N, {spec.in_ch}, {r} dims), got {x.shape}")
        dims = _window_dims(spec, x.shape[2:], k, s, p, ShapeMismatch)
        xp = np.pad(x, ((0, 0), (0, 0)) + ((p, p),) * r) if p else x
        out = params.weight.reshape(spec.out_ch, -1) @ _im2col(xp, k, s, r)
        out += params.bias[:, None]
        return out.reshape(x.shape[0], spec.out_ch, *dims), (x.shape, xp)
    if isinstance(spec, _POOL):
        if x.ndim != spec.rank + 2:
            name = type(spec).__name__
            raise ShapeMismatch(f"{name} expected {spec.rank + 2}-d input, got {x.shape}")
        _window_dims(spec, x.shape[2:], spec.k, spec.stride, 0, ShapeMismatch)
        vf = _pool_windows(spec, x)
        idx = vf.argmax(axis=-1)
        y = np.take_along_axis(vf, idx[..., None], axis=-1)[..., 0]
        return np.ascontiguousarray(y), (x.shape, idx)
    if isinstance(spec, Dense):
        if x.ndim != 2 or x.shape[1] != spec.n_in:
            raise ShapeMismatch(f"Dense expected (N,{spec.n_in}), got {x.shape}")
        return x @ params.weight + params.bias, x
    if isinstance(spec, ReLU):
        return np.maximum(x, 0), x > 0
    if isinstance(spec, Sigmoid):
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        np.clip(y, 1e-7, 1.0 - 1e-7, out=y)
        return y, y
    if isinstance(spec, Flatten):
        return x.reshape(x.shape[0], -1), x.shape
    if isinstance(spec, Reshape):
        return x.reshape((x.shape[0],) + tuple(spec.shape)), x.shape
    if isinstance(spec, NearestUpsample2D):
        if x.ndim != 4:
            raise ShapeMismatch(f"NearestUpsample2D expected 4-d input, got {x.shape}")
        f = spec.factor
        return x.repeat(f, axis=2).repeat(f, axis=3), x.shape
    raise BadSpec(f"unknown layer spec {spec!r}")


def backward(spec: LayerSpec, params: Params, cache, grad_out: np.ndarray) -> np.ndarray:
    """Exact reverse-mode gradient; accumulates into params.grad_w/grad_b."""
    if isinstance(spec, _CONV):
        x_shape, xp = cache
        r, k, s, p = spec.rank, spec.kernel, spec.stride, spec.pad
        dims = grad_out.shape[2:]
        dout = grad_out.reshape(*grad_out.shape[:2], -1)
        cols = _im2col(xp, k, s, r)
        params.grad_w += (dout @ cols.transpose(0, 2, 1)).sum(0).reshape(params.weight.shape)
        params.grad_b += dout.sum(axis=(0, 2))
        del cols  # released before dcols is allocated, to keep peak memory down
        w_mat = params.weight.reshape(spec.out_ch, -1)
        dcols = (w_mat.T @ dout).reshape(*xp.shape[:2], *(k,) * r, *dims)
        dxp = np.zeros_like(xp)
        for tap in itertools.product(range(k), repeat=r):  # row-major, as the patch layout
            dst = (slice(t, t + s * d, s) for t, d in zip(tap, dims))
            dxp[(slice(None), slice(None), *dst)] += dcols[(slice(None), slice(None), *tap)]
        crop = (slice(p, p + n) for n in x_shape[2:])
        return dxp[(slice(None), slice(None), *crop)] if p else dxp
    if isinstance(spec, _POOL):
        x_shape, idx = cache
        dx = np.zeros(x_shape, dtype=grad_out.dtype)
        taps = itertools.product(range(spec.k), repeat=spec.rank)  # row-major, as argmax's
        for t, tap in enumerate(taps):
            dst = (slice(o, o + spec.stride * d, spec.stride) for o, d in zip(tap, idx.shape[2:]))
            dx[(slice(None), slice(None), *dst)] += np.where(idx == t, grad_out, 0)
        return dx
    if isinstance(spec, Dense):
        x = cache
        params.grad_w += x.T @ grad_out
        params.grad_b += grad_out.sum(axis=0)
        return grad_out @ params.weight.T
    if isinstance(spec, ReLU):
        mask = cache
        return grad_out * mask
    if isinstance(spec, Sigmoid):
        y = cache
        return grad_out * y * (1.0 - y)
    if isinstance(spec, (Flatten, Reshape)):
        return grad_out.reshape(cache)
    if isinstance(spec, NearestUpsample2D):
        f = spec.factor
        n, c, h, w = cache
        return grad_out.reshape(n, c, h, f, w, f).sum(axis=(3, 5))
    raise BadSpec(f"unknown layer spec {spec!r}")
