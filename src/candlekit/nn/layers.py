"""Layer specs with forward/backward passes on numpy arrays.

Tensors are plain ndarrays laid out N x C x H x W for images, N x C x L for
sequences, and N x F flat. Convolution is cross-correlation (no kernel
flip) with zero padding; max-pool ties break to the first index in
row-major window order so the backward routing is deterministic. Training
runs in float32; gradient checking builds float64 parameters.

Convolution and max-pool have one implementation for 1-D and 2-D: the
spec classes differ only in their ``rank`` (the number of spatial axes).
Conv pads its input once into a flat zero buffer (N, C, padded size + a
row - 1), where each tap's patch row is one contiguous slice, and works on
the stride-1 grid of whole padded rows: forward is one batched matmul over
the channel-first patches, keeping every stride-th output of each row but
its last k-1; backward rebuilds the patches (no cache) for the weight
gradient and adds the patch gradient back with one flat add per tap.
Max-pool forward keeps only the max of the k^rank strided tap views;
backward routes each output to its first tap, row-major, equal to it.

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
    Conv2D | Conv1D | MaxPool2D | MaxPool1D | Dense | ReLU | Sigmoid | Flatten | Reshape
    | NearestUpsample2D
)


_CONV = (Conv1D, Conv2D)
_POOL = (MaxPool1D, MaxPool2D)


def _window_dims(spec, spatial: tuple[int, ...], k: int, s: int, p: int, error) -> tuple:
    """Output spatial dims of a k-wide window at stride s; raises ``error`` below 1."""
    dims = tuple((n + 2 * p - k) // s + 1 for n in spatial)
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


def _taps(k: int, s: int, dims: tuple[int, ...]) -> list[tuple]:
    """Index of each tap's stride-s view with output ``dims``, in row-major tap order."""
    taps = itertools.product(range(k), repeat=len(dims))
    return [(..., *(slice(t, t + s * (d - 1) + 1, s) for t, d in zip(tap, dims))) for tap in taps]


def _interior(buf: np.ndarray, padded: tuple[int, ...], pad: int, spatial: tuple[int, ...]):
    """View (N, C, *spatial) of the unpadded input inside a flat padded buffer."""
    v = buf[..., : math.prod(padded)].reshape(*buf.shape[:2], *padded)
    return v[(..., *(slice(pad, pad + n) for n in spatial))]


def _patches(buf: np.ndarray, k: int, padded: tuple, grid: tuple) -> np.ndarray:
    """Flat padded buffer -> channel-first patches (N, C * k**rank, grid size)."""
    n, c, size = *buf.shape[:2], math.prod(grid)
    v = sliding_window_view(buf, size, axis=-1)[:, :, : k * math.prod(padded[1:])]
    v = v.reshape(n, c, k, *padded[1:], size)[(slice(None),) * 3 + (slice(0, k),) * (len(grid) - 1)]
    return v.reshape(n, c * k ** len(grid), size)


def forward(spec: LayerSpec, params: Params, x: np.ndarray):
    """Returns (output, cache); cache feeds the matching backward call."""
    if isinstance(spec, _CONV):
        r, k, s, p = spec.rank, spec.kernel, spec.stride, spec.pad
        if x.ndim != r + 2 or x.shape[1] != spec.in_ch:
            name = type(spec).__name__
            raise ShapeMismatch(f"{name} expected (N, {spec.in_ch}, {r} dims), got {x.shape}")
        dims = _window_dims(spec, x.shape[2:], k, s, p, ShapeMismatch)
        padded = tuple(n + 2 * p for n in x.shape[2:])
        grid = (padded[0] - k + 1, *padded[1:])  # stride-1 outputs over whole padded rows
        # the last taps' slices run up to a row - 1 past the padded input
        buf = np.zeros((*x.shape[:2], math.prod(padded) + math.prod(grid[1:]) - 1), dtype=x.dtype)
        _interior(buf, padded, p, x.shape[2:])[...] = x
        out = params.weight.reshape(spec.out_ch, -1) @ _patches(buf, k, padded, grid)
        out = out.reshape(*out.shape[:2], *grid)[_taps(1, s, dims)[0]]
        return out + params.bias[(slice(None),) + (None,) * r], (x.shape, buf, padded, grid)
    if isinstance(spec, _POOL):
        if x.ndim != spec.rank + 2:
            name = type(spec).__name__
            raise ShapeMismatch(f"{name} expected {spec.rank + 2}-d input, got {x.shape}")
        dims = _window_dims(spec, x.shape[2:], spec.k, spec.stride, 0, ShapeMismatch)
        taps = _taps(spec.k, spec.stride, dims)
        y = x[taps[0]].copy()
        for tap in taps[1:]:
            np.maximum(y, x[tap], out=y)
        return y, (x, y)
    if isinstance(spec, Dense):
        if x.ndim != 2 or x.shape[1] != spec.n_in:
            raise ShapeMismatch(f"Dense expected (N,{spec.n_in}), got {x.shape}")
        return x @ params.weight + params.bias, x
    if isinstance(spec, ReLU):
        return np.maximum(x, 0), x > 0
    if isinstance(spec, Sigmoid):
        y = 0.5 * (1.0 + np.tanh(0.5 * x))  # no mask, and no exp to overflow
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


def backward(spec: LayerSpec, params: Params, cache, grad_out: np.ndarray, need_dx: bool = True):
    """Exact reverse-mode gradient; accumulates into params.grad_w/grad_b.
    With ``need_dx`` false it skips the input gradient and returns None."""
    if not (need_dx or params.has_params):
        return None
    if isinstance(spec, _CONV):
        (x_shape, buf, padded, grid), (n, o) = cache, grad_out.shape[:2]
        dgrid = np.zeros((n, o, math.prod(grid)), dtype=grad_out.dtype)  # 0 off the outputs
        dgrid.reshape(n, o, *grid)[_taps(1, spec.stride, grad_out.shape[2:])[0]] = grad_out
        cols = _patches(buf, spec.kernel, padded, grid)
        params.grad_w += (dgrid @ cols.transpose(0, 2, 1)).sum(0).reshape(params.weight.shape)
        params.grad_b += grad_out.reshape(n, o, -1).sum(axis=(0, 2))
        del cols  # released before dcols is allocated, to keep peak memory down
        if not need_dx:
            return None
        dcols = (params.weight.reshape(o, -1).T @ dgrid).reshape(n, spec.in_ch, -1, dgrid.shape[2])
        dbuf = np.zeros_like(buf)
        taps = np.indices((spec.kernel,) * spec.rank).reshape(spec.rank, -1)  # row-major
        for t, off in enumerate(np.ravel_multi_index(taps, padded)):
            dbuf[..., off : off + dgrid.shape[2]] += dcols[:, :, t]
        return _interior(dbuf, padded, spec.pad, x_shape[2:])
    if isinstance(spec, _POOL):
        x, y = cache
        dx = np.zeros(x.shape, dtype=grad_out.dtype)
        free = np.ones(y.shape, dtype=bool)  # outputs not yet routed to a tap
        for tap in _taps(spec.k, spec.stride, y.shape[2:]):  # first max in row-major order
            hit = free & (x[tap] == y)
            dx[tap] += np.where(hit, grad_out, 0)
            free ^= hit
        return dx
    if isinstance(spec, Dense):
        x = cache
        params.grad_w += x.T @ grad_out
        params.grad_b += grad_out.sum(axis=0)
        return grad_out @ params.weight.T if need_dx else None
    if isinstance(spec, ReLU):
        mask = cache
        return grad_out * mask
    if isinstance(spec, Sigmoid):
        y = cache
        return grad_out * y * (1.0 - y)
    if isinstance(spec, (Flatten, Reshape)):
        return grad_out.reshape(cache)
    if isinstance(spec, NearestUpsample2D):
        dx = np.zeros(cache, dtype=grad_out.dtype)
        for tap in _taps(spec.factor, spec.factor, cache[2:]):  # a sum over f x f windows
            dx += grad_out[tap]
        return dx
    raise BadSpec(f"unknown layer spec {spec!r}")
