"""Layer specs with forward/backward passes on numpy arrays.

Tensors are plain ndarrays laid out N x C x H x W for images, N x C x L for
sequences, and N x F flat. Convolution is cross-correlation (no kernel
flip) with zero padding; max-pool ties break to the first index in
row-major window order so the backward routing is deterministic. Training
runs in float32; gradient checking builds float64 parameters.

Convolution and max-pool have one implementation for 1-D and 2-D: the spec
classes differ only in their ``rank`` (the number of spatial axes). Conv pads
its input once into a flat zero buffer, where each tap's patch row is one
contiguous slice at the tap's flat offset, and works on the stride-1 grid of
whole padded rows, keeping every stride-th output of each row but its last
k-1. It copies only row patches: one row per channel and leading-axis tap
(for rank 1, the buffer itself), k - 1 columns longer than the grid, so the
last axis's k taps are column shifts of them (a low-memory GEMM lowering, as
in Anderson et al. 2017). Forward is a sum of k batched matmuls, one per
shift; the weight gradient is one matmul per shift, rebuilding the row
patches; the input gradient is the same shifted sum with the kernel flipped on
every axis and in/out swapped, over the output gradient's row patches at the
last tap's offset. Max-pool forward keeps the max of the tap views; backward
adds each output to its first equal tap, row-major.

One shape law, :func:`output_shape`, checks every layer: first the spec's own
sizes (BadSpec), then the input's per-sample shape (InvalidShape). A stack
calls it for each layer at build time, so a stack that would reach a
nonpositive dim fails there; ``forward`` calls it on each batch and raises
ShapeMismatch. Output dims follow floor((in + 2*pad - kernel) / stride) + 1.
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


def _window_dims(spec, spatial: tuple[int, ...], k: int, s: int, p: int) -> tuple:
    """Output spatial dims of a k-wide window at stride s; raises InvalidShape below 1."""
    dims = tuple((n + 2 * p - k) // s + 1 for n in spatial)
    if min(dims) < 1:
        shown = "x".join(map(str, dims))
        raise InvalidShape(f"{type(spec).__name__} would produce {shown} from {spatial}")
    return dims


def _check_spec(spec: LayerSpec) -> None:
    """BadSpec unless ``spec`` is a known layer whose sizes are at least 1 (a conv's ``pad`` at least 0)."""
    if not isinstance(spec, LayerSpec):
        raise BadSpec(f"unknown layer spec {spec!r}")
    low = [k for k, v in vars(spec).items() if not isinstance(v, tuple) and v < (0 if k == "pad" else 1)]
    if low:
        raise BadSpec(f"bad {type(spec).__name__} spec {spec}: {', '.join(low)} too small")


def output_shape(spec: LayerSpec, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape (batch dim excluded); BadSpec for sizes the spec
    itself gets wrong, then InvalidShape for an input it cannot take."""
    _check_spec(spec)
    if isinstance(spec, _CONV):
        if len(in_shape) != spec.rank + 1 or in_shape[0] != spec.in_ch:
            name = type(spec).__name__
            raise InvalidShape(f"{name}({spec.in_ch}ch) cannot take input {in_shape}")
        return (spec.out_ch, *_window_dims(spec, in_shape[1:], spec.kernel, spec.stride, spec.pad))
    if isinstance(spec, _POOL):
        if len(in_shape) != spec.rank + 1:
            name = type(spec).__name__
            raise InvalidShape(f"{name} needs C and {spec.rank} spatial dims, got {in_shape}")
        return (in_shape[0], *_window_dims(spec, in_shape[1:], spec.k, spec.stride, 0))
    if isinstance(spec, Dense):
        if len(in_shape) != 1 or in_shape[0] != spec.n_in:
            raise InvalidShape(f"Dense({spec.n_in}) cannot take input {in_shape}")
        return (spec.n_out,)
    if isinstance(spec, (ReLU, Sigmoid)):
        return in_shape
    if isinstance(spec, Flatten):
        return (math.prod(in_shape),)
    if isinstance(spec, Reshape):
        if math.prod(in_shape) != math.prod(spec.shape):
            raise InvalidShape(f"cannot reshape {in_shape} into {spec.shape}")
        return tuple(spec.shape)
    if len(in_shape) != 3:  # NearestUpsample2D, the one spec left
        raise InvalidShape(f"NearestUpsample2D needs CxHxW input, got {in_shape}")
    return (in_shape[0], in_shape[1] * spec.factor, in_shape[2] * spec.factor)


class Params:
    """One layer's weight and bias as one flat vector, with a same-length
    gradient, Adam moments and step count. ``weight``, ``bias``, ``grad_w``
    and ``grad_b`` are views into ``flat`` and ``grad``."""

    __slots__ = ("flat", "grad", "m", "v", "step", "weight", "bias", "grad_w", "grad_b")

    def __init__(self, weight: np.ndarray, bias: np.ndarray) -> None:
        n = weight.size
        self.flat = np.concatenate([weight.ravel(), bias])
        self.grad, self.m, self.v = (np.zeros_like(self.flat) for _ in range(3))
        self.step = 0
        self.weight, self.bias = self.flat[:n].reshape(weight.shape), self.flat[n:]
        self.grad_w, self.grad_b = self.grad[:n].reshape(weight.shape), self.grad[n:]


def _he_uniform(shape: tuple[int, ...], fan_in: int, seed: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    flat = (2.0 * Rng(seed).uniforms(math.prod(shape)) - 1.0) * bound
    return flat.reshape(shape).astype(dtype)


def init_params(spec: LayerSpec, seed: int, dtype=np.float32) -> Params | None:
    """He-uniform weights (U(-b, b), b = sqrt(6/fan_in)), zero biases; None
    for a layer without parameters. BadSpec, as from :func:`output_shape`, for a
    spec whose own sizes are wrong."""
    _check_spec(spec)
    if isinstance(spec, _CONV):
        taps = (spec.kernel,) * spec.rank
        w = _he_uniform((spec.out_ch, spec.in_ch, *taps), spec.in_ch * math.prod(taps), seed, dtype)
        return Params(w, np.zeros(spec.out_ch, dtype=dtype))
    if isinstance(spec, Dense):
        w = _he_uniform((spec.n_in, spec.n_out), spec.n_in, seed, dtype)
        return Params(w, np.zeros(spec.n_out, dtype=dtype))
    return None


def _taps(k: int, s: int, dims: tuple[int, ...]) -> list[tuple]:
    """Index of each tap's stride-s view with output ``dims``, in row-major tap order."""
    taps = itertools.product(range(k), repeat=len(dims))
    return [(..., *(slice(t, t + s * (d - 1) + 1, s) for t, d in zip(tap, dims))) for tap in taps]


def _interior(buf: np.ndarray, padded: tuple[int, ...], pad: int, spatial: tuple[int, ...]):
    """View (N, C, *spatial) of the unpadded input inside a flat padded buffer."""
    v = buf[..., : math.prod(padded)].reshape(*buf.shape[:2], *padded)
    return v[(..., *(slice(pad, pad + n) for n in spatial))]


def _patches(buf: np.ndarray, k: int, padded: tuple, grid: tuple) -> np.ndarray:
    """Flat padded buffer -> row patches (N, C * k**(rank-1), grid size + k - 1), rank 1 or 2:
    one row per channel and leading-axis tap, whose column shift j is last-axis tap j."""
    row = padded[-1]
    v = sliding_window_view(buf, math.prod(grid) + k - 1, axis=-1)[:, :, : k ** (len(grid) - 1) * row : row]
    return v.reshape(len(buf), -1, v.shape[-1])  # a copy for rank 2; a view of ``buf`` for rank 1


def _shifted(w: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """Sum over j of w[..., j] @ rows[..., j : j + size]: a conv over row patches."""
    out = w[..., 0].reshape(len(w), -1) @ rows[..., :size]
    for j in range(1, w.shape[-1]):
        out += w[..., j].reshape(len(w), -1) @ rows[..., j : j + size]
    return out


def forward(spec: LayerSpec, params: Params | None, x: np.ndarray):
    """Returns (output, cache); cache feeds the matching backward call. ShapeMismatch
    for a batch whose sample shape :func:`output_shape` rejects."""
    try:
        dims = output_shape(spec, x.shape[1:])[1:]
    except InvalidShape as exc:
        raise ShapeMismatch(f"batch {x.shape}: {exc}") from None
    if isinstance(spec, _CONV):
        r, k, s, p = spec.rank, spec.kernel, spec.stride, spec.pad
        padded = tuple(n + 2 * p for n in x.shape[2:])
        grid = (padded[0] - k + 1, *padded[1:])  # stride-1 outputs over whole padded rows
        # the last row patch ends up to k - 1 past the padded input
        buf = np.zeros((*x.shape[:2], math.prod(padded) + k - 1), dtype=x.dtype)
        _interior(buf, padded, p, x.shape[2:])[...] = x
        out = _shifted(params.weight, _patches(buf, k, padded, grid), math.prod(grid))
        out = out.reshape(*out.shape[:2], *grid)[_taps(1, s, dims)[0]]
        return out + params.bias[(slice(None),) + (None,) * r], (x.shape, buf, padded, grid)
    if isinstance(spec, _POOL):
        taps = _taps(spec.k, spec.stride, dims)
        y = x[taps[0]].copy()
        for tap in taps[1:]:
            np.maximum(y, x[tap], out=y)
        return y, (x, y)
    if isinstance(spec, Dense):
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
        f = spec.factor
        return x.repeat(f, axis=2).repeat(f, axis=3), x.shape
    raise BadSpec(f"unknown layer spec {spec!r}")


def backward(spec: LayerSpec, params: Params | None, cache, grad_out: np.ndarray, need_dx: bool = True):
    """Exact reverse-mode gradient; accumulates into params.grad_w/grad_b.
    With ``need_dx`` false it skips the input gradient and returns None."""
    if not need_dx and params is None:
        return None
    if isinstance(spec, _CONV):
        (x_shape, buf, padded, grid), (n, o), k = cache, grad_out.shape[:2], spec.kernel
        last, size = np.ravel_multi_index((k - 1,) * spec.rank, padded), math.prod(grid)
        dbuf = np.zeros((n, o, last + math.prod(padded)), grad_out.dtype)
        dgrid = dbuf[..., last : last + size]  # tap t's patch row: dgrid at -offset(t)
        dgrid.reshape(n, o, *grid)[_taps(1, spec.stride, grad_out.shape[2:])[0]] = grad_out
        rows = _patches(buf, k, padded, grid)
        for j in range(k):
            dw = (dgrid @ rows[..., j : j + size].transpose(0, 2, 1)).sum(0)
            params.grad_w[..., j] += dw.reshape(params.grad_w.shape[:-1])
        params.grad_b += grad_out.reshape(n, o, -1).sum(axis=(0, 2))
        del rows  # released before dx's row patches are built, to keep peak memory down
        if not need_dx:
            return None
        flip = np.flip(params.weight, tuple(range(2, 2 + spec.rank))).swapaxes(0, 1)
        dx = _shifted(flip, _patches(dbuf, k, padded, padded), math.prod(padded))
        return _interior(dx, padded, spec.pad, x_shape[2:])
    if isinstance(spec, _POOL):
        x, y = cache
        dx = np.zeros(x.shape, dtype=grad_out.dtype)
        free = np.ones(y.shape, dtype=bool)  # outputs not yet routed to a tap
        for tap in _taps(spec.k, spec.stride, y.shape[2:]):  # first max in row-major order
            hit = x[tap] == y
            hit &= free
            free ^= hit
            dx[tap] += hit * grad_out  # grad_out is finite, so a miss adds 0
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
