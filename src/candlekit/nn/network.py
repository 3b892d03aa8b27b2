"""Layer stacks with build-time shape validation."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteValue, ShapeMismatch
from ..rng import SplitMix64
from .layers import LayerSpec, Params, backward, forward, init_params, output_shape

def _check_finite(a: np.ndarray, where: str) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"non-finite values after {where}")


class Sequential:
    """A validated chain of layers with one sub-seed per layer position."""

    def __init__(
        self,
        specs: list[LayerSpec],
        input_shape: tuple[int, ...],
        seed: int,
        dtype=np.float32,
    ) -> None:
        self.specs = tuple(specs)
        self.input_shape = tuple(input_shape)
        shapes = [self.input_shape]
        for spec in self.specs:
            shapes.append(output_shape(spec, shapes[-1]))  # raises InvalidShape
        self.shapes = shapes
        self.output_shape = shapes[-1]
        sm = SplitMix64(seed)
        self.params: list[Params] = [init_params(s, sm.next_u64(), dtype) for s in self.specs]

    def forward(self, x: np.ndarray):
        caches = []
        for spec, p in zip(self.specs, self.params):
            x, cache = forward(spec, p, x)
            _check_finite(x, f"forward {type(spec).__name__}")
            caches.append(cache)
        return x, caches

    def predict(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.forward(x)
        return y

    def backward(self, grad: np.ndarray, caches: list, *, _input_grad: bool = True):
        """Gradient w.r.t. the stack's input, accumulating parameter gradients.

        A model passes ``_input_grad=False`` for a tower that takes data: the
        first layer then skips its input gradient and None comes back.
        """
        for i in reversed(range(len(self.specs))):
            spec = self.specs[i]
            grad = backward(spec, self.params[i], caches[i], grad, need_dx=i > 0 or _input_grad)
            if grad is not None:
                _check_finite(grad, f"backward {type(spec).__name__}")
        return grad

    def trainable(self) -> list[Params]:
        return [p for p in self.params if p.has_params]

    def arrays(self) -> list[np.ndarray]:
        """Weights and biases in layer order (checkpoint order)."""
        out: list[np.ndarray] = []
        for p in self.params:
            if p.has_params:
                out.extend((p.weight, p.bias))
        return out

    def set_arrays(self, arrays: list[np.ndarray]) -> None:
        own = self.arrays()
        if len(own) != len(arrays):
            raise ShapeMismatch(f"expected {len(own)} arrays, got {len(arrays)}")
        for dst, src in zip(own, arrays):
            if dst.shape != src.shape:
                raise ShapeMismatch(f"array shape {src.shape} != expected {dst.shape}")
            dst[...] = src.astype(dst.dtype)
