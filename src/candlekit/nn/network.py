"""Layer stacks with build-time shape validation. ``forward`` is the training pass: it
returns every layer's backward cache, and ``backward`` consumes them, freeing each one
once its layer's gradient is out. ``predict`` is the inference pass and keeps no cache.
NaN and inf are checked where values enter (the input and output of ``forward`` and
``predict``, ``set_arrays``) or change (``models._fit``), not per layer: an inf put in
``Params`` by hand can give a finite forward-only output, as ReLU and max-pool drop -inf
and sigmoid maps +-inf to 1 or 0."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteValue, ShapeMismatch
from ..rng import SplitMix64
from .layers import LayerSpec, Params, backward, forward, init_params, output_shape


class Sequential:
    """A validated chain of float32 layers with one sub-seed per layer position."""

    def __init__(
        self,
        specs: list[LayerSpec],
        input_shape: tuple[int, ...],
        seed: int,
    ) -> None:
        self.specs = tuple(specs)
        self.input_shape = tuple(input_shape)
        shapes = [self.input_shape]
        for spec in self.specs:
            shapes.append(output_shape(spec, shapes[-1]))  # raises InvalidShape
        self.shapes = shapes
        self.output_shape = shapes[-1]
        sm = SplitMix64(seed)
        self.params: list[Params | None] = [init_params(s, sm.next_u64()) for s in self.specs]

    def forward(self, x: np.ndarray, *, _keep: bool = True):
        """Output and per-layer caches, for ``backward``; NonFiniteValue on a NaN or inf in the
        input or output.

        The one layer loop: ``predict`` runs it with ``_keep=False``, which drops each layer's
        cache before the next layer runs and gives None for the caches. numpy's overflow and
        invalid-value warnings are silenced in the layers, as the output check that follows
        turns what they warn of into one NonFiniteValue."""
        if not np.isfinite(x).all():
            raise NonFiniteValue("non-finite values in the stack's input")
        caches = [] if _keep else None
        with np.errstate(over="ignore", invalid="ignore"):
            for spec, p in zip(self.specs, self.params):
                x, cache = forward(spec, p, x)
                if _keep:
                    caches.append(cache)
                del cache  # not held while the next layer runs
        if not np.isfinite(x).all():
            raise NonFiniteValue("non-finite values in the stack's output")
        return x, caches

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``forward``'s output, keeping no cache."""
        return self.forward(x, _keep=False)[0]

    def backward(self, grad: np.ndarray, caches: list, *, _input_grad: bool = True):
        """Gradient w.r.t. the stack's input, accumulating parameter gradients.

        Consumes ``caches`` from ``forward``: each slot is set to None once its layer's
        gradient is out, so a layer's cache is not alive in the backward of the layers
        before it, and the list cannot feed a second backward.

        A model passes ``_input_grad=False`` for a tower that takes data: the
        first layer then skips its input gradient and None comes back.
        """
        for i in reversed(range(len(self.specs))):
            grad = backward(self.specs[i], self.params[i], caches[i], grad, need_dx=i > 0 or _input_grad)
            caches[i] = None
        return grad

    def trainable(self) -> list[Params]:
        return [p for p in self.params if p is not None]

    def arrays(self) -> list[np.ndarray]:
        """Weights and biases in layer order (checkpoint order)."""
        return [a for p in self.trainable() for a in (p.weight, p.bias)]

    def set_arrays(self, arrays: list[np.ndarray]) -> None:
        """Copy ``arrays`` into ``arrays()``'s views; NonFiniteValue on a NaN or inf. Shared by ``Model``."""
        own = self.arrays()
        if len(own) != len(arrays):
            raise ShapeMismatch(f"expected {len(own)} arrays, got {len(arrays)}")
        for dst, src in zip(own, arrays):
            if dst.shape != src.shape:
                raise ShapeMismatch(f"array shape {src.shape} != expected {dst.shape}")
            if not np.isfinite(src).all():
                raise NonFiniteValue(f"non-finite values in a loaded array of shape {src.shape}")
            dst[...] = src.astype(dst.dtype)
