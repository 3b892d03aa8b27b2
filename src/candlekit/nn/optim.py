"""SGD and Adam updates over Params lists: one set of array ops per layer on
its flat weight-and-bias vector; gradients zero after each step."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .layers import Params


def sgd_step(params: Iterable[Params], lr: float) -> None:
    for p in params:
        p.flat -= (lr * p.grad).astype(p.flat.dtype)
        p.grad[...] = 0


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def adam_step(params: Iterable[Params], lr: float) -> None:
    """Adam with bias correction at each Params' own step count."""
    for p in params:
        p.step += 1
        p.m[...] = _BETA1 * p.m + (1.0 - _BETA1) * p.grad
        p.v[...] = _BETA2 * p.v + (1.0 - _BETA2) * p.grad * p.grad
        m_hat = p.m / (1.0 - _BETA1**p.step)
        v_hat = p.v / (1.0 - _BETA2**p.step)
        p.flat -= (lr * m_hat / (np.sqrt(v_hat) + _EPS)).astype(p.flat.dtype)
        p.grad[...] = 0
