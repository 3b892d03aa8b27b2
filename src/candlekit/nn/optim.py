"""SGD and Adam updates over Params lists; gradients zero after each step."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .layers import Params


def sgd_step(params: Iterable[Params], lr: float) -> None:
    for p in params:
        if not p.has_params:
            continue
        p.weight -= (lr * p.grad_w).astype(p.weight.dtype)
        p.bias -= (lr * p.grad_b).astype(p.bias.dtype)
        p.grad_w[...] = 0
        p.grad_b[...] = 0


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def adam_step(params: Iterable[Params], lr: float) -> None:
    """Adam with bias correction at each Params' own step count."""
    for p in params:
        if not p.has_params:
            continue
        p.step += 1
        corr1 = 1.0 - _BETA1**p.step
        corr2 = 1.0 - _BETA2**p.step
        for w, g, m, v in ((p.weight, p.grad_w, p.m_w, p.v_w), (p.bias, p.grad_b, p.m_b, p.v_b)):
            m[...] = _BETA1 * m + (1.0 - _BETA1) * g
            v[...] = _BETA2 * v + (1.0 - _BETA2) * g * g
            m_hat = m / corr1
            v_hat = v / corr2
            w -= (lr * m_hat / (np.sqrt(v_hat) + _EPS)).astype(w.dtype)
            g[...] = 0
