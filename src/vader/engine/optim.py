"""Adam with bias correction over a network's parameter list."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7


class ParamStore:
    """Parameters plus their first/second moment accumulators and step count."""

    def __init__(self, params):
        self.params = list(params)
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]
        self.step_count = 0


def adam_step(store: ParamStore, learning_rate: float) -> None:
    """One bias-corrected Adam update from each parameter's ``grad`` buffer."""
    store.step_count += 1
    t = store.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for p, m, v in zip(store.params, store.m, store.v):
        g = p.grad
        if g.shape != p.value.shape:
            raise ShapeMismatch(f"{p.name}: grad {g.shape} vs value {p.value.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.value -= learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
