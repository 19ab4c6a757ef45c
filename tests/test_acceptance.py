"""The paper's claims as acceptance criteria, one test per criterion.

Held today: gradient exactness of the whole U-Net.
"""

import numpy as np
import pytest

from conftest import rel_err
from vader.model import VaderConfig, build_vader
from vader.planner import HyperParams, InputKind

#: Raw length 37 is not a multiple of the pooling product 4, so the network's
#: own time padding and cropping sit inside the checked function.
INPUT_SHAPES = {InputKind.RAW: (1, 1, 1, 37), InputKind.SPECTROGRAM: (1, 6, 16, 21)}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("input_kind", list(INPUT_SHAPES), ids=lambda kind: kind.value)
def test_unet_gradient_matches_central_differences(input_kind, seed):
    """Backward of the float64 k3/m2/p2/w4 detector gives the directional
    derivative of ``sum(R * y)`` along 8 random directions over every
    parameter and the input, to 1e-4 relative (central difference, eps 1e-6).
    Biases are random so that no ReLU input sits exactly at its kink, where
    the two one-sided derivatives differ."""
    rng = np.random.default_rng(seed)
    net = build_vader(VaderConfig(HyperParams(input_kind, 3, 2, 2, 4)), dtype=np.float64)
    net.init_params(seed)
    params = net.params()
    for p in params:
        if p.name.endswith(".bias"):
            p.value[...] = rng.normal(0.0, 0.1, p.shape)
    x = rng.normal(size=INPUT_SHAPES[input_kind])
    R = rng.normal(size=x.shape[:1] + (1, 1) + x.shape[-1:])

    net.zero_grads()
    y, ctx = net.forward(x, want_cache=True)
    assert y.shape == R.shape
    dx = net.backward(ctx, R)
    values = [p.value for p in params] + [x]
    bases = [v.copy() for v in values]
    grads = [p.grad.copy() for p in params] + [dx]

    def objective(step, directions):
        for value, base, direction in zip(values, bases, directions):
            np.add(base, step * direction, out=value)
        out = float((net.forward(x) * R).sum())
        for value, base in zip(values, bases):
            value[...] = base
        return out

    eps = 1e-6
    for _ in range(8):
        directions = [rng.normal(size=v.shape) for v in values]
        analytic = sum(float((g * d).sum()) for g, d in zip(grads, directions))
        numeric = (objective(eps, directions) - objective(-eps, directions)) / (2 * eps)
        assert rel_err(analytic, numeric) <= 1e-4, (analytic, numeric)
