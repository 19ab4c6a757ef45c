"""Binary focal loss on probabilities with padding masks.

The per-sample loss is ``-w * (1 - p_t)**gamma * log(p_t)`` with
``p_t = p`` for positive labels and ``1 - p`` otherwise; ``w`` weights
positives by ``alpha`` and leaves negatives at 1, so ``gamma=0, alpha=1``
reduces exactly to binary cross-entropy. Probabilities are clamped to
``[PROB_EPS, 1 - PROB_EPS]`` before taking logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig, ShapeMismatch
from .layers import PROB_EPS


@dataclass(frozen=True)
class LossConfig:
    gamma: float = 2.5
    alpha: float = 0.25

    def __post_init__(self):
        if self.gamma < 0:
            raise InvalidConfig(f"gamma must be >= 0, got {self.gamma}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidConfig(f"alpha must be in (0, 1], got {self.alpha}")


def focal_loss(probs, labels, cfg: LossConfig, mask=None):
    """Masked-mean focal loss and its gradient with respect to ``probs``.

    ``mask`` marks valid (non-padded) positions; None means all valid.
    Returns ``(loss, dprobs)`` where ``dprobs`` is zero at masked positions.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ShapeMismatch(f"probs {p.shape} vs labels {y.shape}")
    if mask is None:
        mask = np.ones_like(p)
    else:
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != p.shape:
            raise ShapeMismatch(f"probs {p.shape} vs mask {mask.shape}")
    total = mask.sum()
    if total <= 0:
        raise ShapeMismatch("mask selects no samples")

    pos = y.astype(bool)
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    pt = np.where(pos, pc, 1.0 - pc)
    w = np.where(pos, cfg.alpha, 1.0)
    one_m = 1.0 - pt
    focal = one_m**cfg.gamma
    per = -w * focal * np.log(pt)
    loss = float((per * mask).sum() / total)

    # d per / d pt; finite at gamma == 0 too, because one_m >= PROB_EPS
    dpt = w * (cfg.gamma * one_m ** (cfg.gamma - 1.0) * np.log(pt) - focal / pt)
    dp = np.where(pos, dpt, -dpt) * mask / total
    return loss, dp
