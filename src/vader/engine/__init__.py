"""Minimal deterministic NN engine: layers, focal loss, Adam, checkpoints."""

from .layers import (
    Add,
    Concat,
    Conv,
    GroupNorm,
    Layer,
    MaxPool,
    Network,
    Param,
    ReLU,
    Sigmoid,
    TileFreq,
    TransposedConvTime,
    groupnorm_groups,
    zero_invalid,
)
from .loss import LossConfig, focal_loss
from .optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ParamStore, adam_step
from .checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
