"""Receptive-field arithmetic and hyperparameter grid planning.

The models downsample only by max pooling, so the widest input span a
single kernel can see ("maximum receptive field", MRF) is
``kernel_size * pool_size ** pool_steps`` original samples. Comparing that
span against the size of the largest object of interest (one period of the
lowest relevant frequency) classifies a hyperparameter combination before
any training happens.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidConfig
from .simulate import BridgeConfig

_MAX_MRF = 2**63 - 1

#: Default hyperparameter axes for the planning grid.
DEFAULT_KERNEL_SIZES = (3, 5, 7, 9, 11, 13, 15, 17)
DEFAULT_POOL_SIZES = (2, 3, 4, 5)
DEFAULT_POOL_STEPS = (3, 4)
#: Default lowest frequencies (Hz) the detector must resolve ("certain") and
#: that can still carry information ("useful"); each sets an object size.
DEFAULT_F_LOW_CERTAIN = 5.0
DEFAULT_F_LOW_USEFUL = 1.0


class InputKind(enum.Enum):
    RAW = "raw"
    SPECTROGRAM = "spectrogram"


class PlanClass(enum.Enum):
    UNDERFIT = "underfit"
    OK = "ok"
    BEYOND_USEFUL = "beyond_useful"
    INVALID = "invalid"


@dataclass(frozen=True)
class HyperParams:
    """One model configuration: input representation plus the three
    receptive-field-relevant hyperparameters and the channel width."""

    input_kind: InputKind
    kernel_size: int
    pool_size: int
    pool_steps: int
    base_width: int = 16

    def __post_init__(self):
        if self.kernel_size < 1:
            raise InvalidConfig(f"kernel_size must be >= 1, got {self.kernel_size}")
        if self.pool_size < 2:
            raise InvalidConfig(f"pool_size must be >= 2, got {self.pool_size}")
        if self.pool_steps < 0:
            raise InvalidConfig(f"pool_steps must be >= 0, got {self.pool_steps}")
        if self.base_width < 1:
            raise InvalidConfig(f"base_width must be >= 1, got {self.base_width}")
        mrf(self.kernel_size, self.pool_size, self.pool_steps)  # refuses a field beyond 2^63-1

    @property
    def valid(self) -> bool:
        """Upsampling can only interpolate when the kernel spans more than
        one pooled input value, i.e. kernel_size > pool_size; a 'same'
        convolution centres its kernel, so kernel_size is odd."""
        return self.kernel_size > self.pool_size and self.kernel_size % 2 == 1

    @property
    def mrf(self) -> int:
        return mrf(self.kernel_size, self.pool_size, self.pool_steps)


@dataclass(frozen=True)
class PlanEntry:
    hyper: HyperParams
    classification: PlanClass


def mrf(kernel_size: int, pool_size: int, pool_steps: int) -> int:
    """Maximum receptive field in original samples: kernel_size * pool_size ** pool_steps,
    multiplied out one step at a time and refused at the first product beyond 2^63-1:
    at most 63 steps past a kernel size >= 1 at a pool size >= 2, as HyperParams holds them."""
    value = kernel_size
    for _ in range(pool_steps):
        if value > _MAX_MRF:
            break
        value *= pool_size
    if value > _MAX_MRF:
        raise InvalidConfig(f"receptive field {kernel_size}*{pool_size}^{pool_steps} exceeds 2^63-1")
    return value


def object_size(sample_rate: float, lowest_frequency: float) -> int:
    """Samples spanned by one period of the lowest frequency of interest,
    rounded up."""
    if not (0 < lowest_frequency < math.inf and 0 < sample_rate < math.inf):
        raise InvalidConfig(
            f"sample_rate and lowest_frequency must be finite and > 0, got {sample_rate}, {lowest_frequency}"
        )
    if lowest_frequency > sample_rate:
        raise InvalidConfig(
            f"lowest_frequency {lowest_frequency} exceeds sample_rate {sample_rate}"
        )
    if math.isinf(sample_rate / lowest_frequency):
        raise InvalidConfig(f"sample_rate {sample_rate} / lowest_frequency {lowest_frequency} is not finite")
    return math.ceil(sample_rate / lowest_frequency)


def classify(
    hyper: HyperParams, sample_rate: float, f_low_certain: float, f_low_useful: float
) -> PlanClass:
    """Classify one hyperparameter combination against the object sizes.

    ``f_low_certain`` is the lowest frequency the model must resolve;
    ``f_low_useful`` the lowest frequency that can still carry information.
    """
    if not hyper.valid:
        return PlanClass.INVALID
    field = hyper.mrf
    if field < object_size(sample_rate, f_low_certain):
        return PlanClass.UNDERFIT
    if field > object_size(sample_rate, f_low_useful):
        return PlanClass.BEYOND_USEFUL
    return PlanClass.OK


def plan_grid(
    kernel_sizes=DEFAULT_KERNEL_SIZES,
    pool_sizes=DEFAULT_POOL_SIZES,
    pool_steps=DEFAULT_POOL_STEPS,
    sample_rate: float = BridgeConfig.sample_rate,
    f_low_certain: float = DEFAULT_F_LOW_CERTAIN,
    f_low_useful: float = DEFAULT_F_LOW_USEFUL,
) -> list[PlanEntry]:
    """Enumerate and classify the full hyperparameter grid.

    The Cartesian product of both input kinds and the given axes, at the
    default base width, is classified per entry; no combination is dropped,
    so the caller sees invalid and underfitting entries alongside usable
    ones. An empty axis or a repeated value is refused.
    """
    axes = {"kernel_sizes": kernel_sizes, "pool_sizes": pool_sizes, "pool_steps": pool_steps}
    if not all(axes.values()):
        raise InvalidConfig("grid axes must be nonempty")
    for name, axis in axes.items():
        repeated = [v for i, v in enumerate(axis) if v in axis[:i]]
        if repeated:
            raise InvalidConfig(f"{name} gives {repeated[0]} more than once")
    for frequency in (f_low_certain, f_low_useful):
        object_size(sample_rate, frequency)  # a bad frequency is a data error, before it is compared
    if f_low_useful > f_low_certain:
        raise InvalidConfig(
            f"f_low_useful ({f_low_useful}) must not exceed f_low_certain ({f_low_certain})"
        )
    entries = []
    for kind in InputKind:
        for k in kernel_sizes:
            for m in pool_sizes:
                for p in pool_steps:
                    hyper = HyperParams(kind, k, m, p)
                    entries.append(
                        PlanEntry(
                            hyper=hyper,
                            classification=classify(hyper, sample_rate, f_low_certain, f_low_useful),
                        )
                    )
    return entries
