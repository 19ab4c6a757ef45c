"""Continuous wavelet transform producing the spectrogram input stack.

Three mother wavelet families, two scale ranges each, 16 linearly spaced
scales per range (endpoints included) give six 16-row scalograms that are
stacked into a (16, 6, n) tensor, row-major in the order of
``DEFAULT_STACK``. Complex families contribute their modulus so the stack
is real.

Each row is the signal correlated with the conjugate mother wavelet dilated
to that scale and normalised by 1/sqrt(scale). Wavelets are sampled at unit
steps over [-8*scale, +8*scale] and truncated where the amplitude falls
below 1e-8 of the peak; same-length output comes from symmetric boundary
padding.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch, ValidationError

WAVELET_HALF_WIDTH = 8.0
TRUNCATION_RATIO = 1e-8
N_SCALES = 16

STACK_MAGIC = b"VSTK"
STACK_VERSION = 1


class WaveletFamily(enum.Enum):
    COMPLEX_GAUSSIAN_1 = "complex_gaussian_1"
    GAUSSIAN_1 = "gaussian_1"
    FREQUENCY_BSPLINE = "frequency_bspline"


@dataclass(frozen=True)
class WaveletSpec:
    family: WaveletFamily
    scale_lower: float
    scale_upper: float

    def __post_init__(self):
        if not 0 < self.scale_lower < self.scale_upper:
            raise ValueError(f"need 0 < lower < upper, got {self.scale_lower}, {self.scale_upper}")

    def scales(self) -> np.ndarray:
        return np.linspace(self.scale_lower, self.scale_upper, N_SCALES)


#: The six (family, scale range) pairs of the stack, in channel order.
DEFAULT_STACK: tuple[WaveletSpec, ...] = (
    WaveletSpec(WaveletFamily.COMPLEX_GAUSSIAN_1, 1.0, 8.0),
    WaveletSpec(WaveletFamily.COMPLEX_GAUSSIAN_1, 8.0, 50.0),
    WaveletSpec(WaveletFamily.GAUSSIAN_1, 0.6, 6.5),
    WaveletSpec(WaveletFamily.GAUSSIAN_1, 6.5, 35.0),
    WaveletSpec(WaveletFamily.FREQUENCY_BSPLINE, 1.5, 10.0),
    WaveletSpec(WaveletFamily.FREQUENCY_BSPLINE, 10.0, 40.0),
)


def mother_wavelet(family: WaveletFamily, x: np.ndarray) -> np.ndarray:
    """Evaluate the mother wavelet on dimensionless positions ``x``."""
    if family is WaveletFamily.GAUSSIAN_1:
        return -2.0 * x * np.exp(-(x**2))
    if family is WaveletFamily.COMPLEX_GAUSSIAN_1:
        return (-1j - 2.0 * x) * np.exp(-1j * x - x**2)
    if family is WaveletFamily.FREQUENCY_BSPLINE:
        # order 1, bandwidth 1, center frequency 1
        return np.sinc(x) * np.exp(2j * np.pi * x)
    raise ValueError(family)


def _sampled_wavelet(family: WaveletFamily, scale: float) -> np.ndarray:
    half = int(np.floor(WAVELET_HALF_WIDTH * scale))
    u = np.arange(-half, half + 1, dtype=np.float64)
    psi = mother_wavelet(family, u / scale)
    amp = np.abs(psi)
    keep = np.flatnonzero(amp >= TRUNCATION_RATIO * amp.max())
    lo, hi = keep[0], keep[-1]
    # keep the support symmetric around zero
    margin = min(lo, psi.size - 1 - hi)
    return psi[margin : psi.size - margin]


def cwt(signal, wavelet: WaveletSpec) -> np.ndarray:
    """Scalogram of shape (16, len(signal)): one row per scale.

    Rows of complex families are reduced to their modulus; real families
    keep their sign.
    """
    x = np.asarray(signal, dtype=np.float64).ravel()
    if x.size == 0:
        raise ShapeMismatch("empty signal")
    if not np.all(np.isfinite(x)):
        raise ValidationError("signal contains non-finite samples")
    rows = np.empty((N_SCALES, x.size), dtype=np.float64)
    for j, s in enumerate(wavelet.scales()):
        psi = _sampled_wavelet(wavelet.family, s)
        half = psi.size // 2
        # correlation with conj(psi) == convolution with reversed conj(psi)
        kernel = np.conj(psi)[::-1]
        padded = np.pad(x, half, mode="symmetric")
        resp = np.convolve(padded, kernel, mode="valid") / np.sqrt(s)
        rows[j] = np.abs(resp) if np.iscomplexobj(resp) else resp
    return rows


def spectrogram_stack(signal) -> np.ndarray:
    """The (16, 6, n) float32 input tensor: six scalograms in table order.
    Raises NonFiniteInput, naming the value, for a scalogram value beyond
    float32 range."""
    stack = np.stack([cwt(signal, spec) for spec in DEFAULT_STACK], axis=1)
    with np.errstate(over="ignore"):  # an overflowing cast is refused below
        out = stack.astype(np.float32)
    finite = np.isfinite(out)
    if not finite.all():
        raise NonFiniteInput(f"spectrogram value {float(stack[~finite][0])!r} is not finite in float32")
    return out


def scale_center_frequency(family: WaveletFamily, scale: float, sample_rate: float) -> float:
    """Dominant response frequency (Hz, magnitude) of one dilated wavelet,
    from the peak of its two-sided spectrum. Note that for broadband
    (low-Q) wavelets the scale that responds most to a given sinusoid also
    depends on the 1/sqrt(scale) normalisation, not on this peak alone."""
    psi = _sampled_wavelet(family, scale)
    n = max(1 << 14, psi.size)
    spectrum = np.abs(np.fft.fft(psi, n=n))
    freqs = np.fft.fftfreq(n, d=1.0 / sample_rate)
    nonzero = freqs != 0
    return float(abs(freqs[nonzero][np.argmax(spectrum[nonzero])]))


def write_stack(path, stack: np.ndarray, meta: dict | None = None) -> Path:
    """Write a stack as little-endian float32 with a fixed header and a JSON
    sidecar describing the transform."""
    path = Path(path)
    arr = np.ascontiguousarray(stack, dtype="<f4")
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a 3-D stack, got shape {arr.shape}")
    header = STACK_MAGIC + struct.pack("<BxxxIII", STACK_VERSION, *arr.shape)
    path.write_bytes(header + arr.tobytes())
    sidecar = {
        "shape": list(arr.shape),
        "dtype": "float32",
        "byte_order": "little",
        "wavelets": [
            {
                "family": spec.family.value,
                "scale_lower": spec.scale_lower,
                "scale_upper": spec.scale_upper,
                "n_scales": N_SCALES,
            }
            for spec in DEFAULT_STACK
        ],
        **(meta or {}),
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def read_stack(path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] != STACK_MAGIC:
        raise ValidationError(f"{path}: bad magic")
    version, d0, d1, d2 = struct.unpack("<BxxxIII", raw[4:20])
    if version != STACK_VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    flat = np.frombuffer(raw[20:], dtype="<f4")
    if flat.size != d0 * d1 * d2:
        raise ValidationError(f"{path}: payload size mismatch")
    return flat.reshape(d0, d1, d2).copy()
