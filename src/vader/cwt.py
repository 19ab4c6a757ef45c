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

The correlations run by FFT in overlap-save blocks. The signal is padded
symmetrically once, by the half-width ``PAD`` of the widest sampled
(truncated) wavelet (a symmetric pad by more samples holds every narrower
pad as its middle). Each ``BLOCK``-sample segment of the padded signal,
the next one starting ``BLOCK - 2*PAD`` samples later, is transformed once
and multiplied by one table of all 96 kernel spectra; one inverse FFT then
gives that segment's first ``BLOCK - 2*PAD`` output samples of every row,
none wrapped around. The table does not depend on the signal's length and
is built once per process.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch, ValidationError

WAVELET_HALF_WIDTH = 8.0
TRUNCATION_RATIO = 1e-8
N_SCALES = 16


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

#: FFT length of one block; each block yields ``BLOCK - 2*PAD`` output samples.
BLOCK = 4096


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


#: Symmetric pad of every signal and overlap of consecutive FFT blocks: the
#: half-width of the widest sampled wavelet of the stack, each range's
#: widest being at its top scale.
PAD = max(_sampled_wavelet(spec.family, spec.scale_upper).size // 2 for spec in DEFAULT_STACK)


@functools.cache
def _kernel_spectra() -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``(16, 6, BLOCK)`` spectra of the normalised conjugate
    wavelets of the stack, and per spec whether they are real. Tap ``m``
    of a wavelet of half-width ``h`` sits at ``h - PAD - m`` (mod ``BLOCK``),
    so that circular convolution with the ``BLOCK`` padded samples from
    ``o`` on puts the correlation at original sample ``o + i`` at index
    ``i``, for every ``i < BLOCK - 2*PAD``."""
    frame = np.zeros((N_SCALES, len(DEFAULT_STACK), BLOCK), dtype=np.complex128)
    real = np.ones(len(DEFAULT_STACK), dtype=bool)
    for k, spec in enumerate(DEFAULT_STACK):
        for j, s in enumerate(spec.scales()):
            psi = _sampled_wavelet(spec.family, s)
            half = psi.size // 2
            frame[j, k, (half - PAD - np.arange(psi.size)) % BLOCK] = np.conj(psi) / np.sqrt(s)
            real[k] &= np.isrealobj(psi)
    spectra = np.fft.fft(frame, axis=-1)
    spectra.flags.writeable = False
    real.flags.writeable = False
    return spectra, real


def _scalograms(signal):
    """The float64 scalograms of ``signal``, one FFT block at a time: yields
    ``(o, rows)``, the fresh ``(16, 6, m)`` rows of samples ``o`` to
    ``o + m``."""
    x = np.asarray(signal, dtype=np.float64).ravel()
    if x.size == 0:
        raise ShapeMismatch("empty signal")
    if not np.all(np.isfinite(x)):
        raise ValidationError("signal contains non-finite samples")
    padded = np.pad(x, PAD, mode="symmetric")
    spectra, real = _kernel_spectra()
    step = BLOCK - 2 * PAD
    buf = np.empty_like(spectra)
    for o in range(0, x.size, step):
        # the last segment is shorter; fft zero-fills it to BLOCK
        np.multiply(spectra, np.fft.fft(padded[o : o + BLOCK], BLOCK), out=buf)
        resp = np.fft.ifft(buf, axis=-1, out=buf)[..., : min(step, x.size - o)]
        rows = np.empty(resp.shape, dtype=np.float64)
        for k, is_real in enumerate(real):
            if is_real:
                rows[:, k] = resp[:, k].real
            else:  # complex family: modulus
                np.abs(resp[:, k], out=rows[:, k])
        yield o, rows


def spectrogram_stack(signal) -> np.ndarray:
    """The (16, 6, n) float32 input tensor: six scalograms in table order,
    each block's float64 rows cast into it as they come. Raises
    NonFiniteInput, naming the value, for a scalogram value beyond float32
    range."""
    x = np.asarray(signal, dtype=np.float64).ravel()
    out = np.empty((N_SCALES, len(DEFAULT_STACK), x.size), dtype=np.float32)
    for o, rows in _scalograms(x):
        block = out[..., o : o + rows.shape[-1]]
        with np.errstate(over="ignore"):  # an overflowing cast is refused below
            block[...] = rows
        finite = np.isfinite(block)
        if not finite.all():
            raise NonFiniteInput(f"spectrogram value {float(rows[~finite][0])!r} is not finite in float32")
    return out

