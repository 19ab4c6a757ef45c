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

The correlations run by FFT. The signal is padded symmetrically once, by
the untruncated half-width of the widest wavelet (a symmetric pad by more
samples holds every narrower pad as its middle), and transformed once; each
16-row scalogram is then one inverse FFT of its product with the kernel
spectra. A kernel is placed in its FFT frame so that the first ``n`` output
samples are the rows, and every FFT is long enough that none wraps around.
The kernel spectra of the last two FFT lengths are cached.
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


def _fft_length(m: int) -> int:
    """The smallest ``2**a * 3**b * 5**c >= m``, a length numpy's FFT runs
    without a slow prime-size pass."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _pad_width(specs) -> int:
    """Half-width of the widest untruncated wavelet of ``specs``."""
    return max(int(np.floor(WAVELET_HALF_WIDTH * spec.scale_upper)) for spec in specs)


@functools.lru_cache(maxsize=2)
def _kernel_spectra(specs: tuple[WaveletSpec, ...], nfft: int) -> tuple[tuple[np.ndarray, bool], ...]:
    """Per spec, the read-only ``(16, nfft)`` spectra of its normalised
    conjugate wavelets and whether they are complex. Tap ``m`` of a wavelet
    of half-width ``h`` sits at ``h - pad - m`` (mod ``nfft``), so that
    circular convolution with the padded signal puts the correlation at
    each original sample's own index."""
    pad = _pad_width(specs)
    out = []
    for spec in specs:
        frame = np.zeros((N_SCALES, nfft), dtype=np.complex128)
        is_complex = False
        for j, s in enumerate(spec.scales()):
            psi = _sampled_wavelet(spec.family, s)
            half = psi.size // 2
            frame[j, (half - pad - np.arange(psi.size)) % nfft] = np.conj(psi) / np.sqrt(s)
            is_complex |= np.iscomplexobj(psi)
        spectra = np.fft.fft(frame, axis=1)
        spectra.flags.writeable = False
        out.append((spectra, is_complex))
    return tuple(out)


def _scalograms(signal, specs: tuple[WaveletSpec, ...]) -> np.ndarray:
    """The ``(16, len(specs), n)`` float64 scalograms of ``signal``."""
    x = np.asarray(signal, dtype=np.float64).ravel()
    if x.size == 0:
        raise ShapeMismatch("empty signal")
    if not np.all(np.isfinite(x)):
        raise ValidationError("signal contains non-finite samples")
    padded = np.pad(x, _pad_width(specs), mode="symmetric")
    nfft = _fft_length(padded.size)
    spectrum = np.fft.fft(padded, nfft)
    rows = np.empty((N_SCALES, len(specs), x.size), dtype=np.float64)
    for k, (spectra, is_complex) in enumerate(_kernel_spectra(specs, nfft)):
        resp = np.fft.ifft(spectra * spectrum, axis=1)[:, : x.size]
        rows[:, k] = np.abs(resp) if is_complex else resp.real
    return rows


def cwt(signal, wavelet: WaveletSpec) -> np.ndarray:
    """Scalogram of shape (16, len(signal)): one row per scale.

    Rows of complex families are reduced to their modulus; real families
    keep their sign.
    """
    return _scalograms(signal, (wavelet,))[:, 0]


def spectrogram_stack(signal) -> np.ndarray:
    """The (16, 6, n) float32 input tensor: six scalograms in table order.
    Raises NonFiniteInput, naming the value, for a scalogram value beyond
    float32 range."""
    stack = _scalograms(signal, DEFAULT_STACK)
    with np.errstate(over="ignore"):  # an overflowing cast is refused below
        out = stack.astype(np.float32)
    finite = np.isfinite(out)
    if not finite.all():
        raise NonFiniteInput(f"spectrogram value {float(stack[~finite][0])!r} is not finite in float32")
    return out

