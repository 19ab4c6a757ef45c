"""Wavelet transform tests: shapes, linearity, scale selectivity, a direct
reference."""

import numpy as np
import pytest

from vader.cwt import (
    BLOCK,
    DEFAULT_STACK,
    PAD,
    WaveletFamily,
    WaveletSpec,
    _kernel_spectra,
    _sampled_wavelet,
    _scalograms,
    spectrogram_stack,
)
from vader.errors import NonFiniteInput, ShapeMismatch, ValidationError

#: Output samples of one overlap-save block.
STEP = BLOCK - 2 * PAD



def _rows(x):
    """The float64 rows of ``x`` that ``_scalograms`` yields block by block,
    joined in sample order."""
    blocks = list(_scalograms(x))
    assert [o for o, _ in blocks] == list(range(0, len(x), STEP))
    return np.concatenate([rows for _, rows in blocks], axis=-1)

def test_stack_shape_and_order():
    for n in (1, 7, 350):
        stack = spectrogram_stack(np.random.default_rng(0).normal(size=n))
        assert stack.shape == (16, 6, n)
    families = [spec.family for spec in DEFAULT_STACK]
    assert families == [
        WaveletFamily.COMPLEX_GAUSSIAN_1,
        WaveletFamily.COMPLEX_GAUSSIAN_1,
        WaveletFamily.GAUSSIAN_1,
        WaveletFamily.GAUSSIAN_1,
        WaveletFamily.FREQUENCY_BSPLINE,
        WaveletFamily.FREQUENCY_BSPLINE,
    ]
    assert [(s.scale_lower, s.scale_upper) for s in DEFAULT_STACK] == [
        (1.0, 8.0),
        (8.0, 50.0),
        (0.6, 6.5),
        (6.5, 35.0),
        (1.5, 10.0),
        (10.0, 40.0),
    ]


def test_zero_signal_zero_stack():
    stack = spectrogram_stack(np.zeros(200))
    assert np.all(stack == 0.0)


def test_real_family_linearity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=300)
    k = DEFAULT_STACK.index(WaveletSpec(WaveletFamily.GAUSSIAN_1, 0.6, 6.5))
    base = _rows(x)[:, k]
    assert np.allclose(_rows(2.5 * x)[:, k], 2.5 * base, atol=1e-10)
    assert np.allclose(_rows(-x)[:, k], -base, atol=1e-10)


def test_complex_family_modulus_scaling():
    rng = np.random.default_rng(2)
    x = rng.normal(size=300)
    k = DEFAULT_STACK.index(WaveletSpec(WaveletFamily.COMPLEX_GAUSSIAN_1, 1.0, 8.0))
    base = _rows(x)[:, k]
    assert np.all(base >= 0.0)
    assert np.allclose(_rows(-3.0 * x)[:, k], 3.0 * base, atol=1e-10)


# Frequency (cycles per unit position) at which a wavelet of scale s gives
# the strongest response among scales, under 1/sqrt(s) normalisation: the
# stationary point of sqrt(s)*|spectrum(2*pi*f*s)|, derived per family.
# gaussian_1:          |spec(w)| ~ w*exp(-w^2/4)          -> w* = sqrt(3)
# complex_gaussian_1:  |spec(w)| ~ w*exp(-(w-1)^2/4)      -> w* = (1+sqrt(13))/2
# frequency_bspline:   |spec| ~ rect on [0.5, 1.5] cycles -> just below the top edge
RIDGE_CYCLES = {
    WaveletFamily.GAUSSIAN_1: np.sqrt(3.0) / (2 * np.pi),
    WaveletFamily.COMPLEX_GAUSSIAN_1: (1 + np.sqrt(13.0)) / 2 / (2 * np.pi),
    WaveletFamily.FREQUENCY_BSPLINE: 1.4,
}


def naive_scale_strengths(x, spec, stride=13):
    """Independent straight-line sweep: explicit wavelet samples and dot
    products per scale, full +-8*scale support, no convolution helpers."""
    from vader.cwt import mother_wavelet

    n = x.size
    out = []
    for s in spec.scales():
        half = int(np.floor(8.0 * s))
        u = np.arange(-half, half + 1)
        psi = np.conj(mother_wavelet(spec.family, u / s))
        vals = [
            abs(np.dot(x[o - half : o + half + 1], psi)) / np.sqrt(s)
            for o in range(half, n - half, stride)
        ]
        out.append(float(np.mean(vals)))
    return np.asarray(out)


@pytest.mark.parametrize("spec", DEFAULT_STACK, ids=lambda s: f"{s.family.value}_{s.scale_lower}")
@pytest.mark.parametrize("j", [4, 7, 11])
def test_sinusoid_peaks_at_matching_scale(spec, j):
    scale = spec.scales()[j]
    freq = RIDGE_CYCLES[spec.family] / scale
    n = max(3000, int(50 / freq))
    x = np.sin(2 * np.pi * freq * np.arange(n))
    rows = _rows(x)[:, DEFAULT_STACK.index(spec)]
    interior = slice(n // 4, 3 * n // 4)
    strength = np.abs(rows[:, interior]).mean(axis=1)
    assert abs(int(np.argmax(strength)) - j) <= 1
    if j == 7:  # independent brute-force sweep agrees on the winner
        oracle = naive_scale_strengths(x, spec)
        assert abs(int(np.argmax(oracle)) - int(np.argmax(strength))) <= 1


def test_shift_equivariance_interior():
    rng = np.random.default_rng(3)
    n, d = 420, 23
    x = rng.normal(size=n)
    shifted = np.concatenate([np.zeros(d), x[:-d]])
    spec = WaveletSpec(WaveletFamily.COMPLEX_GAUSSIAN_1, 1.0, 8.0)
    k = DEFAULT_STACK.index(spec)
    a = _rows(x)[:, k]
    b = _rows(shifted)[:, k]
    # largest support: |x| <= ~4.3 * scale for the gaussian envelope
    margin = int(4.5 * spec.scale_upper) + d
    assert np.allclose(b[:, margin : n - margin], a[:, margin - d : n - margin - d], atol=1e-9)


def reference_scalogram(x, spec):
    """Rows by direct correlation: each scale pads the signal symmetrically
    by its own half-width and convolves it with the reversed conjugate
    wavelet. Also returns, per row, the largest value a row can take
    (max|x| times the kernel's L1 norm)."""
    rows, bounds = [], []
    for s in spec.scales():
        psi = _sampled_wavelet(spec.family, s)
        padded = np.pad(x, psi.size // 2, mode="symmetric")
        resp = np.convolve(padded, np.conj(psi)[::-1], mode="valid") / np.sqrt(s)
        rows.append(np.abs(resp) if np.iscomplexobj(resp) else resp)
        bounds.append(np.abs(x).max() * np.abs(psi).sum() / np.sqrt(s))
    return np.asarray(rows), np.asarray(bounds)


@pytest.mark.parametrize("n", [1, 5, 50, STEP - 1, STEP, STEP + 1, 2 * STEP + 1, 8846])
def test_stack_matches_direct_correlation(n):
    """The block FFT stack against per-scale padding and convolution, for
    signals shorter and longer than the widest wavelet (639 samples) and
    than one block's output (``STEP``), across block seams. FFT rounding
    scales with the input, not with the row: rows of a 1- or 5-sample
    signal are near zero, so the tolerance is relative to each row's bound;
    on the longer signals it also holds relative to the row's own maximum."""
    x = np.random.default_rng(n).normal(size=n)
    _kernel_spectra.cache_clear()
    stack = spectrogram_stack(x)
    assert spectrogram_stack(x).tobytes() == stack.tobytes()  # cold and cached spectra
    rows = _rows(x)
    assert np.array_equal(rows.astype(np.float32), stack)
    for k, spec in enumerate(DEFAULT_STACK):
        want, bound = reference_scalogram(x, spec)
        err = np.abs(rows[:, k] - want).max(axis=1)
        assert np.all(err <= 1e-12 * bound)
        if n >= 50:
            assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))


def test_pad_is_the_widest_sampled_half_width():
    """No kernel of the 96 reaches past ``PAD``, and the widest meets it."""
    halves = [_sampled_wavelet(spec.family, s).size // 2 for spec in DEFAULT_STACK for s in spec.scales()]
    assert max(halves) == PAD == 319


def test_kernel_table_is_built_once_for_every_length():
    _kernel_spectra.cache_clear()
    for n in (300, STEP + 7, 8846):
        spectrogram_stack(np.random.default_rng(n).normal(size=n))
    assert _kernel_spectra.cache_info().misses == 1


def test_no_nan_for_finite_input():
    rng = np.random.default_rng(4)
    x = rng.normal(size=500) * 1e6
    assert np.all(np.isfinite(_rows(x)))


def test_rejects_nonfinite():
    x = np.zeros(100)
    x[3] = np.inf
    with pytest.raises(ValidationError):
        spectrogram_stack(x)
    with pytest.raises(ShapeMismatch):
        spectrogram_stack(np.zeros(0))
    with pytest.raises(NonFiniteInput, match="not finite in float32"):
        spectrogram_stack(np.full(100, 1e300))  # finite in float64


def test_memory_ratio_is_96():
    x = np.random.default_rng(5).normal(size=7200).astype(np.float32)
    stack = spectrogram_stack(x)
    assert stack.nbytes == 96 * x.nbytes


def test_wavelet_spec_validation():
    with pytest.raises(ValueError):
        WaveletSpec(WaveletFamily.GAUSSIAN_1, 5.0, 2.0)
