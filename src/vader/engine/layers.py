"""Deterministic reverse-mode NN engine over (batch, channel, freq, time) arrays.

Activations are dense ndarrays of shape ``(N, C, F, T)``; 1-D signals ride
along with ``F == 1``. Every sample in a batch carries a *valid* time length
so shorter signals can be zero-padded to the batch maximum without changing
their result: after every node the padded tail is forced back to zero, group
statistics count only valid positions, and gradients at padded positions are
exactly zero. A batched forward therefore replicates per-sample forwards up
to summation rounding (ulp level; only reduction trees differ).

Layers are stateless between calls: ``forward`` returns an opaque cache that
``backward`` consumes, so inference (``want_cache=False``) is reentrant and
training owns its parameters exclusively. A layer computes in its input's
dtype; its parameters are float64 until ``Network.add`` gives them the
network's.

Every convolution pass is one stride-1 correlation, ``_correlate``: one
matrix product per tile of at most ``TILE`` output columns. The input is
laid out once as a channel-major plane, each element written once (its time
pads zeroed, its interior copied; with no pads, as for every 1x1 kernel, at
batch 1 the plane is a view of the input): a kernel spanning several
frequency rows stacks them with the channels into ``F * C`` rows, and a
one-row kernel leaves them in the columns next to the batch. A transient
block stacks the plane's ``kt`` time-shifted copies, row ``(plane row,
shift)``, so it is the plane's sliding windows copied once; it is built for
one tile at a time (whole sample rows, or one row's ``TILE``-column pieces;
with one shift, any ``TILE`` columns, a view), so it never holds more than
``kt * F * C`` rows of ``TILE`` columns (14 MB for the spectrogram input
convolution), however long the series. Only columns that hold output are
computed: the plane has no slack columns. The kernel becomes a
block-Toeplitz ("banded") matrix of ``O * F'`` rows whose row ``(o, fo)``
holds the taps that reach input row ``fi`` at ``fi - fo + lo`` and zeros
elsewhere, so the whole correlation is ``band @ block`` (the unrolling of
im2col and kn2row, applied to time in the block and to frequency in the
kernel; Vasudevan et al. 2017), and for one sample the ``(O, F', T')``
product already is the output: a stride-1 batch-1 convolution adds its
bias to it in place, where other strides and batches interleave phases and
samples into a biased copy. The band multiplies its zeros, more of them the
narrower the kernel is against the rows (about twice the useful work for a
9-row kernel over 16 rows, 5.6 times for a 3-row one), in exchange for one
well-shaped product instead of one thin, memory-bound one per frequency
tap. Because the block's rows run (channel, shift), as the ``(O, C, 1,
kt)`` weight's do, a stride-1 one-row kernel's band is a view of the
weight: a forward pass copies no weight. ``TransposedConvTime`` correlates
with a sub-kernel of ``stride * c_out`` output channels, one group per
output time phase, and interleaves the phases (sub-pixel convolution; Shi
et al. 2016). That sub-kernel is the weight zero-extended in time to a
multiple of ``stride`` taps and cut into ``stride``-wide rows: row ``m``
holds shift ``m``'s taps, one per phase, in reverse phase order; the
forward cache carries it to backward. The input gradient correlates ``dy``
with the flipped, channel-swapped kernel under the complementary padding
(Dumoulin & Visin 2016); the kernel gradient is a sum, in column order, of
tile products of ``dy``, laid out as the forward's product (a view at
batch 1), with the block's tiles rebuilt from the cached plane, summed back
along the band.

Group norm takes each group's sum and its centred sum of squares as float32
BLAS reductions (a matrix-vector product over time rows and a batched dot
product); centring first keeps the variance exact to float32 rounding
however far the mean lies from zero, where ``E[x^2] - mean^2`` would cancel.
It then normalises with one affine map per (sample, channel),
``(x - mean) * scale + beta``, in place in its output, and caches only its
input: backward recomputes the normalised input from it.

Max pooling keeps no argmax: forward takes the maximum over the window's
strided views, and backward sends the gradient to the first maximum in
window order (frequency-major), the tie rule of argmax. The decoder's
frequency max is a max-pool window over every bin and one time step.
``Network.forward`` releases each activation after its last consumer, with
or without caches; a cache holds only what its layer's backward reads.
Without caches it also tells each layer which of its inputs no later node
reads (its dead inputs, the cast copy of the network input included):
ReLU, Add and group norm's centring step write their output into a dead
input instead of a fresh array. A direct ``Layer.forward`` call and a
cached forward overwrite no input, so no caller's array and no backward
cache is ever changed.
"""

from __future__ import annotations

import numpy as np

from ..errors import MissingForwardCache, NonFiniteInput, ShapeMismatch

#: Probabilities stay in ``[PROB_EPS, 1 - PROB_EPS]``: sigmoid outputs are
#: clipped into it so the probability contract stays strict where float
#: arithmetic would saturate, and the focal loss clamps to it before logs.
PROB_EPS = 1e-7
#: Output columns per product of a convolution pass, so that its shift block
#: holds at most ``kt * F * C`` rows of ``TILE`` columns however long the
#: series. At 4096 the benchmark's detection series match one untiled
#: product bit for bit, but for 4 of 120 raw series (within 1.1e-6).
TILE = 4096


class Param:
    """One trainable array with its gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    @property
    def shape(self):
        return self.value.shape


def zero_invalid(arr: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Zero the padded time tail of each sample in place."""
    T = arr.shape[-1]
    for n, v in enumerate(valid):
        if v < T:
            arr[n, ..., v:] = 0
    return arr


def _time_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last (time) axis as one BLAS matrix-vector product."""
    T = a.shape[-1]
    return (a.reshape(-1, T) @ np.ones(T, dtype=a.dtype)).reshape(a.shape[:-1])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching last-axis rows as one batched BLAS product."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def groupnorm_groups(channels: int) -> int:
    """Group count targeting 16 channels per group; single group for narrow
    layers, largest divisor otherwise."""
    g = max(1, channels // 16)
    while channels % g:
        g -= 1
    return g


class Layer:
    kind = "layer"

    def params(self) -> list[Param]:
        return []

    def config(self) -> dict:
        return {}

    def forward(self, xs, valids, want_cache, dead=()):
        """``(y, valid, cache)`` for the inputs ``xs`` valid up to ``valids``.
        ``dead`` holds the positions in ``xs`` of inputs that nothing reads
        afterwards, which the layer may overwrite; every other input is left
        as it was."""
        raise NotImplementedError

    def backward(self, cache, dy):
        raise NotImplementedError


def _require(cache):
    if cache is None:
        raise MissingForwardCache("backward() needs a forward() pass with want_cache=True")
    return cache


def _rows(kf, freq):
    """Frequency rows a plane stacks along its row axis: every row for a
    kernel spanning several, none for a one-row kernel, whose rows stay
    batch columns."""
    return freq if kf > 1 else 1


def _plane(x, rows, width, lo):
    """The channel-major ``(C, N, F, T)`` array ``x`` as a plane: frequency
    row ``f < rows`` and channel ``c`` make row ``(f, c)``, the remaining
    frequency rows stay in the columns, and each sample row starts at time
    offset ``lo`` in a row of ``width``. Each element is written once: the
    pads are zeroed and the interior copied; without pads the plane is a
    view of ``x`` where its layout allows (a one-row kernel at batch 1)."""
    C, N, F, T = x.shape
    grid = x.reshape(C, N, rows, F // rows, T).transpose(2, 0, 1, 3, 4)
    if width == T:
        return np.ascontiguousarray(grid).reshape(rows * C, -1)
    plane = np.empty(grid.shape[:-1] + (width,), dtype=x.dtype)
    plane[..., :lo] = 0
    plane[..., lo + T :] = 0
    plane[..., lo : lo + T] = grid
    return plane.reshape(rows * C, -1)


def _tiles(plane, kt, t_out):
    """The contiguous ``plane``'s sliding windows, tile by tile. Its sample
    rows are ``t_out + kt - 1`` columns wide; a tile is at most ``TILE`` of
    their ``t_out`` output columns (whole sample rows, or one row's
    ``TILE``-column pieces). Yields each tile's slice of the output columns
    and its ``(rows, kt, ...)`` windows, which ``reshape(rows * kt, -1)``
    turns into the tile's transient shift block, row ``r * kt + j`` being
    plane row ``r`` shifted by ``j``: copied once at the product, so one
    tile's block is alive at a time; for one shift, a view of the plane."""
    width = t_out + kt - 1
    if kt == 1:  # the sample rows run on into each other, as one
        n_rows, t_out = 1, plane.shape[1]
    else:
        n_rows = plane.shape[1] // width
    r, i = plane.strides
    # numpy checks the windows against the plane's buffer
    windows = np.ndarray((len(plane), kt, n_rows, t_out), plane.dtype, plane, 0, (r, i, width * i, i))
    step = max(1, TILE // max(t_out, 1))  # sample rows per tile
    for a in range(0, n_rows, step):
        for b in range(0, t_out, TILE):
            tile = windows[:, :, a : a + step, b : b + TILE]
            start = a * t_out + b
            yield slice(start, start + tile.shape[2] * tile.shape[3]), tile


def _toeplitz(lead, rows, freq_pads, kf, dtype):
    """Two views of one zero buffer: the ``(*lead, F', kf)`` taps and the
    ``(*lead, F', rows)`` band in which output row ``fo`` holds tap ``i`` at
    input row ``fo + i - lo``. Each output row owns ``rows + lo + hi + 1``
    buffer entries, the first ``kf`` of which are its taps."""
    lo, hi = freq_pads
    padded = rows + lo + hi
    f_out = padded - kf + 1
    buf = np.zeros(lead + (f_out, padded + 1), dtype=dtype)
    flat = buf.reshape(lead + (-1,))[..., : f_out * padded]
    return buf[..., :kf], flat.reshape(lead + (f_out, padded))[..., lo : lo + rows]


def _band(w, rows, freq_pads):
    """The ``(O, C, kf, kt)`` kernel as the banded ``(O * F', rows * C * kt)``
    matrix of a correlation over ``rows`` stacked frequency rows: row
    ``(o, fo)``, column ``(fi, c, j)`` holds ``w[o, c, fi - fo + lo, j]``
    inside the band and zero outside. A one-row kernel's band is the weight
    itself, reshaped: a view, no copy, for a contiguous weight."""
    O, C, kf, kt = w.shape
    if kf == 1:
        return w.reshape(O, C * kt)
    taps, band = _toeplitz((O, C, kt), rows, freq_pads, kf, w.dtype)
    taps[...] = w.transpose(0, 1, 3, 2)[:, :, :, None, :]
    return band.transpose(0, 3, 4, 1, 2).reshape(-1, rows * C * kt)


def _unband(band, shape, rows, freq_pads):
    """The adjoint of :func:`_band`: the ``shape`` kernel's gradient from the
    banded matrix's, summed along the band."""
    O, C, kf, kt = shape
    if kf == 1:
        return band.reshape(shape)
    taps, view = _toeplitz((O, C, kt), rows, freq_pads, kf, band.dtype)
    view[...] = band.reshape(O, -1, rows, C, kt).transpose(0, 3, 4, 1, 2)
    return taps.sum(axis=3).transpose(0, 1, 3, 2)


def _correlate(x, w, freq_pads, time_pads):
    """Stride-1 correlation of the channel-major ``(C, N, F, T)`` input ``x``,
    zero-padded by the ``(lo, hi)`` pairs, with the ``(O, C, kf, kt)`` kernel
    ``w``: one product of the banded kernel (:func:`_band`) with the block of
    ``kt`` time shifts of the input plane per tile, into output columns only.
    Returns the ``(O, N, F', T')`` output, a view of the product (at batch 1
    a contiguous one), and the input plane."""
    C, N, F, T = x.shape
    O, _, kf, kt = w.shape
    if F + sum(freq_pads) < kf:
        raise ShapeMismatch(f"{F + sum(freq_pads)} padded frequency rows, kernel spans {kf}")
    rows, width = _rows(kf, F), T + sum(time_pads)
    t_out = width - kt + 1
    plane = _plane(x, rows, width, time_pads[0])
    band = _band(w, rows, freq_pads)
    y = np.empty((len(band), N * F // rows * t_out), dtype=x.dtype)
    for cols, tile in _tiles(plane, kt, t_out):
        np.matmul(band, tile.reshape(band.shape[1], -1), out=y[:, cols])
    f_out, rest = len(band) // O, F // rows
    y = y.reshape(O, f_out, N, rest, t_out).transpose(0, 2, 1, 3, 4).reshape(O, N, f_out * rest, t_out)
    return y, plane


class Conv(Layer):
    """Stride-1 convolution, 'same' on time (odd kernels), 'same' or 'valid'
    on frequency."""

    kind = "conv"
    #: Time upsampling factor; only TransposedConvTime sets it above 1.
    stride = 1

    def __init__(self, c_in, c_out, kf, kt, freq_padding="same", name="conv"):
        if self.stride == 1 and kt % 2 != 1:
            raise ValueError(f"time kernel extent must be odd, got {kt}")
        if freq_padding not in ("same", "valid"):
            raise ValueError(freq_padding)
        self.c_in, self.c_out, self.kf, self.kt = c_in, c_out, kf, kt
        self.freq_padding = freq_padding
        self.weight = Param(f"{name}.weight", np.zeros((c_out, c_in, kf, kt)))
        self.bias = Param(f"{name}.bias", np.zeros(c_out))
        self._freq_pads = ((kf - 1) // 2, kf // 2) if freq_padding == "same" else (0, 0)
        # Time tap j takes input column c to output column stride*c + crop - j,
        # as correlating the zero-stuffed input padded by `crop` would. With
        # `lead` zero taps in front of the weight, extended tap J then lands in
        # output phase stride - 1 - J % stride at shift J // stride - crop //
        # stride: the sub-pixel kernel is the extended weight cut into
        # stride-wide rows. With stride 1 the shifts are the 'same' padding's.
        s = self.stride
        crop = (kt + s - 2) // 2
        self._lead = s - 1 - crop % s
        n = -(-(self._lead + kt) // s)
        self._time_pads = (crop // s, n - 1 - crop // s)

    def init(self, rng):
        fan_in = self.c_in * self.kf * self.kt
        bound = np.sqrt(6.0 / fan_in)
        self.weight.value[...] = rng.uniform(-bound, bound, self.weight.shape)

    def params(self):
        return [self.weight, self.bias]

    def config(self):
        return {
            "c_in": self.c_in,
            "c_out": self.c_out,
            "kernel": [self.kf, self.kt],
            "freq_padding": self.freq_padding,
        }

    def _kernel(self, dtype):
        """The weight as the ``(stride * c_out, c_in, kf, n_shifts)`` kernel of
        a stride-1 correlation whose output channel ``p * c_out + o`` is
        channel ``o`` at time phase ``p`` (sub-pixel convolution): the weight,
        zero-extended to ``n_shifts * stride`` taps, cut into rows of
        ``stride`` taps with the phases reversed. With stride 1 that kernel is
        the weight itself, a view."""
        w = self.weight.value.astype(dtype, copy=False)
        s, O, C, kf, kt = self.stride, self.c_out, self.c_in, self.kf, self.kt
        n = sum(self._time_pads) + 1
        if n * s > kt:
            w, taps = np.zeros((O, C, kf, n * s), dtype), w
            w[..., self._lead : self._lead + kt] = taps
        return w.reshape(O, C, kf, n, s)[..., ::-1].transpose(4, 0, 1, 2, 3).reshape(s * O, C, kf, n)

    def forward(self, xs, valids, want_cache, dead=()):
        (x,) = xs
        N, C, _, T = x.shape
        if C != self.c_in:
            raise ShapeMismatch(f"input has {C} channels, kernel expects {self.c_in}")
        k = self._kernel(x.dtype)
        y, plane = _correlate(x.transpose(1, 0, 2, 3), k, self._freq_pads, self._time_pads)
        s, O, F = self.stride, self.c_out, y.shape[2]
        cache = (plane, k) if want_cache else None
        if s == 1 and N == 1:  # the contiguous (O, 1, F, T) product is the output
            out = y.transpose(1, 0, 2, 3)
            out += self.bias.value[:, None, None]
            return out, valids[0], cache
        out = np.empty((N, O, F, T, s), dtype=x.dtype)  # phases interleave in time
        for p, phase in enumerate(y.reshape(s, O, N, F, T).transpose(0, 2, 1, 3, 4)):  # one strided add each
            np.add(phase, self.bias.value[:, None, None], out=out[..., p])
        return out.reshape(N, O, F, T * s), valids[0] * s, cache

    def backward(self, cache, dy):
        plane, k = _require(cache)
        s, O, C = self.stride, self.c_out, self.c_in
        N, _, F, T = dy.shape
        T //= s
        dy_phases = dy.reshape(N, O, F, T, s).transpose(4, 1, 0, 2, 3).reshape(s * O, N, F, T)
        kf, kt = k.shape[2:]
        # dK: the column-ordered sum of tile products of dy, laid out as the
        # forward's product (rows (o, fo), or o with the rows in the columns),
        # with the rebuilt block's tiles; then the band sum.
        fb = F if kf > 1 else 1
        dyc = dy_phases.reshape(s * O, N, fb, F // fb, T).transpose(0, 2, 1, 3, 4).reshape(s * O * fb, -1)
        band = sum(dyc[:, cols] @ tile.reshape(len(plane) * kt, -1).T for cols, tile in _tiles(plane, kt, T))
        del dyc  # before the input gradient builds its own planes
        dk = _unband(band, k.shape, len(plane) // C, self._freq_pads).reshape(s, O, C, kf, kt)
        dw = dk[::-1].transpose(1, 2, 3, 4, 0).reshape(O, C, kf, -1)  # the cut undone
        self.weight.grad += dw[..., self._lead : self._lead + self.kt]
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        # The input gradient correlates dy with the flipped, channel-swapped
        # kernel under the complementary padding.
        pads = [(n - 1 - lo, n - 1 - hi) for n, (lo, hi) in ((kf, self._freq_pads), (kt, self._time_pads))]
        dx, _ = _correlate(dy_phases, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), *pads)
        return [np.ascontiguousarray(dx.transpose(1, 0, 2, 3))]


class TransposedConvTime(Conv):
    """Transposed convolution upsampling the time axis by ``stride``;
    frequency is processed stride-1 with 'same' padding. Time kernels may
    be even."""

    kind = "transposed_conv"

    def __init__(self, c_in, c_out, kf, kt, stride, name="tconv"):
        if stride < 2:
            raise ValueError(f"stride must be >= 2, got {stride}")
        self.stride = stride
        super().__init__(c_in, c_out, kf, kt, name=name)

    def config(self):
        return {**super().config(), "stride": self.stride}


class MaxPool(Layer):
    """Max pooling; time extent must divide the padded input, frequency is
    ceil-padded with the dtype minimum."""

    kind = "max_pool"

    def __init__(self, pool_f, pool_t):
        self.pool_f, self.pool_t = pool_f, pool_t

    def config(self):
        return {"pool": [self.pool_f, self.pool_t]}

    def _windows(self, x):
        """The ``pf * pt`` strided views of ``x`` that make up its windows,
        in window order (frequency-major)."""
        pf, pt = self.pool_f, self.pool_t
        return [x[:, :, a::pf, b::pt] for a in range(pf) for b in range(pt)]

    def forward(self, xs, valids, want_cache, dead=()):
        (x,) = xs
        F, T = x.shape[2:]
        if T % self.pool_t:
            raise ShapeMismatch(f"time length {T} not divisible by pool size {self.pool_t}")
        fpad = (-F) % self.pool_f
        if fpad:
            x = np.pad(x, ((0, 0), (0, 0), (0, fpad), (0, 0)), constant_values=np.finfo(x.dtype).min)
        views = self._windows(x)
        y = np.maximum(views[0], views[1]) if len(views) > 1 else views[0].copy()
        for view in views[2:]:
            np.maximum(y, view, out=y)
        return y, -(-valids[0] // self.pool_t), (x, y, F) if want_cache else None

    def backward(self, cache, dy):
        x, y, F = _require(cache)
        dx = np.empty_like(x)  # the windows cover every element
        # dy goes to the first maximum in window order, as argmax breaks ties
        free = np.ones(y.shape, dtype=bool)
        for xw, dxw in zip(self._windows(x), self._windows(dx)):
            hit = free & (xw == y)
            np.multiply(dy, hit, out=dxw)
            free &= ~hit
        return [np.ascontiguousarray(dx[:, :, :F])]


class GroupNorm(Layer):
    """Per-sample, per-group normalisation over (channels-in-group, F, valid T)
    with a trainable per-channel affine map."""

    kind = "group_norm"

    def __init__(self, channels, groups, eps=1e-5, name="gn"):
        if channels % groups:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.channels, self.groups, self.eps = channels, groups, eps
        self.gamma = Param(f"{name}.gamma", np.ones(channels))
        self.beta = Param(f"{name}.beta", np.zeros(channels))

    def params(self):
        return [self.gamma, self.beta]

    def config(self):
        return {"channels": self.channels, "groups": self.groups, "eps": self.eps}

    def forward(self, xs, valids, want_cache, dead=()):
        (x,) = xs
        valid = valids[0]
        N, C, F, T = x.shape
        if C != self.channels:
            raise ShapeMismatch(f"expected {self.channels} channels, got {C}")
        g = self.groups
        count = (valid.astype(x.dtype) * (C // g) * F).reshape(N, 1)
        # padded tails are zero, so full-row sums equal valid-position sums
        mean = _time_sums(x).reshape(N, g, -1).sum(axis=2) / count
        xg = x.reshape(N, g, -1)
        y = np.subtract(xg, mean[..., None], out=xg if 0 in dead else None)  # centred, re-zeroed for the squares
        zero_invalid(y.reshape(N, C, F, T), valid)
        inv_std = 1.0 / np.sqrt(_row_dots(y, y) / count + self.eps)
        y = y.reshape(N, C, F, T)
        y *= (self.gamma.value.reshape(g, -1) * inv_std[..., None]).reshape(N, C, 1, 1)
        y += self.beta.value[:, None, None]
        cache = (x, mean, inv_std, count, valid) if want_cache else None
        return y, valid, cache

    def backward(self, cache, dy):
        x, mean, inv_std, count, valid = _require(cache)
        N, C, F, T = dy.shape
        g = self.groups
        xhat = x.reshape(N, g, -1) - mean[..., None]
        xhat *= inv_std[..., None]
        xhat = zero_invalid(xhat.reshape(N, C, F, T), valid)
        # per-(sample, channel) sums of dy and dy * xhat; dy is zero on
        # padded tails, so they run over valid positions
        s_d = _time_sums(dy).sum(axis=2)
        s_dx = _row_dots(dy.reshape(N, C, -1), xhat.reshape(N, C, -1))
        self.gamma.grad += s_dx.sum(axis=0)
        self.beta.grad += s_d.sum(axis=0)
        # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std
        # with dxhat = gamma * dy, the means taken over each group
        gamma = self.gamma.value
        m_d = (s_d * gamma).reshape(N, g, -1).sum(axis=2) / count * inv_std
        m_dx = (s_dx * gamma).reshape(N, g, -1).sum(axis=2) / count * inv_std
        dx = dy * (gamma.reshape(g, -1) * inv_std[..., None]).reshape(N, C, 1, 1)
        xhat = xhat.reshape(N, g, -1)
        xhat *= m_dx[..., None]
        dxg = dx.reshape(N, g, -1)
        dxg -= xhat
        dxg -= m_d[..., None]
        return [zero_invalid(dx, valid)]


class ReLU(Layer):
    kind = "relu"

    def forward(self, xs, valids, want_cache, dead=()):
        (x,) = xs
        cache = (x > 0) if want_cache else None
        return np.maximum(x, 0, out=x if 0 in dead else None), valids[0], cache

    def backward(self, cache, dy):
        pos = _require(cache)
        return [dy * pos]


class Sigmoid(Layer):
    kind = "sigmoid"

    def forward(self, xs, valids, want_cache, dead=()):
        (x,) = xs
        e = np.exp(-np.abs(x))  # never overflows
        y = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        np.clip(y, PROB_EPS, 1.0 - PROB_EPS, out=y)
        cache = y if want_cache else None
        return y, valids[0], cache

    def backward(self, cache, dy):
        y = _require(cache)
        return [dy * y * (1.0 - y)]


class Concat(Layer):
    """Channel concatenation; inputs must agree on (N, F, T)."""

    kind = "concat"

    def forward(self, xs, valids, want_cache, dead=()):
        base = xs[0].shape
        for x in xs[1:]:
            if x.shape[0] != base[0] or x.shape[2:] != base[2:]:
                raise ShapeMismatch(f"concat inputs disagree: {base} vs {x.shape}")
        y = np.concatenate(xs, axis=1)
        cache = [x.shape[1] for x in xs] if want_cache else None
        return y, np.minimum.reduce(valids), cache

    def backward(self, cache, dy):
        widths = _require(cache)
        out, start = [], 0
        for w in widths:
            out.append(np.ascontiguousarray(dy[:, start : start + w]))
            start += w
        return out


class Add(Layer):
    kind = "add"

    def forward(self, xs, valids, want_cache, dead=()):
        a, b = xs
        if a.shape != b.shape:
            raise ShapeMismatch(f"add inputs disagree: {a.shape} vs {b.shape}")
        out = a if 0 in dead else b if 1 in dead else None
        return np.add(a, b, out=out), np.minimum.reduce(valids), ()

    def backward(self, cache, dy):
        return [dy, dy.copy()]


class TileFreq(Layer):
    """Repeat a single-bin frequency axis ``reps`` times."""

    kind = "tile_freq"

    def __init__(self, reps):
        self.reps = reps

    def config(self):
        return {"reps": self.reps}

    def forward(self, xs, valids, want_cache, dead=()):
        (x,) = xs
        if x.shape[2] != 1:
            raise ShapeMismatch(f"tile expects one frequency bin, got {x.shape[2]}")
        return np.repeat(x, self.reps, axis=2), valids[0], ()

    def backward(self, cache, dy):
        return [dy.sum(axis=2, keepdims=True)]


class Node:
    __slots__ = ("name", "layer", "inputs")

    def __init__(self, name, layer, inputs):
        self.name = name
        self.layer = layer
        self.inputs = inputs  # node indices; -1 is the network input


class Network:
    """A topologically ordered DAG of layers with a single input and output.

    It alone decides precision and time padding: :meth:`add` gives every
    parameter the network's ``dtype`` and :meth:`forward` casts the input to
    it; both passes zero-pad the time axis to ``time_multiple`` (the pooling
    product) and crop the padding off again. ``spec`` is the JSON-ready
    record a builder made the graph from, saved with its checkpoints; it
    stays empty for graphs built by hand.
    """

    def __init__(self, dtype=np.float32, time_multiple=1):
        self.nodes: list[Node] = []
        self.dtype = dtype
        self.time_multiple = time_multiple
        self.spec: dict = {}

    def add(self, name: str, layer: Layer, inputs) -> int:
        for p in layer.params():
            p.value = p.value.astype(self.dtype)
            p.grad = np.zeros_like(p.value)
        self.nodes.append(Node(name, layer, list(inputs)))
        return len(self.nodes) - 1

    def params(self) -> list[Param]:
        out = []
        for node in self.nodes:
            out.extend(node.layer.params())
        return out

    def zero_grads(self) -> None:
        for p in self.params():
            p.grad[...] = 0

    def init_params(self, seed: int) -> None:
        ss = np.random.SeedSequence(seed)
        children = ss.spawn(len(self.nodes))
        for node, child in zip(self.nodes, children):
            if hasattr(node.layer, "init"):
                node.layer.init(np.random.Generator(np.random.PCG64(child)))

    def cast_input(self, x: np.ndarray, valid=None):
        """The copy of an ``(N, C, F, T)`` input of any dtype that
        :meth:`forward` runs on: in the network's dtype, zero beyond
        ``valid`` (default ``T``) and zero-padded to ``time_multiple``; with
        the valid lengths. Raises NonFiniteInput for a valid input value
        that is not finite in the network's dtype."""
        x = np.asarray(x)
        if x.ndim != 4:
            raise ShapeMismatch(f"expected (N, C, F, T) input, got shape {x.shape}")
        if valid is None:
            valid = np.full(x.shape[0], x.shape[-1], dtype=np.int64)
        else:
            valid = np.asarray(valid, dtype=np.int64)
        pad = -x.shape[-1] % self.time_multiple
        with np.errstate(over="ignore"):  # an overflowing cast is refused below
            xp = zero_invalid(_pad_time(x, pad, self.dtype), valid)
        finite = np.isfinite(xp[..., : x.shape[-1]])
        if not finite.all():
            bad = float(x[~finite][0])
            raise NonFiniteInput(f"input value {bad!r} is not finite in {np.dtype(self.dtype).name}")
        return xp, valid

    def forward(self, x: np.ndarray, valid=None, want_cache=False):
        """Run the graph on an ``(N, C, F, T)`` input of any dtype and length,
        valid up to ``valid`` (default ``T``); returns the output, and with
        ``want_cache`` a context for :meth:`backward`. Each activation is
        released after its last consumer; without caches, that consumer may
        write its output into it. Raises as :meth:`cast_input`."""
        xp, valid = self.cast_input(x, valid)
        pad = xp.shape[-1] - np.shape(x)[-1]
        last_use = {j: i for i, node in enumerate(self.nodes) for j in node.inputs}
        acts: dict[int, np.ndarray] = {-1: xp}
        valids: dict[int, np.ndarray] = {-1: valid}
        caches: list = []
        del xp
        for i, node in enumerate(self.nodes):
            xs = [acts[j] for j in node.inputs]
            vs = [valids[j] for j in node.inputs]
            for j in set(node.inputs):
                if last_use[j] == i:  # dead after this node; only its cache may keep it
                    del acts[j]
            # without caches, no later reader sees a dead input: the layer may overwrite it
            dead = () if want_cache else tuple(p for p, j in enumerate(node.inputs) if last_use[j] == i)
            y, v, cache = node.layer.forward(xs, vs, want_cache, dead)
            del xs
            zero_invalid(y, v)
            acts[i] = y
            valids[i] = v
            caches.append(cache)
        out = acts.pop(len(self.nodes) - 1)
        out = out[..., : out.shape[-1] - pad]
        if not want_cache:
            return out
        return out, (valids, caches, pad)

    def backward(self, ctx, dy: np.ndarray) -> np.ndarray:
        """Accumulate parameter gradients for the output gradient ``dy`` (any
        dtype); returns the input gradient."""
        if ctx is None:
            raise MissingForwardCache("no forward context")
        valids, caches, pad = ctx
        grads: dict[int, np.ndarray] = {len(self.nodes) - 1: _pad_time(dy, pad, self.dtype)}
        dinput = None
        for i in range(len(self.nodes) - 1, -1, -1):
            g = grads.pop(i, None)
            if g is None:
                continue
            zero_invalid(g, valids[i])
            node = self.nodes[i]
            dxs = node.layer.backward(caches[i], g)
            for j, dx in zip(node.inputs, dxs):
                if j < 0:
                    dinput = dx if dinput is None else dinput + dx
                elif j in grads:
                    grads[j] += dx
                else:
                    grads[j] = dx
        if dinput is not None:
            zero_invalid(dinput, valids[-1])
            dinput = dinput[..., : dinput.shape[-1] - pad]
        return dinput


def _pad_time(a, pad: int, dtype) -> np.ndarray:
    """A fresh ``dtype`` copy of ``a`` with ``pad`` zeros after its time axis."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + pad,), dtype=dtype)
    out[..., : a.shape[-1]] = a
    return out
