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
network's. A parameter's gradient buffer exists only from the first read of
its ``grad``, which allocates it zeroed in the value's dtype: building or
loading a network allocates no gradient, a training step's ``zero_grads``
does, and ``training.train`` releases them from the network it returns.

Every convolution pass is one stride-1 correlation, ``_correlate``, run
tile by tile so that it allocates nothing that grows with the series but
its output: a tile is whole sample rows, or one row's pieces, of as many
output columns as keep its shift block, and any product beside the output,
within ``BLOCK`` elements. A kernel spanning several frequency rows stacks
them with the channels into ``F * C`` rows; a one-row kernel leaves them as
sample rows beside the batch. Each tile copies its input columns and ``kt -
1`` halo columns (zero beyond the series) into a padded segment, whose
``kt`` sliding windows, copied once, are the block, row ``(input row,
shift)``; with one shift, the block is the tile's columns, a view of the
input where their layout allows. The kernel becomes a block-Toeplitz
("banded") matrix of ``O * F'`` rows whose row ``(o, fo)`` holds the taps
that reach input row ``fi`` at ``fi - fo + lo`` and zeros elsewhere, so a
tile's correlation is ``band @ block`` (the unrolling of im2col and kn2row,
applied to time in the block and to frequency in the kernel; Vasudevan et
al. 2017). For one sample at stride 1 the ``(O, F', T')`` products are the
output, which takes the bias in place; other strides and batches write each
tile's phases and samples, with the bias, into the output. The band
multiplies its zeros, more of them the narrower the kernel is against the
rows (about twice the useful work for a 9-row kernel over 16 rows, 5.6
times for a 3-row one), in exchange for one well-shaped product instead of
one thin, memory-bound one per frequency tap. Because the block's rows run
(channel, shift), as the ``(O, C, 1, kt)`` weight's do, a stride-1 one-row
kernel's band is a view of the weight: a forward pass copies no weight.
A ``Conv`` at ``stride > 1`` is the decoder's transposed convolution,
upsampling time by ``stride``: it correlates with a sub-kernel of ``stride *
c_out`` output channels, one group per output time phase, and interleaves
the phases (sub-pixel convolution; Shi et al. 2016). That sub-kernel is the
weight zero-extended in time to a multiple of ``stride`` taps and cut into
``stride``-wide rows: row ``m`` holds shift ``m``'s taps, one per phase, in
reverse phase order. The forward cache holds it and the layer's input. The
input gradient correlates ``dy``, its phases as channels, with the flipped,
channel-swapped kernel under the complementary padding (Dumoulin & Visin
2016); the kernel gradient is a sum, in tile order, of products of ``dy``'s
tiles, gathered as the forward's products, with the blocks rebuilt from the
input, summed back along the band.

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
cache is ever changed. ``Network.backward`` consumes its context: it takes
each node's cache off the context as it walks back and drops it, with the
node's output gradient, once the node's backward has run, so memory falls
as the walk goes; a consumed context is refused.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NonFiniteInput, ShapeMismatch

#: Probabilities stay in ``[PROB_EPS, 1 - PROB_EPS]``: sigmoid outputs are
#: clipped into it so the probability contract stays strict where float
#: arithmetic would saturate, and the focal loss clamps to it before logs.
PROB_EPS = 1e-7
#: Elements (4 MiB of float32) that a convolution tile's shift block, and a
#: tile product that is not the pass's output, may each hold: a tile takes
#: as many output columns as keep both within it, however long the series.
BLOCK = 1 << 20


class Param:
    """One trainable array with its gradient buffer. The buffer exists only
    once ``grad`` is read: the first read allocates it, zeroed and in the
    value's dtype, and assigning ``None`` releases it. So a network that
    only infers holds its weights and no gradients."""

    __slots__ = ("name", "value", "_grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self._grad = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, buffer) -> None:
        self._grad = buffer

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
        raise ValueError("backward() needs a forward() pass with want_cache=True")
    return cache


def _rows(kf, freq):
    """Frequency rows a tile stacks along its row axis: every row for a
    kernel spanning several, none for a one-row kernel, whose rows stay
    sample rows."""
    return freq if kf > 1 else 1


def _parts(grid, a, k, cols):
    """Sample rows ``a`` to ``a + k`` of the ``(..., N, rest, T)`` array
    ``grid``, whose sample row ``n * rest + r`` is ``grid[..., n, r, :]``,
    in the columns ``cols``: one ``(tile rows, view)`` pair per sample."""
    rest, i = grid.shape[-2], a
    while i < a + k:
        n, r = divmod(i, rest)
        m = min(a + k - i, rest - r)
        yield slice(i - a, i - a + m), grid[..., n, r : r + m, cols]
        i += m


def _block(grid, a, k, b, w, lo, kt):
    """The shift block of the tile of sample rows ``a`` to ``a + k`` and
    output columns ``b`` to ``b + w`` over the ``(rows, ..., N, rest, T)``
    input ``grid`` zero-padded by ``lo`` columns in front: row ``(r, c, j)``
    is input row ``(r, c)`` shifted by ``j``."""
    i0, i1 = max(b - lo, 0), min(b - lo + w + kt - 1, grid.shape[-1])  # the series' columns in it
    parts = list(_parts(grid, a, k, slice(i0, i1)))
    if kt == 1 and len(parts) == 1:  # no halo: the tile's columns, a view where they allow
        return parts[0][1].reshape(-1, k * w)
    seg = np.empty(grid.shape[:-3] + (k, w + kt - 1), grid.dtype)  # padded: the windows' copy is the block
    seg[..., : i0 - b + lo] = 0
    seg[..., i1 - b + lo :] = 0
    for part, src in parts:
        seg[..., part, i0 - b + lo : i1 - b + lo] = src
    i, width = seg.itemsize, w + kt - 1
    windows = np.ndarray((seg.size // (k * width), kt, k, w), seg.dtype, seg, 0, (k * width * i, i, width * i, i))
    return windows.reshape(-1, k * w)


def _tiles(x, rows, kt, lo, t_out, n_out):
    """The tiles of a stride-1 correlation of the channel-major ``(..., N,
    F, T)`` input ``x`` (its channels may span several axes), zero-padded by
    ``lo`` columns in front: ``F`` splits into ``rows`` stacked rows and
    ``F // rows`` sample rows of ``t_out`` output columns. A tile's columns
    keep its block and an ``n_out``-row product within ``BLOCK`` elements.
    Yields ``(a, k, cols, block)`` for sample rows ``a`` to ``a + k`` and
    output columns ``cols``; a caller drops the block before the next."""
    *chan, N, F, T = x.shape
    d = len(chan)
    grid = x.reshape(*chan, N, rows, F // rows, T).transpose(d + 1, *range(d + 1), d + 2, d + 3)
    n_rows = N * (F // rows)
    cap = max(1, BLOCK // max(rows * math.prod(chan) * kt, n_out))  # output columns per tile
    step, width = max(1, cap // max(t_out, 1)), max(1, min(cap, t_out))
    for a in range(0, n_rows, step):
        k = min(step, n_rows - a)
        for b in range(0, t_out, width):
            w = min(width, t_out - b)
            yield a, k, slice(b, b + w), _block(grid, a, k, b, w, lo, kt)


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


def _product_view(a, stride, f_out):
    """The ``(N, O, F, stride * T)`` array ``a`` laid out as a correlation's
    product, ``(stride, O, f_out, N, F // f_out, T)``: phase ``p`` of time
    step ``t`` is column ``stride * t + p``. A view."""
    N, O, F, T = a.shape
    return a.reshape(N, O, f_out, F // f_out, T // stride, stride).transpose(5, 1, 2, 0, 3, 4)


def _correlate(x, w, freq_pads, time_pads, stride=1, bias=None):
    """Stride-1 correlation of the channel-major ``(..., N, F, T)`` input
    ``x``, zero-padded by the ``(lo, hi)`` pairs, with the ``(stride * O, C,
    kf, kt)`` kernel ``w``, plus ``bias``: one product of the banded kernel
    (:func:`_band`) with each tile's shift block (:func:`_tiles`). Returns
    the ``(N, O, F', stride * T')`` output, in which kernel channel ``p * O
    + o`` is channel ``o`` at time phase ``p``. At batch 1 and stride 1 the
    products are written into it and the bias added in place; otherwise
    each tile's product is interleaved into it with the bias."""
    *_, N, F, T = x.shape
    K, _, kf, kt = w.shape
    if F + sum(freq_pads) < kf:
        raise ShapeMismatch(f"{F + sum(freq_pads)} padded frequency rows, kernel spans {kf}")
    rows, t_out = _rows(kf, F), T + sum(time_pads) - kt + 1
    band = _band(w, rows, freq_pads)
    f_out = len(band) // K
    out = np.empty((N, K // stride, f_out * F // rows, stride * t_out), x.dtype)
    flat = out.reshape(len(band), -1) if N == 1 and stride == 1 else None  # the product's layout
    view = _product_view(out, stride, f_out)
    for a, k, cols, block in _tiles(x, rows, kt, time_pads[0], t_out, len(band)):
        start = a * t_out + cols.start
        prod = np.matmul(band, block, out=None if flat is None else flat[:, start : start + block.shape[1]])
        if flat is None:  # interleave the tile's phases and samples into the output
            prod = prod.reshape(view.shape[:3] + (k, -1))
            for part, dst in _parts(view, a, k, cols):
                if bias is None:
                    dst[...] = prod[..., part, :]
                else:
                    np.add(prod[..., part, :], bias[:, None, None, None], out=dst)
        del block, prod  # before the next tile's
    if flat is not None and bias is not None:
        out += bias[:, None, None]
    return out


class Conv(Layer):
    """Convolution, 'same' on time, 'same' or 'valid' on frequency, which it
    never strides. At ``stride`` 1 (kind ``conv``) the time kernel is odd; at
    ``stride > 1`` (kind ``transposed_conv``) the layer is the decoder's
    transposed convolution, upsampling time by ``stride``, and its time
    kernel may be even."""

    def __init__(self, c_in, c_out, kf, kt, freq_padding="same", stride=1):
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if stride == 1 and kt % 2 != 1:
            raise ValueError(f"time kernel extent must be odd, got {kt}")
        if freq_padding not in ("same", "valid"):
            raise ValueError(freq_padding)
        self.kind = "conv" if stride == 1 else "transposed_conv"
        self.c_in, self.c_out, self.kf, self.kt, self.stride = c_in, c_out, kf, kt, stride
        self.freq_padding = freq_padding
        self.weight = Param("weight", np.zeros((c_out, c_in, kf, kt)))
        self.bias = Param("bias", np.zeros(c_out))
        self._freq_pads = ((kf - 1) // 2, kf // 2) if freq_padding == "same" else (0, 0)
        # Time tap j takes input column c to output column stride*c + crop - j,
        # as correlating the zero-stuffed input padded by `crop` would. With
        # `lead` zero taps in front of the weight, extended tap J then lands in
        # output phase stride - 1 - J % stride at shift J // stride - crop //
        # stride: the sub-pixel kernel is the extended weight cut into
        # stride-wide rows. With stride 1 the shifts are the 'same' padding's.
        s = stride
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
        cfg = {
            "c_in": self.c_in,
            "c_out": self.c_out,
            "kernel": [self.kf, self.kt],
            "freq_padding": self.freq_padding,
        }
        return cfg if self.stride == 1 else {**cfg, "stride": self.stride}

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
        if x.shape[1] != self.c_in:
            raise ShapeMismatch(f"input has {x.shape[1]} channels, kernel expects {self.c_in}")
        k = self._kernel(x.dtype)
        y = _correlate(x.transpose(1, 0, 2, 3), k, self._freq_pads, self._time_pads, self.stride, self.bias.value)
        return y, valids[0] * self.stride, (x, k) if want_cache else None

    def backward(self, cache, dy):
        x, k = _require(cache)
        s, O, C = self.stride, self.c_out, self.c_in
        N, _, F, T = dy.shape
        kf, kt = k.shape[2:]
        rows, fb = _rows(kf, x.shape[2]), _rows(kf, F)
        # dK: the column-ordered sum of tile products of dy, gathered as the
        # forward's product (rows (p, o, fo), or (p, o) with the rows in the
        # columns), with the rebuilt blocks; then the band sum.
        dyv = _product_view(dy, s, fb)
        band = np.zeros((s * O * fb, rows * C * kt), dy.dtype)  # a zero-length series has no tiles
        for a, m, cols, block in _tiles(x.transpose(1, 0, 2, 3), rows, kt, self._time_pads[0], T // s, len(band)):
            dyt = np.empty(dyv.shape[:3] + (m, cols.stop - cols.start), dy.dtype)
            for part, src in _parts(dyv, a, m, cols):
                dyt[..., part, :] = src
            band += dyt.reshape(len(band), -1) @ block.T
            del block, dyt  # before the next tile's
        dk = _unband(band, k.shape, rows, self._freq_pads).reshape(s, O, C, kf, kt)
        dw = dk[::-1].transpose(1, 2, 3, 4, 0).reshape(O, C, kf, -1)  # the cut undone
        self.weight.grad += dw[..., self._lead : self._lead + self.kt]
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        # The input gradient correlates dy, its phases as channels, with the
        # flipped, channel-swapped kernel under the complementary padding.
        pads = [(n - 1 - lo, n - 1 - hi) for n, (lo, hi) in ((kf, self._freq_pads), (kt, self._time_pads))]
        dy_phases = dy.reshape(N, O, F, T // s, s).transpose(4, 1, 0, 2, 3)
        return [_correlate(dy_phases, k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), *pads)]


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

    def __init__(self, channels, groups, eps=1e-5):
        if channels % groups:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.channels, self.groups, self.eps = channels, groups, eps
        self.gamma = Param("gamma", np.ones(channels))
        self.beta = Param("beta", np.zeros(channels))

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
        """Append node ``name``; its parameters take the network's dtype and
        the node's name in front of their own (``<name>.weight``)."""
        for p in layer.params():
            p.name = f"{name}.{p.name}"
            p.value = p.value.astype(self.dtype)
            p.grad = None  # allocated in the network's dtype at its first read
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
        the valid lengths. Raises ShapeMismatch for an input that is not 4-D
        or has no time samples, and NonFiniteInput for a valid input value
        that is not finite in the network's dtype."""
        x = np.asarray(x)
        if x.ndim != 4:
            raise ShapeMismatch(f"expected (N, C, F, T) input, got shape {x.shape}")
        if x.shape[-1] == 0:
            raise ShapeMismatch(f"input {x.shape} has no time samples")
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
        dtype); returns the input gradient. Consumes ``ctx``: each node's
        cache is popped off it as the walk back reaches the node, whether a
        gradient reaches it or not, and is released with the node's output
        gradient once its backward has run, so memory falls as the walk
        goes. Raises ValueError for a consumed context, before any
        gradient changes."""
        if ctx is None:
            raise ValueError("no forward context")
        valids, caches, pad = ctx
        if len(caches) != len(self.nodes):
            raise ValueError("context already consumed")
        grads: dict[int, np.ndarray] = {len(self.nodes) - 1: _pad_time(dy, pad, self.dtype)}
        dinput = None
        for i in range(len(self.nodes) - 1, -1, -1):
            cache = caches.pop()
            g = grads.pop(i, None)
            if g is None:
                continue
            zero_invalid(g, valids[i])
            node = self.nodes[i]
            dxs = node.layer.backward(cache, g)
            del cache, g
            for j, dx in zip(node.inputs, dxs):
                if j < 0:
                    dinput = dx if dinput is None else dinput + dx
                elif j in grads:
                    grads[j] += dx
                else:
                    grads[j] = dx
            del dxs, dx  # an input gradient summed into another is spent
        if dinput is not None:
            zero_invalid(dinput, valids[-1])
            dinput = dinput[..., : dinput.shape[-1] - pad]
        return dinput


def _pad_time(a, pad: int, dtype) -> np.ndarray:
    """A fresh ``dtype`` copy of ``a`` with ``pad`` zeros after its time axis."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + pad,), dtype=dtype)
    out[..., : a.shape[-1]] = a
    return out
