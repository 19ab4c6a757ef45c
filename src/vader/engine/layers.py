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

Both convolutions run one tap loop (kn2row). The padded input is copied once
into a channel-major plane of ``N * rows`` padded frequency rows of ``R``
padded time steps, plus ``kt`` slack columns. Kernel tap ``(i, j)`` is then
one matrix product on the contiguous columns ``x[:, a:a+L]``: forward adds
``W_ij @ x[:, a:a+L]`` to output columns ``b, b+s, ...``; backward adds
``W_ij.T @ dy`` to ``dx[:, a:a+L]`` and sets ``dW_ij = dy @ x[:, a:a+L].T``.
``Conv`` has ``s = 1`` and the time tap in ``a``; ``TransposedConvTime`` has
``s = stride``, the time tap in ``b`` and output rows ``s * R`` long, so no
zero-stuffed copy is made.
"""

from __future__ import annotations

import numpy as np

from ..errors import MissingForwardCache, NonFiniteInput, ShapeMismatch

#: Sigmoid outputs are clipped into this open interval so the probability
#: contract stays strict even where float arithmetic would saturate.
SIGMOID_EPS = 1e-7


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

    def forward(self, xs, valids, want_cache):
        raise NotImplementedError

    def backward(self, cache, dy):
        raise NotImplementedError


def _require(cache):
    if cache is None:
        raise MissingForwardCache("backward() needs a forward() pass with want_cache=True")
    return cache


def _window(plane, n, rows, width, win):
    """The ``(C, N, F, T)`` block ``win`` of a ``(C, columns)`` plane whose
    columns hold ``n * rows`` rows of ``width``."""
    return plane[:, : n * rows * width].reshape(len(plane), n, rows, width)[(..., *win)]


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
        self.name = name
        self.weight = Param(f"{name}.weight", np.zeros((c_out, c_in, kf, kt)))
        self.bias = Param(f"{name}.bias", np.zeros(c_out))

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

    def _time_layout(self):
        """Zeros before and after each input row; output start in its row."""
        pt = (self.kt - 1) // 2
        return pt, pt, 0

    def _offsets(self, i, j, width):
        """Input and output plane offsets ``(a, b)`` of tap ``(i, j)``."""
        return i * width + j, 0

    def _layout(self, shape):
        """``(N, rows, width)`` of the planes for an input of ``shape``, and
        the input's and the output's ``(freq, time)`` window in their rows."""
        N, C, F, T = shape
        if C != self.c_in:
            raise ShapeMismatch(f"input has {C} channels, kernel expects {self.c_in}")
        f0, f1 = ((self.kf - 1) // 2, self.kf // 2) if self.freq_padding == "same" else (0, 0)
        (lo, hi, start), rows = self._time_layout(), F + f0 + f1
        if rows < self.kf:
            raise ShapeMismatch(f"{rows} padded frequency rows, kernel spans {self.kf}")
        x_win = (slice(f0, f0 + F), slice(lo, lo + T))
        y_win = (slice(0, rows - self.kf + 1), slice(start, start + self.stride * T))
        return N, rows, T + lo + hi, x_win, y_win

    def _taps(self, n, rows, width):
        """The one tap loop: tap ``(i, j)`` reads input plane columns ``a + k``
        and writes output plane columns ``b + stride*k``, ``k < L``, which
        output phase ``b % stride`` holds contiguously."""
        L = (n * rows - self.kf + 1) * width
        for i in range(self.kf):
            for j in range(self.kt):
                a, b = self._offsets(i, j, width)
                yield i, j, slice(a, a + L), b % self.stride, slice(b // self.stride, b // self.stride + L)

    def forward(self, xs, valids, want_cache):
        (x,) = xs
        lay = N, rows, width, x_win, y_win = self._layout(x.shape)
        s, size = self.stride, N * rows * width + self.kt  # kt slack columns for the last taps
        xp = np.zeros((self.c_in, size), dtype=x.dtype)
        _window(xp, N, rows, width, x_win)[...] = x.transpose(1, 0, 2, 3)
        w = np.ascontiguousarray(self.weight.value.transpose(2, 3, 0, 1))
        y = np.zeros((s, self.c_out, size), dtype=x.dtype)
        for i, j, cols, phase, out in self._taps(N, rows, width):
            y[phase, :, out] += w[i, j] @ xp[:, cols]
        y = _window(y.transpose(1, 2, 0).reshape(self.c_out, -1), N, rows, s * width, y_win)
        y = np.add(y.transpose(1, 0, 2, 3), self.bias.value[:, None, None], order="C")
        return y, valids[0] * s, (xp, lay) if want_cache else None

    def backward(self, cache, dy):
        xp, (N, rows, width, x_win, y_win) = _require(cache)
        s, size = self.stride, xp.shape[1]
        dyp = np.zeros((self.c_out, s * size), dtype=dy.dtype)
        _window(dyp, N, rows, s * width, y_win)[...] = dy.transpose(1, 0, 2, 3)
        dyp = np.ascontiguousarray(dyp.reshape(self.c_out, size, s).transpose(2, 0, 1))
        w = np.ascontiguousarray(self.weight.value.transpose(2, 3, 0, 1))
        dw, dxp = np.empty_like(w), np.zeros_like(xp)
        for i, j, cols, phase, out in self._taps(N, rows, width):
            np.matmul(dyp[phase, :, out], xp[:, cols].T, out=dw[i, j])
            dxp[:, cols] += w[i, j].T @ dyp[phase, :, out]
        self.weight.grad += dw.transpose(2, 3, 0, 1)
        self.bias.grad += dy.sum(axis=(0, 2, 3))
        return [np.ascontiguousarray(_window(dxp, N, rows, width, x_win).transpose(1, 0, 2, 3))]


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
        # Tap j takes input column c to output column stride*c + crop - j, as
        # correlating the zero-stuffed input padded by `crop` would; output
        # rows start `top - crop` early, so every offset b = top - j >= 0.
        self._crop = (kt + stride - 2) // 2
        self._top = max(self._crop, kt - 1)

    def config(self):
        return {**super().config(), "stride": self.stride}

    def _time_layout(self):
        # The last inputs of a row may spill into the next output row, but
        # only into its first `start` columns, which precede the output.
        start = self._top - self._crop
        return 0, -(-start // self.stride), start

    def _offsets(self, i, j, width):
        return i * width, self._top - j


class MaxPool(Layer):
    """Max pooling; time extent must divide the padded input, frequency is
    ceil-padded with the dtype minimum."""

    kind = "max_pool"

    def __init__(self, pool_f, pool_t, name="pool"):
        self.pool_f, self.pool_t = pool_f, pool_t
        self.name = name

    def config(self):
        return {"pool": [self.pool_f, self.pool_t]}

    def forward(self, xs, valids, want_cache):
        (x,) = xs
        N, C, F, T = x.shape
        pf, pt = self.pool_f, self.pool_t
        if T % pt:
            raise ShapeMismatch(f"time length {T} not divisible by pool size {pt}")
        fpad = (-F) % pf
        if fpad:
            x = np.pad(x, ((0, 0), (0, 0), (0, fpad), (0, 0)), constant_values=np.finfo(x.dtype).min)
        Fp = F + fpad
        win = x.reshape(N, C, Fp // pf, pf, T // pt, pt).transpose(0, 1, 2, 4, 3, 5)
        win = win.reshape(N, C, Fp // pf, T // pt, pf * pt)
        arg = win.argmax(axis=-1)
        y = np.take_along_axis(win, arg[..., None], axis=-1)[..., 0]
        cache = (arg, (N, C, F, T, fpad)) if want_cache else None
        return y, -(-valids[0] // pt), cache

    def backward(self, cache, dy):
        arg, (N, C, F, T, fpad) = _require(cache)
        pf, pt = self.pool_f, self.pool_t
        Fp = F + fpad
        onehot = arg[..., None] == np.arange(pf * pt)
        dwin = onehot * dy[..., None]
        dx = (
            dwin.reshape(N, C, Fp // pf, T // pt, pf, pt)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(N, C, Fp, T)
        )
        if fpad:
            dx = dx[:, :, :F, :]
        return [np.ascontiguousarray(dx)]


class GroupNorm(Layer):
    """Per-sample, per-group normalisation over (channels-in-group, F, valid T)
    with a trainable per-channel affine map."""

    kind = "group_norm"

    def __init__(self, channels, groups, eps=1e-5, name="gn"):
        if channels % groups:
            raise ValueError(f"channels {channels} not divisible by groups {groups}")
        self.channels, self.groups, self.eps = channels, groups, eps
        self.name = name
        self.gamma = Param(f"{name}.gamma", np.ones(channels))
        self.beta = Param(f"{name}.beta", np.zeros(channels))

    def params(self):
        return [self.gamma, self.beta]

    def config(self):
        return {"channels": self.channels, "groups": self.groups, "eps": self.eps}

    def forward(self, xs, valids, want_cache):
        (x,) = xs
        valid = valids[0]
        N, C, F, T = x.shape
        if C != self.channels:
            raise ShapeMismatch(f"expected {self.channels} channels, got {C}")
        g, cg = self.groups, C // self.groups
        xg = x.reshape(N, g, cg, F, T)
        count = (valid.astype(x.dtype) * cg * F).reshape(N, 1)
        # padded tails are zero, so full-axis sums equal valid-position sums
        s1 = xg.sum(axis=(2, 3, 4))
        s2 = (xg * xg).sum(axis=(2, 3, 4))
        mean = s1 / count
        var = np.maximum(s2 / count - mean * mean, 0.0)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (xg - mean[:, :, None, None, None]) * inv_std[:, :, None, None, None]
        y = xhat.reshape(N, C, F, T) * self.gamma.value[None, :, None, None]
        y += self.beta.value[None, :, None, None]
        cache = (xhat, inv_std, count, valid) if want_cache else None
        return y, valid, cache

    def backward(self, cache, dy):
        xhat, inv_std, count, valid = _require(cache)
        N, C, F, T = dy.shape
        g, cg = self.groups, C // self.groups
        self.gamma.grad += (dy * xhat.reshape(N, C, F, T)).sum(axis=(0, 2, 3))
        self.beta.grad += dy.sum(axis=(0, 2, 3))
        dxhat = (dy * self.gamma.value[None, :, None, None]).reshape(N, g, cg, F, T)
        # dy is zero on padded tails, so these sums run over valid positions
        s_d = dxhat.sum(axis=(2, 3, 4))
        s_dx = (dxhat * xhat).sum(axis=(2, 3, 4))
        dx = (
            dxhat
            - (s_d / count)[:, :, None, None, None]
            - xhat * (s_dx / count)[:, :, None, None, None]
        ) * inv_std[:, :, None, None, None]
        dx = dx.reshape(N, C, F, T)
        return [zero_invalid(dx, valid)]


class ReLU(Layer):
    kind = "relu"

    def forward(self, xs, valids, want_cache):
        (x,) = xs
        y = np.maximum(x, 0)
        cache = (x > 0) if want_cache else None
        return y, valids[0], cache

    def backward(self, cache, dy):
        pos = _require(cache)
        return [dy * pos]


class Sigmoid(Layer):
    kind = "sigmoid"

    def forward(self, xs, valids, want_cache):
        (x,) = xs
        y = np.empty_like(x)
        pos = x >= 0
        y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        y[~pos] = ex / (1.0 + ex)
        np.clip(y, SIGMOID_EPS, 1.0 - SIGMOID_EPS, out=y)
        cache = y if want_cache else None
        return y, valids[0], cache

    def backward(self, cache, dy):
        y = _require(cache)
        return [dy * y * (1.0 - y)]


class Concat(Layer):
    """Channel concatenation; inputs must agree on (N, F, T)."""

    kind = "concat"

    def forward(self, xs, valids, want_cache):
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

    def forward(self, xs, valids, want_cache):
        a, b = xs
        if a.shape != b.shape:
            raise ShapeMismatch(f"add inputs disagree: {a.shape} vs {b.shape}")
        return a + b, np.minimum.reduce(valids), ()

    def backward(self, cache, dy):
        return [dy, dy.copy()]


class ReduceMaxFreq(Layer):
    """Collapse the frequency axis to a single bin by max."""

    kind = "reduce_max_freq"

    def forward(self, xs, valids, want_cache):
        (x,) = xs
        arg = x.argmax(axis=2)
        y = np.take_along_axis(x, arg[:, :, None, :], axis=2)
        cache = (arg, x.shape) if want_cache else None
        return y, valids[0], cache

    def backward(self, cache, dy):
        arg, shape = _require(cache)
        onehot = arg[:, :, None, :] == np.arange(shape[2])[None, None, :, None]
        return [onehot * dy]


class TileFreq(Layer):
    """Repeat a single-bin frequency axis ``reps`` times."""

    kind = "tile_freq"

    def __init__(self, reps):
        self.reps = reps

    def config(self):
        return {"reps": self.reps}

    def forward(self, xs, valids, want_cache):
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

    def param_count(self) -> int:
        return int(sum(p.value.size for p in self.params()))

    def init_params(self, seed: int) -> None:
        ss = np.random.SeedSequence(seed)
        children = ss.spawn(len(self.nodes))
        for node, child in zip(self.nodes, children):
            if hasattr(node.layer, "init"):
                node.layer.init(np.random.Generator(np.random.PCG64(child)))

    def forward(self, x: np.ndarray, valid=None, want_cache=False):
        """Run the graph on an ``(N, C, F, T)`` input of any dtype and length,
        valid up to ``valid`` (default ``T``); returns the output, and with
        ``want_cache`` a context for :meth:`backward`. Raises NonFiniteInput
        for a valid input value that is not finite in the network's dtype."""
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
        acts: dict[int, np.ndarray] = {-1: xp}
        valids: dict[int, np.ndarray] = {-1: valid}
        caches: list = []
        for i, node in enumerate(self.nodes):
            xs = [acts[j] for j in node.inputs]
            vs = [valids[j] for j in node.inputs]
            y, v, cache = node.layer.forward(xs, vs, want_cache)
            zero_invalid(y, v)
            acts[i] = y
            valids[i] = v
            caches.append(cache)
        out = acts[len(self.nodes) - 1]
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
