"""Self-contained numerical core: the conv+LSTM chart model.

No ML runtime; everything is numpy. Every layer takes a leading batch
axis, so one :func:`forward` / :func:`backward` call runs a whole training
minibatch, and validation and generation run the same layers on batches
of their own. float32 by default, float64 available for finite-difference
gradient verification.

Layout conventions, fixed across forward/backward/checkpoints:

* images are (batch, height=frames, width=bands, channels), conv kernels
  are (out_ch, in_ch, 3, 3) with same-padding, pooling is 2x2;
* fully-connected weights are (in, out), applied as ``x @ w + b``;
* LSTM gate weights pack the four gates row-wise as [input; forget;
  candidate; output], each ``hidden`` rows: w_x is (4*hidden, in),
  w_h is (4*hidden, hidden). The per-step output is ``o * relu(c)``
  (ReLU in place of the usual tanh on the output side; gates stay
  sigmoid, the candidate stays tanh).

The network: conv(16) -> dropout(0.8) -> pool -> conv(32) -> pool ->
fc(2560->128) -> reshape to 16 segments x 8 features -> element-wise fuse
with the 15 note one-hots (right-padded with a constant 1; the masked
final segment uses all ones) -> LSTM(64) -> dropout(0.8) -> LSTM(64) ->
fc(64->28) -> four independent 7-way softmax rows.

:func:`forward` is built from pieces that inference calls one by one:

* :func:`trunk` runs everything before the note fusion (conv1 through fc1
  and its ReLU) and returns the 16 segments per window. Only training
  calls it, because its dropout masks are drawn per window; it reads no
  notes.
* :func:`song_trunk` gives the same segments, for inference, for every
  window of a run of consecutive feature rows at once. Consecutive windows
  overlap in 15 of 16 frames, and only a window's first and last rows see
  its zero padding, so conv1, pool1 and the conv2 and pool2 rows that read
  no padded row are computed once per row; only the edge rows are
  computed per window. Its sums run in another order than :func:`trunk`'s,
  so the two agree to rounding, not bit for bit. Validation and
  generation call it.
* :func:`recurrent_forward` runs the rest: note fusion, lstm1, its
  dropout, lstm2 and the head. :func:`forward` calls it for training and
  validation calls it on :func:`song_trunk`'s segments.
* :func:`_lstm_step` is one recurrent step for a batch of rows, given the
  step's input projection. :func:`_lstm_forward` loops it over a window's
  16 steps; generation runs it across windows, one step of each.
* :func:`_head` maps the last LSTM output to the four softmax rows.

Every parameter kind lives in one flat buffer: a :class:`ParamBuffer`
holds all 14 groups back to back in :data:`PARAM_NAMES` order, and each
group is a reshaped view of it. The parameters (``ModelParams.arrays``),
the gradients :func:`backward` returns and Adam's two moments each have
one, in the same layout, so the gradient's division by the batch size and
its finiteness check are one pass over its buffer, and :func:`adam_step`
runs over the four buffers together in cache-sized blocks.

The 2x2 max pool is the element-wise max of four strided views and keeps
no argmax. Its backward pass rebuilds the pool's input from cached
activations (conv1's output and dropout mask, conv2's output) and sends
each gradient to the first of the four inputs, in (row, column) order,
that equals the pooled max.
"""

from __future__ import annotations

import math
import struct
import zlib
from collections.abc import Mapping
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .audio import NormStats
from .chart import NUM_CLASSES
from .errors import (
    BadMagic,
    ChecksumMismatch,
    CorruptFile,
    NonFiniteActivation,
    NonFiniteGradient,
    ShapeMismatch,
    TruncatedFile,
    VersionMismatch,
)

DROPOUT_P = 0.8
PROB_FLOOR = 1e-9

CHECKPOINT_MAGIC = b"TKNM"
CHECKPOINT_VERSION = 2

PARAM_NAMES = (
    "conv1_w", "conv1_b",
    "conv2_w", "conv2_b",
    "fc1_w", "fc1_b",
    "lstm1_wx", "lstm1_wh", "lstm1_b",
    "lstm2_wx", "lstm2_wh", "lstm2_b",
    "out_w", "out_b",
)


@dataclass(frozen=True)
class ArchConfig:
    """Network size constants. Defaults are the full chart model."""

    frames: int = 16
    bands: int = 80
    conv1_filters: int = 16
    conv2_filters: int = 32
    seg_features: int = 8
    hidden: int = 64
    classes: int = NUM_CLASSES
    horizon: int = 4

    def __post_init__(self):
        if min(self.as_tuple()) < 1:
            raise ValueError("architecture constants must be positive")
        if self.frames % 4 or self.bands % 4:
            raise ValueError("frames and bands must be divisible by 4 (two 2x2 pools)")
        if self.classes != NUM_CLASSES:
            raise ValueError(f"classes must be the {NUM_CLASSES} chart note classes, got {self.classes}")
        if self.seg_features != self.classes + 1:
            raise ValueError("segment features must be note classes + 1 bias channel")

    @property
    def context(self) -> int:
        return self.frames - 1

    @property
    def fc1_out(self) -> int:
        return self.frames * self.seg_features

    @property
    def flat_size(self) -> int:
        return (self.frames // 4) * (self.bands // 4) * self.conv2_filters

    @property
    def out_size(self) -> int:
        return self.horizon * self.classes

    def as_tuple(self) -> tuple[int, ...]:
        """The constants in field order, the order of a checkpoint header."""
        return astuple(self)


DEFAULT_ARCH = ArchConfig()


def param_shapes(arch: ArchConfig) -> dict[str, tuple[int, ...]]:
    h4 = 4 * arch.hidden
    return {
        "conv1_w": (arch.conv1_filters, 1, 3, 3),
        "conv1_b": (arch.conv1_filters,),
        "conv2_w": (arch.conv2_filters, arch.conv1_filters, 3, 3),
        "conv2_b": (arch.conv2_filters,),
        "fc1_w": (arch.flat_size, arch.fc1_out),
        "fc1_b": (arch.fc1_out,),
        "lstm1_wx": (h4, arch.seg_features),
        "lstm1_wh": (h4, arch.hidden),
        "lstm1_b": (h4,),
        "lstm2_wx": (h4, arch.hidden),
        "lstm2_wh": (h4, arch.hidden),
        "lstm2_b": (h4,),
        "out_w": (arch.hidden, arch.out_size),
        "out_b": (arch.out_size,),
    }


def param_count(arch: ArchConfig) -> int:
    """Elements in all parameter groups together, as an exact Python int."""
    return sum(math.prod(shape) for shape in param_shapes(arch).values())


class ParamBuffer(Mapping):
    """Every parameter group of an architecture in one flat buffer.

    ``flat`` holds the groups back to back in :data:`PARAM_NAMES` order, and
    ``buf[name]`` is the group's reshaped view of it, so element-wise work
    over all groups is one pass over ``flat``. Given ``arrays``, a mapping
    of every group's array, the buffer starts as a copy of them; otherwise
    it starts as zeros.
    """

    def __init__(self, arch: ArchConfig, dtype=np.float32, arrays: Mapping | None = None):
        shapes = param_shapes(arch)
        if arrays is not None and set(arrays) != set(shapes):
            raise ShapeMismatch("parameter set does not match architecture")
        self.arch = arch
        self.flat = np.zeros(param_count(arch), dtype=dtype)
        self._views: dict[str, np.ndarray] = {}
        at = 0
        for name in PARAM_NAMES:
            size = math.prod(shapes[name])
            self._views[name] = self.flat[at : at + size].reshape(shapes[name])
            at += size
            if arrays is not None:
                self[name] = arrays[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        """Write ``value`` into the group's view (as ``buf[name] *= 4``
        does); the layout never changes."""
        view = self._views[name]
        if np.shape(value) != view.shape:
            raise ShapeMismatch(f"{name}: expected shape {view.shape}, got {np.shape(value)}")
        view[...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


@dataclass
class ModelParams:
    """All learnable arrays, one :class:`ParamBuffer` laid out for
    ``arch``, plus the feature normalization that trained them."""

    arch: ArchConfig
    norm: NormStats
    arrays: ParamBuffer = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.arrays, ParamBuffer):
            raise TypeError(f"parameters must be a ParamBuffer, got {type(self.arrays).__name__}")
        if self.arrays.arch != self.arch:
            raise ShapeMismatch("parameter buffer was laid out for another architecture")
        if len(self.norm.mean) != self.arch.bands:
            raise ShapeMismatch(f"normalization stats hold {len(self.norm.mean)} bands, the architecture {self.arch.bands}")

    @property
    def flat(self) -> np.ndarray:
        return self.arrays.flat

    @property
    def dtype(self):
        return self.flat.dtype

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def copy(self) -> "ModelParams":
        return replace(self, arrays=ParamBuffer(self.arch, self.dtype, self.arrays))


def init_params(
    arch: ArchConfig = DEFAULT_ARCH,
    seed: int = 0,
    dtype=np.float32,
    norm: NormStats | None = None,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, LSTM forget-gate bias +1. A
    weight's fan-in + fan-out is the sum of its first two axes times the
    product of the rest; the groups draw in :data:`PARAM_NAMES` order."""
    rng = np.random.default_rng(seed)
    h = arch.hidden
    arrays = ParamBuffer(arch, dtype)
    for name in PARAM_NAMES:
        w = arrays[name]
        if w.ndim > 1:
            limit = np.sqrt(6.0 / ((w.shape[0] + w.shape[1]) * math.prod(w.shape[2:])))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
    arrays["lstm1_b"][h : 2 * h] = 1.0
    arrays["lstm2_b"][h : 2 * h] = 1.0
    if norm is None:
        norm = NormStats(np.zeros(arch.bands), np.ones(arch.bands))
    return ModelParams(arch, norm, arrays)


# ---------------------------------------------------------------- layers

def _im2col(x):
    """Same-padded 3x3 neighbourhoods of a (B, H, W, Cin) batch as a
    (B*H*W, 9*Cin) matrix, ordered (ky, kx, cin) along each row."""
    n, hh, ww, cin = x.shape
    xp = np.zeros((n, hh + 2, ww + 2, cin), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    cols = np.empty((n, hh, ww, 9 * cin), dtype=x.dtype)
    for k in range(9):
        ky, kx = divmod(k, 3)
        cols[..., k * cin : (k + 1) * cin] = xp[:, ky : ky + hh, kx : kx + ww]
    return cols.reshape(n * hh * ww, 9 * cin)


def _flat_kernel(w):
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _conv2d(x, w, b):
    """Same-padded 3x3 convolution of a (B, H, W, Cin) batch via im2col."""
    y = (_im2col(x) @ _flat_kernel(w).T).reshape(*x.shape[:3], w.shape[0])
    y += b
    return y


def _conv2d_backward(x, w, dy):
    """Kernel and bias gradients of :func:`_conv2d`. The im2col matrix is
    rebuilt from the input rather than kept from the forward pass."""
    cout, cin = w.shape[:2]
    dyf = dy.reshape(-1, cout)
    dw = (dyf.T @ _im2col(x)).reshape(cout, 3, 3, cin).transpose(0, 3, 1, 2)
    return dw, dyf.sum(axis=0)


def _conv2d_input_grad(w, dy):
    """Input gradient of :func:`_conv2d` for an output gradient dy."""
    n, hh, ww, cout = dy.shape
    cin = w.shape[1]
    dcols = (dy.reshape(-1, cout) @ _flat_kernel(w)).reshape(n, hh, ww, 9, cin)
    dxp = np.zeros((n, hh + 2, ww + 2, cin), dtype=dy.dtype)
    for k in range(9):
        ky, kx = divmod(k, 3)
        dxp[:, ky : ky + hh, kx : kx + ww] += dcols[:, :, :, k]
    return dxp[:, 1:-1, 1:-1]


def _maxpool2(x):
    """2x2 max pool of a (B, H, W, C) batch: the max of its four strided views."""
    return np.maximum(
        np.maximum(x[:, 0::2, 0::2], x[:, 0::2, 1::2]),
        np.maximum(x[:, 1::2, 0::2], x[:, 1::2, 1::2]),
    )


def _maxpool2_backward(x, y, dy):
    """Input gradient of :func:`_maxpool2` for its input x and output y.

    Each output's gradient goes to the first of its four inputs, in
    (row, column) order, that equals the pooled max.
    """
    dx = np.zeros_like(dy, shape=x.shape)
    free = np.ones(y.shape, dtype=bool)
    for i in (0, 1):
        for j in (0, 1):
            hit = free & (x[:, i::2, j::2] == y)
            dx[:, i::2, j::2] = np.where(hit, dy, 0)
            free &= ~hit
    return dx


def _gate_scale(hidden: int, dtype) -> np.ndarray:
    """s per packed gate row: 0.5 on the sigmoid gates i, f, o and 1 on the
    tanh candidate g, so that ``s*tanh(s*z) + (1-s)`` is each gate's value
    (sigmoid(z) = 0.5*tanh(z/2) + 0.5)."""
    s = np.full(4 * hidden, 0.5, dtype=dtype)
    s[2 * hidden : 3 * hidden] = 1.0
    return s


def _lstm_step(zx, h, c, wh, s):
    """One LSTM step for a batch: zx is the step's input projection
    ``x @ wx.T + b``, (h, c) the previous state. Returns the packed gate
    values and the new (h, c)."""
    a = np.tanh((zx + h @ wh.T) * s)
    a *= s
    a += 1.0 - s
    hidden = wh.shape[1]
    i, f, g, o = a[:, :hidden], a[:, hidden : 2 * hidden], a[:, 2 * hidden : 3 * hidden], a[:, 3 * hidden :]
    c = f * c + i * g
    return a, o * np.maximum(c, 0.0), c


def _lstm_forward(wx, wh, b, xs):
    """Run one LSTM layer over a (B, T, in) batch; returns (B, T, hidden) outputs.

    The input projections of every step are one matmul before the
    recurrence, which then adds only ``h @ wh.T`` per step.
    """
    n, t_steps, _ = xs.shape
    h = wh.shape[1]
    s = _gate_scale(h, xs.dtype)
    zx = xs @ wx.T + b
    gates = np.empty_like(zx)
    hs = np.empty((n, t_steps, h), dtype=xs.dtype)
    cs = np.empty((n, t_steps, h), dtype=xs.dtype)
    h_t = np.zeros((n, h), dtype=xs.dtype)
    c_t = np.zeros((n, h), dtype=xs.dtype)
    for t in range(t_steps):
        gates[:, t], h_t, c_t = _lstm_step(zx[:, t], h_t, c_t, wh, s)
        cs[:, t] = c_t
        hs[:, t] = h_t
    return hs, (wx, wh, xs, hs, cs, gates)


def _lstm_backward(cache, dh_ext):
    """Backpropagate through time; dh_ext is the (B, T, hidden) external grad.

    Each step's pre-activation gradient is kept, so the weight and bias
    gradients are one matmul (or sum) each after the loop.
    """
    wx, wh, xs, hs, cs, gates = cache
    n, t_steps, h = hs.shape
    # d gate / d z: a*(1-a) on the sigmoid gates, (1-g)*(1+g) on the candidate
    slope = (1.0 - gates) * (gates + (2.0 * _gate_scale(h, gates.dtype) - 1.0))
    dz = np.empty_like(gates)
    dh_next = np.zeros((n, h), dtype=wx.dtype)
    dc_next = np.zeros((n, h), dtype=wx.dtype)
    for t in range(t_steps - 1, -1, -1):
        a = gates[:, t]
        i, f, g, o = a[:, :h], a[:, h : 2 * h], a[:, 2 * h : 3 * h], a[:, 3 * h :]
        c = cs[:, t]
        dh = dh_ext[:, t] + dh_next
        dc = dc_next + dh * o * (c > 0)
        dzt = dz[:, t]
        dzt[:, :h] = dc * g
        dzt[:, h : 2 * h] = dc * cs[:, t - 1] if t else 0.0
        dzt[:, 2 * h : 3 * h] = dc * i
        dzt[:, 3 * h :] = dh * np.maximum(c, 0.0)
        dzt *= slope[:, t]
        dh_next = dzt @ wh
        dc_next = dc * f
    dz_rows = dz.reshape(n * t_steps, 4 * h)
    dwx = dz_rows.T @ xs.reshape(n * t_steps, -1)
    dwh = dz[:, 1:].reshape(-1, 4 * h).T @ hs[:, :-1].reshape(-1, h)
    return dz @ wx, dwx, dwh, dz_rows.sum(axis=0)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def pad_note_vectors(note_context: np.ndarray, arch: ArchConfig, dtype) -> np.ndarray:
    """Right-pad the note one-hots with a constant 1 and append the all-ones
    vector standing in for the masked final segment. Leading batch axes
    pass through."""
    out = np.ones(note_context.shape[:-2] + (arch.frames, arch.seg_features), dtype=dtype)
    out[..., : arch.context, : arch.classes] = note_context
    return out


def _keep_scale(dtype) -> np.ndarray:
    """Inverted-dropout scale applied to the kept activations."""
    return np.asarray(1.0 / (1.0 - DROPOUT_P), dtype=dtype)


def _conv1_activation(a1, mask1):
    """ReLU of conv1, then its dropout when a keep mask is given: the input
    of the first pool, which the backward pass rebuilds from a1 and mask1."""
    d1 = np.maximum(a1, 0.0)
    if mask1 is not None:
        d1 *= mask1
        d1 *= _keep_scale(d1.dtype)
    return d1


def trunk(params: ModelParams, windows: np.ndarray, mask1: np.ndarray | None = None):
    """The audio trunk: conv1 -> ReLU -> dropout -> pool -> conv2 -> ReLU ->
    pool -> fc1 -> ReLU. It reads no notes.

    ``windows`` is (B, frames, bands); ``mask1`` holds conv1's dropout keep
    flags, or None for inference. Returns the (B, frames, seg_features)
    segments that the LSTM fuses with the note rows, and the activations
    :func:`backward` needs.
    """
    arch = params.arch
    x = np.asarray(windows, dtype=params.dtype)[..., None]
    n = x.shape[0]
    a1 = _conv2d(x, params["conv1_w"], params["conv1_b"])
    p1 = _maxpool2(_conv1_activation(a1, mask1))
    a2 = _conv2d(p1, params["conv2_w"], params["conv2_b"])
    flat = _maxpool2(np.maximum(a2, 0.0)).reshape(n, -1)
    a3 = flat @ params["fc1_w"] + params["fc1_b"]
    seg = np.maximum(a3, 0.0).reshape(n, arch.frames, arch.seg_features)
    return seg, {"x": x, "a1": a1, "mask1": mask1, "p1": p1, "a2": a2, "flat": flat, "a3": a3}


#: Windows per :func:`song_trunk` chunk. A chunk recomputes the frames - 1
#: feature rows it shares with the next, so small chunks repeat work; past
#: about 52 windows its largest maps exceed 1 MB, and glibc's allocator
#: then mapped fresh pages for every chunk. Times for 2,600 windows (one
#: BLAS thread, medians of 8 calls in each of 3 processes): 16 windows
#: 0.19-0.24 s, 24-48 windows 0.14-0.17 s, 56 windows 0.21-0.26 s, 64-128
#: windows 0.23-0.34 s, or 0.14 s with glibc's mmap threshold raised. The
#: per-window trunk in chunks of 16 took 0.44 s.
TRUNK_CHUNK = 32


def _row_taps(x, w):
    """What each row of x (R, W, Cin) adds through each kernel row of w
    (Cout, Cin, K, 3), zero-padded along the width only: (R, W, K, Cout).
    Through kernel row ky of a 3x3 kernel, row t feeds output row t+1-ky."""
    n, width, cin = x.shape
    xp = np.zeros((n, width + 2, cin), dtype=x.dtype)
    xp[:, 1:-1] = x
    cols = np.concatenate([xp[:, kx : kx + width] for kx in range(3)], axis=-1)
    k = w.transpose(3, 1, 2, 0).reshape(3 * cin, -1)
    return (cols.reshape(n * width, 3 * cin) @ k).reshape(n, width, w.shape[2], w.shape[0])


def _biased_sum(terms, b):
    """``sum(terms) + b`` for a list of two or more arrays, in one new array."""
    out = terms[0] + terms[1]
    for t in terms[2:]:
        out += t
    out += b
    return out


def _relu_halve_width(x):
    """ReLU of x, in place, then the width half of a 2x2 max pool over its
    (..., W, C) rows."""
    np.maximum(x, 0.0, out=x)
    return np.maximum(x[..., 0::2, :], x[..., 1::2, :])


def _song_trunk_chunk(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """:func:`song_trunk` for every window of the feature rows x (m, bands).

    A window sees zero padding only at its own first and last row, so each
    conv1 row, pool1 row and conv2 row that reads no padding equals a row of
    one map over all of x. Those maps are computed once; only the rows at a
    window's edges are computed per window.
    """
    arch = params.arch
    frames, half, quarter = arch.frames, arch.frames // 2, arch.frames // 4
    c = len(x) - frames + 1
    b1, b2 = params["conv1_b"], params["conv2_b"]

    # conv1 and pool1. d1[t] is the width-pooled conv1 row t+1 of x, which
    # is row t+1-j of window j wherever that is not the window's first or
    # last row; pooled[u] is the pool of d1[u] and d1[u+1], window j's
    # pool1 row q for 0 < q < half-1 when u = j+2q-1.
    r1 = _row_taps(x[..., None], params["conv1_w"])
    d1 = _relu_halve_width(_biased_sum([r1[:-2, :, 0], r1[1:-1, :, 1], r1[2:, :, 2]], b1))
    pooled = np.maximum(d1[:-1], d1[1:])
    first = _relu_halve_width(_biased_sum([r1[:c, :, 1], r1[1 : c + 1, :, 2]], b1))
    np.maximum(first, d1[:c], out=first)
    end = frames - 2
    last = _relu_halve_width(_biased_sum([r1[end : end + c, :, 0], r1[end + 1 : end + 1 + c, :, 1]], b1))
    np.maximum(last, d1[end - 1 : end - 1 + c], out=last)

    # conv2 taps of every pool1 row: a window's first pool1 row reaches
    # conv2 through kernel rows 0-1 only, its last through rows 1-2, and
    # the other rows are shared
    w2 = params["conv2_w"]
    taps_first = _row_taps(first, w2[:, :, :2])
    taps_last = _row_taps(last, w2[:, :, 1:])
    taps = _row_taps(pooled, w2)

    def tap(q, ky):
        if q == 0:
            return taps_first[:, :, ky]
        if q == half - 1:
            return taps_last[:, :, ky - 1]
        return taps[2 * q - 1 : 2 * q - 1 + c, :, ky]

    def conv2_row(r):
        return _biased_sum([tap(q, q + 1 - r) for q in range(max(r - 1, 0), min(r + 2, half))], b2)

    def pool2_row(r):
        return _relu_halve_width(np.maximum(conv2_row(r), conv2_row(r + 1)))

    p2 = np.empty((c, quarter, arch.bands // 4, arch.conv2_filters), dtype=x.dtype)
    p2[:, 0] = pool2_row(0)
    p2[:, -1] = pool2_row(half - 2)
    if quarter > 2:
        # conv2 rows 2..half-3 read no edge row: window j's row r is
        # shared[j+2r-3], and its pool2 row s (0 < s < quarter-1) is
        # pool2[j+4s-3]
        shared = _biased_sum([taps[:-4, :, 0], taps[2:-2, :, 1], taps[4:, :, 2]], b2)
        pool2 = _relu_halve_width(np.maximum(shared[:-2], shared[2:]))
        for s in range(1, quarter - 1):
            p2[:, s] = pool2[4 * s - 3 : 4 * s - 3 + c]
    a3 = p2.reshape(c, -1) @ params["fc1_w"] + params["fc1_b"]
    return np.maximum(a3, 0.0).reshape(c, frames, arch.seg_features)


def song_trunk(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Inference :func:`trunk` for every window of a song at once.

    ``features`` is (frames, bands); returns the (windows, frames,
    seg_features) segments that ``trunk`` gives for each window
    ``features[j : j + frames]`` in turn, equal to rounding. Overlapping
    windows share their convolution rows, so the song runs in chunks of
    :data:`TRUNK_CHUNK` windows that compute each shared row once.
    """
    arch = params.arch
    x = np.asarray(features, dtype=params.dtype)
    if x.ndim != 2 or x.shape[1] != arch.bands:
        raise ShapeMismatch(f"feature rows must be (frames, {arch.bands}), got {x.shape}")
    count = max(len(x) - arch.frames + 1, 0)
    seg = np.empty((count, arch.frames, arch.seg_features), dtype=params.dtype)
    for start in range(0, count, TRUNK_CHUNK):
        stop = min(start + TRUNK_CHUNK, count)
        seg[start:stop] = _song_trunk_chunk(params, x[start : stop + arch.frames - 1])
    return seg


def _head(params: ModelParams, h_last: np.ndarray) -> np.ndarray:
    """Output layer: the (B, hidden) last LSTM outputs to (B, 4, 7) quads."""
    arch = params.arch
    logits = h_last @ params["out_w"] + params["out_b"]
    probs = softmax_rows(logits.reshape(-1, arch.horizon, arch.classes))
    if not np.isfinite(probs).all():
        raise NonFiniteActivation("forward pass produced non-finite probabilities")
    return probs


def forward(
    params: ModelParams,
    windows: np.ndarray,
    contexts: np.ndarray,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """One pass through the network for a batch of B examples.

    ``windows`` is (B, frames, bands); ``contexts`` is (B, frames-1, 7)
    where each row is a one-hot note class or all zeros (the generation-time
    placeholder for frames before any note was decided). Returns the
    (B, 4, 7) prediction quads — one probability row per future timestamp —
    and the cache consumed by :func:`backward`.

    In training mode each example draws its conv1 dropout flags, then its
    lstm1 flags, from ``rng`` in batch order: the same stream as B calls of
    one example each.
    """
    arch = params.arch
    windows = np.asarray(windows, dtype=params.dtype)
    if windows.ndim != 3 or windows.shape[1:] != (arch.frames, arch.bands):
        raise ShapeMismatch(f"song windows must be (B, {arch.frames}, {arch.bands}), got {windows.shape}")
    n = windows.shape[0]
    if training and rng is None:
        raise ValueError("training mode needs an rng for dropout masks")

    mask1 = mask2 = None
    if training:
        size1 = arch.frames * arch.bands * arch.conv1_filters
        keep = rng.random((n, size1 + arch.frames * arch.hidden)) >= DROPOUT_P
        mask1 = keep[:, :size1].reshape(n, arch.frames, arch.bands, arch.conv1_filters)
        mask2 = keep[:, size1:].reshape(n, arch.frames, arch.hidden)

    seg, cache = trunk(params, windows, mask1)
    probs, rest = recurrent_forward(params, seg, contexts, mask2)
    cache.update(rest)
    return probs, cache


def recurrent_forward(params: ModelParams, seg: np.ndarray, contexts: np.ndarray, mask2: np.ndarray | None = None):
    """Everything after the audio trunk: fuse the (B, frames, seg_features)
    segments with the padded note rows, run lstm1, its dropout when a keep
    mask is given, lstm2 and the output head.

    Returns the (B, 4, 7) prediction quads and the activations
    :func:`backward` needs from this part of the network.
    """
    arch = params.arch
    dtype = params.dtype
    contexts = np.asarray(contexts, dtype=dtype)
    if contexts.shape != (len(seg), arch.context, arch.classes):
        raise ShapeMismatch(f"note contexts must be {(len(seg), arch.context, arch.classes)}, got {contexts.shape}")
    notes8 = pad_note_vectors(contexts, arch, dtype)
    hs1, lstm1 = _lstm_forward(params["lstm1_wx"], params["lstm1_wh"], params["lstm1_b"], seg * notes8)
    hd = hs1 * mask2 * _keep_scale(dtype) if mask2 is not None else hs1
    hs2, lstm2 = _lstm_forward(params["lstm2_wx"], params["lstm2_wh"], params["lstm2_b"], hd)
    h_last = hs2[:, -1]
    probs = _head(params, h_last)
    return probs, {"notes8": notes8, "lstm1": lstm1, "mask2": mask2, "lstm2": lstm2, "h_last": h_last, "probs": probs}


def loss(pred: np.ndarray, targets: np.ndarray) -> float:
    """Categorical cross-entropy averaged over every predicted row: the
    batch mean of each example's mean over its four timestamps.

    ``targets`` rows are one-hot; predicted probabilities are clamped to
    1e-9 so an exactly-wrong prediction stays finite (~20.72 per row).
    """
    pred = np.asarray(pred, dtype=np.float64)
    cls = np.asarray(targets).argmax(axis=-1)
    picked = np.take_along_axis(pred, cls[..., None], axis=-1)
    return float(-np.log(np.clip(picked, PROB_FLOOR, None)).mean())


def backward(params: ModelParams, cache: dict, targets: np.ndarray) -> ParamBuffer:
    """Exact gradients of the batch-mean :func:`loss` w.r.t. every parameter,
    as a :class:`ParamBuffer` in the parameters' dtype.

    Reuses the forward pass's dropout masks. Assumes the loss probability
    clamp is inactive (it only engages on fully saturated softmax rows).
    """
    arch = params.arch
    dtype = params.dtype
    probs = cache["probs"]
    n = probs.shape[0]
    scale = _keep_scale(dtype)
    targets = np.asarray(targets, dtype=dtype)
    if targets.shape != probs.shape:
        raise ShapeMismatch(f"targets must be {probs.shape}, got {targets.shape}")

    # per-example scale 1/horizon here; the sums over the batch are
    # divided by B once, at the end. The weight gradients of the two dense
    # layers are np.dot outer products written straight into the buffer:
    # at B=1, matmul takes several times as long for the same result.
    dlogits = ((probs - targets) / arch.horizon).astype(dtype).reshape(n, -1)
    grads = ParamBuffer(arch, dtype)
    np.dot(cache["h_last"].T, dlogits, out=grads["out_w"])
    grads["out_b"] = dlogits.sum(axis=0)

    dh_ext2 = np.zeros((n, arch.frames, arch.hidden), dtype=dtype)
    dh_ext2[:, -1] = dlogits @ params["out_w"].T
    dhd, grads["lstm2_wx"], grads["lstm2_wh"], grads["lstm2_b"] = _lstm_backward(cache["lstm2"], dh_ext2)
    if cache["mask2"] is not None:
        dhd *= cache["mask2"]
        dhd *= scale
    dfused, grads["lstm1_wx"], grads["lstm1_wh"], grads["lstm1_b"] = _lstm_backward(cache["lstm1"], dhd)

    da3 = (dfused * cache["notes8"]).reshape(n, -1) * (cache["a3"] > 0)
    np.dot(cache["flat"].T, da3, out=grads["fc1_w"])
    grads["fc1_b"] = da3.sum(axis=0)
    a2, p1 = cache["a2"], cache["p1"]
    p2 = cache["flat"].reshape(n, arch.frames // 4, arch.bands // 4, arch.conv2_filters)
    dp2 = (da3 @ params["fc1_w"].T).reshape(p2.shape)

    da2 = _maxpool2_backward(np.maximum(a2, 0.0), p2, dp2)
    da2 *= a2 > 0
    grads["conv2_w"], grads["conv2_b"] = _conv2d_backward(p1, params["conv2_w"], da2)
    dp1 = _conv2d_input_grad(params["conv2_w"], da2)

    a1, mask1 = cache["a1"], cache["mask1"]
    da1 = _maxpool2_backward(_conv1_activation(a1, mask1), p1, dp1)
    if mask1 is not None:
        da1 *= mask1
        da1 *= scale
    da1 *= a1 > 0
    grads["conv1_w"], grads["conv1_b"] = _conv2d_backward(cache["x"], params["conv1_w"], da1)

    grads.flat /= n
    if not np.isfinite(grads.flat).all():
        raise NonFiniteGradient("backward pass produced non-finite gradients")
    return grads


# ------------------------------------------------------------- optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
#: Elements per :func:`adam_step` block, so that a block of each of the
#: four buffers and the two scratch rows stay in cache together. Full-model
#: float32 steps (one BLAS thread, medians of 300): 4,096 elements 3.0 ms,
#: 16,384 1.6-1.8 ms, 32,768 1.2-1.5 ms, 65,536 1.3-1.4 ms, whole buffers
#: 1.6 ms; numpy call overhead dominates small blocks.
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """First and second moments, each a :class:`ParamBuffer` in the
    parameters' layout, and the number of steps taken."""

    m: ParamBuffer
    v: ParamBuffer
    t: int = 0


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(m=ParamBuffer(params.arch, params.dtype), v=ParamBuffer(params.arch, params.dtype))


def adam_step(params: ModelParams, grads: ParamBuffer, state: AdamState, lr: float) -> ModelParams:
    """One bias-corrected Adam update, in place on the parameter buffer.

    The update runs over the flat buffers of parameters, gradients and
    moments one block at a time, each step in the order ``m = b1*m +
    (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``, ``p -= lr*(m/bc1) / (sqrt(v/bc2)
    + eps)``, with the block's temporaries in one small scratch array.
    """
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    if g.dtype != p.dtype:
        raise TypeError(f"gradients are {g.dtype}, parameters {p.dtype}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    scratch = np.empty((2, min(ADAM_BLOCK, p.size)), dtype=p.dtype)
    for lo in range(0, p.size, ADAM_BLOCK):
        pb, gb, mb, vb = (buf[lo : lo + ADAM_BLOCK] for buf in (p, g, m, v))
        s, d = scratch[:, : len(pb)]
        mb *= ADAM_BETA1
        np.multiply(gb, 1.0 - ADAM_BETA1, out=s)
        mb += s
        vb *= ADAM_BETA2
        np.multiply(gb, gb, out=s)
        s *= 1.0 - ADAM_BETA2
        vb += s
        np.divide(mb, bc1, out=s)
        s *= lr
        np.divide(vb, bc2, out=d)
        np.sqrt(d, out=d)
        d += ADAM_EPS
        s /= d
        pb -= s
    return params


# ----------------------------------------------------------- checkpoints

#: Magic, version and the eight :class:`ArchConfig` constants.
_CHECKPOINT_HEAD = struct.Struct("<4sI8I")


def save_checkpoint(path: str | Path, params: ModelParams, state: AdamState | None = None) -> None:
    """Serialize parameters, Adam state, and normalization stats.

    Little-endian, version 2: magic ``TKNM``, version u32, the eight u32
    architecture constants, the f64 normalization mean and std (``bands``
    each), the Adam step u64; then the parameters, the first and the
    second Adam moments, each one flat f32 buffer in :data:`PARAM_NAMES`
    layout; then the CRC32 of every preceding byte. The architecture fixes
    the layout, so no array carries a name or shape. float32 buffers are
    written from their own memory into a temporary file that replaces
    ``path`` once complete.
    """
    if state is None:
        state = init_adam_state(params)
    chunks = [
        _CHECKPOINT_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *params.arch.as_tuple()),
        np.ascontiguousarray(params.norm.mean, dtype="<f8").data,
        np.ascontiguousarray(params.norm.std, dtype="<f8").data,
        struct.pack("<Q", int(state.t)),
    ] + [np.ascontiguousarray(buf.flat, dtype="<f4").data for buf in (params.arrays, state.m, state.v)]
    crc = 0
    with atomic_write(path) as f:
        for chunk in chunks:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, AdamState]:
    """Load a checkpoint as float32, in the layout :func:`save_checkpoint`
    writes.

    The magic, version and architecture are checked first. The file must
    then be exactly as long as that architecture needs, so a header that
    declares a larger model than the file holds fails before anything is
    allocated: a shorter file raises :class:`TruncatedFile`, a longer one
    :class:`CorruptFile`. Then the checksum and the normalization stats are
    checked, and each buffer is copied from a view of the file bytes. A
    non-finite parameter raises :class:`CorruptFile`; Adam's ``v`` may be
    +inf, as a gradient above ~1.8e19 squares to +inf in float32.
    """
    data = Path(path).read_bytes()
    if data[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a model checkpoint")
    if len(data) < _CHECKPOINT_HEAD.size:
        raise TruncatedFile(f"{path}: header cut short")
    _, version, *constants = _CHECKPOINT_HEAD.unpack_from(data)
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    try:
        arch = ArchConfig(*constants)
    except ValueError as exc:
        raise ShapeMismatch(f"{path}: invalid architecture constants") from exc

    n = param_count(arch)
    stats_at = _CHECKPOINT_HEAD.size
    params_at = stats_at + 16 * arch.bands + 8
    need = params_at + 3 * 4 * n + 4
    if len(data) < need:
        raise TruncatedFile(f"{path}: {len(data)} bytes, the declared architecture needs {need}")
    if len(data) > need:
        raise CorruptFile(f"{path}: {len(data)} bytes, the declared architecture needs {need}")
    (stored_crc,) = struct.unpack_from("<I", data, need - 4)
    if zlib.crc32(memoryview(data)[:-4]) != stored_crc:
        raise ChecksumMismatch(f"{path}: checkpoint payload corrupted")

    mean, std = np.frombuffer(data, dtype="<f8", count=2 * arch.bands, offset=stats_at).reshape(2, -1).copy()
    try:
        norm = NormStats(mean, std)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    (adam_t,) = struct.unpack_from("<Q", data, params_at - 8)

    def buffer(k):
        buf = ParamBuffer(arch)
        buf.flat[...] = np.frombuffer(data, dtype="<f4", count=n, offset=params_at + 4 * n * k)
        return buf

    params = buffer(0)
    for name in PARAM_NAMES:
        if not np.isfinite(params[name]).all():
            raise CorruptFile(f"{path}: non-finite values in parameter group {name}")
    return ModelParams(arch, norm, params), AdamState(buffer(1), buffer(2), adam_t)
