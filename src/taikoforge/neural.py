"""Self-contained numerical core: the conv+LSTM chart model.

No ML runtime; everything is numpy. Every layer takes a leading batch
axis, so one :func:`forward` / :func:`backward` call runs a whole batch
(training minibatches and validation chunks alike), and generation runs
the same layers on batches of its own. float32 by default, float64
available for finite-difference gradient verification.

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

:func:`forward` is built from pieces that generation calls one by one:

* :func:`trunk` runs everything before the note fusion (conv1 through fc1
  and its ReLU) and returns the 16 segments per window. It reads no notes,
  so generation runs it once per window, in batches, before sampling.
* :func:`_lstm_step` is one recurrent step for a batch of rows, given the
  step's input projection. :func:`_lstm_forward` loops it over a window's
  16 steps; generation runs it across windows, one step of each.
* :func:`_head` maps the last LSTM output to the four softmax rows.

The 2x2 max pool is the element-wise max of four strided views and keeps
no argmax. Its backward pass rebuilds the pool's input from cached
activations (conv1's output and dropout mask, conv2's output) and sends
each gradient to the first of the four inputs, in (row, column) order,
that equals the pooled max.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .audio import NormStats
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
CHECKPOINT_VERSION = 1

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
    classes: int = 7
    horizon: int = 4

    def __post_init__(self):
        if self.frames % 4 or self.bands % 4:
            raise ValueError("frames and bands must be divisible by 4 (two 2x2 pools)")
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
        return (
            self.frames, self.bands, self.conv1_filters, self.conv2_filters,
            self.seg_features, self.hidden, self.classes, self.horizon,
        )

    @classmethod
    def from_tuple(cls, t) -> "ArchConfig":
        return cls(*[int(v) for v in t])


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


@dataclass
class ModelParams:
    """All learnable arrays plus the feature normalization that trained them."""

    arch: ArchConfig
    norm: NormStats
    arrays: dict[str, np.ndarray] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        expected = param_shapes(self.arch)
        if set(self.arrays) != set(expected):
            raise ShapeMismatch("parameter set does not match architecture")
        for name, shape in expected.items():
            if self.arrays[name].shape != shape:
                raise ShapeMismatch(
                    f"{name}: expected shape {shape}, got {self.arrays[name].shape}"
                )

    @property
    def dtype(self):
        return self.arrays["conv1_w"].dtype

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def items(self):
        return [(name, self.arrays[name]) for name in PARAM_NAMES]

    def copy(self) -> "ModelParams":
        return replace(self, arrays={k: v.copy() for k, v in self.arrays.items()})


def init_params(
    arch: ArchConfig = DEFAULT_ARCH,
    seed: int = 0,
    dtype=np.float32,
    norm: NormStats | None = None,
) -> ModelParams:
    """Glorot-uniform weights, zero biases, LSTM forget-gate bias +1."""
    rng = np.random.default_rng(seed)
    h = arch.hidden

    def glorot(shape, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape).astype(dtype)

    arrays = {
        "conv1_w": glorot((arch.conv1_filters, 1, 3, 3), 9, 9 * arch.conv1_filters),
        "conv1_b": np.zeros(arch.conv1_filters, dtype=dtype),
        "conv2_w": glorot(
            (arch.conv2_filters, arch.conv1_filters, 3, 3),
            9 * arch.conv1_filters,
            9 * arch.conv2_filters,
        ),
        "conv2_b": np.zeros(arch.conv2_filters, dtype=dtype),
        "fc1_w": glorot((arch.flat_size, arch.fc1_out), arch.flat_size, arch.fc1_out),
        "fc1_b": np.zeros(arch.fc1_out, dtype=dtype),
        "lstm1_wx": glorot((4 * h, arch.seg_features), arch.seg_features, 4 * h),
        "lstm1_wh": glorot((4 * h, h), h, 4 * h),
        "lstm1_b": np.zeros(4 * h, dtype=dtype),
        "lstm2_wx": glorot((4 * h, h), h, 4 * h),
        "lstm2_wh": glorot((4 * h, h), h, 4 * h),
        "lstm2_b": np.zeros(4 * h, dtype=dtype),
        "out_w": glorot((h, arch.out_size), h, arch.out_size),
        "out_b": np.zeros(arch.out_size, dtype=dtype),
    }
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
    dtype = params.dtype
    windows = np.asarray(windows, dtype=dtype)
    contexts = np.asarray(contexts, dtype=dtype)
    if windows.ndim != 3 or windows.shape[1:] != (arch.frames, arch.bands):
        raise ShapeMismatch(f"song windows must be (B, {arch.frames}, {arch.bands}), got {windows.shape}")
    n = windows.shape[0]
    if contexts.shape != (n, arch.context, arch.classes):
        raise ShapeMismatch(f"note contexts must be {(n, arch.context, arch.classes)}, got {contexts.shape}")
    if training and rng is None:
        raise ValueError("training mode needs an rng for dropout masks")

    mask1 = mask2 = None
    if training:
        size1 = arch.frames * arch.bands * arch.conv1_filters
        keep = rng.random((n, size1 + arch.frames * arch.hidden)) >= DROPOUT_P
        mask1 = keep[:, :size1].reshape(n, arch.frames, arch.bands, arch.conv1_filters)
        mask2 = keep[:, size1:].reshape(n, arch.frames, arch.hidden)

    seg, cache = trunk(params, windows, mask1)
    notes8 = pad_note_vectors(contexts, arch, dtype)
    hs1, lstm1 = _lstm_forward(params["lstm1_wx"], params["lstm1_wh"], params["lstm1_b"], seg * notes8)
    hd = hs1 * mask2 * _keep_scale(dtype) if training else hs1
    hs2, lstm2 = _lstm_forward(params["lstm2_wx"], params["lstm2_wh"], params["lstm2_b"], hd)
    h_last = hs2[:, -1]
    probs = _head(params, h_last)

    cache.update(notes8=notes8, lstm1=lstm1, mask2=mask2, lstm2=lstm2, h_last=h_last, probs=probs)
    return probs, cache


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


def backward(params: ModelParams, cache: dict, targets: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the batch-mean :func:`loss` w.r.t. every parameter.

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
    # divided by B once, at the end
    dlogits = ((probs - targets) / arch.horizon).astype(dtype).reshape(n, -1)
    grads: dict[str, np.ndarray] = {}
    grads["out_w"] = cache["h_last"].T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)

    dh_ext2 = np.zeros((n, arch.frames, arch.hidden), dtype=dtype)
    dh_ext2[:, -1] = dlogits @ params["out_w"].T
    dhd, grads["lstm2_wx"], grads["lstm2_wh"], grads["lstm2_b"] = _lstm_backward(cache["lstm2"], dh_ext2)
    if cache["mask2"] is not None:
        dhd *= cache["mask2"]
        dhd *= scale
    dfused, grads["lstm1_wx"], grads["lstm1_wh"], grads["lstm1_b"] = _lstm_backward(cache["lstm1"], dhd)

    da3 = (dfused * cache["notes8"]).reshape(n, -1) * (cache["a3"] > 0)
    grads["fc1_w"] = cache["flat"].T @ da3
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

    for g in grads.values():
        g /= n
        if not np.isfinite(g).all():
            raise NonFiniteGradient("backward pass produced non-finite gradients")
    return grads


# ------------------------------------------------------------- optimizer

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam_state(params: ModelParams) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(arr) for name, arr in params.items()},
        v={name: np.zeros_like(arr) for name, arr in params.items()},
    )


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> ModelParams:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= (lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)).astype(p.dtype)
    return params


# ----------------------------------------------------------- checkpoints

def _array_header(name: str, data: np.ndarray) -> bytes:
    head = struct.pack("<H", len(name)) + name.encode()
    return head + struct.pack("<B", data.ndim) + struct.pack(f"<{data.ndim}I", *data.shape)


def save_checkpoint(path: str | Path, params: ModelParams, state: AdamState | None = None) -> None:
    """Serialize parameters, Adam state, and normalization stats.

    Versioned little-endian layout, f32 arrays, trailing CRC32 of the whole
    preceding byte stream. Arrays are written from their own buffers, with
    no copy of the whole file in memory.
    """
    if state is None:
        state = init_adam_state(params)
    header = b"".join([
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<8I", *params.arch.as_tuple()),
        np.ascontiguousarray(params.norm.mean, dtype="<f8").tobytes(),
        np.ascontiguousarray(params.norm.std, dtype="<f8").tobytes(),
        struct.pack("<Q", int(state.t)),
    ])
    entries = (
        [(n, a) for n, a in params.items()]
        + [(f"m.{n}", state.m[n]) for n in PARAM_NAMES]
        + [(f"v.{n}", state.v[n]) for n in PARAM_NAMES]
    )
    chunks = [header + struct.pack("<I", len(entries))]
    for name, arr in entries:
        data = np.ascontiguousarray(arr, dtype="<f4")
        chunks += [_array_header(name, data), data.data]
    crc = 0
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


class _Reader:
    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise TruncatedFile("checkpoint ends mid-record")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(
    path: str | Path, dtype=np.float32, expect: ArchConfig | None = None
) -> tuple[ModelParams, AdamState]:
    """Load a checkpoint, verifying magic, version, shapes, and checksum.

    Pass ``expect`` to reject checkpoints trained with different
    architecture constants than the caller is built for.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: not a model checkpoint")
    if len(data) < 12:
        raise TruncatedFile(f"{path}: header cut short")

    payload = memoryview(data)[:-4]
    r = _Reader(payload)
    r.take(4)
    (version,) = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise VersionMismatch(f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}")
    try:
        arch = ArchConfig.from_tuple(r.unpack("<8I"))
    except ValueError as exc:
        raise ShapeMismatch(f"{path}: invalid architecture constants") from exc
    if expect is not None and arch != expect:
        raise ShapeMismatch(
            f"{path}: checkpoint architecture {arch.as_tuple()} does not match expected {expect.as_tuple()}"
        )
    mean = np.frombuffer(r.take(8 * arch.bands), dtype="<f8").copy()
    std = np.frombuffer(r.take(8 * arch.bands), dtype="<f8").copy()
    (adam_t,) = r.unpack("<Q")
    (count,) = r.unpack("<I")

    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = bytes(r.take(name_len)).decode()
        except UnicodeDecodeError as exc:
            raise CorruptFile(f"{path}: array name is not UTF-8") from exc
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        size = int(np.prod(shape)) if ndim else 1
        arrays[name] = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(shape).astype(dtype)
    if r.pos != len(r.data):
        raise TruncatedFile(f"{path}: trailing bytes after declared arrays")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(payload) != stored_crc:
        raise ChecksumMismatch(f"{path}: checkpoint payload corrupted")

    expected = param_shapes(arch)
    wanted = set(expected) | {f"m.{n}" for n in expected} | {f"v.{n}" for n in expected}
    if set(arrays) != wanted:
        raise ShapeMismatch(f"{path}: stored arrays do not match the declared architecture")
    for name, shape in expected.items():
        for key in (name, f"m.{name}", f"v.{name}"):
            if arrays[key].shape != shape:
                raise ShapeMismatch(f"{path}: {key} has shape {arrays[key].shape}, expected {shape}")

    params = ModelParams(arch, NormStats(mean, std), {n: arrays[n] for n in expected})
    state = AdamState(
        m={n: arrays[f"m.{n}"] for n in expected},
        v={n: arrays[f"v.{n}"] for n in expected},
        t=adam_t,
    )
    return params, state
