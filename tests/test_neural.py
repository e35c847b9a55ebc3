import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from taikoforge.audio import NormStats
from taikoforge.chart import one_hot_rows
from taikoforge.errors import (
    BadMagic,
    ChecksumMismatch,
    CorruptFile,
    NonFiniteGradient,
    ShapeMismatch,
    TruncatedFile,
    VersionMismatch,
)
from taikoforge.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DEFAULT_ARCH,
    DROPOUT_P,
    PARAM_NAMES,
    TRUNK_CHUNK,
    ArchConfig,
    ModelParams,
    ParamBuffer,
    _conv2d,
    _conv2d_backward,
    _conv2d_input_grad,
    _lstm_backward,
    _lstm_forward,
    _maxpool2,
    _maxpool2_backward,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_params,
    load_checkpoint,
    loss,
    pad_note_vectors,
    save_checkpoint,
    softmax_rows,
    song_trunk,
    trunk,
)

from conftest import MINI, save_checkpoint_v1, save_checkpoint_with_constants, save_checkpoint_with_norm


def mini_example(seed=0):
    """One example as a batch of one: window (1, 4, 4), context (1, 3, 7), targets (1, 4, 7)."""
    rng = np.random.default_rng(seed)
    window = rng.normal(0.0, 1.0, size=(1, MINI.frames, MINI.bands))
    ctx = one_hot_rows(rng.integers(0, MINI.classes, size=(1, MINI.context))).astype(np.float64)
    targets = one_hot_rows(rng.integers(0, MINI.classes, size=(1, MINI.horizon))).astype(np.float64)
    return window, ctx, targets


class TestArch:
    def test_default_dimensions(self):
        assert DEFAULT_ARCH.fc1_out == 128
        assert DEFAULT_ARCH.flat_size == 2560
        assert DEFAULT_ARCH.out_size == 28
        assert DEFAULT_ARCH.context == 15

    def test_pooling_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ArchConfig(frames=6, bands=80)

    def test_param_shapes_match_stated_architecture(self):
        params = init_params(DEFAULT_ARCH, seed=1)
        assert params["conv1_w"].shape == (16, 1, 3, 3)
        assert params["conv2_w"].shape == (32, 16, 3, 3)
        assert params["fc1_w"].shape == (2560, 128)
        assert params["lstm1_wx"].shape == (256, 8)
        assert params["lstm2_wx"].shape == (256, 64)
        assert params["out_w"].shape == (64, 28)

    def test_forget_gate_bias_one(self):
        params = init_params(MINI, seed=1)
        h = MINI.hidden
        assert np.all(params["lstm1_b"][h : 2 * h] == 1.0)
        assert np.all(params["lstm1_b"][:h] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "arch", [DEFAULT_ARCH, MINI, ArchConfig(frames=8), ArchConfig(frames=12)], ids=["default", "mini", "f8", "f12"]
    )
    def test_init_params_bit_equal_to_explicit_fan_table(self, arch, dtype):
        for seed in (0, 1, 1337, 2024):
            assert init_params(arch, seed=seed, dtype=dtype).flat.tobytes() == glorot_reference(arch, seed, dtype).tobytes()

    def test_constants_round_trip_in_header_order(self, tmp_path):
        # every field differs, so a swap of any two would show
        arch = ArchConfig(frames=12, bands=20, conv1_filters=2, conv2_filters=3, seg_features=8, hidden=5, horizon=6)
        assert ArchConfig(*arch.as_tuple()) == arch
        path = tmp_path / "model.tknm"
        save_checkpoint(path, init_params(arch, seed=0))
        assert load_checkpoint(path)[0].arch == arch
        assert struct.unpack_from("<8I", path.read_bytes(), 8) == (12, 20, 2, 3, 8, 5, 7, 6)


def glorot_reference(arch, seed, dtype):
    """Glorot init with each weight's fan-in and fan-out spelled out, group
    by group, in the order init_params draws them."""
    rng = np.random.default_rng(seed)
    h = arch.hidden
    buf = ParamBuffer(arch, dtype)
    fans = {
        "conv1_w": (9, 9 * arch.conv1_filters),
        "conv2_w": (9 * arch.conv1_filters, 9 * arch.conv2_filters),
        "fc1_w": (arch.flat_size, arch.fc1_out),
        "lstm1_wx": (arch.seg_features, 4 * h),
        "lstm1_wh": (h, 4 * h),
        "lstm2_wx": (h, 4 * h),
        "lstm2_wh": (h, 4 * h),
        "out_w": (h, arch.out_size),
    }
    for name, (fan_in, fan_out) in fans.items():
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        buf[name] = rng.uniform(-limit, limit, size=buf[name].shape)
    buf["lstm1_b"][h : 2 * h] = 1.0
    buf["lstm2_b"][h : 2 * h] = 1.0
    return buf.flat


class TestForward:
    def test_rows_are_distributions(self):
        params = init_params(MINI, seed=2)
        window, ctx, _ = mini_example(3)
        probs, _ = forward(params, window, ctx)
        assert probs.shape == (1, 4, 7)
        assert (probs >= 0).all()
        assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-5

    def test_zero_params_give_uniform_rows(self):
        params = init_params(MINI, seed=0)
        for _, arr in params.arrays.items():
            arr[...] = 0.0
        probs, _ = forward(params, np.zeros((1, 4, 4)), np.zeros((1, 3, 7)))
        assert np.allclose(probs, 1.0 / 7.0)

    def test_deterministic_in_inference_mode(self):
        params = init_params(MINI, seed=4)
        window, ctx, _ = mini_example(5)
        a, _ = forward(params, window, ctx)
        b, _ = forward(params, window, ctx)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        params = init_params(MINI, seed=4)
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 5, 4)), np.zeros((1, 3, 7)))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((1, 4, 4)), np.zeros((1, 4, 7)))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((2, 4, 4)), np.zeros((3, 3, 7)))
        with pytest.raises(ShapeMismatch):
            forward(params, np.zeros((4, 4)), np.zeros((3, 7)))

    def test_training_requires_rng(self):
        params = init_params(MINI, seed=4)
        with pytest.raises(ValueError):
            forward(params, np.zeros((1, 4, 4)), np.zeros((1, 3, 7)), training=True)

    def test_fusion_pads_with_bias_channel(self):
        ctx = one_hot_rows(np.array([0, 2, 6]))
        padded = pad_note_vectors(ctx, MINI, np.float64)
        assert padded.shape == (4, 8)
        assert padded[0].tolist() == [1, 0, 0, 0, 0, 0, 0, 1]
        assert padded[1].tolist() == [0, 0, 1, 0, 0, 0, 0, 1]
        assert padded[3].tolist() == [1, 1, 1, 1, 1, 1, 1, 1]  # masked segment


def test_softmax_rows_shift_invariant():
    from taikoforge.neural import softmax_rows

    rng = np.random.default_rng(30)
    z = rng.normal(size=(4, 7))
    shifted = softmax_rows(z + 13.5)
    assert np.abs(softmax_rows(z) - shifted).max() <= 1e-5
    assert np.abs(shifted.sum(axis=1) - 1.0).max() <= 1e-5
    assert (shifted >= 0).all()


class TestLoss:
    def test_perfect_prediction_is_zero(self):
        pred = np.eye(7)[[1, 2, 3, 4]]
        assert loss(pred, pred) == 0.0

    def test_uniform_prediction_is_ln7(self):
        pred = np.full((4, 7), 1.0 / 7.0)
        targets = np.eye(7)[[0, 1, 2, 3]]
        assert loss(pred, targets) == pytest.approx(np.log(7.0), abs=1e-12)

    def test_zero_probability_clamped(self):
        pred = np.zeros((4, 7))
        pred[:, 0] = 1.0
        targets = np.eye(7)[[1, 1, 1, 1]]
        value = loss(pred, targets)
        assert np.isfinite(value)
        assert value == pytest.approx(-np.log(1e-9), rel=1e-6)


def argmax_pool(x):
    """Reference 2x2 pool: each block's four inputs on a last axis, in
    (row, column) order; returns their max and the index of the first max."""
    n, hh, ww, c = x.shape
    xr = x.reshape(n, hh // 2, 2, ww // 2, 2, c).transpose(0, 1, 3, 5, 2, 4).reshape(n, hh // 2, ww // 2, c, 4)
    return xr.max(axis=-1), xr.argmax(axis=-1)


def argmax_pool_backward(idx, dy):
    n, h2, w2, c = idx.shape
    dxr = np.where(idx[..., None] == np.arange(4), dy[..., None], 0)
    return dxr.reshape(n, h2, w2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(n, 2 * h2, 2 * w2, c)


class TestLayers:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maxpool_bit_equal_to_argmax_reference_with_ties(self, dtype):
        rng = np.random.default_rng(30)
        x = np.maximum(rng.normal(size=(3, 8, 10, 4)) - 0.7, 0.0).astype(dtype)
        # exact ties between positive inputs too, not only between ReLU zeros
        copy = rng.random(x[:, 1::2, 1::2].shape) < 0.3
        x[:, 1::2, 1::2] = np.where(copy, x[:, 0::2, 1::2], x[:, 1::2, 1::2])
        y = _maxpool2(x)
        want, idx = argmax_pool(x)
        assert y.dtype == x.dtype and np.array_equal(y, want)
        blocks = x.reshape(3, 4, 2, 5, 2, 4)
        ties = (blocks == y[:, :, None, :, None]).sum(axis=(2, 4)) > 1
        assert ties.mean() > 0.3 and (ties & (y > 0)).any()
        dy = rng.normal(size=y.shape).astype(dtype)
        dx = _maxpool2_backward(x, y, dy)
        assert dx.dtype == dy.dtype and np.array_equal(dx, argmax_pool_backward(idx, dy))

    def test_maxpool_gradient_goes_to_first_tied_input(self):
        blocks = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [3.0, 3.0]]]
        x = np.concatenate([np.array(b)[None, :, :, None] for b in blocks], axis=2)
        y = _maxpool2(x)
        assert y[0, 0, :, 0].tolist() == [0.0, 2.0, 3.0]
        dx = _maxpool2_backward(x, y, np.array([[[[1.0], [2.0], [3.0]]]]))
        assert dx[0, :, :, 0].tolist() == [[1.0, 0.0, 0.0, 2.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 3.0, 0.0]]

    def test_maxpool_matches_manual_blocks(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 4, 6, 3))
        out = _maxpool2(x)
        for b in range(2):
            for i in range(2):
                for j in range(3):
                    for c in range(3):
                        assert out[b, i, j, c] == x[b, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, c].max()

    def test_conv_center_identity_kernel(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4, 6, 2))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        y = _conv2d(x, w, np.zeros(2))
        assert np.allclose(y, x)

    def test_dropout_rate_and_scaling(self):
        # conv1 outputs 1 everywhere, so each pooled value is 5 (a kept
        # input scaled by 1/(1-0.8)) or 0 (all four inputs dropped)
        params = init_params(MINI, seed=8, dtype=np.float64)
        params["conv1_w"][...] = 0.0
        params["conv1_b"][...] = 1.0
        n = 400
        _, cache = forward(
            params, np.zeros((n, 4, 4)), np.zeros((n, 3, 7)), training=True, rng=np.random.default_rng(8)
        )
        for key in ("mask1", "mask2"):
            assert abs(1.0 - float(cache[key].mean()) - 0.8) < 0.01
        pooled = cache["p1"]
        assert np.allclose(np.unique(pooled), [0.0, 5.0])
        assert abs(float((pooled == 0).mean()) - 0.8 ** 4) < 0.02

    def test_dropout_identity_in_inference(self):
        params = init_params(MINI, seed=9)
        window, ctx, _ = mini_example(9)
        probs_a, _ = forward(params, window, ctx, training=False)
        probs_b, _ = forward(params, window, ctx, training=False)
        assert np.array_equal(probs_a, probs_b)


FD_STEP = 1e-4
# frozen to a configuration whose ReLU/maxpool inputs all sit well clear of
# their kinks, where central differences are trustworthy
GRADCHECK_PARAM_SEED = 7
GRADCHECK_DATA_SEED = 41
GRADCHECK_DROP_SEED = 77


def gradcheck_params() -> ModelParams:
    """Mini model at a generic point: biases nudged off exact zero so no
    activation starts pinned to a ReLU kink."""
    params = init_params(MINI, seed=GRADCHECK_PARAM_SEED, dtype=np.float64)
    rng = np.random.default_rng(GRADCHECK_PARAM_SEED + 1000)
    for name, arr in params.arrays.items():
        if name.endswith("_b"):
            arr += rng.uniform(0.05, 0.15, size=arr.shape)
    return params


def kink_margin(cache, training) -> float:
    """Distance of the closest activation to a ReLU kink."""
    margins = []
    a1 = cache["a1"]
    if training:
        live = cache["mask1"] != 0
        margins.append(np.abs(a1[live]).min() if live.any() else np.inf)
    else:
        margins.append(np.abs(a1).min())
    margins.append(np.abs(cache["a2"]).min())
    margins.append(np.abs(cache["a3"]).min())
    margins.append(np.abs(cache["lstm1"][4]).min())
    margins.append(np.abs(cache["lstm2"][4]).min())
    return float(min(margins))


def numeric_grads(params, window, ctx, targets, training, drop_seed, h=FD_STEP):
    """Central differences of the batch-mean loss for every parameter."""
    def objective():
        rng = np.random.default_rng(drop_seed) if training else None
        probs, _ = forward(params, window, ctx, training=training, rng=rng)
        return loss(probs, targets)

    out = {}
    for name, arr in params.arrays.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus = objective()
            flat[i] = original - h
            minus = objective()
            flat[i] = original
            gflat[i] = (plus - minus) / (2.0 * h)
        out[name] = grad
    return out


@pytest.mark.parametrize("training", [False, True])
def test_gradient_check_every_parameter_group(training):
    params = gradcheck_params()
    rng_data = np.random.default_rng(GRADCHECK_DATA_SEED)
    window = rng_data.normal(0.0, 1.0, size=(1, MINI.frames, MINI.bands))
    ctx = one_hot_rows(rng_data.integers(0, MINI.classes, size=(1, MINI.context))).astype(np.float64)
    targets = one_hot_rows(rng_data.integers(0, MINI.classes, size=(1, MINI.horizon))).astype(np.float64)

    rng = np.random.default_rng(GRADCHECK_DROP_SEED) if training else None
    _, cache = forward(params, window, ctx, training=training, rng=rng)
    assert kink_margin(cache, training) > 10 * FD_STEP, "seed no longer generic; repick"
    analytic = backward(params, cache, targets)
    numeric = numeric_grads(params, window, ctx, targets, training, GRADCHECK_DROP_SEED)

    for name, _ in params.arrays.items():
        ga, gn = analytic[name], numeric[name]
        denom = max(np.linalg.norm(ga) + np.linalg.norm(gn), 1e-12)
        rel = np.linalg.norm(ga - gn) / denom
        assert rel <= 1e-4, f"{name}: relative error {rel:.3e}"


def test_zero_loss_configuration_has_tiny_gradients():
    # drive the target probabilities to ~1 by feeding the loss its own
    # prediction as target; gradient of -log p at p==1 vanishes
    params = init_params(MINI, seed=14, dtype=np.float64)
    window, ctx, _ = mini_example(15)
    probs, cache = forward(params, window, ctx)
    grads = backward(params, cache, probs)
    for name, g in grads.items():
        assert np.abs(g).max() <= 1e-6


def test_gradients_deterministic_under_fixed_dropout_seed():
    params = init_params(MINI, seed=16, dtype=np.float64)
    window, ctx, targets = mini_example(17)
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(5)
        _, cache = forward(params, window, ctx, training=True, rng=rng)
        outs.append(backward(params, cache, targets))
    for name in outs[0]:
        assert np.array_equal(outs[0][name], outs[1][name])


BATCH_TOLERANCES = {
    # dtype: (probability tolerance, gradient tolerance, probability error is relative)
    np.float64: (1e-12, 1e-12, True),
    np.float32: (1e-6, 1e-5, False),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("training", [False, True])
def test_batch_matches_sequential_single_calls(dtype, training):
    """One B=16 call against 16 calls of one example each: probabilities,
    the mean of the single gradients, and the dropout rng stream."""
    prob_tol, grad_tol, relative = BATCH_TOLERANCES[dtype]
    params = init_params(DEFAULT_ARCH, seed=23, dtype=dtype)
    rng_data = np.random.default_rng(24)
    for name, arr in params.arrays.items():
        if name.endswith("_b"):
            arr += rng_data.uniform(-0.1, 0.1, size=arr.shape).astype(dtype)
    n = 16
    windows = rng_data.normal(size=(n, DEFAULT_ARCH.frames, DEFAULT_ARCH.bands))
    contexts = one_hot_rows(rng_data.integers(0, 7, size=(n, DEFAULT_ARCH.context)))
    targets = one_hot_rows(rng_data.integers(0, 7, size=(n, DEFAULT_ARCH.horizon)))

    rng_batch = np.random.default_rng(25) if training else None
    probs, cache = forward(params, windows, contexts, training=training, rng=rng_batch)
    grads = backward(params, cache, targets)

    rng_single = np.random.default_rng(25) if training else None
    single_probs, grad_sum = [], None
    for k in range(n):
        p, c = forward(params, windows[k : k + 1], contexts[k : k + 1], training=training, rng=rng_single)
        g = backward(params, c, targets[k : k + 1])
        single_probs.append(p[0])
        grad_sum = g if grad_sum is None else {name: grad_sum[name] + g[name] for name in g}

    prob_err = np.abs(probs - np.stack(single_probs))
    if relative:
        prob_err = prob_err / np.stack(single_probs)
    assert prob_err.max() <= prob_tol
    for name, g in grads.items():
        want = grad_sum[name] / n
        err = np.abs(g - want).max() / np.abs(want).max()
        assert err <= grad_tol, f"{name}: {err:.2e}"
    if training:
        assert rng_batch.bit_generator.state == rng_single.bit_generator.state


def reference_forward_backward(params, windows, contexts, targets, rng):
    """``forward(training=True)`` and ``backward`` written out layer by layer
    with the argmax pool, in the same operation order."""
    arch, dtype = params.arch, params.dtype
    n = len(windows)
    size1 = arch.frames * arch.bands * arch.conv1_filters
    keep = rng.random((n, size1 + arch.frames * arch.hidden)) >= DROPOUT_P
    mask1 = keep[:, :size1].reshape(n, arch.frames, arch.bands, arch.conv1_filters)
    mask2 = keep[:, size1:].reshape(n, arch.frames, arch.hidden)
    scale = np.asarray(1.0 / (1.0 - DROPOUT_P), dtype=dtype)

    x = np.asarray(windows, dtype=dtype)[..., None]
    a1 = _conv2d(x, params["conv1_w"], params["conv1_b"])
    d1 = np.maximum(a1, 0.0)
    d1 *= mask1
    d1 *= scale
    p1, idx1 = argmax_pool(d1)
    a2 = _conv2d(p1, params["conv2_w"], params["conv2_b"])
    p2, idx2 = argmax_pool(np.maximum(a2, 0.0))
    flat = p2.reshape(n, -1)
    a3 = flat @ params["fc1_w"] + params["fc1_b"]
    notes8 = pad_note_vectors(np.asarray(contexts, dtype=dtype), arch, dtype)
    fused = np.maximum(a3, 0.0).reshape(n, arch.frames, arch.seg_features) * notes8
    hs1, lstm1 = _lstm_forward(params["lstm1_wx"], params["lstm1_wh"], params["lstm1_b"], fused)
    hs2, lstm2 = _lstm_forward(params["lstm2_wx"], params["lstm2_wh"], params["lstm2_b"], hs1 * mask2 * scale)
    logits = hs2[:, -1] @ params["out_w"] + params["out_b"]
    probs = softmax_rows(logits.reshape(n, arch.horizon, arch.classes))

    dlogits = ((probs - np.asarray(targets, dtype=dtype)) / arch.horizon).astype(dtype).reshape(n, -1)
    g = {"out_w": hs2[:, -1].T @ dlogits, "out_b": dlogits.sum(axis=0)}
    dh_ext2 = np.zeros((n, arch.frames, arch.hidden), dtype=dtype)
    dh_ext2[:, -1] = dlogits @ params["out_w"].T
    dhd, g["lstm2_wx"], g["lstm2_wh"], g["lstm2_b"] = _lstm_backward(lstm2, dh_ext2)
    dhd *= mask2
    dhd *= scale
    dfused, g["lstm1_wx"], g["lstm1_wh"], g["lstm1_b"] = _lstm_backward(lstm1, dhd)
    da3 = (dfused * notes8).reshape(n, -1) * (a3 > 0)
    g["fc1_w"] = flat.T @ da3
    g["fc1_b"] = da3.sum(axis=0)
    da2 = argmax_pool_backward(idx2, (da3 @ params["fc1_w"].T).reshape(p2.shape))
    da2 *= a2 > 0
    g["conv2_w"], g["conv2_b"] = _conv2d_backward(p1, params["conv2_w"], da2)
    da1 = argmax_pool_backward(idx1, _conv2d_input_grad(params["conv2_w"], da2))
    da1 *= mask1
    da1 *= scale
    da1 *= a1 > 0
    g["conv1_w"], g["conv1_b"] = _conv2d_backward(x, params["conv1_w"], da1)
    return probs, {name: grad / n for name, grad in g.items()}


def test_training_step_bit_identical_to_layer_by_layer_reference():
    # B=1 is phase 2's batch size, where the dense weight gradients are
    # np.dot outer products rather than matmuls
    params = init_params(DEFAULT_ARCH, seed=31)
    rng_data = np.random.default_rng(32)
    for name, arr in params.arrays.items():
        if name.endswith("_b"):
            arr += rng_data.uniform(-0.1, 0.1, size=arr.shape).astype(arr.dtype)
    for n in (16, 1):
        windows = rng_data.normal(size=(n, DEFAULT_ARCH.frames, DEFAULT_ARCH.bands))
        contexts = one_hot_rows(rng_data.integers(0, 7, size=(n, DEFAULT_ARCH.context)))
        targets = one_hot_rows(rng_data.integers(0, 7, size=(n, DEFAULT_ARCH.horizon)))

        probs, cache = forward(params, windows, contexts, training=True, rng=np.random.default_rng(33))
        grads = backward(params, cache, targets)
        want_probs, want_grads = reference_forward_backward(
            params, windows, contexts, targets, np.random.default_rng(33)
        )
        assert np.array_equal(probs, want_probs)
        for name, _ in params.arrays.items():
            assert grads[name].dtype == want_grads[name].dtype
            assert np.array_equal(grads[name], want_grads[name]), f"B={n} {name}"


class TestNonFiniteGradient:
    """The one finiteness check over the gradient buffer covers its largest
    group, fc1_w, and its last and smallest, out_b."""

    def _step(self, n=16):
        params = init_params(DEFAULT_ARCH, seed=34)
        rng = np.random.default_rng(35)
        windows = rng.normal(size=(n, DEFAULT_ARCH.frames, DEFAULT_ARCH.bands))
        contexts = one_hot_rows(rng.integers(0, 7, size=(n, DEFAULT_ARCH.context)))
        targets = one_hot_rows(rng.integers(0, 7, size=(n, DEFAULT_ARCH.horizon))).astype(np.float32)
        _, cache = forward(params, windows, contexts)
        return params, cache, targets

    def test_in_fc1_w(self):
        # fc1's input reaches no other group's gradient: the pool backward
        # only compares it with conv2's activations
        params, cache, targets = self._step(n=1)
        cache["flat"][0, 5] = np.inf
        with pytest.raises(NonFiniteGradient), np.errstate(invalid="ignore"):
            backward(params, cache, targets)

    def test_in_out_b(self):
        # out_b alone overflows: its batch sum of 16 huge but finite rows.
        # Zero h_last and out_w keep out_w's gradient and everything below
        # the head at zero.
        params, cache, targets = self._step()
        cache["h_last"][...] = 0.0
        params["out_w"][...] = 0.0
        targets[:, 0, 0] = -3e38
        with pytest.raises(NonFiniteGradient), np.errstate(over="ignore"):
            backward(params, cache, targets)


def test_loss_is_batch_mean_of_single_losses():
    params = init_params(MINI, seed=26)
    examples = [mini_example(27 + k) for k in range(5)]
    windows, ctxs, targets = (np.concatenate(parts) for parts in zip(*examples))
    probs, _ = forward(params, windows, ctxs)
    singles = [loss(forward(params, w, c)[0], t) for w, c, t in examples]
    assert loss(probs, targets) == pytest.approx(np.mean(singles), rel=1e-6)


SONG_TRUNK_ARCHS = {
    "mini": MINI,
    "frames8": ArchConfig(frames=8),
    "frames12": ArchConfig(frames=12),
    "default": DEFAULT_ARCH,
}
# largest |song_trunk - trunk| over all segments, relative to the largest |segment|
SONG_TRUNK_TOLERANCES = {np.float64: 1e-12, np.float32: 2e-6}


@pytest.mark.parametrize("arch_name", sorted(SONG_TRUNK_ARCHS))
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_song_trunk_matches_per_window_trunk(arch_name, dtype):
    """Every window's segments against ``trunk`` on that window alone, for
    one-window and two-window songs, a long song, and window counts one
    below, at and one above a multiple of the chunk size."""
    arch = SONG_TRUNK_ARCHS[arch_name]
    params = init_params(arch, seed=31, dtype=dtype)
    rng = np.random.default_rng(32)
    for name, arr in params.arrays.items():
        if name.endswith("_b"):
            arr += rng.uniform(-0.3, 0.3, size=arr.shape).astype(dtype)
    window_counts = [1, 2, 403 - arch.frames + 1] + [2 * TRUNK_CHUNK + d for d in (-1, 0, 1)]
    for count in window_counts:
        features = rng.normal(size=(count + arch.frames - 1, arch.bands))
        windows = sliding_window_view(features, arch.frames, axis=0).transpose(0, 2, 1)
        want, _ = trunk(params, windows)
        got = song_trunk(params, features)
        assert got.shape == want.shape == (count, arch.frames, arch.seg_features)
        assert got.dtype == want.dtype
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= SONG_TRUNK_TOLERANCES[dtype], f"{count} windows: {err:.2e}"


def test_song_trunk_of_song_shorter_than_a_window_is_empty():
    seg = song_trunk(init_params(MINI), np.zeros((MINI.frames - 1, MINI.bands)))
    assert seg.shape == (0, MINI.frames, MINI.seg_features)


def reference_adam_step(params, grads, state, lr):
    """Adam as one update per parameter group, in the operation order that
    :func:`adam_step` keeps over its flat buffers."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name, p in params.arrays.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= (lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)).astype(p.dtype)


def filled(arch, dtype, value):
    buf = ParamBuffer(arch, dtype)
    buf.flat[...] = value
    return buf


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = init_params(MINI, seed=18)
        state = init_adam_state(params)
        before = {n: a.copy() for n, a in params.arrays.items()}
        adam_step(params, ParamBuffer(MINI), state, lr=1e-3)
        for name, arr in params.arrays.items():
            assert np.array_equal(arr, before[name])

    def test_first_step_magnitude_is_lr(self):
        params = init_params(MINI, seed=19, dtype=np.float64)
        state = init_adam_state(params)
        grads = filled(MINI, np.float64, 0.25)
        before = {n: a.copy() for n, a in params.arrays.items()}
        adam_step(params, grads, state, lr=1e-3)
        for name, arr in params.arrays.items():
            step = np.abs(arr - before[name])
            assert np.allclose(step, 1e-3, rtol=1e-3)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            params = init_params(MINI, seed=20)
            state = init_adam_state(params)
            grads = filled(MINI, np.float32, 0.1)
            adam_step(params, grads, state, lr=1e-4)
            adam_step(params, grads, state, lr=1e-4)
            results.append({n: a.copy() for n, a in params.arrays.items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_per_group_reference(self, dtype):
        # the full model spans many blocks and ends in a partial one; from
        # the second step on the moments are nonzero
        params = init_params(DEFAULT_ARCH, seed=36, dtype=dtype)
        state = init_adam_state(params)
        want = params.copy()
        want_state = init_adam_state(want)
        rng = np.random.default_rng(37)
        for lr in (1e-3, 5e-4, 2e-4, 1e-4):
            grads = ParamBuffer(DEFAULT_ARCH, dtype)
            grads.flat[...] = rng.normal(0.0, rng.uniform(1e-4, 1.0), size=grads.flat.size)
            adam_step(params, grads, state, lr)
            reference_adam_step(want, grads, want_state, lr)
        assert state.t == want_state.t == 4
        for got, ref in ((params.arrays, want.arrays), (state.m, want_state.m), (state.v, want_state.v)):
            assert got.flat.tobytes() == ref.flat.tobytes()

    def test_rejects_gradients_of_another_dtype(self):
        params = init_params(MINI, seed=38)
        state = init_adam_state(params)
        with pytest.raises(TypeError, match="float64"):
            adam_step(params, ParamBuffer(MINI, np.float64), state, lr=1e-3)
        assert state.t == 0

    def test_warm_step_allocates_no_parameter_sized_temporaries(self):
        # the full model's parameters take 1.5 MiB in float32; a warm step
        # holds only its small scratch array
        params = init_params(DEFAULT_ARCH, seed=39)
        state = init_adam_state(params)
        grads = filled(DEFAULT_ARCH, np.float32, 1e-3)
        adam_step(params, grads, state, lr=1e-4)
        tracemalloc.start()
        try:
            adam_step(params, grads, state, lr=1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20


def checkpoint_header_size(arch: ArchConfig) -> int:
    """Magic, version, eight constants, mean and std, Adam step."""
    return 4 + 4 + 8 * 4 + 2 * 8 * arch.bands + 8


class TestCheckpoint:
    def _params(self, seed=21):
        rng = np.random.default_rng(seed)
        norm = NormStats(rng.normal(size=MINI.bands), np.abs(rng.normal(size=MINI.bands)) + 0.5)
        params = init_params(MINI, seed=seed, norm=norm)
        state = init_adam_state(params)
        state.t = 7
        state.m.flat[...] = rng.normal(size=state.m.flat.size)
        state.v.flat[...] = rng.random(size=state.v.flat.size)
        return params, state

    def _saved(self, tmp_path):
        params, state = self._params()
        path = tmp_path / "model.tknm"
        save_checkpoint(path, params, state)
        return path, bytearray(path.read_bytes())

    def test_round_trip_bit_exact(self, tmp_path):
        params, state = self._params()
        path = tmp_path / "model.tknm"
        save_checkpoint(path, params, state)
        loaded_params, loaded_state = load_checkpoint(path)
        assert loaded_params.arch == MINI
        assert loaded_params.flat.tobytes() == params.flat.tobytes()
        assert loaded_state.m.flat.tobytes() == state.m.flat.tobytes()
        assert loaded_state.v.flat.tobytes() == state.v.flat.tobytes()
        assert np.array_equal(params.norm.mean, loaded_params.norm.mean)
        assert np.array_equal(params.norm.std, loaded_params.norm.std)
        assert loaded_state.t == 7

        again = tmp_path / "again.tknm"
        save_checkpoint(again, loaded_params, loaded_state)
        assert again.read_bytes() == path.read_bytes()

    def test_float64_params_load_as_their_float32_rounding(self, tmp_path):
        params = init_params(MINI, seed=23, dtype=np.float64)
        state = init_adam_state(params)
        state.m.flat[...] = 1 / 3
        path = tmp_path / "model.tknm"
        save_checkpoint(path, params, state)
        loaded_params, loaded_state = load_checkpoint(path)
        assert loaded_params.dtype == np.float32
        assert loaded_params.flat.tobytes() == params.flat.astype(np.float32).tobytes()
        assert loaded_state.m.flat.tobytes() == state.m.flat.astype(np.float32).tobytes()

    @pytest.mark.parametrize("arch", [MINI, DEFAULT_ARCH], ids=["mini", "default"])
    def test_file_is_header_three_flat_buffers_and_crc(self, tmp_path, arch):
        params = init_params(arch, seed=24)
        state = init_adam_state(params)
        state.v.flat[...] = 2.0
        path = tmp_path / "model.tknm"
        save_checkpoint(path, params, state)
        data = path.read_bytes()
        head, n = checkpoint_header_size(arch), params.flat.size
        assert len(data) == head + 12 * n + 4
        assert data[head : head + 4 * n] == params.flat.tobytes()
        assert data[head + 8 * n : head + 12 * n] == state.v.flat.tobytes()
        assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.tknm"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TruncatedFile):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra,error", [(-1, TruncatedFile), (1, CorruptFile)], ids=["short", "long"])
    def test_one_byte_off_the_declared_length(self, tmp_path, extra, error):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:-1] if extra < 0 else data + b"\x00")
        with pytest.raises(CorruptFile, match="needs") as exc:
            load_checkpoint(path)
        assert exc.type is error

    def test_corrupted_payload(self, tmp_path):
        path, data = self._saved(tmp_path)
        data[-12] ^= 0xFF  # inside the second moments' float data
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumMismatch):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path, data = self._saved(tmp_path)
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_version_1_file_rejected(self, tmp_path):
        path = tmp_path / "old.tknm"
        save_checkpoint_v1(path, init_params(MINI, seed=0))
        with pytest.raises(VersionMismatch, match="version 1, expected 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "constants", [{1: 2**32 - 4, 3: 2**32 - 1}, {3: 2**32 - 1}], ids=["bands-and-conv2", "conv2"]
    )
    def test_huge_declared_architecture_allocates_nothing(self, tmp_path, constants):
        # constant i of the eight sits at byte 8 + 4*i; the file keeps MINI's
        # arrays, so the length check must fail before any buffer is sized
        path, data = self._saved(tmp_path)
        for i, value in constants.items():
            data[8 + 4 * i : 12 + 4 * i] = struct.pack("<I", value)
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFile):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(data) + 2**20

    def test_architecture_mismatch(self, tmp_path):
        # the header declares another LSTM width than the saved buffers; the
        # CRC is recomputed, so only the length the width implies disagrees
        path, saved = self._saved(tmp_path)
        hidden_at = 8 + 4 * 5  # after magic and version: the sixth constant
        for hidden, error in ((MINI.hidden + 1, TruncatedFile), (MINI.hidden - 1, CorruptFile)):
            data = saved.copy()
            data[hidden_at : hidden_at + 4] = struct.pack("<I", hidden)
            data[-4:] = struct.pack("<I", zlib.crc32(data[:-4]))
            path.write_bytes(bytes(data))
            with pytest.raises(CorruptFile) as exc:
                load_checkpoint(path)
            assert exc.type is error, hidden

    @pytest.mark.parametrize("mean,std", [(0.0, 0.0), (0.0, -1.0), (0.0, float("nan")), (float("nan"), 1.0)])
    def test_bad_normalization_stats(self, tmp_path, mean, std):
        # the CRC is valid, so only the stats are wrong
        path = tmp_path / "model.tknm"
        save_checkpoint_with_norm(path, MINI, mean, std)
        with pytest.raises(CorruptFile, match="normalization"):
            load_checkpoint(path)

    def test_class_count_other_than_the_charts(self, tmp_path):
        # arrays and header agree on 5 classes, but a chart has 7
        path = tmp_path / "model.tknm"
        save_checkpoint_with_constants(path, MINI, classes=5, seg_features=6)
        with pytest.raises(ShapeMismatch):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["conv1_w", "lstm1_wh", "out_b"])
    def test_non_finite_parameter_names_its_group(self, tmp_path, name, value):
        # the CRC is valid, so only the value is wrong
        params, state = self._params()
        params[name].flat[-1] = value
        path = tmp_path / "model.tknm"
        save_checkpoint(path, params, state)
        with pytest.raises(CorruptFile, match=f"model.tknm: non-finite values in parameter group {name}$"):
            load_checkpoint(path)

    def test_infinite_second_moment_loads(self, tmp_path):
        # a finite gradient above ~1.8e19 squares to +inf in v while the
        # parameters stay finite; such an epoch is saved and must reload
        params, state = self._params()
        state.v["out_b"][0] = np.inf
        path = tmp_path / "model.tknm"
        save_checkpoint(path, params, state)
        assert load_checkpoint(path)[1].v["out_b"][0] == np.inf

    @pytest.mark.parametrize("name", ["frames", "bands", "conv1_filters", "hidden", "horizon"])
    def test_zero_architecture_constant(self, tmp_path, name):
        # the file is as long as the zero constant implies, and its CRC holds
        path = tmp_path / "model.tknm"
        save_checkpoint_with_constants(path, MINI, **{name: 0})
        with pytest.raises(ShapeMismatch, match="architecture"):
            load_checkpoint(path)


def test_model_params_rejects_wrong_shapes():
    params = init_params(MINI, seed=22)
    arrays = {n: a.copy() for n, a in params.arrays.items()}
    arrays["fc1_b"] = np.zeros(99, dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        ParamBuffer(MINI, arrays=arrays)
    with pytest.raises(ShapeMismatch):
        ModelParams(MINI, params.norm, ParamBuffer(DEFAULT_ARCH))
    with pytest.raises(TypeError, match="ParamBuffer"):
        ModelParams(MINI, params.norm, dict(params.arrays.items()))


def test_model_params_rejects_normalization_of_other_band_count():
    # such params would save a checkpoint that load_checkpoint refuses
    four_bands = NormStats(np.zeros(4), np.ones(4))
    with pytest.raises(ShapeMismatch, match="4 bands"):
        ModelParams(DEFAULT_ARCH, four_bands, ParamBuffer(DEFAULT_ARCH))
    with pytest.raises(ShapeMismatch, match="4 bands"):
        init_params(DEFAULT_ARCH, seed=0, norm=four_bands)


def test_params_are_views_of_one_buffer():
    for dtype in (np.float32, np.float64):
        params = init_params(MINI, seed=40, dtype=dtype)
        assert params.flat.dtype == dtype
        assert list(params.arrays) == list(PARAM_NAMES)
        assert sum(a.size for _, a in params.arrays.items()) == params.flat.size
        for _, arr in params.arrays.items():
            assert arr.dtype == dtype and np.shares_memory(arr, params.flat)
        copy = params.copy()
        assert not np.shares_memory(copy.flat, params.flat)
        assert copy.flat.tobytes() == params.flat.tobytes()
