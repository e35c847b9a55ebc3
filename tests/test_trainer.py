import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from taikoforge.audio import NUM_BANDS, NormStats
from taikoforge.dataset import MIN_FRAMES, ChartEntry, Dataset, DatasetManifest
from taikoforge.errors import EmptyCorpus
from taikoforge import trainer
from taikoforge.neural import TRUNK_CHUNK, ParamBuffer, adam_step, backward, forward, init_adam_state, init_params, loss
from taikoforge.trainer import TrainConfig, evaluate_loss, train

from conftest import overflow_epochs


def tiny_dataset(seed=0, per_chart=10):
    rng = np.random.default_rng(seed)
    frames = 2 * (per_chart + MIN_FRAMES - 1)
    features = rng.normal(0, 1, size=(frames, NUM_BANDS)).astype(np.float32)
    notes = rng.integers(0, 7, size=frames)
    manifest = DatasetManifest(
        (ChartEntry("train_song", per_chart, "train"), ChartEntry("val_song", per_chart, "val"))
    )
    return Dataset(manifest, features, notes, NormStats(np.zeros(NUM_BANDS), np.ones(NUM_BANDS)))


def quick_config(tmp_path, **overrides):
    defaults = dict(
        checkpoint_dir=tmp_path / "ckpt",
        phase1_epochs=1,
        phase1_lr=1e-4,
        phase1_batch=4,
        phase2_lr=5e-5,
        phase2_max_epochs=0,
        seed=11,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestConfig:
    def test_zero_lr_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            quick_config(tmp_path, phase1_lr=0.0)

    @pytest.mark.parametrize("name", ["phase1_lr", "phase2_lr"])
    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, tmp_path, name, lr):
        with pytest.raises(ValueError, match="finite"):
            quick_config(tmp_path, **{name: lr})

    def test_phase2_must_be_slower(self, tmp_path):
        with pytest.raises(ValueError):
            quick_config(tmp_path, phase2_lr=1e-3)

    def test_defaults_match_published_schedule(self, tmp_path):
        config = TrainConfig(checkpoint_dir=tmp_path)
        assert config.phase1_epochs == 10
        assert config.phase1_lr == 1e-5
        assert config.phase1_batch == 16
        assert config.phase2_lr == 5e-6


class TestTrain:
    def test_smoke_writes_final_checkpoint(self, tmp_path):
        ds = tiny_dataset()
        config = quick_config(tmp_path, phase2_max_epochs=2)
        result = train(ds, config)
        assert [p.name for p in config.checkpoint_dir.iterdir()] == ["final.tknm"]
        assert result.exploded_at is None
        assert len(result.records) == 3
        assert np.isfinite(result.records[0].train_loss)

    def test_untrained_loss_near_ln7(self, tmp_path):
        ds = tiny_dataset()
        params = init_params(seed=1, norm=ds.norm)
        value = evaluate_loss(params, ds, ds.indices("val"))
        assert abs(value - np.log(7.0)) <= 0.3

    def test_evaluate_loss_deterministic(self, tmp_path):
        ds = tiny_dataset()
        params = init_params(seed=2, norm=ds.norm)
        idx = ds.indices("val")
        assert evaluate_loss(params, ds, idx) == evaluate_loss(params, ds, idx)

    def test_same_seed_identical_runs(self, tmp_path):
        ds = tiny_dataset()
        r1 = train(ds, quick_config(tmp_path / "a", phase2_max_epochs=1))
        r2 = train(ds, quick_config(tmp_path / "b", phase2_max_epochs=1))
        assert [(r.phase, r.epoch, r.train_loss, r.val_loss) for r in r1.records] == [
            (r.phase, r.epoch, r.train_loss, r.val_loss) for r in r2.records
        ]
        assert r1.final_path.read_bytes() == r2.final_path.read_bytes()

    def test_dataset_without_training_examples_refused_before_any_file(self, tmp_path):
        ds = tiny_dataset()
        manifest = DatasetManifest(tuple(replace(c, split="val") for c in ds.manifest.charts))
        all_val = Dataset(manifest, ds.features, ds.notes, ds.norm)
        config = quick_config(tmp_path)
        with pytest.raises(EmptyCorpus, match="no training examples"):
            train(all_val, config)
        assert not config.checkpoint_dir.exists()

    def test_epoch_log_lines(self, tmp_path):
        ds = tiny_dataset()
        lines = []
        train(ds, quick_config(tmp_path), log=lines.append)
        assert len(lines) == 1
        assert "phase 1 epoch" in lines[0]
        assert "train" in lines[0] and "val" in lines[0]


def charts_dataset(counts, seed=0):
    """Charts of the given example counts, alternating train and val."""
    rng = np.random.default_rng(seed)
    frames = sum(c + MIN_FRAMES - 1 for c in counts)
    features = rng.normal(0, 1, size=(frames, NUM_BANDS)).astype(np.float32)
    notes = rng.integers(0, 7, size=frames)
    entries = tuple(ChartEntry(f"c{i}", c, ("train", "val")[i % 2]) for i, c in enumerate(counts))
    return Dataset(DatasetManifest(entries), features, notes, NormStats(np.zeros(NUM_BANDS), np.ones(NUM_BANDS)))


def lively_params(dtype):
    """An initialization with biases off zero and a sharper head, so that
    the loss moves with every segment instead of sitting near ln 7."""
    params = init_params(seed=5, dtype=dtype)
    rng = np.random.default_rng(6)
    for name, arr in params.arrays.items():
        if name.endswith("_b"):
            arr += rng.normal(0, 0.3, size=arr.shape).astype(dtype)
    params.arrays["out_w"] *= 4
    return params


def per_window_loss(params, ds, indices):
    """Reference: the per-window inference forward on each example alone."""
    losses = [loss(forward(params, ds.windows[i : i + 1], ds.contexts[i : i + 1])[0], ds.targets[i : i + 1]) for i in indices]
    return float(np.mean(losses))


class TestEvaluateLoss:
    # charts one below, at and one above a piece, split train/val
    COUNTS = [TRUNK_CHUNK - 1, TRUNK_CHUNK, TRUNK_CHUNK + 1, 3, 2 * TRUNK_CHUNK + 1, 1]
    DS = charts_dataset(COUNTS)

    @staticmethod
    def index_sets(ds):
        rng = np.random.default_rng(8)
        yield ds.indices("val")  # three charts
        yield ds.indices("train")
        yield np.arange(len(ds))
        yield rng.permutation(len(ds))[:40]  # shuffled, with gaps and steps back
        yield np.sort(rng.choice(len(ds), 50, replace=False))
        yield np.array([TRUNK_CHUNK + 3])
        yield np.array([4, 4, 5])  # a repeated example
        first = sum(TestEvaluateLoss.COUNTS[:4]) + 1  # inside the chart of 2 * TRUNK_CHUNK + 1
        for n in (TRUNK_CHUNK - 1, TRUNK_CHUNK, TRUNK_CHUNK + 1):
            yield np.arange(first, first + n)

    # float32: song_trunk sums in another order than the per-window trunk;
    # 1e-6 of the loss is about 60 times the largest difference seen
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_matches_per_window_forward(self, dtype, rtol):
        params = lively_params(dtype)
        for idx in self.index_sets(self.DS):
            got = evaluate_loss(params, self.DS, idx)
            want = per_window_loss(params, self.DS, idx)
            assert abs(got - want) <= rtol * want, (len(idx), got, want)

    def test_loss_moves_with_the_examples(self):
        # the comparison above would hold for a model that ignores its input
        params = lively_params(np.float64)
        values = {round(evaluate_loss(params, self.DS, np.array([i])), 6) for i in range(0, 30, 3)}
        assert len(values) == 10

    def test_empty_index_array_is_nan(self):
        params = init_params(seed=2)
        assert np.isnan(evaluate_loss(params, self.DS, np.empty(0, dtype=np.intp)))


def test_train_validates_through_the_module_attribute_once_per_epoch(tmp_path, monkeypatch):
    # the benchmark times validation by wrapping trainer.evaluate_loss and
    # subtracts it from each epoch's time; a call that bypassed the
    # attribute would leave validation inside the training rates
    ds = tiny_dataset()
    calls = []
    real = trainer.evaluate_loss

    def counted(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(trainer, "evaluate_loss", counted)
    result = train(ds, quick_config(tmp_path, phase1_epochs=2, phase2_max_epochs=1))
    assert [r.val_loss for r in result.records] == calls
    assert len(calls) == 3


def test_train_skips_validation_of_an_exploded_epoch(tmp_path, monkeypatch):
    ds = tiny_dataset()
    calls = []
    real = trainer.evaluate_loss
    monkeypatch.setattr(trainer, "evaluate_loss", lambda *args: calls.append(args) or real(*args))
    overflow_epochs(monkeypatch, 2)  # phase 2 epoch 2
    result = train(ds, quick_config(tmp_path, phase2_max_epochs=3))
    assert result.exploded_at == (2, 2)
    assert len(calls) == len(result.records) == 2


def test_phase2_epoch_cap_costs_no_memory(tmp_path, monkeypatch):
    # phase 2 runs until an explosion, so its cap may be far beyond any
    # run's length; the schedule must not be built before the first epoch
    ds = tiny_dataset()

    def peak(max_epochs, name):
        with monkeypatch.context() as patch:
            overflow_epochs(patch, 1)  # phase 2 epoch 1
            tracemalloc.start()
            try:
                result = train(ds, quick_config(tmp_path / name, phase2_max_epochs=max_epochs))
                _, peak_bytes = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert result.exploded_at == (2, 1)
        return peak_bytes

    peak(1, "warm")  # one-time allocations stay out of the comparison
    assert peak(10**6, "huge") <= peak(1, "one") + 2**20


class TestRollback:
    def test_injected_nan_rolls_back_to_previous_epoch(self, tmp_path, monkeypatch):
        ds = tiny_dataset()
        clean = train(ds, quick_config(tmp_path / "clean", phase2_max_epochs=1))
        overflow_epochs(monkeypatch, 2)  # phase 2 epoch 2
        config = quick_config(tmp_path, phase2_max_epochs=3)
        result = train(ds, config)
        assert result.exploded_at == (2, 2)
        assert result.final_path.read_bytes() == clean.final_path.read_bytes()
        assert [p.name for p in config.checkpoint_dir.iterdir()] == ["final.tknm"]

    def test_returned_params_always_finite(self, tmp_path, monkeypatch):
        ds = tiny_dataset()
        overflow_epochs(monkeypatch, 2)  # phase 2 epoch 2
        result = train(ds, quick_config(tmp_path, phase2_max_epochs=2))
        for _, arr in result.params.arrays.items():
            assert np.isfinite(arr).all()

    def test_phase2_first_epoch_explosion_keeps_phase1(self, tmp_path, monkeypatch):
        ds = tiny_dataset()
        clean = train(ds, quick_config(tmp_path / "clean", phase2_max_epochs=0))
        overflow_epochs(monkeypatch, 1)  # phase 2 epoch 1
        result = train(ds, quick_config(tmp_path, phase2_max_epochs=2))
        assert result.exploded_at == (2, 1)
        assert result.final_path.read_bytes() == clean.final_path.read_bytes()

    def test_loss_spike_triggers_rollback(self, tmp_path, monkeypatch):
        ds = tiny_dataset()
        # absurdly low explosion factor: the next epoch always "spikes"
        monkeypatch.setattr(trainer, "EXPLOSION_FACTOR", 1e-9)
        config = quick_config(tmp_path, phase2_max_epochs=4)
        result = train(ds, config)
        assert result.exploded_at == (2, 1)
        assert result.final_path.exists()


def test_batch_gradient_is_average_of_single_gradients(tmp_path):
    ds = tiny_dataset(per_chart=4)
    idx = ds.indices("train")

    # float64: Adam's first step is +-lr wherever a gradient is rounding
    # noise, so in float32 a different summation order can flip such steps
    def run_manual(batch_size):
        params = init_params(seed=3, norm=ds.norm, dtype=np.float64)
        state = init_adam_state(params)
        rng = np.random.default_rng(42)
        order = rng.permutation(len(idx))
        batch = idx[order[:batch_size]]
        grad_sum = None
        for i in batch:
            _, cache = forward(params, ds.windows[i : i + 1], ds.contexts[i : i + 1], training=True, rng=rng)
            g = backward(params, cache, ds.targets[i : i + 1])
            grad_sum = g if grad_sum is None else {k: grad_sum[k] + g[k] for k in g}
        averaged = {k: v / batch_size for k, v in grad_sum.items()}
        adam_step(params, ParamBuffer(params.arch, np.float64, averaged), state, 1e-4)
        return params

    from taikoforge.trainer import _run_epoch

    params = init_params(seed=3, norm=ds.norm, dtype=np.float64)
    state = init_adam_state(params)
    _run_epoch(params, state, ds, idx, batch_size=4, lr=1e-4, rng=np.random.default_rng(42))
    manual = run_manual(4)
    for name, arr in params.arrays.items():
        assert np.allclose(arr, manual[name], rtol=1e-5, atol=0)


def test_single_example_and_batch_losses_consistent(tmp_path):
    # batch mean of per-example losses equals the epoch mean by construction;
    # sanity-check the reported value is a plain mean
    ds = tiny_dataset(per_chart=3)
    result = train(ds, quick_config(tmp_path, phase1_batch=3))
    assert 0.0 < result.records[0].train_loss < 25.0
