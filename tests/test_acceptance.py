"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The long pole is the overfit smoke (criterion 5, ~40 s of CPU
training); everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from taikoforge import cli
from taikoforge.audio import (
    NUM_BANDS,
    SAMPLE_RATE,
    apply_norm,
    fit_norm,
    mel_project,
    stft_frames,
)
from taikoforge.chart import FRAME_MS, HIT_CLASSES, NoteClass
from taikoforge.chart_io import parse_osu, write_osu
from taikoforge.dataset import MIN_FRAMES, ChartEntry, Dataset, DatasetManifest
from taikoforge.generator import generate_notes, postprocess
from taikoforge.metrics import (
    HUMAN_TAIKO_REFERENCE_PCT,
    dc,
    dc_rand,
    distribution_table,
    hi_pattern_space,
    note_distribution,
    oc_human,
    pattern_space,
    random_chart,
)
from taikoforge.neural import backward, forward, init_params
from taikoforge.trainer import TrainConfig, train

from conftest import click_audio_for, overflow_epochs, periodic_chart, random_note_frames, write_wav_pcm16
from test_audio import oracle_log_mel
from test_neural import MINI, gradcheck_params, kink_margin, numeric_grads


def report(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {number:2d} PASS — {name}{suffix}")


def test_criterion_01_parser_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for i in range(100):
        length = int(rng.integers(200, 2001))
        chart = random_note_frames(rng, length)
        bpm = float(rng.uniform(60.0, 300.0))
        parsed, _ = parse_osu(write_osu(chart, bpm, "song.wav"), song_length_ms=length * FRAME_MS)
        assert parsed == chart, f"round trip failed on chart {i}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"round trips took {elapsed:.2f}s"
    report(1, "parser round trip", f"100 charts frame-exact in {elapsed:.2f}s")


def test_criterion_02_dsp_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    samples = rng.normal(0.0, 0.25, size=SAMPLE_RATE)
    mel = mel_project(stft_frames(samples))
    frames = rng.choice(mel.shape[0], size=10, replace=False)
    worst = 0.0
    for frame in frames:
        oracle = oracle_log_mel(samples, int(frame))
        rel = np.linalg.norm(mel[frame] - oracle) / np.linalg.norm(oracle)
        worst = max(worst, rel)
        assert rel <= 1e-4

    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    sine = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    spec = stft_frames(sine)
    assert np.all(spec.argmax(axis=1) == round(440 * 1024 / SAMPLE_RATE))
    from taikoforge.audio import MEL_FMAX, MEL_FMIN, hz_to_mel, mel_to_hz

    centers = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), NUM_BANDS + 2))[1:-1]
    sine_mel = mel_project(spec)
    assert np.all(sine_mel.argmax(axis=1) == np.abs(centers - 440.0).argmin())

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, "DSP oracle", f"worst relative error {worst:.2e}, 440 Hz in bin 10, {elapsed:.2f}s")


def test_criterion_03_normalization():
    rng = np.random.default_rng(303)
    blocks = [rng.normal(rng.uniform(-4, 4), rng.uniform(0.5, 3.0), size=(200, NUM_BANDS)) for _ in range(4)]
    for b in blocks:
        b[:, 17] = 2.5  # one degenerate band
    stats = fit_norm(blocks)
    normalized = np.vstack([apply_norm(b, stats) for b in blocks])
    mean_err = np.abs(normalized.mean(axis=0)).max()
    assert mean_err <= 1e-6
    live = np.ones(NUM_BANDS, dtype=bool)
    live[17] = False
    var_err = np.abs(normalized.var(axis=0)[live] - 1.0).max()
    assert var_err <= 1e-4
    report(3, "normalization", f"|mean| ≤ {mean_err:.1e}, |var-1| ≤ {var_err:.1e}")


def test_criterion_04_gradient_check():
    started = time.perf_counter()
    params = gradcheck_params()
    rng_data = np.random.default_rng(41)
    window = rng_data.normal(0.0, 1.0, size=(1, MINI.frames, MINI.bands))
    from taikoforge.chart import one_hot_rows

    ctx = one_hot_rows(rng_data.integers(0, MINI.classes, size=(1, MINI.context))).astype(np.float64)
    targets = one_hot_rows(rng_data.integers(0, MINI.classes, size=(1, MINI.horizon))).astype(np.float64)

    _, cache = forward(params, window, ctx)
    assert kink_margin(cache, training=False) > 1e-3
    analytic = backward(params, cache, targets)
    numeric = numeric_grads(params, window, ctx, targets, training=False, drop_seed=0)

    worst = 0.0
    for name, _ in params.arrays.items():
        ga, gn = analytic[name], numeric[name]
        rel = np.linalg.norm(ga - gn) / max(np.linalg.norm(ga) + np.linalg.norm(gn), 1e-12)
        worst = max(worst, rel)
        assert rel <= 1e-4, f"{name}: {rel:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, "gradient check", f"worst group error {worst:.2e} in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    chart = periodic_chart(1304, period=4)  # ~30 s of frames
    samples = click_audio_for(chart)[: 30 * SAMPLE_RATE]
    raw = mel_project(stft_frames(samples))
    norm = fit_norm([raw])
    feats = apply_norm(raw, norm)
    ds = Dataset(
        DatasetManifest((ChartEntry("synthetic", len(chart) - MIN_FRAMES + 1, "train"),)),
        feats, chart.frames, norm,
    )
    config = TrainConfig(
        checkpoint_dir=tmp_path_factory.mktemp("overfit"),
        phase1_epochs=10,
        phase1_lr=5e-4,
        phase1_batch=16,
        phase2_lr=2.5e-4,
        phase2_max_epochs=0,
        seed=2024,
    )
    started = time.perf_counter()
    result = train(ds, config)
    return chart, feats, result, time.perf_counter() - started


def test_criterion_05_overfit_smoke(overfit_run):
    chart, feats, result, train_s = overfit_run
    assert result.exploded_at is None
    final_loss = result.records[-1].train_loss
    target = 0.3 * np.log(7.0)  # a 70% reduction from the ~ln 7 start
    assert final_loss <= target, f"loss {final_loss:.4f} > {target:.4f}"

    generated = generate_notes(result.params, feats, seed=5, greedy=True)
    match = float((generated.frames == chart.frames[: len(generated)]).mean())
    assert match >= 0.80, f"greedy reproduction {match:.3f} < 0.80"
    assert train_s < 600.0
    report(5, "overfit smoke", f"loss {final_loss:.4f} ≤ {target:.3f}, greedy match {match:.1%}, {train_s:.0f}s")


def test_phase1_loss_trend_on_overfit_corpus(overfit_run):
    # loss should descend epoch over epoch (one increase ≤5% allowed) while
    # it is still meaningfully high; below ~5% of ln 7 it is pure noise floor
    losses = [r.train_loss for r in overfit_run[2].records]
    floor = 0.05 * np.log(7.0)
    descent = []
    for value in losses:
        descent.append(value)
        if value < floor:
            break
    assert len(descent) >= 2
    increases = sum(1 for a, b in zip(descent, descent[1:]) if b > a * 1.05)
    assert increases <= 1


def test_criterion_06_rollback_bit_compare(tmp_path, monkeypatch):
    rng = np.random.default_rng(606)
    frames = 2 * (6 + MIN_FRAMES - 1)
    ds = Dataset(
        DatasetManifest((ChartEntry("a", 6, "train"), ChartEntry("b", 6, "val"))),
        rng.normal(size=(frames, NUM_BANDS)).astype(np.float32),
        rng.integers(0, 7, frames),
        fit_norm([rng.normal(size=(10, NUM_BANDS))]),
    )
    k = 2

    def run(name, phase2_max_epochs):
        config = TrainConfig(
            checkpoint_dir=tmp_path / name,
            phase1_epochs=1,
            phase1_lr=1e-4,
            phase1_batch=4,
            phase2_lr=5e-5,
            phase2_max_epochs=phase2_max_epochs,
            seed=9,
        )
        return train(ds, config)

    previous = run("stopped", k - 1).final_path.read_bytes()
    overflow_epochs(monkeypatch, k)  # the schedule's third epoch: phase 2 epoch k
    result = run("exploded", 3)
    assert result.exploded_at == (2, k)
    assert result.final_path.read_bytes() == previous
    report(6, "rollback", f"overflow at phase-2 epoch {k} returned epoch {k - 1}'s bytes")


def test_criterion_07_metric_oracles():
    x = random_chart(3000, seed=71)
    assert dc(x, x) == 100.0

    big = random_chart(100_000, seed=72)
    value = dc_rand(big, seed=73)
    assert 48.0 <= value <= 52.0

    human = np.array([0, 1, 0, 0], dtype=np.uint8)
    ai = np.array([1, 0, 0, 0], dtype=np.uint8)
    from taikoforge.chart import BinaryChart

    assert oc_human(BinaryChart(human), BinaryChart(ai)) == 75.0
    assert oc_human(x, x) == 100.0
    zeros = BinaryChart(np.zeros(16, dtype=np.uint8))
    assert oc_human(zeros, zeros) == 100.0

    _, pct_zero = pattern_space(BinaryChart(np.zeros(64, dtype=np.uint8)))
    assert pct_zero == 100.0 / 256.0
    _, pct_alt = pattern_space(BinaryChart(np.tile([0, 1], 20).astype(np.uint8)))
    assert pct_alt == 200.0 / 256.0
    assert hi_pattern_space(x, x) == 100.0

    rng = np.random.default_rng(74)
    for _ in range(100):
        n = int(rng.integers(1, 400))
        a = BinaryChart(rng.integers(0, 2, n, dtype=np.uint8).astype(np.uint8))
        b = BinaryChart(rng.integers(0, 2, n, dtype=np.uint8).astype(np.uint8))
        assert oc_human(a, b) >= dc(a, b)
    report(7, "metric oracles", f"dc_rand {value:.2f}%, p-space {pct_zero:.3f}%/{pct_alt:.3f}%")


def test_criterion_08_postprocess_on_generated_charts():
    hits = {int(c) for c in HIT_CLASSES}
    span_classes = (int(NoteClass.DRUMROLL), int(NoteClass.DENDEN))
    rng = np.random.default_rng(808)
    checked = 0
    for i in range(100):
        params = init_params(MINI, seed=int(rng.integers(1 << 30)))
        features = rng.normal(size=(int(rng.integers(30, 90)), MINI.bands))
        raw = generate_notes(params, features, seed=int(rng.integers(1 << 30)))
        cleaned = postprocess(raw)
        frames = cleaned.frames
        for t in range(len(frames) - 1):
            assert not (int(frames[t]) in hits and int(frames[t + 1]) in hits)
        for cls in span_classes:
            assert np.array_equal(frames == cls, raw.frames == cls)
        checked += 1
    report(8, "postprocess", f"{checked} generated charts clean, spans untouched")


def test_criterion_09_determinism(tmp_path):
    charts_dir = tmp_path / "charts"
    audio_dir = tmp_path / "audio"
    charts_dir.mkdir()
    audio_dir.mkdir()
    for name, period in (("da", 4), ("db", 6)):
        chart = periodic_chart(80, period=period)
        (charts_dir / f"{name}.osu").write_text(write_osu(chart, 150.0, f"{name}.wav"))
        write_wav_pcm16(audio_dir / f"{name}.wav", click_audio_for(chart))

    artifacts = {"dataset": [], "checkpoint": [], "chart": [], "csv": []}
    for run_id in ("one", "two"):
        base = tmp_path / run_id
        base.mkdir()
        ds_path = base / "data.tknd"
        assert cli.main(["build-dataset", "--charts", str(charts_dir), "--audio", str(audio_dir), "--out", str(ds_path), "--seed", "5", "--ratio", "0.5"]) == 0
        out_dir = base / "train"
        assert cli.main(["train", "--dataset", str(ds_path), "--out-dir", str(out_dir), "--phase1-epochs", "1", "--phase2-max", "0", "--seed", "5"]) == 0
        gen_path = base / "gen.osu"
        assert cli.main(["generate", "--checkpoint", str(out_dir / "final.tknm"), "--audio", str(audio_dir / "da.wav"), "--out", str(gen_path), "--seed", "5"]) == 0
        csv_path = base / "metrics.csv"
        assert cli.main(["evaluate", "--model-dir", str(charts_dir), "--human-dir", str(charts_dir), "--seed", "5", "--csv", str(csv_path)]) == 0
        artifacts["dataset"].append(ds_path.read_bytes())
        artifacts["checkpoint"].append((out_dir / "final.tknm").read_bytes())
        artifacts["chart"].append(gen_path.read_bytes())
        artifacts["csv"].append(csv_path.read_bytes())

    for kind, (a, b) in artifacts.items():
        assert a == b, f"{kind} differs between identical runs"
    report(9, "determinism", "dataset, checkpoint, chart, and CSV bit-identical across reruns")


def test_criterion_10_reference_statistic_logged():
    rng = np.random.default_rng(1010)
    dists = [note_distribution(random_note_frames(rng, 1500)) for _ in range(3)]
    table = distribution_table({"supplied charts": np.mean(dists, axis=0)})
    assert "human reference" in table
    print("\n" + table)
    reference_total = sum(HUMAN_TAIKO_REFERENCE_PCT)
    report(10, "reference statistic", f"distribution printed beside reference row (Σref {reference_total:.2f}%)")
