import re
import warnings
import wave
from types import SimpleNamespace

import numpy as np
import pytest

from taikoforge import cli, generator, metrics, trainer
from taikoforge.audio import NormStats
from taikoforge.chart import HIT_CLASSES, FRAME_MS, NoteFrameSequence
from taikoforge.chart_io import parse_osu, write_osu
from taikoforge.dataset import ChartEntry, Dataset, DatasetManifest, load_dataset, save_dataset
from taikoforge.neural import DEFAULT_ARCH, ArchConfig, init_params, save_checkpoint

from conftest import (
    click_audio_for,
    periodic_chart,
    save_checkpoint_v1,
    save_checkpoint_with_constants,
    save_checkpoint_with_norm,
    write_wav_pcm16,
)

MINI = ArchConfig(frames=4, bands=4, conv1_filters=2, conv2_filters=3, seg_features=8, hidden=3)


def run(argv):
    return cli.main([str(a) for a in argv])


def run_recording_warnings(argv):
    """Run the CLI in-process; return its exit code and the categories of
    the warnings it raised, each recorded however often it repeats."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, [w.category for w in caught]


def assert_one_line_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err
    return err


@pytest.fixture
def built_dataset(tiny_corpus, tmp_path):
    charts_dir, audio_dir = tiny_corpus
    out = tmp_path / "data.tknd"
    code = run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", out, "--seed", 7, "--ratio", 0.5])
    assert code == 0
    return out


@pytest.fixture
def trained_checkpoint(built_dataset, tmp_path):
    out_dir = tmp_path / "run"
    code = run([
        "train", "--dataset", built_dataset, "--out-dir", out_dir,
        "--phase1-epochs", 1, "--phase2-max", 0, "--seed", 3,
    ])
    assert code == 0
    return out_dir / "final.tknm"


class TestBuildDataset:
    def test_writes_expected_counts(self, built_dataset, capsys):
        ds = load_dataset(built_dataset)
        # 90-frame charts padded to the 94-frame audio -> 94 - 18 examples
        assert [c.example_count for c in ds.manifest.charts] == [76, 76]
        assert len(ds) == 152

    def test_missing_audio_exits_2(self, tiny_corpus, tmp_path, capsys):
        charts_dir, audio_dir = tiny_corpus
        (audio_dir / "song_a.wav").unlink()
        code = run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", tmp_path / "x.tknd"])
        assert code == 2
        assert "song_a" in capsys.readouterr().err

    def test_rerun_bit_identical(self, tiny_corpus, tmp_path):
        charts_dir, audio_dir = tiny_corpus
        outs = []
        for name in ("one.tknd", "two.tknd"):
            out = tmp_path / name
            assert run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", out, "--seed", 7]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_former_thread_variable_is_ignored(self, tiny_corpus, tmp_path, monkeypatch):
        # songs are prepared one after another; no environment variable sizes a pool
        charts_dir, audio_dir = tiny_corpus
        plain, with_variable = tmp_path / "plain.tknd", tmp_path / "with_variable.tknd"
        assert run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", plain]) == 0
        monkeypatch.setenv("TAIKO_FORGE_THREADS", "banana")
        assert run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", with_variable]) == 0
        assert with_variable.read_bytes() == plain.read_bytes()

    def test_nonexistent_dir_exits_2(self, tmp_path, capsys):
        code = run(["build-dataset", "--charts", tmp_path / "nope", "--audio", tmp_path, "--out", tmp_path / "x"])
        assert code == 2

    def test_parse_error_names_the_file(self, tiny_corpus, tmp_path, capsys):
        charts_dir, audio_dir = tiny_corpus
        (charts_dir / "song_a.osu").write_text("not a chart at all")
        code = run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", tmp_path / "x.tknd"])
        assert code == 2
        assert "song_a.osu" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tiny_corpus, tmp_path, capsys):
        charts_dir, audio_dir = tiny_corpus
        out = tmp_path / "x.tknd"
        assert run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", out, "--seed", -1]) == 2
        assert_one_line_error(capsys, "--seed")
        assert not out.exists()

    def test_missing_out_directory_exits_2(self, tiny_corpus, tmp_path, capsys):
        charts_dir, audio_dir = tiny_corpus
        code = run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", tmp_path / "nodir" / "x.tknd"])
        assert code == 2

    def test_corrupt_wav_error_names_the_file_once(self, tiny_corpus, tmp_path, capsys):
        charts_dir, audio_dir = tiny_corpus
        (audio_dir / "song_b.wav").write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        code = run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", tmp_path / "x.tknd"])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing fmt or data chunk" in err and err.count("song_b.wav") == 1, err

    @pytest.mark.parametrize("ratio", [0, -0.5, 1.5, "nan"])
    def test_ratio_outside_unit_interval_exits_2(self, tiny_corpus, tmp_path, capsys, ratio):
        charts_dir, audio_dir = tiny_corpus
        out = tmp_path / "x.tknd"
        assert run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", out, "--ratio", ratio]) == 2
        assert_one_line_error(capsys, "--ratio must be in (0, 1]")
        assert not out.exists()

    def test_charts_span_their_song_or_last_object_and_histogram_counts_stored_frames(self, tmp_path, capsys):
        charts_dir, audio_dir = tmp_path / "charts", tmp_path / "audio"
        charts_dir.mkdir()
        audio_dir.mkdir()
        # "long" has objects 31 frames past its 60-frame song; "silent" has no object
        long_chart = periodic_chart(91, period=5, first_note=0)
        (charts_dir / "long.osu").write_text(write_osu(long_chart, 130.0, "long.wav"))
        write_wav_pcm16(audio_dir / "long.wav", np.zeros(60 * FRAME_MS * 44100 // 1000))
        empty = write_osu(periodic_chart(40), 130.0, "silent.wav").split("[HitObjects]")[0] + "[HitObjects]\n"
        (charts_dir / "silent.osu").write_text(empty)
        write_wav_pcm16(audio_dir / "silent.wav", np.zeros(50 * FRAME_MS * 44100 // 1000))
        out = tmp_path / "d.tknd"
        assert run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", out]) == 0
        ds = load_dataset(out)
        assert [(c.chart_id, c.example_count) for c in ds.manifest.charts] == [("long", 91 - 18), ("silent", 50 - 18)]
        counts = np.bincount(ds.notes, minlength=7)
        assert counts[0] == 91 + 50 - np.count_nonzero(long_chart.frames)
        histogram = capsys.readouterr().out.splitlines()[2]
        assert histogram.startswith("class histogram: NO_NOTE=")
        assert [int(n) for n in re.findall(r"=(\d+) ", histogram)] == counts.tolist()


def save_dataset_without_a_use(path, bands, first_split):
    """A valid TKND file that build-dataset never writes: two charts of
    ``bands`` bands, the first in ``first_split`` and the second in the
    validation split."""
    manifest = DatasetManifest((ChartEntry("a", 2, first_split), ChartEntry("b", 2, "val")), bands=bands)
    frames = manifest.frame_count()
    norm = NormStats(np.zeros(bands), np.ones(bands))
    save_dataset(path, Dataset(manifest, np.zeros((frames, bands)), np.zeros(frames), norm))


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained_checkpoint):
        assert trained_checkpoint.exists()
        log = trained_checkpoint.parent / "train.log"
        assert "phase 1 epoch" in log.read_text()

    def test_invalid_lr_exits_2_without_training(self, built_dataset, tmp_path, capsys):
        out_dir = tmp_path / "bad"
        for lr in (0, "nan"):
            assert run(["train", "--dataset", built_dataset, "--out-dir", out_dir, "--phase1-lr", lr]) == 2
            assert_one_line_error(capsys, "learning rates must be finite and positive")
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--phase1-batch", 0], "batch size must be at least 1"),
            (["--phase1-epochs", -1], "epoch counts must be non-negative"),
            (["--phase2-max", -1], "epoch counts must be non-negative"),
        ],
    )
    def test_invalid_schedule_exits_2_without_training(self, built_dataset, tmp_path, capsys, flags, needle):
        out_dir = tmp_path / "bad"
        assert run(["train", "--dataset", built_dataset, "--out-dir", out_dir, *flags]) == 2
        assert_one_line_error(capsys, needle)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "bands, first_split, needle",
        [(80, "val", "no training examples"), (4, "train", "dataset has 4 bands, the model takes 80")],
        ids=["every-chart-in-validation", "4-bands"],
    )
    def test_dataset_training_cannot_use_exits_2_before_writing(self, tmp_path, capsys, bands, first_split, needle):
        dataset = tmp_path / "odd.tknd"
        save_dataset_without_a_use(dataset, bands, first_split)
        out_dir = tmp_path / "run"
        assert run(["train", "--dataset", dataset, "--out-dir", out_dir]) == 2
        err = assert_one_line_error(capsys, needle)
        assert str(dataset) in err
        assert not out_dir.exists()

    def test_negative_seed_exits_2(self, built_dataset, tmp_path, capsys):
        out_dir = tmp_path / "bad"
        assert run(["train", "--dataset", built_dataset, "--out-dir", out_dir, "--seed", -1]) == 2
        assert_one_line_error(capsys, "--seed")
        assert not out_dir.exists()

    def test_corrupt_manifest_exits_2(self, built_dataset, tmp_path, capsys):
        data = bytearray(built_dataset.read_bytes())
        data[12] = ord("[")  # the manifest's opening brace
        built_dataset.write_bytes(bytes(data))
        code = run(["train", "--dataset", built_dataset, "--out-dir", tmp_path / "run"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad manifest" in err and "Traceback" not in err

    def test_log_holds_each_epoch_before_the_next_save(self, built_dataset, tmp_path, monkeypatch):
        # a killed run keeps the lines of the epochs it finished
        out_dir = tmp_path / "run"
        logs = []
        real = trainer.save_checkpoint

        def spy(*args):
            logs.append((out_dir / "train.log").read_text())
            real(*args)

        monkeypatch.setattr(trainer, "save_checkpoint", spy)
        assert run([
            "train", "--dataset", built_dataset, "--out-dir", out_dir,
            "--phase1-epochs", 2, "--phase2-max", 0, "--seed", 3,
        ]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["final.tknm", "train.log"]
        assert len(logs) == 3  # the initial state, then epochs 1 and 2
        assert logs[0] == logs[1] == ""
        assert logs[2].startswith("phase 1 epoch   1  ") and logs[2].count("\n") == 1

    def test_defaults_are_the_train_configs(self):
        args = cli.build_parser().parse_args(["train", "--dataset", "d.tknd", "--out-dir", "run"])
        config = trainer.TrainConfig(checkpoint_dir="run")
        assert (args.phase1_epochs, args.phase1_lr, args.phase1_batch, args.phase2_lr, args.phase2_max) == (
            config.phase1_epochs, config.phase1_lr, config.phase1_batch, config.phase2_lr, config.phase2_max_epochs
        )

    def test_rerun_bit_identical(self, built_dataset, tmp_path):
        finals = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            assert run([
                "train", "--dataset", built_dataset, "--out-dir", out_dir,
                "--phase1-epochs", 1, "--phase2-max", 0, "--seed", 3,
            ]) == 0
            finals.append((out_dir / "final.tknm").read_bytes())
        assert finals[0] == finals[1]


@pytest.fixture
def three_chart_dataset(tmp_path):
    """Two training charts and one validation chart of 56 examples each, so
    that a batch of 128 takes a whole phase-1 epoch in one Adam step."""
    charts_dir, audio_dir = tmp_path / "charts3", tmp_path / "audio3"
    charts_dir.mkdir()
    audio_dir.mkdir()
    for name, period in (("s1", 4), ("s2", 5), ("s3", 6)):
        chart = periodic_chart(70, period=period)
        (charts_dir / f"{name}.osu").write_text(write_osu(chart, 130.0, f"{name}.wav"))
        write_wav_pcm16(audio_dir / f"{name}.wav", click_audio_for(chart))
    out = tmp_path / "three.tknd"
    assert run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", out, "--ratio", 0.7]) == 0
    return out


class TestTrainExplosion:
    """Learning rates large enough to overflow float32 stop a run by
    rollback, never by an error: the run keeps its last finished epoch."""

    @pytest.mark.parametrize(
        "flags, exploded",
        [
            (["--phase1-epochs", 0, "--phase1-lr", 1e31, "--phase2-lr", 1e30, "--phase2-max", 2], (2, 1)),
            (["--phase1-epochs", 2, "--phase1-batch", 128, "--phase1-lr", 1e30, "--phase2-lr", 1e-6, "--phase2-max", 1], (1, 1)),
            (["--phase1-epochs", 2, "--phase1-batch", 128, "--phase1-lr", 1e20, "--phase2-lr", 1e-6, "--phase2-max", 1], (1, 1)),
        ],
        ids=["in-training", "in-validation-1e30", "in-validation-1e20"],
    )
    def test_overflow_rolls_back_and_exits_0(self, three_chart_dataset, tmp_path, capsys, flags, exploded):
        out_dir = tmp_path / "run"
        code, caught = run_recording_warnings(["train", "--dataset", three_chart_dataset, "--out-dir", out_dir, *flags])
        out, err = capsys.readouterr()
        assert code == 0, err
        phase, epoch = exploded
        assert f"stopped by weight explosion at phase {phase} epoch {epoch}" in out
        initial = tmp_path / "initial.tknm"
        norm = load_dataset(three_chart_dataset).norm
        save_checkpoint(initial, init_params(DEFAULT_ARCH, seed=cli.DEFAULT_SEED, norm=norm))
        assert (out_dir / "final.tknm").read_bytes() == initial.read_bytes()
        assert sorted(p.name for p in out_dir.iterdir()) == ["final.tknm", "train.log"]
        assert caught == []
        assert "Warning" not in err


class TestGenerate:
    def test_output_parses_and_round_trips(self, trained_checkpoint, tmp_path, capsys):
        wav = tmp_path / "quiet.wav"
        write_wav_pcm16(wav, np.zeros(44100 * 5))
        out = tmp_path / "generated.osu"
        code = run(["generate", "--checkpoint", trained_checkpoint, "--audio", wav, "--out", out, "--seed", 5, "--bpm", 160])
        assert code == 0
        text = out.read_text()
        notes, meta = parse_osu(text, song_length_ms=5000)
        assert meta.audio_filename == "quiet.wav"
        reparsed, _ = parse_osu(write_osu(notes, 160, "quiet.wav"), song_length_ms=len(notes) * FRAME_MS)
        assert reparsed == notes

    def test_no_adjacent_hits(self, trained_checkpoint, tmp_path):
        wav = tmp_path / "n.wav"
        rng = np.random.default_rng(0)
        write_wav_pcm16(wav, 0.3 * rng.normal(size=44100 * 4).clip(-1, 1))
        out = tmp_path / "g.osu"
        assert run(["generate", "--checkpoint", trained_checkpoint, "--audio", wav, "--out", out, "--seed", 1]) == 0
        notes, _ = parse_osu(out.read_text(), song_length_ms=4000)
        hits = {int(c) for c in HIT_CLASSES}
        frames = notes.frames
        assert not any(
            int(frames[t]) in hits and int(frames[t + 1]) in hits for t in range(len(frames) - 1)
        )

    def test_same_seed_identical_bytes(self, trained_checkpoint, tmp_path):
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100 * 3))
        outs = []
        for name in ("a.osu", "b.osu"):
            out = tmp_path / name
            assert run(["generate", "--checkpoint", trained_checkpoint, "--audio", wav, "--out", out, "--seed", 5]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_bpm_exits_2(self, trained_checkpoint, tmp_path, capsys):
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        out = tmp_path / "o.osu"
        for bpm in (-3, "nan", "inf", "1e-310"):
            assert run(["generate", "--checkpoint", trained_checkpoint, "--audio", wav, "--out", out, "--bpm", bpm]) == 2
            assert_one_line_error(capsys, "--bpm")
            assert not out.exists()

    def test_8_bit_wav_error_names_the_file(self, tmp_path, capsys):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint(checkpoint, init_params(DEFAULT_ARCH, seed=0))
        wav = tmp_path / "eight.wav"
        with wave.open(str(wav), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(44100)
            w.writeframes(b"\x80" * 44100)
        assert run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"]) == 2
        assert assert_one_line_error(capsys, "8-bit integer WAV is not supported").count("eight.wav") == 1

    def test_extreme_output_bias_generates_without_warnings(self, tmp_path, capsys):
        # finite weights whose logits differ by more than the float32 range
        params = init_params(DEFAULT_ARCH, seed=0)
        params["out_b"][:] = 3e38 * (-1.0) ** np.arange(params["out_b"].size)
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint(checkpoint, params)
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, 0.3 * np.random.default_rng(0).normal(size=44100).clip(-1, 1))
        code, caught = run_recording_warnings(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"])
        assert code == 0
        assert caught == []
        assert "Warning" not in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint(checkpoint, init_params(DEFAULT_ARCH, seed=0))
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        out = tmp_path / "o.osu"
        assert run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", out, "--seed", -1]) == 2
        assert_one_line_error(capsys, "--seed")
        assert not out.exists()

    def test_version_1_checkpoint_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint_v1(checkpoint, init_params(DEFAULT_ARCH, seed=0))
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        out = tmp_path / "o.osu"
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", out])
        assert code == 2
        assert_one_line_error(capsys, "checkpoint version 1, expected 2")
        assert not out.exists()

    def test_checkpoint_with_other_class_count_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint_with_constants(checkpoint, DEFAULT_ARCH, classes=5, seg_features=6)
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"])
        assert code == 2
        assert_one_line_error(capsys, "architecture")

    @pytest.mark.parametrize("name", ["frames", "conv1_filters", "horizon"])
    def test_checkpoint_with_zero_architecture_constant_exits_2(self, tmp_path, capsys, name):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint_with_constants(checkpoint, DEFAULT_ARCH, **{name: 0})
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"])
        assert code == 2
        assert_one_line_error(capsys, "architecture")

    @pytest.mark.parametrize("mean,std", [(0.0, 0.0), (0.0, -1.0), (0.0, float("nan")), (float("nan"), 1.0)])
    def test_checkpoint_with_bad_normalization_stats_exits_2(self, tmp_path, capsys, mean, std):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint_with_norm(checkpoint, DEFAULT_ARCH, mean, std)
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"])
        assert code == 2
        assert_one_line_error(capsys, "normalization")

    def test_checkpoint_with_non_finite_parameter_exits_2(self, tmp_path, capsys):
        params = init_params(DEFAULT_ARCH, seed=0)
        params["lstm1_wh"][0, 0] = np.nan
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint(checkpoint, params)
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"])
        assert code == 2
        assert_one_line_error(capsys, "m.tknm: non-finite values in parameter group lstm1_wh")

    def test_checkpoint_with_other_band_count_exits_2(self, tmp_path, capsys):
        # a valid checkpoint for 4-band features; the front end makes 80 bands
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint(checkpoint, init_params(MINI, seed=0))
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        out = tmp_path / "o.osu"
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", out])
        assert code == 2
        assert_one_line_error(capsys, "bands")
        assert not out.exists()

    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_wav_without_a_whole_sample_exits_2(self, tmp_path, capsys, rate):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint(checkpoint, init_params(DEFAULT_ARCH, seed=0))
        wav = tmp_path / "empty.wav"
        write_wav_pcm16(wav, [], rate=rate)
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestEvaluate:
    def make_dirs(self, tmp_path, same=True):
        model_dir = tmp_path / "model"
        human_dir = tmp_path / "human"
        model_dir.mkdir()
        human_dir.mkdir()
        for i, period in enumerate((4, 6)):
            chart = periodic_chart(120, period=period)
            text = write_osu(chart, 140.0, f"s{i}.wav")
            (model_dir / f"s{i}.osu").write_text(text)
            (human_dir / f"s{i}.osu").write_text(text)
        return model_dir, human_dir

    def test_self_comparison_is_perfect(self, tmp_path, capsys):
        model_dir, human_dir = self.make_dirs(tmp_path)
        csv_path = tmp_path / "out.csv"
        code = run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir, "--csv", csv_path, "--seed", 9])
        assert code == 0
        rows = csv_path.read_text().strip().splitlines()[1:]
        assert len(rows) == 2 * 5
        values = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}
        assert values[("s0", "dc_human")] == 100.0
        assert values[("s0", "hi_p_space")] == 100.0
        assert values[("s1", "oc_human")] == 100.0

    def test_sm_human_charts_accepted(self, tmp_path):
        model_dir, human_dir = self.make_dirs(tmp_path)
        (human_dir / "s0.osu").unlink()
        (human_dir / "s0.sm").write_text(
            "#OFFSET:0.000;\n#BPMS:0.000=120.000;\n"
            "#NOTES:\n dance-single:\n x:\n Challenge:\n 9:\n 0:\n"
            + "1000\n0000\n0100\n0000\n" * 3
            + ";\n"
        )
        code = run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir, "--seed", 1])
        assert code == 0

    def test_whole_song_scored_not_common_prefix(self, tmp_path):
        # a human chart against a copy emptied after frame 100: each of the
        # ~225 human notes in the empty tail is a missed frame (the common
        # prefix alone scores 100%)
        model_dir, human_dir = self.make_dirs(tmp_path)
        human = periodic_chart(1000, period=4)
        cut = human.frames.copy()
        cut[100:] = 0
        (human_dir / "s0.osu").write_text(write_osu(human, 140.0, "s0.wav"))
        (model_dir / "s0.osu").write_text(write_osu(NoteFrameSequence(cut), 140.0, "s0.wav"))
        csv_path = tmp_path / "out.csv"
        assert run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir, "--csv", csv_path]) == 0
        rows = [r.split(",") for r in csv_path.read_text().strip().splitlines()[1:]]
        values = {(r[0], r[1]): float(r[2]) for r in rows}
        assert values[("s0", "dc_human")] < 80.0
        assert values[("s0", "oc_human")] < 80.0

    def test_empty_model_chart_is_scored(self, tmp_path):
        model_dir, human_dir = self.make_dirs(tmp_path)
        (model_dir / "s0.osu").write_text(write_osu(NoteFrameSequence(np.zeros(50, np.uint8)), 140.0, "s0.wav"))
        csv_path = tmp_path / "out.csv"
        assert run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir, "--csv", csv_path]) == 0
        values = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in csv_path.read_text().strip().splitlines()[1:]}
        # an empty chart agrees with the human one exactly on its empty frames
        assert values[("s0", "dc_human")] == values[("s0", "oc_human")] < 100.0

    def test_two_empty_charts_exit_2_naming_the_pair(self, tmp_path, capsys):
        model_dir, human_dir = self.make_dirs(tmp_path)
        empty = write_osu(NoteFrameSequence(np.zeros(50, np.uint8)), 140.0, "s1.wav")
        (model_dir / "s1.osu").write_text(empty)
        (human_dir / "s1.osu").write_text(empty)
        assert run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir]) == 2
        err = capsys.readouterr().err
        assert "s1" in err and "empty" in err and "Traceback" not in err

    def test_pair_too_short_for_a_pattern_exits_2_naming_the_song(self, tmp_path, capsys):
        model_dir, human_dir = self.make_dirs(tmp_path)
        short = write_osu(NoteFrameSequence(np.array([0, 0, 0, 1], np.uint8)), 140.0, "s1.wav")
        (model_dir / "s1.osu").write_text(short)
        (human_dir / "s1.osu").write_text(short)
        assert run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir]) == 2
        assert_one_line_error(capsys, "error: s1: need at least 8 frames, got 4")

    @pytest.mark.parametrize("draws", [0, -2])
    def test_draws_below_one_exits_2(self, tmp_path, capsys, draws):
        model_dir, human_dir = self.make_dirs(tmp_path)
        csv_path = tmp_path / "out.csv"
        code = run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir, "--csv", csv_path, "--draws", draws])
        assert code == 2
        assert_one_line_error(capsys, "--draws")
        assert not csv_path.exists()

    def test_unpaired_songs_listed(self, tmp_path, capsys):
        model_dir, human_dir = self.make_dirs(tmp_path)
        (human_dir / "s1.osu").unlink()
        code = run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir])
        assert code == 2
        assert "s1" in capsys.readouterr().err

    def test_rerun_identical_csv(self, tmp_path):
        model_dir, human_dir = self.make_dirs(tmp_path)
        outs = []
        for name in ("a.csv", "b.csv"):
            csv_path = tmp_path / name
            assert run(["evaluate", "--model-dir", model_dir, "--human-dir", human_dir, "--csv", csv_path, "--seed", 9]) == 0
            outs.append(csv_path.read_bytes())
        assert outs[0] == outs[1]


class TestStats:
    def test_prints_distribution_beside_reference(self, tiny_corpus, capsys):
        charts_dir, _ = tiny_corpus
        assert run(["stats", "--charts", charts_dir]) == 0
        out = capsys.readouterr().out
        assert "human reference" in out
        assert "82.180%" in out

    def test_nan_time_exits_2(self, tiny_corpus, capsys):
        charts_dir, _ = tiny_corpus
        path = charts_dir / "song_a.osu"
        path.write_text(path.read_text() + "256,192,nan,1,0,0:0:0:0:\n")
        assert run(["stats", "--charts", charts_dir]) == 2
        err = capsys.readouterr().err
        assert "song_a.osu" in err and "Traceback" not in err

    def test_time_past_longest_song_exits_2(self, tiny_corpus, capsys):
        charts_dir, _ = tiny_corpus
        path = charts_dir / "song_a.osu"
        path.write_text(path.read_text() + "256,192,1e12,1,0,0:0:0:0:\n")
        assert run(["stats", "--charts", charts_dir]) == 2
        err = capsys.readouterr().err
        assert "song_a.osu" in err and "Traceback" not in err

    def test_chart_without_objects_exits_2_naming_the_file(self, tiny_corpus, capsys):
        charts_dir, _ = tiny_corpus
        path = charts_dir / "song_a.osu"
        path.write_text(write_osu(NoteFrameSequence(np.zeros(50, np.uint8)), 140.0, "song_a.wav"))
        assert run(["stats", "--charts", charts_dir]) == 2
        assert_one_line_error(capsys, f"error: {path}: cannot take the distribution of a zero-frame chart")

    def test_latin1_chart_exits_2(self, tiny_corpus, capsys):
        charts_dir, _ = tiny_corpus
        path = charts_dir / "song_a.osu"
        path.write_bytes(path.read_text().replace("song_a.wav", "chanson_été.wav").encode("latin-1"))
        assert run(["stats", "--charts", charts_dir]) == 2
        err = capsys.readouterr().err
        assert "song_a.osu" in err and "UTF-8" in err and "Traceback" not in err


@pytest.fixture
def files(tiny_corpus, tmp_path):
    """The tiny corpus, a valid checkpoint and WAV, and an empty directory."""
    charts, audio = tiny_corpus
    f = SimpleNamespace(
        tmp=tmp_path, charts=charts, audio=audio, checkpoint=tmp_path / "m.tknm",
        wav=tmp_path / "d.wav", dir=tmp_path / "a_dir", out=tmp_path / "o.osu",
    )
    save_checkpoint(f.checkpoint, init_params(DEFAULT_ARCH, seed=0))
    write_wav_pcm16(f.wav, np.zeros(44100))
    f.dir.mkdir()
    return f


def _chart_is_dir(f):
    (f.charts / "x.osu").mkdir()
    return ["stats", "--charts", f.charts], f.charts / "x.osu"


def _wav_is_dir(f):
    wav = f.audio / "song_b.wav"
    wav.unlink()
    wav.mkdir()
    return ["build-dataset", "--charts", f.charts, "--audio", f.audio, "--out", f.tmp / "x.tknd"], wav


def _out_dir_is_file(f):
    dataset, run_dir = f.tmp / "x.tknd", f.tmp / "run"
    assert run(["build-dataset", "--charts", f.charts, "--audio", f.audio, "--out", dataset]) == 0
    run_dir.write_text("")
    return ["train", "--dataset", dataset, "--out-dir", run_dir], run_dir


WRONG_KIND = {
    "train-dataset-is-dir": lambda f: (["train", "--dataset", f.dir, "--out-dir", f.tmp / "run"], f.dir),
    "generate-checkpoint-is-dir": lambda f: (
        ["generate", "--checkpoint", f.dir, "--audio", f.wav, "--out", f.out], f.dir),
    "generate-audio-is-dir": lambda f: (
        ["generate", "--checkpoint", f.checkpoint, "--audio", f.dir, "--out", f.out], f.dir),
    "generate-out-is-dir": lambda f: (
        ["generate", "--checkpoint", f.checkpoint, "--audio", f.wav, "--out", f.dir], f.dir),
    "stats-chart-is-dir": _chart_is_dir,
    "build-dataset-wav-is-dir": _wav_is_dir,
    "train-out-dir-is-file": _out_dir_is_file,
}

# each command reads its inputs before it writes: a missing input fails
# at its read, names the path or what is missing, and leaves no output
MISSING_INPUT = {
    "build-dataset-charts": lambda f: (
        ["build-dataset", "--charts", f.tmp / "nope", "--audio", f.audio, "--out", f.out], f.out, "nope"),
    "build-dataset-audio": lambda f: (
        ["build-dataset", "--charts", f.charts, "--audio", f.tmp / "nope", "--out", f.out], f.out, "song_a, song_b"),
    "train-dataset": lambda f: (
        ["train", "--dataset", f.tmp / "nope", "--out-dir", f.tmp / "run"], f.tmp / "run", "nope"),
    "generate-checkpoint": lambda f: (
        ["generate", "--checkpoint", f.tmp / "nope", "--audio", f.wav, "--out", f.out], f.out, "nope"),
    "generate-audio": lambda f: (
        ["generate", "--checkpoint", f.checkpoint, "--audio", f.tmp / "nope", "--out", f.out], f.out, "nope"),
    "evaluate-model-dir": lambda f: (
        ["evaluate", "--model-dir", f.tmp / "nope", "--human-dir", f.charts, "--csv", f.out], f.out, "nope"),
    "evaluate-human-dir": lambda f: (
        ["evaluate", "--model-dir", f.charts, "--human-dir", f.tmp / "nope", "--csv", f.out], f.out, "nope"),
}


class TestFileErrors:
    """A file that is missing, of the wrong kind or unwritable is an input
    error: exit 2 and one line that names it, never a traceback."""

    @pytest.mark.parametrize("case", WRONG_KIND.values(), ids=WRONG_KIND.keys())
    def test_wrong_kind_of_path_exits_2_naming_it(self, files, capsys, case):
        argv, path = case(files)
        assert run(argv) == 2
        assert_one_line_error(capsys, str(path))

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    def test_output_that_is_a_directory_exits_2_before_any_work(self, files, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("ran past the output check")

        monkeypatch.setattr(generator, "generate", refuse)
        monkeypatch.setattr(metrics, "evaluate_pair", refuse)
        argv = {
            "generate": ["generate", "--checkpoint", files.checkpoint, "--audio", files.wav, "--out", files.dir],
            "evaluate": ["evaluate", "--model-dir", files.charts, "--human-dir", files.charts, "--csv", files.dir],
        }[command]
        assert run(argv) == 2
        err = assert_one_line_error(capsys, str(files.dir))
        assert ".tmp" not in err

    @pytest.mark.parametrize("case", MISSING_INPUT.values(), ids=MISSING_INPUT.keys())
    def test_missing_input_exits_2_without_output(self, files, capsys, case):
        argv, output, needle = case(files)
        assert run(argv) == 2
        assert_one_line_error(capsys, needle)
        assert not output.exists()


class TestParser:
    def test_internal_error_prints_a_traceback_and_exits_3(self, tiny_corpus, capsys, monkeypatch):
        def broken(rows):
            raise RuntimeError("a bug, not an input error")

        monkeypatch.setattr(metrics, "distribution_table", broken)
        assert run(["stats", "--charts", tiny_corpus[0]]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: a bug, not an input error" in err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--nonsense"])
        assert exc.value.code == 2
