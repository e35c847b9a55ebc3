import numpy as np
import pytest

from taikoforge import cli
from taikoforge.chart import HIT_CLASSES, FRAME_MS, NoteFrameSequence
from taikoforge.chart_io import parse_osu, write_osu
from taikoforge.dataset import load_dataset
from taikoforge.neural import DEFAULT_ARCH, init_params, save_checkpoint

from conftest import periodic_chart, write_wav_pcm16


def run(argv):
    return cli.main([str(a) for a in argv])


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

    def test_nonexistent_dir_exits_2(self, tmp_path, capsys):
        code = run(["build-dataset", "--charts", tmp_path / "nope", "--audio", tmp_path, "--out", tmp_path / "x"])
        assert code == 2

    def test_parse_error_names_the_file(self, tiny_corpus, tmp_path, capsys):
        charts_dir, audio_dir = tiny_corpus
        (charts_dir / "song_a.osu").write_text("not a chart at all")
        code = run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", tmp_path / "x.tknd"])
        assert code == 2
        assert "song_a.osu" in capsys.readouterr().err

    def test_missing_out_directory_exits_2(self, tiny_corpus, tmp_path, capsys):
        charts_dir, audio_dir = tiny_corpus
        code = run(["build-dataset", "--charts", charts_dir, "--audio", audio_dir, "--out", tmp_path / "nodir" / "x.tknd"])
        assert code == 2


class TestTrain:
    def test_writes_checkpoint_and_log(self, trained_checkpoint):
        assert trained_checkpoint.exists()
        log = trained_checkpoint.parent / "train.log"
        assert "phase 1 epoch" in log.read_text()

    def test_invalid_lr_exits_2_without_training(self, built_dataset, tmp_path, capsys):
        out_dir = tmp_path / "bad"
        code = run(["train", "--dataset", built_dataset, "--out-dir", out_dir, "--phase1-lr", 0])
        assert code == 2
        assert not (out_dir / "final.tknm").exists()

    def test_corrupt_manifest_exits_2(self, built_dataset, tmp_path, capsys):
        data = bytearray(built_dataset.read_bytes())
        data[12] = ord("[")  # the manifest's opening brace
        built_dataset.write_bytes(bytes(data))
        code = run(["train", "--dataset", built_dataset, "--out-dir", tmp_path / "run"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad manifest" in err and "Traceback" not in err

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

    def test_bad_bpm_exits_2(self, trained_checkpoint, tmp_path):
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        code = run(["generate", "--checkpoint", trained_checkpoint, "--audio", wav, "--out", tmp_path / "o.osu", "--bpm", -3])
        assert code == 2


    def test_non_utf8_array_name_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "m.tknm"
        save_checkpoint(checkpoint, init_params(DEFAULT_ARCH, seed=0))
        data = bytearray(checkpoint.read_bytes())
        data[data.index(b"conv1_w")] = 0xFF
        checkpoint.write_bytes(bytes(data))
        wav = tmp_path / "d.wav"
        write_wav_pcm16(wav, np.zeros(44100))
        code = run(["generate", "--checkpoint", checkpoint, "--audio", wav, "--out", tmp_path / "o.osu"])
        assert code == 2
        err = capsys.readouterr().err
        assert "UTF-8" in err and "Traceback" not in err


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

    def test_latin1_chart_exits_2(self, tiny_corpus, capsys):
        charts_dir, _ = tiny_corpus
        path = charts_dir / "song_a.osu"
        path.write_bytes(path.read_text().replace("song_a.wav", "chanson_été.wav").encode("latin-1"))
        assert run(["stats", "--charts", charts_dir]) == 2
        err = capsys.readouterr().err
        assert "song_a.osu" in err and "UTF-8" in err and "Traceback" not in err


class TestParser:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--nonsense"])
        assert exc.value.code == 2

    def test_thread_env_var(self, monkeypatch):
        monkeypatch.setenv("TAIKO_FORGE_THREADS", "1")
        assert cli.worker_count() == 1
        monkeypatch.setenv("TAIKO_FORGE_THREADS", "banana")
        with pytest.raises(cli.InputError):
            cli.worker_count()
