import builtins
import errno
from pathlib import Path

import numpy as np
import pytest

from taikoforge import atomic, cli
from taikoforge.atomic import atomic_write
from taikoforge.chart_io import write_osu
from taikoforge.dataset import save_dataset
from taikoforge.neural import DEFAULT_ARCH, init_params, save_checkpoint
from taikoforge.trainer import train

from conftest import periodic_chart, write_wav_pcm16
from test_trainer import quick_config, tiny_dataset

OLD = b"the previous artifact\n"


class DiskFullFile:
    """A real file whose first write stores half of its data, then fails."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_writes_to(monkeypatch, target: Path) -> list:
    """Make every temporary file that atomic_write opens for target fail
    mid-write. Returns the list of the files made to fail."""
    failed = []

    def fake_open(file, *args, **kwargs):
        f = builtins.open(file, *args, **kwargs)
        if not Path(file).name.startswith(f".{target.name}."):
            return f
        failed.append(file)
        return DiskFullFile(f)

    monkeypatch.setattr(atomic, "open", fake_open, raising=False)
    return failed


def test_failed_block_keeps_old_file_and_removes_temporary(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(OLD)
    with pytest.raises(RuntimeError):
        with atomic_write(target) as f:
            f.write(b"half of a new")
            raise RuntimeError("killed mid-write")
    assert target.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_clean_block_replaces_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_bytes(OLD)
    with atomic_write(target, "w", encoding="utf-8") as f:
        f.write("new")
    assert target.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def write_checkpoint(tmp_path, target):
    save_checkpoint(target, init_params(DEFAULT_ARCH, seed=0))


def write_dataset(tmp_path, target):
    save_dataset(target, tiny_dataset())


def write_generated_chart(tmp_path, target):
    checkpoint = tmp_path / "m.tknm"
    save_checkpoint(checkpoint, init_params(DEFAULT_ARCH, seed=0))
    wav = tmp_path / "song.wav"
    write_wav_pcm16(wav, np.zeros(44100))
    cli.main(["generate", "--checkpoint", str(checkpoint), "--audio", str(wav), "--out", str(target)])


def write_evaluation_csv(tmp_path, target):
    for name in ("model", "human"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "s.osu").write_text(write_osu(periodic_chart(60), 140.0, "s.wav"))
    cli.main([
        "evaluate", "--model-dir", str(tmp_path / "model"), "--human-dir", str(tmp_path / "human"),
        "--csv", str(target),
    ])


def write_final_checkpoint(tmp_path, target):
    train(tiny_dataset(), quick_config(tmp_path, checkpoint_dir=target.parent))


@pytest.mark.parametrize("writer, name", [
    (write_checkpoint, "m0.tknm"),
    (write_dataset, "d.tknd"),
    (write_generated_chart, "g.osu"),
    (write_evaluation_csv, "scores.csv"),
    (write_final_checkpoint, "ckpt/final.tknm"),
])
def test_writer_failing_mid_write_leaves_old_file(tmp_path, monkeypatch, writer, name):
    target = tmp_path / name
    target.parent.mkdir(exist_ok=True)
    target.write_bytes(OLD)
    failed = fail_writes_to(monkeypatch, target)
    try:
        writer(tmp_path, target)
    except OSError as exc:
        assert exc.errno == errno.ENOSPC
    assert len(failed) == 1
    assert target.read_bytes() == OLD
    assert not list(target.parent.glob(f".{target.name}.*"))
