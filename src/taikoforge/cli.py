"""Command-line entry point.

Subcommands: build-dataset, train, generate, evaluate, stats. Exit codes:
0 success, 2 usage, input or file error, 3 internal error. All randomness runs
through explicit --seed flags so reruns are bit-identical.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

import numpy as np

from . import audio, chart_io, dataset, generator, metrics, trainer
from .atomic import atomic_write
from .chart import NUM_CLASSES, BinaryChart, NoteClass, NoteFrameSequence, binarize
from .errors import TaikoForgeError
from .neural import load_checkpoint

DEFAULT_SEED = 1337


class InputError(TaikoForgeError):
    """Bad user input discovered after argument parsing."""


def _osu_files(directory: Path) -> list[Path]:
    files = sorted(directory.glob("*.osu"))
    if not files:
        raise InputError(f"no .osu files in {directory}")
    return files


def _parse_chart(path: Path, parse, **kwargs):
    """Parse a chart file, which must be UTF-8 text; its errors name the file."""
    try:
        return parse(path.read_text(encoding="utf-8"), **kwargs)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except TaikoForgeError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_build_dataset(args) -> int:
    if not 0.0 < args.ratio <= 1.0:
        raise InputError(f"--ratio must be in (0, 1], got {args.ratio}")
    charts_dir = Path(args.charts)
    audio_dir = Path(args.audio)
    chart_files = _osu_files(charts_dir)

    missing = [p.stem for p in chart_files if not (audio_dir / f"{p.stem}.wav").exists()]
    if missing:
        raise InputError("missing audio for chart(s): " + ", ".join(missing))

    def prepare(chart_path: Path):
        wav_path = audio_dir / f"{chart_path.stem}.wav"
        samples, rate = audio.decode_audio(wav_path)
        length_ms = len(samples) * 1000 // rate
        notes, _ = _parse_chart(chart_path, chart_io.parse_osu, song_length_ms=length_ms)
        feats = audio.log_mel_frames(samples, rate)
        return feats, notes

    charts = {p.stem: prepare(p) for p in chart_files}
    ds = dataset.assemble(charts, ratio=args.ratio, seed=args.seed)
    dataset.save_dataset(args.out, ds)

    class_counts = np.zeros(NUM_CLASSES, dtype=np.int64)
    for _, notes in charts.values():
        class_counts += np.bincount(notes.frames, minlength=NUM_CLASSES)
    n_train, n_val = ds.manifest.counts()

    for entry in ds.manifest.charts:
        print(f"{entry.chart_id}: {entry.example_count} examples ({entry.split})")
    total = class_counts.sum()
    print("class histogram: " + "  ".join(
        f"{cls.name}={count} ({count / total * 100:.2f}%)"
        for cls, count in zip(NoteClass, class_counts)
    ))
    print(f"split: {n_train} train / {n_val} validation examples")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    out_dir = Path(args.out_dir)
    try:
        config = trainer.TrainConfig(
            checkpoint_dir=out_dir,
            phase1_epochs=args.phase1_epochs,
            phase1_lr=args.phase1_lr,
            phase1_batch=args.phase1_batch,
            phase2_lr=args.phase2_lr,
            phase2_max_epochs=args.phase2_max,
            seed=args.seed,
        )
    except ValueError as exc:
        raise InputError(str(exc))

    ds = dataset.load_dataset(args.dataset)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train.log"
    with log_path.open("w", encoding="utf-8") as log_file:

        def log(line: str):
            print(line)
            log_file.write(line + "\n")

        result = trainer.train(ds, config, log=log)
    if result.exploded_at:
        phase, epoch = result.exploded_at
        print(f"stopped by weight explosion at phase {phase} epoch {epoch}; kept the previous checkpoint")
    print(f"final checkpoint: {result.final_path}")
    return 0


def cmd_generate(args) -> int:
    if not chart_io.valid_bpm(args.bpm):
        raise InputError(f"--bpm must be finite and positive with a finite beat length, got {args.bpm}")
    params, _ = load_checkpoint(args.checkpoint)
    notes = generator.generate(params, args.audio, seed=args.seed, greedy=args.greedy)
    notes = generator.postprocess(notes)
    text = chart_io.write_osu(notes, args.bpm, Path(args.audio).name)
    with atomic_write(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    dist = metrics.note_distribution(notes)
    print(metrics.distribution_table({Path(args.out).stem: dist}))
    print(f"wrote {args.out} ({len(notes)} frames)")
    return 0


def _binarize_file(path: Path):
    if path.suffix == ".sm":
        return _parse_chart(path, chart_io.parse_sm), None
    notes, _ = _parse_chart(path, chart_io.parse_osu)
    return binarize(notes), notes


def _pad(frames: np.ndarray, n: int) -> np.ndarray:
    """Extend a per-frame array to n frames with zeros (no note, no input)."""
    return np.pad(frames, (0, n - len(frames)))


def cmd_evaluate(args) -> int:
    if args.draws < 1:
        raise InputError(f"--draws must be at least 1, got {args.draws}")
    model_dir = Path(args.model_dir)
    human_dir = Path(args.human_dir)
    model_files = {p.stem: p for p in sorted(model_dir.glob("*.osu"))}
    human_files = {
        p.stem: p for p in sorted(list(human_dir.glob("*.osu")) + list(human_dir.glob("*.sm")))
    }
    unpaired = sorted(set(model_files) ^ set(human_files))
    if not model_files or not human_files:
        raise InputError(f"no charts found to evaluate in {model_dir} and {human_dir}")
    if unpaired:
        raise InputError("unpaired songs: " + ", ".join(unpaired))

    def eval_song(song: str):
        model_bits, model_notes = _binarize_file(model_files[song])
        human_bits, human_notes = _binarize_file(human_files[song])
        # both charts belong to one song, and each ends at its last object:
        # pad the shorter with empty frames so the whole song is scored
        n = max(len(model_bits), len(human_bits))
        if n == 0:
            raise InputError(f"{song}: both charts are empty")
        model_bits, human_bits = (BinaryChart(_pad(b.bits, n)) for b in (model_bits, human_bits))
        model_notes, human_notes = (
            None if c is None else NoteFrameSequence(_pad(c.frames, n)) for c in (model_notes, human_notes)
        )
        ev = metrics.evaluate_pair(song, model_bits, human_bits, seed=args.seed, draws=args.draws)
        return ev, model_notes, human_notes

    results = [eval_song(song) for song in sorted(model_files)]
    report = metrics.MetricsReport([ev for ev, _, _ in results])
    print(report.to_text())

    dist_rows = {"model": np.mean([metrics.note_distribution(m) for _, m, _ in results], axis=0)}
    human_dists = [metrics.note_distribution(h) for _, _, h in results if h is not None]
    if human_dists:
        dist_rows["human"] = np.mean(human_dists, axis=0)
    print()
    print(metrics.distribution_table(dist_rows))

    if args.csv:
        with atomic_write(args.csv, "w", encoding="utf-8") as f:
            f.write(report.to_csv())
        print(f"wrote {args.csv}")
    return 0


def cmd_stats(args) -> int:
    files = _osu_files(Path(args.charts))

    def load(path: Path):
        notes, _ = _parse_chart(path, chart_io.parse_osu)
        return path.stem, metrics.note_distribution(notes)

    rows = dict(load(path) for path in files)
    if len(rows) > 1:
        rows["all charts"] = np.mean(list(rows.values()), axis=0)
    print(metrics.distribution_table(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taikoforge",
        description="Train, run, and evaluate a Taiko chart generation model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", help="assemble training examples from .osu + .wav pairs")
    p.add_argument("--charts", required=True, help="directory of .osu charts")
    p.add_argument("--audio", required=True, help="directory of matching .wav files (same stem)")
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--ratio", type=float, default=0.9, help="train fraction of the chart split")
    p.set_defaults(fn=cmd_build_dataset)

    p = sub.add_parser("train", help="run the two-phase training schedule")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True, help="checkpoint + log directory")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--phase1-epochs", type=int, default=10)
    p.add_argument("--phase1-lr", type=float, default=1e-5)
    p.add_argument("--phase1-batch", type=int, default=16)
    p.add_argument("--phase2-lr", type=float, default=5e-6)
    p.add_argument("--phase2-max", type=int, default=8)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="generate a .osu chart for a song")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--audio", required=True, help="input WAV file")
    p.add_argument("--out", required=True, help="output .osu path")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--bpm", type=float, default=120.0, help="BPM written to the chart's timing point")
    p.add_argument("--greedy", action="store_true", help="argmax instead of sampling (debugging)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("evaluate", help="compare generated charts against human charts")
    p.add_argument("--model-dir", required=True, help=".osu charts to evaluate")
    p.add_argument("--human-dir", required=True, help="reference .osu/.sm charts, paired by filename stem")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--draws", type=int, default=1, help="random charts averaged for dc_rand")
    p.add_argument("--csv", help="also write per-song metric rows to this CSV file")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("stats", help="note-type distribution of a chart directory")
    p.add_argument("--charts", required=True)
    p.set_defaults(fn=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        # fail on a missing output directory before any long-running work
        for attr in ("out", "csv"):
            value = getattr(args, attr, None)
            if value is not None and not Path(value).resolve().parent.is_dir():
                raise InputError(f"directory for --{attr} does not exist: {value}")
        # numpy's generators take no negative seed; evaluate only hashes its seed
        if args.command in ("build-dataset", "train", "generate") and args.seed < 0:
            raise InputError(f"--seed must be non-negative, got {args.seed}")
        return args.fn(args)
    except (TaikoForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
