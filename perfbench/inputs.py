"""Seeded benchmark inputs, written with the benchmark's own code.

Songs are click audio keyed by note class over a little noise, so note
identity is audible. Human charts sit on a 16th-note grid at a BPM whose
16th step is a whole number of milliseconds, which keeps every timestamp
exact in both `.osu` and `.sm`. Model charts are frame-based random charts
with per-note jitter inside the frame, as a generator would write them.

Only two inputs come from the program, because their file formats belong
to it: the `train` dataset (built through `build-dataset`) and the
`generate` checkpoint (`init_params` + `save_checkpoint`).
"""

from __future__ import annotations

import contextlib
import json
import sys
import wave
from pathlib import Path

import numpy as np

FRAME_MS = 23
SAMPLE_RATE = 44100
NO_NOTE, SMALL_DON, BIG_DON, SMALL_KAT, BIG_KAT, DRUMROLL, DENDEN = range(7)
HITS = (SMALL_DON, BIG_DON, SMALL_KAT, BIG_KAT)
SPANS = (DRUMROLL, DENDEN)

#: Burst frequency per note class, as in the test suite's click audio.
CLICK_HZ = {1: 600.0, 2: 1200.0, 3: 2400.0, 4: 4800.0, 5: 900.0, 6: 3400.0}
#: BPMs whose 16th-note step is a whole number of milliseconds.
GRID_BPMS = (100, 120, 125, 150, 200)

# Song lengths in seconds per workload and stage, and the evaluation passes
# per corpus round, chosen so that evaluation takes about as long as the
# build. Fixed, so every seed does the same amount of work; the seed decides
# the notes, the audio and the BPMs.
SIZES = {
    "short": {
        "corpus": (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 8.0),
        "eval_passes": 8,
        "train": (2.3, 2.5),
        "generate": (2.5, 3.5, 4.5, 5.5),
    },
    "long": {
        "corpus": (40.0, 55.0),
        "eval_passes": 20,
        "train": (2.8, 3.0),
        "generate": (20.0, 25.0),
    },
    "tiny": {
        "corpus": (2.0, 2.5, 3.0),
        "eval_passes": 1,
        "train": (0.7, 0.8),
        "generate": (1.0, 1.4),
    },
}
#: Every third corpus song, from the second on, has a `.sm` evaluation
#: reference instead of its `.osu` chart.
SM_EVERY, SM_FIRST = 3, 1
#: Human charts leave this much of the song empty at each end.
EDGE_MS = 400
#: Bias of the no-note logit in the `generate` checkpoint, so that sampled
#: charts have a human-like note density (about one frame in five).
NO_NOTE_BIAS = 3.2


def frames_for(seconds: float) -> int:
    return int(round(seconds * 1000 / FRAME_MS))


def samples_for(n_frames: int) -> int:
    return n_frames * FRAME_MS * SAMPLE_RATE // 1000 + SAMPLE_RATE // 10


# ----------------------------------------------------------------- charts

def human_chart(rng: np.random.Generator, n_frames: int) -> dict:
    """A beat-grid chart: a list of objects plus its per-frame classes.

    Objects are (kind, class, start_ms, end_ms, hitsound, start_row,
    end_row); spans run from one 16th row to a later one and are followed
    by an empty row, so no two spans of a class touch.
    """
    bpm = int(rng.choice(GRID_BPMS))
    step = 60000 // bpm // 4
    last_ms = n_frames * FRAME_MS - EDGE_MS
    probs = np.array([0.46, 0.09, 0.30, 0.08, 0.04, 0.03])
    frames = np.zeros(n_frames, dtype=np.uint8)
    objects = []
    row = -(-EDGE_MS // step)
    while row * step <= last_ms:
        # a ranked chart is never empty: if no earlier row got a note,
        # the last row does
        if rng.random() < 0.45 or (not objects and (row + 1) * step > last_ms):
            cls = int(rng.choice(6, p=probs)) + 1
            t = row * step
            if cls in SPANS:
                rows = int(rng.integers(2, 7))
                end = (row + rows) * step
                if end > last_ms:
                    cls = SMALL_DON
            if cls in SPANS:
                frames[t // FRAME_MS : end // FRAME_MS + 1] = cls
                objects.append(("slider" if cls == DRUMROLL else "spinner", cls, t, end, 0, row, row + rows))
                row += rows + 2
                continue
            kat = cls in (SMALL_KAT, BIG_KAT)
            hitsound = int(rng.choice((2, 8, 10))) if kat else int(rng.choice((0, 1)))
            if cls in (BIG_DON, BIG_KAT):
                hitsound |= 4
            frames[t // FRAME_MS] = cls
            objects.append(("circle", cls, t, None, hitsound, row, row))
        row += 1
    return {"bpm": bpm, "frames": frames, "objects": objects}


def model_chart(rng: np.random.Generator, n_frames: int) -> dict:
    """A frame-based chart as a generator writes one: notes on about one
    frame in five, no two adjacent hits, integer times jittered in-frame."""
    probs = np.array([0.40, 0.10, 0.32, 0.10, 0.05, 0.03])
    frames = np.zeros(n_frames, dtype=np.uint8)
    objects = []
    f = 16
    while f < n_frames - 12:
        # as above, the last candidate frame of an empty chart gets a note
        if rng.random() < 0.22 or (not objects and f == n_frames - 13):
            cls = int(rng.choice(6, p=probs)) + 1
            start = f * FRAME_MS + int(rng.integers(0, FRAME_MS))
            if cls in SPANS:
                last = f + int(rng.integers(2, 9))
                # end mid-frame, so slider-length arithmetic never lands on
                # a frame boundary
                end = last * FRAME_MS + FRAME_MS // 2
                frames[f : last + 1] = cls
                objects.append(("slider" if cls == DRUMROLL else "spinner", cls, start, end, 0, f, last))
                f = last + 2
                continue
            hitsound = (8 if cls in (SMALL_KAT, BIG_KAT) else 0) | (4 if cls in (BIG_DON, BIG_KAT) else 0)
            frames[f] = cls
            objects.append(("circle", cls, start, None, hitsound, f, f))
            f += 2
            continue
        f += 1
    return {"bpm": 150, "frames": frames, "objects": objects}


def osu_text(chart: dict, audio_name: str) -> str:
    """`.osu` v14 text. Sliders carry a curve and a pixel length, as ranked
    charts do; at SliderMultiplier 1.4 a length of 140 px is one beat."""
    beat = 60000 / chart["bpm"]
    lines = [
        "osu file format v14",
        "",
        "[General]",
        f"AudioFilename: {audio_name}",
        "Mode: 1",
        "",
        "[Difficulty]",
        "SliderMultiplier:1.4",
        "",
        "[TimingPoints]",
        f"0,{beat!r},4,1,0,100,1,0",
        "",
        "[HitObjects]",
    ]
    for kind, _, start, end, hitsound, _, _ in chart["objects"]:
        if kind == "circle":
            lines.append(f"256,192,{start},1,{hitsound},0:0:0:0:")
        elif kind == "slider":
            length = (end - start) * 140 / beat
            lines.append(f"256,192,{start},2,{hitsound},L|320:192,1,{length!r}")
        else:
            lines.append(f"256,192,{start},12,{hitsound},{end},0:0:0:0:")
    lines.append("")
    return "\n".join(lines)


def sm_text(chart: dict, n_frames: int) -> str:
    """Single-BPM `.sm` text of a grid chart: 16 rows per measure; taps for
    hits, a hold (2..3) for a drumroll and a roll (4..3) for a denden."""
    step = 60000 // chart["bpm"] // 4
    n_rows = -(-n_frames * FRAME_MS // step)
    n_rows = -(-n_rows // 16) * 16
    rows = ["0000"] * n_rows
    for kind, cls, _, _, _, a, b in chart["objects"]:
        if kind == "circle":
            rows[a] = "1000" if cls in (SMALL_DON, BIG_DON) else "0100"
        else:
            rows[a] = "0020" if kind == "slider" else "0040"
            rows[b] = "0030"
    measures = ["\n".join(rows[i : i + 16]) for i in range(0, n_rows, 16)]
    return (
        "#TITLE:bench;\n#OFFSET:0.000;\n"
        f"#BPMS:0.000={chart['bpm']:.3f};\n"
        "#NOTES:\n     dance-single:\n     :\n     Challenge:\n     9:\n     0,0,0,0,0:\n"
        + "\n,\n".join(measures)
        + "\n;\n"
    )


# ------------------------------------------------------------------ audio

def click_audio(rng: np.random.Generator, frames: np.ndarray) -> np.ndarray:
    """16-bit samples: a class-keyed burst at the start of every note frame
    over low white noise."""
    n = samples_for(len(frames))
    audio = rng.normal(0.0, 1e-3, size=n)
    burst_len = 600
    t = np.arange(burst_len) / SAMPLE_RATE
    envelope = np.hanning(burst_len)
    bursts = {c: 0.8 * np.sin(2 * np.pi * hz * t) * envelope for c, hz in CLICK_HZ.items()}
    for f in np.flatnonzero(frames):
        start = int(f) * FRAME_MS * SAMPLE_RATE // 1000
        audio[start : start + burst_len] += bursts[int(frames[f])]
    return np.clip(np.round(audio * 32767.0), -32768, 32767).astype("<i2")


def write_wav(path: Path, pcm: np.ndarray) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(SAMPLE_RATE)
        w.writeframes(pcm.tobytes())


def read_wav(path: Path) -> np.ndarray:
    """Mono 16-bit WAV as float samples in [-1, 1), read with the stdlib."""
    with wave.open(str(path), "rb") as w:
        return np.frombuffer(w.readframes(w.getnframes()), dtype="<i2") / 32768.0


# ---------------------------------------------------------------- writing

def _song_set(rng, root: Path, name: str, lengths) -> list[tuple[dict, dict]]:
    """Write songs and their human `.osu` charts; return each song's
    description (stem, frame and sample counts, note classes) with its chart."""
    charts_dir = root / name / "charts"
    audio_dir = root / name / "audio"
    charts_dir.mkdir(parents=True)
    audio_dir.mkdir(parents=True)
    out = []
    for i, seconds in enumerate(lengths):
        stem = f"{name}{i:02d}"
        chart = human_chart(rng, frames_for(seconds))
        pcm = click_audio(rng, chart["frames"])
        write_wav(audio_dir / f"{stem}.wav", pcm)
        (charts_dir / f"{stem}.osu").write_text(osu_text(chart, f"{stem}.wav"), encoding="utf-8")
        song = {"stem": stem, "n_frames": len(chart["frames"]), "samples": len(pcm), "notes": chart["frames"].tolist()}
        out.append((song, chart))
    return out


def make_inputs(root: Path, workload: str, seed: int) -> dict:
    """Write the inputs of every stage under ``root``; return their description.

    Uses the program only for the train dataset and the generate checkpoint.
    """
    from taikoforge import cli, dataset, neural

    sizes = SIZES[workload]
    rng = np.random.default_rng([seed, 2107_12506])
    root.mkdir(parents=True, exist_ok=True)

    corpus = []
    songs = _song_set(rng, root, "corpus", sizes["corpus"])
    human_dir = root / "corpus" / "human"
    model_dir = root / "corpus" / "model"
    human_dir.mkdir()
    model_dir.mkdir()
    for i, (song, chart) in enumerate(songs):
        stem = song["stem"]
        if i % SM_EVERY == SM_FIRST:
            song["sm"] = True
            (human_dir / f"{stem}.sm").write_text(sm_text(chart, song["n_frames"]), encoding="utf-8")
        else:
            (human_dir / f"{stem}.osu").write_text(osu_text(chart, f"{stem}.wav"), encoding="utf-8")
        model = model_chart(rng, song["n_frames"])
        song["model_notes"] = model["frames"].tolist()
        (model_dir / f"{stem}.osu").write_text(osu_text(model, f"{stem}.wav"), encoding="utf-8")
        corpus.append(song)

    train = [song for song, _ in _song_set(rng, root, "train", sizes["train"])]
    train_path = root / "train" / "data.tknd"
    with open(root / "train" / "build.log", "w") as log, contextlib.redirect_stdout(log):
        code = cli.main([
            "build-dataset", "--charts", str(root / "train" / "charts"),
            "--audio", str(root / "train" / "audio"), "--out", str(train_path),
            "--seed", str(seed),
        ])
    if code != 0:
        raise RuntimeError(f"build-dataset for the train inputs exited with {code}")

    gen = [song for song, _ in _song_set(rng, root, "generate", sizes["generate"])]
    params = neural.init_params(seed=seed, norm=dataset.load_dataset(train_path).norm)
    out_b = params["out_b"].reshape(params.arch.horizon, params.arch.classes)
    out_b[:, NO_NOTE] = NO_NOTE_BIAS
    checkpoint = root / "generate" / "model.tknm"
    neural.save_checkpoint(checkpoint, params)

    desc = {
        "seed": seed,
        "root": str(root),
        "corpus": corpus,
        "eval_passes": sizes["eval_passes"],
        "train": {"songs": train, "dataset": str(train_path)},
        "generate": {"songs": gen, "checkpoint": str(checkpoint)},
    }
    (root / "inputs.json").write_text(json.dumps(desc), encoding="utf-8")
    return desc


if __name__ == "__main__":
    make_inputs(Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]))
