"""One pipeline stage, run in a fresh process so that its peak RSS is its own.

    python3 perfbench/stage.py STAGE WORK_DIR BUDGET_S TRACE

Reads WORK_DIR/inputs/inputs.json, runs whole rounds of the stage until
BUDGET_S seconds have passed (at least one round), checks the outputs and
writes WORK_DIR/STAGE.json. The program is imported from PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from inputs import SAMPLE_RATE, read_wav
from tracing import Tracer, install

MIB = 1 << 20
#: Times each stage re-loads its input file, for a median load time.
SETUP_REPEATS = 5
EVAL_DRAWS = 8
#: The training schedule of one train round.
PHASE1_EPOCHS, PHASE1_BATCH, PHASE2_EPOCHS = 1, 16, 1
#: Frames regenerated to check that generation repeats under its seed.
EXCERPT_FRAMES = 200


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def song_minutes(songs) -> float:
    return sum(s["samples"] for s in songs) / SAMPLE_RATE / 60.0


class Stage:
    """Counters and results shared by the three stage runners."""

    def __init__(self, inputs: dict, work: Path, tracer: Tracer, traced: bool):
        self.inputs = inputs
        self.seed = inputs["seed"]
        self.work = work
        self.tracer = tracer
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.layer: dict[str, list[float]] = {}
        self.setup_load_s = 0.0
        self.peak_rss_mb = 0.0

    def rounds(self, budget: float):
        """Yield round numbers until the budget is spent; always at least one.

        Peak RSS is read when the first round ends: setup plus one unit of
        the stage's work, as one CLI command in a fresh process does. Later
        rounds would add what the allocator keeps from earlier ones.
        """
        start = time.perf_counter()
        n = 0
        while n == 0 or time.perf_counter() - start < budget:
            yield n
            n += 1
            if n == 1:
                self.peak_rss_mb = peak_rss_mib()

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failing operation is counted, not fatal
            self.failed += 1
            traceback.print_exc()
            return None

    def ratio(self, name: str, num: float, den: float) -> None:
        self.layer[name] = [num, den]

    def ms_per_call(self, metric: str, span: str) -> None:
        self.ratio(metric, 1000.0 * self.tracer.total(span), self.tracer.counts.get(span, 0))

    def audio_ratios(self, minutes: float) -> None:
        for fn, short in (("decode_audio", "decode"), ("stft_frames", "stft"), ("mel_project", "mel")):
            self.ratio(f"audio.{short}_ms_per_song_min", 1000.0 * self.tracer.total(f"audio.{fn}"), minutes)


# ----------------------------------------------------------------- corpus

def run_corpus(st: Stage, budget: float):
    from taikoforge import chart, chart_io, cli, metrics

    songs = st.inputs["corpus"]
    root = Path(st.inputs["root"]) / "corpus"
    out = st.work / "corpus.tknd"
    minutes = song_minutes(songs)
    argv = ["build-dataset", "--charts", str(root / "charts"), "--audio", str(root / "audio"),
            "--out", str(out), "--seed", str(st.seed)]

    def build():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"build-dataset exited with {code}")
        return True

    def evaluate(song):
        stem = song["stem"]
        model = chart.binarize(chart_io.parse_osu((root / "model" / f"{stem}.osu").read_text(encoding="utf-8"))[0])
        if song.get("sm"):
            human = chart_io.parse_sm((root / "human" / f"{stem}.sm").read_text(encoding="utf-8"))
        else:
            human = chart.binarize(chart_io.parse_osu((root / "human" / f"{stem}.osu").read_text(encoding="utf-8"))[0])
        ev = metrics.evaluate_pair(stem, model, human, seed=st.seed, draws=EVAL_DRAWS)
        return ev, model, human

    build_s, eval_ms, scored, builds = [], [], {}, 0
    for _ in st.rounds(budget):
        t = time.perf_counter()
        if st.attempt(build):
            build_s.append((time.perf_counter() - t) / minutes)
        builds += 1
        for _ in range(st.inputs["eval_passes"]):
            t = time.perf_counter()
            for song in songs:
                res = st.attempt(evaluate, song)
                if res is not None:
                    scored[song["stem"]] = res
            eval_ms.append(1000.0 * (time.perf_counter() - t) / len(songs))

    size = out.stat().st_size
    st.metrics = {
        "build_dataset_s_per_song_min": statistics.median(build_s),
        "dataset_mb_per_song_min": size / MIB / minutes,
        "evaluate_ms_per_chart": statistics.median(eval_ms),
    }
    if st.traced:
        tr = st.tracer
        st.audio_ratios(builds * minutes)
        st.ms_per_call("chart_io.parse_osu_ms_per_chart", "chart_io.parse_osu")
        st.ms_per_call("chart_io.parse_sm_ms_per_chart", "chart_io.parse_sm")
        st.ratio("dataset.assemble_s_per_song_min", tr.total("dataset.assemble"), builds * minutes)
        st.ratio("dataset.save_s_per_song_min", tr.total("dataset.save_dataset"), builds * minutes)
        examples = sum(
            max(checks.frame_count(s["samples"]), len(s["notes"])) - checks.EXAMPLE_SPAN + 1 for s in songs
        )
        st.ratio("dataset.bytes_per_example", size, examples)
        st.ms_per_call("metrics.evaluate_pair_ms_per_chart", "metrics.evaluate_pair")
        st.ms_per_call("chart.binarize_ms_per_chart", "chart.binarize")
    return {"tknd": out, "scored": scored}


def verify_corpus(st: Stage, out: dict) -> list[str]:
    from taikoforge import dataset

    c = checks.Collector()
    songs = {s["stem"]: s for s in st.inputs["corpus"]}
    root = Path(st.inputs["root"]) / "corpus"
    ds = dataset.load_dataset(out["tknd"])
    entries = ds.manifest.charts
    mean, std = np.asarray(ds.norm.mean), np.asarray(ds.norm.std)
    oracle = checks.Oracle()
    rng = np.random.default_rng([st.seed, 7])

    samples = {stem: read_wav(root / "audio" / f"{stem}.wav") for stem in songs}
    feats = {stem: oracle.log_mel(x) for stem, x in samples.items()}
    lengths = {stem: max(len(feats[stem]), len(s["notes"])) for stem, s in songs.items()}
    c(checks.check_example_counts, {e.chart_id: e.example_count for e in entries}, lengths)
    c(checks.check_norm, mean, std, [feats[e.chart_id] for e in entries if e.split == "train"])

    offset = 0
    for e in entries:
        n = lengths[e.chart_id]
        frames = np.zeros(n, dtype=np.intp)
        own = songs[e.chart_id]["notes"]
        frames[: len(own)] = own
        normed = np.zeros((n, feats[e.chart_id].shape[1]))
        normed[: len(feats[e.chart_id])] = (feats[e.chart_id] - mean) / std
        count = min(e.example_count, n - checks.EXAMPLE_SPAN + 1)
        for k in rng.choice(count, size=3, replace=False).tolist():
            i = offset + k
            c(checks.check_example, ds.windows[i], ds.contexts[i], ds.targets[i], normed, frames, k, f"{e.chart_id} example {k}")
        # frames that some example holds, two of them with a note
        held = count + checks.WINDOW - 1
        notes = np.flatnonzero(frames[:held])
        picks = rng.choice(notes, size=min(2, len(notes)), replace=False).tolist() + [int(rng.integers(held))]
        for f in picks:
            k = min(f, count - 1)
            c(checks.check_log_mel, oracle, samples[e.chart_id], f, ds.windows[offset + k][f - k], mean, std)
        offset += e.example_count

    c(checks.require, len(out["scored"]) == len(songs), "not every chart pair was scored")
    for stem, (ev, model, human) in out["scored"].items():
        song = songs[stem]
        own_model = c(checks.fit_length, checks.bits_of(song["model_notes"]), len(model), f"{stem} model")
        own_human = c(checks.fit_length, checks.bits_of(song["notes"]), len(human), f"{stem} human")
        if own_model is None or own_human is None:
            continue
        c(checks.check_equal, model.bits, own_model, f"{stem}: parsed model chart")
        c(checks.check_equal, human.bits, own_human, f"{stem}: parsed human chart")
        reported = {k: getattr(ev, k) for k in ("dc_rand", "dc_human", "oc_human", "overall_p_space", "hi_p_space")}
        c(checks.check_scores, reported, own_model, own_human, EVAL_DRAWS, stem)
    return c.failures


# ------------------------------------------------------------------ train

def run_train(st: Stage, budget: float):
    from taikoforge import dataset, trainer

    path = st.inputs["train"]["dataset"]
    loads = []
    ds = None
    for i in range(SETUP_REPEATS):
        del ds
        before = peak_rss_mib()
        t = time.perf_counter()
        ds = dataset.load_dataset(path)
        loads.append(time.perf_counter() - t)
        if i == 0:
            load_rss = peak_rss_mib() - before
    st.setup_load_s = statistics.median(loads)

    n_train = len(ds.indices("train"))
    val_idx = ds.indices("val")
    config = trainer.TrainConfig(
        checkpoint_dir=st.work / "checkpoints", phase1_epochs=PHASE1_EPOCHS, phase1_batch=PHASE1_BATCH,
        phase2_max_epochs=PHASE2_EPOCHS, seed=st.seed,
    )
    val_name = "trainer.evaluate_loss"
    rates = {1: [], 2: []}
    result = val_loss = None
    trained = 0
    for _ in st.rounds(budget):
        mark = len(st.tracer.spans)
        result = st.attempt(trainer.train, ds, config)
        if result is not None:
            in_train = [s for s in st.tracer.spans[mark:] if s[0] == val_name]
            for rec, span in zip(result.records, in_train):
                rates[rec.phase].append(n_train / (rec.wall_s - (span[2] - span[1])))
            trained += n_train * len(result.records)
            val_loss = st.attempt(trainer.evaluate_loss, result.params, ds, val_idx)

    val_spans = [s[2] - s[1] for s in st.tracer.spans if s[0] == val_name]
    st.metrics = {
        "phase1_examples_per_s": statistics.median(rates[1]),
        "phase2_examples_per_s": statistics.median(rates[2]),
        "val_examples_per_s": statistics.median(len(val_idx) / d for d in val_spans),
    }
    if st.traced:
        tr = st.tracer
        st.ratio("dataset.load_s", st.setup_load_s, 1)
        st.ratio("dataset.load_rss_mb", load_rss, 1)
        st.ms_per_call("neural.forward_train_ms_per_call", "neural.forward_train")
        st.ms_per_call("neural.backward_ms_per_call", "neural.backward")
        st.ratio("neural.forward_calls", tr.counts.get("neural.forward_train", 0), trained)
        st.ms_per_call("neural.adam_step_ms_per_call", "neural.adam_step")
        st.ratio("neural.adam_steps", tr.counts.get("neural.adam_step", 0), trained)
        st.ms_per_call("neural.forward_infer_ms_per_call", "neural.forward_infer")
        st.ms_per_call("neural.save_checkpoint_ms", "neural.save_checkpoint")
        st.ratio("neural.checkpoint_bytes", Path(result.final_path).stat().st_size, 1)
        inner = ("neural.", "dataset.", val_name)
        self_s = tr.self_time("trainer.train", exclude=lambda name: name.startswith(inner))
        st.ratio("trainer.self_ms_per_example", 1000.0 * self_s, trained)
        st.ratio("trainer.evaluate_loss_ms_per_example", 1000.0 * sum(val_spans), len(val_idx) * len(val_spans))
    return {"result": result, "val_loss": val_loss, "n_train": n_train}


def verify_train(st: Stage, out: dict) -> list[str]:
    from taikoforge.neural import load_checkpoint

    c = checks.Collector()
    result = out["result"]
    if c(checks.require, result is not None, "the last training round failed") is None:
        return c.failures
    losses = [x for r in result.records for x in (r.train_loss, r.val_loss)] + [out["val_loss"]]
    c(checks.check_training, result.records, result.exploded_at, PHASE1_EPOCHS + PHASE2_EPOCHS, losses)
    saved, state = load_checkpoint(result.final_path)
    c(checks.check_adam_steps, state.t, out["n_train"], PHASE1_EPOCHS, PHASE1_BATCH, PHASE2_EPOCHS)
    c(checks.check_same_params, saved.arrays, result.params.arrays)
    return c.failures


# --------------------------------------------------------------- generate

def song_seed(st: Stage, i: int) -> int:
    return st.seed * 1000 + i


def run_generate(st: Stage, budget: float):
    from taikoforge import chart_io, generator, neural

    spec = st.inputs["generate"]
    songs = spec["songs"]
    root = Path(st.inputs["root"]) / "generate"
    loads = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        params, _ = neural.load_checkpoint(spec["checkpoint"])
        loads.append(time.perf_counter() - t)
    st.setup_load_s = statistics.median(loads)
    minutes = song_minutes(songs)

    def generate(i, song):
        wav = root / "audio" / f"{song['stem']}.wav"
        raw = generator.generate(params, wav, seed=song_seed(st, i))
        post = generator.postprocess(raw)
        text = chart_io.write_osu(post, 120.0, wav.name)
        (st.work / f"{song['stem']}.osu").write_text(text, encoding="utf-8")
        return raw, post, text

    per_song, charts, n_rounds = [], {}, 0
    for _ in st.rounds(budget):
        for i, song in enumerate(songs):
            t = time.perf_counter()
            res = st.attempt(generate, i, song)
            if res is not None:
                per_song.append((time.perf_counter() - t) / song_minutes([song]))
                charts[i] = res
        n_rounds += 1

    st.metrics = {"generate_s_per_song_min": statistics.median(per_song)}
    if st.traced:
        tr = st.tracer
        done = n_rounds * minutes
        st.audio_ratios(done)
        st.ms_per_call("neural.load_checkpoint_ms", "neural.load_checkpoint")
        st.ms_per_call("neural.forward_infer_ms_per_call", "neural.forward_infer")
        st.ms_per_call("chart_io.write_osu_ms_per_chart", "chart_io.write_osu")
        self_s = tr.self_time("generator.generate_notes", exclude=lambda name: name.startswith("neural.forward"))
        st.ratio("generator.self_ms_per_song_min", 1000.0 * self_s, done)
        st.ratio("generator.forward_calls_per_song_min", tr.counts.get("neural.forward_infer", 0), done)
        st.ratio("generator.postprocess_ms_per_song_min", 1000.0 * tr.total("generator.postprocess"), done)
    return {"params": params, "charts": charts}


def verify_generate(st: Stage, out: dict) -> list[str]:
    from taikoforge import audio, chart_io, generator

    c = checks.Collector()
    songs = st.inputs["generate"]["songs"]
    root = Path(st.inputs["root"]) / "generate"
    if c(checks.require, len(out["charts"]) == len(songs), "not every song was generated") is None:
        return c.failures
    params = out["params"]
    for i, song in enumerate(songs):
        raw, post, text = out["charts"][i]
        n = checks.frame_count(song["samples"])
        c(checks.check_chart, raw.frames, post.frames, n)
        parsed, _ = chart_io.parse_osu(text, song_length_ms=n * checks.FRAME_MS)
        c(checks.check_equal, parsed.frames, post.frames, f"{song['stem']}: .osu round trip")
    # causal generation: the first frames of a song depend only on its first
    # feature frames, so an excerpt regenerated under the same seed matches
    last = len(songs) - 1
    feats = audio.song_features(root / "audio" / f"{songs[last]['stem']}.wav", params.norm)
    again = generator.generate_notes(params, feats[:EXCERPT_FRAMES], seed=song_seed(st, last))
    c(checks.check_equal, again.frames, out["charts"][last][0].frames[:EXCERPT_FRAMES], "regenerated excerpt")
    return c.failures


STAGES = {
    "corpus": (run_corpus, verify_corpus),
    "train": (run_train, verify_train),
    "generate": (run_generate, verify_generate),
}


def run_stage(name: str, inputs: dict, work: Path, budget: float, traced: bool) -> tuple[Stage, dict]:
    """Run one stage in this process; return its counters and outputs."""
    from taikoforge import trainer

    tracer = Tracer()
    if traced:
        install(tracer)
    else:
        # the one timer untraced runs keep: validation inside each epoch,
        # so that epoch throughput excludes it
        tracer.wrap(trainer, "evaluate_loss", "trainer.evaluate_loss")
    st = Stage(inputs, work, tracer, traced)
    try:
        out = STAGES[name][0](st, budget)
    finally:
        tracer.unwrap()
    return st, out


def main(argv: list[str]) -> int:
    name, work, budget, trace = argv
    work = Path(work)
    inputs = json.loads((work / "inputs" / "inputs.json").read_text(encoding="utf-8"))
    import taikoforge

    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(taikoforge.__file__).resolve().parents:
        print(f"taikoforge imported from {taikoforge.__file__}, not from {src}", file=sys.stderr)
        return 2
    st, out = run_stage(name, inputs, work, float(budget), trace == "1")
    try:
        failures = [f"{name}: {f}" for f in STAGES[name][1](st, out)]
    except Exception as exc:  # an output too broken to check is a failed check
        traceback.print_exc()
        failures = [f"{name}: checking raised {type(exc).__name__}: {exc}"]
    report = {
        "metrics": st.metrics,
        "layer": st.layer,
        "attempted": st.attempted,
        "failed": st.failed,
        "failures": failures,
        "setup_load_s": st.setup_load_s,
        "peak_rss_mb": st.peak_rss_mb,
    }
    if not all(math.isfinite(v) for v in st.metrics.values()):
        report["failures"].append(f"{name}: non-finite metric")
    (work / f"{name}.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
