"""Self-test of the benchmark: run every stage on tiny inputs, require that
the real outputs pass every check, then require that each check rejects a
deliberately corrupted output.

    python3 perfbench/selftest.py

Takes about half a minute. Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from run import THREAD_ENV, metric_units  # noqa: E402

os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import stage  # noqa: E402

SEED = 5


class SelfTest:
    def __init__(self):
        self.problems: list[str] = []
        self.shown = 0

    def rejects(self, label: str, failures: list[str], expected: str) -> None:
        """A corrupted output must draw a failure that names ``expected``."""
        if any(expected in f for f in failures):
            self.shown += 1
            print(f"rejected: {label}")
        else:
            self.problems.append(f"not rejected: {label} (failures: {failures})")


def corrupt_corpus(t: SelfTest, st, out, work: Path) -> None:
    from taikoforge import dataset
    from taikoforge.audio import NormStats
    from taikoforge.chart import BinaryChart

    def with_dataset(label, mutate, expected):
        ds = dataset.load_dataset(out["tknd"])
        ds = mutate(ds) or ds
        path = work / "corrupt.tknd"
        dataset.save_dataset(path, ds)
        t.rejects(label, stage.verify_corpus(st, {**out, "tknd": path}), expected)

    def negate(ds):
        ds.windows[:, 5, 7] *= -1

    def shift(ds):
        ds.windows[:] = np.roll(ds.windows, 1, axis=1)

    def blank(ds):
        ds.contexts[:, -1] = 0.0

    def misclass(ds):
        ds.targets[:] = np.roll(ds.targets, 1, axis=2)

    def renorm(ds):
        return dataset.Dataset(ds.manifest, ds.windows, ds.contexts, ds.targets,
                               NormStats(ds.norm.mean, ds.norm.std * 1.001))

    def drop(ds):
        first = ds.manifest.charts[0]
        keep = np.arange(len(ds)) != first.example_count - 1
        charts = (dataclasses.replace(first, example_count=first.example_count - 1),) + ds.manifest.charts[1:]
        return dataset.Dataset(dataclasses.replace(ds.manifest, charts=charts), ds.windows[keep],
                               ds.contexts[keep], ds.targets[keep], ds.norm)

    with_dataset("a flipped example value", negate, "check_example")
    with_dataset("windows one frame late", shift, "check_log_mel")
    with_dataset("last context row blanked", blank, "note context differs")
    with_dataset("target classes off by one", misclass, "targets differ")
    with_dataset("normalization std off by 0.1%", renorm, "check_norm")
    with_dataset("a chart's last example dropped", drop, "check_example_counts")

    stem = sorted(out["scored"])[0]
    ev, model, human = out["scored"][stem]
    for name, delta in (("dc_human", 0.5), ("oc_human", 0.1), ("overall_p_space", 100 / 256),
                        ("hi_p_space", 1.0), ("dc_rand", 30.0)):
        bad = dataclasses.replace(ev, **{name: getattr(ev, name) + delta})
        scored = {**out["scored"], stem: (bad, model, human)}
        t.rejects(f"{name} changed", stage.verify_corpus(st, {**out, "scored": scored}), "check_scores")
    cut = BinaryChart(model.bits[: int(np.flatnonzero(model.bits)[-1])])
    scored = {**out["scored"], stem: (ev, cut, human)}
    t.rejects("model chart lost its last note", stage.verify_corpus(st, {**out, "scored": scored}), "fit_length")
    flipped = human.bits.copy()
    flipped[len(flipped) // 2] ^= 1
    scored = {**out["scored"], stem: (ev, model, BinaryChart(flipped))}
    t.rejects("a human chart bit flipped", stage.verify_corpus(st, {**out, "scored": scored}), "parsed human chart")


def corrupt_train(t: SelfTest, st, out, work: Path) -> None:
    from taikoforge import neural

    res = out["result"]
    nan_first = [dataclasses.replace(res.records[0], val_loss=math.nan)] + res.records[1:]
    cases = (
        ("a NaN validation loss", dataclasses.replace(res, records=nan_first), "not finite"),
        ("an explosion", dataclasses.replace(res, exploded_at=(2, 1)), "exploded"),
        ("a short schedule", dataclasses.replace(res, records=res.records[:-1]), "epochs ran"),
    )
    for label, bad, expected in cases:
        t.rejects(label, stage.verify_train(st, {**out, "result": bad}), expected)

    saved, state = neural.load_checkpoint(res.final_path)
    path = work / "extra_step.tknm"
    neural.save_checkpoint(path, saved, dataclasses.replace(state, t=state.t + 1))
    bad = dataclasses.replace(res, final_path=path)
    t.rejects("one Adam step too many", stage.verify_train(st, {**out, "result": bad}), "check_adam_steps")

    params = res.params.copy()
    params.arrays["lstm2_wh"].view(np.uint32)[0, 0] ^= 1
    bad = dataclasses.replace(res, params=params)
    t.rejects("a returned weight one bit off", stage.verify_train(st, {**out, "result": bad}), "check_same_params")


def corrupt_generate(t: SelfTest, st, out, work: Path) -> None:
    from taikoforge.chart import NoteFrameSequence

    def with_chart(label, i, expected, raw=None, post=None, text=None):
        old_raw, old_post, old_text = out["charts"][i]
        charts = dict(out["charts"])
        charts[i] = (
            NoteFrameSequence(raw) if raw is not None else old_raw,
            NoteFrameSequence(post) if post is not None else old_post,
            text if text is not None else old_text,
        )
        t.rejects(label, stage.verify_generate(st, {**out, "charts": charts}), expected)

    raw, post, text = out["charts"][0]
    hits = post.frames.copy()
    hits[20:22] = 1
    with_chart("two adjacent hits", 0, "two adjacent hits", raw=np.maximum(raw.frames, hits), post=hits)
    lead = post.frames.copy()
    lead[3] = 1
    with_chart("a note in the lead-in", 0, "lead-in", post=lead)
    span = post.frames.copy()
    span[30] = 6 if span[30] != 6 else 0
    with_chart("a denden frame changed by postprocess", 0, "span", post=span)
    with_chart("one frame short", 0, "song has", post=post.frames[:-1])
    lines = text.splitlines()
    circle = next(i for i, line in enumerate(lines) if line.endswith(",0:0:0:0:"))
    with_chart("a hit lost on the way to .osu", 0, "round trip", text="\n".join(lines[:circle] + lines[circle + 1 :]))

    last = len(out["charts"]) - 1
    raw, post, _ = out["charts"][last]
    other = raw.frames.copy()
    other[16] = 2 if other[16] != 2 else 3
    with_chart("generation that does not repeat under its seed", last, "regenerated excerpt", raw=other)


CORRUPTIONS = {"corpus": corrupt_corpus, "train": corrupt_train, "generate": corrupt_generate}


def main() -> int:
    t = SelfTest()
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        desc = inputs.make_inputs(work / "inputs", "tiny", SEED)
        layer = {}
        for name in stage.STAGES:
            st, out = stage.run_stage(name, desc, work, 0.0, traced=True)
            failures = stage.STAGES[name][1](st, out)
            if failures or st.failed or not st.attempted:
                t.problems.append(f"{name}: real outputs fail: {failures}, {st.failed} of {st.attempted} failed")
            if not all(math.isfinite(v) and v > 0 for v in st.metrics.values()):
                t.problems.append(f"{name}: metrics not finite and positive: {st.metrics}")
            layer.update(st.layer)
            CORRUPTIONS[name](t, st, out, work)
        missing = sorted(set(metric_units("per_layer")) - set(layer))
        if missing:
            t.problems.append("per-layer metrics never measured: " + ", ".join(missing))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in t.problems:
        print(f"PROBLEM: {p}")
    print(f"{t.shown} corruptions rejected, {len(t.problems)} problems")
    return 1 if t.problems else 0


if __name__ == "__main__":
    sys.exit(main())
