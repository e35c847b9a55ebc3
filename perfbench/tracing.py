"""Span timers that the benchmark wraps around the program's module
attributes, so that callers inside the program reach the timed version.

A span is (name, start, end, parent index); spans stay in memory until the
stage ends. Nothing here changes arguments, results or rng use, so traced
and untraced runs produce the same artifacts.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, name_for=None) -> None:
        """Replace ``owner.attr`` with a timed call. ``name_for(args,
        kwargs)`` may pick the span name per call."""
        fn = getattr(owner, attr)
        spans, counts, stack_of = self.spans, self.counts, self._stack

        def timed(*args, **kwargs):
            span_name = name_for(args, kwargs) if name_for else name
            stack = stack_of()
            index = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            counts[span_name] += 1
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, timed)

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def total(self, name: str) -> float:
        """Summed duration of every span with this name, in seconds."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, name: str, exclude=None) -> float:
        """Summed self time of spans with this name: each span's length
        minus the time its direct children cover. ``exclude`` limits which
        children are subtracted (a predicate on the child's name)."""
        children = defaultdict(list)
        for s in self.spans:
            if s[3] >= 0 and (exclude is None or exclude(s[0])):
                children[s[3]].append((s[1], s[2]))
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            covered, end = 0.0, s[1]
            for a, b in sorted(children.get(i, ())):
                a = max(a, end)
                if b > a:
                    covered += b - a
                    end = b
            total += (s[2] - s[1]) - covered
        return total


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from taikoforge import audio, chart, chart_io, dataset, generator, metrics, neural, trainer

    def forward_kind(args, kwargs):
        return "neural.forward_train" if kwargs.get("training") else "neural.forward_infer"

    for fn in ("decode_audio", "stft_frames", "mel_project"):
        tracer.wrap(audio, fn, f"audio.{fn}")
    for fn in ("parse_osu", "parse_sm", "write_osu"):
        tracer.wrap(chart_io, fn, f"chart_io.{fn}")
    for fn in ("assemble", "save_dataset", "load_dataset"):
        tracer.wrap(dataset, fn, f"dataset.{fn}")
    tracer.wrap(chart, "binarize", "chart.binarize")
    tracer.wrap(metrics, "evaluate_pair", "metrics.evaluate_pair")
    tracer.wrap(neural, "load_checkpoint", "neural.load_checkpoint")
    for owner in (trainer, generator):
        tracer.wrap(owner, "forward", "", forward_kind)
    tracer.wrap(trainer, "backward", "neural.backward")
    tracer.wrap(trainer, "adam_step", "neural.adam_step")
    tracer.wrap(trainer, "save_checkpoint", "neural.save_checkpoint")
    tracer.wrap(trainer, "load_checkpoint", "neural.load_checkpoint")
    tracer.wrap(trainer, "train", "trainer.train")
    tracer.wrap(trainer, "evaluate_loss", "trainer.evaluate_loss")
    tracer.wrap(generator, "generate_notes", "generator.generate_notes")
    tracer.wrap(generator, "postprocess", "generator.postprocess")
