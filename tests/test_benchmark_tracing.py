"""The benchmark's span timers (perfbench/tracing.py) wrap program functions
by module and attribute name. A renamed or removed attribute breaks every
traced benchmark run, so wrapping and unwrapping them is checked here."""

import importlib.util
from pathlib import Path

import numpy as np

from taikoforge import audio, chart, chart_io, dataset, generator, metrics, neural, trainer
from taikoforge.chart import NoteFrameSequence

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (audio, chart, chart_io, dataset, generator, metrics, neural, trainer)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_attribute_and_unwrap_restores_them():
    tracing = load_tracing()
    before = [dict(vars(m)) for m in MODULES]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        wrapped = {
            f"{m.__name__}.{k}" for m, snap in zip(MODULES, before) for k, v in snap.items() if vars(m)[k] is not v
        }
        assert "taikoforge.generator.forward" in wrapped
        assert "taikoforge.generator.generate_notes" in wrapped
        generator.postprocess(NoteFrameSequence(np.zeros(4, dtype=np.uint8)))
        assert tracer.counts["generator.postprocess"] == 1
    finally:
        tracer.unwrap()
    for m, snap in zip(MODULES, before):
        assert all(vars(m)[k] is v for k, v in snap.items()), m.__name__
