import numpy as np
import pytest

from taikoforge.chart import HIT_CLASSES, NoteClass, NoteFrameSequence
from taikoforge.errors import ShapeMismatch
from taikoforge.generator import aggregate_distribution, generate_notes, postprocess
from taikoforge.neural import DEFAULT_ARCH, ArchConfig, forward, init_params

MINI = ArchConfig(frames=4, bands=4, conv1_filters=2, conv2_filters=3, seg_features=8, hidden=3)


def mini_params(seed=0):
    return init_params(MINI, seed=seed)


def chart_of(classes) -> NoteFrameSequence:
    return NoteFrameSequence(np.array(classes, dtype=np.uint8))


class TestAggregation:
    def test_four_identical_one_hots(self):
        vec = np.zeros(7)
        vec[int(NoteClass.SMALL_DON)] = 1.0
        dist = aggregate_distribution([vec] * 4)
        assert dist[int(NoteClass.SMALL_DON)] == 1.0
        assert dist.sum() == 1.0
        # sampling a degenerate distribution is certain
        rng = np.random.default_rng(0)
        assert all(rng.choice(7, p=dist) == 1 for _ in range(10))

    def test_split_votes_average(self):
        a = np.zeros(7)
        a[0] = 1.0
        b = np.zeros(7)
        b[1] = 1.0
        dist = aggregate_distribution([a, a, b, b])
        assert dist[0] == 0.5
        assert dist[1] == 0.5
        assert dist[2:].sum() == 0.0

    def test_fewer_than_four_predictions(self):
        a = np.full(7, 1.0 / 7.0)
        dist = aggregate_distribution([a])
        assert np.allclose(dist, 1.0 / 7.0)

    def test_degenerate_zero_sum_falls_back_to_no_note(self):
        dist = aggregate_distribution([np.zeros(7)])
        assert dist[int(NoteClass.NO_NOTE)] == 1.0

    def test_normalized(self):
        rng = np.random.default_rng(1)
        vectors = [rng.random(7) for _ in range(4)]
        dist = aggregate_distribution(vectors)
        assert dist.sum() == pytest.approx(1.0, abs=1e-6)
        assert (dist >= 0).all()


def reference_generate_notes(params, features, seed=0, greedy=False, contexts=None):
    """The per-window loop that the wavefront replaces: one ``forward`` call
    per window from a fresh LSTM state, each frame's predictions kept until
    its last contributing window has run. Appends each window's context
    rows to ``contexts`` when given."""
    window = params.arch.frames
    lead_in = window - 1
    features = np.atleast_2d(np.asarray(features, dtype=np.float32))
    n = features.shape[0]
    notes = np.zeros(n, dtype=np.uint8)
    if n < window:
        return NoteFrameSequence(notes)
    rng = np.random.default_rng(seed)
    context = np.zeros((n, 7), dtype=np.float32)
    pending = [[] for _ in range(n)]
    for i in range(n - lead_in):
        if contexts is not None:
            contexts.append(context[i : i + lead_in].copy())
        quads, _ = forward(params, features[None, i : i + window], context[None, i : i + lead_in])
        for k, row in enumerate(quads[0]):
            if i + lead_in + k < n:
                pending[i + lead_in + k].append(row)
        t = i + lead_in
        dist = aggregate_distribution(pending[t])
        cls = int(dist.argmax()) if greedy else int(rng.choice(7, p=dist))
        notes[t] = cls
        context[t, cls] = 1.0
    return NoteFrameSequence(notes)


def nudged_params(arch, seed):
    """Random init with biases moved off zero, so that the generated charts
    mix several classes."""
    params = init_params(arch, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for name, arr in params.items():
        if name.endswith("_b"):
            arr += rng.uniform(-0.3, 0.3, size=arr.shape).astype(arr.dtype)
    return params


class TestGenerateNotes:
    def test_deterministic_under_seed(self):
        params = mini_params(3)
        rng = np.random.default_rng(4)
        features = rng.normal(size=(60, MINI.bands))
        a = generate_notes(params, features, seed=9)
        b = generate_notes(params, features, seed=9)
        assert a == b
        c = generate_notes(params, features, seed=10)
        assert len(c) == len(a)

    def test_output_length_matches_song(self):
        params = mini_params(5)
        features = np.random.default_rng(6).normal(size=(41, MINI.bands))
        assert len(generate_notes(params, features, seed=0)) == 41

    def test_song_shorter_than_window_is_empty(self):
        params = mini_params(7)
        features = np.zeros((MINI.frames - 1, MINI.bands))
        chart = generate_notes(params, features, seed=0)
        assert len(chart) == MINI.frames - 1
        assert (chart.frames == 0).all()

    def test_lead_in_frames_stay_empty(self):
        params = mini_params(8)
        features = np.random.default_rng(9).normal(size=(50, MINI.bands))
        chart = generate_notes(params, features, seed=1)
        assert (chart.frames[: MINI.frames - 1] == 0).all()

    def test_greedy_mode_deterministic_without_seed_effects(self):
        params = mini_params(10)
        features = np.random.default_rng(11).normal(size=(30, MINI.bands))
        a = generate_notes(params, features, seed=1, greedy=True)
        b = generate_notes(params, features, seed=2, greedy=True)
        assert a == b

    @pytest.mark.parametrize("arch", [MINI, DEFAULT_ARCH], ids=["mini", "default"])
    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    @pytest.mark.parametrize("n", [15, 16, 17, 19, 403])
    def test_wavefront_matches_per_window_reference(self, arch, greedy, n):
        params = nudged_params(arch, seed=n)
        features = np.random.default_rng(n + 1).normal(size=(n, arch.bands))
        expected = reference_generate_notes(params, features, seed=7, greedy=greedy)
        assert generate_notes(params, features, seed=7, greedy=greedy) == expected

    def test_feedback_contexts_match_finalized_notes(self):
        params = mini_params(12)
        features = np.random.default_rng(13).normal(size=(30, MINI.bands))
        contexts = []
        chart = reference_generate_notes(params, features, seed=3, contexts=contexts)
        assert chart == generate_notes(params, features, seed=3)

        lead = MINI.frames - 1
        assert len(contexts) == len(features) - lead
        for i, ctx in enumerate(contexts):
            for j in range(lead):
                frame = i + j
                if frame < lead:
                    assert np.all(ctx[j] == 0.0), "placeholder rows must be all-zero"
                else:
                    assert ctx[j, int(chart.frames[frame])] == 1.0
                    assert ctx[j].sum() == 1.0

    def test_features_with_wrong_band_count_rejected(self):
        with pytest.raises(ShapeMismatch):
            generate_notes(mini_params(), np.zeros((20, MINI.bands + 1)))


class TestPostprocess:
    def test_later_of_two_removed(self):
        chart = chart_of([0] * 5 + [1, 1] + [0] * 3)
        out = postprocess(chart)
        assert out[5] == NoteClass.SMALL_DON
        assert out[6] == NoteClass.NO_NOTE

    def test_run_of_three_keeps_first_and_third(self):
        chart = chart_of([0] * 5 + [1, 3, 1] + [0] * 2)
        out = postprocess(chart)
        assert out[5] == NoteClass.SMALL_DON
        assert out[6] == NoteClass.NO_NOTE
        assert out[7] == NoteClass.SMALL_DON

    def test_denden_span_untouched(self):
        chart = chart_of([0] * 9 + [6, 6, 6, 6] + [0] * 2)
        assert postprocess(chart) == chart

    def test_hit_adjacent_to_span_untouched(self):
        chart = chart_of([0, 1, 5, 5, 5, 1, 0])
        assert postprocess(chart) == chart

    def test_mixed_hit_classes_still_collapse(self):
        chart = chart_of([0, 2, 4, 0])
        out = postprocess(chart)
        assert out[1] == NoteClass.BIG_DON
        assert out[2] == NoteClass.NO_NOTE

    def test_no_adjacent_hits_after(self):
        rng = np.random.default_rng(20)
        hits = {int(c) for c in HIT_CLASSES}
        for _ in range(20):
            frames = rng.choice(7, size=80, p=[0.5, 0.125, 0.125, 0.125, 0.125, 0, 0])
            out = postprocess(NoteFrameSequence(frames.astype(np.uint8))).frames
            for t in range(len(out) - 1):
                assert not (int(out[t]) in hits and int(out[t + 1]) in hits)

    def test_spans_never_modified(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            frames = rng.choice(7, size=80).astype(np.uint8)
            chart = NoteFrameSequence(frames)
            out = postprocess(chart).frames
            for cls in (int(NoteClass.DRUMROLL), int(NoteClass.DENDEN)):
                assert np.array_equal(out == cls, frames == cls)
