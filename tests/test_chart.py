import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taikoforge.chart import (
    NUM_CLASSES,
    BinaryChart,
    NoteClass,
    NoteFrameSequence,
    binarize,
    ms_to_frame,
    one_hot_rows,
)


class TestMsToFrame:
    def test_zero(self):
        assert ms_to_frame(0) == 0

    def test_exact_boundary(self):
        assert ms_to_frame(23) == 1

    def test_sixteen_frames_span_368ms(self):
        assert ms_to_frame(368) == 16

    def test_floor(self):
        assert ms_to_frame(22) == 0
        assert ms_to_frame(45) == 1
        assert ms_to_frame(45.9) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ms_to_frame(-1)


class TestOneHot:
    def test_no_note(self):
        assert one_hot_rows(NoteClass.NO_NOTE).tolist() == [1, 0, 0, 0, 0, 0, 0]

    def test_small_kat(self):
        assert one_hot_rows(NoteClass.SMALL_KAT).tolist() == [0, 0, 0, 1, 0, 0, 0]

    def test_denden(self):
        assert one_hot_rows(NoteClass.DENDEN).tolist() == [0, 0, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize("cls", list(NoteClass))
    def test_sums_to_one(self, cls):
        assert one_hot_rows(cls).sum() == 1.0

    def test_rows(self):
        rows = one_hot_rows(np.array([0, 3, 6]))
        assert rows.shape == (3, NUM_CLASSES)
        assert (rows.sum(axis=1) == 1.0).all()
        assert rows[1, 3] == 1.0


def _chart(**placed):
    frames = np.zeros(60, dtype=np.uint8)
    for cls, positions in placed.items():
        frames[list(positions)] = int(NoteClass[cls])
    return NoteFrameSequence(frames)


class TestBinarize:
    def test_single_hit(self):
        bits = binarize(_chart(SMALL_DON=[10])).bits
        assert bits[10] == 1
        assert bits.sum() == 1

    def test_drumroll_head_only(self):
        bits = binarize(_chart(DRUMROLL=range(20, 31))).bits
        assert bits[20] == 1
        assert bits[21:31].sum() == 0

    def test_denden_head_plus_hit(self):
        bits = binarize(_chart(DENDEN=range(40, 46), BIG_KAT=[50])).bits
        assert bits[40] == 1
        assert bits[41:46].sum() == 0
        assert bits[50] == 1
        assert bits.sum() == 2

    def test_span_starting_at_frame_zero(self):
        bits = binarize(_chart(DRUMROLL=range(0, 5))).bits
        assert bits[0] == 1
        assert bits[1:5].sum() == 0

    def test_adjacent_different_spans_both_count(self):
        bits = binarize(_chart(DRUMROLL=range(5, 8), DENDEN=range(8, 11))).bits
        assert bits[5] == 1 and bits[8] == 1
        assert bits.sum() == 2


@given(st.lists(st.integers(0, NUM_CLASSES - 1), min_size=1, max_size=300))
def test_binarize_properties(classes):
    chart = NoteFrameSequence(np.array(classes, dtype=np.uint8))
    first = binarize(chart)
    second = binarize(chart)
    assert first == second
    assert len(first) == len(chart)
    assert first.bits.sum() <= (chart.frames != 0).sum()


def test_note_frame_sequence_rejects_bad_values():
    with pytest.raises(ValueError):
        NoteFrameSequence(np.array([0, 7], dtype=np.uint8))
    with pytest.raises(ValueError):
        NoteFrameSequence(np.zeros((2, 2), dtype=np.uint8))


def test_note_frame_sequence_immutable():
    chart = _chart(SMALL_DON=[3])
    with pytest.raises(ValueError):
        chart.frames[3] = 0


def test_binary_chart_rejects_non_bits():
    with pytest.raises(ValueError):
        BinaryChart(np.array([0, 2], dtype=np.uint8))


def test_equality_semantics():
    a = _chart(SMALL_DON=[1])
    assert a == _chart(SMALL_DON=[1])
    assert a != _chart(SMALL_KAT=[1])
    assert a != NoteFrameSequence(np.zeros(3, dtype=np.uint8))
