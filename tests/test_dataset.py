import json
import struct

import numpy as np
import pytest

from taikoforge.audio import NUM_BANDS, NormStats, apply_norm
from taikoforge.chart import NoteClass, NoteFrameSequence, one_hot_rows
from taikoforge.dataset import (
    DATASET_VERSION,
    MIN_FRAMES,
    ChartEntry,
    Dataset,
    DatasetManifest,
    assemble,
    load_dataset,
    save_dataset,
    split_dataset,
)
from taikoforge.errors import BadMagic, CorruptFile, TooFewCharts, TooShort, TruncatedFile, VersionMismatch

from conftest import random_note_frames


def chart_of(classes) -> NoteFrameSequence:
    return NoteFrameSequence(np.array(classes, dtype=np.uint8))


def examples_of(feats, notes):
    """One chart's (windows, contexts, targets), as ``assemble`` builds them.

    The chart is paired with a copy of itself, both in the training split,
    so the normalization is the chart's own and its examples come first.
    """
    ds = assemble({"a": (feats, notes), "b": (feats, notes)}, ratio=1.0)
    n = ds.manifest.charts[0].example_count
    return ds.windows[:n], ds.contexts[:n], ds.targets[:n]


def explicit_examples(feats_norm: np.ndarray, frames: np.ndarray):
    """Reference examples of one normalized, padded chart, slice by slice."""
    for k in range(len(frames) - MIN_FRAMES + 1):
        yield (
            feats_norm[k : k + 16].astype(np.float32),
            one_hot_rows(frames[k : k + 15]),
            one_hot_rows(frames[k + 15 : k + 19]),
        )


class TestBuildExamples:
    def test_minimum_length_gives_one_example(self):
        feats = np.zeros((19, NUM_BANDS))
        w, c, t = examples_of(feats, chart_of([0] * 19))
        assert w.shape == (1, 16, NUM_BANDS)
        assert c.shape == (1, 15, 7)
        assert t.shape == (1, 4, 7)

    def test_hundred_frames_gives_82(self):
        feats = np.zeros((100, NUM_BANDS))
        w, _, _ = examples_of(feats, chart_of([0] * 100))
        assert w.shape[0] == 82

    def test_too_short(self):
        with pytest.raises(TooShort):
            examples_of(np.zeros((18, NUM_BANDS)), chart_of([0] * 18))

    def test_alignment(self):
        n = 40
        feats = np.tile(np.arange(n, dtype=np.float32)[:, None], (1, NUM_BANDS))
        rng = np.random.default_rng(0)
        notes = random_note_frames(rng, n)
        w, c, t = examples_of(feats, notes)
        first = w[0, 0, 0]
        step = w[0, 1, 0] - first
        assert step > 0
        for i in (0, 7, n - 19):
            assert w[i, 0, 0] == pytest.approx(first + i * step, rel=1e-5)
            assert w[i, 15, 0] == pytest.approx(first + (i + 15) * step, rel=1e-5)
            for j in range(15):
                assert np.array_equal(c[i, j], one_hot_rows(notes[i + j]))
            for j in range(4):
                assert np.array_equal(t[i, j], one_hot_rows(notes[i + 15 + j]))

    def test_all_no_note_targets(self):
        _, _, t = examples_of(np.zeros((30, NUM_BANDS)), chart_of([0] * 30))
        assert (t[:, :, 0] == 1.0).all()
        assert (t[:, :, 1:] == 0.0).all()

    def test_shorter_notes_padded(self):
        feats = np.ones((25, NUM_BANDS), dtype=np.float32)
        notes = chart_of([1] * 20)
        w, c, t = examples_of(feats, notes)
        assert w.shape[0] == 25 - 18
        # the padded tail reads as no-note
        assert np.array_equal(t[-1, -1], one_hot_rows(NoteClass.NO_NOTE))

    def test_shorter_features_padded_with_zero_frames(self):
        feats = np.random.default_rng(2).normal(size=(20, NUM_BANDS))
        notes = chart_of([0] * 25)
        w, _, _ = examples_of(feats, notes)
        assert w.shape[0] == 7
        assert np.all(w[-1, -1] == 0.0)
        assert np.any(w[-1, 0] != 0.0)

    def test_example_count_rule(self):
        for n in (19, 23, 57, 131):
            w, _, _ = examples_of(np.zeros((n, NUM_BANDS)), chart_of([0] * n))
            assert w.shape[0] == n - 18

    def test_target_histogram_tracks_chart_histogram(self):
        # every interior frame lands in exactly four targets; only the 18-frame
        # boundary (plus the 3-frame tail) can shift the per-class counts
        rng = np.random.default_rng(31)
        notes = random_note_frames(rng, 400)
        _, _, t = examples_of(np.zeros((400, NUM_BANDS)), notes)
        target_counts = t.sum(axis=(0, 1)) / 4.0
        chart_counts = np.bincount(notes.frames, minlength=7)
        assert np.abs(target_counts - chart_counts).max() <= 21


class TestSplit:
    def test_hundred_charts(self):
        train, val = split_dataset([f"c{i:03d}" for i in range(100)], seed=3)
        assert len(train) == 90
        assert len(val) == 10

    def test_ten_charts(self):
        train, val = split_dataset([f"c{i}" for i in range(10)], seed=3)
        assert len(train) == 9
        assert len(val) == 1

    def test_deterministic(self):
        ids = [f"c{i}" for i in range(20)]
        assert split_dataset(ids, seed=5) == split_dataset(ids, seed=5)
        assert split_dataset(ids, seed=5) != split_dataset(ids, seed=6)

    def test_order_independent(self):
        ids = [f"c{i}" for i in range(20)]
        assert split_dataset(ids, seed=5) == split_dataset(list(reversed(ids)), seed=5)

    def test_too_few(self):
        with pytest.raises(TooFewCharts):
            split_dataset(["only"], seed=0)

    def test_no_overlap_and_complete(self):
        ids = [f"c{i}" for i in range(37)]
        train, val = split_dataset(ids, seed=9)
        assert sorted(train + val) == sorted(ids)
        assert not set(train) & set(val)


def synthetic_dataset(seed=0, n_charts=3, frames=40):
    rng = np.random.default_rng(seed)
    charts = {}
    for i in range(n_charts):
        feats = rng.normal(size=(frames, NUM_BANDS))
        charts[f"song{i}"] = (feats, random_note_frames(rng, frames))
    return assemble(charts, seed=seed)


class TestAssemble:
    def test_split_and_counts(self):
        ds = synthetic_dataset(n_charts=10, frames=30)
        splits = {c.split for c in ds.manifest.charts}
        assert splits == {"train", "val"}
        assert all(c.example_count == 12 for c in ds.manifest.charts)
        assert len(ds) == 120
        assert len(ds.indices("train")) + len(ds.indices("val")) == 120

    def test_norm_fit_on_train_only(self):
        rng = np.random.default_rng(1)
        train_like = rng.normal(0.0, 1.0, size=(100, NUM_BANDS))
        charts = {
            "a": (train_like, random_note_frames(rng, 100)),
            "b": (train_like + 50.0, random_note_frames(rng, 100)),
        }
        ds = assemble(charts, ratio=0.5, seed=0)
        train_id = next(c.chart_id for c in ds.manifest.charts if c.split == "train")
        mean_shift = abs(float(ds.norm.mean.mean()))
        assert (mean_shift < 5.0) == (train_id == "a")

    def test_every_example_is_explicit_slices(self):
        # charts of equal length, shorter notes and shorter features
        rng = np.random.default_rng(12)
        charts = {
            "a": (rng.normal(size=(40, NUM_BANDS)), random_note_frames(rng, 40)),
            "b": (rng.normal(size=(30, NUM_BANDS)), random_note_frames(rng, 24)),
            "c": (rng.normal(size=(22, NUM_BANDS)), random_note_frames(rng, 35)),
        }
        ds = assemble(charts, ratio=0.7, seed=1)
        expected = []
        for cid in sorted(charts):
            feats, notes = charts[cid]
            n = max(len(feats), len(notes))
            normed = np.zeros((n, NUM_BANDS))
            normed[: len(feats)] = apply_norm(feats, ds.norm)
            frames = np.zeros(n, dtype=np.uint8)
            frames[: len(notes)] = notes.frames
            expected += explicit_examples(normed, frames)
        assert len(ds) == len(expected) == 22 + 12 + 17

        for i, (w, c, t) in enumerate(expected):
            assert ds.windows[i].tobytes() == w.tobytes()
            assert ds.contexts[i].tobytes() == c.tobytes()
            assert ds.targets[i].tobytes() == t.tobytes()
        # an index array gathers the same rows, in its own order
        order = np.random.default_rng(0).permutation(len(ds))
        for rows, part in ((ds.windows, 0), (ds.contexts, 1), (ds.targets, 2)):
            assert np.array_equal(rows[order], np.stack([expected[i][part] for i in order]))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ds = synthetic_dataset(seed=4)
        path = tmp_path / "d.tknd"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.notes, ds.notes)
        assert np.array_equal(loaded.windows[:], ds.windows[:])
        assert np.array_equal(loaded.contexts[:], ds.contexts[:])
        assert np.array_equal(loaded.targets[:], ds.targets[:])
        assert np.array_equal(loaded.norm.mean, ds.norm.mean)
        assert np.array_equal(loaded.norm.std, ds.norm.std)
        assert loaded.manifest == ds.manifest

        again = tmp_path / "again.tknd"
        save_dataset(again, loaded)
        assert again.read_bytes() == path.read_bytes()

    def test_empty_dataset_round_trips(self, tmp_path):
        ds = Dataset(
            DatasetManifest(()),
            np.zeros((0, NUM_BANDS), dtype=np.float32),
            np.zeros(0, dtype=np.uint8),
            NormStats(np.zeros(NUM_BANDS), np.ones(NUM_BANDS)),
        )
        path = tmp_path / "empty.tknd"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert len(loaded) == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.tknd"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_dataset(path)

    def test_truncated(self, tmp_path):
        ds = synthetic_dataset(seed=5)
        path = tmp_path / "d.tknd"
        save_dataset(path, ds)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(TruncatedFile):
            load_dataset(path)

    def test_version_mismatch(self, tmp_path):
        ds = synthetic_dataset(seed=6)
        path = tmp_path / "d.tknd"
        save_dataset(path, ds)
        data = bytearray(path.read_bytes())
        data[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_dataset(path)

    def test_v1_file_rejected(self, tmp_path):
        path = tmp_path / "d.tknd"
        save_dataset(path, synthetic_dataset(seed=6))
        data = bytearray(path.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch, match=f"version 1, expected {DATASET_VERSION}"):
            load_dataset(path)

    def test_file_stores_each_frame_once(self, tmp_path):
        ds = synthetic_dataset(seed=3, n_charts=4, frames=50)
        path = tmp_path / "d.tknd"
        save_dataset(path, ds)
        header = 16 + len(manifest_bytes(path))
        frames = sum(c.example_count + MIN_FRAMES - 1 for c in ds.manifest.charts)
        assert frames == 4 * 50
        assert path.stat().st_size == header + frames * (4 * NUM_BANDS + 1)

    def test_rebuild_is_bit_identical(self, tmp_path):
        a = tmp_path / "a.tknd"
        b = tmp_path / "b.tknd"
        save_dataset(a, synthetic_dataset(seed=7))
        save_dataset(b, synthetic_dataset(seed=7))
        assert a.read_bytes() == b.read_bytes()


def test_dataset_indices_grouped_by_chart():
    ds = synthetic_dataset(seed=8, n_charts=4, frames=25)
    per_chart = 25 - 18
    offset = 0
    for entry in ds.manifest.charts:
        block = np.arange(offset, offset + per_chart)
        split_idx = ds.indices(entry.split)
        assert np.isin(block, split_idx).all()
        offset += per_chart


def test_manifest_counts():
    manifest = DatasetManifest(
        (ChartEntry("a", 10, "train"), ChartEntry("b", 4, "val"), ChartEntry("c", 6, "train"))
    )
    assert manifest.counts() == (16, 4)


def manifest_bytes(path) -> bytes:
    data = path.read_bytes()
    (n,) = struct.unpack_from("<I", data, 8)
    return data[12 : 12 + n]


def with_manifest(path, manifest: bytes) -> None:
    """Replace a dataset file's manifest, keeping the rest of the file."""
    data = path.read_bytes()
    rest = data[12 + len(manifest_bytes(path)) :]
    path.write_bytes(data[:8] + struct.pack("<I", len(manifest)) + manifest + rest)


class TestHostileFile:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "d.tknd"
        save_dataset(path, synthetic_dataset(seed=10))
        return path

    def edit(self, path, change):
        meta = json.loads(manifest_bytes(path))
        change(meta)
        with_manifest(path, json.dumps(meta).encode())

    def test_manifest_not_json(self, path):
        with_manifest(path, b'{"bands": 80,')
        with pytest.raises(CorruptFile, match="bad manifest"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["bands", "charts", "norm_std", "window"])
    def test_manifest_key_missing(self, path, key):
        self.edit(path, lambda meta: meta.pop(key))
        with pytest.raises(CorruptFile, match="bad manifest"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: m.update(bands="80"),
            lambda m: m.update(bands=79),
            lambda m: m.update(horizon=5),
            lambda m: m.update(charts={"id": "x"}),
            lambda m: m["charts"][0].update(examples="22"),
            lambda m: m["charts"][0].update(examples=True),
            lambda m: m["charts"][0].update(examples=-1),
            lambda m: m["charts"][0].update(split="test"),
            lambda m: m["charts"][0].update(id=7),
            lambda m: m.update(norm_mean=["x"] * 80),
            lambda m: m.update(norm_std=[0.0] * 80),
            lambda m: m.update(norm_mean=[float("nan")] * 80),
        ],
    )
    def test_manifest_value_ill_typed(self, path, change):
        self.edit(path, change)
        with pytest.raises(CorruptFile):
            load_dataset(path)

    def test_frame_count_disagrees_with_manifest(self, path):
        self.edit(path, lambda m: m["charts"][0].update(examples=m["charts"][0]["examples"] + 1))
        with pytest.raises(CorruptFile, match="frames"):
            load_dataset(path)

    def test_payload_longer_than_declared(self, path):
        path.write_bytes(path.read_bytes() + b"\x00" * 5)
        with pytest.raises(CorruptFile, match="trailing"):
            load_dataset(path)

    def test_huge_declared_size_fails_before_allocating(self, path):
        # a manifest and frame count that agree, on a ~1.25 TiB payload the file
        # lacks; the other two charts hold 40 frames each
        examples = 2**32 - 1 - 2 * 40 - (MIN_FRAMES - 1)
        self.edit(path, lambda m: m["charts"][0].update(examples=examples))
        data = bytearray(path.read_bytes())
        at = 12 + len(manifest_bytes(path))
        data[at : at + 4] = struct.pack("<I", 2**32 - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(TruncatedFile):
            load_dataset(path)

    def test_note_byte_out_of_range(self, path):
        data = bytearray(path.read_bytes())
        data[-1] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile, match="NoteClass"):
            load_dataset(path)
