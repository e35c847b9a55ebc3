"""Aligned training examples and their on-disk binary format.

Each chart is stored once, as its normalized f32 feature rows and its uint8
note frames, both padded to a common length. Example ``k`` of a chart is
the slide of that chart's frames k..k+18: the 16 feature frames k..k+15,
the 15 note one-hots for frames k..k+14 (the window's final note is
withheld from the input), and the 4 target one-hots for frames k+15..k+18.
Examples are gathered from the stored arrays on indexing, so only the
indexed examples are copied.

File layout (little-endian): magic ``TKND``, version u32, u32-length-prefixed
UTF-8 JSON manifest (chart list with per-chart example counts, split
assignment, normalization stats), frame count u32, then the f32 feature
rows (frames x bands) and the uint8 note frames (frames) of every chart in
manifest order.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .audio import NUM_BANDS, NormStats, apply_norm, fit_norm
from .chart import NUM_CLASSES, NoteClass, one_hot_rows
from .errors import BadMagic, CorruptFile, TooFewCharts, TooShort, TruncatedFile, VersionMismatch
from .neural import DEFAULT_ARCH

DATASET_MAGIC = b"TKND"
DATASET_VERSION = 2

#: Frames a chart must span for one example to exist: the model's audio
#: window plus the targets past its end.
MIN_FRAMES = DEFAULT_ARCH.frames + DEFAULT_ARCH.horizon - 1  # 19

_LAYOUT = {
    "window": DEFAULT_ARCH.frames,
    "context": DEFAULT_ARCH.context,
    "horizon": DEFAULT_ARCH.horizon,
    "classes": NUM_CLASSES,
}


@dataclass(frozen=True)
class ChartEntry:
    chart_id: str
    example_count: int
    split: str  # "train" | "val"


@dataclass(frozen=True)
class DatasetManifest:
    charts: tuple[ChartEntry, ...]
    bands: int = NUM_BANDS

    def counts(self) -> tuple[int, int]:
        train = sum(c.example_count for c in self.charts if c.split == "train")
        val = sum(c.example_count for c in self.charts if c.split == "val")
        return train, val

    def frame_count(self) -> int:
        """Stored frames: each chart holds MIN_FRAMES - 1 more than its examples."""
        return sum(c.example_count + MIN_FRAMES - 1 for c in self.charts)


class _ExampleRows:
    """One part of every example, indexable like an (examples, rows, width)
    array by an int, a slice or an index array: ``count`` stored rows from
    ``first`` frames into each selected example, gathered into a new array
    and optionally one-hot encoded."""

    def __init__(self, starts: np.ndarray, stored: np.ndarray, first: int, count: int, one_hot: bool):
        self._starts = starts
        self._stored = stored
        self._offsets = np.arange(first, first + count)
        self._one_hot = one_hot

    def __getitem__(self, key) -> np.ndarray:
        rows = self._stored[self._starts[key][..., None] + self._offsets]
        return one_hot_rows(rows) if self._one_hot else rows


class Dataset:
    """Manifest plus every chart's feature rows and note frames, concatenated
    in manifest order; examples are numbered chart by chart in that order.

    ``windows[i]``, ``contexts[i]`` and ``targets[i]`` give example ``i`` (or
    the examples an index array selects) as f32 arrays of shape (16, bands),
    (15, 7) and (4, 7), with a leading axis for an index array.
    ``starts[i]`` is the stored row at which example ``i`` begins; the
    examples of one chart start on consecutive rows.
    """

    def __init__(self, manifest: DatasetManifest, features: np.ndarray, notes: np.ndarray, norm: NormStats):
        features = np.ascontiguousarray(features, dtype=np.float32)
        notes = np.ascontiguousarray(notes, dtype=np.uint8)
        frames = manifest.frame_count()
        if features.shape != (frames, manifest.bands) or notes.shape != (frames,):
            raise ValueError(
                f"features {features.shape} and notes {notes.shape} disagree with the manifest's"
                f" {frames} frames of {manifest.bands} bands"
            )
        if notes.size and notes.max() >= NUM_CLASSES:
            raise ValueError("note frames must be valid NoteClass indices")
        features.flags.writeable = False
        notes.flags.writeable = False
        self.manifest = manifest
        self.features = features
        self.notes = notes
        self.norm = norm

        counts = [c.example_count for c in manifest.charts]
        chart_of = np.repeat(np.arange(len(counts)), counts)
        starts = np.arange(chart_of.size) + (MIN_FRAMES - 1) * chart_of
        starts.flags.writeable = False
        self.starts = starts
        self.windows = _ExampleRows(starts, features, 0, DEFAULT_ARCH.frames, one_hot=False)
        self.contexts = _ExampleRows(starts, notes, 0, DEFAULT_ARCH.context, one_hot=True)
        self.targets = _ExampleRows(starts, notes, DEFAULT_ARCH.context, DEFAULT_ARCH.horizon, one_hot=True)
        self._count = chart_of.size

    def __len__(self) -> int:
        return self._count

    def indices(self, split: str) -> np.ndarray:
        out = []
        offset = 0
        for entry in self.manifest.charts:
            if entry.split == split:
                out.append(np.arange(offset, offset + entry.example_count))
            offset += entry.example_count
        return np.concatenate(out) if out else np.empty(0, dtype=np.intp)


def split_dataset(chart_ids, ratio: float = 0.9, seed: int = 0) -> tuple[list[str], list[str]]:
    """Deterministically shuffle chart ids and cut off the first 90% as train."""
    ids = sorted(chart_ids)
    if len(ids) < 2:
        raise TooFewCharts("need at least two charts to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_train = int(len(ids) * ratio)
    train = [ids[i] for i in order[:n_train]]
    val = [ids[i] for i in order[n_train:]]
    return train, val


def assemble(charts: dict, ratio: float = 0.9, seed: int = 0) -> Dataset:
    """Build a full dataset from ``{chart_id: (log_mel_features, notes)}``.

    Splits by chart (never by example, to keep adjacent windows out of the
    validation set) and fits normalization on the training charts only.
    Each chart spans as many frames as the longer of its feature rows and
    note frames, the shorter padded with zero rows or no-note frames, and
    is normalized straight into its rows of the dataset's arrays. A chart
    shorter than 19 frames yields no example: TooShort.
    """
    train_ids, val_ids = split_dataset(charts.keys(), ratio, seed)
    split_of = {**{i: "train" for i in train_ids}, **{i: "val" for i in val_ids}}
    norm = fit_norm(charts[cid][0] for cid in sorted(train_ids))

    ids = sorted(charts)
    lengths = [max(len(charts[cid][0]), len(charts[cid][1])) for cid in ids]
    for n in lengths:
        if n < MIN_FRAMES:
            raise TooShort(f"need at least {MIN_FRAMES} frames, got {n}")
    features = np.zeros((sum(lengths), len(norm.mean)), dtype=np.float32)
    notes = np.full(sum(lengths), int(NoteClass.NO_NOTE), dtype=np.uint8)
    row = 0
    for cid, n in zip(ids, lengths):
        feats, chart = charts[cid]
        features[row : row + len(feats)] = apply_norm(feats, norm)
        notes[row : row + len(chart)] = chart.frames
        row += n
    manifest = DatasetManifest(
        tuple(ChartEntry(cid, n - MIN_FRAMES + 1, split_of[cid]) for cid, n in zip(ids, lengths)),
        bands=len(norm.mean),
    )
    return Dataset(manifest, features, notes, norm)


def save_dataset(path: str | Path, ds: Dataset) -> None:
    """Write the dataset file, through a temporary file that replaces
    ``path`` once complete. Feature rows are f32; the normalization stats
    ride in the JSON manifest at full precision (repr round-trip)."""
    manifest_json = json.dumps(
        {
            "bands": ds.manifest.bands,
            **_LAYOUT,
            "norm_mean": ds.norm.mean.tolist(),
            "norm_std": ds.norm.std.tolist(),
            "charts": [
                {"id": c.chart_id, "examples": c.example_count, "split": c.split}
                for c in ds.manifest.charts
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()

    with atomic_write(path) as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<II", DATASET_VERSION, len(manifest_json)))
        f.write(manifest_json)
        f.write(struct.pack("<I", ds.notes.size))
        f.write(ds.features.astype("<f4", copy=False).data)
        f.write(ds.notes.data)


def _is_count(value) -> bool:
    return type(value) is int and value > 0


def _read_manifest(meta) -> tuple[DatasetManifest, NormStats]:
    """Validate a decoded manifest. Raises KeyError, TypeError or ValueError
    on any missing key or ill-typed value."""
    for key, value in _LAYOUT.items():
        if meta[key] != value:
            raise ValueError(f"{key} is {meta[key]!r}, expected {value}")
    bands = meta["bands"]
    if not _is_count(bands):
        raise ValueError(f"bands is {bands!r}")
    entries = []
    for c in meta["charts"]:
        if not (isinstance(c["id"], str) and _is_count(c["examples"]) and c["split"] in ("train", "val")):
            raise ValueError(f"bad chart entry {c!r}")
        entries.append(ChartEntry(c["id"], c["examples"], c["split"]))
    norm = NormStats(np.asarray(meta["norm_mean"], dtype=np.float64), np.asarray(meta["norm_std"], dtype=np.float64))
    if norm.mean.shape != (bands,):
        raise ValueError("normalization stats must hold one value per band")
    return DatasetManifest(tuple(entries), bands=bands), norm


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset file. The arrays are read-only views of the file's
    bytes, which are read once. Any structural fault raises CorruptFile."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != DATASET_MAGIC:
        raise BadMagic(f"{path}: not a dataset file")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise TruncatedFile(f"{path}: dataset file ends early")
        out = data[pos : pos + n]
        pos += n
        return out

    (version,) = struct.unpack("<I", take(4))
    if version != DATASET_VERSION:
        raise VersionMismatch(f"{path}: dataset version {version}, expected {DATASET_VERSION}")
    (manifest_len,) = struct.unpack("<I", take(4))
    try:
        manifest, norm = _read_manifest(json.loads(take(manifest_len).decode()))
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CorruptFile(f"{path}: bad manifest: {exc!r}") from exc
    (frames,) = struct.unpack("<I", take(4))
    payload = frames * (4 * manifest.bands + 1)
    if len(data) - pos < payload:
        raise TruncatedFile(f"{path}: dataset file ends early")
    if len(data) - pos > payload:
        raise CorruptFile(f"{path}: {len(data) - pos - payload} unexpected trailing bytes")
    features = np.frombuffer(data, dtype="<f4", count=frames * manifest.bands, offset=pos)
    notes = np.frombuffer(data, dtype=np.uint8, count=frames, offset=pos + features.nbytes)
    try:  # also rejects a frame count that disagrees with the example counts
        return Dataset(manifest, features.reshape(frames, manifest.bands), notes, norm)
    except ValueError as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
