"""Two-phase training loop with weight-explosion rollback.

Phase 1: fixed number of epochs, batched (gradients averaged over the
batch). Phase 2: batch size 1 at a lower learning rate, one epoch at a
time. An epoch "explodes" when its training or validation pass raises
NonFiniteActivation or NonFiniteGradient, when its parameters end
non-finite, or when its mean training loss exceeds :data:`EXPLOSION_FACTOR`
times the previous epoch's. Training then stops and the previous epoch's
checkpoint wins. An epoch that explodes in training is never validated,
and each epoch's checkpoint is written after its validation, so no
exploded epoch is saved. Both passes ignore numpy's overflow warnings, as
these checks catch every non-finite value. Every run is fully
deterministic under its seed.

Training runs :func:`~taikoforge.neural.forward` on gathered windows, each
with its own dropout masks. Validation runs the inference path that
generation also uses: the song-level trunk over each validation chart's
stored feature rows, then the shared recurrent layers and head.
"""

from __future__ import annotations

import itertools
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .atomic import atomic_write
from .dataset import Dataset
from .errors import NonFiniteActivation, NonFiniteGradient
from .neural import (
    DEFAULT_ARCH,
    TRUNK_CHUNK,
    AdamState,
    ModelParams,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_params,
    load_checkpoint,
    loss,
    recurrent_forward,
    save_checkpoint,
    song_trunk,
)

#: An epoch whose mean training loss exceeds this multiple of the previous
#: epoch's counts as a weight explosion.
EXPLOSION_FACTOR = 3.0


@dataclass
class TrainConfig:
    checkpoint_dir: Path
    phase1_epochs: int = 10
    phase1_lr: float = 1e-5
    phase1_batch: int = 16
    phase2_lr: float = 5e-6
    phase2_max_epochs: int = 8
    seed: int = 0

    def __post_init__(self):
        self.checkpoint_dir = Path(self.checkpoint_dir)
        if not all(math.isfinite(lr) and lr > 0 for lr in (self.phase1_lr, self.phase2_lr)):
            raise ValueError("learning rates must be finite and positive")
        if self.phase2_lr >= self.phase1_lr:
            raise ValueError("phase-2 learning rate must be below phase 1's")
        if self.phase1_batch < 1:
            raise ValueError("batch size must be at least 1")
        if self.phase1_epochs < 0 or self.phase2_max_epochs < 0:
            raise ValueError("epoch counts must be non-negative")


@dataclass(frozen=True)
class EpochRecord:
    phase: int
    epoch: int
    train_loss: float
    val_loss: float
    wall_s: float

    def line(self) -> str:
        return (
            f"phase {self.phase} epoch {self.epoch:3d}  "
            f"train {self.train_loss:.6f}  val {self.val_loss:.6f}  "
            f"{self.wall_s:.1f}s"
        )


@dataclass
class TrainResult:
    params: ModelParams
    state: AdamState
    records: list[EpochRecord]
    final_path: Path
    exploded_at: tuple[int, int] | None = None


def _run_epoch(params, state, dataset, indices, batch_size, lr, rng) -> float:
    order = rng.permutation(len(indices))
    total = 0.0
    for start in range(0, len(order), batch_size):
        batch = indices[order[start : start + batch_size]]
        targets = dataset.targets[batch]
        probs, cache = forward(
            params, dataset.windows[batch], dataset.contexts[batch], training=True, rng=rng
        )
        total += loss(probs, targets) * len(batch)
        adam_step(params, backward(params, cache, targets), state, lr)
    return total / len(indices)


def evaluate_loss(params: ModelParams, dataset: Dataset, indices: np.ndarray) -> float:
    """Mean loss over the examples ``indices`` selects, with dropout
    disabled; deterministic.

    The indices split into runs whose examples start on consecutive stored
    rows: a run breaks at every chart boundary and at every gap or step
    back in ``indices``. Each run is scored in pieces of
    :data:`~taikoforge.neural.TRUNK_CHUNK` examples, whose segments come
    from one :func:`~taikoforge.neural.song_trunk` call over the piece's
    feature rows, so that overlapping windows share their convolution rows.
    """
    if len(indices) == 0:
        return float("nan")
    frames = params.arch.frames
    starts = dataset.starts[indices]
    breaks = [0, *(np.flatnonzero(np.diff(starts) != 1) + 1), len(indices)]
    total = 0.0
    for run_start, run_stop in zip(breaks[:-1], breaks[1:]):
        for lo in range(run_start, run_stop, TRUNK_CHUNK):
            piece = indices[lo : min(lo + TRUNK_CHUNK, run_stop)]
            row = starts[lo]
            seg = song_trunk(params, dataset.features[row : row + len(piece) + frames - 1])
            probs, _ = recurrent_forward(params, seg, dataset.contexts[piece])
            total += loss(probs, dataset.targets[piece]) * len(piece)
    return total / len(indices)


def train(
    dataset: Dataset,
    config: TrainConfig,
    log: Callable[[str], None] | None = None,
) -> TrainResult:
    """Run the full schedule and return the surviving checkpoint.

    Per-epoch checkpoints are kept in ``config.checkpoint_dir``; the result
    is copied to ``final.tknm`` byte-for-byte, so a rollback result compares
    bit-identical to the pre-explosion epoch's file.
    """
    ckpt_dir = config.checkpoint_dir
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)

    params = init_params(DEFAULT_ARCH, seed=config.seed, norm=dataset.norm)
    state = init_adam_state(params)
    train_idx = dataset.indices("train")
    val_idx = dataset.indices("val")
    if len(train_idx) == 0:
        raise ValueError("dataset has no training examples")

    best_path = ckpt_dir / "init.tknm"
    save_checkpoint(best_path, params, state)
    prev_loss = math.inf
    records: list[EpochRecord] = []
    exploded_at: tuple[int, int] | None = None

    # built lazily: phase 2 may be given a huge epoch cap, as it runs until an explosion
    schedule = itertools.chain(
        ((1, e + 1, config.phase1_lr, config.phase1_batch) for e in range(config.phase1_epochs)),
        ((2, e + 1, config.phase2_lr, 1) for e in range(config.phase2_max_epochs)),
    )

    for phase, epoch, lr, batch_size in schedule:
        started = time.perf_counter()
        why = None
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                train_loss = _run_epoch(params, state, dataset, train_idx, batch_size, lr, rng)
                if train_loss > EXPLOSION_FACTOR * prev_loss or not np.isfinite(params.flat).all():
                    why = f"train {train_loss}"
                else:
                    val_loss = evaluate_loss(params, dataset, val_idx)
            except (NonFiniteActivation, NonFiniteGradient) as exc:
                why = str(exc)
        if why is not None:
            exploded_at = (phase, epoch)
            if log:
                log(f"phase {phase} epoch {epoch:3d}  exploded ({why}); rolling back")
            params, state = load_checkpoint(best_path)
            break

        best_path = ckpt_dir / f"p{phase}_e{epoch:03d}.tknm"
        save_checkpoint(best_path, params, state)
        prev_loss = train_loss
        records.append(EpochRecord(phase, epoch, train_loss, val_loss, time.perf_counter() - started))
        if log:
            log(records[-1].line())

    final_path = ckpt_dir / "final.tknm"
    with open(best_path, "rb") as src, atomic_write(final_path) as dst:
        shutil.copyfileobj(src, dst)
    return TrainResult(params, state, records, final_path, exploded_at)
