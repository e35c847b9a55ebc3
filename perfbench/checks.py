"""Output checks. Each compares the program's output with a computation
made here, from the benchmark's own inputs, or with a property the method
must have. Each check raises CheckFailed with a reason.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import DENDEN, DRUMROLL, FRAME_MS, HITS, SAMPLE_RATE

WINDOW_SAMPLES = 1014
FFT_SIZE = 1024
BINS = FFT_SIZE // 2 + 1
BANDS = 80
MEL_LO, MEL_HI = 27.5, 16000.0
LOG_OFFSET = 1e-6
STD_FLOOR = 1e-8
WINDOW, CONTEXT, HORIZON = 16, 15, 4
EXAMPLE_SPAN = WINDOW + HORIZON - 1  # 19 frames per example
PATTERN = 8


class CheckFailed(AssertionError):
    pass


def require(ok, message: str) -> bool:
    if not ok:
        raise CheckFailed(message)
    return True


class Collector:
    """Runs checks one by one and keeps every failure, so that one broken
    output does not hide another."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, check, *args):
        """Return the check's result, or None when it failed."""
        try:
            return check(*args)
        except CheckFailed as exc:
            self.failures.append(f"{check.__name__}: {exc}")
            return None


# -------------------------------------------------------------- features

HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW_SAMPLES) / (WINDOW_SAMPLES - 1))


def filterbank() -> np.ndarray:
    """Triangular filters, equally spaced in Mel, built one bin at a time."""
    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    lo, hi = mel(MEL_LO), mel(MEL_HI)
    edges = [hz(lo + i * (hi - lo) / (BANDS + 1)) for i in range(BANDS + 2)]
    fb = np.zeros((BANDS, BINS))
    for band in range(BANDS):
        left, center, right = edges[band : band + 3]
        for k in range(BINS):
            f = k * SAMPLE_RATE / FFT_SIZE
            if left < f <= center:
                fb[band, k] = (f - left) / (center - left)
            elif center < f < right:
                fb[band, k] = (right - f) / (right - center)
    return fb


def frame_count(n_samples: int) -> int:
    return n_samples * 1000 // (SAMPLE_RATE * FRAME_MS)


def segment(samples: np.ndarray, k: int) -> np.ndarray:
    """Hann-weighted 1014-sample segment of frame k, zero-padded to 1024.
    Frame k starts at rint(k * 1014.3), the documented frame rule."""
    start = int(np.rint(k * (FRAME_MS * SAMPLE_RATE / 1000.0)))
    out = np.zeros(FFT_SIZE)
    seg = samples[start : start + WINDOW_SAMPLES]
    out[: len(seg)] = seg * HANN[: len(seg)]
    return out


class Oracle:
    """The log-Mel front end written out: a direct DFT for sampled frames,
    and numpy's FFT with the same filterbank for whole songs."""

    def __init__(self):
        self.fb = filterbank()
        self._basis = None

    def dft_log_mel(self, samples: np.ndarray, k: int) -> np.ndarray:
        if self._basis is None:
            n = np.arange(FFT_SIZE)
            self._basis = np.exp(-2j * np.pi * np.outer(np.arange(BINS), n) / FFT_SIZE)
        return np.log(self.fb @ np.abs(self._basis @ segment(samples, k)) + LOG_OFFSET)

    def log_mel(self, samples: np.ndarray) -> np.ndarray:
        segs = np.stack([segment(samples, k) for k in range(frame_count(len(samples)))])
        return np.log(np.abs(np.fft.rfft(segs, axis=1)) @ self.fb.T + LOG_OFFSET)


# ---------------------------------------------------------------- charts

def bits_of(frames: np.ndarray) -> np.ndarray:
    """Discrete-input bits: every hit, and the first frame of each span."""
    frames = np.asarray(frames)
    out = np.zeros(len(frames), dtype=np.uint8)
    for i, c in enumerate(frames.tolist()):
        if c in HITS or (c in (DRUMROLL, DENDEN) and (i == 0 or frames[i - 1] != c)):
            out[i] = 1
    return out


def fit_length(bits: np.ndarray, n: int, what: str) -> np.ndarray:
    """Own bits cut or zero-padded to the program's chart length, refusing
    a length that would drop a note."""
    nz = np.flatnonzero(bits)
    require(not nz.size or nz[-1] < n, f"{what}: parsed chart of {n} frames drops notes up to frame {nz[-1] if nz.size else 0}")
    out = np.zeros(n, dtype=np.uint8)
    m = min(n, len(bits))
    out[:m] = bits[:m]
    return out


def patterns(bits) -> set[int]:
    bits = list(bits)
    out = set()
    for i in range(len(bits) - PATTERN + 1):
        v = 0
        for b in bits[i : i + PATTERN]:
            v = v * 2 + int(b)
        out.add(v)
    return out


def plain_metrics(model, human) -> dict:
    """dc_human, oc_human and the two pattern-space metrics by plain loops;
    frame metrics over the common prefix, as metrics.py documents."""
    model, human = list(map(int, model)), list(map(int, human))
    n = min(len(model), len(human))
    agree = sum(model[i] == human[i] for i in range(n))
    lenient = 0
    for i in range(n):
        if human[i]:
            lenient += any(model[j] for j in (i - 1, i, i + 1) if 0 <= j < n)
        else:
            lenient += not model[i]
    pm, ph = patterns(model), patterns(human)
    return {
        "dc_human": agree / n * 100.0,
        "oc_human": lenient / n * 100.0,
        "overall_p_space": len(pm) / 2 ** PATTERN * 100.0,
        "hi_p_space": len(pm & ph) / len(ph) * 100.0,
    }


# ------------------------------------------------------------ per stage

def check_log_mel(oracle: Oracle, samples, k: int, row, mean, std) -> None:
    """A stored (normalized) row of frame k, de-normalized, against the
    direct DFT."""
    want = oracle.dft_log_mel(samples, k)
    got = np.asarray(row, dtype=np.float64) * std + mean
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    require(rel <= 1e-4, f"log-Mel row of frame {k} is off the direct DFT by {rel:.2e}")


def check_norm(mean, std, train_feats: list[np.ndarray]) -> None:
    allf = np.concatenate(train_feats)
    want_mean = allf.mean(axis=0)
    want_std = np.maximum(allf.std(axis=0), STD_FLOOR)
    require(np.allclose(mean, want_mean, rtol=1e-9, atol=1e-9), "normalization mean differs from own mean")
    require(np.allclose(std, want_std, rtol=1e-6, atol=1e-9), "normalization std differs from own std")


def check_example_counts(counts: dict[str, int], lengths: dict[str, int]) -> None:
    for cid, n in lengths.items():
        require(counts.get(cid) == n - EXAMPLE_SPAN + 1, f"{cid}: {counts.get(cid)} examples, expected {n - EXAMPLE_SPAN + 1}")


def check_example(window, context, target, feats_norm: np.ndarray, frames: np.ndarray, k: int, where: str) -> None:
    """Example k of a chart is the slice k..k+15 of features, the one-hots
    of notes k..k+14, and the one-hots of notes k+15..k+18."""
    eye = np.eye(7, dtype=np.float32)
    require(np.allclose(window, feats_norm[k : k + WINDOW], rtol=0, atol=1e-4), f"{where}: window differs from own features")
    require(np.array_equal(context, eye[frames[k : k + CONTEXT]]), f"{where}: note context differs from own notes")
    require(np.array_equal(target, eye[frames[k + CONTEXT : k + EXAMPLE_SPAN]]), f"{where}: targets differ from own notes")


def check_scores(reported: dict, model_bits, human_bits, draws: int, what: str) -> None:
    want = plain_metrics(model_bits, human_bits)
    for name, value in want.items():
        require(abs(reported[name] - value) <= 1e-9, f"{what}: {name} {reported[name]!r}, plain code gives {value!r}")
    # dc_rand averages agreement with fair coins: 50% within five sigma
    sigma = 50.0 / math.sqrt(draws * len(model_bits))
    require(abs(reported["dc_rand"] - 50.0) <= 5 * sigma, f"{what}: dc_rand {reported['dc_rand']:.3f} is not near 50%")


def check_training(records, exploded_at, epochs: int, losses: list[float]) -> None:
    require(exploded_at is None, f"training exploded at {exploded_at}")
    require(len(records) == epochs, f"{len(records)} epochs ran, schedule has {epochs}")
    require(all(x is not None and math.isfinite(x) for x in losses), "a train or validation loss is not finite")


def check_adam_steps(steps: int, n_train: int, phase1_epochs: int, batch: int, phase2_epochs: int) -> None:
    want = phase1_epochs * -(-n_train // batch) + phase2_epochs * n_train
    require(steps == want, f"checkpoint has {steps} Adam steps, the schedule implies {want}")


def check_same_params(saved: dict, returned: dict) -> None:
    require(saved.keys() == returned.keys(), "reloaded checkpoint has other arrays")
    for name, arr in returned.items():
        a, b = np.asarray(saved[name]), np.asarray(arr)
        require(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(),
                f"reloaded {name} is not bit-identical to the returned parameters")


def check_chart(raw: np.ndarray, post: np.ndarray, n_frames: int, lead_in: int = 15) -> None:
    raw, post = np.asarray(raw), np.asarray(post)
    require(len(raw) == n_frames and len(post) == n_frames, f"chart has {len(post)} frames, song has {n_frames}")
    require(not raw[:lead_in].any() and not post[:lead_in].any(), "a note in the lead-in frames 0..14")
    is_hit = np.isin(post, HITS)
    require(not (is_hit[1:] & is_hit[:-1]).any(), "two adjacent hits after postprocess")
    for cls in (DRUMROLL, DENDEN):
        require(np.array_equal(raw == cls, post == cls), "postprocess changed a drumroll or denden span")
    changed = np.flatnonzero(raw != post)
    require(np.isin(raw[changed], HITS).all() and not post[changed].any(), "postprocess did more than drop hits")
    require(np.isin(post[changed - 1], HITS).all(), "postprocess dropped a hit that had no hit before it")


def check_equal(got, want, what: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    require(got.shape == want.shape and np.array_equal(got, want), f"{what} differs")
