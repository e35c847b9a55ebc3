"""Benchmark of the taikoforge chart pipeline: corpus, train and generate.

    python3 perfbench/run.py --workload short|long --seed N --seconds S \
        --trace 0|1

Every run writes the workload's seeded inputs, then runs the three
pipeline stages one after the other, each in a fresh process, for a fixed
share of --seconds. With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 the stages run with
span timers and the object holds the per-layer metrics. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("short", "long")
#: Share of --seconds each stage runs for. Each timing metric gets about a
#: sixth of the run: on two shared cores a median needs 10 s or more of
#: samples to stay within a few percent from run to run.
STAGE_SHARES = {"corpus": 0.32, "train": 0.44, "generate": 0.24}
IMPORT_PROBES = 7
#: A run that has not ended by then is stopped with an error.
RUN_LIMIT_S = 170

#: One OpenBLAS thread and one per-song worker: two shared cores give
#: steadier timings this way (see README), and the run stays within nproc.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "TAIKO_FORGE_THREADS": "1",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import taikoforge.cli; "
    "print(time.perf_counter() - t)"
)


class BenchError(Exception):
    pass


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json, at the checkout root, declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("PYTHONSTARTUP", None)
    return env


class Children:
    """Runs the child processes of one run, all within the run's time limit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, cmd: list[str], what: str, **kwargs) -> subprocess.CompletedProcess:
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout, **kwargs)
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}")
        return proc


def import_seconds(children: Children) -> float:
    """Median import time of the package over fresh interpreters."""
    times = []
    for _ in range(IMPORT_PROBES):
        out = children.run([sys.executable, "-c", IMPORT_PROBE], "import probe", capture_output=True, text=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_stage(children: Children, name: str, work: Path, budget: float, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "stage.py"), name, str(work), f"{budget:.3f}", "1" if trace else "0"]
    children.run(cmd, f"stage {name}")
    return json.loads((work / f"{name}.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    # This process stays free of numpy: a child's ru_maxrss starts from
    # its parent's resident size, so a large parent would hide the stages'.
    children = Children(time.monotonic() + RUN_LIMIT_S)
    started = time.perf_counter()
    children.run([sys.executable, str(HERE / "inputs.py"), str(work / "inputs"), workload, str(seed)], "input generation")
    setup_import = import_seconds(children)
    print(f"inputs and import probes: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    reports = {}
    for name, share in STAGE_SHARES.items():
        started = time.perf_counter()
        reports[name] = run_stage(children, name, work, share * seconds, trace)
        print(f"stage {name}: {time.perf_counter() - started:.1f}s", file=sys.stderr)

    failures = [f for r in reports.values() for f in r["failures"]]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    values = {
        "setup_s": setup_import + sum(r["setup_load_s"] for r in reports.values()),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports.values()),
    }
    for r in reports.values():
        values.update(r["metrics"])
    units = metric_units("end_to_end")
    if trace:
        # end-to-end figures under tracing, for the tracing overhead
        print("traced end-to-end: " + json.dumps(values), file=sys.stderr)
        sums: dict[str, list[float]] = {}
        for r in reports.values():
            for name, (num, den) in r["layer"].items():
                acc = sums.setdefault(name, [0.0, 0.0])
                acc[0] += num
                acc[1] += den
        values = {name: (num / den if den else 0.0) for name, (num, den) in sums.items()}
        units = metric_units("per_layer")
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError("no value for " + ", ".join(missing))
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "taikoforge" / "__init__.py").is_file():
        print(f"error: no taikoforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
