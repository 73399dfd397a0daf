#!/usr/bin/env python3
"""Benchmark for duffing-melnikov: one workload per run, from the repo root.

    python3 bench/run.py --workload census --seed 0 --seconds 15 --trace 0

Workloads (see workloads.py): census, oracle, verify, crosscheck.

--trace 0 measures, with no tracing, and prints the end-to-end metrics:
  setup_s      median over three fresh processes (this one and two
               children) of `import duffing_melnikov` plus the workload's
               lazy set-up
  units_per_s  units of one block of each position divided by the sum,
               over the positions, of the 90th-percentile time of the
               blocks at that position; after untimed warm-up blocks the
               timed loop runs whole cycles of blocks, at least two, until
               --seconds have passed
  peak_rss_mb  peak resident memory of this process
  ok_frac      units that passed their output check / units attempted

--trace 1 runs the set-up traced, then the timed loop for half of --seconds
(at least one cycle) untraced, then replays exactly the same blocks traced.
It prints the per-layer metrics (tracing.py) plus the tracing overhead, and
fails the run if any replayed block's outputs (for the CLI workloads the
--out JSONL and its sidecar) differ from the untraced ones.

The last line of stdout is the JSON result {"correct", "attempted",
"failed", "metrics"}; the line before it is the machine stamp.  A report
with per-block notes goes to bench/out/, and for traced runs the spans too.
The program is imported from src/ of the checkout; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads, here and in child processes
    os.environ[_var] = str(NPROC)

sys.path.insert(0, str(HERE))
from tracing import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}
SETUP_SAMPLES = 3
# On a shared 2-vCPU VM the speed flips between two levels about 2x apart,
# on scales of seconds to minutes.  The slow level is the more common and
# the steadier, so a high percentile of the block times per position repeats
# best from run to run; the median and the mean follow the mix of levels.
BLOCK_QUANTILE = 0.9
# A timed run spans at least two cycles, so that each position has blocks
# from two passes, some seconds apart, to take the percentile over.
MIN_CYCLES = 2
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up in this process, print it and exit")
    return p.parse_args(argv)


def import_package():
    """Import the package from src/ of this checkout, and nowhere else."""
    if not (SRC / "duffing_melnikov" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import duffing_melnikov
    import duffing_melnikov.cli  # noqa: F401  the public entry point

    if pathlib.Path(duffing_melnikov.__file__).resolve().parent != SRC / "duffing_melnikov":
        raise SystemExit(f"bench: imported {duffing_melnikov.__file__}, not the checkout's src/")


def timed_setup(workload) -> float:
    t0 = time.perf_counter()
    import_package()
    workload.setup()
    return time.perf_counter() - t0


def child_setup(name: str) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--setup-only"], cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def warm_up(workload) -> int:
    """Run the workload's warm-up blocks, untimed and unchecked; returns the
    index of the first timed block."""
    for k in range(workload.warmup):
        workload.run_block(k)
    return workload.warmup


def run_blocks(workload, first: int, seconds=None, count=None, cycles=MIN_CYCLES):
    """Blocks first, first + 1, ... until `count` are done, or until at
    least `cycles` whole cycles have run and taken at least `seconds`
    (--seconds 0 runs exactly `cycles` cycles).  Returns (blocks, elapsed
    seconds)."""
    blocks = []
    t0 = time.perf_counter()
    while count is None or len(blocks) < count:
        start = time.perf_counter()
        blocks.append(workload.run_block(first + len(blocks)))
        blocks[-1].seconds = time.perf_counter() - start
        if (count is None and len(blocks) % workload.cycle == 0
                and len(blocks) >= cycles * workload.cycle
                and time.perf_counter() - t0 >= seconds):
            break
    return blocks, time.perf_counter() - t0


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def throughput(blocks, first: int, positions: int) -> float:
    """Units per second at the 90th percentile: for each block position
    k mod positions, the 90th-percentile (nearest-rank) time of the blocks
    there; one block of each position, over the sum of those times."""
    times, units = {}, {}
    for k, block in enumerate(blocks, start=first):
        times.setdefault(k % positions, []).append(block.seconds)
        units[k % positions] = block.units
    return sum(units.values()) / sum(nearest_rank(t, BLOCK_QUANTILE) for t in times.values())


def stamp(args) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": NPROC,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def measure(args, workload) -> tuple[dict, list, dict]:
    setups = [timed_setup(workload)]
    setups += [child_setup(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    workload.prepare()
    first = warm_up(workload)
    blocks, elapsed = run_blocks(workload, first, args.seconds)
    attempted = sum(b.units for b in blocks)
    failed = sum(b.failed for b in blocks)
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": throughput(blocks, first, workload.positions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {"setup_samples_s": setups, "elapsed_s": elapsed, "blocks": len(blocks),
              "block_s": [b.seconds for b in blocks]}
    return metrics, blocks, detail


def measure_traced(args, workload, spans_path) -> tuple[dict, list, dict, bool]:
    import_package()
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    workload.prepare()
    first = warm_up(workload)
    plain, plain_s = run_blocks(workload, first, args.seconds / 2.0, cycles=1)
    tracer.install()
    try:
        traced, traced_s = run_blocks(workload, first, count=len(plain))
    finally:
        tracer.uninstall()
    mismatched = [k for k, (a, b) in enumerate(zip(plain, traced)) if a.digest != b.digest]
    metrics = tracer.layer_metrics()
    untraced_ups = throughput(plain, first, workload.positions)
    traced_ups = throughput(traced, first, workload.positions)
    metrics.update({
        "trace.units": sum(b.units for b in traced),
        "trace.spans": len(tracer.spans),
        "trace.units_per_s_untraced": untraced_ups,
        "trace.units_per_s_traced": traced_ups,
        "trace.slowdown": untraced_ups / traced_ups if traced_ups > 0 else 0.0,
    })
    tracer.write(spans_path)
    detail = {"blocks": len(plain), "untraced_s": plain_s, "traced_s": traced_s,
              "outputs_identical": not mismatched, "mismatched_blocks": mismatched,
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, plain + traced, detail, not mismatched


TRACE_SUMMARY_UNITS = {"trace.units": "count", "trace.spans": "count",
                       "trace.units_per_s_untraced": "1/s",
                       "trace.units_per_s_traced": "1/s", "trace.slowdown": "ratio"}


def per_layer_units() -> dict[str, str]:
    return {**dict(metric_names()), **TRACE_SUMMARY_UNITS}


def main(argv=None) -> int:
    # On SIGTERM unwind normally, so that a running set-up child is killed
    # and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    workload_cls = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(workload_cls(args.seed, workdir))}))
        return 0
    OUT.mkdir(exist_ok=True)
    workdir.mkdir()
    try:
        workload = workload_cls(args.seed, workdir)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            values, blocks, detail, identical = measure_traced(
                args, workload, OUT / f"spans-{args.workload}-seed{args.seed}.json")
            units = per_layer_units()
        else:
            values, blocks, detail = measure(args, workload)
            identical = True
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(b.units for b in blocks)
    failed = sum(b.failed for b in blocks)
    machine = stamp(args)
    report = {"stamp": machine, "attempted": attempted, "failed": failed,
              "metrics": values, "detail": detail,
              "failures": [n for b in blocks for n in b.notes]}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for note in report["failures"][:20]:
        print(f"FAILED {note}")
    print("# stamp " + json.dumps(machine, sort_keys=True))
    result = {"correct": failed == 0 and identical, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
