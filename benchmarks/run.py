"""Benchmark of the berryline CLI: one workload per invocation.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  Steps:

1. (--trace 0) ``setup_s``: median over several fresh interpreters of the
   time from launch to ``import berryline`` done.  Times are scaled to a
   reference host speed (hostspeed.py).
2. The workload runs in a process of its own (worker.py) from one thread of
   load, after one warm-up job.
3. Every output is checked against references computed here, apart from
   the program (check.py); a job whose output fails counts as failed.
4. The last stdout line is one JSON object: correct, attempted, failed and
   the metrics, each with its unit.  A fuller record, with per-job times
   and the thread settings, goes to benchmarks/results/.

Exits 2 without a result when the checkout holds no ``src/berryline``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_job
from workloads import WORKLOADS, make_job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Fresh interpreters timed for setup_s; one launch alone is not steady.
SETUP_LAUNCHES = 11
# Every run must end within this many seconds.
RUN_DEADLINE = 170.0


def measure_setup() -> tuple[float, list[float]]:
    """Median launch-to-import time over fresh interpreters.

    Each launch is scaled to the reference host speed by the probe it runs
    around its own import (hostspeed.py); the raw times are returned too.
    """
    code = "\n".join([
        f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]",
        "from hostspeed import LoopWork, SpeedProbe",
        "with SpeedProbe(LoopWork()) as probe:",
        "    import berryline",
        "print(probe.scale_since(0))",
    ])
    times, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * float(proc.stdout))
    return statistics.median(scaled), times


def run_worker(args, out_dir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_jobs(workload: str, seed: int, jobs: list, out_dir: Path) -> list:
    """Marks each job record failed or not; returns the output problems.

    A job fails when a call exits non-zero or raises, or when an output of
    a job that finished fails its check; only the latter are problems.
    """
    problems = []
    for record in jobs:
        record["problems"] = []
        if all(code == 0 for code in record["codes"]) and not record["errors"]:
            outputs = [(out_dir / f).read_text() for f in record["files"]]
            record["problems"] = check_job(
                make_job(workload, seed, record["index"]), outputs)
            record["failed"] = bool(record["problems"])
        else:
            record["failed"] = True
        problems += record["problems"]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="berryline CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE

    if not (ROOT / "src" / "berryline" / "__init__.py").is_file():
        print(f"error: no berryline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    if args.trace == 0:
        record["setup_s"], record["setup_launches_s"] = measure_setup()

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = RESULTS / f"outputs-{tag}"
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        report = run_worker(args, out_dir, deadline)
        jobs = report["jobs"]
        problems = check_jobs(args.workload, args.seed, jobs, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = len(jobs)
    failed = sum(j["failed"] for j in jobs)
    if args.trace == 0:
        ok = [j for j in jobs if not j["failed"]] or jobs
        metrics = {
            "setup_s": (record["setup_s"], "s"),
            "jobs_per_s": ((attempted - failed) / report["scaled_region_seconds"],
                           "1/s"),
            "job_ms_p50": (1e3 * statistics.median(j["scaled_seconds"] for j in ok),
                           "ms"),
            "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
        }
        record["raw_jobs_per_s"] = (attempted - failed) / report["raw_region_seconds"]
        record["raw_job_ms_p50"] = 1e3 * statistics.median(j["seconds"] for j in ok)
    else:
        metrics = {name: tuple(v) for name, v in report["layer_metrics"].items()}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report.update(record)
    report["problems"] = problems[:50]
    report["result"] = result
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if args.trace == 0:
        print(f"{args.workload} unscaled: jobs_per_s = {record['raw_jobs_per_s']:.6g}"
              f" 1/s, job_ms_p50 = {record['raw_job_ms_p50']:.6g} ms")
    for line in problems[:10]:
        print(f"problem: {line}")
    print(f"threads: {json.dumps(report['threads'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
