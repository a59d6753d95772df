"""One workload's load, run in a process of its own.

Usage (run.py starts it; it can also be run by hand from the repo root):

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Drives ``berryline.cli.main(argv)`` in-process from this one thread, one job
after another (a closed loop with one client).  The only other threads are
the program's own: the ``nodal-map`` pool and OpenBLAS, both at their
defaults.  Each call's stdout is captured; after a job's clock stops its
outputs are written to DIR for run.py to check.  The last stdout line is a
JSON report.

--trace 0: one warm-up job, then jobs 0, 1, ... until S seconds have passed.
--trace 1: one warm-up job, then a fixed list of jobs, each once untraced
and once traced, so counts repeat exactly and the tracing overhead has both
bases.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

from hostspeed import EighWork, SpeedProbe, VectorWork
from workloads import WORKLOADS, Job, make_job, warmup_job

ROOT = Path(__file__).resolve().parent.parent

# Work the host-speed probe times: the kind that dominates the jobs
# (hostspeed.py).
PROBE_WORK = {"loop-sweep": EighWork, "ci-search": EighWork,
              "ring-spectra": VectorWork, "spin-drive": VectorWork}

# Jobs in the traced run's fixed list: ten to twenty seconds of load on the
# host the benchmark was built on (README.md).
TRACE_JOBS = {"loop-sweep": 4, "ci-search": 3, "ring-spectra": 8,
              "spin-drive": 2}


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import berryline.cli as cli

    where = Path(cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"berryline imported from {where}, not from {ROOT / 'src'}")
    return cli


def run_job(cli, job: Job, probe: SpeedProbe) -> dict:
    """Run every call of a job; returns timing, exit codes and outputs."""
    outputs, codes, errors = [], [], []
    mark = probe.mark()
    start = time.perf_counter()
    for argv in job.calls:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash fails the job, not the run
            code = None
            errors.append(f"{type(exc).__name__}: {exc}")
        codes.append(code)
        outputs.append(out.getvalue())
        if err.getvalue() and code != 0:
            errors.append(err.getvalue().strip())
    elapsed = time.perf_counter() - start
    factor = probe.scale_since(mark)
    return {"index": job.index, "seconds": elapsed,
            "scaled_seconds": elapsed * factor, "speed_scale": factor,
            "codes": codes, "errors": errors, "outputs": outputs}


def _save(result: dict, out_dir: Path, tag: str) -> dict:
    files = []
    for c, text in enumerate(result.pop("outputs")):
        path = out_dir / f"{tag}{result['index']}-{c}.out"
        path.write_text(text)
        files.append(path.name)
    result["files"] = files
    result["output_bytes"] = sum((out_dir / f).stat().st_size for f in files)
    return result


def run_saved(cli, job: Job, probe: SpeedProbe, out_dir: Path,
              tag: str) -> tuple[dict, float]:
    """Run a job and save its outputs; returns the record and the scaled
    time of both together."""
    start = time.perf_counter()
    record = _save(run_job(cli, job, probe), out_dir, tag)
    return record, (time.perf_counter() - start) * record["speed_scale"]


def timed_region(cli, workload: str, seed: int, seconds: float,
                 out_dir: Path, probe: SpeedProbe) -> tuple[list, float, float]:
    """Run jobs 0, 1, 2, ... back to back until `seconds` have passed.

    Returns the job records and the region's length, scaled and raw.
    """
    done = []
    scaled = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        record, took = run_saved(cli, make_job(workload, seed, len(done)),
                                 probe, out_dir, "j")
        done.append(record)
        scaled += took
    return done, scaled, time.perf_counter() - start


def _cells_evaluated(out_dir: Path, jobs: list) -> int:
    total = 0
    for job in jobs:
        for name, code in zip(job["files"], job["codes"]):
            if code != 0:
                continue
            text = (out_dir / name).read_text()
            if text.startswith("{"):
                total += int(json.loads(text).get("cells_evaluated", 0))
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    # The nodal-map pool runs at its default width, os.cpu_count().
    os.environ.pop("BERRYLINE_THREADS", None)
    cli = _import_cli()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": {
            "os_cpu_count": os.cpu_count(),
            "nodal_map_pool": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
        "probe_work": PROBE_WORK[args.workload].__name__,
    }
    with SpeedProbe(PROBE_WORK[args.workload]()) as probe:
        warm = run_job(cli, warmup_job(args.workload, args.seed), probe)
        report["warmup_seconds"] = warm["seconds"]
        if args.trace == 0:
            report.update(measure(cli, args, out_dir, probe))
        else:
            report.update(measure_traced(cli, args, out_dir, probe))
    report["speed_samples"] = len(probe.samples)
    print(json.dumps(report))
    return 0


def measure(cli, args, out_dir: Path, probe: SpeedProbe) -> dict:
    jobs, region, raw_region = timed_region(cli, args.workload, args.seed,
                                            args.seconds, out_dir, probe)
    return {"jobs": jobs, "scaled_region_seconds": region,
            "raw_region_seconds": raw_region,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def measure_traced(cli, args, out_dir: Path, probe: SpeedProbe) -> dict:
    from tracing import Tracer, layer_metrics

    # Each job runs once untraced and once traced, in alternating order, so
    # a change in host speed during the run falls on both bases alike.
    tracer = Tracer()
    jobs = {"u": [], "t": []}
    seconds = {"u": 0.0, "t": 0.0}
    for index in range(TRACE_JOBS[args.workload]):
        job = make_job(args.workload, args.seed, index)
        for tag in ("u", "t") if index % 2 == 0 else ("t", "u"):
            with tracer.active(index) if tag == "t" else contextlib.nullcontext():
                record, took = run_saved(cli, job, probe, out_dir, tag)
            jobs[tag].append(record)
            seconds[tag] += took
    plain, traced = jobs["u"], jobs["t"]
    trace_file = out_dir.parent / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(str(trace_file))
    metrics = layer_metrics(
        tracer.spans, len(traced),
        cells_evaluated=_cells_evaluated(out_dir, traced),
        output_bytes=sum(j["output_bytes"] for j in traced),
        speed_scale={j["index"]: j["speed_scale"] for j in traced})
    jps_plain = len(plain) / seconds["u"]
    jps_traced = len(traced) / seconds["t"]
    metrics["trace.jobs_per_s_untraced"] = (jps_plain, "1/s")
    metrics["trace.jobs_per_s_traced"] = (jps_traced, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (jps_plain / jps_traced - 1.0), "%")
    return {"jobs": plain + traced, "layer_metrics": metrics,
            "trace_file": trace_file.name, "spans": len(tracer.spans),
            "unattributed": dict(tracer.unattributed)}


if __name__ == "__main__":
    sys.exit(main())
