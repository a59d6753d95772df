#!/usr/bin/env python3
"""SHA-256 digests of a fixed list of CLI calls, to compare two checkouts.

Each call runs in-process through ``berryline.cli.main`` inside a fresh
temporary directory.  Its digest covers the argv, the exit code, stdout,
stderr, and the name and bytes of every file the call writes, each field
length-prefixed (8-byte big-endian) in that order, text as UTF-8 and files
sorted by name.  The total is the SHA-256 of the per-call hex digests joined
in list order.  The package is imported from the ``src/`` of the checkout
that holds this script, so copying the script into another checkout compares
that checkout's code.

The calls: jobs 0-3 of seeds 301 and 302 of every benchmark workload (built
by ``benchmarks/workloads.make_job``), the README examples, and extra calls
that pin edge cases of the option checks, the barrier spectra and the
degeneracy locator.

Typical use:
    python3 scripts/cli_digest.py            # one line per call, then the total
    python3 scripts/cli_digest.py --quiet    # the total only
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from berryline.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS, make_job  # noqa: E402

SEEDS = (301, 302)
JOBS_PER_SEED = 4

README = [
    "berry --k 1 --g 1 --r 1",
    "nodal-map --k 1 --g 1 --r 0.5:3.5:0.5 --nodes-out nodes.csv "
    "--degeneracies-out cis.csv",
    "spectrum --flat --parity odd --M 1024 --levels 8",
    "spectrum --k 1 --g 1 --r 1 --grid 1024",
    "locate-ci --k 1 --g 1 --x-min -3 --x-max 3 --y-min -3 --y-max 3",
    "spin --k 1 --g 1 --r 1 --period 20000 --steps 1048576",
]

EXTRA = [
    "spin --k 1 --g 1 --r 1 --period 20000 --steps 65536 --frame lab",
    "spectrum --flat --parity odd --grid 64 --barrier 0.5:1.2 --levels 4",
    "spectrum --flat --parity even --grid 64 --barrier 0.5:1.2 --levels 4",
    "spectrum --k 1 --g 1 --r0 1 --grid 256 --barrier 0.5:1.2 --parity even",
    "spectrum --k 1 --g 1 --r0 1 --grid 256 --barrier 0.5:1.2 --parity odd",
    "spin --k 1 --g 1 --r 1 --period inf --steps 64",
    "spin --k 1 --g 1 --r 1 --period 20000 --steps 64 --theta0 nan",
    "locate-ci --k 1 --g 1 --samples-per-edge 8 --gap-tol nan",
    # the degeneracy locator's edge cases
    "locate-ci --k 0.869859 --g 0.827127 --x-min -3 --x-max 3 --y-min -3 "
    "--y-max 3",
    "locate-ci --k 0 --g 1",
    "locate-ci --k 1 --g 1 --samples-per-edge 1",
    "locate-ci --k 1 --g 1 --spatial-tol 1e-300 --gap-tol 1e-300 "
    "--max-depth 100",
    "locate-ci --k 1 --g 1 --x-min -0.6 --x-max 0.5 --y-min -0.55 "
    "--y-max 0.5 --spatial-tol 1e-9 --min-depth 2 --max-depth 6",
    "locate-ci --k 1 --g 1 --min-depth -1",
    "locate-ci --k 1 --g 1 --samples-per-edge 4097",
    "nodal-map --k 1 --g 1 --r 0.5:1e308:1e-300",
    "nodal-map --k 1 --g 1 --r 0:1:0.00001",
    # work-size ceilings
    "berry --k 1 --g 1 --r 1 --theta-samples 2097153",
    "nodal-map --k 1 --g 1 --r 1 --theta-samples 2097153",
    "spectrum --flat --parity odd --grid 4097",
    "spectrum --flat --parity odd --M 4097",
    "spin --k 1 --g 1 --r 1 --period 20000 --steps 2097153",
    # the residual bound at large couplings, and ring radii and grids
    # outside the option ranges
    "berry --k 1e7 --g 1 --r 1",
    "nodal-map --k 1e8 --g 1e8 --r 1",
    "spectrum --k 1e8 --g 1 --r0 1 --grid 64 --levels 2",
    "spectrum --k 1e300 --g 1 --r0 1 --grid 64 --levels 2",
    "spectrum --flat --parity odd --r0 1e-170 --grid 64 --levels 2",
    "spectrum --flat --parity odd --r0 1e160 --grid 64 --levels 2",
    "spectrum --flat --parity odd --grid 63",
    # unwritable destinations, and one output on stdout with the other in
    # a file
    "berry --k 1 --g 1 --r 1 --out missing/berry.json",
    "spectrum --flat --parity odd --grid 64 --levels 2 --out .",
    "nodal-map --k 1 --g 1 --r 1 --degeneracies-out missing/cis.csv",
    "spin --k 1 --g 1 --r 1 --period 200 --steps 16384 --summary-out .",
    "nodal-map --k 1 --g 1 --r 1 --degeneracies-out cis.csv",
    # couplings past the float range, a quadtree that prunes nothing, and
    # the residual at large ||H||
    "spin --k 1 --g 1 --r 1e200 --period 1 --steps 64",
    "spin --k 1 --g 1 --r 1e160 --period 1e300 --steps 64",
    "locate-ci --k 1e300 --g 1e300 --samples-per-edge 2",
    "locate-ci --k 1e-9 --g 1e-9 --samples-per-edge 1",
    "berry --k 1e300 --g 1e300 --r 1",
    "spectrum --k 1 --g 1 --r0 1e100 --grid 64 --levels 2",
    "spectrum --k 1 --g 1 --r0 1e150 --grid 64 --levels 2",
    # node angles that disagree with the closed form, drives that cannot be
    # sampled, entries near the end of the float range, and negative values
    # in exponent form
    "nodal-map --k 0 --g 7 --r 0.123 --theta-samples 2",
    "nodal-map --k 1e16 --g 1e16 --r 1e16 --theta-samples 16",
    "spin --k 1 --g 1 --r 1 --period 1e-300 --steps 64 --revolutions 1e-300",
    "spin --k 1 --g 1 --r 1 --period 1 --steps 64 --theta0 1e16",
    "berry --k 1.7e308 --g 0 --r 1",
    "berry --k 1e308 --g 1e308 --r 1",
    "spin --k 1 --g 1 --r 1 --period 200 --steps 16384 --theta0 -1e-3",
    "locate-ci --k 1 --g 1 --x-min -1e3 --samples-per-edge 2 --min-depth 2",
    # a bisection probe whose overlap is exactly zero, berry's closed-form
    # check, search windows past the window limit or overflowing inside it,
    # and the depth limit's range
    "berry --k 1e16 --g 1e16 --r 1e16 --theta-samples 16",
    "berry --k 0 --g 7 --r 0.123 --theta-samples 2",
    "locate-ci --k 1 --g 1 --x-min -1.7e308 --x-max 1.7e308 "
    "--samples-per-edge 1 --min-depth 0",
    "locate-ci --k 1 --g 1 --x-min 1e308 --x-max 1.7e308 --y-min 1e308 "
    "--y-max 1.7e308 --samples-per-edge 1 --min-depth 0",
    "locate-ci --k 1 --g 1 --x-min 2e307 --x-max 1.7e308 --y-min 2e307 "
    "--y-max 1.7e308",
    "locate-ci --k 1 --g 1 --x-min -8.9e307 --x-max 8.9e307 "
    "--samples-per-edge 1 --min-depth 0",
    "locate-ci --k 1 --g 1 --spatial-tol 1e308",
    "locate-ci --k 1 --g 1 --max-depth -3",
    "locate-ci --k 1 --g 1 --min-depth 4 --max-depth 3",
]


def calls() -> list[list[str]]:
    argvs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for index in range(JOBS_PER_SEED):
                argvs += make_job(workload, seed, index).calls
    return argvs + [line.split() for line in README + EXTRA]


def _field(h, data: bytes) -> None:
    h.update(len(data).to_bytes(8, "big"))
    h.update(data)


def call_digest(argv: list[str]) -> str:
    """Run one call in a fresh directory and hash what it shows and writes."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli_main(list(argv))
                except SystemExit as stop:
                    code = stop.code
                except Exception as crash:  # what a traceback would show
                    code = 1
                    print(f"uncaught {type(crash).__name__}: {crash}",
                          file=sys.stderr)
            files = sorted(p for p in Path(tmp).rglob("*") if p.is_file())
            written = [(str(p.relative_to(tmp)), p.read_bytes()) for p in files]
        finally:
            os.chdir(cwd)
    h = hashlib.sha256()
    _field(h, "\0".join(argv).encode())
    _field(h, str(code).encode())
    _field(h, out.getvalue().encode())
    _field(h, err.getvalue().encode())
    for name, data in written:
        _field(h, name.encode())
        _field(h, data)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quiet", action="store_true",
                    help="print the total digest only")
    args = ap.parse_args(argv)
    total = hashlib.sha256()
    for call in calls():
        digest = call_digest(call)
        total.update(digest.encode())
        if not args.quiet:
            print(digest, " ".join(call), flush=True)
    print(total.hexdigest(), f"total over {len(calls())} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
