#!/usr/bin/env python3
"""SHA-256 digests of a fixed list of CLI calls, to compare two checkouts.

Each call runs in-process through ``berryline.cli.main`` inside a fresh
temporary directory.  Its digest covers the argv, the exit code, stdout,
stderr, and the name and bytes of every file the call writes, each field
length-prefixed (8-byte big-endian) in that order, text as UTF-8 and files
sorted by name.  The total is the SHA-256 of the per-call hex digests joined
in list order.  The script exits 1 if any call ends in an uncaught
exception (what the installed command would show as a traceback), after
printing every digest and the total.  The package is imported from the
``src/`` of the checkout that holds this script, so copying the script into
another checkout compares that checkout's code.

The calls: jobs 0-3 of seeds 301 and 302 of every benchmark workload (built
by ``benchmarks/workloads.make_job``), the README examples, and extra calls
that pin edge cases of the option checks, the barrier spectra, the circle
grids, the degeneracy locator and the output writer.

With ``--against DIR`` the same calls also run on the checkout at DIR, in a
child process under the same ``-W`` options, and the script prints the
argv of each call whose digest differs there.  With ``--expect FILE`` it
exits 1 unless those calls are exactly the ones FILE lists, one argv a line
(blank lines and ``#`` comments ignored): a change FILE does not list fails,
and so does a listed call that did not change.

Typical use:
    python3 scripts/cli_digest.py            # one line per call, then the total
    python3 scripts/cli_digest.py --quiet    # the total only
    python3 -W error::RuntimeWarning scripts/cli_digest.py --quiet \
        --against ../parent --expect scripts/digest_changes.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
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
    # polar couplings and d alpha/d theta past the float range, a drive
    # sample on a degeneracy, drive steps near the ends of the float range
    # and a step field that squares past it, outer degeneracy radii 2k/g
    # that overflow or underflow, and a window whose gaps all lie below
    # gap_tol
    "berry --k 1 --g 1 --r 1e300",
    "nodal-map --k 1e308 --g 1 --r 2",
    "spectrum --k 1.7e308 --g 1 --r0 1e150 --grid 64 --levels 2",
    "spectrum --k 1.7e308 --g 1 --r0 1 --grid 64 --levels 2",
    "spin --k 1 --g 1 --r 2 --period 20000 --steps 65536",
    "spin --k 1 --g 1 --r 1 --period 1 --steps 64 --revolutions 1e-300",
    "spin --k 1 --g 1 --r 1 --period 1e300 --steps 64",
    "spin --k 1 --g 0 --r 1 --period 1e-154 --steps 4096",
    "nodal-map --k 1 --g 1e-320 --r 1",
    "nodal-map --k 1e-320 --g 1e300 --r 1",
    "locate-ci --k 1.01983e-07 --g 0 --x-min -0.0419356 --x-max 0.0272725 "
    "--y-min -0.0419356 --y-max 0.0419356 --samples-per-edge 4 --min-depth 2",
    # word options outside their choices, an empty sweep, and a radius
    # outside a degeneracy circle smaller than 1e-10
    "spectrum --k 1 --g 1 --r0 1 --grid 64 --levels 2 --parity foo",
    "spectrum --flat --parity foo --grid 64 --levels 2",
    "spin --k 1 --g 1 --r 1 --period 200 --steps 64 --frame rotating",
    "spin --k 1 --g 1 --r 1 --period 200 --steps 64 --initial middle",
    "nodal-map --k 1 --g 1 --r 3:1:0.5",
    "nodal-map --k 1e3 --g 1e14 --r 1e-10",
    "berry --k 1e3 --g 1e14 --r 1e-10",
    # a loop of radius 0
    "berry --k 1 --g 1 --r 0",
    # a store stride far above the step count, a drive sample on the
    # degeneracy set at the first sample of the second chunk, and a drive
    # whose time steps are not all equal
    "spin --k 1 --g 1 --r 1 --period 1 --steps 256 "
    "--store-stride 1099511627776",
    "spin --k 1 --g 1 --r 2 --period 1e6 --steps 98304",
    "spin --k 1 --g 1 --r 1 --period 30000 --steps 1048576 --frame lab",
    # record blocks longer than a chunk of steps: one block over the whole
    # drive, blocks of four chunks with the last one padded, and one block
    # of eight chunks whose last three are identity fill
    "spin --k 1 --g 1 --r 1 --period 40000 --steps 2097152 "
    "--store-stride 2097152",
    "spin --k 1 --g 1 --r 1 --period 4000 --steps 200000 "
    "--store-stride 65536",
    "spin --k 1 --g 1 --r 1 --period 1000 --steps 65537 "
    "--store-stride 131072",
    # records formed a group of RECORD_GROUP = 64 at a time: 1000 records
    # after the first (15 groups and 40), one group and one record in the
    # lab frame, and a stride above the step count
    "spin --k 1 --g 1 --r 1 --period 25 --steps 1000 --store-stride 1",
    "spin --k 1 --g 1 --r 1 --period 100 --steps 4160 --frame lab",
    "spin --k 1 --g 1 --r 0.5 --period 10 --steps 200 --store-stride 256",
    # nodes on samples of the j h grid, read on the half-step grid: both
    # nodes of the pure quadratic model in the upper band, coarse grids, and
    # a fine grid inside and outside 2k/g; then two circles whose half-step
    # grid fails to track
    "nodal-map --k 0 --g 1 --r 1:3:1 --band 1",
    "nodal-map --k 1 --g 1 --r 0.5:3.5:0.5 --theta-samples 4",
    "nodal-map --k 2 --g 1 --r 1:6:0.5 --theta-samples 4096",
    "nodal-map --k 1 --g 1 --r 1.8 --theta-samples 6",
    "nodal-map --k 42.67325818407535 --g 2.235120284800081 "
    "--r 37.911146602283374 --theta-samples 240",
    # berry on the degeneracy circle, and on the circle whose half-step grid
    # fails to track
    "berry --k 1 --g 1 --r 2",
    "berry --k 1 --g 1 --r 1.8 --theta-samples 6",
    # two outputs that name one file
    "nodal-map --k 1 --g 1 --r 1 --nodes-out same.csv "
    "--degeneracies-out same.csv",
    # rings of odd M split into mirror halves at both seams, a model ring of
    # odd M, and a cut ring that keeps an odd number of points
    "spectrum --flat --parity odd --grid 1025 --levels 8",
    "spectrum --flat --parity even --grid 1025 --levels 8",
    "spectrum --k 1 --g 1 --r0 1 --grid 1025",
    "spectrum --flat --parity odd --grid 256 --barrier 1:2 --levels 6",
    # the spin drive's one pass over chunks: the pure quadratic coupling in
    # the lab frame with every step recorded, the pure linear one from
    # theta0 = -0.0, step counts one short of a chunk, a whole chunk (its
    # last sample a chunk alone) and one past it, and drives whose mixing
    # angle winds past the branch cut several times; then 65536 records,
    # written a block at a time
    "spin --k 0 --g 1 --r 1 --period 200 --steps 16384 --frame lab "
    "--store-stride 1",
    "spin --k 1 --g 0 --r 1 --period 200 --steps 16384 --theta0 -0.0",
    "spin --k 1 --g 1 --r 1 --period 400 --steps 16383",
    "spin --k 1 --g 1 --r 1 --period 400 --steps 16384",
    "spin --k 1 --g 1 --r 1 --period 400 --steps 16385 --frame lab",
    "spin --k 1 --g 1 --r 1 --period 500 --steps 65536 --revolutions 3",
    "spin --k 1 --g 1 --r 3 --period 100 --steps 65536 --revolutions 2.5 "
    "--frame lab",
    "spin --k 1 --g 1 --r 0.5 --period 500 --steps 65536 --revolutions 5 "
    "--theta0 -3",
    "spin --k 1 --g 1 --r 1 --period 200 --steps 65536 --store-stride 1",
    # the grid each circle is read on first: the j h grid at odd n, the
    # half-step grid with pi/2 on a sample, a half-step grid that turns too
    # far near pi/3 to track, and a j h grid that turns too far to track
    # where the half-step grid reads the node
    "nodal-map --k 1 --g 1 --r 1 --theta-samples 2047",
    "nodal-map --k 0 --g 1 --r 1 --theta-samples 2050",
    "nodal-map --k 1 --g 1 --r 2.002 --theta-samples 1536",
    "nodal-map --k 0.09161824802866754 --g 0.7047567770360899 "
    "--r 0.2599903782919553 --theta-samples 21",
    "berry --k 0.09161824802866754 --g 0.7047567770360899 "
    "--r 0.2599903782919553 --theta-samples 21",
    # a bisection probe that lands where Im f is exactly 0, so its overlap
    # reads exactly 0.0
    "berry --k 0.7255114487347945 --g 2 --r 1",
    "nodal-map --k 0.7255114487347945 --g 2 --r 1",
    # sweeps whose circles share the bisection's rounds: the middle radius
    # read on its second grid, a radius that fails to track after one that
    # reads, and a node mismatch before a radius that fails to track; then
    # a search window whose four gap polishes stop after different numbers
    # of rounds
    "nodal-map --k 1 --g 1 --r 1.6:2.6:0.5 --theta-samples 30",
    "nodal-map --k 1 --g 1 --r 1.0:2.6:0.8 --theta-samples 6",
    "nodal-map --k 1 --g 1 --r 2.3:2.4:0.1 --theta-samples 3",
    "locate-ci --k 1 --g 0.5 --x-min -5 --x-max 3 --y-min -4 --y-max 4.5 "
    "--samples-per-edge 8",
    # links re-sampled from a read-ahead along the cone: a split line 1e-6
    # from two cones, where the guessed sub-steps are often wrong, and one
    # link through two cones
    "locate-ci --k 1 --g 1 --x-min -3 --x-max 3 --y-min -3.000001 "
    "--y-max 2.999999 --samples-per-edge 8",
    "locate-ci --k 1 --g 1 --x-min -2.5 --x-max 3.5 --y-min -1 --y-max 1 "
    "--min-depth 1 --samples-per-edge 8",
    # a window whose gap 2 k r falls toward the origin without a floor: the
    # gap polish of each of its many groups stays within one cell side of
    # its seed cell
    "locate-ci --k 1 --g 0 --x-min 450 --x-max 451 --y-min -0.5 --y-max 0.5 "
    "--gap-tol 3000 --spatial-tol 0.02 --samples-per-edge 1 --min-depth 0",
    # a drive midpoint on the degeneracy set, its error held back until
    # every sample is checked, and a config file that sets nothing
    "spin --k 1 --g 1 --r 2 --period 1e6 --steps 120003",
    "berry --config /dev/null --k 1 --g 1 --r 1",
    # small couplings refused by the absolute gap and degeneracy tolerances
    "berry --k 1e-9 --g 1e-9 --r 1",
    "nodal-map --k 1e-13 --g 1e-13 --r 1",
    "spin --k 1e-13 --g 1e-13 --r 1 --period 1e20 --steps 4096",
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


def call_digest(argv: list[str]) -> tuple[str, bool]:
    """Run one call in a fresh directory and hash what it shows and writes.

    Returns the hex digest and whether the call ended in an uncaught
    exception.
    """
    out, err = io.StringIO(), io.StringIO()
    crashed = False
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
                    code, crashed = 1, True
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
    return h.hexdigest(), crashed


def tree_digests(tree: Path, argvs: list[list[str]]) -> list[str]:
    """Per-call digests of `argvs` run on the checkout at `tree`.

    This script runs in a child process from a scratch directory that holds
    a copy of it, of `tree`'s ``src/`` and of this checkout's
    ``benchmarks/``, so `tree` itself is left as it was.
    """
    ignore = shutil.ignore_patterns("__pycache__", "results")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(Path(tree) / "src", Path(tmp) / "src", ignore=ignore)
        shutil.copytree(ROOT / "benchmarks", Path(tmp) / "benchmarks",
                        ignore=ignore)
        (Path(tmp) / "scripts").mkdir()
        script = shutil.copy(__file__, Path(tmp) / "scripts")
        child = subprocess.run(
            [sys.executable, *(f"-W{w}" for w in sys.warnoptions), script,
             "--calls-from-stdin"],
            input=json.dumps(argvs), capture_output=True, text=True)
    # a call that crashes there still has its digest; a child that could not
    # run the calls has fewer
    digests = [line.split(" ", 1)[0] for line in child.stdout.splitlines()[:-1]]
    if len(digests) != len(argvs):
        raise RuntimeError(f"the calls did not run on {tree}:\n{child.stderr}")
    return digests


def expected_changes(path: Path) -> set[str]:
    lines = (line.strip() for line in Path(path).read_text().splitlines())
    return {line for line in lines if line and not line.startswith("#")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quiet", action="store_true",
                    help="print the total digest only")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="also run the calls on the checkout at DIR and "
                         "print the calls whose digest differs there")
    ap.add_argument("--expect", type=Path, metavar="FILE",
                    help="with --against: exit 1 unless the calls that "
                         "differ are exactly those FILE lists")
    ap.add_argument("--calls-from-stdin", action="store_true",
                    help=argparse.SUPPRESS)  # how --against runs DIR
    args = ap.parse_args(argv)
    if args.expect is not None and args.against is None:
        ap.error("--expect needs --against")
    argvs = json.load(sys.stdin) if args.calls_from_stdin else calls()
    total = hashlib.sha256()
    crashes, digests = [], []
    for call in argvs:
        digest, crashed = call_digest(call)
        total.update(digest.encode())
        digests.append(digest)
        if crashed:
            crashes.append(" ".join(call))
        if not args.quiet:
            print(digest, " ".join(call), flush=True)
    print(total.hexdigest(), f"total over {len(argvs)} calls")
    for call in crashes:
        print(f"uncaught exception: {call}", file=sys.stderr)
    failed = bool(crashes)
    if args.against is not None:
        theirs = tree_digests(args.against, argvs)
        changed = [" ".join(call) for call, ours, base
                   in zip(argvs, digests, theirs) if ours != base]
        print(f"{len(changed)} of {len(argvs)} calls differ from {args.against}")
        for call in changed:
            print(f"changed: {call}")
        if args.expect is not None:
            want = expected_changes(args.expect)
            for call in changed:
                if call not in want:
                    print(f"unlisted change: {call}", file=sys.stderr)
                    failed = True
            for call in sorted(want - set(changed)):
                print(f"listed but unchanged: {call}", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
