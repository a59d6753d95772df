"""Seeded inputs of the four benchmark workloads.

A job is a fixed group of CLI calls (argv lists for ``berryline.cli.main``)
plus the physical parameters the checker needs to rebuild its references.
Every job of a workload has the same shape: the same subcommands, the same
sizes, and physics drawn from the seed inside ranges that keep the work per
job constant (see README.md).  Nothing here imports the package under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Sizes shared by every job; nodal-map and berry keep their default 2048
# theta-samples, as in the README examples.
SWEEP_RADII = 8               # radii per nodal-map sweep, half inside 2k/g
RING_GRID = 1024              # spectrum --M
RING_LEVELS = 8               # spectrum --levels
SPIN_STEPS = 1 << 20          # spin --steps, as in the README
SPIN_PERIOD = 20000.0         # spin --period, as in the README
CI_HALF_WIDTH = 3.0           # locate-ci window [-3, 3]^2, as in the README
CI_SAMPLES_PER_EDGE = 8       # locate-ci --samples-per-edge (default 32)

WORKLOADS = ("loop-sweep", "ci-search", "ring-spectra", "spin-drive")


@dataclass
class Job:
    """One unit of load: CLI calls run back to back, timed as one."""

    workload: str
    index: int
    calls: list[list[str]]
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    """Shortest repr: the CLI parses back exactly the float the checker uses."""
    return repr(float(x))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # processes and Python versions; job i does not depend on how many
    # jobs a run reaches.
    return random.Random(f"berryline-bench/{workload}/{seed}/{index}")


def loop_sweep_job(seed: int, index: int) -> Job:
    rng = _rng("loop-sweep", seed, index)
    k = round(rng.uniform(0.6, 1.4), 6)
    g = round(rng.uniform(0.6, 1.4), 6)
    rc = 2.0 * k / g
    # Eight radii start + j*step; the degeneracy circle falls between the
    # fourth and fifth, at least 5% of rc away from both.
    step = rng.uniform(0.18, 0.22) * rc
    start = rc - (SWEEP_RADII // 2 - 1 + rng.uniform(0.3, 0.7)) * step
    # Half a step past the last radius, so the CLI's floor() count is exact.
    stop = start + (SWEEP_RADII - 0.5) * step
    r_berry = round(rng.uniform(0.3, 0.8) * rc, 6)
    sweep = f"{_num(start)}:{_num(stop)}:{_num(step)}"
    calls = [
        ["nodal-map", "--k", _num(k), "--g", _num(g), "--r", sweep],
        ["berry", "--k", _num(k), "--g", _num(g), "--r", _num(r_berry)],
    ]
    radii = [start + j * step for j in range(SWEEP_RADII)]
    return Job("loop-sweep", index, calls,
               {"k": k, "g": g, "radii": radii, "r_berry": r_berry})


def ci_search_job(seed: int, index: int) -> Job:
    rng = _rng("ci-search", seed, index)
    # g = k, as in the README example: the degeneracies sit at the origin,
    # (1, +-sqrt 3) and (-2, 0) for every seed, and the seed sets the energy
    # scale.  The locator's cells see the same geometry in every job, so
    # every job does the same work; moving the outer degeneracies makes the
    # locator fail on some seeds (CHANGES.md).  Eight boundary samples per
    # edge instead of the default 32 leave the quadtree the same (656 cells,
    # the same expansions and refinements) at a quarter of the field
    # evaluations, so a run holds several jobs and its median is steady.
    k = round(rng.uniform(0.7, 1.3), 6)
    g = k
    w = _num(CI_HALF_WIDTH)
    mw = _num(-CI_HALF_WIDTH)
    calls = [["locate-ci", "--k", _num(k), "--g", _num(g),
              "--x-min", mw, "--x-max", w, "--y-min", mw, "--y-max", w,
              "--samples-per-edge", str(CI_SAMPLES_PER_EDGE)]]
    return Job("ci-search", index, calls,
               {"k": k, "g": g, "spatial_tol": 1e-3})


def ring_spectra_job(seed: int, index: int) -> Job:
    rng = _rng("ring-spectra", seed, index)
    r0 = round(rng.uniform(0.8, 1.25), 6)
    k = round(rng.uniform(0.7, 1.3), 6)
    g = round(rng.uniform(0.7, 1.3), 6)
    r_band = round(rng.uniform(0.4, 0.8) * 2.0 * k / g, 6)
    # Barrier edges sit a quarter step or more off the half-grid points,
    # so the snapping of both edges to the grid is unambiguous.
    h = 2.0 * math.pi / RING_GRID
    j_lo = rng.randrange(RING_GRID // 5, RING_GRID // 2)
    j_hi = j_lo + rng.randrange(RING_GRID // 10, RING_GRID // 4)
    b_start = round((j_lo + rng.uniform(-0.25, 0.25)) * h, 9)
    b_end = round((j_hi + rng.uniform(-0.25, 0.25)) * h, 9)
    grid = ["--M", str(RING_GRID), "--levels", str(RING_LEVELS)]
    flat = ["spectrum", "--flat", "--r0", _num(r0)]
    barrier = ["--barrier", f"{_num(b_start)}:{_num(b_end)}"]
    calls = [
        flat + ["--parity", "even"] + grid,
        flat + ["--parity", "odd"] + grid,
        ["spectrum", "--k", _num(k), "--g", _num(g), "--r0", _num(r_band)] + grid,
        flat + ["--parity", "even"] + grid + barrier,
        flat + ["--parity", "odd"] + grid + barrier,
    ]
    return Job("ring-spectra", index, calls,
               {"r0": r0, "k": k, "g": g, "r_band": r_band,
                "barrier_points": (j_lo, j_hi)})


def _spin_delta_max(k: float, g: float, r: float) -> float:
    return k * r + 0.5 * g * r * r


def spin_drive_job(seed: int, index: int) -> Job:
    rng = _rng("spin-drive", seed, index)
    # Even jobs drive a loop around the origin alone (K = 1, phase pi), odd
    # jobs one around all four degeneracies (K = 2, phase 0); the cost of a
    # spin call does not depend on which.  Redraw until the largest gap
    # keeps the README's step count resolved (the CLI rejects
    # dt * 2 Delta >= 0.1).
    inside = index % 2 == 0
    while True:
        k = round(rng.uniform(0.4, 1.0), 6)
        g = round(rng.uniform(0.6, 1.2), 6)
        rc = 2.0 * k / g
        frac = rng.uniform(0.45, 0.8) if inside else rng.uniform(1.3, 1.7)
        r = round(frac * rc, 6)
        if _spin_delta_max(k, g, r) <= 1.5:
            break
    common = ["spin", "--k", _num(k), "--g", _num(g), "--r", _num(r),
              "--period", _num(SPIN_PERIOD), "--steps", str(SPIN_STEPS)]
    calls = [common + ["--frame", "comoving"], common + ["--frame", "lab"]]
    return Job("spin-drive", index, calls,
               {"k": k, "g": g, "r": r, "nodes": 1 if inside else 2})


_MAKERS = {
    "loop-sweep": loop_sweep_job,
    "ci-search": ci_search_job,
    "ring-spectra": ring_spectra_job,
    "spin-drive": spin_drive_job,
}


def make_job(workload: str, seed: int, index: int) -> Job:
    return _MAKERS[workload](seed, index)


def warmup_job(workload: str, seed: int) -> Job:
    """The untimed job that runs first, so caches fill before the timing.

    Its index, -1, is never a timed job's.  A full degeneracy search takes
    about three seconds; one on a small window around the origin alone runs
    the same code (loop signs, boundary tracking, gap polish) in a fraction
    of that.
    """
    job = make_job(workload, seed, -1)
    if workload == "ci-search":
        job.calls = [job.calls[0][:5] + [
            "--x-min", "-0.37", "--x-max", "0.41", "--y-min", "-0.33",
            "--y-max", "0.45", "--min-depth", "2",
            "--samples-per-edge", str(CI_SAMPLES_PER_EDGE)]]
    return job
