"""Independent references for every benchmark output.

Nothing here imports the package under test.  Each reference is rebuilt
from the job's own parameters: closed forms of the E x e model, discrete
dispersion relations, and ``numpy.linalg.eigvalsh`` of a matrix this module
builds itself.  No stored copy of an earlier output is compared against, so
a change that corrects the method is not failed for changing digits.

``check_job(job, outputs)`` returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import RING_GRID, RING_LEVELS, SPIN_PERIOD, SPIN_STEPS, Job

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)

# Node angles are refined by bisection to 1e-10 rad.
NODE_TOL = 1e-8
# Phases that are exactly 0 or pi for a real branch.
PHASE_TOL = 1e-9
# The geometric phase of a driven loop misses its adiabatic limit to first
# order in the adiabaticity ratio: by 0.44 to 0.62 times the ratio on the
# jobs generated here.
SPIN_PHASE_PER_RATIO = 2.0
# The lab and co-moving frames differ by the midpoint rule's step error,
# 1e-8 to 1e-7 rad on these jobs.
FRAME_TOL = 1e-6
NORM_TOL = 1e-12


def _angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, TWO_PI))


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _csv(lines: list[str]) -> list[dict]:
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def _coupling(k: float, g: float, r, theta):
    """f = k r e^{i theta} + (g/2) r^2 e^{-2 i theta}; |f| is half the gap."""
    return k * r * np.exp(1j * theta) + 0.5 * g * r * r * np.exp(-2j * theta)


def node_angles(k: float, g: float, r: float) -> list[float]:
    """Zeros of the anchor overlap on the circle r, in [0, 2 pi)."""
    rc = 2.0 * k / g
    if r < rc:
        return [math.pi]
    a = math.acos(k / (g * r))
    return [a, TWO_PI - a]


def degeneracies(k: float, g: float) -> list[tuple[float, float]]:
    """Cartesian conical intersections: the origin and three on r = 2k/g."""
    rc = 2.0 * k / g
    return [(0.0, 0.0)] + [(rc * math.cos(t), rc * math.sin(t))
                           for t in (math.pi / 3, math.pi, 5 * math.pi / 3)]


# --- loop-sweep ---------------------------------------------------------------

def _check_nodal_map(p: dict, text: str) -> list[str]:
    problems = []
    nodes_part, _, deg_part = text.partition("\n\n")
    rows = _csv(nodes_part.splitlines())
    radii = p["radii"]
    by_r: dict[float, dict[str, list[float]]] = {}
    for row in rows:
        by_r.setdefault(float(row["r"]), {}).setdefault(
            row["source"], []).append(float(row["theta_node"]))
    if len(by_r) != len(radii):
        problems.append(f"nodal-map: {len(by_r)} radii, expected {len(radii)}")
    for r in radii:
        match = [x for x in by_r if _close(x, r)]
        if len(match) != 1:
            problems.append(f"nodal-map: radius {r!r} missing")
            continue
        expected = node_angles(p["k"], p["g"], r)
        for source, tol in (("numeric", NODE_TOL), ("analytic", 1e-12)):
            got = sorted(by_r[match[0]].get(source, []))
            if len(got) != len(expected) or any(
                    _angle_diff(a, b) > tol for a, b in zip(got, expected)):
                problems.append(f"nodal-map r={r!r} {source} nodes {got} "
                                f"!= closed form {expected}")
    rc = 2.0 * p["k"] / p["g"]
    want = [(0.0, None)] + [(rc, t) for t in
                            (math.pi / 3, math.pi, 5 * math.pi / 3)]
    deg = _csv(deg_part.splitlines())
    got = [(float(d["r"]), float(d["theta"]) if d["theta"] else None)
           for d in deg]
    ok = len(got) == len(want) and all(
        _close(a[0], b[0]) and (a[1] is None) == (b[1] is None)
        and (a[1] is None or _close(a[1], b[1])) for a, b in zip(got, want))
    if not ok:
        problems.append(f"nodal-map degeneracies {got} != {want}")
    return problems


def _check_berry(p: dict, text: str) -> list[str]:
    out = json.loads(text)
    expected = node_angles(p["k"], p["g"], p["r_berry"])
    K = len(expected)
    problems = []
    if out["K"] != K:
        problems.append(f"berry: K={out['K']}, closed form {K}")
    got = sorted(out["node_angles"])
    if len(got) != K or any(_angle_diff(a, b) > NODE_TOL
                            for a, b in zip(got, expected)):
        problems.append(f"berry: nodes {got} != closed form {expected}")
    if _angle_diff(out["geometric_phase"], K * math.pi) > PHASE_TOL:
        problems.append(f"berry: phase {out['geometric_phase']!r} != K pi")
    if out["holonomy_sign"] != (-1) ** K:
        problems.append(f"berry: holonomy {out['holonomy_sign']} != (-1)^K")
    return problems


def check_loop_sweep(job: Job, outputs: list[str]) -> list[str]:
    return (_check_nodal_map(job.params, outputs[0])
            + _check_berry(job.params, outputs[1]))


# --- ci-search ----------------------------------------------------------------

def check_ci_search(job: Job, outputs: list[str]) -> list[str]:
    p = job.params
    out = json.loads(outputs[0])
    points = [tuple(pt) for pt in out["points"]]
    want = degeneracies(p["k"], p["g"])
    problems = []
    if len(points) != len(want):
        problems.append(f"locate-ci: {len(points)} points, expected {len(want)}")
    for w in want:
        near = [pt for pt in points
                if math.hypot(pt[0] - w[0], pt[1] - w[1]) <= p["spatial_tol"]]
        if len(near) != 1:
            problems.append(f"locate-ci: {len(near)} points within "
                            f"{p['spatial_tol']} of {w}")
    for (x, y), gap in zip(points, out["gaps"]):
        r, theta = math.hypot(x, y), math.atan2(y, x)
        ref = 2.0 * abs(_coupling(p["k"], p["g"], r, theta))
        if abs(gap - ref) > 1e-12 + 1e-6 * ref:
            problems.append(f"locate-ci: gap {gap!r} at {(x, y)} != 2|f| {ref!r}")
    return problems


# --- ring-spectra -------------------------------------------------------------

def _spectrum(text: str) -> tuple[dict, list[float], list[str]]:
    lines = text.splitlines()
    header = json.loads(lines[0][2:])
    rows = _csv(lines[1:])
    return header, [float(r["energy"]) for r in rows], [r["energy"] for r in rows]


def _hopping(r0: float) -> tuple[float, float]:
    h = TWO_PI / RING_GRID
    return h, 1.0 / (2.0 * r0 * r0 * h * h)


def flat_levels(r0: float, parity: str) -> np.ndarray:
    """(1/(r0^2 h^2)) (1 - cos q h), q integer (even) or half-odd (odd)."""
    h, t = _hopping(r0)
    shift = 0.0 if parity == "even" else 0.5
    q = np.arange(-RING_LEVELS, RING_LEVELS + 1) + shift
    return np.sort(2.0 * t * (1.0 - np.cos(q * h)))[:RING_LEVELS]


def chain_levels(r0: float, kept: int) -> np.ndarray:
    """Open chain of `kept` sites: 2t (1 - cos(j pi / (L + 1)))."""
    _, t = _hopping(r0)
    j = np.arange(1, RING_LEVELS + 1)
    return 2.0 * t * (1.0 - np.cos(j * math.pi / (kept + 1)))


def band_levels(k: float, g: float, r: float, parity: str) -> np.ndarray:
    """eigvalsh of the ring with potential r^2/2 - |f| (lower band)."""
    h, t = _hopping(r)
    theta = h * np.arange(RING_GRID)
    pot = 0.5 * r * r - np.abs(_coupling(k, g, r, theta))
    mat = np.diag(2.0 * t + pot) - t * np.eye(RING_GRID, k=1) \
        - t * np.eye(RING_GRID, k=-1)
    wrap = t if parity == "odd" else -t
    mat[0, -1] = mat[-1, 0] = wrap
    return np.linalg.eigvalsh(mat)[:RING_LEVELS]


def _level_problems(tag: str, got: list[float], want: np.ndarray,
                    scale: float) -> list[str]:
    # A backward-stable symmetric eigensolver errs by a small multiple of
    # eps * ||H||; ||H|| <= 4t + max |V|.
    tol = 1e3 * EPS * scale
    if len(got) != len(want):
        return [f"{tag}: {len(got)} levels, expected {len(want)}"]
    worst = float(np.max(np.abs(np.asarray(got) - want)))
    if worst > tol:
        return [f"{tag}: levels off by {worst:.3e} > {tol:.3e}"]
    return []


def check_ring_spectra(job: Job, outputs: list[str]) -> list[str]:
    p = job.params
    problems = []
    _, t = _hopping(p["r0"])
    for text, parity in zip(outputs[:2], ("even", "odd")):
        header, levels, _ = _spectrum(text)
        boundary = "periodic" if parity == "even" else "antiperiodic"
        if header["boundary"] != boundary or header["flux_parity"] != parity:
            problems.append(f"flat {parity}: header {header}")
        problems += _level_problems(f"flat {parity}", levels,
                                    flat_levels(p["r0"], parity), 4.0 * t)

    rc = 2.0 * p["k"] / p["g"]
    parity = "odd" if p["r_band"] < rc else "even"
    header, levels, _ = _spectrum(outputs[2])
    if header["flux_parity"] != parity:
        problems.append(f"model band: parity {header['flux_parity']}, "
                        f"closed form {parity}")
    r = p["r_band"]
    _, t_band = _hopping(r)
    # |V| <= r^2/2 + |f| <= r^2/2 + k r + g r^2/2
    v_max = 0.5 * r * r + p["k"] * r + 0.5 * p["g"] * r * r
    problems += _level_problems(
        "model band", levels, band_levels(p["k"], p["g"], r, parity),
        4.0 * t_band + v_max)

    j_lo, j_hi = p["barrier_points"]
    kept = RING_GRID - (j_hi - j_lo + 1)
    cut = []
    for text, parity in zip(outputs[3:5], ("even", "odd")):
        header, levels, raw = _spectrum(text)
        if header["boundary"] != "dirichlet-barrier":
            problems.append(f"barrier {parity}: header {header}")
        problems += _level_problems(f"barrier {parity}", levels,
                                    chain_levels(p["r0"], kept), 4.0 * t)
        cut.append(raw)
    if cut[0] != cut[1]:
        problems.append("barrier: even and odd parity levels differ")
    return problems


# --- spin-drive ---------------------------------------------------------------

def adiabaticity(k: float, g: float, r: float) -> float:
    """max |d alpha/d theta| |theta dot| / Delta over the drive's samples."""
    theta = TWO_PI * np.arange(SPIN_STEPS + 1) / SPIN_STEPS
    e1, e2 = np.exp(1j * theta), np.exp(-2j * theta)
    f = k * r * e1 + 0.5 * g * r * r * e2
    dalpha = np.real((k * r * e1 - g * r * r * e2) / f)
    return float(np.max(np.abs(dalpha) * (TWO_PI / SPIN_PERIOD) / np.abs(f)))


def _spin_summary(text: str) -> tuple[dict, list[str]]:
    series, _, summary = text.partition("\n{")
    return json.loads("{" + summary), series.splitlines()


def check_spin_drive(job: Job, outputs: list[str]) -> list[str]:
    p = job.params
    phase = math.pi * (p["nodes"] % 2)
    ratio = adiabaticity(p["k"], p["g"], p["r"])
    tol = SPIN_PHASE_PER_RATIO * ratio
    problems = []
    geo = []
    for text, frame in zip(outputs, ("comoving", "lab")):
        s, series = _spin_summary(text)
        if not _close(s["adiabaticity_ratio"], ratio, 1e-6):
            problems.append(f"spin {frame}: ratio {s['adiabaticity_ratio']!r} "
                            f"!= {ratio!r}")
        miss = _angle_diff(s["geometric_phase"], phase)
        if miss > tol:
            problems.append(f"spin {frame}: phase {s['geometric_phase']!r} "
                            f"misses {phase!r} by {miss:.3e} > {tol:.3e}")
        if _angle_diff(s["ac_loop_phase"], phase) > PHASE_TOL:
            problems.append(f"spin {frame}: loop phase {s['ac_loop_phase']!r}")
        rows = _csv(series)
        norms = np.array([float(r["norm"]) for r in rows])
        if abs(s["final_norm"] - 1.0) > NORM_TOL or \
                np.max(np.abs(norms - 1.0)) > NORM_TOL:
            problems.append(f"spin {frame}: norm off 1")
        geo.append(s["geometric_phase"])
    if _angle_diff(geo[0], geo[1]) > FRAME_TOL:
        problems.append(f"spin: frames disagree, {geo[0]!r} vs {geo[1]!r}")
    return problems


CHECKS = {
    "loop-sweep": check_loop_sweep,
    "ci-search": check_ci_search,
    "ring-spectra": check_ring_spectra,
    "spin-drive": check_spin_drive,
}


def check_job(job: Job, outputs: list[str]) -> list[str]:
    try:
        return CHECKS[job.workload](job, outputs)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
