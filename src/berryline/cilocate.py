"""Locating conical intersections by loop-sign bisection.

A real eigenvector transported around a loop returns with sign (-1)^(number
of enclosed degeneracies) (Longuet-Higgins, Proc. R. Soc. A 344, 147, 1975).
Each cell side is a link with one transport sign between the raw eigenvectors
at its ends (Fukui, Hatsugai & Suzuki, J. Phys. Soc. Jpn. 74, 1674, 2005); a
cell's sign is the product of its four links, so a shared side cancels and
quadrants multiply to the sign of their outer boundary.  Cells are split
unconditionally down to a minimum depth, so a pair of intersections in one
coarse cell (parity +1) is not lost; below it, cells reading +1 are pruned
and cells below the spatial tolerance are polished by gap minimization.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .eigenpath import (CONTINUATION_MIN_OVERLAP, GAP_TOL, HamiltonianField,
                        band_steps)
from .errors import CellLimitExceeded, DegeneracyOnBoundary, MaxDepthExceeded

# Sample points per field call when links are scored, which bounds the memory
# a quadtree level takes whatever its number of cells.
_CHUNK_POINTS = 1 << 16

# Cells a quadtree level may hold: the 4^8 of a full level at the deepest
# minimum depth the command line allows.
MAX_LEVEL_CELLS = 4 ** 8

# Largest bound magnitude of a search rectangle: every cell's width and
# centre then stay finite at every depth.
MAX_RECT_BOUND = sys.float_info.max / 2


@dataclass(frozen=True)
class SearchRect:
    """Axis-aligned Cartesian rectangle, bounds within MAX_RECT_BOUND: a
    search window, a confirmation box, or the cell an error names.  The
    quadtree's own cells are rows of a level array (locate_ci)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle {self}")
        if not all(abs(v) <= MAX_RECT_BOUND
                   for v in (self.x_min, self.x_max, self.y_min, self.y_max)):
            raise ValueError(f"rectangle bounds must be within "
                             f"+-{MAX_RECT_BOUND!r}, got {self}")


def _rows(rects) -> np.ndarray:
    """The (m, 4) rows (x_min, x_max, y_min, y_max) of `rects`."""
    return np.array([(r.x_min, r.x_max, r.y_min, r.y_max) for r in rects],
                    dtype=float).reshape(-1, 4)


def _read_ahead(a, b, ga, gb, n: int, gap_tol: float, room: int):
    """Sub-steps of pending steps that later rounds are likely to sample.

    Step i runs from a[i] to b[i], with gaps ga[i] and gb[i] at its ends.
    Its chain holds the nested sub-steps (of n to a step) that contain the
    secant guess t = ga/(ga + gb) of the gap's zero: each level takes
    sub-step j = floor(t n) of the last and carries t n - j.  A chain stops
    where its guessed gap scale (ga + gb)/n^m falls to gap_tol or its
    sub-step is at float resolution, and all chains hold at most `room`
    sub-steps.  End points are the samples a round forms, float for float.
    Returns `kid`, which maps (row, j) to the row of sub-step j of that row,
    and the (m, 2, 2) end points: the steps are rows 0 to len(a) - 1 and
    sub-step i is row len(a) + i.
    """
    kid: dict[tuple[int, int], int] = {}
    ends: list[tuple[tuple[float, float], tuple[float, float]]] = []
    for row, ((ax, ay), (bx, by), g, h) in enumerate(
            zip(a.tolist(), b.tolist(), ga.tolist(), gb.tolist())):
        scale = g + h
        t = g / scale if scale > 0.0 else math.nan
        while len(ends) < room and 0.0 <= t <= 1.0:
            scale /= n
            if not scale > gap_tol:
                break
            j = min(int(t * n), n - 1)
            t = t * n - j
            dx, dy = bx - ax, by - ay
            if j + 1 < n:
                bx, by = ax + (j + 1) / n * dx, ay + (j + 1) / n * dy
            ax, ay = ax + j / n * dx, ay + j / n * dy
            mx, my = ax + 0.5 * (bx - ax), ay + 0.5 * (by - ay)
            if (mx == ax and my == ay) or (mx == bx and my == by):
                break
            kid[row, j] = len(a) + len(ends)
            row = kid[row, j]
            ends.append(((ax, ay), (bx, by)))
    return kid, np.array(ends, dtype=float).reshape(-1, 2, 2)


def _link_signs(field: HamiltonianField, ends: np.ndarray, band: int,
                samples_per_edge: int,
                gap_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Transport sign of `band` along straight links, and their smallest gaps.

    ends[i] holds the end points of link i; its sign is the product of the
    step-overlap signs of the raw eigenvectors along it.  A step with
    |overlap| < 0.5 is sampled again alone, with at least 2 sub-steps, round
    after round.  Sign 0 marks a link through a degeneracy: a sample with
    gap <= gap_tol, or such a step too short for float resolution to split.

    A short step lies near a cone, and the rounds close in on it one
    sub-step at a time.  So the field call for a round's steps also reads
    ahead along each of them (_read_ahead), and the rounds are then
    replayed link by link from the samples in hand: the minimum gap (NaN
    wins, as in np.minimum), the parity of the negative steps that are not
    short, the float-resolution test and the stop at gap_tol.  A link's
    replay goes on while each of its short steps is the sub-step its chain
    guessed; at the first round that needs another, its short steps and
    their end gaps wait for the next call.  Every sample is the float the
    round-by-round walk forms and band_steps works point by point, so sign
    and low are bit for bit those of that walk.
    """
    sign = np.ones(len(ends))
    low = np.full(len(ends), math.inf)
    link, a, b = np.arange(len(ends)), ends[:, 0], ends[:, 1]
    ga = gb = None  # end gaps of the pending steps: none before a round
    n = samples_per_edge
    while len(link):
        frac = np.arange(n + 1)[:, None] / n
        per = max(1, _CHUNK_POINTS // (n + 1))
        pending = len(link)
        kid, chain = ({}, ends[:0]) if ga is None else _read_ahead(
            a, b, ga, gb, n, gap_tol, per - pending)
        a = np.concatenate((a, chain[:, 0]))
        b = np.concatenate((b, chain[:, 1]))
        parts = []
        for c in range(0, len(a), per):
            ca, cb = a[c:c + per], b[c:c + per]
            pts = ca[:, None] + frac * (cb - ca)[:, None]
            pts[:, -1] = cb  # a + (b - a) can round off the shared end b
            _, _, gaps, _, steps = band_steps(field, pts, band)
            short = np.abs(steps) < CONTINUATION_MIN_OVERLAP
            odd = ((steps < 0.0) & ~short).sum(axis=1) % 2 == 1
            p, j = np.nonzero(short)
            parts.append((gaps.min(axis=1), odd, c + p, j, pts[p, j],
                          pts[p, j + 1], gaps[p, j], gaps[p, j + 1]))
        rowmin, odd, row, j, sa, sb, sga, sgb = (
            np.concatenate(x) for x in zip(*parts))
        # the round this call was made for, over all its steps at once
        np.minimum.at(low, link, rowmin[:pending])
        np.multiply.at(sign, link, np.where(odd[:pending], -1.0, 1.0))
        mid = sa + 0.5 * (sb - sa)
        stuck = ((mid == sa).all(axis=1) | (mid == sb).all(axis=1)).tolist()
        # then each link with a short step, round after round
        rowmin, odd = rowmin.tolist(), odd.tolist()
        rows, js, linked = row.tolist(), j.tolist(), link.tolist()
        first: dict[int, list[int]] = {}  # link -> its short steps
        shorts: dict[int, list[int]] = {}  # read-ahead row -> its short steps
        for k, r in enumerate(rows):
            if r < pending:
                first.setdefault(linked[r], []).append(k)
            else:
                shorts.setdefault(r, []).append(k)
        wait, wait_link = [], []
        for lk, ks in first.items():
            lo, sg = low[lk].item(), sign[lk].item()
            while ks:
                if any(stuck[k] for k in ks):
                    sg = 0.0
                    break
                if not lo > gap_tol:
                    break
                subs = [kid.get((rows[k], js[k])) for k in ks]
                if None in subs:
                    wait += ks
                    wait_link += [lk] * len(ks)
                    break
                for r in subs:
                    if not (lo < rowmin[r] or lo != lo):  # np.minimum's rule
                        lo = rowmin[r]
                    if odd[r]:
                        sg = -sg
                ks = [k for r in subs for k in shorts.get(r, ())]
            low[lk], sign[lk] = lo, sg
        wait = np.array(wait, dtype=np.intp)
        link, a, b = np.array(wait_link, dtype=np.intp), sa[wait], sb[wait]
        ga, gb = sga[wait], sgb[wait]
        n = max(2, samples_per_edge)
    sign[low <= gap_tol] = 0.0
    return sign, low


def _cell_signs(field: HamiltonianField, cells: np.ndarray, band: int,
                samples_per_edge: int,
                gap_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Loop sign of each (x_min, x_max, y_min, y_max) row of `cells` (0: a
    side through a degeneracy) and the smallest gap sampled on its boundary.
    Each distinct side is scored once, the links in the order their cells
    first name them: bottom, right, top, left."""
    index: dict[tuple[float, float, float, float], int] = {}
    sides = [index.setdefault(link, len(index))
             for x0, x1, y0, y1 in cells.tolist() for link in (
                 (x0, y0, x1, y0), (x1, y0, x1, y1),
                 (x0, y1, x1, y1), (x0, y0, x0, y1))]
    ends = np.array(list(index), dtype=float).reshape(-1, 2, 2)
    sign, low = _link_signs(field, ends, band, samples_per_edge, gap_tol)
    sides = np.array(sides, dtype=np.intp).reshape(-1, 4)
    return sign[sides].prod(axis=1), low[sides].min(axis=1)


def _check_samples(samples_per_edge: int) -> None:
    if samples_per_edge < 1:
        raise ValueError(f"samples_per_edge must be >= 1, "
                         f"got {samples_per_edge!r}")


def loop_sign(field: HamiltonianField, rect: SearchRect, band: int = 0,
              samples_per_edge: int = 32, gap_tol: float = GAP_TOL) -> int:
    """Holonomy sign of `band` around the rectangle boundary.

    -1 iff the rectangle encloses an odd number of degeneracies of the band:
    the product of the transport signs of its four sides.  A side that runs
    through a degeneracy raises DegeneracyOnBoundary.
    """
    _check_samples(samples_per_edge)
    sign, low = _cell_signs(field, _rows([rect]), band, samples_per_edge,
                            gap_tol)
    if sign[0] == 0.0:
        raise DegeneracyOnBoundary(rect, float(low[0]), gap_tol)
    return int(sign[0])


@dataclass(frozen=True)
class CIResult:
    """Degeneracy points found in a search rectangle."""

    points: tuple[tuple[float, float], ...]
    gaps: tuple[float, ...]
    cells_evaluated: int
    depth_histogram: dict[int, int]


# The compass's axis probes, then a diagonal one for the model's cross term.
_POLL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])


def _compass_min(field: HamiltonianField, band: int, centers, steps,
                 gap_tol: float) -> list[tuple[float, float, float]]:
    """Gap minimization by axis-probe pattern search with step halving, from
    each of the (G, 2) `centers` with its step: (x, y, gap) of each.

    Seeded at a cell centre with a step of one cell side, so the first probes
    land half a side beyond each side of the cell and a degeneracy sitting
    exactly on the cell boundary is still inside the search.  A round probes
    the four axis points and one diagonal point at `step`, then the minimum
    of the quadratic through them and the centre, if it lies within one cell
    side; it moves to its best probe, or halves the step when none beats the
    centre.  A probe more than one side from its seed on either axis reads
    inf, so a search stays within its cell and a half-side margin, and where
    the gap falls on past that margin it ends at its edge instead of walking
    on.  The axis probes with step halving are the generating-set search of
    Kolda, Lewis & Torczon (SIAM Rev. 45, 385, 2003), the model probe its
    optional search step.  Near a cone the squared gap is close to that
    quadratic (equal to it for a linear 2x2 field), so the model probe
    reaches a cone whose gap valley runs off the axes, where axis probes gain
    only once the step is below the valley's width and then crawl, at a cost
    growing as the square of the cone's axis ratio.  A search stops once its
    gap is safely below gap_tol or its step reaches rounding scale, and
    gives the point with the gap measured there.

    The searches are independent and run in joint rounds: a round makes one
    band_steps call for the polls of every running search and one for the
    model probes that pass the side test, and each search moves, halves or
    stops on its own values, as if polished alone.
    """
    def gaps_at(pts):  # each probe a chain of one point: no overlaps formed
        return band_steps(field, pts[..., None, :], band)[2][..., 0]

    seed = np.array(centers, dtype=float).reshape(-1, 2)
    at = seed.copy()
    step = np.array(steps, dtype=float)
    side = step.copy()
    min_step = 1e-14 * np.maximum(1.0, np.abs(at).max(axis=1))
    best = gaps_at(at)
    while True:
        live = np.nonzero((step > min_step) & (best > 0.25 * gap_tol))[0]
        if not len(live):
            break
        h, o = step[live], at[live]
        pts = np.zeros((len(live), 6, 2))
        pts[:, :5] = o[:, None] + h[:, None, None] * _POLL
        # the polls, then the model probe; a missing model probe reads inf
        gaps = np.full((len(live), 6), math.inf)
        gaps[:, :5] = gaps_at(pts[:, :5])
        # squared gaps; the model's gradient and Hessian in units of step.
        # Past gaps of 1e154 the squares overflow, and a model or move that
        # reads inf or NaN fails its test and is skipped.  The move is formed
        # for every search but used only where the Hessian is positive
        # definite, so a division by a zero det is skipped too.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = best[live] * best[live]
            e, w, n, s, d = (gaps[:, :5] * gaps[:, :5]).T
            gx, gy = 0.5 * (e - w), 0.5 * (n - s)
            hxx, hyy, hxy = e - 2.0 * c + w, n - 2.0 * c + s, d - e - n + c
            det = hxx * hyy - hxy * hxy
            move = h[:, None] * np.stack((hxy * gy - hyy * gx,
                                          hxy * gx - hxx * gy), axis=1)
            move /= det[:, None]
            model = ((hxx > 0.0) & (det > 0.0)
                     & (np.abs(move).max(axis=1) <= side[live]))
        if model.any():
            pts[model, 5] = o[model] + move[model]
            gaps[model, 5] = gaps_at(pts[model, 5])
        far = np.abs(pts - seed[live, None]) > side[live, None, None]
        gaps[far.any(axis=2)] = math.inf
        j = np.argmin(gaps, axis=1)
        low = gaps[np.arange(len(live)), j]
        moved = low < best[live]
        at[live[moved]] = pts[moved, j[moved]]
        best[live[moved]] = low[moved]
        step[live[~moved]] *= 0.5
    return [(x, y, gap) for (x, y), gap in zip(at.tolist(), best.tolist())]


def locate_ci(field: HamiltonianField, rect: SearchRect, band: int = 0,
              spatial_tol: float = 1e-3, gap_tol: float = GAP_TOL,
              samples_per_edge: int = 32, min_depth: int = 4,
              max_depth: int = 24) -> CIResult:
    """Find all degeneracies of `band` inside `rect` to `spatial_tol`.

    Quadtree on the loop sign, scored a level at a time from `min_depth` on;
    a level is one (m, 4) array of (x_min, x_max, y_min, y_max) rows.  Cells
    that do not read +1 (sign -1, or a side through a degeneracy) survive; a
    survivor whose diameter is at most `spatial_tol` is polished by gap
    minimization, the others are split at their centres.  A degeneracy on a
    shared side survives in more than one cell, so survivors within 4
    `spatial_tol` of a group's first cell (in centre order) join that group
    and each group is polished once, within one side of that cell and all
    groups in joint rounds (_compass_min); a point is dropped when the loop
    of half-side `spatial_tol` around it reads +1, as around a cone of even
    winding.  `gaps` holds the gap the polish measured at each point.
    Raises MaxDepthExceeded if a survivor is still wider than `spatial_tol`
    at `max_depth`, or at float resolution (no centre strictly between its
    sides; the first such cell of the level), CellLimitExceeded if a level
    would hold more than MAX_LEVEL_CELLS cells, and DegeneracyOnBoundary if
    the loop around a point runs through a degeneracy, as where the gap is
    below `gap_tol` over a whole region.  `cells_evaluated` counts the
    cells whose loop sign was computed.
    """
    _check_samples(samples_per_edge)
    def signs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _cell_signs(field, cells, band, samples_per_edge, gap_tol)

    depth_histogram: dict[int, int] = {}
    hits: list[list[float]] = []
    cells, depth = _rows([rect]), 0
    while len(cells):
        if depth >= min_depth:
            depth_histogram[depth] = len(cells)
            cells = cells[signs(cells)[0] != 1.0]
            diameter = np.array([math.hypot(w, h) for w, h in
                                 (cells[:, 1::2] - cells[:, ::2]).tolist()])
            hits += cells[diameter <= spatial_tol].tolist()
            cells = cells[diameter > spatial_tol]
            if len(cells) and depth >= max_depth:
                raise MaxDepthExceeded(depth, SearchRect(*cells[0].tolist()))
        if 4 * len(cells) > MAX_LEVEL_CELLS:
            raise CellLimitExceeded(depth, len(cells), gap_tol)
        x0, x1, y0, y1 = cells.T
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        inside = (x0 < cx) & (cx < x1) & (y0 < cy) & (cy < y1)
        if not inside.all():  # float resolution: no centre between the sides
            raise MaxDepthExceeded(depth,
                                   SearchRect(*cells[~inside][0].tolist()))
        cells = np.stack((x0, cx, y0, cy, cx, x1, y0, cy, x0, cx, cy, y1,
                          cx, x1, cy, y1), axis=1).reshape(-1, 4)
        depth += 1

    # A degeneracy on a shared side survives in several cells: polish each
    # group once, from its first cell; points come in that cell's centre order.
    groups: list[list[float]] = []  # centre x, y and side of each first cell
    for seed in sorted(([0.5 * (x0 + x1), 0.5 * (y0 + y1),
                         max(x1 - x0, y1 - y0)] for x0, x1, y0, y1 in hits),
                       key=lambda s: s[:2]):
        if not any(math.dist(seed[:2], g[:2]) <= 4.0 * spatial_tol
                   for g in groups):
            groups.append(seed)
    found = _compass_min(field, band, [g[:2] for g in groups],
                         [g[2] for g in groups], gap_tol)
    boxes = [SearchRect(x - spatial_tol, x + spatial_tol,
                        y - spatial_tol, y + spatial_tol) for x, y, _ in found]
    box_signs, box_gaps = signs(_rows(boxes))
    if (box_signs == 0.0).any():
        j = int(np.argmax(box_signs == 0.0))
        raise DegeneracyOnBoundary(boxes[j], float(box_gaps[j]), gap_tol)
    found = [pt for pt, s in zip(found, box_signs) if s == -1.0]
    return CIResult(points=tuple((x, y) for x, y, _ in found),
                    gaps=tuple(gap for _, _, gap in found),
                    cells_evaluated=sum(depth_histogram.values()),
                    depth_histogram=depth_histogram)
