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

from .eigenpath import CONTINUATION_MIN_OVERLAP, HamiltonianField, band_gaps, band_steps
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
    """Axis-aligned Cartesian search rectangle, bounds within MAX_RECT_BOUND."""

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

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def diameter(self) -> float:
        return math.hypot(self.width, self.height)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def quadrants(self) -> tuple["SearchRect", ...]:
        cx, cy = self.center
        return (
            SearchRect(self.x_min, cx, self.y_min, cy),
            SearchRect(cx, self.x_max, self.y_min, cy),
            SearchRect(self.x_min, cx, cy, self.y_max),
            SearchRect(cx, self.x_max, cy, self.y_max),
        )


def _link_signs(field: HamiltonianField, ends: np.ndarray, band: int,
                samples_per_edge: int,
                gap_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Transport sign of `band` along straight links, and their smallest gaps.

    ends[i] holds the end points of link i; its sign is the product of the
    step-overlap signs of the raw eigenvectors along it.  A step with
    |overlap| < 0.5 is sampled again alone, with at least 2 sub-steps.  Sign
    0 marks a link through a degeneracy: a sample with gap <= gap_tol, or
    such a step too short for float resolution to split.
    """
    sign = np.ones(len(ends))
    low = np.full(len(ends), math.inf)
    link, a, b = np.arange(len(ends)), ends[:, 0], ends[:, 1]
    n = samples_per_edge
    while len(link):
        frac = np.arange(n + 1)[:, None] / n
        per = max(1, _CHUNK_POINTS // (n + 1))
        parts = []
        for c in range(0, len(link), per):
            ln, ca, cb = link[c:c + per], a[c:c + per], b[c:c + per]
            pts = ca[:, None] + frac * (cb - ca)[:, None]
            pts[:, -1] = cb  # a + (b - a) can round off the shared end b
            _, _, gaps, _, steps = band_steps(field, pts, band)
            np.minimum.at(low, ln, gaps.min(axis=1))
            short = np.abs(steps) < CONTINUATION_MIN_OVERLAP
            odd = ((steps < 0.0) & ~short).sum(axis=1) % 2 == 1
            np.multiply.at(sign, ln, np.where(odd, -1.0, 1.0))
            p, j = np.nonzero(short)
            parts.append((ln[p], pts[p, j], pts[p, j + 1]))
        link, a, b = (np.concatenate(x) for x in zip(*parts))
        mid = a + 0.5 * (b - a)
        sign[link[(mid == a).all(axis=1) | (mid == b).all(axis=1)]] = 0.0
        live = (sign[link] != 0.0) & (low[link] > gap_tol)
        link, a, b = link[live], a[live], b[live]
        n = max(2, samples_per_edge)
    sign[low <= gap_tol] = 0.0
    return sign, low


def _cell_signs(field: HamiltonianField, cells: list[SearchRect], band: int,
                samples_per_edge: int,
                gap_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Loop sign of each cell (0: a side through a degeneracy) and the smallest
    gap sampled on its boundary; each distinct side is scored once."""
    index: dict[tuple[float, float, float, float], int] = {}
    sides = []
    for c in cells:
        x0, x1, y0, y1 = c.x_min, c.x_max, c.y_min, c.y_max
        sides.append([index.setdefault(link, len(index)) for link in (
            (x0, y0, x1, y0), (x1, y0, x1, y1),
            (x0, y1, x1, y1), (x0, y0, x0, y1))])
    ends = np.array(list(index), dtype=float).reshape(-1, 2, 2)
    sign, low = _link_signs(field, ends, band, samples_per_edge, gap_tol)
    sides = np.array(sides, dtype=np.intp).reshape(-1, 4)
    return sign[sides].prod(axis=1), low[sides].min(axis=1)


def loop_sign(field: HamiltonianField, rect: SearchRect, band: int = 0,
              samples_per_edge: int = 32, gap_tol: float = 1e-8) -> int:
    """Holonomy sign of `band` around the rectangle boundary.

    -1 iff the rectangle encloses an odd number of degeneracies of the band:
    the product of the transport signs of its four sides.  A side that runs
    through a degeneracy raises DegeneracyOnBoundary.
    """
    sign, low = _cell_signs(field, [rect], band, samples_per_edge, gap_tol)
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


def _gaps_at(field: HamiltonianField, band: int, pts: np.ndarray) -> np.ndarray:
    """Gap from `band` to its nearest neighbour at each of the (n, 2) points."""
    return band_gaps(np.linalg.eigh(field.evaluate(pts))[0], band)


# The compass's axis probes, then a diagonal one for the model's cross term.
_POLL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])


def _compass_min(field: HamiltonianField, band: int, x: float, y: float,
                 step: float, gap_tol: float) -> tuple[float, float, float]:
    """Gap minimization by axis-probe pattern search with step halving.

    Seeded at a cell centre with a step of one cell side, so the first probes
    land half a side beyond each side of the cell and a degeneracy sitting
    exactly on the cell boundary is still inside the search.  A round probes
    the four axis points and one diagonal point at `step`, then the minimum
    of the quadratic through them and the centre, if it lies within one cell
    side; it moves to its best probe, or halves the step when none beats the
    centre.  The axis probes with step halving are the generating-set search
    of Kolda, Lewis & Torczon (SIAM Rev. 45, 385, 2003), the model probe its
    optional search step.  Near a cone the squared gap is close to that
    quadratic (equal to it for a linear 2x2 field), so the model probe
    reaches a cone whose gap valley runs off the axes, where axis probes gain
    only once the step is below the valley's width and then crawl, at a cost
    growing as the square of the cone's axis ratio.  Stops once the gap is
    safely below gap_tol or the step reaches rounding scale, and returns the
    point with the gap measured there.
    """
    at = np.array([x, y])
    best = _gaps_at(field, band, at[None])[0]
    side = step
    min_step = 1e-14 * max(1.0, abs(x), abs(y))
    while step > min_step and best > 0.25 * gap_tol:
        pts = at + step * _POLL
        gaps = _gaps_at(field, band, pts)
        # squared gaps; the model's gradient and Hessian in units of step.
        # Past gaps of 1e154 the squares overflow, and a model or move that
        # reads inf or NaN fails its test and is skipped.
        with np.errstate(over="ignore", invalid="ignore"):
            c, (e, w, n, s, d) = best * best, gaps * gaps
            gx, gy = 0.5 * (e - w), 0.5 * (n - s)
            hxx, hyy, hxy = e - 2.0 * c + w, n - 2.0 * c + s, d - e - n + c
            det = hxx * hyy - hxy * hxy
            if hxx > 0.0 and det > 0.0:
                move = step * np.array([hxy * gy - hyy * gx,
                                        hxy * gx - hxx * gy]) / det
                if np.abs(move).max() <= side:
                    pts = np.vstack([pts, at + move])
                    gaps = np.append(gaps, _gaps_at(field, band, pts[-1:]))
        j = int(np.argmin(gaps))
        if gaps[j] < best:
            at, best = pts[j], gaps[j]
        else:
            step *= 0.5
    return (float(at[0]), float(at[1]), float(best))


def locate_ci(field: HamiltonianField, rect: SearchRect, band: int = 0,
              spatial_tol: float = 1e-3, gap_tol: float = 1e-8,
              samples_per_edge: int = 32, min_depth: int = 4,
              max_depth: int = 24) -> CIResult:
    """Find all degeneracies of `band` inside `rect` to `spatial_tol`.

    Quadtree on the loop sign, scored a level at a time from `min_depth` on:
    cells that do not read +1 (sign -1, or a side through a degeneracy)
    survive; a survivor whose diameter is at most `spatial_tol` is polished
    by gap minimization, the others are split.  A degeneracy on a shared side
    survives in more than one cell, so survivors within 4 `spatial_tol` of a
    group's first cell (in centre order) join that group and each group is
    polished once; a point is dropped when the loop of half-side
    `spatial_tol` around it reads +1, as around a cone of even winding.
    `gaps` holds the gap the polish measured at each point.
    Raises MaxDepthExceeded if a survivor is still wider than `spatial_tol`
    at `max_depth` or at float resolution, and CellLimitExceeded if a level
    would hold more than MAX_LEVEL_CELLS cells.  `cells_evaluated` counts the
    cells whose loop sign was computed.
    """
    def signs(cells: list[SearchRect]) -> np.ndarray:
        return _cell_signs(field, cells, band, samples_per_edge, gap_tol)[0]

    depth_histogram: dict[int, int] = {}
    hits: list[SearchRect] = []
    cells, depth = [rect], 0
    while cells:
        if depth >= min_depth:
            depth_histogram[depth] = len(cells)
            cells = [c for c, s in zip(cells, signs(cells)) if s != 1.0]
            hits += [c for c in cells if c.diameter <= spatial_tol]
            cells = [c for c in cells if c.diameter > spatial_tol]
            if cells and depth >= max_depth:
                raise MaxDepthExceeded(depth, cells[0])
        if 4 * len(cells) > MAX_LEVEL_CELLS:
            raise CellLimitExceeded(depth, len(cells), gap_tol)
        split = []
        for c in cells:
            try:
                split += c.quadrants()
            except ValueError:  # float resolution: no point between the sides
                raise MaxDepthExceeded(depth, c) from None
        cells, depth = split, depth + 1

    # A degeneracy on a shared side survives in several cells: polish each
    # group once, from its first cell; points come in that cell's centre order.
    groups: list[SearchRect] = []
    for c in sorted(hits, key=lambda c: c.center):
        if not any(math.dist(c.center, g.center) <= 4.0 * spatial_tol
                   for g in groups):
            groups.append(c)
    found = [_compass_min(field, band, *g.center, max(g.width, g.height),
                          gap_tol) for g in groups]
    boxes = [SearchRect(x - spatial_tol, x + spatial_tol,
                        y - spatial_tol, y + spatial_tol) for x, y, _ in found]
    found = [pt for pt, s in zip(found, signs(boxes)) if s != 1.0]
    return CIResult(points=tuple((x, y) for x, y, _ in found),
                    gaps=tuple(gap for _, _, gap in found),
                    cells_evaluated=sum(depth_histogram.values()),
                    depth_histogram=depth_histogram)
