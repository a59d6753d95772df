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
from dataclasses import dataclass

import numpy as np

from .eigenpath import CONTINUATION_MIN_OVERLAP, HamiltonianField, band_gaps, band_steps
from .errors import DegeneracyOnBoundary, MaxDepthExceeded

# Sample points per field call when links are scored, which bounds the memory
# a quadtree level takes whatever its number of cells.
_CHUNK_POINTS = 1 << 16


@dataclass(frozen=True)
class SearchRect:
    """Axis-aligned Cartesian search rectangle."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate rectangle {self}")

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


def _gap_at(field: HamiltonianField, band: int, x: float, y: float) -> float:
    w = np.linalg.eigh(field.evaluate(np.array([[x, y]])))[0]
    return float(band_gaps(w, band)[0])


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, iterations: int = 20) -> float:
    """Golden-section minimizer with a fixed iteration budget."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _compass_min(field: HamiltonianField, band: int, x: float, y: float,
                 step: float, gap_tol: float) -> tuple[float, float]:
    """Axis-probe pattern search with step halving.

    Coordinate descent zigzags on an anisotropic conical gap and stalls well
    above gap_tol; this stage keeps halving the probe step instead, which
    converges on any continuous objective.  Stops once the gap is safely
    below gap_tol or the step reaches rounding scale.
    """
    best = _gap_at(field, band, x, y)
    min_step = 1e-14 * max(1.0, abs(x), abs(y))
    while step > min_step and best > 0.25 * gap_tol:
        moved = False
        for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            g = _gap_at(field, band, x + dx, y + dy)
            if g < best:
                x, y, best = x + dx, y + dy, g
                moved = True
        if not moved:
            step *= 0.5
    return (x, y)


def _refine_minimum(field: HamiltonianField, band: int, rect: SearchRect,
                    gap_tol: float) -> tuple[float, float]:
    """Gap minimization seeded at the cell center.

    Golden-section coordinate descent does the bulk reduction; the first
    bracket extends one full cell beyond the cell on each side, so a
    degeneracy sitting exactly on the cell boundary is still interior to the
    search interval.  A compass stage then polishes until the gap clears the
    degeneracy tolerance.
    """
    x, y = rect.center
    step = span = max(rect.width, rect.height)
    for _ in range(2):
        x = _golden_min(lambda t: _gap_at(field, band, t, y), x - span, x + span)
        y = _golden_min(lambda t: _gap_at(field, band, x, t), y - span, y + span)
        span *= 1e-3
    return _compass_min(field, band, x, y, step, gap_tol)


def locate_ci(field: HamiltonianField, rect: SearchRect, band: int = 0,
              spatial_tol: float = 1e-3, gap_tol: float = 1e-8,
              samples_per_edge: int = 32, min_depth: int = 4,
              max_depth: int = 24) -> CIResult:
    """Find all degeneracies of `band` inside `rect` to `spatial_tol`.

    Quadtree on the loop sign, scored a level at a time from `min_depth` on:
    cells that do not read +1 (sign -1, or a side through a degeneracy)
    survive; a survivor whose diameter is at most `spatial_tol` is polished
    by gap minimization, the others are split.  Points closer than the
    tolerance are merged (a degeneracy on a shared edge is found through more
    than one cell), and a point is dropped when the loop of half-side
    `spatial_tol` around it reads +1, as around a cone of even winding.
    Raises MaxDepthExceeded if a survivor is still wider than `spatial_tol`
    at `max_depth` or at float resolution.  `cells_evaluated` counts the
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
        split = []
        for c in cells:
            try:
                split += c.quadrants()
            except ValueError:  # float resolution: no point between the sides
                raise MaxDepthExceeded(depth, c) from None
        cells, depth = split, depth + 1

    # Merge duplicate candidates from adjacent cells; keep deterministic order.
    candidates = sorted(_refine_minimum(field, band, c, gap_tol) for c in hits)
    merged: list[tuple[float, float]] = []
    for pt in candidates:
        if merged and math.hypot(pt[0] - merged[-1][0], pt[1] - merged[-1][1]) <= 4.0 * spatial_tol:
            if _gap_at(field, band, *pt) < _gap_at(field, band, *merged[-1]):
                merged[-1] = pt
            continue
        merged.append(pt)
    boxes = [SearchRect(x - spatial_tol, x + spatial_tol,
                        y - spatial_tol, y + spatial_tol) for x, y in merged]
    merged = [pt for pt, s in zip(merged, signs(boxes)) if s != 1.0]

    gaps = tuple(_gap_at(field, band, x, y) for x, y in merged)
    return CIResult(points=tuple(merged), gaps=gaps,
                    cells_evaluated=sum(depth_histogram.values()),
                    depth_histogram=depth_histogram)
