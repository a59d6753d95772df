"""Locating conical intersections by loop-sign bisection.

An eigenvector transported around a rectangle returns with sign (-1)^(number
of enclosed degeneracies), so the sign is a parity detector that never needs
to resolve the gap itself.  The locator subdivides negative cells in a
quadtree until they are smaller than the requested spatial tolerance, then
polishes each candidate by direct gap minimization.  Cells are always split
down to a minimum depth before positive cells are pruned, so a pair of
intersections hiding in one coarse cell (parity +1) is not lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigenpath import HamiltonianField, band_gaps, holonomy_sign, polygon_path, track_branch
from .errors import AmbiguousContinuation, DegeneracyOnBoundary, DegeneracyOnPath, MaxDepthExceeded

# Outward expansion factors (fraction of the larger cell side) tried when a
# boundary runs through a degeneracy.  Expansion, not displacement: the
# perturbed rectangle always covers the original cell.
_BOUNDARY_RETRY_FACTORS = (0.1, 0.15, 0.2, 0.25, 0.3)

# Edge sampling is doubled this many times at most when the tracker reports
# an ambiguous continuation.  A rotation that stays unresolved after that is
# not a sampling problem: the boundary crosses a degeneracy, across which the
# eigenvector turns by a quarter circle no matter how finely the edge is cut.
_MAX_EDGE_REFINES = 4


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

    def expanded(self, margin: float) -> "SearchRect":
        return SearchRect(self.x_min - margin, self.x_max + margin,
                          self.y_min - margin, self.y_max + margin)

    def quadrants(self) -> tuple["SearchRect", ...]:
        cx, cy = self.center
        return (
            SearchRect(self.x_min, cx, self.y_min, cy),
            SearchRect(cx, self.x_max, self.y_min, cy),
            SearchRect(self.x_min, cx, cy, self.y_max),
            SearchRect(cx, self.x_max, cy, self.y_max),
        )


def loop_sign(field: HamiltonianField, rect: SearchRect, band: int = 0,
              samples_per_edge: int = 32, gap_tol: float = 1e-8) -> int:
    """Holonomy sign of `band` around the rectangle boundary.

    -1 iff the rectangle encloses an odd number of degeneracies of the band.
    A gap collapse at a boundary sample raises DegeneracyOnBoundary; an
    under-resolved eigenvector rotation is retried with doubled sampling
    before giving up.
    """
    vertices = [(rect.x_min, rect.y_min), (rect.x_max, rect.y_min),
                (rect.x_max, rect.y_max), (rect.x_min, rect.y_max)]
    n = samples_per_edge
    last = None
    for _ in range(_MAX_EDGE_REFINES + 1):
        path = polygon_path(vertices, samples_per_edge=n)
        try:
            branch = track_branch(field, path, band=band, gap_tol=gap_tol)
        except DegeneracyOnPath as err:
            raise DegeneracyOnBoundary(rect, err.gap, gap_tol) from err
        except AmbiguousContinuation as err:
            last = err
            n *= 2
            continue
        return holonomy_sign(branch)
    raise DegeneracyOnBoundary(rect, 0.0, gap_tol) from last


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
                    gap_tol: float, rounds: int = 2,
                    iterations: int = 20) -> tuple[float, float]:
    """Gap minimization seeded at the cell center.

    Golden-section coordinate descent does the bulk reduction; the first
    bracket extends one full cell beyond the cell on each side, so a
    degeneracy sitting exactly on the cell boundary is still interior to the
    search interval.  A compass stage then polishes until the gap clears the
    degeneracy tolerance.
    """
    x, y = rect.center
    span = max(rect.width, rect.height)
    for _ in range(rounds):
        x = _golden_min(lambda t: _gap_at(field, band, t, y),
                        x - span, x + span, iterations)
        y = _golden_min(lambda t: _gap_at(field, band, x, t),
                        y - span, y + span, iterations)
        span *= 1e-3
    return _compass_min(field, band, x, y, max(rect.width, rect.height),
                        gap_tol)


def locate_ci(field: HamiltonianField, rect: SearchRect, band: int = 0,
              spatial_tol: float = 1e-3, gap_tol: float = 1e-8,
              samples_per_edge: int = 32, min_depth: int = 4,
              max_depth: int = 24) -> CIResult:
    """Find all degeneracies of `band` inside `rect` to `spatial_tol`.

    Quadtree on the loop sign: cells are split unconditionally down to
    `min_depth`, then only cells with sign -1 survive; a -1 cell whose
    diameter is at most `spatial_tol` becomes a candidate and is polished by
    golden-section gap minimization on each axis.  Candidates closer together
    than the tolerance are merged (a degeneracy on a shared cell edge is
    found through more than one cell).  Raises MaxDepthExceeded if a -1 cell
    cannot be shrunk below tolerance within `max_depth` levels.
    `cells_evaluated` counts the distinct cells whose loop sign was computed.
    """
    cells_evaluated = 0
    depth_histogram: dict[int, int] = {}

    def cell_sign(cell: SearchRect, depth: int) -> int:
        nonlocal cells_evaluated
        probe = cell
        last = None
        for attempt, factor in enumerate((0.0,) + _BOUNDARY_RETRY_FACTORS):
            if attempt > 0:
                probe = cell.expanded(factor * max(cell.width, cell.height))
            try:
                s = loop_sign(field, probe, band=band,
                              samples_per_edge=samples_per_edge,
                              gap_tol=gap_tol)
            except DegeneracyOnBoundary as err:
                last = err
                continue
            cells_evaluated += 1
            depth_histogram[depth] = depth_histogram.get(depth, 0) + 1
            return s
        raise last

    candidates: list[tuple[float, float]] = []
    queue: list[tuple[SearchRect, int]] = [(rect, 0)]
    # a deeper cell was queued by the split that scored it -1: each cell's
    # loop sign is computed once
    scored_on_pop = max(min_depth, 0)
    while queue:
        cell, depth = queue.pop()
        if depth < min_depth:
            queue.extend((q, depth + 1) for q in cell.quadrants())
            continue
        if depth == scored_on_pop and cell_sign(cell, depth) == 1:
            continue
        if cell.diameter <= spatial_tol:
            candidates.append(_refine_minimum(field, band, cell, gap_tol))
            continue
        if depth >= max_depth:
            raise MaxDepthExceeded(depth, cell)
        children = cell.quadrants()
        child_signs = [cell_sign(q, depth + 1) for q in children]
        # Sign is multiplicative over a clean split, so a -1 parent must hand
        # its parity to at least one child; if none claims it, the degeneracy
        # sits on an internal edge in a way sampling cannot disambiguate.
        if all(s == 1 for s in child_signs):
            raise DegeneracyOnBoundary(cell, _gap_at(field, band, *cell.center),
                                       gap_tol, parity_lost=True)
        for q, s in zip(children, child_signs):
            if s == -1:
                queue.append((q, depth + 1))

    # Merge duplicate candidates from adjacent cells; keep deterministic order.
    candidates.sort()
    merged: list[tuple[float, float]] = []
    for pt in candidates:
        if merged and math.hypot(pt[0] - merged[-1][0], pt[1] - merged[-1][1]) <= 4.0 * spatial_tol:
            if _gap_at(field, band, *pt) < _gap_at(field, band, *merged[-1]):
                merged[-1] = pt
            continue
        merged.append(pt)

    gaps = tuple(_gap_at(field, band, x, y) for x, y in merged)
    return CIResult(points=tuple(merged), gaps=gaps,
                    cells_evaluated=cells_evaluated,
                    depth_histogram=dict(sorted(depth_histogram.items())))
