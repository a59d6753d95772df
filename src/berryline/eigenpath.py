"""Eigenvector branches of real symmetric Hamiltonians along parameter paths.

A branch follows one band (fixed ascending-eigenvalue index) along a
discretized path, fixing the sign of each eigenvector by continuity with its
predecessor.  For a closed path the final-versus-initial sign is then a
well-defined holonomy: -1 flags an eigenvector sign change around the loop,
which is the quantity everything else in this package is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AmbiguousContinuation,
    DegeneracyOnPath,
    NonFinite,
    NonSymmetric,
    OpenPath,
)

# Overlap magnitude below which consecutive eigenvectors no longer identify
# a unique continuation.
CONTINUATION_MIN_OVERLAP = 0.5

# Relative tolerance for the symmetry check and the closed-path consistency
# check on Hamiltonian matrices.
MATRIX_TOL = 1e-12

# Residual contract ||H v - E v|| <= RESIDUAL_TOL * max(1, max |H_ij|) for
# every point of a tracked branch, the max over the whole path: the
# eigensolver's error grows with ||H||.
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiscretizedPath:
    """Ordered parameter points, optionally marked as a closed loop.

    `coords` is an (n, d) array, one finite point per row; the field decides
    how to read a row: ring paths use polar (r, theta) with r >= 0, planar
    searches Cartesian (x, y).  A closed path stores the closure point
    explicitly: the last point must map to the same Hamiltonian as the first
    (checked when a branch is tracked).  Consecutive stored points must be
    distinct.
    """

    coords: np.ndarray
    closed: bool = False

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 2:
            raise ValueError(f"path coordinates must be (n, d), got {coords.shape}")
        if len(coords) < 3:
            raise ValueError(f"path needs >= 3 points, got {len(coords)}")
        if not np.isfinite(coords).all():
            raise NonFinite("path contains a non-finite parameter point")
        repeated = (coords[1:] == coords[:-1]).all(axis=1)
        if repeated.any():
            raise ValueError(
                f"consecutive duplicate point at index {int(np.argmax(repeated)) + 1}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)


def polar_samples(r: float, thetas: np.ndarray) -> np.ndarray:
    """(n, 2) polar coordinates (r, theta_j) of points on one circle."""
    if r < 0:
        raise ValueError(f"polar radius must be >= 0, got {r!r}")
    return np.column_stack((np.full(len(thetas), float(r)), thetas))


def circle_path(r: float, n_segments: int, theta0: float = 0.0,
                revolutions: float = 1.0, closed: bool = True) -> DiscretizedPath:
    """Uniform polar circle with `n_segments` steps (n_segments + 1 points)."""
    if n_segments < 3:
        raise ValueError(f"need >= 3 segments, got {n_segments}")
    span = 2.0 * math.pi * revolutions
    thetas = theta0 + span * np.arange(n_segments + 1) / n_segments
    return DiscretizedPath(polar_samples(r, thetas), closed=closed)


def polygon_path(vertices: Sequence[tuple[float, float]],
                 samples_per_edge: int = 64) -> DiscretizedPath:
    """Closed Cartesian polygon through `vertices`, sampled edge by edge."""
    if len(vertices) < 3:
        raise ValueError(f"polygon needs >= 3 vertices, got {len(vertices)}")
    start = np.asarray(vertices, dtype=float)
    step = np.concatenate((start[1:], start[:1])) - start
    frac = np.arange(samples_per_edge) / samples_per_edge
    edges = start[:, None, :] + frac[None, :, None] * step[:, None, :]
    return DiscretizedPath(np.concatenate((edges.reshape(-1, 2), start[:1])),
                           closed=True)


def to_polar_path(path: DiscretizedPath) -> DiscretizedPath:
    """Reinterpret a Cartesian path as polar points (r, theta), pointwise."""
    x, y = path.coords[:, 0], path.coords[:, 1]
    return DiscretizedPath(np.column_stack((np.hypot(x, y), np.arctan2(y, x))),
                           closed=path.closed)


@dataclass(frozen=True)
class HamiltonianField:
    """A map from parameter coordinates to N x N real symmetric matrices.

    `matrix_fn` maps a (..., d) coordinate array to the (..., N, N) matrices;
    a constant field may return one (N, N) matrix, broadcast over the points.
    A path is an (n, d) array and a single point a (d,) array, both passed
    to `evaluate`.
    """

    dimension: int
    matrix_fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, coords) -> np.ndarray:
        """Validated, symmetrized matrices at (..., d) coordinates."""
        coords = np.asarray(coords, dtype=float)
        n = self.dimension
        shape = coords.shape[:-1] + (n, n)
        m = np.asarray(self.matrix_fn(coords), dtype=float)
        if m.shape != shape:
            if m.shape != (n, n):
                raise ValueError(
                    f"field returned shape {m.shape}, expected {shape}")
            m = np.broadcast_to(m, shape)
        return _validated_symmetric(m)


def _validated_symmetric(m: np.ndarray) -> np.ndarray:
    """Check a (..., N, N) stack matrix by matrix and symmetrize it."""
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains non-finite entries")
    mt = m.swapaxes(-1, -2)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    asym = np.abs(m - mt).max(axis=(-2, -1))
    bad = asym > MATRIX_TOL * scale
    if bad.any():
        j = int(np.argmax(bad))
        raise NonSymmetric(f"asymmetry {asym.flat[j]:.3e} exceeds "
                           f"{MATRIX_TOL:.0e} * {scale.flat[j]:.3e}")
    if not asym.any():  # exactly symmetric, as the model's fields are
        return m.copy()
    return 0.5 * m + 0.5 * mt  # unlike 0.5 * (m + mt), cannot overflow


def eig_real_symmetric(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a real symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  The
    decomposition satisfies ||M v_i - w_i v_i|| <= 1e-9 and reconstructs M to
    the same tolerance; eigenvector signs are whatever the backend produced
    and carry no meaning on their own.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m = _validated_symmetric(m)
    w, v = np.linalg.eigh(m)
    return w, v


def band_gaps(eigenvalues: np.ndarray, band: int) -> np.ndarray:
    """Per-point gap from `band` to its nearest neighbouring band (last axis);
    an exact zero comes out as +0.0."""
    w = np.asarray(eigenvalues)
    gap = np.full(w.shape[:-1], math.inf)
    with np.errstate(over="ignore"):  # a gap past the float range is inf
        if band > 0:
            gap = np.minimum(gap, w[..., band] - w[..., band - 1])
        if band < w.shape[-1] - 1:
            gap = np.minimum(gap, w[..., band + 1] - w[..., band])
    return gap + 0.0


@dataclass(eq=False)
class EigenBranch:
    """One band tracked along a path with sign-continuous eigenvectors.

    vectors[j] is the unit eigenvector at path point j (rows), energies[j]
    its eigenvalue, gaps[j] the distance to the nearest adjacent band.
    """

    field: HamiltonianField
    path: DiscretizedPath
    band: int
    energies: np.ndarray
    vectors: np.ndarray
    gaps: np.ndarray
    max_residual: float = dc_field(default=0.0)

    def __len__(self) -> int:
        return len(self.path)


def first_index(mask: np.ndarray) -> int:
    """Index of the first True entry of a 1-d mask, or len(mask) if none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def band_steps(field: HamiltonianField, coords, band: int):
    """Band `band` along (..., n, d) coordinate chains, in one batched solve.

    Returns the validated matrices, the band's energies and gaps to its
    neighbours, the raw band eigenvectors (signs as the eigensolver gives
    them) and the step overlaps d_j = v_{j-1} . v_j along each chain.
    """
    dim = field.dimension
    if not 0 <= band < dim:
        raise ValueError(f"band {band} out of range for dimension {dim}")
    matrices = field.evaluate(coords)
    w, v = np.linalg.eigh(matrices)
    raw = v[..., band]
    # vecdot runs the 1-D dot kernel on each pair; einsum rounds differently
    # and can move the first |d| < 0.5 off an overlap of exactly 0.5
    steps = np.vecdot(raw[..., :-1, :], raw[..., 1:, :])
    return matrices, w[..., band], band_gaps(w, band), raw, steps


def track_branch(field: HamiltonianField, path: DiscretizedPath, band: int,
                 gap_tol: float = 1e-8) -> EigenBranch:
    """Track band `band` along `path` with sign continuity.

    The band keeps its ascending-eigenvalue index throughout; each
    eigenvector is flipped when its overlap with the previous one is
    negative.  Raises DegeneracyOnPath when the gap to an adjacent band drops
    to gap_tol, and AmbiguousContinuation when the consecutive overlap falls
    below 0.5 in magnitude (under-resolved path); the first failure along
    the path wins, a degeneracy before an ambiguity at the same sample.

    One band_steps call covers the path; with raw step overlaps
    d_j = v_{j-1} . v_j the sign of sample j is the running product of
    sign(d_1) ... sign(d_j), the point-by-point flip rule exactly.
    """
    matrices, energies, gaps, raw, steps = band_steps(field, path.coords, band)
    signs = np.concatenate(([1.0], np.cumprod(np.where(steps < 0.0, -1.0, 1.0))))

    j_gap = first_index(gaps <= gap_tol)
    j_turn = first_index(np.abs(steps) < CONTINUATION_MIN_OVERLAP) + 1
    if j_gap < len(gaps) and j_gap <= j_turn:
        raise DegeneracyOnPath(j_gap, float(gaps[j_gap]), gap_tol)
    if j_turn < len(gaps):
        raise AmbiguousContinuation(j_turn,
                                    float(signs[j_turn - 1] * steps[j_turn - 1]))

    if path.closed:
        first = matrices[0]
        scale = max(1.0, float(np.max(np.abs(first))))
        mismatch = float(np.max(np.abs(matrices[-1] - first)))
        if mismatch > MATRIX_TOL * scale:
            raise ValueError(
                f"closed path endpoints map to different Hamiltonians "
                f"(mismatch {mismatch:.3e})"
            )

    # formed on H / scale, whose entries are at most 1, so no square
    # overflows.  It is still not finite where the energies are not: eigh
    # overflows eigenvalues past the float range.
    scale = max(1.0, float(np.max(np.abs(matrices))))
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = (np.einsum("nij,nj->ni", matrices / scale, raw)
                     - (energies / scale)[:, None] * raw)
        max_residual = scale * float(np.max(np.linalg.norm(residuals, axis=1)))
    if not math.isfinite(max_residual):
        raise NonFinite(f"eigensolver residual {max_residual} is not finite")
    if max_residual > RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"eigensolver residual {max_residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * {scale:.3e}"
        )

    return EigenBranch(field=field, path=path, band=band, energies=energies,
                       vectors=raw * signs[:, None], gaps=gaps,
                       max_residual=max_residual)


def holonomy_sign(branch: EigenBranch) -> int:
    """Sign of the final-versus-initial eigenvector overlap on a closed loop.

    +1 means the branch returns to itself, -1 means it returns with a sign
    flip.  The value is stable under sampling refinement as long as tracking
    succeeds.
    """
    if not branch.path.closed:
        raise OpenPath("holonomy is defined for closed paths only")
    overlap = float(branch.vectors[-1] @ branch.vectors[0])
    return 1 if overlap > 0.0 else -1
