"""Pseudorotation ring spectra with periodic or antiperiodic seam.

A single band moving on a ring of radius r0 sees

    H = -(1 / (2 r0^2)) d^2/dtheta^2 + E(theta),

discretized by the standard second-order three-point stencil on M uniform
grid points.  The eigenvector sign change around a loop with an odd node
count is imposed as an antiperiodic seam: the wrap coupling between the last
and first grid point flips sign.  An even node count keeps the plain
periodic wrap.  An infinite barrier is a deleted arc of grid points with
Dirichlet values at its edges; once the ring is cut, the seam sign is pure
gauge and the two parities collapse onto the same spectrum.

When the kept grid commutes with its mirror, the levels come from two open
tridiagonal chains of about half size, one even and one odd under the mirror,
formed directly from the potential.  Any other potential takes the dense
kept-grid matrix of build_ring_hamiltonian, which is also the oracle for the
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigenpath import circle_path, holonomy_sign, track_branch
from .errors import GridTooCoarse
from .jahnteller import JTParams, coupling_field, jt_field

MIN_GRID_POINTS = 64

# Relative tolerance under which adjacent levels are flagged degenerate.
DEGENERACY_FLAG_TOL = 1e-8

_PARITIES = ("even", "odd")


@dataclass(eq=False)
class RingProblem:
    """Grid, potential, seam parity and optional barrier for one ring band."""

    radius: float
    grid_size: int
    potential: np.ndarray
    flux_parity: str
    barrier: tuple[float, float] | None = None

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"ring radius must be > 0, got {self.radius!r}")
        if self.grid_size < MIN_GRID_POINTS:
            raise GridTooCoarse(
                f"grid size {self.grid_size} below minimum {MIN_GRID_POINTS}"
            )
        if self.flux_parity not in _PARITIES:
            raise ValueError(f"flux_parity must be one of {_PARITIES}")
        v = np.asarray(self.potential, dtype=float)
        if v.shape != (self.grid_size,):
            raise ValueError(
                f"potential shape {v.shape} does not match grid size {self.grid_size}"
            )
        if self.barrier is not None:
            start, width = (float(x) for x in self.barrier)
            if width <= 0:
                raise ValueError(f"barrier width must be > 0, got {width!r}")
            # with start > 0 this also refuses a width of 2 pi or more
            if start <= 0 or start + width >= 2.0 * math.pi:
                raise ValueError(
                    f"barrier [{start!r}, {start + width!r}] must lie inside (0, 2 pi)"
                )
            self.barrier = (start, width)
        if not np.all(np.isfinite(np.delete(v, self.barrier_indices()))):
            raise ValueError("potential must be finite outside the barrier")
        self.potential = v

    @property
    def step(self) -> float:
        return 2.0 * math.pi / self.grid_size

    @property
    def hopping(self) -> float:
        """Magnitude t = 1/(2 r0^2 h^2) of the coupling between grid neighbours."""
        return 1.0 / (2.0 * self.radius ** 2 * self.step ** 2)

    def barrier_indices(self) -> np.ndarray:
        """Grid indices removed by the barrier (its edges carry Dirichlet zeros)."""
        if self.barrier is None:
            return np.array([], dtype=int)
        start, width = self.barrier
        h = self.step
        j_lo = int(round(start / h))
        j_hi = int(round((start + width) / h))
        j_lo = max(j_lo, 1)
        j_hi = min(j_hi, self.grid_size - 1)
        if j_hi < j_lo:
            raise GridTooCoarse(
                f"barrier [{start!r}, {start + width!r}] collapses on a grid "
                f"of step {h!r}"
            )
        return np.arange(j_lo, j_hi + 1)

    def kept_indices(self) -> np.ndarray:
        return np.delete(np.arange(self.grid_size), self.barrier_indices())


def _kept_grid(problem: RingProblem) -> np.ndarray:
    keep = problem.kept_indices()
    if len(keep) < MIN_GRID_POINTS // 2:
        raise GridTooCoarse(f"barrier leaves only {len(keep)} grid points")
    return keep


def build_ring_hamiltonian(problem: RingProblem) -> np.ndarray:
    """Dense symmetric matrix of the discretized ring Hamiltonian on its kept grid.

    Couplings -1/(2 r0^2 h^2) join kept grid neighbours; the wrap joins points
    M-1 and 0 (a barrier starts at index 1 or later, so 0 always survives).
    Odd flux parity flips the wrap's sign (antiperiodic seam), which keeps the
    matrix real symmetric.  Barrier points are never formed; the cut ring's seam
    sign is pure gauge, so both parities build literally the same matrix.
    """
    keep = _kept_grid(problem)
    t = problem.hopping
    h_mat = np.diag(2.0 * t + problem.potential[keep])
    idx = np.nonzero(np.diff(keep) == 1)[0]
    h_mat[idx, idx + 1] = h_mat[idx + 1, idx] = -t
    if keep[-1] == problem.grid_size - 1:
        odd_seam = problem.flux_parity == "odd" and problem.barrier is None
        h_mat[-1, 0] = h_mat[0, -1] = t if odd_seam else -t
    return h_mat


def _palindrome_halves(diag: np.ndarray, bond: float):
    """Split an open chain with a palindromic diagonal and one bond value
    under its mirror j <-> n-1-j.

    Returns the (diagonal, bonds) of the symmetric and of the antisymmetric
    half; site i of a half stands for chain sites i and n-1-i.  For even n
    the middle bond folds onto the last site as +bond or -bond; for odd n
    the centre site joins the symmetric half by sqrt(2) bond.
    """
    m = len(diag) // 2
    bonds = np.full(m - 1, bond)
    if len(diag) % 2:
        return ((diag[:m + 1], np.append(bonds, math.sqrt(2.0) * bond)),
                (diag[:m], bonds))
    return ((np.append(diag[:m - 1], diag[m - 1] + bond), bonds),
            (np.append(diag[:m - 1], diag[m - 1] - bond), bonds))


def _mirror_chains(problem: RingProblem):
    """The two half chains of a kept grid that commutes with its mirror, or
    None when its potential is not an exact (bitwise) mirror.

    On a barrier-free ring, j -> -j fixes site 0 and mirrors the chain of
    sites 1..M-1; the wrap flipped by an odd seam makes site 0 join the
    antisymmetric half instead of the symmetric one, by the bond
    -sqrt(2) t.  A cut ring is one open chain in ring order: the kept
    points after the barrier, then those before it.
    """
    keep = _kept_grid(problem)
    t = problem.hopping
    v = problem.potential
    if problem.barrier is None:
        if not np.array_equal(v[1:], v[:0:-1]):
            return None
        sym, anti = _palindrome_halves(2.0 * t + v[1:], -t)
        joined, other = ((sym, anti) if problem.flux_parity == "even"
                         else (anti, sym))
        return ((np.append(2.0 * t + v[0], joined[0]),
                 np.append(-math.sqrt(2.0) * t, joined[1])), other)
    chain = np.roll(v, -1 - problem.barrier_indices()[-1])[:len(keep)]
    if not np.array_equal(chain, chain[::-1]):
        return None
    return _palindrome_halves(2.0 * t + chain, -t)


def _chain_levels(diag: np.ndarray, bonds: np.ndarray) -> np.ndarray:
    h_mat = np.diag(diag)
    i = np.arange(len(bonds))
    h_mat[i + 1, i] = h_mat[i, i + 1] = bonds
    return np.linalg.eigvalsh(h_mat)


@dataclass(eq=False)
class SpectrumResult:
    """Lowest levels of a ring problem with degeneracy markers."""

    levels: np.ndarray
    boundary: str
    degeneracy_flags: tuple[bool, ...]


def degeneracy_flags(levels: np.ndarray) -> tuple[bool, ...]:
    """Flag each level with a partner within DEGENERACY_FLAG_TOL * max(1, |E|)."""
    e = np.asarray(levels, dtype=float)
    tol = DEGENERACY_FLAG_TOL * np.maximum(1.0, np.abs(e))
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
        close = np.abs(np.diff(e)) <= np.maximum(tol[:-1], tol[1:])
    flags = np.zeros(len(e), dtype=bool)
    flags[:-1] |= close
    flags[1:] |= close
    return tuple(flags.tolist())


def spectrum(problem: RingProblem, n_levels: int) -> SpectrumResult:
    """Lowest `n_levels` eigenvalues of the ring problem.

    n_levels must lie in [1, number of kept grid points]; it is checked
    before any matrix is formed.

    A kept potential that is an exact mirror (v[1:] == v[:0:-1] on a
    barrier-free ring, a palindrome in ring order on a cut one) splits into
    two open chains of about half size, diagonalized one after the other:
    time O((M/2)^3) twice and memory of one half-size matrix.  Any other
    potential diagonalizes the dense kept-grid matrix of
    build_ring_hamiltonian.

    For barrier problems even and odd parity diagonalize the same matrices,
    so their level sets are bitwise identical, as they must be once the ring
    is cut.
    """
    kept = len(problem.kept_indices())
    if n_levels < 1 or n_levels > kept:
        raise ValueError(
            f"n_levels {n_levels} out of range for {kept} kept grid points"
        )
    chains = _mirror_chains(problem)
    if chains is None:
        levels = np.linalg.eigvalsh(build_ring_hamiltonian(problem))[:n_levels]
    else:
        levels = np.sort(np.concatenate(
            [_chain_levels(*half)[:n_levels] for half in chains]))[:n_levels]
    if problem.barrier is None:
        boundary = "periodic" if problem.flux_parity == "even" else "antiperiodic"
    else:
        boundary = "dirichlet-barrier"
    return SpectrumResult(levels=levels, boundary=boundary,
                          degeneracy_flags=degeneracy_flags(levels))


def flat_ring_problem(flux_parity: str, grid_size: int = 1024,
                      radius: float = 1.0,
                      barrier: tuple[float, float] | None = None) -> RingProblem:
    """Free ring: zero potential, spectrum m^2/2 with integer or half-odd m."""
    return RingProblem(radius=radius, grid_size=grid_size,
                       potential=np.zeros(grid_size), flux_parity=flux_parity,
                       barrier=barrier)


# Steps of the circle (anchored at theta = 0) whose holonomy sets the parity.
_PARITY_LOOP_SAMPLES = 1024


def jt_ring_problem(p: JTParams, radius: float, grid_size: int = 1024,
                    band: int = 0,
                    barrier: tuple[float, float] | None = None) -> RingProblem:
    """Ring problem for one adiabatic band of the E x e model at fixed radius.

    The potential is the band energy sampled on the grid points j <= M/2 and
    mirrored onto the rest, so it is an exact mirror; the seam parity is
    the band's holonomy sign around the same circle (a sign flip, i.e. an
    odd node count of the anchor overlap -> antiperiodic).
    """
    if band not in (0, 1):
        raise ValueError(f"band must be 0 (lower) or 1 (upper), got {band!r}")
    branch = track_branch(jt_field(p, frame="polar"),
                          circle_path(radius, _PARITY_LOOP_SAMPLES), band=band)
    parity = "odd" if holonomy_sign(branch) < 0 else "even"
    h = 2.0 * math.pi / grid_size
    # Delta(r, -theta) = Delta(r, theta): sample j <= M/2 and mirror it, so
    # the potential is an exact mirror and spectrum splits the ring
    _, delta, _ = coupling_field(p, radius, np.arange(grid_size // 2 + 1) * h)
    j = np.arange(grid_size)
    delta = delta[np.minimum(j, grid_size - j)]
    trap = 0.5 * radius * radius
    pot = trap + delta if band else trap - delta
    return RingProblem(radius=radius, grid_size=grid_size, potential=pot,
                       flux_parity=parity, barrier=barrier)
