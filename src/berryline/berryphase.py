"""Open-path geometric phases and sign nodes of real eigenvector branches.

The central objects are the anchor-overlap trace of a tracked branch (the
(n,) array of its inner products with the branch vector at a chosen anchor
point) and the nodes of that trace, found from the array (detect_nodes) or
bisected on tracked branches anchored at point 0, any number of them in
joint rounds (refine_nodes).  Both raise SampleOnNode on a sample that sits
on a node; choosing a grid without one is the caller's step
(jahnteller.circle_nodes).  For a real branch on a closed loop the number
of nodes K decides everything: the loop holonomy is (-1)^K, the geometric
phase is -K pi (i.e. 0 or pi mod 2 pi), and the gauge-invariant reference
section built from the branch flips sign exactly at the node angles.  The
corresponding preferred vector potential is a train of -pi delta spikes, one
per node.

The open-path phase follows the kinematic prescription: total endpoint phase
minus the accumulated local (Pancharatnam) phase of consecutive overlaps.
Both terms are gauge covariant; their difference is gauge invariant.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .eigenpath import EigenBranch, band_steps, first_index
from .errors import (
    OrthogonalEndpoints,
    SampleOnNode,
    VanishingStepOverlap,
)

# Below this magnitude an overlap is treated as an exact zero.
OVERLAP_ZERO_TOL = 1e-12

# Bracket width in radians at which refine_nodes stops bisecting a node.
NODE_BISECTION_TOL = 1e-10

# Bisection steps refine_nodes takes per band_steps call, over the
# 2^NODE_TREE_DEPTH - 1 midpoints those steps can reach.
NODE_TREE_DEPTH = 5

# Canonical phase interval is (-pi, pi]; values this close to -pi are
# reported as +pi so that the two representations of the antipodal phase
# never flip under rounding.
PHASE_BOUNDARY_TOL = 1e-9


def canonicalize_phase(phi: float) -> float:
    """Map a phase to the canonical interval (-pi, pi]."""
    z = math.remainder(float(phi), 2.0 * math.pi)
    if z <= -math.pi + PHASE_BOUNDARY_TOL:
        return math.pi
    return z


def overlap_trace(branch: EigenBranch, anchor_index: int = 0) -> np.ndarray:
    """The (n,) trace <v(anchor), v(j)> along the branch."""
    n = len(branch.path)
    if not 0 <= anchor_index < n:
        raise ValueError(f"anchor index {anchor_index} out of range for {n} points")
    values = branch.vectors @ branch.vectors[anchor_index]
    if abs(values[anchor_index] - 1.0) > 1e-10:
        raise RuntimeError("anchor self-overlap differs from 1")
    return values


@dataclass(frozen=True)
class NodeSet:
    """Angles at which an anchor-overlap trace changes sign."""

    angles: tuple[float, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.angles, self.angles[1:])):
            raise ValueError("node angles must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.angles)

    @property
    def parity(self) -> int:
        return self.count % 2


def _sign_changes(values: np.ndarray) -> np.ndarray:
    """Indices j at which the trace changes sign between samples j and j + 1
    (Longuet-Higgins' test).  A sample within OVERLAP_ZERO_TOL of zero raises
    SampleOnNode; a touching zero without a sign change is not a node."""
    j = first_index(np.abs(values) <= OVERLAP_ZERO_TOL)
    if j < len(values):
        raise SampleOnNode(j, float(values[j]))
    return np.nonzero(values[:-1] * values[1:] < 0.0)[0]


def detect_nodes(values: np.ndarray, angles) -> NodeSet:
    """Locate sign changes of the trace `values`, sampled at `angles`, by
    linear interpolation.

    A sample on a node raises SampleOnNode; the caller shifts the grid and
    resamples.  `angles` is the loop parameter at each sample, for example
    the polar angle path.coords[:, -1] of a ring path; an array of another
    shape raises ValueError.
    """
    j = _sign_changes(values)
    theta = np.asarray(angles, dtype=float)
    if theta.shape != values.shape:
        raise ValueError("angles must match the trace length")
    a, b = values[j], values[j + 1]
    found = np.sort(theta[j] + a / (a - b) * (theta[j + 1] - theta[j]))
    return NodeSet(angles=tuple(found.tolist()))


def _bisection_cuts(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(m, 2^NODE_TREE_DEPTH - 1) cuts of each bracket (lo[i], hi[i]) into
    2^NODE_TREE_DEPTH parts by repeated halving, in ascending order.  Each
    cut is 0.5 * (a + b) of the bracket (a, b) it halves, the float a
    bisection step computes there."""
    grid = np.column_stack((lo, hi))
    for _ in range(NODE_TREE_DEPTH):
        finer = np.empty((len(grid), 2 * grid.shape[1] - 1))
        finer[:, ::2] = grid
        finer[:, 1::2] = 0.5 * (grid[:, :-1] + grid[:, 1:])
        grid = finer
    return grid[:, 1:-1]


def refine_nodes(branches: Iterable[EigenBranch]) -> list[NodeSet]:
    """Node angles of each branch's trace anchored at its path point 0,
    bisected on the continuous overlap: one NodeSet per branch, in order.

    Requires fixed-radius polar paths (the field is re-evaluated at
    intermediate angles).  The branches share one field and one band; their
    radii and grids may differ.  Each sign change of a trace is bisected
    inside its sample interval down to NODE_BISECTION_TOL, or to a probe
    that reads exactly zero.  A sample on a node raises SampleOnNode, and
    the caller chooses what to sample instead: circle_nodes reads the other
    grid.  A probe's overlap is taken with its own branch's anchor vector,
    and with its eigenvector turned to face its bracket's first sample.
    The branches are read one at a time and only their brackets are kept,
    so `branches` may be a generator that tracks each circle when asked.

    Each round evaluates, in one band_steps call, the midpoints that the
    next NODE_TREE_DEPTH bisection steps of every open bracket of every
    branch can reach, then walks each bracket through them with the
    one-probe-per-step decisions, so the angles are those of probing one
    midpoint of one branch at a time.  The walk leaves most of a round's
    points unread.  They lie in the same sample interval, between two
    samples whose field is finite; on the model's field they can change the
    outcome only by raising NonFinite where Re f or Im f overflows between
    the samples, which needs k r + g r^2 / 2 within a factor of 2 of the
    float range.  Such a NonFinite ends the refinement of every branch.
    """
    sets: list[list[float]] = []
    owner, radius, anchor, near, lo, hi, f_lo = [], [], [], [], [], [], []
    for branch in branches:
        values = overlap_trace(branch)
        radii, theta = branch.path.coords[:, 0], branch.path.coords[:, 1]
        if np.any(radii != radii[0]):
            raise ValueError("node refinement requires a fixed-radius polar path")
        j = _sign_changes(values)
        field, band = branch.field, branch.band
        owner += [len(sets)] * len(j)
        sets.append([])
        radius += [radii[0]] * len(j)
        # copies, so that no bracket keeps its branch's arrays alive
        anchor.append(branch.vectors[np.zeros_like(j)])
        near.append(branch.vectors[j])
        lo += theta[j].tolist()
        hi += theta[j + 1].tolist()
        f_lo += values[j].tolist()
        # release the branch before the next one is read or tracked
        del branch, values, radii, theta
    rows = [i for i in range(len(lo)) if hi[i] - lo[i] > NODE_BISECTION_TOL]
    if rows:
        radius = np.array(radius)
        anchor, near = np.concatenate(anchor), np.concatenate(near)
    while rows:
        cuts = _bisection_cuts(np.array(lo)[rows], np.array(hi)[rows])
        coords = np.stack((np.broadcast_to(radius[rows, None], cuts.shape),
                           cuts), axis=-1)
        raw = band_steps(field, coords[..., None, :], band)[3][..., 0, :]
        # turning a probe's vector negates its anchor overlap exactly
        f = np.vecdot(anchor[rows, None, :], raw)
        f = np.where(np.vecdot(near[rows, None, :], raw) < 0.0, -f, f)
        for i, row_cuts, row_f in zip(rows, cuts.tolist(), f.tolist()):
            # the first step halves the bracket at its middle cut; each
            # later one at the middle cut of the half it kept
            step = 1 << (NODE_TREE_DEPTH - 1)
            t = step - 1
            while step and hi[i] - lo[i] > NODE_BISECTION_TOL:
                mid, f_mid = row_cuts[t], row_f[t]
                step //= 2
                # on the node: bisecting on would walk lo to hi
                if f_mid == 0.0:
                    lo[i] = hi[i] = mid
                elif f_lo[i] * f_mid < 0.0:
                    hi[i], t = mid, t - step
                else:
                    lo[i], f_lo[i], t = mid, f_mid, t + step
        rows = [i for i in rows if hi[i] - lo[i] > NODE_BISECTION_TOL]
    for i, a, b in zip(owner, lo, hi):
        sets[i].append(0.5 * (a + b))
    return [NodeSet(angles=tuple(sorted(angles))) for angles in sets]


class MABClass(Enum):
    """Loop classification: does transport change the eigenvector sign?"""

    TRIVIAL = "Trivial"
    NONTRIVIAL = "Nontrivial"


def classify_mab(nodes: NodeSet) -> MABClass:
    """Nontrivial iff the node count is odd."""
    return MABClass.NONTRIVIAL if nodes.parity else MABClass.TRIVIAL


@dataclass(frozen=True)
class PreferredVectorPotential:
    """Delta-spike gauge potential concentrated at the node angles.

    One spike of weight -pi per node; the loop integral is -K pi exactly.
    This is the representative with no spread-out background piece.
    """

    spikes: tuple[tuple[float, float], ...]
    loop_integral: float


def preferred_vector_potential(nodes: NodeSet) -> PreferredVectorPotential:
    spikes = tuple((angle, -math.pi) for angle in nodes.angles)
    return PreferredVectorPotential(spikes=spikes,
                                    loop_integral=-math.pi * nodes.count)


def gauge_aligned_states(states: np.ndarray) -> np.ndarray:
    """Remove the phase of each state relative to the first (anchor) state.

    psi_j -> exp(-i arg<psi_0|psi_j>) psi_j.  This is the one shared
    implementation for real and complex inputs; a real array goes through the
    exact +-1 specialization of the same factor and stays real.  An anchor
    overlap at zero magnitude means the anchor hits a node: SampleOnNode.
    """
    arr = np.asarray(states)
    if arr.ndim != 2:
        raise ValueError("states must be a 2-d array, one state per row")
    overlaps = arr @ np.conj(arr[0])
    small = np.abs(overlaps) <= OVERLAP_ZERO_TOL
    if np.any(small):
        j = int(np.argmax(small))
        raise SampleOnNode(j, complex(overlaps[j]))
    if np.isrealobj(arr):
        return np.sign(overlaps)[:, None] * arr
    return np.exp(-1j * np.angle(overlaps))[:, None] * arr


def reference_section(branch: EigenBranch, nodes: NodeSet) -> np.ndarray:
    """The gauge-invariant section of a real branch: its (n, d) vectors
    rephased to a non-negative overlap with the anchor, path point 0.

    The section flips sign exactly at the node angles, and the -pi spike
    potential reproduces its transport: the branch vectors times the step
    function that drops through -1 at every node angle.  `nodes` is the
    loop's intrinsic node set (from the sign-continuous branch's anchor
    trace); the section must reverse exactly once per listed node, inside
    that node's sample interval, or this raises ValueError.  A per-point
    phase dressing of the input gives the same section.
    """
    aligned = gauge_aligned_states(branch.vectors)
    # Alignment cancels any per-point phase dressing of the input, so the
    # section's discontinuities appear as reversals between consecutive
    # aligned vectors; the branch itself varies continuously step to step.
    steps = np.real(np.vecdot(aligned[:-1], aligned[1:]))

    theta = branch.path.coords[:, -1]
    flips = np.nonzero(steps < 0.0)[0]
    if len(flips) != nodes.count:
        raise ValueError("node set inconsistent with the section sign pattern")
    for j, angle in zip(flips, nodes.angles):
        lo, hi = sorted(theta[j:j + 2].tolist())
        if not lo <= angle <= hi:
            raise ValueError(
                f"node angle {angle!r} outside its sign-flip interval "
                f"[{lo!r}, {hi!r}]"
            )

    return aligned


@dataclass(frozen=True)
class BerryPhaseResult:
    """Decomposition of an open-path phase into its two gauge-covariant parts.

    geometric_phase = total_phase - local_accumulation, canonicalized to
    (-pi, pi].  For a real branch the local term vanishes and the geometric
    phase is exactly 0 or pi.
    """

    total_phase: float
    local_accumulation: float
    geometric_phase: float


def open_path_berry_phase(states: np.ndarray) -> BerryPhaseResult:
    """Kinematic geometric phase of an ordered sequence of unit states.

    total = arg<psi_0|psi_end>; local = sum_j arg<psi_j|psi_j+1>.  Fails with
    OrthogonalEndpoints or VanishingStepOverlap when either quantity is
    undefined at tolerance 1e-12.
    """
    arr = np.asarray(states)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need a 2-d array with at least two states")

    end_overlap = complex(np.vdot(arr[0], arr[-1]))
    if abs(end_overlap) <= OVERLAP_ZERO_TOL:
        raise OrthogonalEndpoints(
            f"|<psi_0|psi_end>| = {abs(end_overlap):.3e} <= {OVERLAP_ZERO_TOL:.0e}"
        )

    step_overlaps = np.vecdot(arr[:-1], arr[1:])
    small = np.abs(step_overlaps) <= OVERLAP_ZERO_TOL
    if np.any(small):
        j = int(np.argmax(small))
        raise VanishingStepOverlap(j, complex(step_overlaps[j]))

    total = float(np.angle(end_overlap))
    local = float(np.sum(np.angle(step_overlaps)))
    geometric = canonicalize_phase(total - local)
    return BerryPhaseResult(total_phase=total, local_accumulation=local,
                            geometric_phase=geometric)
