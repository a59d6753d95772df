"""Open-path geometric phases and sign nodes of real eigenvector branches.

The central objects are the anchor-overlap trace of a tracked branch (its
inner product with the branch vector at a chosen anchor point) and the nodes
of that trace.  For a real branch on a closed loop the number of nodes K
decides everything: the loop holonomy is (-1)^K, the geometric phase is -K pi
(i.e. 0 or pi mod 2 pi), and the gauge-invariant reference section built from
the branch flips sign exactly at the node angles.  The corresponding
preferred vector potential is a train of -pi delta spikes, one per node.

The open-path phase follows the kinematic prescription: total endpoint phase
minus the accumulated local (Pancharatnam) phase of consecutive overlaps.
Both terms are gauge covariant; their difference is gauge invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .eigenpath import DiscretizedPath, EigenBranch, first_index
from .errors import (
    OrthogonalEndpoints,
    SampleOnNode,
    VanishingStepOverlap,
)

# Below this magnitude an overlap is treated as an exact zero.
OVERLAP_ZERO_TOL = 1e-12

# Bracket width in radians at which refine_nodes stops bisecting a node.
NODE_BISECTION_TOL = 1e-10

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


@dataclass(eq=False)
class OverlapTrace:
    """Inner products of branch vectors with the branch vector at the anchor."""

    branch: EigenBranch
    anchor_index: int
    values: np.ndarray


def overlap_trace(branch: EigenBranch, anchor_index: int = 0) -> OverlapTrace:
    """Trace of <v(anchor), v(j)> along the branch."""
    n = len(branch.path)
    if not 0 <= anchor_index < n:
        raise ValueError(f"anchor index {anchor_index} out of range for {n} points")
    values = branch.vectors @ branch.vectors[anchor_index]
    if abs(values[anchor_index] - 1.0) > 1e-10:
        raise RuntimeError("anchor self-overlap differs from 1")
    return OverlapTrace(branch=branch, anchor_index=anchor_index, values=values)


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


def detect_nodes(trace: OverlapTrace, angles=None) -> NodeSet:
    """Locate sign changes of the trace by linear interpolation.

    A sample on a node raises SampleOnNode; the caller shifts the grid and
    resamples.  `angles` defaults to the last coordinate of each path point
    (the polar angle for ring paths); pass an explicit parameter array for
    paths that are not angle-parameterized.
    """
    values = trace.values
    j = _sign_changes(values)
    if angles is None:
        theta = trace.branch.path.coords[:, -1]
    else:
        theta = np.asarray(angles, dtype=float)
        if theta.shape != values.shape:
            raise ValueError("explicit angles must match the trace length")
    a, b = values[j], values[j + 1]
    found = np.sort(theta[j] + a / (a - b) * (theta[j + 1] - theta[j]))
    return NodeSet(angles=tuple(found.tolist()))


def refine_nodes(trace: OverlapTrace) -> NodeSet:
    """Node angles of the trace, bisected on the continuous overlap.

    Requires a fixed-radius polar path (the branch field is re-evaluated at
    intermediate angles).  Each sign change of the trace is bisected inside
    its sample interval down to NODE_BISECTION_TOL, or to a probe that reads
    exactly zero; a sample on a node raises SampleOnNode.
    """
    branch = trace.branch
    radii, theta = branch.path.coords[:, 0], branch.path.coords[:, 1]
    if np.any(radii != radii[0]):
        raise ValueError("node refinement requires a fixed-radius polar path")
    r = float(radii[0])

    anchor_vec = branch.vectors[trace.anchor_index]
    values = trace.values

    def overlap_at(th, near_vec):
        m = branch.field.evaluate(np.array([[r, th]]))
        _, v = np.linalg.eigh(m)
        vec = v[0, :, branch.band]
        if float(near_vec @ vec) < 0.0:
            vec = -vec
        return float(anchor_vec @ vec)

    refined = []
    for j in _sign_changes(values):
        lo, hi = float(theta[j]), float(theta[j + 1])
        f_lo = float(values[j])
        near = branch.vectors[j]
        while hi - lo > NODE_BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            f_mid = overlap_at(mid, near)
            if f_mid == 0.0:  # on the node: bisecting on would walk lo to hi
                lo = hi = mid
            elif f_lo * f_mid < 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        refined.append(0.5 * (lo + hi))
    return NodeSet(angles=tuple(sorted(refined)))


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


@dataclass(eq=False)
class ReferenceSection:
    """Branch vectors rephased to have non-negative anchor overlap.

    The section is single-valued apart from sign jumps located exactly at the
    node angles; it is the object whose transport the -pi spike potential
    reproduces.
    """

    vectors: np.ndarray
    anchor_index: int
    nodes: NodeSet
    path: DiscretizedPath


def gauge_aligned_states(states: np.ndarray, anchor_index: int = 0) -> np.ndarray:
    """Remove the phase of each state relative to the anchor state.

    psi_j -> exp(-i arg<psi_a|psi_j>) psi_j.  This is the one shared
    implementation for real and complex inputs; a real array goes through the
    exact +-1 specialization of the same factor and stays real.  An anchor
    overlap at zero magnitude means the anchor hits a node: SampleOnNode.
    """
    arr = np.asarray(states)
    if arr.ndim != 2:
        raise ValueError("states must be a 2-d array, one state per row")
    overlaps = arr @ np.conj(arr[anchor_index])
    small = np.abs(overlaps) <= OVERLAP_ZERO_TOL
    if np.any(small):
        j = int(np.argmax(small))
        raise SampleOnNode(j, complex(overlaps[j]))
    if np.isrealobj(arr):
        return np.sign(overlaps)[:, None] * arr
    return np.exp(-1j * np.angle(overlaps))[:, None] * arr


def reference_section(branch: EigenBranch, nodes: NodeSet,
                      anchor_index: int = 0) -> ReferenceSection:
    """Build the gauge-invariant section of a real branch from its nodes.

    Equivalent to multiplying the branch vectors by the step function that
    drops through -1 at every node angle.  `nodes` is the loop's intrinsic
    node set (from the sign-continuous branch's anchor trace); the rebuilt
    section must reverse exactly once per listed node, so a per-point phase
    dressing of the input reproduces the same section.
    """
    aligned = gauge_aligned_states(branch.vectors, anchor_index)
    # Alignment cancels any per-point phase dressing of the input, so the
    # section's discontinuities appear as reversals between consecutive
    # aligned vectors; the branch itself varies continuously step to step.
    steps = np.real(np.einsum("ij,ij->i", np.conj(aligned[:-1]), aligned[1:]))

    theta = branch.path.coords[:, -1]
    flips = np.nonzero(steps < 0.0)[0]
    if len(flips) != nodes.count:
        raise ValueError("node set inconsistent with the section sign pattern")
    for j, angle in zip(flips, nodes.angles):
        lo, hi = sorted((theta[j], theta[j + 1]))
        if not lo <= angle <= hi:
            raise ValueError(
                f"node angle {angle!r} outside its sign-flip interval "
                f"[{lo!r}, {hi!r}]"
            )

    return ReferenceSection(vectors=aligned, anchor_index=anchor_index,
                            nodes=nodes, path=branch.path)


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

    step_overlaps = np.sum(np.conj(arr[:-1]) * arr[1:], axis=1)
    small = np.abs(step_overlaps) <= OVERLAP_ZERO_TOL
    if np.any(small):
        j = int(np.argmax(small))
        raise VanishingStepOverlap(j, complex(step_overlaps[j]))

    total = float(np.angle(end_overlap))
    local = float(np.sum(np.angle(step_overlaps)))
    geometric = canonicalize_phase(total - local)
    return BerryPhaseResult(total_phase=total, local_accumulation=local,
                            geometric_phase=geometric)
