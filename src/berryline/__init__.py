"""Sign holonomy, geometric phases and level statistics of real two-level
electronic Hamiltonians driven around closed nuclear paths."""

from .berryphase import (
    BerryPhaseResult,
    MABClass,
    NodeSet,
    PreferredVectorPotential,
    canonicalize_phase,
    classify_mab,
    detect_nodes,
    gauge_aligned_states,
    open_path_berry_phase,
    overlap_trace,
    preferred_vector_potential,
    reference_section,
    refine_nodes,
)
from .cilocate import CIResult, SearchRect, locate_ci, loop_sign
from .comoving import (
    EffectiveFields,
    NuclearTrajectory,
    SpinEvolution,
    ac_loop_phase,
    adiabaticity_ratio,
    comoving_transform,
    dynamical_phase,
    effective_fields,
    integrate_spin,
    pseudorotation_trajectory,
    to_lab_frame,
)
from .eigenpath import (
    DiscretizedPath,
    EigenBranch,
    HamiltonianField,
    circle_path,
    eig_real_symmetric,
    holonomy_sign,
    polygon_path,
    to_polar_path,
    track_branch,
)
from .errors import (
    AlphaUndefined,
    AmbiguousContinuation,
    BerrylineError,
    CellLimitExceeded,
    DegeneracyOnBoundary,
    DegeneracyOnPath,
    GridTooCoarse,
    MaxDepthExceeded,
    NodeMismatch,
    NonFinite,
    NonSymmetric,
    OnDegeneracyCircle,
    OpenPath,
    OrthogonalEndpoints,
    SampleOnNode,
    StepTooLarge,
    VanishingStepOverlap,
)
from .jahnteller import (
    DegeneracyPoint,
    JTParams,
    JTPointData,
    NodalMap,
    NodalMapRow,
    circle_nodes,
    degeneracy_points,
    jt_electronic_hamiltonian,
    jt_eigenvectors,
    jt_field,
    jt_point_data,
    nodal_map,
    node_angles_analytic,
    rotation_matrix,
)
from .ringspectrum import (
    RingProblem,
    SpectrumResult,
    build_ring_hamiltonian,
    degeneracy_flags,
    flat_ring_problem,
    jt_ring_problem,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
