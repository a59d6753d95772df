import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berryline import (
    EigenBranch,
    HamiltonianField,
    NodeSet,
    OrthogonalEndpoints,
    SampleOnNode,
    VanishingStepOverlap,
    canonicalize_phase,
    circle_path,
    classify_mab,
    detect_nodes,
    gauge_aligned_states,
    open_path_berry_phase,
    overlap_trace,
    preferred_vector_potential,
    reference_section,
    refine_nodes,
    track_branch,
)
from berryline import berryphase
from berryline.berryphase import MABClass
from berryline.eigenpath import band_steps
from berryline.jahnteller import circle_nodes, jt_field

from conftest import cone_states, refined_circle


def constant_field(matrix):
    m = np.asarray(matrix, dtype=float)
    return HamiltonianField(dimension=m.shape[0], matrix_fn=lambda pt: m)


def dressed_copy(branch, signs):
    return EigenBranch(field=branch.field, path=branch.path, band=branch.band,
                       energies=branch.energies,
                       vectors=branch.vectors * signs[:, None],
                       gaps=branch.gaps, max_residual=branch.max_residual)


# --- phase canonicalization --------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
def test_canonicalize_periodic_and_in_range(phi, n):
    z = canonicalize_phase(phi)
    assert -math.pi < z <= math.pi
    shifted = canonicalize_phase(phi + 2.0 * math.pi * n)
    assert abs(shifted - z) < 1e-9 or abs(abs(shifted - z) - 2 * math.pi) < 1e-9


@pytest.mark.parametrize("phi,expected", [
    (0.0, 0.0),
    (0.3, 0.3),
    (math.pi, math.pi),
    (-math.pi, math.pi),
    (3 * math.pi, math.pi),
    (-math.pi + 5e-10, math.pi),
    (2 * math.pi, 0.0),
])
def test_canonicalize_boundary_cases(phi, expected):
    assert canonicalize_phase(phi) == expected


# --- overlap traces ----------------------------------------------------------


def test_constant_field_trace_is_one():
    branch = track_branch(constant_field([[1.0, 0.2], [0.2, -1.0]]),
                          circle_path(1.0, 16), band=0)
    trace = overlap_trace(branch)
    assert np.allclose(trace, 1.0, atol=1e-12)


def test_linear_model_quarter_turn_overlap(jt10):
    # mixing angle equals the loop angle, so the anchor overlap at a quarter
    # turn is cos(pi/4)
    branch = track_branch(jt_field(jt10, frame="polar"),
                          circle_path(1.0, 2048), band=0)
    trace = overlap_trace(branch)
    assert branch.path.coords[512, 1] == math.pi / 2
    assert abs(trace[512] - 0.7071067811865476) <= 1e-12


def test_single_zero_crossing_inner_loop(jt11):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(1.0, 1023), band=0)
    values = overlap_trace(branch)
    crossings = np.sum(values[:-1] * values[1:] < 0)
    assert crossings == 1


def test_trace_anchor_validation(jt10):
    branch = track_branch(jt_field(jt10, frame="polar"),
                          circle_path(1.0, 16), band=0)
    with pytest.raises(ValueError):
        overlap_trace(branch, anchor_index=99)


# --- node detection ----------------------------------------------------------


def test_no_sign_change_means_no_nodes():
    branch = track_branch(constant_field([[1.0, 0.2], [0.2, -1.0]]),
                          circle_path(1.0, 16), band=0)
    nodes = detect_nodes(overlap_trace(branch), branch.path.coords[:, -1])
    assert nodes.count == 0 and nodes.parity == 0


def test_inner_loop_single_node_at_pi(jt11):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(1.0, 1023), band=0)
    nodes = detect_nodes(overlap_trace(branch), branch.path.coords[:, -1])
    assert nodes.count == 1
    assert abs(nodes.angles[0] - math.pi) <= 1e-6


def test_outer_loop_two_nodes(jt11):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(3.0, 1024), band=0)
    nodes = detect_nodes(overlap_trace(branch), branch.path.coords[:, -1])
    expected = (math.acos(1.0 / 3.0), 2.0 * math.pi - math.acos(1.0 / 3.0))
    assert nodes.count == 2
    assert abs(nodes.angles[0] - expected[0]) <= 1e-4
    assert abs(nodes.angles[1] - expected[1]) <= 1e-4


def test_sample_exactly_on_node_raises(jt11):
    # the 1024-segment grid puts a sample exactly at theta = pi, where the
    # overlap vanishes; both node finders refuse the trace
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(1.0, 1024), band=0)
    with pytest.raises(SampleOnNode) as err:
        detect_nodes(overlap_trace(branch), branch.path.coords[:, -1])
    assert err.value.index == 512
    with pytest.raises(SampleOnNode) as err:
        refine_nodes([branch])
    assert err.value.index == 512


def test_touching_zero_is_not_a_node():
    angles = circle_path(1.0, 4).coords[:, -1]
    touch = np.array([1.0, 0.5, 1e-6, 0.5, 1.0])
    assert detect_nodes(touch, angles).count == 0
    cross = np.array([1.0, 0.5, -1e-6, 0.5, 1.0])
    assert detect_nodes(cross, angles).count == 2


def test_explicit_angles_length_check():
    branch = track_branch(constant_field([[1.0, 0.2], [0.2, -1.0]]),
                          circle_path(1.0, 4), band=0)
    with pytest.raises(ValueError):
        detect_nodes(overlap_trace(branch), angles=np.arange(3.0))


def test_refine_nodes_sharpens_to_analytic(jt11):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(3.0, 1024), band=0)
    [nodes] = refine_nodes([branch])
    expected = math.acos(1.0 / 3.0)
    assert abs(nodes.angles[0] - expected) <= 1e-9
    assert abs(nodes.angles[1] - (2 * math.pi - expected)) <= 1e-9


def test_refine_nodes_probes_in_batched_rounds(jt11):
    # r = 3 has two nodes, each 25 halvings from a 2048-grid bracket to
    # NODE_BISECTION_TOL; one band_steps call per round serves both nodes
    with mock.patch.object(berryphase, "band_steps",
                           wraps=band_steps) as probes:
        _, _, nodes = refined_circle(jt11, 3.0, 2048)
    assert nodes.count == 2
    assert probes.call_count <= 5


def test_refine_nodes_requires_fixed_radius(jt11):
    from berryline import polygon_path, to_polar_path

    path = to_polar_path(polygon_path([(1.2, 1.2), (-1.2, 1.2),
                                       (-1.2, -1.2), (1.2, -1.2)]))
    branch = track_branch(jt_field(jt11, frame="polar"), path, band=0)
    with pytest.raises(ValueError):
        refine_nodes([branch])


@pytest.mark.parametrize("kwargs", [
    dict(angles=(2.0, 1.0)),
    dict(angles=(1.0, 1.0)),
    dict(angles=(0.5, 2.0, 1.0)),
])
def test_nodeset_validation(kwargs):
    with pytest.raises(ValueError):
        NodeSet(**kwargs)


# --- classification and the spike potential ----------------------------------


@pytest.mark.parametrize("count,expected", [
    (0, MABClass.TRIVIAL),
    (1, MABClass.NONTRIVIAL),
    (2, MABClass.TRIVIAL),
    (3, MABClass.NONTRIVIAL),
])
def test_classify_by_parity(count, expected):
    nodes = NodeSet(angles=tuple(float(j) for j in range(count)))
    assert (nodes.count, nodes.parity) == (count, count % 2)
    assert classify_mab(nodes) is expected


def test_preferred_potential_empty():
    pot = preferred_vector_potential(NodeSet(angles=()))
    assert pot.spikes == ()
    assert pot.loop_integral == 0.0


def test_preferred_potential_single_node():
    pot = preferred_vector_potential(
        NodeSet(angles=(math.pi,)))
    assert pot.spikes == ((math.pi, -math.pi),)
    assert pot.loop_integral == -math.pi


def test_preferred_potential_two_nodes_is_trivial_mod_2pi():
    a = math.acos(1.0 / 3.0)
    pot = preferred_vector_potential(
        NodeSet(angles=(a, 2 * math.pi - a)))
    assert pot.loop_integral == -2.0 * math.pi
    assert canonicalize_phase(pot.loop_integral) == 0.0


# --- reference section -------------------------------------------------------


def test_section_constant_field_unchanged():
    branch = track_branch(constant_field([[1.0, 0.2], [0.2, -1.0]]),
                          circle_path(1.0, 16), band=0)
    trace = overlap_trace(branch)
    nodes = detect_nodes(trace, branch.path.coords[:, -1])
    section = reference_section(branch, nodes)
    assert np.array_equal(section, branch.vectors)


def test_section_flips_once_inner_loop(jt11):
    branch, trace, nodes = refined_circle(jt11, 1.0, n_samples=1024)
    section = reference_section(branch, nodes)
    anchor_overlaps = section @ section[0]
    assert np.min(anchor_overlaps) >= 0.0
    jumps = np.sum(np.einsum("ij,ij->i", section[:-1], section[1:]) < 0)
    assert jumps == 1


def test_section_two_flips_outer_loop(jt11):
    branch, trace, nodes = refined_circle(jt11, 3.0, n_samples=1024)
    section = reference_section(branch, nodes)
    jumps = np.sum(np.einsum("ij,ij->i", section[:-1], section[1:]) < 0)
    assert jumps == 2


def test_section_idempotent(jt11):
    branch, trace, nodes = refined_circle(jt11, 1.0, n_samples=1024)
    section = reference_section(branch, nodes)
    again_branch = dressed_copy(branch, np.ones(len(branch.vectors)))
    again_branch.vectors = section
    trace2 = overlap_trace(again_branch)
    nodes2 = detect_nodes(trace2, again_branch.path.coords[:, -1])
    # the section's own anchor trace never crosses zero, only touches it
    assert nodes2.count == 0
    section2 = reference_section(again_branch, nodes)
    assert np.array_equal(section2, section)


def test_section_gauge_invariant_under_sign_dressing(jt11):
    branch, trace, nodes = refined_circle(jt11, 1.0, n_samples=1024)
    section = reference_section(branch, nodes)
    rng = np.random.default_rng(3)
    signs = rng.choice([-1.0, 1.0], size=len(branch.vectors))
    signs[0] = 1.0
    signs[-1] = 1.0  # single-valued dressing on a closed loop
    dressed = dressed_copy(branch, signs)
    trace_d = overlap_trace(dressed)
    nodes_d = detect_nodes(trace_d, dressed.path.coords[:, -1])
    assert nodes_d.parity == nodes.parity
    section_d = reference_section(dressed, nodes)
    assert np.array_equal(section_d, section)


def test_section_rejects_wrong_nodes(jt11):
    branch, trace, nodes = refined_circle(jt11, 1.0, n_samples=1024)
    with pytest.raises(ValueError):
        reference_section(branch, NodeSet(angles=()))
    # one flip, as many as nodes, but not in the node's sample interval; the
    # interval prints as Python floats
    branch = circle_nodes(jt11, 1.0, n_samples=1023)[0]
    with pytest.raises(ValueError) as err:
        reference_section(branch, NodeSet(angles=(1.0,)))
    assert str(err.value) == ("node angle 1.0 outside its sign-flip interval "
                              "[3.1385216930290993, 3.144663614150487]")


# --- gauge alignment ---------------------------------------------------------


def test_gauge_alignment_removes_complex_dressing(jt11):
    branch, _ = circle_nodes(jt11, 1.0, n_samples=512)
    base = branch.vectors.astype(complex)
    rng = np.random.default_rng(5)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(base)))
    phases[0] = 1.0  # alignment is relative to the anchor, which keeps its phase
    dressed = phases[:, None] * base
    a = gauge_aligned_states(base)
    b = gauge_aligned_states(dressed)
    assert np.max(np.abs(a - b)) < 1e-12


def test_gauge_alignment_real_stays_real(jt11):
    branch, _ = circle_nodes(jt11, 1.0, n_samples=512)
    aligned = gauge_aligned_states(branch.vectors)
    assert np.isrealobj(aligned)
    assert np.min(aligned @ branch.vectors[0]) >= 0.0


def test_gauge_alignment_orthogonal_anchor_raises():
    states = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SampleOnNode):
        gauge_aligned_states(states)


def test_gauge_alignment_needs_2d():
    with pytest.raises(ValueError):
        gauge_aligned_states(np.array([1.0, 0.0]))


# --- open-path phase ---------------------------------------------------------


def test_identical_states_zero_phase():
    states = np.tile(np.array([1.0, 0.0]), (5, 1))
    result = open_path_berry_phase(states)
    assert result.total_phase == 0.0
    assert result.local_accumulation == 0.0
    assert result.geometric_phase == 0.0


def test_closed_inner_loop_phase_is_pi(jt11):
    branch, _ = circle_nodes(jt11, 1.0, n_samples=1024)
    result = open_path_berry_phase(branch.vectors)
    assert result.geometric_phase == pytest.approx(math.pi, abs=1e-12)
    assert result.local_accumulation == 0.0


def test_closed_outer_loop_phase_is_zero(jt11):
    branch, _ = circle_nodes(jt11, 3.0, n_samples=1024)
    result = open_path_berry_phase(branch.vectors)
    assert result.geometric_phase == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_endpoints_raise():
    s = math.sqrt(0.5)
    states = np.array([[1.0, 0.0], [s, s], [0.0, 1.0]])
    with pytest.raises(OrthogonalEndpoints):
        open_path_berry_phase(states)


def test_vanishing_step_overlap_raises():
    states = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(VanishingStepOverlap) as err:
        open_path_berry_phase(states)
    assert err.value.index == 0


def test_open_path_needs_two_states():
    with pytest.raises(ValueError):
        open_path_berry_phase(np.array([[1.0, 0.0]]))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**31 - 1))
def test_gauge_invariance_random_dressing(seed):
    thetas = np.linspace(0.0, 2 * np.pi, 257)
    base = cone_states(thetas, 0.8)
    rng = np.random.default_rng(seed)
    dressed = np.exp(1j * rng.uniform(0, 2 * np.pi, len(base)))[:, None] * base
    a = open_path_berry_phase(base)
    b = open_path_berry_phase(dressed)
    assert abs(a.geometric_phase - b.geometric_phase) < 1e-9


def test_open_segment_phase_gauge_invariant(jt10):
    # open path: half a turn on the frozen-gap model, random dressing
    branch = track_branch(jt_field(jt10, frame="polar"),
                          circle_path(1.0, 1024), band=0)
    states = branch.vectors[:400].astype(complex)
    rng = np.random.default_rng(12)
    dressed = np.exp(1j * rng.uniform(0, 2 * np.pi, 400))[:, None] * states
    a = open_path_berry_phase(states)
    b = open_path_berry_phase(dressed)
    assert abs(a.geometric_phase - b.geometric_phase) < 1e-9


def test_cone_family_second_order_convergence():
    polar = 0.5
    exact = -2.0 * math.pi * math.sin(polar / 2.0) ** 2
    devs = []
    for n in (512, 1024, 2048):
        thetas = np.linspace(0.0, 2 * np.pi, n + 1)
        res = open_path_berry_phase(cone_states(thetas, polar))
        devs.append(abs(res.geometric_phase - exact))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.3)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.3)


def test_phase_law_matches_holonomy(jt11):
    from berryline import holonomy_sign

    for r, expected_parity in ((0.5, 1), (1.5, 1), (2.5, 0), (5.0, 0)):
        branch, _, nodes = refined_circle(jt11, r, n_samples=1024)
        h = holonomy_sign(branch)
        geo = open_path_berry_phase(branch.vectors).geometric_phase
        assert nodes.parity == expected_parity
        assert geo == math.pi * (1 - h) / 2
        assert abs(canonicalize_phase(geo + math.pi * nodes.count)) < 1e-12


def test_anchor_choice_preserves_parity(jt11):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(1.0, 1023), band=0)
    parities = []
    for anchor in (0, 341, 512):
        trace = overlap_trace(branch, anchor_index=anchor)
        parities.append(detect_nodes(trace, branch.path.coords[:, -1]).parity)
    assert parities == [1, 1, 1]
