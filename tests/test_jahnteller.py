"""Tests for the E x e model layer: point data, degeneracies, node lines."""

import cmath
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berryline import (
    AlphaUndefined,
    AmbiguousContinuation,
    DegeneracyOnPath,
    DegeneracyPoint,
    JTParams,
    NodeMismatch,
    OnDegeneracyCircle,
    circle_nodes,
    degeneracy_points,
    jahnteller,
    jt_electronic_hamiltonian,
    jt_eigenvectors,
    jt_field,
    jt_point_data,
    nodal_map,
    node_angles_analytic,
    rotation_matrix,
    track_branch,
)
from berryline.errors import NonFinite, TrajectoryThroughDegeneracy
from berryline.jahnteller import NODAL_MAP_TOL, coupling_field


def coupling(p, r, theta):
    # independent restatement of the model field, kept free of package calls
    return (p.k * r * cmath.exp(1j * theta)
            + 0.5 * p.g * r * r * cmath.exp(-2j * theta))


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        JTParams(-1.0, 0.5)
    with pytest.raises(ValueError):
        JTParams(0.5, -1.0)
    with pytest.raises(ValueError):
        JTParams(0.0, 0.0)


def test_degeneracy_radius():
    assert JTParams(1.0, 1.0).degeneracy_radius == 2.0
    assert JTParams(2.0, 1.0).degeneracy_radius == 4.0
    assert JTParams(3.0, 2.0).degeneracy_radius == 3.0
    assert JTParams(1.0, 0.0).degeneracy_radius is None
    assert JTParams(0.0, 1.0).degeneracy_radius is None


# ---------------------------------------------------------------------------
# point data


def test_point_data_frozen_values(jt11):
    # expectations derived independently from f = k r e^{i theta}
    # + (g/2) r^2 e^{-2 i theta} with plain complex arithmetic.  On r = 2k/g
    # the field collapses to 4 k cos(3 theta / 2) e^{-i theta / 2}, giving
    # closed forms.
    d = jt_point_data(jt11, 2.0, 0.7)
    assert d.delta_E == pytest.approx(1.9902841915669083, abs=1e-14)
    assert d.alpha == pytest.approx(-0.35, abs=1e-13)
    assert d.energies[0] == pytest.approx(0.009715808433091722, abs=1e-14)
    assert d.energies[1] == pytest.approx(3.990284191566908, abs=1e-14)

    d = jt_point_data(jt11, 2.0, -1.0)
    assert d.delta_E == pytest.approx(0.2829488066708117, abs=1e-14)
    assert d.alpha == pytest.approx(0.5, abs=1e-13)
    assert d.energies == pytest.approx((1.7170511933291883, 2.2829488066708117),
                                       abs=1e-14)


def test_point_data_energy_split(jt11):
    d = jt_point_data(jt11, 1.3, 0.4)
    assert d.energies[1] - d.energies[0] == pytest.approx(2.0 * d.delta_E,
                                                          abs=1e-14)
    assert d.energies[0] + d.energies[1] == pytest.approx(1.3 ** 2, abs=1e-13)


@given(st.floats(0.05, 5.0), st.floats(-math.pi, math.pi),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_point_data_matches_field(r, theta, k, g):
    """Delta e^{i alpha} reproduces the coupling field wherever it is nonzero."""
    assume(k > 1e-3 or g > 1e-3)
    p = JTParams(k, g)
    f = coupling(p, r, theta)
    assume(abs(f) > 1e-6)
    d = jt_point_data(p, r, theta)
    assert abs(d.delta_E * cmath.exp(1j * d.alpha) - f) < 1e-12 * max(1.0, abs(f))
    gap = math.sqrt(k * k * r * r + k * g * r ** 3 * math.cos(3 * theta)
                    + 0.25 * g * g * r ** 4)
    assert d.delta_E == pytest.approx(gap, rel=1e-10)


@given(st.floats(-math.pi, math.pi), st.floats(0.1, 4.0))
def test_c3_symmetry(theta, r):
    # the gap is C_3 symmetric and alpha advances by 2pi/3 with the sector
    p = JTParams(1.0, 1.0)
    assume(abs(coupling(p, r, theta)) > 1e-6)
    a = jt_point_data(p, r, theta)
    b = jt_point_data(p, r, theta + 2.0 * math.pi / 3.0)
    assert b.delta_E == pytest.approx(a.delta_E, rel=1e-12)
    shift = math.remainder(b.alpha - a.alpha - 2.0 * math.pi / 3.0,
                           2.0 * math.pi)
    assert abs(shift) < 1e-12


def test_alpha_principal_branch():
    # arg lands in (-pi, pi]; the branch cut value is pi, not -pi
    p = JTParams(1.0, 0.0)
    assert jt_point_data(p, 1.0, math.pi).alpha == math.pi
    for theta in np.linspace(-math.pi, math.pi, 101):
        a = jt_point_data(p, 1.0, float(theta)).alpha
        assert -math.pi < a <= math.pi


def test_alpha_undefined_at_degeneracies(jt11):
    with pytest.raises(AlphaUndefined):
        jt_point_data(jt11, 0.0, 0.3)
    for theta in (math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0):
        with pytest.raises(AlphaUndefined) as err:
            jt_point_data(jt11, 2.0, theta)
        assert err.value.r == 2.0


def test_negative_radius_rejected(jt11):
    with pytest.raises(ValueError):
        jt_point_data(jt11, -0.5, 0.0)


# ---------------------------------------------------------------------------
# electronic matrix and adiabatic pair


def test_hamiltonian_explicit_cases():
    p = JTParams(1.0, 0.0)
    # alpha = 0: diagonal (1, -1); alpha = pi/2: pure off-diagonal
    assert np.allclose(jt_electronic_hamiltonian(p, 1.0, 0.0),
                       [[1.0, 0.0], [0.0, -1.0]], atol=1e-15)
    assert np.allclose(jt_electronic_hamiltonian(p, 1.0, 0.5 * math.pi),
                       [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(jt_electronic_hamiltonian(p, 1.0, math.pi),
                       [[-1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_hamiltonian_angle_form(jt11):
    rng = np.random.default_rng(11)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    for _ in range(50):
        r = rng.uniform(0.1, 4.0)
        theta = rng.uniform(-math.pi, math.pi)
        h = jt_electronic_hamiltonian(jt11, r, theta)
        assert h[0, 0] == -h[1, 1]
        assert h[0, 1] == h[1, 0]
        try:
            d = jt_point_data(jt11, r, theta)
        except AlphaUndefined:
            continue
        want = d.delta_E * (math.sin(d.alpha) * sx + math.cos(d.alpha) * sz)
        assert np.max(np.abs(h - want)) < 1e-12 * max(1.0, d.delta_E)


def test_hamiltonian_zero_at_degeneracy(jt11):
    h = jt_electronic_hamiltonian(jt11, 2.0, math.pi / 3.0)
    assert np.max(np.abs(h)) < 1e-14
    assert np.max(np.abs(jt_electronic_hamiltonian(jt11, 0.0, 1.0))) == 0.0


def test_eigenvectors_satisfy_eigenproblem(jt11):
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = rng.uniform(0.1, 4.0)
        theta = rng.uniform(-math.pi, math.pi)
        try:
            d = jt_point_data(jt11, r, theta)
        except AlphaUndefined:
            continue
        lower, upper = jt_eigenvectors(jt11, r, theta)
        h = jt_electronic_hamiltonian(jt11, r, theta)
        assert np.max(np.abs(h @ lower + d.delta_E * lower)) < 1e-12
        assert np.max(np.abs(h @ upper - d.delta_E * upper)) < 1e-12
        assert abs(lower @ lower - 1.0) < 1e-14
        assert abs(upper @ upper - 1.0) < 1e-14
        assert abs(lower @ upper) < 1e-14


def test_eigenvectors_are_rotation_columns(jt11):
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = rng.uniform(0.1, 4.0)
        theta = rng.uniform(-math.pi, math.pi)
        u = rotation_matrix(jt_point_data(jt11, r, theta).alpha)
        lower, upper = jt_eigenvectors(jt11, r, theta)
        assert lower.tobytes() == u[:, 1].tobytes()
        assert upper.tobytes() == u[:, 0].tobytes()


def test_coupling_field_names_the_first_degenerate_point(jt11):
    # (2, pi/3) and (2, pi) are outer intersections; the first one counts
    r = np.array([1.0, 2.0, 2.0])
    theta = np.array([0.0, math.pi / 3.0, math.pi])
    with pytest.raises(AlphaUndefined) as err:
        coupling_field(jt11, r, theta)
    assert (err.value.r, err.value.theta) == (2.0, math.pi / 3.0)
    with pytest.raises(TrajectoryThroughDegeneracy) as err:
        coupling_field(jt11, r, theta, error=TrajectoryThroughDegeneracy)
    assert err.value.index == 1
    f, delta, dalpha = coupling_field(jt11, r[:1], theta[:1])
    assert delta.tolist() == np.abs(f).tolist() == [1.5]
    # d alpha/d theta = Re[(k r - g r^2) / f] = (1 - 1) / 1.5 at theta = 0
    assert dalpha.tolist() == [0.0]


def test_coupling_field_names_the_first_non_finite_point(jt11):
    # r^2 overflows at r = 1e200; f = inf + nan i, so Delta is not finite
    r = np.array([1.0, 1e200, 2.0])
    theta = np.array([0.0, 0.5, math.pi / 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match=r"point 1 \(r=1e\+200, theta=0.5\)"):
            coupling_field(jt11, r, theta)


def test_anchor_overlap_is_cos_half_alpha():
    """With g = 0 the mixing angle equals theta, so overlaps against the
    theta = 0 anchor must come out at cos(alpha / 2) for both bands."""
    p = JTParams(1.0, 0.0)
    low0, up0 = jt_eigenvectors(p, 1.0, 0.0)
    assert np.allclose(low0, [0.0, 1.0], atol=1e-15)
    assert np.allclose(up0, [1.0, 0.0], atol=1e-15)
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(-math.pi, math.pi, 50):
        low, up = jt_eigenvectors(p, 1.0, float(alpha))
        assert low @ low0 == pytest.approx(math.cos(0.5 * alpha), abs=1e-14)
        assert up @ up0 == pytest.approx(math.cos(0.5 * alpha), abs=1e-14)


# ---------------------------------------------------------------------------
# degeneracy inventory


def test_degeneracy_points_linear_plus_quadratic(jt11):
    pts = degeneracy_points(jt11)
    assert len(pts) == 4
    assert pts[0] == DegeneracyPoint(0.0, None)
    assert pts[0].cartesian() == (0.0, 0.0)
    want = [(1.0, math.sqrt(3.0)), (-2.0, 0.0), (1.0, -math.sqrt(3.0))]
    for pt, (x, y) in zip(pts[1:], want):
        assert pt.r == 2.0
        cx, cy = pt.cartesian()
        assert cx == pytest.approx(x, abs=1e-14)
        assert cy == pytest.approx(y, abs=1e-14)


def test_degeneracy_points_pure_couplings(jt10, jt01):
    assert degeneracy_points(jt10) == (DegeneracyPoint(0.0, None),)
    assert degeneracy_points(jt01) == (DegeneracyPoint(0.0, None),)
    pts = degeneracy_points(JTParams(2.0, 1.0))
    assert len(pts) == 4 and all(pt.r == 4.0 for pt in pts[1:])


def test_field_vanishes_at_every_degeneracy(jt11):
    for pt in degeneracy_points(jt11):
        theta = 0.0 if pt.theta is None else pt.theta
        assert abs(coupling(jt11, pt.r, theta)) < 1e-12


# ---------------------------------------------------------------------------
# closed-form node angles


def test_node_angles_pure_linear(jt10):
    for r in (0.3, 1.0, 7.0):
        assert node_angles_analytic(jt10, r) == (math.pi,)


def test_node_angles_pure_quadratic(jt01):
    assert node_angles_analytic(jt01, 1.3) == (0.5 * math.pi, 1.5 * math.pi)


def test_node_angles_inside_outside(jt11):
    assert node_angles_analytic(jt11, 0.5) == (math.pi,)
    assert node_angles_analytic(jt11, 1.999) == (math.pi,)
    a = node_angles_analytic(jt11, 3.0)
    assert a[0] == pytest.approx(1.2309594173407747, abs=1e-15)
    assert a[1] == pytest.approx(5.0522258898388115, abs=1e-15)


def test_node_angles_far_field_limit(jt11):
    # k / (g r) -> 0, so the pair tends to the pure-quadratic angles
    a = node_angles_analytic(jt11, 1e6)
    assert abs(a[0] - 0.5 * math.pi) < 2e-6
    assert abs(a[1] - 1.5 * math.pi) < 2e-6


def test_node_angles_degeneracy_circle_guard(jt11):
    for r in (2.0, 2.0 + 1e-11, 2.0 - 1e-11):
        with pytest.raises(OnDegeneracyCircle) as err:
            node_angles_analytic(jt11, r)
        assert err.value.r_circle == 2.0
    # just beyond the guard band the closed form works again
    assert len(node_angles_analytic(jt11, 2.0 + 1e-9)) == 2
    assert node_angles_analytic(jt11, 2.0 - 1e-9) == (math.pi,)


def test_node_angles_positive_radius_required(jt11):
    with pytest.raises(ValueError):
        node_angles_analytic(jt11, 0.0)
    with pytest.raises(ValueError):
        node_angles_analytic(jt11, -1.0)


@given(st.floats(0.05, 5.0))
@settings(max_examples=60)
def test_node_angles_solve_alpha_pi(r):
    """Closed-form node angles are exactly the alpha = pi solutions."""
    p = JTParams(1.0, 1.0)
    assume(abs(r - 2.0) > 1e-3)
    for theta in node_angles_analytic(p, r):
        assert abs(jt_point_data(p, r, theta).alpha) == pytest.approx(
            math.pi, abs=1e-9)


# ---------------------------------------------------------------------------
# numeric pipeline on circles


def test_circle_nodes_single_node(jt11):
    branch, trace, nodes = circle_nodes(jt11, 1.0, n_samples=2048)
    assert nodes.count == 1
    assert nodes.parity == 1
    assert abs(nodes.angles[0] - math.pi) < 1e-9
    assert trace.values[0] == pytest.approx(1.0, abs=1e-12)
    # theta = pi sits on the 2048 grid and is itself a node, so the run
    # must have fallen back to the half-step offset grid
    h = 2.0 * math.pi / 2048
    assert branch.path.coords[0, 1] == 0.0
    assert branch.path.coords[1, 1] == pytest.approx(0.5 * h, abs=1e-15)


def test_circle_nodes_without_retry(jt11):
    branch, _, nodes = circle_nodes(jt11, 1.0, n_samples=1023)
    h = 2.0 * math.pi / 1023
    assert branch.path.coords[1, 1] == pytest.approx(h, abs=1e-15)
    assert abs(nodes.angles[0] - math.pi) < 1e-9


def test_circle_nodes_two_nodes(jt11):
    _, _, nodes = circle_nodes(jt11, 3.0, n_samples=2048)
    assert nodes.count == 2
    assert nodes.parity == 0
    for got, want in zip(nodes.angles, node_angles_analytic(jt11, 3.0)):
        assert abs(got - want) < 1e-9


def test_circle_nodes_upper_band_agrees(jt11):
    _, _, low = circle_nodes(jt11, 1.5, n_samples=1024)
    _, _, high = circle_nodes(jt11, 1.5, n_samples=1024, band=1)
    assert low.count == high.count == 1
    assert abs(low.angles[0] - high.angles[0]) < 1e-8


def test_circle_nodes_pure_quadratic(jt01):
    # both analytic nodes land on the 2048 grid, forcing the offset retry
    _, _, nodes = circle_nodes(jt01, 1.0, n_samples=2048)
    assert nodes.count == 2
    assert abs(nodes.angles[0] - 0.5 * math.pi) < 1e-9
    assert abs(nodes.angles[1] - 1.5 * math.pi) < 1e-9


# Couplings over sixteen decades: near k / (g r) = 1e-16 a bisection probe
# can read an overlap of exactly 0.0, which ends the bisection there.
_COUPLING = st.one_of(st.just(0.0), st.floats(1e-8, 1e8))


@settings(deadline=None, max_examples=80)
@example(k=0.0, g=1.0, r=1.0, n=2048, band=0)   # nodes on the integer grid
@example(k=1.0, g=0.0, r=0.5, n=1024, band=1)
@example(k=1.0, g=1.0, r=1.0, n=4095, band=0)   # node between samples
@given(k=_COUPLING, g=_COUPLING, r=st.floats(1e-4, 1e8),
       n=st.integers(3, 4096), band=st.sampled_from([0, 1]))
def test_circle_nodes_tracks_at_most_twice(k, g, r, n, band):
    assume(k > 0 or g > 0)
    p = JTParams(k, g)
    try:
        analytic = node_angles_analytic(p, r)
    except OnDegeneracyCircle:
        assume(False)
    with mock.patch.object(jahnteller, "track_branch",
                           wraps=track_branch) as tracked:
        try:
            _, _, nodes = circle_nodes(p, r, n_samples=n, band=band)
        except (AmbiguousContinuation, DegeneracyOnPath):
            nodes = None
    assert 1 <= tracked.call_count <= 2
    if nodes is not None:
        assert nodes.count == len(analytic)
        for got, want in zip(nodes.angles, analytic):
            assert abs(got - want) <= NODAL_MAP_TOL


# ---------------------------------------------------------------------------
# nodal map


def test_nodal_map_counts_and_agreement(jt11):
    m = nodal_map(jt11, [0.5, 1.0, 3.0], theta_samples=1024)
    assert [row.count for row in m.rows] == [1, 1, 2]
    assert m.skipped_radii == ()
    assert len(m.degeneracies) == 4
    for row in m.rows:
        assert len(row.numeric_angles) == len(row.analytic_angles) == row.count
        for a, b in zip(row.numeric_angles, row.analytic_angles):
            assert abs(math.remainder(a - b, 2.0 * math.pi)) < 1e-4


def test_nodal_map_mismatch_carries_both_angle_sets():
    # two samples per circle alias the pure quadratic model's two nodes away
    p = JTParams(0.0, 7.0)
    with pytest.raises(NodeMismatch) as err:
        nodal_map(p, [0.123], theta_samples=2)
    assert err.value.r == 0.123
    assert err.value.numeric == ()
    assert err.value.analytic == node_angles_analytic(p, 0.123)


def test_nodal_map_overlap_residual(jt11):
    # refined node angles must pin the anchor overlap to below 1e-6
    m = nodal_map(jt11, [0.8, 2.6], theta_samples=1024)
    for row in m.rows:
        for theta in row.numeric_angles:
            alpha = jt_point_data(jt11, row.r, theta).alpha
            assert abs(math.cos(0.5 * alpha)) < 1e-6


def test_nodal_map_skips_degeneracy_circle(jt11):
    m = nodal_map(jt11, [1.5, 2.0, 2.5], theta_samples=1024)
    assert m.skipped_radii == (2.0,)
    assert [row.r for row in m.rows] == [1.5, 2.5]


# ---------------------------------------------------------------------------
# field wrappers


# 0 or 1e-100 to 1e100 in magnitude: a subnormal coordinate would round
# r = hypot(x, y) itself, and the polar side with it
_WIDE = st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                  st.floats(-1e100, -1e-100))
_WIDE_COUPLING = st.one_of(st.just(0.0), st.floats(1e-100, 1e100))


@settings(deadline=None, max_examples=300)
@given(x=_WIDE, y=_WIDE, k=_WIDE_COUPLING, g=_WIDE_COUPLING)
def test_jt_field_frames_agree(x, y, k, g):
    # the Cartesian polynomial against the polar exponentials at the same
    # point, to rounding relative to the sizes of the two terms; results
    # below the normal range round in absolute terms
    assume(k > 0 or g > 0)
    p = JTParams(k, g)
    r, theta = math.hypot(x, y), math.atan2(y, x)
    a = jt_field(p, frame="polar").evaluate(np.array([r, theta]))
    b = jt_field(p, frame="cartesian").evaluate(np.array([x, y]))
    tol = 1e-14 * (k * r + g * r * r) + sys.float_info.min
    assert np.max(np.abs(a - b)) <= tol


def test_cartesian_overflow_is_nonfinite_without_a_warning(jt11):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            jt_field(jt11, frame="cartesian").evaluate(np.array([1e200, 1e200]))


def test_jt_field_rejects_unknown_frame(jt11):
    with pytest.raises(ValueError):
        jt_field(jt11, frame="spherical")
