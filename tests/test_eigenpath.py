import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berryline import (
    AmbiguousContinuation,
    DegeneracyOnPath,
    DiscretizedPath,
    HamiltonianField,
    JTParams,
    NonFinite,
    NonSymmetric,
    OpenPath,
    circle_path,
    eig_real_symmetric,
    holonomy_sign,
    polygon_path,
    to_polar_path,
    track_branch,
)
from berryline.eigenpath import RESIDUAL_TOL, band_gaps, eigh_2x2
from berryline.jahnteller import jt_field


def constant_field(matrix):
    m = np.asarray(matrix, dtype=float)
    return HamiltonianField(dimension=m.shape[0], matrix_fn=lambda pt: m)


# --- points and paths --------------------------------------------------------


def test_parameter_point_negative_radius():
    # a polar point is a row (r, theta) with r >= 0
    with pytest.raises(ValueError):
        circle_path(-0.1, 8)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parameter_point_nonfinite(bad):
    coords = [(1.0, 0.0), (bad, 0.0), (1.0, 1.0)]
    with pytest.raises(NonFinite):
        DiscretizedPath(coords)


def test_path_needs_three_points():
    with pytest.raises(ValueError):
        DiscretizedPath([(1, 0), (1, 1)])
    # three numbers are not three points: a path is one row per point
    with pytest.raises(ValueError, match=r"must be \(n, d\), got \(3,\)"):
        DiscretizedPath([1.0, 2.0, 3.0])


def test_path_rejects_consecutive_duplicates():
    with pytest.raises(ValueError):
        DiscretizedPath([(1, 0), (1, 0), (1, 1)])


def test_circle_path_layout():
    path = circle_path(2.0, 8, theta0=0.5)
    assert len(path) == 9
    assert path.closed
    assert path.coords[0, 1] == 0.5
    assert path.coords[-1, 1] == pytest.approx(0.5 + 2 * math.pi)
    assert np.all(path.coords[:, 0] == 2.0)
    with pytest.raises(ValueError, match="need >= 3 segments, got 2"):
        circle_path(2.0, 2)


def test_circle_path_revolutions():
    path = circle_path(1.0, 12, revolutions=2.0)
    assert path.coords[-1, 1] == pytest.approx(4 * math.pi)


def test_polygon_path_closure():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
    path = polygon_path(verts, samples_per_edge=4)
    assert len(path) == 3 * 4 + 1
    assert path.closed
    assert np.array_equal(path.coords[-1], path.coords[0])
    with pytest.raises(ValueError, match="needs >= 3 vertices, got 2"):
        polygon_path(verts[:2])


def test_to_polar_path_roundtrip():
    path = polygon_path([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.5)],
                        samples_per_edge=5)
    polar = to_polar_path(path)
    for (x, y), (r, theta) in zip(path.coords, polar.coords):
        assert r * math.cos(theta) == pytest.approx(x, abs=1e-12)
        assert r * math.sin(theta) == pytest.approx(y, abs=1e-12)


# --- eigendecomposition ------------------------------------------------------


def test_pauli_x_spectrum():
    w, v = eig_real_symmetric([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-10)


def test_diagonal_matrix():
    w, v = eig_real_symmetric(np.diag([2.0, 5.0]))
    assert np.allclose(w, [2.0, 5.0], atol=1e-12)
    assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)


def test_reconstruction_random_4x4():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        m = a + a.T
        w, v = eig_real_symmetric(m)
        assert np.max(np.abs(v @ np.diag(w) @ v.T - m)) <= 1e-9
        assert np.max(np.abs(v.T @ v - np.eye(4))) <= 1e-10
        assert np.all(np.diff(w) >= 0)


def test_eigenvalues_permutation_invariant():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    m = a + a.T
    perm = rng.permutation(5)
    w1, _ = eig_real_symmetric(m)
    w2, _ = eig_real_symmetric(m[np.ix_(perm, perm)])
    assert np.max(np.abs(w1 - w2)) <= 1e-12


# --- the closed-form 2 x 2 solve ---------------------------------------------


def stacks_of(entries):
    """(n, 2, 2) symmetric stacks [[a, b], [b, c]] from drawn entries, with
    b = 0, a = c and both (an exact degeneracy) as often as free entries."""
    def stack(rows):
        m = np.empty((len(rows), 2, 2))
        for i, (a, b, c, pattern) in enumerate(rows):
            b = 0.0 if pattern in ("b = 0", "a = c, b = 0") else b
            c = a if pattern in ("a = c", "a = c, b = 0") else c
            m[i] = [[a, b], [b, c]]
        return m

    patterns = st.sampled_from(["free", "b = 0", "a = c", "a = c, b = 0"])
    return st.lists(st.tuples(entries, entries, entries, patterns),
                    min_size=1, max_size=6).map(stack)


# signed zeros, subnormals, entries near the ends of the float range
edge_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0,
                     1.7e308, -1.7e308]),
    st.floats(-1.7e308, 1.7e308),
    st.floats(-1e3, 1e3),
    st.floats(-2.3e-308, 2.3e-308))


@settings(deadline=None, max_examples=300)
@given(stacks_of(edge_entries))
def test_eigh_2x2_contracts(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, v = eigh_2x2(m)
    assert w.shape == (len(m), 2) and v.shape == m.shape
    assert (w[:, 0] <= w[:, 1]).all()
    eps = np.finfo(float).eps
    assert np.abs(v.swapaxes(-1, -2) @ v - np.eye(2)).max() <= 4.0 * eps
    # the residual on H / scale, as track_branch forms it; an eigenvalue
    # past the float range is inf, and LAPACK's of H / 4 is past a quarter
    # of it too
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    finite = np.isfinite(w).all(axis=1)
    res = ((m / scale[:, None, None]) @ v
           - v * (w / scale[:, None])[:, None, :])
    assert (np.linalg.norm(res, axis=1)[finite] <= RESIDUAL_TOL).all()
    quarter = np.linalg.eigvalsh(0.25 * m[~finite])
    beyond = np.abs(quarter).max(axis=1) >= 0.25 * np.finfo(float).max * (1 - 4 * eps)
    assert beyond.all()


def test_eigh_2x2_exact_axes():
    # b = 0 gives the axes exactly; a = c with b = 0 reads the identity's
    w, v = eigh_2x2(np.array([[[3.0, 0.0], [0.0, -1.0]],
                              [[-1.0, 0.0], [0.0, 3.0]],
                              [[2.0, 0.0], [0.0, 2.0]]]))
    assert w.tolist() == [[-1.0, 3.0], [-1.0, 3.0], [2.0, 2.0]]
    assert np.abs(v).tolist() == [[[0.0, 1.0], [1.0, 0.0]],
                                  [[1.0, 0.0], [0.0, 1.0]],
                                  [[0.0, 1.0], [1.0, 0.0]]]


# entries whose copies scaled by 2^m, |m| <= 60, and every step on them stay
# in the normal range
normal_entries = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-2.0 ** 400, 2.0 ** 400).filter(
        lambda x: abs(x) >= 2.0 ** -400))


@settings(deadline=None, max_examples=200)
@given(stacks_of(normal_entries), st.integers(-60, 60))
def test_eigh_2x2_scale_covariance(m, power):
    # the solve commutes exactly with scaling by a power of two: energies
    # scale, vectors keep their bits
    w, v = eigh_2x2(m)
    w_scaled, v_scaled = eigh_2x2(m * 2.0 ** power)
    assert w_scaled.tobytes() == (w * 2.0 ** power).tobytes()
    assert v_scaled.tobytes() == v.tobytes()


def test_rejects_asymmetric():
    with pytest.raises(NonSymmetric):
        eig_real_symmetric([[0.0, 1.0], [0.5, 0.0]])


def test_rejects_nonfinite():
    with pytest.raises(NonFinite):
        eig_real_symmetric([[0.0, math.nan], [math.nan, 0.0]])


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig_real_symmetric(np.zeros((2, 3)))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_eig_contract_property(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, size=(n, n))
    m = a + a.T
    w, v = eig_real_symmetric(m)
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(m @ v - v * w)) <= 1e-10 * max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10


def test_field_shape_validation():
    field = HamiltonianField(dimension=3, matrix_fn=lambda pt: np.eye(2))
    with pytest.raises(ValueError):
        field.evaluate(np.zeros(2))


def test_field_symmetrizes_below_tolerance():
    m = np.array([[1.0, 1.0 + 5e-13], [1.0, 1.0]])
    field = HamiltonianField(dimension=2, matrix_fn=lambda pt: m)
    out = field.evaluate(np.zeros(2))
    assert np.array_equal(out, out.T)


# --- branch tracking ---------------------------------------------------------


def test_constant_field_branch():
    field = constant_field([[1.0, 0.3], [0.3, -1.0]])
    path = circle_path(1.0, 32)
    branch = track_branch(field, path, band=0)
    assert np.max(np.abs(branch.vectors - branch.vectors[0])) == 0.0
    overlaps = branch.vectors[:-1] @ branch.vectors[0]
    assert np.allclose(overlaps, 1.0, atol=1e-12)
    assert branch.max_residual <= 1e-9


def test_residual_past_the_float_range_is_refused():
    # the eigenvalues +-1.5e308 sqrt(2) lie past the float range: the
    # energies are +-inf, and so is the residual on H / scale
    field = constant_field([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])
    path = DiscretizedPath([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    with pytest.raises(NonFinite,
                       match="^eigensolver residual inf is not finite$"):
        track_branch(field, path, band=0)


def test_linear_model_sign_flip(jt10):
    # one loop on the frozen-gap model flips the eigenvector sign
    branch = track_branch(jt_field(jt10, frame="polar"),
                          circle_path(1.0, 512), band=0)
    raw = float(branch.vectors[-1] @ branch.vectors[0])
    assert raw == pytest.approx(-1.0, abs=1e-10)


def test_degeneracy_on_path(jt11):
    thetas = np.linspace(math.pi - 0.5, math.pi + 0.5, 21)
    path = DiscretizedPath([(2.0, t) for t in thetas], closed=False)
    with pytest.raises(DegeneracyOnPath) as err:
        track_branch(jt_field(jt11, frame="polar"), path, band=0)
    assert err.value.index == 10


def test_ambiguous_continuation_on_coarse_path(jt01):
    # alpha advances by -4 pi around one turn; 5 segments rotate the
    # eigenvector by more than 60 degrees per step
    with pytest.raises(AmbiguousContinuation):
        track_branch(jt_field(jt01, frame="polar"), circle_path(1.0, 5),
                     band=0)


def test_band_gaps_exact_zero_is_positive():
    # -0.0 - 0.0 is -0.0; a degenerate pair reports +0.0 in either band
    w = np.array([[0.0, -0.0], [-1.0, 2.0]])
    for band in (0, 1):
        gaps = band_gaps(w, band)
        assert gaps.tolist() == [0.0, 3.0]
        assert not np.signbit(gaps).any()


def test_band_out_of_range(jt11):
    with pytest.raises(ValueError):
        track_branch(jt_field(jt11, frame="polar"), circle_path(1.0, 16),
                     band=2)


def test_closed_flag_checked_against_endpoints():
    path = DiscretizedPath([(1.0, t) for t in (0.0, 1.0, 2.0)], closed=True)
    field = jt_field(JTParams(1.0, 0.0), frame="polar")
    with pytest.raises(ValueError):
        track_branch(field, path, band=0)


# --- holonomy ----------------------------------------------------------------


def test_holonomy_inner_loop(jt11):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(1.0, 1024), band=0)
    assert holonomy_sign(branch) == -1


def test_holonomy_outer_loop(jt11):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(3.0, 1024), band=0)
    assert holonomy_sign(branch) == 1


def test_holonomy_constant_field():
    field = constant_field([[2.0, 0.1], [0.1, 0.5]])
    branch = track_branch(field, circle_path(1.0, 16), band=0)
    assert holonomy_sign(branch) == 1


def test_holonomy_requires_closed_path(jt11):
    pts = [(1.0, t) for t in np.linspace(0, 3.0, 40)]
    branch = track_branch(jt_field(jt11, frame="polar"),
                          DiscretizedPath(pts, closed=False), band=0)
    with pytest.raises(OpenPath):
        holonomy_sign(branch)


@pytest.mark.parametrize("n", [512, 1024, 2048])
def test_holonomy_stable_under_refinement(jt11, n):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(1.5, n), band=0)
    assert holonomy_sign(branch) == -1


@pytest.mark.parametrize("theta0", [0.0, 0.5, 2.0, 4.0])
def test_holonomy_start_point_independent(jt11, theta0):
    branch = track_branch(jt_field(jt11, frame="polar"),
                          circle_path(2.5, 1024, theta0=theta0), band=0)
    assert holonomy_sign(branch) == 1


@settings(deadline=None, max_examples=25)
@given(st.floats(0.3, 1.8), st.floats(0.0, 6.0))
def test_holonomy_inside_is_odd_everywhere(r, theta0):
    # any loop strictly inside the outer degeneracy ring encloses exactly
    # the origin, so its holonomy is -1 independent of radius and start
    branch = track_branch(jt_field(JTParams(1.0, 1.0), frame="polar"),
                          circle_path(r, 512, theta0=theta0), band=0)
    assert holonomy_sign(branch) == -1


def test_both_bands_flip_together(jt11):
    field = jt_field(jt11, frame="polar")
    path = circle_path(1.0, 1024)
    lower = track_branch(field, path, band=0)
    upper = track_branch(field, path, band=1)
    assert holonomy_sign(lower) == holonomy_sign(upper) == -1
