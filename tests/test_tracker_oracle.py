"""The batched tracker and node bisection against point-by-point
references: bitwise against the same solve, to rounding against LAPACK.

`reference_track` is the per-sample loop the batched `track_branch`
replaced: one field evaluation and one eigensolve per sample, each
eigenvector flipped against its sign-fixed predecessor.  Its solve is the
one `band_steps` runs, one matrix at a time: the closed form `eigh_2x2` for
2 x 2 fields, LAPACK's `np.linalg.eigh` for larger ones, so batched and
per-point tracking agree bitwise.  `assert_near_lapack` holds the closed
form to `eig_real_symmetric`, the LAPACK reference, sample by sample:
energies within a few ulps of ||H||, vectors up to their conditioning,
and the same tracked signs, trace signs and failure tests wherever the
deciding value is not within rounding of its threshold.
`reference_refine` is the bisection the batched `refine_nodes` replaced:
one probe per step, on one branch.  `reference_nodal_map` checks one
circle at a time, each refined on its own, where `nodal_map` refines every
circle of its sweep in joint rounds.  `reference_circle_nodes` is the
earlier order of the two circle grids: theta_j = j h first, the half-step
grid only where a sample of the first sits on a node.  `circle_nodes` reads
first the grid with no sample at theta = pi, so its angles match bitwise
where both read one grid and to rounding where they do not.
`reference_validated_symmetric` measures the asymmetry of every matrix,
where `_validated_symmetric` first asks whether the stack is exactly
symmetric.  They live here, not in the package, so the fast paths always
have slow ones to answer to.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berryline import (
    AmbiguousContinuation,
    BerrylineError,
    DegeneracyOnPath,
    DiscretizedPath,
    HamiltonianField,
    JTParams,
    NodeSet,
    NonFinite,
    NonSymmetric,
    OnDegeneracyCircle,
    SampleOnNode,
    circle_path,
    eig_real_symmetric,
    nodal_map,
    node_angles_analytic,
    overlap_trace,
    polygon_path,
    refine_nodes,
    track_branch,
)
from berryline.berryphase import NODE_BISECTION_TOL, _sign_changes
from berryline.eigenpath import (CONTINUATION_MIN_OVERLAP, GAP_TOL,
                                  MATRIX_TOL, _validated_symmetric, band_gaps,
                                  band_steps, eigh_2x2, first_index)
from berryline.jahnteller import (NodalMapRow, _circle_branch, check_nodes,
                                  checked_circle, jt_field)

from conftest import COUPLING, refined_circle


EPS = np.finfo(float).eps


def per_point_solve(matrix):
    """The solve band_steps runs, on one matrix."""
    return eigh_2x2(matrix) if len(matrix) == 2 else np.linalg.eigh(matrix)


def reference_track(field, path, band, gap_tol=1e-8):
    """(energies, vectors, gaps) of `band`, one sample at a time."""
    n_pts, dim = len(path), field.dimension
    energies = np.empty(n_pts)
    vectors = np.empty((n_pts, dim))
    gaps = np.empty(n_pts)
    for j in range(n_pts):
        w, v = per_point_solve(field.evaluate(path.coords[j]))
        gap = math.inf
        if band > 0:
            gap = min(gap, float(w[band] - w[band - 1]))
        if band < dim - 1:
            gap = min(gap, float(w[band + 1] - w[band]))
        if gap <= gap_tol:
            raise DegeneracyOnPath(j, gap, gap_tol)
        vec = v[:, band]
        if j > 0:
            overlap = float(vectors[j - 1] @ vec)
            if abs(overlap) < 0.5:
                raise AmbiguousContinuation(j, overlap)
            if overlap < 0.0:
                vec = -vec
        energies[j] = w[band]
        vectors[j] = vec
        gaps[j] = gap
    return energies, vectors, gaps


def assert_same_tracking(field, path, band):
    if field.dimension == 2:  # larger fields are solved by LAPACK itself
        assert_near_lapack(field, path.coords, band, closed=path.closed)
    try:
        want = reference_track(field, path, band)
    except (DegeneracyOnPath, AmbiguousContinuation) as err:
        try:
            track_branch(field, path, band=band)
        except (DegeneracyOnPath, AmbiguousContinuation) as got:
            assert type(got) is type(err)
            assert got.index == err.index
        else:
            raise AssertionError(f"reference raised {err!r}, tracker did not")
        return
    branch = track_branch(field, path, band=band)
    for got, ref in zip((branch.energies, branch.vectors, branch.gaps), want):
        assert got.shape == ref.shape
        assert np.ascontiguousarray(got).tobytes() == ref.tobytes()


def backward_error(norm):
    """The error either solve may make in an energy: a few ulps of ||H||_2,
    and 16 times the smallest subnormal, as eigh_2x2 forms its sums on H / 4,
    which drops the last two bits of a subnormal entry."""
    return 4.0 * EPS * norm + 16.0 * np.nextafter(0.0, 1.0)


def turn_bound(norm, gap):
    """How far rounding may turn a computed eigenvector: a backward error
    turns it by about that error over the gap (Davis-Kahan), plus a few eps
    of its own; inf at a degeneracy."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(gap > 0.0, 4.0 * EPS + 2.0 * backward_error(norm) / gap,
                        math.inf)


def sign_chain(steps):
    """The tracker's sign of each sample: the running product of the
    step-overlap signs."""
    return np.concatenate(([1.0], np.cumprod(np.where(steps < 0.0, -1.0, 1.0))))


def assert_near_lapack(field, coords, band, closed=False):
    """band_steps along one chain against eig_real_symmetric (LAPACK), one
    sample at a time.

    Energies agree within backward_error and gaps within twice that.  Raw
    vectors agree up to sign with 1 - |v . v_ref| <= 4 eps plus half the
    square of turn_bound.  The failure tests (gap <= GAP_TOL, |step
    overlap| < 0.5) give the same answer at every sample unless LAPACK's
    value lies within rounding of the threshold, so the first failure has
    the same type and index.  Before it, the tracked vectors agree in sign
    up to the anchor's, and on a closed path so do the trace values
    v_j . v_0 wherever they are clear of zero, so the node counts agree.
    """
    _, energies, gaps, raw, steps = band_steps(field, coords, band)
    solved = [eig_real_symmetric(m) for m in field.evaluate(coords)]
    w_ref = np.array([w for w, _ in solved])
    v_ref = np.array([v[:, band] for _, v in solved])
    norm = np.abs(w_ref).max(axis=-1)
    gap_ref = band_gaps(w_ref, band)
    turn = turn_bound(norm, gap_ref)
    assert (np.abs(energies - w_ref[:, band]) <= backward_error(norm)).all()
    assert (np.abs(gaps - gap_ref) <= 2.0 * backward_error(norm)).all()
    dots = np.vecdot(raw, v_ref)
    assert (1.0 - np.abs(dots) <= 4.0 * EPS + 0.5 * turn * turn).all()

    steps_ref = np.vecdot(v_ref[:-1], v_ref[1:])
    flat = gaps <= GAP_TOL
    flat_ref = gap_ref <= GAP_TOL
    assert (np.abs(gap_ref - GAP_TOL)
            <= 2.0 * backward_error(norm))[flat != flat_ref].all()
    short = np.abs(steps) < CONTINUATION_MIN_OVERLAP
    short_ref = np.abs(steps_ref) < CONTINUATION_MIN_OVERLAP
    assert (np.abs(np.abs(steps_ref) - CONTINUATION_MIN_OVERLAP)
            <= turn[:-1] + turn[1:])[short != short_ref].all()

    live = min(first_index(flat | flat_ref),
               first_index(short | short_ref) + 1)
    tracked = raw[:live] * sign_chain(steps)[:live, None]
    tracked_ref = v_ref[:live] * sign_chain(steps_ref)[:live, None]
    agree = np.vecdot(tracked, tracked_ref)
    assert (agree > 0.0).all() or (agree < 0.0).all()
    if closed and live == len(coords):
        trace, trace_ref = tracked @ tracked[0], tracked_ref @ tracked_ref[0]
        clear = np.abs(trace_ref) > turn + turn[0]
        assert (np.signbit(trace) == np.signbit(trace_ref))[clear].all()


couplings = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).filter(
    lambda kg: max(kg) > 1e-3)

vertices = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                    min_size=3, max_size=6)
# E x e degeneracies at k = g = 1, the origin and (-2, 0), (1, sqrt 3), put
# on the first vertex in half the cases
corners = st.sampled_from([None] * 3 + [(0.0, 0.0), (-2.0, 0.0),
                                        (1.0, math.sqrt(3.0))])


@settings(deadline=None, max_examples=60)
@given(couplings, st.sampled_from(["cartesian", "polar"]),
       st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(-3.0, 3.0)),
                min_size=1, max_size=40),
       st.integers(0, 1))
@example(kg=(1.0, 1.0), frame="cartesian", points=[(0.0, 0.0), (2.0, 0.0)],
         band=0)
def test_band_steps_match_the_solver_point_by_point(kg, frame, points, band):
    # band_steps is the one solve the trackers, the node bisection and the
    # gap polish run; at a stack of points, as one chain or as chains of one
    # point, it gives eigh_2x2's energy and vector at each point bitwise,
    # and LAPACK's to rounding
    field = jt_field(JTParams(*kg), frame=frame)
    coords = np.array(points)
    for chains in (coords, coords[:, None]):
        _, energies, _, raw, _ = band_steps(field, chains, band)
        energies, raw = energies.reshape(-1), raw.reshape(-1, 2)
        for j, point in enumerate(coords):
            w, v = eigh_2x2(field.evaluate(point))
            assert energies[j].tobytes() == w[band].tobytes()
            assert raw[j].tobytes() == np.ascontiguousarray(v[:, band]).tobytes()
    assert_near_lapack(field, coords, band)


@settings(deadline=None, max_examples=80)
@given(couplings, st.floats(0.0, 4.0), st.integers(3, 700),
       st.floats(0.0, 2.0 * math.pi), st.integers(0, 1))
# three steps of 2 pi / 3 turn the eigenvector by pi / 3: the overlap is 0.5
# up to rounding, and the kernel that forms it decides which side
@example(kg=(1.0, 0.0), r=1.0, n=3, theta0=1.728515625, band=0)
@example(kg=(1.0, 0.0), r=1.0, n=3, theta0=1.727946636611616, band=0)
def test_circles_match_reference(kg, r, n, theta0, band):
    field = jt_field(JTParams(*kg), frame="polar")
    assert_same_tracking(field, circle_path(r, n, theta0=theta0), band)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([0.0, math.pi / 3.0, math.pi, 1.0]),
       st.sampled_from([6, 12, 96, 333]), st.integers(0, 1))
def test_degenerate_circles_match_reference(theta0, n, band):
    # r = 2k/g runs through three degeneracies; r = 0 sits on the origin
    field = jt_field(JTParams(1.0, 1.0), frame="polar")
    for r in (2.0, 0.0):
        assert_same_tracking(field, circle_path(r, n, theta0=theta0), band)


@settings(deadline=None, max_examples=120)
@given(vertices, corners, st.integers(1, 64), st.integers(0, 1))
def test_polygons_match_reference(verts, corner, samples, band):
    if corner is not None:
        verts[0] = corner
    try:
        path = polygon_path(verts, samples_per_edge=samples)
    except ValueError:
        assume(False)
    field = jt_field(JTParams(1.0, 1.0), frame="cartesian")
    assert_same_tracking(field, path, band)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6),
       st.integers(3, 64))
def test_constant_3x3_middle_band_matches_reference(entries, n):
    # band 1 of three has a neighbour on both sides
    a, b, c, d, e, f = entries
    m = np.array([[a, d, e], [d, b, f], [e, f, c]])
    field = HamiltonianField(dimension=3, matrix_fn=lambda coords: m)
    assert_same_tracking(field, circle_path(1.0, n), band=1)


def test_constant_3x3_degenerate_neighbour_matches_reference():
    for m in (np.diag([1.0, 1.0, 2.0]), np.diag([0.0, 3.0, 3.0])):
        field = HamiltonianField(dimension=3, matrix_fn=lambda coords: m)
        assert_same_tracking(field, circle_path(1.0, 8), band=1)


def test_degeneracy_wins_over_ambiguity_at_one_sample():
    # diag(x, -x) has lower eigenvector (-1, 0) for x < 0 (the closed form's
    # upper one is (0, 1) there, turned by 90 degrees); at x = 0 the zero
    # matrix reads the identity's axes, lower (0, 1), so sample 2 is
    # degenerate and orthogonal to its predecessor at once
    field = HamiltonianField(
        dimension=2,
        matrix_fn=lambda c: np.asarray(c)[..., 0, None, None] * np.diag([1.0, -1.0]))
    path = DiscretizedPath([(-1.0, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.5, 0.0)])
    _, _, gaps, _, steps = band_steps(field, path.coords, 0)
    assert gaps[2] == 0.0 and steps[1] == 0.0
    assert_same_tracking(field, path, band=0)
    with pytest.raises(DegeneracyOnPath) as err:
        track_branch(field, path, band=0)
    assert err.value.index == 2


def reference_refine(branch):
    """Node angles of the trace, bisected one probe at a time."""
    r, theta = float(branch.path.coords[0, 0]), branch.path.coords[:, 1]
    anchor_vec = branch.vectors[0]
    values = overlap_trace(branch)

    def overlap_at(th, near_vec):
        _, _, _, raw, _ = band_steps(branch.field, np.array([[r, th]]),
                                     branch.band)
        vec = raw[0]
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


def refined_angles(refine, branch):
    try:
        return refine(branch).angles
    except SampleOnNode as err:
        return ("SampleOnNode", err.index)


@settings(deadline=None, max_examples=100)
@example(k=1e16, g=1e16, r=1e16, n=16, band=0, offset=0.5)  # node at pi/2
# a probe lands where Im f is exactly 0: it reads an overlap of exactly 0.0
@example(k=0.7255114487347945, g=2.0, r=1.0, n=2048, band=0, offset=0.5)
@example(k=0.0, g=1.0, r=1.0, n=2048, band=0, offset=0.5)   # two nodes
@example(k=1.0, g=1.0, r=1.0, n=4095, band=0, offset=0.0)
@given(k=COUPLING, g=COUPLING, r=st.floats(1e-4, 1e8),
       n=st.integers(3, 4096), band=st.sampled_from([0, 1]),
       offset=st.sampled_from([0.0, 0.5]))
def test_refine_nodes_matches_one_probe_per_step(k, g, r, n, band, offset):
    # the circle grids circle_nodes tracks on, with the anchor at theta = 0
    assume(k > 0 or g > 0)
    field = jt_field(JTParams(k, g), frame="polar")
    try:
        branch = _circle_branch(field, r, n, band, offset)
    except (AmbiguousContinuation, DegeneracyOnPath):
        assume(False)
    got = refined_angles(lambda b: refine_nodes([b])[0], branch)
    assert got == refined_angles(reference_refine, branch)


def reference_circle_nodes(p, r, n_samples=2048, band=0):
    """The earlier circle_nodes rule: theta_j = j h, then the half-step grid
    where a sample of the first sits on a node."""
    field = jt_field(p, frame="polar")

    def pipeline(offset):
        branch = _circle_branch(field, r, n_samples, band, offset)
        return branch, overlap_trace(branch), refine_nodes([branch])[0]

    try:
        return pipeline(0.0)
    except SampleOnNode:
        return pipeline(0.5)


def outcome(compute):
    """(result, None), or (None, the error's type, index and message)."""
    try:
        return compute(), None
    except BerrylineError as err:
        return None, (type(err), getattr(err, "index", None), str(err))


@settings(deadline=None, max_examples=150)
@example(k=0.0, g=1.0, r=1.0, n=2048, band=0)   # both nodes on the grid
@example(k=1.0, g=1.0, r=1.0, n=2048, band=0)   # pi on the grid
@example(k=1.0, g=1.0, r=1.0, n=4, band=0)      # inside 2k/g, four samples
@example(k=1e16, g=1e16, r=1e16, n=16, band=0)  # the node rounds to pi/2
# a probe lands where Im f is exactly 0 and reads an overlap of exactly 0.0
@example(k=0.7255114487347945, g=2.0, r=1.0, n=2048, band=0)
@example(k=1.7e308, g=0.0, r=1.0, n=2048, band=0)  # every gap overflows
# pi and pi/3 on the grid, close inside 2k/g: the half-step grid turns too
# fast near pi/3 to track (AmbiguousContinuation)
@example(k=1.0, g=1.0, r=1.8, n=6, band=0)
@example(k=42.67325818407535, g=2.235120284800081, r=37.911146602283374,
         n=240, band=0)
# the j h grid turns too fast to track (AmbiguousContinuation); the
# half-step grid, read first here as well, reads the node
@example(k=0.09161824802866754, g=0.7047567770360899, r=0.2599903782919553,
         n=21, band=0)
# the j h grid's sample at theta = pi meets gap_tol (DegeneracyOnPath); the
# half-step grid, h/2 off it, reads the node
@example(k=1e-8, g=1e-8, r=1.0, n=4, band=0)
# both grids fail: the half-step grid's DegeneracyOnPath gives way to the
# j h grid's DegeneracyOnPath, and to its AmbiguousContinuation
@example(k=2.025316342784943e-05, g=0.0008060842428282638,
         r=0.05024583987110173, n=2048, band=0)
@example(k=0.0016041268926029525, g=1.77234487009905, r=0.0018100854385971253,
         n=2048, band=0)
@given(k=COUPLING, g=COUPLING, r=st.floats(1e-4, 1e8),
       n=st.integers(3, 4096), band=st.sampled_from([0, 1]))
def test_circle_nodes_match_two_track_reference(k, g, r, n, band):
    assume(k > 0 or g > 0)
    p = JTParams(k, g)
    want, want_err = outcome(lambda: reference_circle_nodes(p, r, n, band))
    got, got_err = outcome(lambda: refined_circle(p, r, n, band))
    if want_err is not None:
        # the half-step grid may read a circle whose j h grid turns too
        # fast to track, or has a sample within gap_tol of a degeneracy
        resolvable = (AmbiguousContinuation, DegeneracyOnPath)
        if want_err[0] in resolvable and got is not None:
            assert got[0].path.coords[1, 1] < 2.0 * math.pi / n
            try:
                analytic = node_angles_analytic(p, r)
            except OnDegeneracyCircle:
                analytic = None
            if analytic is not None:
                check_nodes(r, got[2], analytic)
        else:
            assert got_err == want_err
    else:
        assert got_err is None
        (ref_branch, _, ref_nodes), (branch, _, nodes) = want, got
        assert nodes.count == ref_nodes.count
        if np.array_equal(branch.path.coords, ref_branch.path.coords):
            assert (np.array(nodes.angles).tobytes()
                    == np.array(ref_nodes.angles).tobytes())
        else:
            # both grids bisect on the dyadic lattice of h / 2^m, but their
            # cuts 0.5 (a + b) start from j h or (j + 1/2) h and round apart
            assert np.max(np.abs(np.subtract(nodes.angles, ref_nodes.angles)),
                          initial=0.0) <= 1e-14
    try:
        node_angles_analytic(p, r)
    except OnDegeneracyCircle:
        assert nodal_map(p, [r], n, band).rows == ()
        return
    want, want_err = outcome(lambda: checked_circle(p, r, n, band)[1].angles)
    got, got_err = outcome(
        lambda: nodal_map(p, [r], n, band).rows[0].numeric_angles)
    assert got_err == want_err
    assert np.array(got).tobytes() == np.array(want).tobytes()


def reference_nodal_map(p, r_values, n_samples, band):
    """nodal_map one radius at a time, each circle tracked and refined on
    its own (checked_circle): its rows and skipped radii."""
    rows, skipped = [], []
    for r in map(float, r_values):
        try:
            _, nodes, analytic = checked_circle(p, r, n_samples, band)
        except OnDegeneracyCircle:
            skipped.append(r)
            continue
        rows.append(NodalMapRow(r=r, numeric_angles=nodes.angles,
                                analytic_angles=analytic))
    return tuple(rows), tuple(skipped)


def sweep_outcome(compute):
    """(repr of the result, None), or (None, the error's type and args)."""
    try:
        return repr(compute()), None
    except BerrylineError as err:
        return None, (type(err), err.args)


SCALE = st.one_of(st.just(0.0), st.floats(1e-2, 1e2))


@settings(deadline=None, max_examples=80)
# the middle radius read on its second grid
@example(k=1.0, g=1.0, radii=[1.6, 2.1, 2.6], n=30, band=0, on_circle=-1)
# a radius that fails to track after one that reads
@example(k=1.0, g=1.0, radii=[1.0, 1.8, 2.6], n=6, band=0, on_circle=-1)
# a node mismatch before a radius that fails to track
@example(k=1.0, g=1.0, radii=[2.3, 2.4], n=3, band=0, on_circle=-1)
# a skipped radius between two that read, on both grids
@example(k=1.0, g=1.0, radii=[1.0, 1.0, 3.0], n=2047, band=1, on_circle=1)
@given(k=SCALE, g=SCALE,
       radii=st.lists(st.floats(1e-2, 1e2), min_size=2, max_size=8),
       n=st.one_of(st.integers(3, 16), st.integers(3, 4096)),
       band=st.sampled_from([0, 1]), on_circle=st.integers(-1, 7))
def test_nodal_map_matches_one_circle_at_a_time(k, g, radii, n, band,
                                                on_circle):
    # refining every circle of a sweep in joint rounds moves no bit of its
    # rows, its skipped radii or its first error
    assume(k > 0 or g > 0)
    p = JTParams(k, g)
    if 0 <= on_circle < len(radii) and p.degeneracy_radius is not None:
        radii[on_circle] = p.degeneracy_radius

    def joint():
        m = nodal_map(p, radii, n, band)
        return m.rows, m.skipped_radii

    want = sweep_outcome(lambda: reference_nodal_map(p, radii, n, band))
    assert sweep_outcome(joint) == want


def reference_validated_symmetric(m):
    """_validated_symmetric measuring every matrix's asymmetry first."""
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
    if not asym.any():
        return m.copy()
    return 0.5 * m + 0.5 * mt


def assert_same_validation(m):
    try:
        want = reference_validated_symmetric(m)
    except (NonFinite, NonSymmetric) as err:
        with pytest.raises(type(err)) as got:
            _validated_symmetric(m)
        assert str(got.value) == str(err)
        return
    got = _validated_symmetric(m)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.flags.writeable
    assert not np.shares_memory(got, m)


# signed zeros, subnormals and entries near the end of the float range
entries = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e308, 1.7e308]),
                    st.floats(-1e6, 1e6))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3), st.integers(1, 4), st.data(),
       st.sampled_from([None, 0.5, 0.999, 1.0, 1.001, 2.0]),
       st.sampled_from([None, math.nan, math.inf, -math.inf]))
def test_validated_symmetric_matches_reference(dim, count, data, excess, bad):
    size = count * dim * dim
    m = np.array(data.draw(st.lists(entries, min_size=size, max_size=size)))
    m = m.reshape(count, dim, dim)
    upper = np.triu_indices(dim, 1)
    # mirror the upper triangle, so the stack is exactly symmetric
    m.swapaxes(-1, -2)[:, upper[0], upper[1]] = m[:, upper[0], upper[1]]
    if excess is not None and dim > 1:
        # move one mirrored entry by excess times the tolerance
        scale = max(1.0, float(np.abs(m[-1]).max()))
        m[-1, 1, 0] = m[-1, 0, 1] + excess * MATRIX_TOL * scale
    if bad is not None:
        m.flat[data.draw(st.integers(0, m.size - 1))] = bad
    assert_same_validation(m)


def test_validated_symmetric_keeps_signed_zero_mirrors():
    # -0.0 == 0.0, so the pair is exactly symmetric and both zeros survive
    m = np.array([[[1.0, -0.0], [0.0, 2.0]], [[-0.0, 0.0], [0.0, -0.0]]])
    assert_same_validation(m)
    assert np.signbit(_validated_symmetric(m)[0, 0, 1])


@pytest.mark.parametrize("base", [
    [[1.0, 0.2], [0.2, -1.0]],
    [[1.0, 0.2], [0.2 + 5e-13, -1.0]],   # asymmetric, inside MATRIX_TOL
    [[1.0, 0.2], [0.2 + 2e-12, -1.0]],   # past it
    [[-0.0, 0.0], [-0.0, 0.0]],
])
def test_validated_symmetric_of_a_broadcast_matrix(base):
    # a constant field returns one (2, 2) matrix, broadcast over the points
    assert_same_validation(np.broadcast_to(np.array(base), (5, 2, 2)))
