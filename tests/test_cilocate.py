"""Tests for the loop-sign degeneracy locator."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import berryline.cilocate as cilocate
from berryline import (
    AmbiguousContinuation,
    BerrylineError,
    CellLimitExceeded,
    CIResult,
    DegeneracyOnBoundary,
    DegeneracyOnPath,
    HamiltonianField,
    JTParams,
    MaxDepthExceeded,
    SearchRect,
    degeneracy_points,
    holonomy_sign,
    jt_field,
    locate_ci,
    loop_sign,
    polygon_path,
    track_branch,
)
from berryline.eigenpath import (CONTINUATION_MIN_OVERLAP, GAP_TOL,
                                  band_steps)

SQRT3 = math.sqrt(3.0)

# known degeneracies of the k = g = 1 model in Cartesian coordinates
CI_POINTS = [(0.0, 0.0), (1.0, SQRT3), (-2.0, 0.0), (1.0, -SQRT3)]


@pytest.fixture(scope="module")
def field():
    return jt_field(JTParams(1.0, 1.0), frame="cartesian")


def gap_at(field, x, y):
    w = np.linalg.eigvalsh(field.matrix_fn(np.array([x, y])))
    return float(w[1] - w[0])


def reference_loop_sign(field, rect, band=0, samples_per_edge=32, refines=4):
    """The whole-loop sign: track the closed rectangle boundary as one path,
    doubling the sampling while the continuation is ambiguous.  None when
    the loop stays unresolved or a boundary sample is degenerate."""
    vertices = [(rect.x_min, rect.y_min), (rect.x_max, rect.y_min),
                (rect.x_max, rect.y_max), (rect.x_min, rect.y_max)]
    n = samples_per_edge
    for _ in range(refines + 1):
        path = polygon_path(vertices, samples_per_edge=n)
        try:
            return holonomy_sign(track_branch(field, path, band=band))
        except DegeneracyOnPath:
            return None
        except AmbiguousContinuation:
            n *= 2
    return None


couplings = st.tuples(st.floats(0.2, 1.5), st.floats(0.2, 1.5))


@st.composite
def rects(draw):
    x0, x1 = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2,
                                  max_size=2, unique=True)))
    y0, y1 = sorted(draw(st.lists(st.floats(-3.0, 3.0), min_size=2,
                                  max_size=2, unique=True)))
    assume(x1 - x0 > 1e-3 and y1 - y0 > 1e-3)
    return SearchRect(x0, x1, y0, y1)


# ---------------------------------------------------------------------------
# rectangles


def test_search_rect_geometry():
    r = SearchRect(-1.0, 3.0, 0.0, 2.0)
    assert (r.x_min, r.x_max, r.y_min, r.y_max) == (-1.0, 3.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="within"):
        SearchRect(-1.0, 2.0 * cilocate.MAX_RECT_BOUND, 0.0, 2.0)


def quadrants(rect):
    """The four quadrants of `rect`, split at its centre as locate_ci splits
    a cell: lower left, lower right, upper left, upper right."""
    cx = 0.5 * (rect.x_min + rect.x_max)
    cy = 0.5 * (rect.y_min + rect.y_max)
    return (SearchRect(rect.x_min, cx, rect.y_min, cy),
            SearchRect(cx, rect.x_max, rect.y_min, cy),
            SearchRect(rect.x_min, cx, cy, rect.y_max),
            SearchRect(cx, rect.x_max, cy, rect.y_max))


def test_search_rect_rejects_degenerate():
    with pytest.raises(ValueError):
        SearchRect(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        SearchRect(0.0, 1.0, 2.0, -2.0)


# ---------------------------------------------------------------------------
# loop sign


def test_loop_sign_single_enclosed(field):
    assert loop_sign(field, SearchRect(-0.5, 0.5, -0.45, 0.55)) == -1
    assert loop_sign(field, SearchRect(0.7, 1.3, SQRT3 - 0.3, SQRT3 + 0.3)) == -1
    assert loop_sign(field, SearchRect(-2.3, -1.7, -0.3, 0.3)) == -1


def test_loop_sign_none_enclosed(field):
    assert loop_sign(field, SearchRect(2.3, 2.7, -0.2, 0.2)) == 1
    assert loop_sign(field, SearchRect(-1.2, -0.6, 0.8, 1.4)) == 1


def test_loop_sign_even_and_odd_counts(field):
    # two enclosed: parity cancels
    assert loop_sign(field, SearchRect(-2.5, 0.5, -0.8, 0.8)) == 1
    # all four enclosed
    assert loop_sign(field, SearchRect(-3.0, 3.0, -3.1, 3.1)) == 1
    # exactly three enclosed
    assert loop_sign(field, SearchRect(-2.5, 1.5, -2.0, 1.0)) == -1


def test_loop_sign_sampling_invariance(field):
    rect = SearchRect(-0.5, 0.5, -0.45, 0.55)
    for n in (8, 16, 64):
        assert loop_sign(field, rect, samples_per_edge=n) == -1


def test_loop_sign_side_grazing_a_cone(field):
    # a side 1e-3 from the origin cone: a coarse step past it turns the
    # eigenvector by more than 90 degrees and is re-sampled
    for n in (2, 4, 8):
        assert loop_sign(field, SearchRect(1e-3, 0.5, -1.0, 2.0),
                         samples_per_edge=n) == 1
        assert loop_sign(field, SearchRect(-0.5, 1e-3, -1.0, 2.0),
                         samples_per_edge=n) == -1


def test_loop_sign_upper_band(field):
    # a 2x2 crossing degenerates both bands at once
    assert loop_sign(field, SearchRect(-0.5, 0.5, -0.45, 0.55), band=1) == -1
    assert loop_sign(field, SearchRect(2.3, 2.7, -0.2, 0.2), band=1) == 1


def test_loop_sign_multiplicative_over_quadrants(field):
    # centers picked so no quadrant edge runs near a degeneracy
    for rect in (SearchRect(-0.9, 1.1, -0.8, 1.2),
                 SearchRect(-2.4, 0.6, -0.7, 0.9)):
        parent = loop_sign(field, rect)
        product = 1
        for q in quadrants(rect):
            product *= loop_sign(field, q)
        assert parent == product


@settings(max_examples=40, deadline=None)
@given(couplings, rects(), st.sampled_from([4, 8, 32]))
def test_loop_sign_matches_whole_loop_reference(kg, rect, n):
    f = jt_field(JTParams(*kg), frame="cartesian")
    want = reference_loop_sign(f, rect, samples_per_edge=n)
    assume(want is not None)
    assert loop_sign(f, rect, samples_per_edge=n) == want


@settings(max_examples=40, deadline=None)
@given(couplings, rects(), st.sampled_from([1, 4, 16]))
def test_loop_sign_parent_is_product_of_quadrants(kg, rect, n):
    # read at 2n samples a side, the parent samples its sides where the
    # quadrants do at n; the quadrants' inner sides cancel
    f = jt_field(JTParams(*kg), frame="cartesian")
    try:
        parent = loop_sign(f, rect, samples_per_edge=2 * n)
        quads = [loop_sign(f, q, samples_per_edge=n) for q in quadrants(rect)]
    except DegeneracyOnBoundary:
        assume(False)
    assert parent == math.prod(quads)


def test_loop_sign_boundary_through_degeneracy(field):
    # the closing edge x = 0 passes exactly through the origin
    with pytest.raises(DegeneracyOnBoundary) as err:
        loop_sign(field, SearchRect(0.0, 1.0, -0.5, 0.5))
    assert err.value.gap <= 1e-8


@pytest.mark.parametrize("n", [0, -1])
def test_samples_per_edge_below_one_is_refused(field, n):
    rect = SearchRect(-3.0, 3.0, -3.0, 3.0)
    for search in (loop_sign, locate_ci):
        with pytest.raises(ValueError, match=f"samples_per_edge .*got {n}"):
            search(field, rect, samples_per_edge=n)


# ---------------------------------------------------------------------------
# links


def reference_link_signs(field, ends, band, samples_per_edge, gap_tol):
    """The links scored one re-sampling round after another, one band_steps
    call a round: the walk cilocate ran before its calls read ahead."""
    sign = np.ones(len(ends))
    low = np.full(len(ends), math.inf)
    link, a, b = np.arange(len(ends)), ends[:, 0], ends[:, 1]
    n = samples_per_edge
    while len(link):
        frac = np.arange(n + 1)[:, None] / n
        per = max(1, cilocate._CHUNK_POINTS // (n + 1))
        parts = []
        for c in range(0, len(link), per):
            ln, ca, cb = link[c:c + per], a[c:c + per], b[c:c + per]
            pts = ca[:, None] + frac * (cb - ca)[:, None]
            pts[:, -1] = cb  # a + (b - a) can round off the shared end b
            _, _, gaps, _, steps = band_steps(field, pts, band)
            np.minimum.at(low, ln, gaps.min(axis=1))
            short = np.abs(steps) < CONTINUATION_MIN_OVERLAP
            odd = ((steps < 0.0) & ~short).sum(axis=1) % 2 == 1
            np.multiply.at(sign, ln, np.where(odd, -1.0, 1.0))
            p, j = np.nonzero(short)
            parts.append((ln[p], pts[p, j], pts[p, j + 1]))
        link, a, b = (np.concatenate(x) for x in zip(*parts))
        mid = a + 0.5 * (b - a)
        sign[link[(mid == a).all(axis=1) | (mid == b).all(axis=1)]] = 0.0
        live = (sign[link] != 0.0) & (low[link] > gap_tol)
        link, a, b = link[live], a[live], b[live]
        n = max(2, samples_per_edge)
    sign[low <= gap_tol] = 0.0
    return sign, low


def scored(score, *args):
    """(sign bytes, low bytes) of a link scoring, or its error."""
    try:
        sign, low = score(*args)
    except (BerrylineError, ValueError) as err:  # the two must fail alike
        return type(err), str(err)
    return sign.tobytes(), low.tobytes()


@st.composite
def link_sets(draw, k, g):
    """Links of the model with couplings k, g: along y = 0 through the cone
    at (-2k/g, 0) with ends off the dyadic points, through the origin,
    through two cones, grazing a cone, and at random."""
    r = 2.0 * k / g
    cones = [(0.0, 0.0), (-r, 0.0), (0.5 * r, 0.5 * SQRT3 * r),
             (0.5 * r, -0.5 * SQRT3 * r)]
    unit = st.floats(0.01, 0.99)
    length = st.floats(1e-3, 4.0)
    angle = st.floats(-math.pi, math.pi)
    links = []
    for kind in draw(st.lists(st.sampled_from(
            ["split", "origin", "two", "graze", "random"]), max_size=6)):
        if kind == "split":
            u, s = draw(unit), draw(length)
            links.append(((-r - u * s, 0.0), (-r + (1.0 - u) * s, 0.0)))
        elif kind in ("origin", "graze"):
            cx, cy = cones[draw(st.integers(0, 3))] if kind == "graze" \
                else cones[0]
            u, s, phi = draw(unit), draw(length), draw(angle)
            off = 10.0 ** draw(st.floats(-12.0, -1.0)) if kind == "graze" \
                else 0.0
            dx, dy = math.cos(phi), math.sin(phi)
            cx, cy = cx - off * dy, cy + off * dx
            links.append(((cx - u * s * dx, cy - u * s * dy),
                          (cx + (1.0 - u) * s * dx, cy + (1.0 - u) * s * dy)))
        elif kind == "two":
            u, v = draw(unit), draw(unit)
            if draw(st.booleans()):  # the origin and (-r, 0)
                links.append(((-r - u, 0.0), (v, 0.0)))
            else:  # the two cones on x = r/2
                y = 0.5 * SQRT3 * r
                links.append(((0.5 * r, -y - u), (0.5 * r, y + v)))
        else:
            xy = st.floats(-3.0, 3.0)
            links.append(((draw(xy), draw(xy)), (draw(xy), draw(xy))))
    return np.array(links, dtype=float).reshape(-1, 2, 2)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.floats(0.2, 1.5), st.floats(0.2, 1.5),
       st.sampled_from([1, 2, 4, 8, 32]), st.sampled_from([1e-8, 1e-4, 1e-300]),
       st.integers(0, 1), st.sampled_from([1 << 16, 64, 9, 1]))
def test_link_signs_match_round_by_round(data, k, g, n, gap_tol, band, chunk):
    # the rounds replayed from the read-ahead give every sign and smallest
    # gap bit for bit (NaN and signed zeros included) as the rounds sampled
    # one by one, whether a call holds many links or one chunk holds one
    f = jt_field(JTParams(k, g), frame="cartesian")
    ends = data.draw(link_sets(k, g))
    with mock.patch.object(cilocate, "_CHUNK_POINTS", chunk):
        want = scored(reference_link_signs, f, ends, band, n, gap_tol)
        got = scored(cilocate._link_signs, f, ends, band, n, gap_tol)
    assert got == want


def test_link_signs_read_ahead_along_the_cone(field):
    # the side y = 0 runs through the cone at (-2, 0), off every dyadic
    # point: at 8 samples a side the round-by-round walk takes 5 to 9 calls
    # on a level of the README search, the read-ahead at most 3
    def calls(link_signs):
        made = []
        solves = mock.Mock(wraps=band_steps)

        def counting(*args):
            solves.reset_mock()
            result = link_signs(*args)
            made.append(solves.call_count)
            return result

        with mock.patch.object(cilocate, "_link_signs", counting), \
                mock.patch.object(cilocate, "band_steps", solves), \
                mock.patch.object(sys.modules[__name__], "band_steps", solves):
            res = locate_ci(field, SearchRect(-3.0, 3.0, -3.0, 3.0),
                            samples_per_edge=8)
        return res, made

    res, made = calls(cilocate._link_signs)
    want, walked = calls(reference_link_signs)
    assert res == want and len(res.points) == 4
    assert len(made) == len(walked)
    assert max(made) <= 3 < 5 <= max(walked)


# ---------------------------------------------------------------------------
# locator


@pytest.fixture(scope="module")
def four_point_result(field):
    rect = SearchRect(-3.0, 3.0, -3.0, 3.0)
    return locate_ci(field, rect, spatial_tol=1e-2, samples_per_edge=16)


def test_locate_ci_finds_all_four(four_point_result):
    res = four_point_result
    assert len(res.points) == 4
    found = sorted(res.points)
    for (gx, gy), (wx, wy) in zip(found, sorted(CI_POINTS)):
        assert math.hypot(gx - wx, gy - wy) < 1e-6


def test_locate_ci_gaps_below_tolerance(four_point_result):
    assert len(four_point_result.gaps) == 4
    for gap in four_point_result.gaps:
        assert 0.0 <= gap <= 1e-8


def test_locate_ci_points_are_local_minima(field, four_point_result):
    for (x, y), gap in zip(four_point_result.points, four_point_result.gaps):
        for dx, dy in ((1e-2, 0.0), (-1e-2, 0.0), (0.0, 1e-2), (0.0, -1e-2)):
            assert gap_at(field, x + dx, y + dy) > gap


def test_locate_ci_accounting(four_point_result):
    res = four_point_result
    assert res.cells_evaluated > 0
    assert sum(res.depth_histogram.values()) == res.cells_evaluated
    # unconditional splitting means nothing shallower than min_depth is scored
    assert min(res.depth_histogram) >= 4


def test_locate_ci_scores_each_cell_once(field, monkeypatch):
    # a side shared by two cells, or scored for a cell's parent, is not
    # tracked again
    tracked = []
    link_signs = cilocate._link_signs

    def recording(f, ends, *args):
        tracked.extend(map(tuple, ends.reshape(-1, 4).tolist()))
        return link_signs(f, ends, *args)

    monkeypatch.setattr(cilocate, "_link_signs", recording)
    res = locate_ci(field, SearchRect(-0.6, 0.5, -0.55, 0.5),
                    spatial_tol=1e-2, samples_per_edge=16, min_depth=2)
    assert len(res.points) == 1
    assert len(tracked) == len(set(tracked))
    assert res.cells_evaluated == sum(res.depth_histogram.values())


def test_locate_ci_polishes_once_per_degeneracy(field, monkeypatch):
    # at the README window the origin cone lies on the corners of four
    # surviving cells and (-2, 0) on a side of two: eight cells, four groups,
    # polished together in one call
    polished = []
    compass = cilocate._compass_min

    def recording(*args):
        polished.append(args)
        return compass(*args)

    monkeypatch.setattr(cilocate, "_compass_min", recording)
    res = locate_ci(field, SearchRect(-3.0, 3.0, -3.0, 3.0))
    assert len(polished) == 1
    assert len(polished[0][2]) == len(res.points) == 4
    for (gx, gy), (wx, wy) in zip(sorted(res.points), sorted(CI_POINTS)):
        assert math.hypot(gx - wx, gy - wy) < 1e-6


def reference_compass_min(field, band, x, y, step, gap_tol):
    """The gap polish of one group on its own, one round after another: the
    polish cilocate ran group by group before the groups of a search shared
    their rounds, kept within one side of its seed."""
    def gaps_at(pts):  # each probe a chain of one point: no overlaps formed
        return band_steps(field, pts[:, None], band)[2][:, 0]

    at = seed = np.array([x, y])
    best = gaps_at(at[None])[0]
    side = step
    min_step = 1e-14 * max(1.0, abs(x), abs(y))
    while step > min_step and best > 0.25 * gap_tol:
        pts = at + step * cilocate._POLL
        gaps = gaps_at(pts)
        with np.errstate(over="ignore", invalid="ignore"):
            c, (e, w, n, s, d) = best * best, gaps * gaps
            gx, gy = 0.5 * (e - w), 0.5 * (n - s)
            hxx, hyy, hxy = e - 2.0 * c + w, n - 2.0 * c + s, d - e - n + c
            det = hxx * hyy - hxy * hxy
            if hxx > 0.0 and det > 0.0:
                move = step * np.array([hxy * gy - hyy * gx,
                                        hxy * gx - hxx * gy]) / det
                if np.abs(move).max() <= side:
                    pts = np.vstack([pts, at + move])
                    gaps = np.append(gaps, gaps_at(pts[-1:]))
        # a probe more than one side from the seed on either axis reads inf
        gaps[(np.abs(pts - seed) > side).any(axis=1)] = math.inf
        j = int(np.argmin(gaps))
        if gaps[j] < best:
            at, best = pts[j], gaps[j]
        else:
            step *= 0.5
    return (float(at[0]), float(at[1]), float(best))


def assert_joint_polish(field, band, groups, gap_tol=GAP_TOL):
    """_compass_min on all groups at once equals each group polished alone,
    bit for bit; returns the band_steps calls each group took alone."""
    want, calls = [], []
    for x, y, step in groups:
        with mock.patch.object(sys.modules[__name__], "band_steps",
                               wraps=band_steps) as solves:
            want.append(reference_compass_min(field, band, x, y, step,
                                              gap_tol))
        calls.append(solves.call_count)
    got = cilocate._compass_min(field, band, [g[:2] for g in groups],
                                [g[2] for g in groups], gap_tol)
    assert [[v.hex() for v in pt] for pt in got] == \
        [[v.hex() for v in pt] for pt in want]
    return calls


def test_joint_polish_matches_one_group_at_a_time(field):
    # seeded on the origin cone, whose gap 0 is below 0.25 gap_tol from the
    # start, and near the three others at different steps: the groups stop
    # after different numbers of rounds
    calls = assert_joint_polish(field, 0, [
        (0.0, 0.0, 0.5), (-2.01, 0.02, 0.1), (1.0, 1.7, 0.7),
        (0.98, -1.75, 0.05), (2.5, 2.5, 1.0)])
    assert calls[0] == 1
    assert len(set(calls)) == len(calls)
    # a cone whose gap valley runs off the axes, where the model probe moves
    for size, ratio, skew in ((2, 1e2, 0.3), (3, 1e4, -2.0)):
        assert_joint_polish(linear_cone_field(size, ratio, skew), size - 2, [
            (0.3, -0.3, 0.25), (0.0, 0.0, 1.0), (0.5, -0.1, 0.5)])


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                          st.floats(0.1, 2.0)), min_size=1, max_size=6),
       st.sampled_from([GAP_TOL, 1e-3, 0.0]))
def test_joint_polish_matches_random_groups(field, groups, gap_tol):
    assert_joint_polish(field, 0, groups, gap_tol)


def test_locate_ci_gaps_measured_at_points(field, four_point_result):
    # each reported gap is the one-point gap at its point, bit for bit
    for (x, y), gap in zip(four_point_result.points, four_point_result.gaps):
        _, _, gaps, _, _ = band_steps(field, np.array([[x, y]]), 0)
        assert float(gaps[0]).hex() == gap.hex()


CONE = (0.3141, -0.2718)


def linear_cone_field(size, ratio, skew):
    """A linear cone at CONE with gap 2 |A (r - CONE)|, A = [[1, skew],
    [0, 1 / ratio]]; at size 3 a third level at -5 lies below it, and a
    fixed rotation mixes all three, so the cone is between bands 1 and 2."""
    a = np.array([[1.0, skew], [0.0, 1.0 / ratio]])
    rot = np.linalg.qr(np.random.default_rng(7).normal(size=(size, size)))[0]

    def fn(coords):
        u, v = np.moveaxis((coords - CONE) @ a.T, -1, 0)
        m = np.zeros(coords.shape[:-1] + (size, size))
        m[..., 0, 0], m[..., 1, 1] = u, -u
        m[..., 0, 1] = m[..., 1, 0] = v
        if size == 3:
            m[..., 2, 2] = -5.0
        return rot @ m @ rot.T

    return HamiltonianField(dimension=size, matrix_fn=fn)


@pytest.mark.parametrize("skew", [0.3, -2.0])
@pytest.mark.parametrize("ratio", [1e2, 1e4])
@pytest.mark.parametrize("size", [2, 3])
def test_locate_ci_anisotropic_cone(size, ratio, skew):
    # the gap's valley runs off the axes; axis probes alone would have to
    # shrink to its width and crawl along it
    res = locate_ci(linear_cone_field(size, ratio, skew),
                    SearchRect(-1.0, 1.0, -1.0, 1.0), band=size - 2)
    assert len(res.points) == 1
    assert math.dist(res.points[0], CONE) <= 1e-3
    assert 0.0 <= res.gaps[0] <= 1e-8


def test_locate_ci_origin_only(field):
    res = locate_ci(field, SearchRect(-0.6, 0.5, -0.55, 0.5),
                    spatial_tol=1e-2, samples_per_edge=16, min_depth=2)
    assert len(res.points) == 1
    x, y = res.points[0]
    assert math.hypot(x, y) < 1e-6


def test_locate_ci_empty_region(field):
    res = locate_ci(field, SearchRect(2.2, 2.8, -0.3, 0.3),
                    spatial_tol=1e-2, samples_per_edge=16, min_depth=2)
    assert res.points == ()
    assert res.gaps == ()
    # a clean region is exactly the min-depth grid, nothing deeper
    assert res.depth_histogram == {2: 16}
    assert res.cells_evaluated == 16


def test_locate_ci_degeneracy_on_cell_corners(field):
    """A search box centered on the origin puts the degeneracy on cell
    corners at every level; the sides through it keep all four surrounding
    cells, which are grouped before polishing and give one point."""
    res = locate_ci(field, SearchRect(-0.8, 0.8, -0.8, 0.8),
                    spatial_tol=1e-2, samples_per_edge=16, min_depth=2)
    assert len(res.points) == 1
    assert math.hypot(*res.points[0]) < 1e-6


def test_locate_ci_max_depth(field):
    with pytest.raises(MaxDepthExceeded) as err:
        locate_ci(field, SearchRect(-0.6, 0.5, -0.55, 0.5),
                  spatial_tol=1e-9, samples_per_edge=16, min_depth=2,
                  max_depth=6)
    assert err.value.depth == 6
    assert "surviving cell SearchRect(" in str(err.value)
    assert "(sign -1, or a side through a degeneracy)" in str(err.value)


def test_locate_ci_cell_limit(field, monkeypatch):
    # with gap_tol above every gap no cell is pruned: the 256 cells of depth
    # 4 split to 1024, whose 4096 children pass a limit of 4^5
    monkeypatch.setattr(cilocate, "MAX_LEVEL_CELLS", 4 ** 5)
    with pytest.raises(CellLimitExceeded) as err:
        locate_ci(field, SearchRect(-3.0, 3.0, -3.0, 3.0), gap_tol=1e300,
                  samples_per_edge=1)
    assert (err.value.depth, err.value.survivors, err.value.gap_tol) == (
        5, 1024, 1e300)


@settings(max_examples=12, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(1.6, 2.4))
def test_locate_ci_outer_degeneracies_anywhere(g, ratio):
    # 2k/g in [1.6, 2.4] moves the three outer cones inside [-3, 3]^2
    p = JTParams(0.5 * ratio * g, g)
    res = locate_ci(jt_field(p, frame="cartesian"),
                    SearchRect(-3.0, 3.0, -3.0, 3.0), samples_per_edge=8)
    want = [d.cartesian() for d in degeneracy_points(p)]
    assert len(res.points) == len(want) == 4
    for wx, wy in want:
        near = [q for q in res.points if math.hypot(q[0] - wx, q[1] - wy) < 1e-3]
        assert len(near) == 1


def test_locate_ci_refuses_a_point_in_a_low_gap_region():
    # with g = 0 the gap is 2 k r, below gap_tol 1e-8 out to r = 0.049 at
    # k = 1.02e-7: every cell of the window survives, and so would a cloud
    # of points, each boxed by a loop whose sides read sign 0
    p = JTParams(1.01983e-07, 0.0)
    with pytest.raises(DegeneracyOnBoundary) as err:
        locate_ci(jt_field(p, frame="cartesian"),
                  SearchRect(-0.0419356, 0.0272725, -0.0419356, 0.0419356),
                  spatial_tol=1e-2, samples_per_edge=4, min_depth=2)
    assert err.value.gap <= err.value.gap_tol == 1e-8
    assert err.value.rect.x_max - err.value.rect.x_min == pytest.approx(2e-2)


def test_locate_ci_polish_stays_near_its_seed():
    # with g = 0 the gap 2 k r falls toward the origin without a floor: a
    # window at x = 1000 whose every cell reads sign 0 at gap_tol 3000.  The
    # polish of each group stays within one seed side (1/128) of its cell
    # instead of walking off toward x = 375, where the gap reaches gap_tol / 4
    rect = SearchRect(1000.0, 1001.0, -0.5, 0.5)
    with pytest.raises(DegeneracyOnBoundary) as err:
        locate_ci(jt_field(JTParams(1.0, 0.0), frame="cartesian"), rect,
                  spatial_tol=0.02, gap_tol=3000.0, samples_per_edge=1,
                  min_depth=0)
    box, side = err.value.rect, 1.0 / 128
    x, y = 0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max)
    assert rect.x_min - side <= x <= rect.x_max + side
    assert rect.y_min - side <= y <= rect.y_max + side


def test_locate_ci_split_at_float_resolution(field):
    # with tolerances of 1e-300 the cell on the split line y = 0 next to the
    # cone at (-2, 0) narrows to one ulp of x: its centre is no longer
    # strictly between its sides, and the first such cell of the level is
    # named
    with pytest.raises(MaxDepthExceeded) as err:
        locate_ci(field, SearchRect(-3, 3, -3, 3), spatial_tol=1e-300,
                  gap_tol=1e-300, max_depth=100)
    assert err.value.depth == 54
    assert err.value.rect == SearchRect(-2.0000000000000004, -2.0,
                                        -3.3306690738754696e-16, 0.0)
    assert "np.float64" not in str(err.value)  # named in Python floats


def test_locate_ci_deterministic(field):
    rect = SearchRect(-0.6, 0.5, -0.55, 0.5)
    a = locate_ci(field, rect, spatial_tol=1e-2, samples_per_edge=16,
                  min_depth=2)
    b = locate_ci(field, rect, spatial_tol=1e-2, samples_per_edge=16,
                  min_depth=2)
    assert a == b
    assert isinstance(a, CIResult)
