"""Tests for the loop-sign degeneracy locator."""

import math

import numpy as np
import pytest

import berryline.cilocate as cilocate
from berryline import (
    CIResult,
    DegeneracyOnBoundary,
    JTParams,
    MaxDepthExceeded,
    SearchRect,
    jt_field,
    locate_ci,
    loop_sign,
)

SQRT3 = math.sqrt(3.0)

# known degeneracies of the k = g = 1 model in Cartesian coordinates
CI_POINTS = [(0.0, 0.0), (1.0, SQRT3), (-2.0, 0.0), (1.0, -SQRT3)]


@pytest.fixture(scope="module")
def field():
    return jt_field(JTParams(1.0, 1.0), frame="cartesian")


def gap_at(field, x, y):
    w = np.linalg.eigvalsh(field.matrix_fn(np.array([x, y])))
    return float(w[1] - w[0])


# ---------------------------------------------------------------------------
# rectangles


def test_search_rect_geometry():
    r = SearchRect(-1.0, 3.0, 0.0, 2.0)
    assert r.width == 4.0 and r.height == 2.0
    assert r.center == (1.0, 1.0)
    assert r.diameter == pytest.approx(math.hypot(4.0, 2.0))
    e = r.expanded(0.5)
    assert (e.x_min, e.x_max, e.y_min, e.y_max) == (-1.5, 3.5, -0.5, 2.5)
    quads = r.quadrants()
    assert len(quads) == 4
    assert sum(q.width * q.height for q in quads) == pytest.approx(8.0)


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
        for q in rect.quadrants():
            product *= loop_sign(field, q)
        assert parent == product


def test_loop_sign_boundary_through_degeneracy(field):
    # the closing edge x = 0 passes exactly through the origin
    with pytest.raises(DegeneracyOnBoundary) as err:
        loop_sign(field, SearchRect(0.0, 1.0, -0.5, 0.5))
    assert err.value.gap <= 1e-8


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
    # a -1 child read by its parent's split is not scored again when popped
    scored = []

    def recording(*args, **kwargs):
        sign = loop_sign(*args, **kwargs)
        scored.append(args[1])
        return sign

    monkeypatch.setattr(cilocate, "loop_sign", recording)
    res = locate_ci(field, SearchRect(-0.6, 0.5, -0.55, 0.5),
                    spatial_tol=1e-2, samples_per_edge=16, min_depth=2)
    assert len(res.points) == 1
    assert len(scored) == len(set(scored)) == res.cells_evaluated


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
    corners at every level; boundary expansion has to absorb that and the
    duplicate candidates from the four surrounding cells must merge."""
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


def test_locate_ci_deterministic(field):
    rect = SearchRect(-0.6, 0.5, -0.55, 0.5)
    a = locate_ci(field, rect, spatial_tol=1e-2, samples_per_edge=16,
                  min_depth=2)
    b = locate_ci(field, rect, spatial_tol=1e-2, samples_per_edge=16,
                  min_depth=2)
    assert a == b
    assert isinstance(a, CIResult)
