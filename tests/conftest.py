"""Shared fixtures: model parameter sets and a family of closed test loops.

The loop family mixes circles (polar paths) and polygons (Cartesian paths)
chosen so that every loop stays well clear of the degeneracy set while
collectively enclosing it in all interesting combinations: none, the origin
only, single outer points, several points of opposite local degree, and
multi-revolution windings.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from berryline import (
    DiscretizedPath,
    HamiltonianField,
    JTParams,
    circle_path,
    polygon_path,
    refine_nodes,
    to_polar_path,
)
from berryline.jahnteller import circle_nodes, jt_field


# Couplings over sixteen decades: near k / (g r) = 1e-16 a node rounds to
# pi/2, where the two terms of Im f cancel to rounding.
COUPLING = st.one_of(st.just(0.0), st.floats(1e-8, 1e8))


def refined_circle(p, r, n_samples=2048, band=0):
    """One circle on its own: circle_nodes' branch and trace, and the
    branch's nodes refined alone, as (branch, trace, nodes)."""
    branch, trace = circle_nodes(p, r, n_samples, band)
    [nodes] = refine_nodes([branch])
    return branch, trace, nodes


@pytest.fixture(scope="session")
def jt11():
    return JTParams(1.0, 1.0)


@pytest.fixture(scope="session")
def jt10():
    return JTParams(1.0, 0.0)


@pytest.fixture(scope="session")
def jt01():
    return JTParams(0.0, 1.0)


@dataclass
class LoopCase:
    """One closed loop with the field evaluated in its native frame."""

    name: str
    path: DiscretizedPath
    field: HamiltonianField
    polar_path: DiscretizedPath
    # loop parameter for node detection
    angles: np.ndarray


def _circle_case(p, name, r, n, theta0=0.0, revolutions=1.0):
    path = circle_path(r, n, theta0=theta0, revolutions=revolutions)
    return LoopCase(name, path, jt_field(p, frame="polar"), path,
                    path.coords[:, -1])


def _polygon_case(p, name, vertices, samples_per_edge=96):
    path = polygon_path(vertices, samples_per_edge=samples_per_edge)
    return LoopCase(name, path, jt_field(p, frame="cartesian"),
                    to_polar_path(path),
                    np.arange(len(path), dtype=float))


def _regular(n, radius, cx=0.0, cy=0.0, phase=0.0):
    return [
        (cx + radius * math.cos(phase + 2.0 * math.pi * j / n),
         cy + radius * math.sin(phase + 2.0 * math.pi * j / n))
        for j in range(n)
    ]


@pytest.fixture(scope="session")
def assorted_loops(jt11):
    """Twenty closed loops for the phase-law and loop-phase checks."""
    p = jt11
    # inner circles get a small start offset so the node at theta = pi does
    # not land exactly on the sampling grid
    cases = [
        _circle_case(p, "circle r=0.5", 0.5, 2048, theta0=0.0123),
        _circle_case(p, "circle r=1.0", 1.0, 2048, theta0=0.0123),
        _circle_case(p, "circle r=1.5", 1.5, 2048, theta0=0.0123),
        _circle_case(p, "circle r=2.5", 2.5, 2048),
        _circle_case(p, "circle r=3.0", 3.0, 2048),
        _circle_case(p, "circle r=5.0", 5.0, 2048),
        _circle_case(p, "circle r=10", 10.0, 2048),
        _circle_case(p, "circle r=1.0 shifted start", 1.0, 2048, theta0=0.3),
        _circle_case(p, "circle r=1.0 two turns", 1.0, 4096, theta0=0.0123,
                     revolutions=2.0),
        _circle_case(p, "circle r=0.7 three turns", 0.7, 4096, theta0=0.0123,
                     revolutions=3.0),
        _circle_case(p, "circle r=1.9", 1.9, 4096, theta0=0.0123),
        _circle_case(p, "circle r=2.1", 2.1, 4096),
        _polygon_case(p, "triangle around origin",
                      _regular(3, 1.2, phase=math.pi / 2)),
        _polygon_case(p, "square around origin",
                      [(1.2, 1.2), (-1.2, 1.2), (-1.2, -1.2), (1.2, -1.2)]),
        _polygon_case(p, "square around (-2,0)",
                      [(-2.3, -0.3), (-1.7, -0.3), (-1.7, 0.3), (-2.3, 0.3)]),
        _polygon_case(p, "square around upper outer point",
                      [(0.7, math.sqrt(3) - 0.3), (1.3, math.sqrt(3) - 0.3),
                       (1.3, math.sqrt(3) + 0.3), (0.7, math.sqrt(3) + 0.3)]),
        _polygon_case(p, "rectangle around origin and (-2,0)",
                      [(-2.5, -0.8), (0.5, -0.8), (0.5, 0.8), (-2.5, 0.8)]),
        _polygon_case(p, "square enclosing nothing",
                      [(2.3, -0.2), (2.7, -0.2), (2.7, 0.2), (2.3, 0.2)]),
        _polygon_case(p, "pentagon enclosing nothing",
                      _regular(5, 0.3, cx=0.0, cy=2.6)),
        _polygon_case(p, "hexagon around everything", _regular(6, 2.6)),
    ]
    assert len(cases) == 20
    return cases


def loop_xy(case: LoopCase) -> np.ndarray:
    """Cartesian coordinates of a loop, regardless of its native frame."""
    return np.array([(r * math.cos(theta), r * math.sin(theta))
                     for r, theta in case.polar_path.coords.tolist()])


def winding_number(xy: np.ndarray, px: float, py: float) -> int:
    """Integer winding of a closed Cartesian loop around a point."""
    z = (xy[:, 0] - px) + 1j * (xy[:, 1] - py)
    inc = np.angle(z[1:] / z[:-1])
    total = float(np.sum(inc))
    n = total / (2.0 * math.pi)
    assert abs(n - round(n)) < 1e-6, "loop passes too close to the point"
    return int(round(n))


def cone_states(thetas: np.ndarray, polar_angle: float) -> np.ndarray:
    """Spin-1/2 states on a cone of fixed polar angle, azimuth = thetas.

    The continuum geometric phase of the closed sweep (azimuth through 2 pi)
    is minus half the enclosed solid angle: -2 pi sin^2(polar/2).
    """
    c = math.cos(polar_angle / 2.0)
    s = math.sin(polar_angle / 2.0)
    out = np.empty((len(thetas), 2), dtype=complex)
    out[:, 0] = c
    out[:, 1] = s * np.exp(1j * thetas)
    return out
