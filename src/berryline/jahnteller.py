"""Linear-plus-quadratic E x e Jahn-Teller model on the pseudorotation plane.

The two diabatic surfaces couple through a single complex field

    f(r, theta) = k r e^{i theta} + (g/2) r^2 e^{-2 i theta},

whose modulus is half the adiabatic gap and whose argument is the mixing
angle:

    2 Delta(r, theta) = gap,  Delta = |f| = sqrt(k^2 r^2 + k g r^3 cos 3theta
                                                 + g^2 r^4 / 4),
    alpha(r, theta) = arg f.

The electronic Hamiltonian is Delta (sin alpha sigma_x + cos alpha sigma_z)
in the diabatic basis, so the adiabatic pair is (cos alpha/2, sin alpha/2)
and (-sin alpha/2, cos alpha/2) with energies r^2/2 +- Delta.  Degeneracies
sit at the origin and, for k, g > 0, at radius 2k/g under theta = pi/3, pi,
5pi/3.  Anchoring the lower branch at theta = 0 (where alpha = 0), its
overlap with the anchor is cos(alpha/2); the zeros of that overlap are the
node lines computed here both in closed form and through the generic
tracking pipeline.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .berryphase import NodeSet, overlap_trace, refine_nodes
from .eigenpath import (
    DiscretizedPath,
    HamiltonianField,
    first_index,
    polar_samples,
    track_branch,
)
from .errors import (AlphaUndefined, NodeMismatch, NonFinite, OnDegeneracyCircle,
                     SampleOnNode)

# Half-gap at or below which a point counts as on the degeneracy set, where
# the mixing angle has no value.
DEGENERACY_TOL = 1e-12

# Radii closer than this to 2k/g count as lying on the degeneracy circle.
DEGENERACY_CIRCLE_TOL = 1e-10


@dataclass(frozen=True)
class JTParams:
    """Linear (k) and quadratic (g) coupling constants, k, g >= 0, not both 0."""

    k: float
    g: float

    def __post_init__(self):
        if self.k < 0 or self.g < 0:
            raise ValueError(f"couplings must be >= 0, got k={self.k!r} g={self.g!r}")
        if self.k == 0 and self.g == 0:
            raise ValueError("k and g cannot both vanish")

    @property
    def degeneracy_radius(self) -> float | None:
        """Radius of the outer degeneracy circle, or None without one."""
        if self.k > 0 and self.g > 0:
            return 2.0 * self.k / self.g
        return None


def coupling_terms(p: JTParams, r, theta) -> tuple[np.ndarray, np.ndarray]:
    """(k r e^{i theta}, (g/2) r^2 e^{-2 i theta}) elementwise; f is their sum."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if (r < 0).any():
        raise ValueError(f"radius must be >= 0, got {float(np.min(r))!r}")
    return (p.k * r * np.exp(1j * theta),
            0.5 * p.g * r * r * np.exp(-2j * theta))


def coupling_field(p: JTParams, r, theta, error=None):
    """f, Delta = |f| and d alpha/d theta elementwise, off the degeneracy set.

    d alpha/d theta = d arg f/d theta = Re[(k r e^{i theta}
    - g r^2 e^{-2 i theta}) / f].  At the first point with Delta <=
    DEGENERACY_TOL this raises error(index, r_j, theta_j), or
    AlphaUndefined(r_j, theta_j) when no error class is given; at the first
    point where Delta overflows or is NaN, NonFinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        linear, quadratic = coupling_terms(p, r, theta)
        f = linear + quadratic
        delta = np.abs(f)
    # the first point outside DEGENERACY_TOL < Delta < inf; NaN is outside
    j = first_index(np.ravel(~((delta > DEGENERACY_TOL) & (delta < math.inf))))
    if j < delta.size:
        r_b, theta_b = np.broadcast_arrays(r, theta)
        r_j, theta_j = float(r_b.flat[j]), float(theta_b.flat[j])
        if not math.isfinite(np.ravel(delta)[j]):
            raise NonFinite(f"coupling at point {j} (r={r_j!r}, "
                            f"theta={theta_j!r}) is not finite")
        raise (error(j, r_j, theta_j) if error else AlphaUndefined(r_j, theta_j))
    with np.errstate(divide="ignore", invalid="ignore"):
        dalpha = np.real((linear - 2.0 * quadratic) / f)
    return f, delta, dalpha


@dataclass(frozen=True)
class JTPointData:
    """Gap half-width, mixing angle and adiabatic energies at one point."""

    delta_E: float
    alpha: float
    energies: tuple[float, float]


def jt_point_data(p: JTParams, r: float, theta: float) -> JTPointData:
    """Delta, alpha and (E_minus, E_plus) at (r, theta).

    alpha is the principal argument in (-pi, pi].  Raises AlphaUndefined on
    the degeneracy set, where the angle has no value.
    """
    f, delta, _ = coupling_field(p, r, theta)
    f, delta = complex(f), float(delta)
    alpha = math.atan2(f.imag, f.real)
    if alpha <= -math.pi:
        alpha = math.pi
    # sanity: polar pair must reproduce the coupling field
    err = abs(delta * cmath.exp(1j * alpha) - f)
    if err > 1e-12 * max(1.0, delta):
        raise RuntimeError(f"polar decomposition residual {err:.3e}")
    trap = 0.5 * r * r
    return JTPointData(delta_E=delta, alpha=alpha,
                       energies=(trap - delta, trap + delta))


def _coupling_matrix(re_f, im_f) -> np.ndarray:
    """Re f on the diagonal, Im f off it: (..., 2, 2) from (...) arrays."""
    m = np.empty(np.shape(re_f) + (2, 2))
    m[..., 0, 0] = re_f
    m[..., 0, 1] = m[..., 1, 0] = im_f
    m[..., 1, 1] = -re_f
    return m


def jt_electronic_hamiltonian(p: JTParams, r, theta) -> np.ndarray:
    """2x2 diabatic electronic matrix: Re f on the diagonal, Im f off it.

    Equal to Delta (sin alpha sigma_x + cos alpha sigma_z); traceless with
    eigenvalues +-Delta.  Well defined on the degeneracy set, where it is the
    zero matrix.  Elementwise over array r, theta: shape (..., 2, 2).
    """
    linear, quadratic = coupling_terms(p, r, theta)
    f = linear + quadratic
    return _coupling_matrix(f.real, f.imag)


def rotation_matrix(alpha: float) -> np.ndarray:
    """exp(-i alpha sigma_y / 2) as a real 2x2 matrix; its columns are the
    upper and the lower adiabatic state at mixing angle alpha."""
    c, s = math.cos(0.5 * alpha), math.sin(0.5 * alpha)
    return np.array([[c, -s], [s, c]])


def jt_eigenvectors(p: JTParams, r: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form adiabatic pair (lower, upper) in the diabatic basis.

    lower = (-sin alpha/2, cos alpha/2), upper = (cos alpha/2, sin alpha/2):
    the second and the first column of rotation_matrix(alpha).
    """
    u = rotation_matrix(jt_point_data(p, r, theta).alpha)
    return u[:, 1], u[:, 0]


def jt_field(p: JTParams, frame: str = "polar") -> HamiltonianField:
    """The model as a HamiltonianField over polar (r, theta) or Cartesian (x, y).

    At z = x + i y, f = k z + (g/2) conj(z)^2 takes + and x alone; an
    overflow leaves inf or NaN entries, which evaluate reports as NonFinite.
    """
    if frame not in ("polar", "cartesian"):
        raise ValueError(f"frame must be 'polar' or 'cartesian', got {frame!r}")

    def fn(coords) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        a, b = c[..., 0], c[..., 1]
        if frame == "polar":
            return jt_electronic_hamiltonian(p, a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            return _coupling_matrix(p.k * a + 0.5 * p.g * (a - b) * (a + b),
                                    b * (p.k - p.g * a))

    return HamiltonianField(dimension=2, matrix_fn=fn)


@dataclass(frozen=True)
class DegeneracyPoint:
    """A conical intersection; theta is None for the origin where it is moot."""

    r: float
    theta: float | None

    def cartesian(self) -> tuple[float, float]:
        if self.theta is None:
            return (0.0, 0.0)
        return (self.r * math.cos(self.theta), self.r * math.sin(self.theta))


def degeneracy_points(p: JTParams) -> tuple[DegeneracyPoint, ...]:
    """All conical intersections: the origin, plus three on r = 2k/g if k, g > 0."""
    pts = [DegeneracyPoint(0.0, None)]
    rc = p.degeneracy_radius
    if rc is not None:
        for t in (math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0):
            pts.append(DegeneracyPoint(rc, t))
    return tuple(pts)


def node_angles_analytic(p: JTParams, r: float) -> tuple[float, ...]:
    """Closed-form node angles of the anchor overlap on the circle of radius r.

    Solves alpha(r, theta) = pi: theta = pi inside the degeneracy circle,
    theta = +-arccos(k / (g r)) outside it; pure linear coupling gives {pi},
    pure quadratic gives {pi/2, 3pi/2}.  Raises OnDegeneracyCircle within
    1e-10 of r = 2k/g, where the node structure changes discontinuously.
    """
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r!r}")
    if p.g == 0:
        return (math.pi,)
    if p.k == 0:
        return (0.5 * math.pi, 1.5 * math.pi)
    rc = p.degeneracy_radius
    if abs(r - rc) <= DEGENERACY_CIRCLE_TOL:
        raise OnDegeneracyCircle(r, rc)
    if r < rc:
        return (math.pi,)
    a = math.acos(p.k / (p.g * r))
    return (a, 2.0 * math.pi - a)


def _anchored_circle(r: float, n_samples: int, offset: float) -> DiscretizedPath:
    """Closed circle grid that keeps theta = 0 as its first point.

    With offset > 0 the interior samples shift by offset * h while the anchor
    and the closure point stay at 0 and 2 pi, so the anchor convention
    alpha_0 = alpha(r, 0) survives the shifted grid.
    """
    h = 2.0 * math.pi / n_samples
    if offset == 0.0:
        thetas = h * np.arange(n_samples + 1)
    else:
        interior = h * (offset + np.arange(n_samples))
        thetas = np.concatenate(([0.0], interior, [2.0 * math.pi]))
    return DiscretizedPath(polar_samples(r, thetas), closed=True)


def circle_nodes(p: JTParams, r: float, n_samples: int = 2048, band: int = 0):
    """Numeric node pipeline on one circle: track, trace, refine.

    Tracks on theta_j = j h and, if a sample sits on a node, once more on the
    half-step grid (anchor still at 0); SampleOnNode there propagates.  As
    f(r, -theta) = conj f(r, theta), the nodes are {pi}, {pi/2, 3 pi/2} or
    {a, 2 pi - a}: both on one kind of grid, h/2 off the other.  Returns
    (branch, trace, nodes), node angles inside (0, 2 pi).
    """
    field = jt_field(p, frame="polar")

    def pipeline(offset):
        branch = track_branch(field, _anchored_circle(r, n_samples, offset),
                              band=band)
        trace = overlap_trace(branch, anchor_index=0)
        return branch, trace, refine_nodes(trace)

    try:
        return pipeline(0.0)
    except SampleOnNode:
        return pipeline(0.5)


@dataclass(frozen=True)
class NodalMapRow:
    r: float
    numeric_angles: tuple[float, ...]
    analytic_angles: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.numeric_angles)


@dataclass(frozen=True)
class NodalMap:
    """Node lines over a radius sweep, numeric against closed form."""

    rows: tuple[NodalMapRow, ...]
    skipped_radii: tuple[float, ...]
    degeneracies: tuple[DegeneracyPoint, ...]


# Agreement demanded between pipeline and closed-form node angles.
NODAL_MAP_TOL = 1e-4


def check_nodes(r: float, nodes: NodeSet, analytic: tuple[float, ...]) -> None:
    """Raise NodeMismatch unless the pipeline's nodes at radius r have the
    closed form's count and each lies within NODAL_MAP_TOL of its angle."""
    if nodes.count != len(analytic) or any(
            abs(math.remainder(a - b, 2.0 * math.pi)) > NODAL_MAP_TOL
            for a, b in zip(nodes.angles, analytic)):
        raise NodeMismatch(r, nodes.angles, analytic)


def nodal_map(p: JTParams, r_values, theta_samples: int = 2048,
              band: int = 0) -> NodalMap:
    """Numeric node angles for each radius, verified against the closed form.

    Radii on the degeneracy circle are skipped (the circle itself belongs to
    the degeneracy list, not the node map).  A disagreement beyond 1e-4
    between pipeline and closed form raises NodeMismatch.
    """
    rows = []
    skipped = []
    for r in r_values:
        r = float(r)
        try:
            analytic = node_angles_analytic(p, r)
        except OnDegeneracyCircle:
            skipped.append(r)
            continue
        _, _, nodes = circle_nodes(p, r, n_samples=theta_samples, band=band)
        check_nodes(r, nodes, analytic)
        rows.append(NodalMapRow(r=r, numeric_angles=nodes.angles,
                                analytic_angles=analytic))
    return NodalMap(rows=tuple(rows), skipped_radii=tuple(skipped),
                    degeneracies=degeneracy_points(p))
