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
tracking pipeline.  Both frames evaluate f as one polynomial in z = x + i y
(model_polynomial), the polar one at x = r cos theta and y = r sin theta;
coupling_at takes the points (x, y) as given, as the spin drive does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .berryphase import (NodeSet, _sign_changes, overlap_trace,
                         refine_nodes)
from .eigenpath import (
    DiscretizedPath,
    EigenBranch,
    HamiltonianField,
    first_index,
    polar_samples,
    track_branch,
)
from .errors import (AlphaUndefined, BerrylineError, NodeMismatch, NonFinite,
                     OnDegeneracyCircle, SampleOnNode)

# Half-gap at or below which a point counts as on the degeneracy set, where
# the mixing angle has no value.
DEGENERACY_TOL = 1e-12

# Radii within this fraction of 2k/g count as lying on the degeneracy circle.
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


def model_polynomial(p: JTParams, x, y):
    """Re f = k x + (g/2)(x^2 - y^2) and Im f = 2 y (k/2 - (g/2) x) of
    f = k z + (g/2) conj(z)^2 at z = x + i y, elementwise: g/2 leads the
    quadratic products and Im f is formed at half scale, so both are finite
    where k r + g r^2/2 is (past that, callers hold np.errstate)."""
    gx = 0.5 * p.g * x
    return p.k * x + (gx * x - 0.5 * p.g * y * y), (0.5 * p.k - gx) * y * 2.0


def _plane(r, theta):
    """x = r cos theta and y = r sin theta, elementwise (radii >= 0)."""
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    if (r < 0).any():
        raise ValueError(f"radius must be >= 0, got {float(np.min(r))!r}")
    with np.errstate(invalid="ignore"):
        return r * np.cos(theta), r * np.sin(theta)


def coupling_field(p: JTParams, r, theta, first: int = 0):
    """coupling_at the points x = r cos theta, y = r sin theta (elementwise;
    its errors name the point's r and theta)."""
    with np.errstate(over="ignore", invalid="ignore"):
        x, y = _plane(r, theta)

    def polar(j):
        r_b, theta_b = np.broadcast_arrays(r, theta)
        return float(r_b.flat[j]), float(theta_b.flat[j])

    return coupling_at(p, x, y, polar, first)


def coupling_at(p: JTParams, x, y, polar, first: int = 0):
    """f, Delta = |f| and d alpha/d theta at the points (x, y), elementwise,
    off the degeneracy set.

    d alpha/d theta = Re(a/f) = (a_re f_re/Delta + a_im f_im/Delta)/Delta
    for a = k z - g conj(z)^2 = 3 k z - 2 f = -i df/d theta, formed from a/4
    and Delta/4 so that it is finite where k r + g r^2/2 is.  At the first
    point with Delta <= DEGENERACY_TOL this raises AlphaUndefined, at the
    first point where Delta overflows or is NaN, NonFinite; both name the
    point's index, counted from `first` (for arrays evaluated in pieces),
    and its (r, theta) = polar(j) for the point's own index j.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.empty(np.shape(x), dtype=complex)
        f.real, f.imag = model_polynomial(p, x, y)
    delta = np.abs(f)
    # the first point outside DEGENERACY_TOL < Delta < inf; NaN is outside
    j = first_index(np.ravel(~((delta > DEGENERACY_TOL) & (delta < math.inf))))
    if j < delta.size:
        r_j, theta_j = polar(j)
        if not math.isfinite(np.ravel(delta)[j]):
            raise NonFinite(f"coupling at point {first + j} (r={r_j!r}, "
                            f"theta={theta_j!r}) is not finite")
        raise AlphaUndefined(first + j, r_j, theta_j)
    with np.errstate(over="ignore", invalid="ignore"):
        dalpha = ((0.75 * p.k * x - 0.5 * f.real) * (f.real / delta)
                  + (0.75 * p.k * y - 0.5 * f.imag) * (f.imag / delta)
                  ) / (0.25 * delta)
    return f[()], delta, dalpha


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
    trap = 0.5 * r * r
    return JTPointData(delta_E=delta, alpha=alpha,
                       energies=(trap - delta, trap + delta))


def _model_matrix(p: JTParams, x, y) -> np.ndarray:
    """Re f on the diagonal, Im f off it: (..., 2, 2) from (...) x, y."""
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = model_polynomial(p, x, y)
    m = np.empty(np.shape(re) + (2, 2))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = re, im, im, -re
    return m


def jt_electronic_hamiltonian(p: JTParams, r, theta) -> np.ndarray:
    """2x2 diabatic electronic matrix: Re f on the diagonal, Im f off it.

    Equal to Delta (sin alpha sigma_x + cos alpha sigma_z); traceless with
    eigenvalues +-Delta.  Well defined on the degeneracy set, where it is the
    zero matrix.  Elementwise over array r, theta: shape (..., 2, 2).
    """
    return _model_matrix(p, *_plane(r, theta))


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

    Both frames evaluate model_polynomial, the polar one at x = r cos theta
    and y = r sin theta.  In both an overflow leaves inf or NaN entries,
    which evaluate reports as NonFinite.
    """
    if frame not in ("polar", "cartesian"):
        raise ValueError(f"frame must be 'polar' or 'cartesian', got {frame!r}")

    def fn(coords) -> np.ndarray:
        c = np.asarray(coords, dtype=float)
        xy = (c[..., 0], c[..., 1])
        return _model_matrix(p, *(_plane(*xy) if frame == "polar" else xy))

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
    """All conical intersections: the origin, plus three on r = 2k/g if that
    radius is a positive float (k, g > 0, and 2k/g neither overflows nor
    underflows)."""
    pts = [DegeneracyPoint(0.0, None)]
    rc = p.degeneracy_radius
    if rc is not None and 0.0 < rc < math.inf:
        for t in (math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0):
            pts.append(DegeneracyPoint(rc, t))
    return tuple(pts)


def node_angles_analytic(p: JTParams, r: float) -> tuple[float, ...]:
    """Closed-form node angles of the anchor overlap on the circle of radius r.

    Solves alpha(r, theta) = pi: theta = pi inside the degeneracy circle,
    theta = +-arccos(k / (g r)) outside it; pure linear coupling gives {pi},
    pure quadratic gives {pi/2, 3pi/2}.  Raises OnDegeneracyCircle within
    1e-10 (relative) of r = 2k/g, where the node structure jumps.
    """
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r!r}")
    if p.g == 0:
        return (math.pi,)
    if p.k == 0:
        return (0.5 * math.pi, 1.5 * math.pi)
    rc = p.degeneracy_radius
    # 2k/g past the float range is inf, where the relative band is every r
    if rc < math.inf and abs(r - rc) <= DEGENERACY_CIRCLE_TOL * rc:
        raise OnDegeneracyCircle(r, rc)
    if r < rc:
        return (math.pi,)
    a = math.acos(p.k / (p.g * r))
    return (a, 2.0 * math.pi - a)


def _circle_thetas(n_samples: int, offset: float) -> np.ndarray:
    """Angles of a closed circle grid that keeps theta = 0 as its first point.

    With offset > 0 the interior samples shift by offset * h while the anchor
    and the closure point stay at 0 and 2 pi, so the anchor convention
    alpha_0 = alpha(r, 0) survives the shifted grid.  Of the grid theta_j =
    j h (offset 0) and the half-step grid (offset 0.5), the first has a
    sample at theta = pi for even n_samples, the second for odd.
    """
    h = 2.0 * math.pi / n_samples
    if offset == 0.0:
        return h * np.arange(n_samples + 1)
    interior = h * (offset + np.arange(n_samples))
    return np.concatenate(([0.0], interior, [2.0 * math.pi]))


def _circle_branch(field: HamiltonianField, r: float, n_samples: int,
                   band: int, offset: float) -> EigenBranch:
    """The band tracked on the closed circle of radius r over
    _circle_thetas(n_samples, offset), anchored at theta = 0."""
    path = DiscretizedPath(polar_samples(r, _circle_thetas(n_samples, offset)),
                           closed=True)
    return track_branch(field, path, band=band)


def circle_nodes(p: JTParams, r: float, n_samples: int = 2048, band: int = 0):
    """The circle of radius r tracked on a grid with no sample on a node:
    (branch, overlap_trace(branch)), ready for refine_nodes.

    As f(r, -theta) = conj f(r, theta), the nodes are {pi}, {pi/2, 3 pi/2}
    or {a, 2 pi - a}: all on one of the two grids of _circle_thetas, h/2 off
    the other.  Reads first the grid with no sample at theta = pi, the
    half-step grid for even n_samples and theta_j = j h for odd: it tracks
    the circle there and checks the trace for a sample on a node.  It reads
    the other grid only where either step fails.  Where both fail, raises
    the j h grid's error, or the half-step grid's where the j h grid has a
    sample on a node.  A DegeneracyOnPath or AmbiguousContinuation of one
    grid need not hold on the other, h/2 away, so the half-step grid can
    read a circle whose j h grid fails.  The bisection is left to the
    caller, so that the circles of a sweep share its rounds; a probe of it
    that raises NonFinite does not send the circle to the other grid.
    """
    field = jt_field(p, frame="polar")

    def read(offset):
        branch = _circle_branch(field, r, n_samples, band, offset)
        trace = overlap_trace(branch)
        _sign_changes(trace)
        return branch, trace

    first = 0.5 if n_samples % 2 == 0 else 0.0
    try:
        return read(first)
    except BerrylineError as err:
        failed = err
    try:
        return read(0.5 - first)
    except BerrylineError as err:
        jh, half = (err, failed) if first else (failed, err)
        raise (half if isinstance(jh, SampleOnNode) else jh) from None


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


def checked_circle(p: JTParams, r: float, n_samples: int = 2048,
                   band: int = 0):
    """circle_nodes' branch with its refined nodes, checked against the
    closed form: (branch, nodes, analytic).

    Raises OnDegeneracyCircle first, before any tracking, and NodeMismatch
    where the nodes disagree with the closed form beyond NODAL_MAP_TOL.
    """
    analytic = node_angles_analytic(p, r)
    branch, _ = circle_nodes(p, r, n_samples, band)
    [nodes] = refine_nodes([branch])
    check_nodes(r, nodes, analytic)
    return branch, nodes, analytic


def nodal_map(p: JTParams, r_values, theta_samples: int = 2048,
              band: int = 0) -> NodalMap:
    """checked_circle's node angles for each radius, with the nodes of every
    circle bisected in joint rounds (refine_nodes).

    Radii on the degeneracy circle are skipped (the circle itself belongs to
    the degeneracy list, not the node map).  circle_nodes runs once per
    radius, in order, and each branch is dropped once its brackets are
    taken, so the sweep holds one tracked circle at a time.  Errors keep
    the radius order: the sweep stops at the first radius that raises, the
    radii before it are refined and checked (their NodeMismatch first), and
    then that radius's error is raised.
    """
    radii, analytic, skipped, failed = [], [], [], []

    def branches():
        for r in r_values:
            try:
                r = float(r)
                angles = node_angles_analytic(p, r)
                branch = circle_nodes(p, r, theta_samples, band)[0]
            except OnDegeneracyCircle:
                skipped.append(r)
                continue
            except Exception as err:  # raised after the radii before it
                failed.append(err)
                return
            radii.append(r)
            analytic.append(angles)
            yield branch
            del branch  # before the next circle is tracked

    node_sets = refine_nodes(branches())
    rows = []
    for r, nodes, angles in zip(radii, node_sets, analytic):
        check_nodes(r, nodes, angles)
        rows.append(NodalMapRow(r=r, numeric_angles=nodes.angles,
                                analytic_angles=angles))
    if failed:
        raise failed[0]
    return NodalMap(rows=tuple(rows), skipped_radii=tuple(skipped),
                    degeneracies=degeneracy_points(p))
