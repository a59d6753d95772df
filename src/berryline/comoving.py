"""Driven two-level dynamics in the frame that follows the mixing angle.

Rotating the diabatic basis by half the mixing angle (U = exp(-i alpha
sigma_y / 2)) diagonalizes the electronic matrix to Delta sigma_z.  For a
prescribed classical nuclear trajectory (r(t), theta(t)) the residual
coupling is the frame rotation rate, so the spin sees an effective magnetic
field

    B_eff = -(d alpha/d theta) thetadot e_y + 2 Delta e_z,

together with a radial effective electric component (d alpha/d theta)/(2 r).
The integrator advances the state with exact 2x2 exponentials of the
piecewise-constant step Hamiltonian, evaluated at step midpoints, either in
the lab frame (electronic matrix along the trajectory) or in the co-moving
frame (Delta sigma_z - (1/2) (d alpha/d theta) thetadot sigma_y).  The two
routes agree up to a global phase once the steps resolve the larger of the
gap frequency and the drive rate.

The scalar trap energy r^2/2 is a global phase for the two-level problem and
is dropped throughout; dynamical phases returned here are those of the
electronic part -+Delta alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .berryphase import canonicalize_phase
from .eigenpath import DiscretizedPath
from .errors import NonFinite, OpenPath, StepTooLarge
from .jahnteller import (JTParams, coupling_field, jt_electronic_hamiltonian,
                         jt_point_data, rotation_matrix)

# A step must keep dt * max(2 Delta, |dalpha/dtheta * thetadot|) below this.
STEP_RESOLUTION_LIMIT = 0.1

# Per-step winding increments above this are considered unresolved.
WINDING_STEP_LIMIT = 0.5 * math.pi


def comoving_transform(p: JTParams, r: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-angle rotation U and the rotated electronic matrix U^T H U.

    The rotated matrix is Delta sigma_z with off-diagonal entries at the
    1e-12 level; both are returned so callers can check the residual.
    """
    point = jt_point_data(p, r, theta)
    u = rotation_matrix(point.alpha)
    h_rot = u.T @ jt_electronic_hamiltonian(p, r, theta) @ u
    if abs(h_rot[0, 1]) > 1e-12 * max(1.0, point.delta_E):
        raise RuntimeError(
            f"rotated matrix off-diagonal {h_rot[0, 1]:.3e} not negligible"
        )
    return u, h_rot


@dataclass(frozen=True)
class EffectiveFields:
    """Effective magnetic vector and radial electric component seen by the spin."""

    b_eff: tuple[float, float, float]
    e_radial: float


def effective_fields(p: JTParams, r: float, theta: float,
                     theta_dot: float) -> EffectiveFields:
    """B_eff = (0, -dalpha thetadot, 2 Delta) and E_radial = dalpha / (2 r)."""
    if r <= 0:
        raise ValueError(f"radius must be > 0, got {r!r}")
    _, delta, dalpha = coupling_field(p, r, theta)
    b = (0.0, -float(dalpha) * theta_dot, 2.0 * float(delta))
    return EffectiveFields(b_eff=b, e_radial=float(dalpha) / (2.0 * r))


@dataclass(eq=False)
class NuclearTrajectory:
    """Sampled classical path (r(t), theta(t)) with strictly increasing times."""

    times: np.ndarray
    r_of_t: np.ndarray
    theta_of_t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        r = np.asarray(self.r_of_t, dtype=float)
        th = np.asarray(self.theta_of_t, dtype=float)
        if not (t.shape == r.shape == th.shape) or t.ndim != 1 or len(t) < 3:
            raise ValueError("times, r_of_t, theta_of_t must share one shape, >= 3 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(r)) and np.all(np.isfinite(th))):
            raise ValueError("trajectory samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(r <= 0):
            raise ValueError("trajectory radii must be > 0")
        self.times, self.r_of_t, self.theta_of_t = t, r, th

    def theta_dot(self) -> np.ndarray:
        """Angular velocity at the samples by central differences; inf or NaN
        where time steps near the ends of the float range overflow or
        underflow its terms."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.gradient(self.theta_of_t, self.times)


def pseudorotation_trajectory(r: float, period: float, n_steps: int,
                              theta0: float = 0.0,
                              revolutions: float = 1.0) -> NuclearTrajectory:
    """Uniform circular drive at fixed radius (overflow fails as non-finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linspace(0.0, period * revolutions, n_steps + 1)
        theta = theta0 + 2.0 * math.pi * revolutions * np.linspace(0.0, 1.0, n_steps + 1)
    return NuclearTrajectory(times=t, r_of_t=np.full(n_steps + 1, float(r)),
                             theta_of_t=theta)


class _Drive(NamedTuple):
    """The coupling along a trajectory, evaluated once at the samples and once
    at the step midpoints, with the scalars read from it."""

    f_samples: np.ndarray   # f at the samples
    f_mid: np.ndarray       # f at the step midpoints
    delta: np.ndarray       # Delta = |f| at the step midpoints
    dalpha: np.ndarray      # d alpha / d theta at the step midpoints
    gap_area: float         # midpoint-rule integral of Delta dt
    ratio: float            # adiabaticity ratio at the samples


def _drive(p: JTParams, traj: NuclearTrajectory) -> _Drive:
    """Evaluate the coupling at the samples, then at the step midpoints.

    coupling_field raises AlphaUndefined at the first sample, then the first
    midpoint, on the degeneracy set; an adiabaticity ratio that is not
    finite raises NonFinite.  The sample-side Delta and dalpha are dropped
    once the ratio is read from them.
    """
    f_samples, delta, dalpha = coupling_field(p, traj.r_of_t, traj.theta_of_t)
    # past the float range the products and midpoints are inf or NaN: a
    # ratio that is not finite raises here, a midpoint the coupling reports
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = float(np.max(np.abs(dalpha) * np.abs(traj.theta_dot()) / delta))
        if not math.isfinite(ratio):
            raise NonFinite(f"adiabaticity ratio {ratio!r} is not finite: "
                            "the angular velocity or d alpha/d theta leaves "
                            "the float range")
        del delta, dalpha
        r_mid = 0.5 * (traj.r_of_t[:-1] + traj.r_of_t[1:])
        th_mid = 0.5 * (traj.theta_of_t[:-1] + traj.theta_of_t[1:])
        f_mid, delta, dalpha = coupling_field(p, r_mid, th_mid)
        gap_area = float(np.sum(delta * np.diff(traj.times)))
    return _Drive(f_samples, f_mid, delta, dalpha, gap_area, ratio)


def adiabaticity_ratio(p: JTParams, traj: NuclearTrajectory) -> float:
    """max over samples of |dalpha/dtheta| |thetadot| / Delta (small = adiabatic).

    thetadot is the central-difference angular velocity at the samples.  The
    value is the one integrate_spin records as `adiabaticity_ratio`; like
    integrate_spin, this raises AlphaUndefined if a sample or a step midpoint
    lies on the degeneracy set, and NonFinite if the value is not finite.
    """
    return _drive(p, traj).ratio


@dataclass(eq=False)
class SpinEvolution:
    """Recorded spin states along a trajectory, in the requested frame.

    gap_area is the midpoint-rule integral of Delta over the trajectory, on
    the same midpoints the propagation used: the dynamical phase is
    +gap_area for the lower band and -gap_area for the upper one.
    adiabaticity_ratio is max |dalpha/dtheta| |thetadot| / Delta over the
    samples (see the function of that name).
    """

    times: np.ndarray
    states: np.ndarray
    frame: str
    alphas: np.ndarray
    gap_area: float
    adiabaticity_ratio: float

    def _pair(self) -> np.ndarray:
        return np.conj(self.states[:, 0]) * self.states[:, 1]

    @property
    def sigma_x(self) -> np.ndarray:
        return 2.0 * np.real(self._pair())

    @property
    def sigma_y(self) -> np.ndarray:
        return 2.0 * np.imag(self._pair())

    @property
    def sigma_z(self) -> np.ndarray:
        return (np.abs(self.states[:, 0]) ** 2
                - np.abs(self.states[:, 1]) ** 2)

    @property
    def sigma_y_variance(self) -> np.ndarray:
        """<sigma_y^2> - <sigma_y>^2 = 1 - <sigma_y>^2 for a pure state."""
        return 1.0 - self.sigma_y ** 2

    @property
    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _pairwise_product(a, b, c, d):
    """One tree-reduction pass: multiply adjacent 2x2 blocks (later @ earlier)."""
    a0, b0, c0, d0 = a[0::2], b[0::2], c[0::2], d[0::2]
    a1, b1, c1, d1 = a[1::2], b[1::2], c[1::2], d[1::2]
    return (a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
            c1 * a0 + d1 * c0, c1 * b0 + d1 * d0)


def _reduce_blocks(a, b, c, d, block: int):
    """Collapse step unitaries into per-block transfer matrices.

    The step count must be a multiple of `block`, which must be a power of
    two; the reduction keeps time order exactly and only reassociates the
    product, which is harmless algebraically and deterministic numerically.
    """
    n = len(a)
    shape = (n // block, block)
    a, b, c, d = (x.reshape(shape) for x in (a, b, c, d))
    while a.shape[1] > 1:
        a, b, c, d = _pairwise_product(a.T, b.T, c.T, d.T)
        a, b, c, d = a.T, b.T, c.T, d.T
    return a[:, 0], b[:, 0], c[:, 0], d[:, 0]


def integrate_spin(p: JTParams, traj: NuclearTrajectory, psi0: np.ndarray,
                   frame: str = "comoving",
                   store_stride: int = 1) -> SpinEvolution:
    """Propagate a spin state along the trajectory with exact step unitaries.

    Step Hamiltonians are evaluated at step midpoints.  frame="lab" uses the
    electronic matrix itself; frame="comoving" uses Delta sigma_z -
    (1/2) dalpha thetadot sigma_y and expects psi0 in the rotated basis.
    States are recorded every `store_stride` steps (power of two), plus the
    final state; recorded states are renormalized.  The returned `alphas`
    are the unwrapped mixing angles at the recorded times, which is what a
    frame conversion needs after the angle has wound around.  Raises
    StepTooLarge for a step that under-resolves the gap or the drive, and
    NonFinite where the ratio or the step field leaves the float range.
    """
    if frame not in ("lab", "comoving"):
        raise ValueError(f"frame must be 'lab' or 'comoving', got {frame!r}")
    if store_stride < 1 or store_stride & (store_stride - 1):
        raise ValueError(f"store_stride must be a power of two, got {store_stride}")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"psi0 must have shape (2,), got {psi.shape}")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"psi0 must be normalized, |norm - 1| = {abs(norm - 1.0):.3e}")

    t = traj.times
    dt = np.diff(t)
    n_steps = len(dt)

    f_samples, f_mid, delta, dalpha, gap_area, ratio = _drive(p, traj)

    # past the float range the products are inf or NaN: an unresolved step
    # raises here, and a step field whose squared norm overflows (|h| past
    # 1e154) makes a NaN step, caught in the last state
    with np.errstate(over="ignore", invalid="ignore"):
        drive = dalpha * (np.diff(traj.theta_of_t) / dt)
        resolution = dt * np.maximum(2.0 * delta, np.abs(drive))
        resolved = resolution < STEP_RESOLUTION_LIMIT  # NaN is unresolved
        if not resolved.all():
            j = int(np.argmin(resolved))
            raise StepTooLarge(j, float(resolution[j]), STEP_RESOLUTION_LIMIT)

        if frame == "lab":
            hx, hy, hz = np.imag(f_mid), np.zeros(n_steps), np.real(f_mid)
        else:
            hx, hy, hz = np.zeros(n_steps), -0.5 * drive, delta
        omega = np.sqrt(hx * hx + hy * hy + hz * hz)
        phase = omega * dt
        cos_p = np.cos(phase)
        sinc = np.sin(phase) / omega
        # U = cos(w dt) - i sin(w dt)/w (hx sx + hy sy + hz sz), componentwise
        ua = cos_p - 1j * sinc * hz
        ub = -sinc * hy - 1j * sinc * hx
        uc = sinc * hy - 1j * sinc * hx
        ud = cos_p + 1j * sinc * hz

    # pad to a whole number of blocks with identity steps
    block = store_stride
    pad = (-n_steps) % block
    if pad:
        one = np.ones(pad, dtype=complex)
        zero = np.zeros(pad, dtype=complex)
        ua, ub = np.concatenate((ua, one)), np.concatenate((ub, zero))
        uc, ud = np.concatenate((uc, zero)), np.concatenate((ud, one))
    ba, bb, bc, bd = _reduce_blocks(ua, ub, uc, ud, block)

    recorded = [psi]
    with np.errstate(invalid="ignore"):  # a NaN step reaches the last state
        for k in range(len(ba)):
            psi = np.array([ba[k] * psi[0] + bb[k] * psi[1],
                            bc[k] * psi[0] + bd[k] * psi[1]])
            # the two dot products np.linalg.norm takes on a complex vector
            psi = psi / np.sqrt(psi.real.dot(psi.real) + psi.imag.dot(psi.imag))
            recorded.append(psi)
    if not np.isfinite(psi).all():
        raise NonFinite("spin state is not finite: the step field's squared "
                        "norm overflows")

    idx = np.minimum(np.arange(len(recorded)) * block, n_steps)
    states = np.array(recorded)
    alphas_all = np.unwrap(np.angle(f_samples))
    return SpinEvolution(times=t[idx], states=states, frame=frame,
                         alphas=alphas_all[idx], gap_area=gap_area,
                         adiabaticity_ratio=ratio)


def to_lab_frame(evolution: SpinEvolution) -> np.ndarray:
    """Rotate recorded co-moving states into the lab frame.

    Uses the unwrapped mixing angle, so a full drive revolution (alpha up by
    2 pi) correctly contributes the extra overall sign of the half-angle
    rotation.
    """
    if evolution.frame != "comoving":
        raise ValueError("evolution is not in the co-moving frame")
    out = np.empty_like(evolution.states)
    for j, (alpha, psi) in enumerate(zip(evolution.alphas, evolution.states)):
        out[j] = rotation_matrix(alpha) @ psi
    return out


def dynamical_phase(p: JTParams, traj: NuclearTrajectory, band: int = 0) -> float:
    """-(integral of the band's electronic energy -+Delta) by the midpoint rule.

    That is +gap_area for band 0 and -gap_area for band 1, on the same
    midpoint samples as integrate_spin (which records gap_area), so the
    difference between a propagated total phase and this quantity isolates
    the geometric part without quadrature mismatch.
    """
    if band not in (0, 1):
        raise ValueError(f"band must be 0 or 1, got {band!r}")
    gap_area = _drive(p, traj).gap_area
    return gap_area if band == 0 else -gap_area


def ac_loop_phase(p: JTParams, loop: DiscretizedPath) -> float:
    """Half the winding of the mixing angle around a closed loop.

    Equals pi times the signed number of enclosed degeneracies mod 2 pi, and
    hence pi times the node-count parity: the phase an orbiting magnetic
    moment picks up from the effective line charges sitting at the
    degeneracies, in natural units and canonicalized to (-pi, pi].
    """
    if not loop.closed:
        raise OpenPath("the winding is defined for closed loops only")
    coords = loop.coords
    f, _, _ = coupling_field(p, coords[:, 0], coords[:, 1])
    alpha = np.angle(f)
    steps = np.angle(np.exp(1j * np.diff(alpha)))
    worst = int(np.argmax(np.abs(steps)))
    if abs(steps[worst]) >= WINDING_STEP_LIMIT:
        raise StepTooLarge(worst, float(abs(steps[worst])), WINDING_STEP_LIMIT)
    return canonicalize_phase(0.5 * float(np.sum(steps)))
