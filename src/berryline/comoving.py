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

# Steps of the drive evaluated and propagated at a time: the work arrays of
# one chunk stay small, whatever the step count.
CHUNK_STEPS = 1 << 14


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
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(r <= 0):
            raise ValueError("trajectory radii must be > 0")
        self.times, self.r_of_t, self.theta_of_t = t, r, th
        # np.gradient's uniform form applies when every time step is equal
        self._uniform_step = dt[0] if (dt == dt[0]).all() else None

    def theta_dot(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Angular velocity at samples start..stop-1 by central differences.

        Bitwise np.gradient(theta_of_t, times) over all samples: one-sided
        at the two ends, and in the uniform form when every time step is
        equal.  Inf or NaN where time steps near the ends of the float range
        overflow or underflow its terms.
        """
        t, th, h = self.times, self.theta_of_t, self._uniform_step
        n = len(t)
        stop = n if stop is None else stop
        lo, hi = max(start - 1, 0), min(stop + 1, n)
        out = np.empty(stop - start)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f = th[lo:hi]
            if h is not None:
                inner = (f[2:] - f[:-2]) / (2. * h)
            else:
                dx = np.diff(t[lo:hi])
                dx1, dx2 = dx[:-1], dx[1:]
                a = -(dx2) / (dx1 * (dx1 + dx2))
                b = (dx2 - dx1) / (dx1 * dx2)
                c = dx1 / (dx2 * (dx1 + dx2))
                inner = a * f[:-2] + b * f[1:-1] + c * f[2:]
            out[(start == 0):len(out) - (stop == n)] = inner
            if start == 0:
                out[0] = (th[1] - th[0]) / (t[1] - t[0] if h is None else h)
            if stop == n:
                out[-1] = (th[-1] - th[-2]) / (t[-1] - t[-2] if h is None else h)
        return out


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
    """Figures of the coupling along a trajectory."""

    alphas: np.ndarray  # unwrapped mixing angle at the requested samples
    gap_area: float     # midpoint-rule integral of Delta dt
    ratio: float        # adiabaticity ratio at the samples


def _unwrap_corrections(steps: np.ndarray) -> np.ndarray:
    """np.unwrap's correction for each step of a raw angle (period 2 pi)."""
    ddmod = np.mod(steps + math.pi, 2.0 * math.pi) - math.pi
    np.copyto(ddmod, math.pi, where=(ddmod == -math.pi) & (steps > 0))
    corrections = ddmod - steps
    np.copyto(corrections, 0.0, where=np.abs(steps) < math.pi)
    return corrections


def _drive(p: JTParams, traj: NuclearTrajectory, block: int = 1,
           recorded=(), step=None) -> _Drive:
    """Evaluate the coupling at the samples, then at the step midpoints, in
    chunks of max(CHUNK_STEPS, block) points.

    The samples give the adiabaticity ratio and the unwrapped mixing angle
    at the ascending sample indices `recorded`.  Each chunk of midpoints
    goes to `step(start, dt, f, delta, dalpha)`, in time order, and then is
    dropped.  coupling_field raises AlphaUndefined or NonFinite at the first
    sample, then, after a ratio that is not finite raises NonFinite, at the
    first midpoint; indices count from the first sample or step.  Every
    figure is bitwise the one whole arrays give: maxima and np.unwrap's
    running sum carry exactly from chunk to chunk, and gap_area is one
    np.sum over all steps.
    """
    chunk = max(CHUNK_STEPS, block)
    t, r, th = traj.times, traj.r_of_t, traj.theta_of_t
    n_steps = len(t) - 1
    recorded = np.asarray(recorded, dtype=int)
    alphas = np.empty(len(recorded))
    maxima = []
    # the raw angle and the unwrap correction of the sample before a chunk;
    # adding -0.0 leaves the first angle as it is, even a -0.0
    last, carry = np.empty(0), -0.0
    # past the float range the products and midpoints are inf or NaN: a
    # ratio that is not finite raises here, a midpoint the coupling reports
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n_steps + 1, chunk):
            f, delta, dalpha = coupling_field(p, r[s:s + chunk],
                                              th[s:s + chunk], first=s)
            theta_dot = traj.theta_dot(s, min(s + chunk, n_steps + 1))
            maxima.append(np.max(np.abs(dalpha) * np.abs(theta_dot) / delta))
            angle = np.angle(f)
            steps = np.diff(np.concatenate((last, angle)))
            sums = np.cumsum(np.concatenate(([carry],
                                             _unwrap_corrections(steps))))
            lo, hi = np.searchsorted(recorded, (s, s + chunk))
            j = recorded[lo:hi] - s
            alphas[lo:hi] = angle[j] + sums[j + len(last)]
            last, carry = angle[-1:], sums[-1]
        ratio = float(np.max(maxima))
        if not math.isfinite(ratio):
            raise NonFinite(f"adiabaticity ratio {ratio!r} is not finite: "
                            "the angular velocity or d alpha/d theta leaves "
                            "the float range")
    area = np.empty(n_steps)  # Delta dt
    for s in range(0, n_steps, chunk):
        e = min(s + chunk, n_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            f, delta, dalpha = coupling_field(p, 0.5 * (r[s:e] + r[s + 1:e + 1]),
                                              0.5 * (th[s:e] + th[s + 1:e + 1]),
                                              first=s)
            dt = np.diff(t[s:e + 1])
            area[s:e] = delta * dt
        if step is not None:
            step(s, dt, f, delta, dalpha)
    with np.errstate(over="ignore", invalid="ignore"):
        gap_area = float(np.sum(area))
    return _Drive(alphas, gap_area, ratio)


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
    The drive is evaluated and propagated one chunk of steps at a time
    (see _drive).  For a store_stride up to CHUNK_STEPS a chunk is
    CHUNK_STEPS steps long, so memory grows with the step count only
    through the trajectory and one float per step for gap_area; a larger
    stride makes each chunk one record block long.
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

    t, th = traj.times, traj.theta_of_t
    n_steps = len(t) - 1
    # a stride at or above the step count records the first and the last
    # state, as one block padded to a power of two does
    block = min(store_stride, 1 << (n_steps - 1).bit_length())
    idx = np.minimum(np.arange(-(-n_steps // block) + 1) * block, n_steps)
    states = [psi]
    unresolved = None  # the first step that under-resolves, raised at the end

    def propagate(start, dt, f_mid, delta, dalpha):
        nonlocal psi, unresolved
        if unresolved is not None:
            return
        n = len(dt)
        # past the float range the products are inf or NaN: an unresolved
        # step stops the propagation, and a step field whose squared norm
        # overflows (|h| past 1e154) makes a NaN step, caught in the last
        # state
        with np.errstate(over="ignore", invalid="ignore"):
            drive = dalpha * (np.diff(th[start:start + n + 1]) / dt)
            resolution = dt * np.maximum(2.0 * delta, np.abs(drive))
            resolved = resolution < STEP_RESOLUTION_LIMIT  # NaN is unresolved
            if not resolved.all():
                j = int(np.argmin(resolved))
                unresolved = StepTooLarge(start + j, float(resolution[j]),
                                          STEP_RESOLUTION_LIMIT)
                return

            if frame == "lab":
                hx, hy, hz = np.imag(f_mid), np.zeros(n), np.real(f_mid)
            else:
                hx, hy, hz = np.zeros(n), -0.5 * drive, delta
            omega = np.sqrt(hx * hx + hy * hy + hz * hz)
            phase = omega * dt
            cos_p = np.cos(phase)
            sinc = np.sin(phase) / omega
            # U = cos(w dt) - i sin(w dt)/w (hx sx + hy sy + hz sz), componentwise
            ua = cos_p - 1j * sinc * hz
            ub = -sinc * hy - 1j * sinc * hx
            uc = sinc * hy - 1j * sinc * hx
            ud = cos_p + 1j * sinc * hz

        # pad the last chunk to a whole number of blocks with identity steps
        pad = (-n) % block
        if pad:
            one = np.ones(pad, dtype=complex)
            zero = np.zeros(pad, dtype=complex)
            ua, ub = np.concatenate((ua, one)), np.concatenate((ub, zero))
            uc, ud = np.concatenate((uc, zero)), np.concatenate((ud, one))
        ba, bb, bc, bd = _reduce_blocks(ua, ub, uc, ud, block)

        with np.errstate(invalid="ignore"):  # a NaN step reaches the last state
            for k in range(len(ba)):
                psi = np.array([ba[k] * psi[0] + bb[k] * psi[1],
                                bc[k] * psi[0] + bd[k] * psi[1]])
                # the two dot products np.linalg.norm takes on a complex vector
                psi = psi / np.sqrt(psi.real.dot(psi.real) + psi.imag.dot(psi.imag))
                states.append(psi)

    result = _drive(p, traj, block, idx, propagate)
    if unresolved is not None:
        raise unresolved
    if not np.isfinite(psi).all():
        raise NonFinite("spin state is not finite: the step field's squared "
                        "norm overflows")
    return SpinEvolution(times=t[idx], states=np.array(states), frame=frame,
                         alphas=result.alphas, gap_area=result.gap_area,
                         adiabaticity_ratio=result.ratio)


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
