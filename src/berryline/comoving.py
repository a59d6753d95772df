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

A drive is read in one pass over chunks of samples: each chunk gives the
coupling at its samples and at the midpoints of its steps, and its steps are
propagated, before the next one is read.  Every figure is bitwise the one
whole arrays give, save gap_area: np.sum of each GAP_BLOCK steps from the
drive's start, the sums added in adjacent pairs, level by level, an odd
last one carried up (np.sum's own value below GAP_BLOCK steps and at a
power-of-two number of whole blocks).  The propagation carries each step as
an SU(2) pair (a, b), U = [[a, -conj b], [b, conj a]]: the steps between
two records reduce to one pair, and a group of records takes the prefix
products of its pairs to the renormalized record before it; each record is
renormalized.

The coupling is evaluated at the Cartesian points the trajectory gives
(NuclearTrajectory.plane): r cos theta and r sin theta of the samples and
of the polar midpoints of the steps, save on a pseudorotation.  There the
times and angles are still np.linspace's, bit for bit, but the points are
not cos/sin of them: each block of ROTATION_BLOCK samples rotates its first
point by a table of turns (see pseudorotation_trajectory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .berryphase import canonicalize_phase
from .eigenpath import DiscretizedPath, first_index
from .errors import AlphaUndefined, NonFinite, OpenPath, StepTooLarge
from .jahnteller import (JTParams, _plane, coupling_at, coupling_field,
                         jt_electronic_hamiltonian, jt_point_data,
                         rotation_matrix)

# A step must keep dt * max(2 Delta, |dalpha/dtheta * thetadot|) below this.
STEP_RESOLUTION_LIMIT = 0.1

# Per-step winding increments above this are considered unresolved.
WINDING_STEP_LIMIT = 0.5 * math.pi

# Steps of the drive evaluated and propagated at a time: the work arrays of
# one chunk stay small, whatever the step count.
CHUNK_STEPS = 1 << 14

# Records formed together from one carried state by prefix products; the
# groups count from the drive's start, whatever CHUNK_STEPS is.
RECORD_GROUP = 64

# Steps whose Delta dt one np.sum adds for gap_area, from the drive's start.
GAP_BLOCK = 1 << 14

# Samples of a pseudorotation whose points are turned from the block's first
# one; a power of two that divides CHUNK_STEPS, so a chunk holds whole blocks.
ROTATION_BLOCK = 256


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


class NuclearTrajectory:
    """Classical path (r(t), theta(t)) at strictly increasing times.

    The samples need not be stored: `sample(start, stop)` returns the
    times, radii and angles at sample indices start..stop-1, so a drive
    reads them one chunk at a time.  Built from arrays, it slices them;
    from_sampler takes any such function.  Either way the samples are
    checked once, a chunk at a time, when the trajectory is built.  `plane`
    gives the Cartesian points at which a drive evaluates the model.
    """

    def __init__(self, times, r_of_t, theta_of_t):
        arrays = tuple(np.asarray(x, dtype=float)
                       for x in (times, r_of_t, theta_of_t))
        t, r, th = arrays
        if not (t.shape == r.shape == th.shape) or t.ndim != 1:
            raise ValueError("times, r_of_t, theta_of_t must share one shape, >= 3 samples")
        self._bind(len(t), lambda start, stop: tuple(x[start:stop]
                                                       for x in arrays))

    @classmethod
    def from_sampler(cls, n_samples: int, sample) -> NuclearTrajectory:
        """The trajectory whose samples start..stop-1 are sample(start, stop)."""
        traj = cls.__new__(cls)
        traj._bind(n_samples, sample)
        return traj

    def _bind(self, n_samples: int, sample, moving: bool = False) -> None:
        """Check the samples a chunk at a time, then keep the sampler; with
        `moving`, every step must also change the angle."""
        if n_samples < 3:
            raise ValueError(f"a trajectory needs >= 3 samples, got {n_samples}")
        finite = increasing = positive = uniform = True
        stuck = None  # the first step whose angle stands still, and its angle
        last = last_th = np.empty(0)  # the time and angle before a chunk
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.diff(sample(0, 2)[0])[0]  # the first time step
            for s in range(0, n_samples, CHUNK_STEPS):
                t, r, th = sample(s, min(s + CHUNK_STEPS, n_samples))
                finite &= bool(np.isfinite(t).all() and np.isfinite(r).all()
                               and np.isfinite(th).all())
                dt = np.diff(np.concatenate((last, t)))
                increasing &= bool((dt > 0).all())
                positive &= bool((r > 0).all())
                uniform &= bool((dt == h).all())
                if moving and stuck is None:
                    th = np.concatenate((last_th, th))
                    j = first_index(th[1:] == th[:-1])
                    if j < len(th) - 1:
                        stuck = s - len(last_th) + j, th[j]
                last, last_th = t[-1:], th[-1:]
        if not finite:
            raise ValueError("trajectory samples must be finite")
        if not increasing:
            raise ValueError("times must be strictly increasing")
        if not positive:
            raise ValueError("trajectory radii must be > 0")
        if stuck is not None:
            raise ValueError(f"the angle does not advance at step {stuck[0]}: "
                             f"theta stays {float(stuck[1])!r}")
        self.n_samples, self.sample = n_samples, sample
        # np.gradient's uniform form applies when every time step is equal
        self._uniform_step = h if uniform else None

    def plane(self, start: int, r, theta):
        """(x, y, x_mid, y_mid): the Cartesian points of the samples start,
        start + 1, ..., whose radii and angles are r and theta, and of the
        midpoints of the steps between them, r cos theta and r sin theta of
        the samples and of the polar midpoints (inf or NaN past the float
        range)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return (*_plane(r, theta), *_plane(0.5 * (r[:-1] + r[1:]),
                                               0.5 * (theta[:-1] + theta[1:])))

    @property
    def times(self) -> np.ndarray:
        return self.sample(0, self.n_samples)[0]

    @property
    def r_of_t(self) -> np.ndarray:
        return self.sample(0, self.n_samples)[1]

    @property
    def theta_of_t(self) -> np.ndarray:
        return self.sample(0, self.n_samples)[2]

    def theta_dot(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Angular velocity at samples start..stop-1 by central differences.

        Bitwise np.gradient(theta_of_t, times) over all samples: one-sided
        at the two ends, and in the uniform form when every time step is
        equal.  Inf or NaN where time steps near the ends of the float range
        overflow or underflow its terms.  Raises ValueError unless
        0 <= start <= stop <= n_samples.
        """
        n = self.n_samples
        stop = n if stop is None else stop
        if not 0 <= start <= stop <= n:
            raise ValueError(f"sample range [{start}, {stop}) is not within "
                             f"0..n_samples = {n}")
        if start == stop:
            return np.empty(0)
        t, _, th = self.sample(max(start - 1, 0), min(stop + 1, n))
        return _central_differences(t, th, self._uniform_step, start == 0,
                                    stop == n)


def _central_differences(t, th, h, first: bool, last: bool) -> np.ndarray:
    """np.gradient(th, t) at the samples inside a window, bit for bit.

    The window holds one sample more on each side of those it answers for,
    save on a side that ends the trajectory (`first`, `last`), where the
    difference is one-sided.  h is the uniform time step, or None for the
    general form.
    """
    out = np.empty(len(t) - 2 + first + last)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if h is not None:
            inner = (th[2:] - th[:-2]) / (2. * h)
        else:
            dx = np.diff(t)
            dx1, dx2 = dx[:-1], dx[1:]
            a = -(dx2) / (dx1 * (dx1 + dx2))
            b = (dx2 - dx1) / (dx1 * dx2)
            c = dx1 / (dx2 * (dx1 + dx2))
            inner = a * th[:-2] + b * th[1:-1] + c * th[2:]
        out[first:len(out) - last] = inner
        if first:
            out[0] = (th[1] - th[0]) / (t[1] - t[0] if h is None else h)
        if last:
            out[-1] = (th[-1] - th[-2]) / (t[-1] - t[-2] if h is None else h)
    return out


def _linspace(start: float, stop: float, num: int, idx: np.ndarray) -> np.ndarray:
    """np.linspace(start, stop, num)[idx], bit for bit, for increasing float
    indices idx (num >= 2).

    np.linspace forms arange(num) * ((stop - start) / (num - 1)) + start and
    sets its last point to stop.  Where that step underflows to 0 it divides
    first; its samples repeat then, as these do, and the drive is refused.
    """
    step = np.subtract(stop, start, dtype=float) / (num - 1)
    y = idx * step + start
    if len(idx) and idx[-1] == num - 1:
        y[-1] = stop
    return y


def pseudorotation_trajectory(r: float, period: float, n_steps: int,
                              theta0: float = 0.0,
                              revolutions: float = 1.0) -> NuclearTrajectory:
    """Uniform circular drive at fixed radius (overflow fails as non-finite).

    The times and angles are those of np.linspace over the whole drive, bit
    for bit, formed for one range of indices at a time; a drive whose angle
    stands still over a step (theta0 absorbs the angle step) is refused
    with ValueError, which names the step.  The points are not cos/sin of
    each angle: in blocks of ROTATION_BLOCK samples, a block's first point
    is _plane(r, theta) of its angle, bit for bit, and its sample j (step
    j's midpoint) is that point turned by winding * j / n_steps (winding *
    (j + 1/2) / n_steps), from two tables made once.
    """
    r, duration = float(r), period * revolutions
    winding = 2.0 * math.pi * revolutions
    n = ROTATION_BLOCK

    def angles(idx):
        return theta0 + winding * _linspace(0.0, 1.0, n_steps + 1, idx)

    def sample(start, stop):
        idx = np.arange(start, stop, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            return (_linspace(0.0, duration, n_steps + 1, idx),
                    np.full(stop - start, r), angles(idx))

    def rotated(start, count, turn):
        """Points start..start+count-1 of the blocks' first ones times turn."""
        b0, b1 = start // n, -(-(start + count) // n)
        x0, y0 = _plane(r, angles(np.arange(b0, b1, dtype=float) * n))
        # the samples' first turn is (1, +-0), the sign of the winding's,
        # so a block's first sample keeps its point's bits, signed zeros too
        c, s = turn
        x = x0[:, None] * c - y0[:, None] * s
        y = x0[:, None] * s + y0[:, None] * c
        k = slice(start - b0 * n, start - b0 * n + count)
        return x.ravel()[k], y.ravel()[k]

    def plane(start, radii, theta):
        return (*rotated(start, len(theta), turns[0]),
                *rotated(start, len(theta) - 1, turns[1]))

    traj = NuclearTrajectory.__new__(NuclearTrajectory)
    traj._bind(n_steps + 1, sample, moving=True)
    # once the samples are finite, so is winding
    turns = [_plane(1.0, winding * ((np.arange(n) + half) / n_steps))
             for half in (0.0, 0.5)]
    traj.plane = plane
    return traj


class _Drive(NamedTuple):
    """Figures of the coupling along a trajectory."""

    times: np.ndarray   # times of the requested samples
    alphas: np.ndarray  # unwrapped mixing angle at the requested samples
    gap_area: float     # midpoint-rule integral of Delta dt
    ratio: float        # adiabaticity ratio at the samples


def _unwrap_corrections(steps: np.ndarray) -> np.ndarray:
    """np.unwrap's correction for each step of a raw angle (period 2 pi)."""
    small = np.abs(steps) < math.pi
    if small.all():  # nothing wraps: every correction is +0.0
        return np.zeros(len(steps))
    ddmod = np.mod(steps + math.pi, 2.0 * math.pi) - math.pi
    np.copyto(ddmod, math.pi, where=(ddmod == -math.pi) & (steps > 0))
    corrections = ddmod - steps
    np.copyto(corrections, 0.0, where=small)
    return corrections


def _drive(p: JTParams, traj: NuclearTrajectory, block: int = 0,
           step=None) -> _Drive:
    """Evaluate the coupling at the samples and at the step midpoints in one
    pass over chunks of CHUNK_STEPS samples.

    Each chunk reads its samples once, with one more on each side: they
    give the coupling at the samples, the angular velocity there (as
    theta_dot does) and the midpoints of the steps that start in the chunk.
    The coupling is evaluated at the points traj.plane gives for them.
    The samples give the adiabaticity ratio, and the time and the unwrapped
    mixing angle at the records: the samples at multiples of `block` (the
    step count if 0) and the last sample.  Each chunk of midpoints goes to
    `step(start, dt, dtheta, f, delta, dalpha)`, in time order, and then is
    dropped.  The coupling raises AlphaUndefined or NonFinite at the first
    sample, naming its r and theta (a midpoint's are the mean of its
    ends'); after that a ratio that is not finite raises NonFinite, and
    only then the error of the first midpoint, held back until every sample
    is checked.  Indices count from the first sample or step.  Maxima and
    np.unwrap's running sum carry exactly from chunk to chunk; gap_area
    follows the block rule of the module docstring.  No array spans the
    whole drive, save the recorded times and angles.
    """
    n_steps = traj.n_samples - 1
    block = block or n_steps
    times, alphas = np.empty((2, -(-n_steps // block) + 1))
    maxima = []
    held = None  # the first midpoint's error
    finite = True  # every sample maximum so far is finite
    # the raw angle and the unwrap correction of the sample before a chunk;
    # adding -0.0 leaves the first angle as it is, even a -0.0
    last, carry = np.empty(0), -0.0
    gap_sums, areas = [], np.empty(0)  # block sums; the open block's Delta dt

    # past the float range the products and midpoints are inf or NaN: the
    # ratio is checked after the pass, a midpoint by the coupling
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n_steps + 1, CHUNK_STEPS):
            e = min(s + CHUNK_STEPS, n_steps + 1)
            lo = max(s - 1, 0)
            window = traj.sample(lo, min(e + 1, n_steps + 1))
            # the samples from the chunk's first to the window's end, and
            # the points of those and of the midpoints of their steps
            t, r, th = (x[s - lo:] for x in window)
            x, y, x_mid, y_mid = traj.plane(s, r, th)
            m = e - s  # the chunk's samples
            f, delta, dalpha = coupling_at(
                p, x[:m], y[:m], lambda j: (float(r[j]), float(th[j])),
                first=s)
            del x, y  # points go once evaluated, to keep the peak memory
            theta_dot = _central_differences(window[0], window[2],
                                             traj._uniform_step, s == 0,
                                             e == n_steps + 1)
            maxima.append(np.max(np.abs(dalpha) * np.abs(theta_dot) / delta))
            finite &= math.isfinite(maxima[-1])
            angle = np.angle(f)
            steps = np.diff(np.concatenate((last, angle)))
            sums = np.cumsum(np.concatenate(([carry],
                                             _unwrap_corrections(steps))))
            k = slice(-s % block, m, block)  # the chunk's records
            i = slice(-(-s // block), -(-e // block))
            times[i], alphas[i] = t[k], angle[k] + sums[len(last):][k]
            if e == n_steps + 1:
                times[-1], alphas[-1] = t[-1], angle[-1] + sums[-1]
            last, carry = angle[-1:], sums[-1]
            # the steps that start in the chunk end at the window's end (the
            # last sample alone starts none); once an error is certain, only
            # the samples are still checked
            if len(t) == 1 or held is not None or not finite:
                continue
            dt = np.diff(t)
            try:
                f, delta, dalpha = coupling_at(
                    p, x_mid, y_mid,
                    lambda j: (float(0.5 * (r[j] + r[j + 1])),
                               float(0.5 * (th[j] + th[j + 1]))), first=s)
                del x_mid, y_mid
            except (AlphaUndefined, NonFinite) as err:
                held = err
                continue
            if step is not None:
                step(s, dt, np.diff(th), f, delta, dalpha)
            areas = np.concatenate((areas, delta * dt))
            whole = len(areas) - len(areas) % GAP_BLOCK
            gap_sums += [np.sum(areas[j:j + GAP_BLOCK])
                         for j in range(0, whole, GAP_BLOCK)]
            areas = areas[whole:]
        if len(areas):
            gap_sums.append(np.sum(areas))
        while len(gap_sums) > 1:
            gap_sums = ([a + b for a, b in zip(gap_sums[::2], gap_sums[1::2])]
                        + gap_sums[len(gap_sums) & ~1:])
        ratio = float(np.max(maxima))
    if not math.isfinite(ratio):
        raise NonFinite(f"adiabaticity ratio {ratio!r} is not finite: "
                        "the angular velocity or d alpha/d theta leaves "
                        "the float range")
    if held is not None:
        raise held
    return _Drive(times, alphas, float(gap_sums[0]), ratio)


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

    def records(self, start: int, stop: int | None) -> SpinEvolution:
        """The records start..stop-1 (slice bounds); each figure above is
        formed record by record, so a part gives the same bits as the whole."""
        part = slice(start, stop)
        return replace(self, times=self.times[part], states=self.states[part],
                       alphas=self.alphas[part])


def _compose(a1, b1, a0, b0):
    """The pair of U1 U0 from those of U1 and U0, elementwise, where (a, b)
    stands for the SU(2) matrix [[a, -conj b], [b, conj a]]."""
    return a1 * a0 - np.conj(b1) * b0, b1 * a0 + np.conj(a1) * b0


def _rows(a, b, size: int):
    """Pairs in rows of `size`, the last filled out with identity (1, 0)."""
    pad = -len(a) % size
    return (np.concatenate((a, np.ones(pad, complex))).reshape(-1, size),
            np.concatenate((b, np.zeros(pad, complex))).reshape(-1, size))


def _reduce_blocks(a, b, block: int):
    """The pair of each block of `block` steps (a power of two; a short last
    block is its own steps' product), reassociated in one fixed tree."""
    a, b = _rows(a, b, block)
    while a.shape[1] > 1:
        a, b = _compose(a[:, 1::2], b[:, 1::2], a[:, 0::2], b[:, 0::2])
    return a[:, 0], b[:, 0]


def _apply(pair, state):
    """U psi / |U psi| in real arithmetic, for pair = (Re a, Im a, Re b,
    Im b) of U and state = (Re psi_0, Im psi_0, Re psi_1, Im psi_1): the
    same rounded operations on floats as on arrays."""
    ar, ai, br, bi = pair
    p0r, p0i, p1r, p1i = state
    x = (ar * p0r - ai * p0i - (br * p1r + bi * p1i),
         ar * p0i + ai * p0r - (br * p1i - bi * p1r),
         br * p0r - bi * p0i + (ar * p1r + ai * p1i),
         br * p0i + bi * p0r + (ar * p1i - ai * p1r))
    norm = np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    return tuple(c / norm for c in x)


def _step_unitaries(dt, hz, hx=None, hy=None):
    """Pairs (a, b) of the step unitaries exp(-i dt (hx sigma_x + hy sigma_y
    + hz sigma_z)), for hy = 0 (hx given) or hx = 0 (hy given).

    a = cos(w dt) - 1j*sinc*hz and b = sinc*hy - 1j*sinc*hx, sinc = sin(w
    dt)/w, bit for bit, signed zeros included, as that complex arithmetic
    gives them with the zero component an array, wherever a step is
    resolved (w dt < 0.1, so sinc >= 0).  Where w = |h| overflows, a is NaN.
    """
    h = hx if hy is None else hy
    omega = np.sqrt(h * h + hz * hz)
    phase = omega * dt
    sinc = np.sin(phase) / omega
    a, b = np.empty(len(dt), complex), np.zeros(len(dt), complex)
    a.real = np.cos(phase)
    np.subtract(0.0, sinc * hz, out=a.imag)  # 0 - (+-0) is +0
    if hy is None:
        np.subtract(0.0, sinc * hx, out=b.imag)
    else:
        np.multiply(sinc, hy, out=b.real)
    return a, b


def integrate_spin(p: JTParams, traj: NuclearTrajectory, psi0: np.ndarray,
                   frame: str = "comoving",
                   store_stride: int = 1) -> SpinEvolution:
    """Propagate a spin state along the trajectory with exact step unitaries.

    Step Hamiltonians are evaluated at step midpoints.  frame="lab" uses the
    electronic matrix itself; frame="comoving" uses Delta sigma_z -
    (1/2) dalpha thetadot sigma_y and expects psi0 in the rotated basis.
    States are recorded every `store_stride` steps (power of two), plus the
    final state, RECORD_GROUP records at a time from prefix products (see
    the module docstring); every record is renormalized.  The returned
    `alphas` are the unwrapped mixing angles at the recorded times, which
    is what a frame conversion needs after the angle has wound around.
    Raises StepTooLarge for a step that under-resolves the gap or the
    drive, and NonFinite where the ratio or the step field leaves the float
    range.  The drive is evaluated and propagated in one pass, CHUNK_STEPS
    steps at a time (see _drive), and a longer block is reduced from its
    chunks' pairs, so memory grows with the step count only through the
    recorded states, one (records, 2) complex array, and their times and
    angles, 48 bytes a record.
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

    n_steps = traj.n_samples - 1
    # a stride at or above the step count records the first and the last
    # state, as one block padded to a power of two does
    block = min(store_stride, 1 << (n_steps - 1).bit_length())
    states = np.empty((-(-n_steps // block) + 1, 2), dtype=complex)
    states[0] = psi
    rows = states.view(float)  # Re, Im of each component: 4 floats a record
    filled = 1  # rows of `states` written so far
    unresolved = None  # the first step that under-resolves, raised at the end
    # a chunk reduces to pairs of `span` steps, and every `per` of those to
    # a block, in the tree of _reduce_blocks over the whole block, which
    # fills the last chunk and the last block out with identity steps
    span = min(block, CHUNK_STEPS)
    per, pending = block // span, []

    def record(end):
        """The records of the pairs in hand, in whole groups (a short last
        one at the drive's end); _apply carries the state between groups."""
        nonlocal filled
        a, b = map(np.concatenate, zip(*pending))
        n = len(a) if end else len(a) - len(a) % (per * RECORD_GROUP)
        pending[:] = [(a[n:], b[n:])]
        a, b = _rows(*_reduce_blocks(a[:n], b[:n], per), RECORD_GROUP)
        n = -(-n // per)  # the records formed here
        for d in (1 << j for j in range(RECORD_GROUP.bit_length() - 1)):
            a[:, d:], b[:, d:] = _compose(a[:, d:], b[:, d:],
                                          a[:, :-d], b[:, :-d])
        pair = (a.real, a.imag, b.real, b.imag)
        starts = [rows[filled - 1].tolist()]
        for last in zip(*(x[:-1, -1].tolist() for x in pair)):
            starts.append(_apply(last, starts[-1]))
        parts = _apply(pair, np.array(starts).T[:, :, None])
        rows[filled:filled + n] = np.stack(parts, axis=-1).reshape(-1, 4)[:n]
        filled += n

    def propagate(start, dt, dtheta, f_mid, delta, dalpha):
        nonlocal unresolved
        if unresolved is not None:
            return
        # past the float range the products are inf or NaN: an unresolved
        # step stops the propagation, and a step field whose squared norm
        # overflows (|h| past 1e154) makes a NaN step, caught at the end
        with np.errstate(over="ignore", invalid="ignore"):
            drive = dalpha * (dtheta / dt)
            resolution = dt * np.maximum(2.0 * delta, np.abs(drive))
            resolved = resolution < STEP_RESOLUTION_LIMIT  # NaN is unresolved
            if not resolved.all():
                j = int(np.argmin(resolved))
                unresolved = StepTooLarge(start + j, float(resolution[j]),
                                          STEP_RESOLUTION_LIMIT)
                return

            if frame == "lab":
                u = _step_unitaries(dt, np.real(f_mid), hx=np.imag(f_mid))
            else:
                u = _step_unitaries(dt, delta, hy=-0.5 * drive)

            pending.append(_reduce_blocks(*u, span))
            end = start + len(dt) == n_steps
            held = sum(len(a) for a, _ in pending)
            if end or held >= max(CHUNK_STEPS, per * RECORD_GROUP):
                record(end)

    result = _drive(p, traj, block, propagate)
    if unresolved is not None:
        raise unresolved
    if not np.isfinite(states[-1]).all():
        raise NonFinite("spin state is not finite: the step field's squared "
                        "norm overflows")
    return SpinEvolution(times=result.times, states=states,
                         frame=frame, alphas=result.alphas,
                         gap_area=result.gap_area,
                         adiabaticity_ratio=result.ratio)


def to_lab_frame(evolution: SpinEvolution) -> np.ndarray:
    """Rotate recorded co-moving states into the lab frame.

    Uses the unwrapped mixing angle, so a full drive revolution (alpha up by
    2 pi) correctly contributes the extra overall sign of the half-angle
    rotation.
    """
    if evolution.frame != "comoving":
        raise ValueError("evolution is not in the co-moving frame")
    half = 0.5 * evolution.alphas
    c, s = np.cos(half), np.sin(half)
    # rotation_matrix(alpha) of every record, applied in one matmul
    u = np.stack((c, -s, s, c), axis=-1).reshape(-1, 2, 2)
    return (u @ evolution.states[:, :, None])[:, :, 0]


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
