"""Tests for driven spin dynamics in the lab and co-moving frames."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berryline import (
    AlphaUndefined,
    DiscretizedPath,
    EffectiveFields,
    JTParams,
    NonFinite,
    NuclearTrajectory,
    OpenPath,
    StepTooLarge,
    ac_loop_phase,
    adiabaticity_ratio,
    circle_path,
    comoving_transform,
    dynamical_phase,
    effective_fields,
    integrate_spin,
    jt_eigenvectors,
    jt_point_data,
    pseudorotation_trajectory,
    rotation_matrix,
    to_lab_frame,
)
from berryline import comoving
from berryline.comoving import CHUNK_STEPS, ROTATION_BLOCK
from berryline.jahnteller import _plane, coupling_at, model_polynomial

PSI_LOWER = np.array([0.0, 1.0], dtype=complex)


def static_trajectory(r, theta, duration, n_steps):
    t = np.linspace(0.0, duration, n_steps + 1)
    return NuclearTrajectory(times=t, r_of_t=np.full(n_steps + 1, r),
                             theta_of_t=np.full(n_steps + 1, theta))


def cartesian_loop(cx, cy, radius, n_segments):
    """Closed polar path tracing a Cartesian circle around (cx, cy)."""
    ts = np.linspace(0.0, 2.0 * math.pi, n_segments + 1)
    pts = [
        (math.hypot(cx + radius * math.cos(t), cy + radius * math.sin(t)),
         math.atan2(cy + radius * math.sin(t), cx + radius * math.cos(t)))
        for t in ts
    ]
    return DiscretizedPath(pts, closed=True)


# ---------------------------------------------------------------------------
# frame transform and effective fields


def test_transform_identity_at_zero_angle(jt10):
    u, h_rot = comoving_transform(jt10, 1.0, 0.0)
    assert np.allclose(u, np.eye(2), atol=1e-15)
    assert np.allclose(h_rot, [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)


def test_transform_half_angle(jt10):
    # with g = 0 the mixing angle equals theta, so theta = pi/2 rotates by pi/4
    u, _ = comoving_transform(jt10, 1.0, 0.5 * math.pi)
    c, s = math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)
    assert np.allclose(u, [[c, -s], [s, c]], atol=1e-14)


def test_transform_diagonalizes_everywhere(jt11):
    rng = np.random.default_rng(23)
    for _ in range(200):
        r = rng.uniform(0.1, 4.0)
        theta = rng.uniform(-math.pi, math.pi)
        try:
            d = jt_point_data(jt11, r, theta)
        except AlphaUndefined:
            continue
        u, h_rot = comoving_transform(jt11, r, theta)
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-14)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-14)
        assert abs(h_rot[0, 1]) < 1e-12 * max(1.0, d.delta_E)
        assert h_rot[0, 0] == pytest.approx(d.delta_E, rel=1e-12)
        assert h_rot[1, 1] == pytest.approx(-d.delta_E, rel=1e-12)


def test_transform_undefined_at_degeneracy(jt11):
    with pytest.raises(AlphaUndefined):
        comoving_transform(jt11, 2.0, math.pi / 3.0)


def test_effective_fields_pure_linear(jt10):
    # dalpha/dtheta = 1: B = (0, -thetadot, 2 k r), E_r = 1 / (2 r)
    eff = effective_fields(jt10, 1.5, 0.3, theta_dot=0.4)
    assert eff.b_eff[0] == 0.0
    assert eff.b_eff[1] == pytest.approx(-0.4, abs=1e-14)
    assert eff.b_eff[2] == pytest.approx(3.0, abs=1e-13)
    assert eff.e_radial == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_effective_fields_pure_quadratic(jt01):
    # dalpha/dtheta = -2: the drive component flips sign and doubles
    eff = effective_fields(jt01, 1.0, 0.7, theta_dot=0.4)
    assert eff.b_eff[1] == pytest.approx(0.8, abs=1e-13)
    assert eff.b_eff[2] == pytest.approx(1.0, abs=1e-13)
    assert eff.e_radial == pytest.approx(-1.0, abs=1e-13)


def test_effective_fields_against_finite_difference(jt11):
    """The drive component must match a finite-difference d alpha/d theta."""
    rng = np.random.default_rng(31)
    h = 1e-6
    for _ in range(25):
        r = rng.uniform(0.3, 3.5)
        theta = rng.uniform(-math.pi, math.pi)
        try:
            eff = effective_fields(jt11, r, theta, theta_dot=1.0)
        except AlphaUndefined:
            continue
        f = lambda t: ((jt11.k * r * np.exp(1j * t)
                        + 0.5 * jt11.g * r * r * np.exp(-2j * t)))
        if abs(f(theta)) < 1e-3:
            continue
        fd = np.angle(f(theta + h) * np.conj(f(theta - h))) / (2.0 * h)
        assert -eff.b_eff[1] == pytest.approx(fd, abs=1e-5 * max(1.0, abs(fd)))
        assert eff.b_eff[2] == pytest.approx(2.0 * abs(f(theta)), rel=1e-12)
        assert isinstance(eff, EffectiveFields)


def test_effective_fields_validation(jt11):
    with pytest.raises(ValueError):
        effective_fields(jt11, 0.0, 0.0, theta_dot=1.0)
    with pytest.raises(AlphaUndefined):
        effective_fields(jt11, 2.0, math.pi, theta_dot=1.0)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_validation():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        NuclearTrajectory(times=t, r_of_t=np.ones(9), theta_of_t=np.zeros(10))
    with pytest.raises(ValueError):
        NuclearTrajectory(times=t[:2], r_of_t=np.ones(2), theta_of_t=np.zeros(2))
    bad = t.copy()
    bad[5] = bad[4]
    with pytest.raises(ValueError):
        NuclearTrajectory(times=bad, r_of_t=np.ones(10), theta_of_t=np.zeros(10))
    with pytest.raises(ValueError):
        NuclearTrajectory(times=t, r_of_t=np.zeros(10), theta_of_t=np.zeros(10))
    nan = np.zeros(10)
    nan[3] = math.nan
    with pytest.raises(ValueError):
        NuclearTrajectory(times=t, r_of_t=np.ones(10), theta_of_t=nan)


def test_pseudorotation_trajectory_shape():
    traj = pseudorotation_trajectory(1.4, 80.0, 200, theta0=0.3,
                                     revolutions=2.0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(160.0)
    assert traj.theta_of_t[0] == 0.3
    assert traj.theta_of_t[-1] == pytest.approx(0.3 + 4.0 * math.pi)
    assert np.all(traj.r_of_t == 1.4)


def linspace_samples(r, period, n_steps, theta0, revolutions):
    """The drive's samples as np.linspace gives them over the whole drive."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linspace(0.0, period * revolutions, n_steps + 1)
        theta = theta0 + 2.0 * math.pi * revolutions * np.linspace(
            0.0, 1.0, n_steps + 1)
    return t, np.full(n_steps + 1, float(r)), theta


def built(make):
    """A trajectory, or the message of the ValueError building it raised."""
    try:
        return make()
    except ValueError as err:
        return str(err)


@settings(max_examples=100, deadline=None)
@given(r=st.floats(-1.0, 4.0), period_log10=st.floats(-320.0, 308.0),
       revolutions_log10=st.floats(-300.0, 10.0),
       theta0=st.floats(-1e3, 1e3), n_steps=st.integers(2, 5000),
       cuts=st.lists(st.integers(0, 5001), max_size=4))
# the time step underflows to 0: np.linspace's other branch
@example(r=1.0, period_log10=-20.0, revolutions_log10=-300.0, theta0=0.0,
         n_steps=1 << 14, cuts=[])
# the duration overflows
@example(r=1.0, period_log10=300.0, revolutions_log10=10.0, theta0=0.0,
         n_steps=64, cuts=[])
def test_sampled_trajectory_equals_np_linspace(r, period_log10,
                                               revolutions_log10, theta0,
                                               n_steps, cuts):
    # pseudorotation_trajectory forms any index range of np.linspace's
    # samples bit for bit, and refuses the drives whose whole arrays are
    # refused, with the same message, and then those whose whole array of
    # angles stands still over a step, naming the first such step
    period, revolutions = 10.0 ** period_log10, 10.0 ** revolutions_log10
    arrays = linspace_samples(r, period, n_steps, theta0, revolutions)
    want = built(lambda: NuclearTrajectory(*arrays))
    stuck = np.flatnonzero(np.diff(arrays[2]) == 0)
    if not isinstance(want, str) and len(stuck):
        want = (f"the angle does not advance at step {stuck[0]}: "
                f"theta stays {float(arrays[2][stuck[0]])!r}")
    got = built(lambda: pseudorotation_trajectory(
        r, period, n_steps, theta0=theta0, revolutions=revolutions))
    if isinstance(want, str):
        assert got == want
        return
    for name, x in zip(("times", "r_of_t", "theta_of_t"), arrays):
        assert getattr(got, name).tobytes() == x.tobytes(), name
    n = n_steps + 1
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    for a, b in zip(bounds, bounds[1:]):
        for part, x in zip(got.sample(a, b), arrays):
            assert part.tobytes() == x[a:b].tobytes()


@pytest.mark.parametrize("period, revolutions, n_steps, message", [
    (1e300, 1e10, 64, "trajectory samples must be finite"),
    (1.0, 1e308, 64, "trajectory samples must be finite"),
    (1e-300, 1e-300, 64, "times must be strictly increasing"),
    (1e-20, 1e-300, 1 << 14, "times must be strictly increasing"),
])
def test_drive_that_overflows_or_underflows_is_refused(period, revolutions,
                                                       n_steps, message):
    # the duration or the winding overflows, or the duration or the time
    # step underflows to 0
    with pytest.raises(ValueError) as err:
        pseudorotation_trajectory(1.0, period, n_steps,
                                  revolutions=revolutions)
    assert str(err.value) == message


def test_drive_whose_angle_stands_still_is_refused():
    # theta0 = 1e17 absorbs every angle step of a half turn
    with pytest.raises(ValueError) as err:
        pseudorotation_trajectory(1.0, 100.0, 65536, theta0=1e17,
                                  revolutions=0.5)
    assert str(err.value) == ("the angle does not advance at step 0: "
                              "theta stays 1e+17")
    # a winding of 2 pi 1e-300 from theta0 = 0 still moves at every step
    traj = pseudorotation_trajectory(1.0, 1.0, 64, revolutions=1e-300)
    assert (np.diff(traj.theta_of_t) > 0).all()
    # angle steps of 3e-16 move theta below 2 and stand still above it,
    # first in the second chunk: the check carries from chunk to chunk
    n, step = 1 << 16, 3e-16
    revolutions = n * step / (2.0 * math.pi)
    theta0 = 2.0 - 20000 * step
    theta = linspace_samples(1.0, 1.0, n, theta0, revolutions)[2]
    j = int(np.flatnonzero(np.diff(theta) == 0)[0])
    assert CHUNK_STEPS < j < n
    with pytest.raises(ValueError) as err:
        pseudorotation_trajectory(1.0, 1.0, n, theta0=theta0,
                                  revolutions=revolutions)
    assert str(err.value) == (f"the angle does not advance at step {j}: "
                              f"theta stays {float(theta[j])!r}")


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is double here: no extended-"
                           "precision reference")
@settings(max_examples=60, deadline=None)
@given(r=st.floats(1e-3, 1e3), theta0=st.floats(-10.0, 10.0),
       revolutions=st.floats(1e-3, 3.0), sense=st.sampled_from([1.0, -1.0]),
       n_steps=st.integers(1 << 12, 1 << 16))
@example(r=1.0, theta0=0.0, revolutions=1.0, sense=1.0, n_steps=1 << 12)
@example(r=1.0, theta0=-0.0, revolutions=1.0, sense=1.0, n_steps=1 << 12)
@example(r=1.0, theta0=0.0, revolutions=1.0, sense=-1.0, n_steps=1 << 12)
@example(r=0.5, theta0=-0.0, revolutions=2.5, sense=-1.0,
         n_steps=(1 << 16) - 1)
def test_drive_points_lie_on_the_sampled_circle(r, theta0, revolutions,
                                                sense, n_steps):
    # every sample and step midpoint of a pseudorotation lies within 3 eps r
    # of the circle, and within 3 eps r (1 + |theta0| + |winding|) of
    # r e^{i theta} formed in extended precision from the sampled angle or
    # the polar midpoint, which are rounded on that scale; r cos theta and
    # r sin theta keep the same bounds.  A block's first sample is _plane's
    # point, bit for bit: from theta0 = -0.0 a clockwise drive (negative
    # period and revolutions) starts at sin theta = -0.0
    traj = pseudorotation_trajectory(r, sense, n_steps, theta0=theta0,
                                     revolutions=sense * revolutions)
    theta = traj.theta_of_t
    x, y, x_mid, y_mid = traj.plane(0, traj.r_of_t, theta)
    eps = np.finfo(float).eps
    scale = 1.0 + abs(theta0) + 2.0 * math.pi * revolutions
    for points, angles in (((x, y), theta),
                           ((x_mid, y_mid), 0.5 * (theta[:-1] + theta[1:]))):
        t, radius = angles.astype(np.longdouble), np.longdouble(r)
        exact = radius * np.cos(t), radius * np.sin(t)
        for px, py in (points, _plane(r, angles)):
            off = np.hypot(*(np.asarray(a - b, dtype=float)
                             for a, b in zip((px, py), exact)))
            assert np.max(off) <= 3.0 * eps * r * scale
            on_circle = np.hypot(px.astype(np.longdouble),
                                 py.astype(np.longdouble)) - radius
            assert np.max(np.abs(on_circle)) <= 3.0 * eps * r
    starts = slice(0, None, ROTATION_BLOCK)
    for got, want in zip((x[starts], y[starts]), _plane(r, theta[starts])):
        assert got.tobytes() == want.tobytes()


def whole_array_message(t, r, theta):
    """What the trajectory checks say about whole arrays (None: nothing)."""
    if not (np.isfinite(t).all() and np.isfinite(r).all()
            and np.isfinite(theta).all()):
        return "trajectory samples must be finite"
    if (np.diff(t) <= 0).any():
        return "times must be strictly increasing"
    if (r <= 0).any():
        return "trajectory radii must be > 0"
    return None


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 40), uniform=st.booleans(),
       defects=st.lists(st.tuples(
           st.sampled_from(["nan time", "inf angle", "repeated time",
                            "earlier time", "zero radius"]),
           st.integers(0, 39)), max_size=3),
       chunk_log2=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_trajectory_checks_carry_across_chunks(n, uniform, defects,
                                               chunk_log2, seed):
    # the checks run a chunk at a time, with the last time carried over a
    # chunk edge: they refuse what whole arrays fail, with the same message,
    # and otherwise find np.gradient's uniform form where whole arrays do
    rng = np.random.default_rng(seed)
    t = (np.arange(n, dtype=float) if uniform
         else np.cumsum(rng.uniform(0.5, 1.5, n)))
    r, theta = np.ones(n), rng.normal(size=n)
    for kind, j in defects:
        j %= n
        if kind == "nan time":
            t[j] = math.nan
        elif kind == "inf angle":
            theta[j] = math.inf
        elif kind == "repeated time":
            t[j] = t[j - 1]
        elif kind == "earlier time":
            t[j] = t[j - 1] - 1.0
        else:
            r[j] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comoving, "CHUNK_STEPS", 1 << chunk_log2)
        got = built(lambda: NuclearTrajectory(t, r, theta))
    want = whole_array_message(t, r, theta)
    if want is not None:
        assert got == want
    else:
        assert got.theta_dot().tobytes() == np.gradient(theta, t).tobytes()


def test_theta_dot_exact_for_uniform_drive():
    traj = pseudorotation_trajectory(1.0, 10.0, 100)
    want = 2.0 * math.pi / 10.0
    assert np.allclose(traj.theta_dot(), want, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=300),
       uniform=st.booleans(), cuts=st.lists(st.integers(0, 301)),
       seed=st.integers(0, 2**32 - 1))
@example(steps=[1e-300, 1e-300], uniform=True, cuts=[1], seed=0)
@example(steps=[1e200, 3e200], uniform=False, cuts=[2], seed=0)
def test_theta_dot_pieces_equal_np_gradient(steps, uniform, cuts, seed):
    # any split of the samples gives np.gradient's values bit for bit, in
    # its uniform form (every step equal) and in its general one
    if uniform:
        steps = [steps[0]] * len(steps)
    times = np.cumsum([0.0] + steps)
    theta = np.random.default_rng(seed).normal(size=len(times))
    traj = NuclearTrajectory(times, np.ones(len(times)), theta)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        want = np.gradient(traj.theta_of_t, traj.times)
    n = len(times)
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    pieces = [traj.theta_dot(a, b) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(pieces).tobytes() == want.tobytes()
    assert traj.theta_dot().tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [
    lambda: pseudorotation_trajectory(1.0, 10.0, 8),
    lambda: NuclearTrajectory(np.cumsum([0.0, 1, 2, 1, 3, 1, 1, 2, 5]),
                              np.ones(9), np.arange(9.0) ** 2),
], ids=["sampler", "arrays"])
@pytest.mark.parametrize("start, stop", [
    (0, 9), (0, 0), (3, 3), (9, 9), (2, 7),
    (0, 12), (-2, 4), (5, 3), (10, 10), (-1, -1),
])
def test_theta_dot_range_is_checked(make, start, stop):
    # 9 samples: a range within 0..9 is np.gradient's slice, an empty one
    # an empty array; any other range is refused by name
    traj = make()
    if 0 <= start <= stop <= 9:
        want = np.gradient(traj.theta_of_t, traj.times)[start:stop]
        assert traj.theta_dot(start, stop).tobytes() == want.tobytes()
    else:
        with pytest.raises(ValueError, match=rf"^sample range \[{start}, "
                           rf"{stop}\) is not within 0\.\.n_samples = 9$"):
            traj.theta_dot(start, stop)


def test_too_few_samples_names_the_cause():
    with pytest.raises(ValueError, match=r"^a trajectory needs >= 3 samples, got 2$"):
        pseudorotation_trajectory(1.0, 1.0, 1)
    with pytest.raises(ValueError, match=r"^a trajectory needs >= 3 samples, got 2$"):
        NuclearTrajectory(np.arange(2.0), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError, match="must share one shape"):
        NuclearTrajectory(np.arange(3.0), np.ones(4), np.zeros(3))


# ---------------------------------------------------------------------------
# static-point propagation (exactly solvable)


def test_static_eigenstate_only_rotates_phase(jt10):
    traj = static_trajectory(1.0, 0.0, 5.0, 256)
    ev = integrate_spin(jt10, traj, np.array([1.0, 0.0], dtype=complex))
    # H = Delta sigma_z with Delta = 1: the upper component picks e^{-i t}
    assert np.allclose(ev.sigma_z, 1.0, atol=1e-12)
    assert ev.states[-1][0] == pytest.approx(np.exp(-5.0j), abs=1e-10)
    assert abs(ev.states[-1][1]) < 1e-14


def test_static_superposition_precesses_at_gap_frequency(jt10):
    traj = static_trajectory(1.0, 0.0, 5.0, 256)
    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    ev = integrate_spin(jt10, traj, psi0)
    # precession about z at the full gap 2 Delta = 2
    assert np.allclose(ev.sigma_x, np.cos(2.0 * ev.times), atol=1e-9)
    assert np.allclose(ev.sigma_y, np.sin(2.0 * ev.times), atol=1e-9)
    assert np.allclose(ev.sigma_z, 0.0, atol=1e-12)
    assert np.allclose(ev.norms, 1.0, atol=1e-13)
    assert np.allclose(ev.sigma_y_variance, 1.0 - ev.sigma_y ** 2, atol=1e-13)


def test_static_lab_frame_eigenstate_is_stationary(jt11):
    traj = static_trajectory(1.3, 0.8, 4.0, 256)
    psi0 = jt_eigenvectors(jt11, 1.3, 0.8)[1].astype(complex)
    ev = integrate_spin(jt11, traj, psi0, frame="lab")
    assert np.allclose(ev.sigma_x, ev.sigma_x[0], atol=1e-11)
    assert np.allclose(ev.sigma_z, ev.sigma_z[0], atol=1e-11)


# ---------------------------------------------------------------------------
# driven propagation


def test_integrator_is_second_order(jt11):
    ref = integrate_spin(jt11, pseudorotation_trajectory(1.0, 50.0, 1 << 16),
                         PSI_LOWER).states[-1]
    errs = []
    for n in (2048, 4096, 8192):
        s = integrate_spin(jt11, pseudorotation_trajectory(1.0, 50.0, n),
                           PSI_LOWER).states[-1]
        errs.append(float(np.linalg.norm(s - ref)))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_frames_agree_through_rotation(jt11):
    """Lab propagation and rotated co-moving propagation are the same physics:
    after mapping back with the wound-up half-angle rotation the final states
    must agree to integrator accuracy."""
    traj = pseudorotation_trajectory(1.0, 500.0, 1 << 15)
    como = integrate_spin(jt11, traj, PSI_LOWER)
    lab = integrate_spin(jt11, traj,
                         jt_eigenvectors(jt11, 1.0, 0.0)[0].astype(complex),
                         frame="lab")
    back = to_lab_frame(como)
    fidelity = abs(np.vdot(back[-1], lab.states[-1]))
    assert fidelity == pytest.approx(1.0, abs=1e-9)


def test_recorded_alpha_winds_with_the_drive(jt11):
    ev = integrate_spin(jt11, pseudorotation_trajectory(1.0, 500.0, 1 << 14),
                        PSI_LOWER)
    assert ev.alphas[-1] - ev.alphas[0] == pytest.approx(2.0 * math.pi,
                                                         abs=1e-9)
    ev3 = integrate_spin(jt11, pseudorotation_trajectory(3.0, 100.0, 1 << 15),
                         PSI_LOWER)
    assert ev3.alphas[-1] - ev3.alphas[0] == pytest.approx(-4.0 * math.pi,
                                                           abs=1e-9)


def test_step_resolution_guard(jt11):
    with pytest.raises(StepTooLarge) as err:
        integrate_spin(jt11, pseudorotation_trajectory(1.0, 100.0, 16),
                       PSI_LOWER)
    assert err.value.product >= err.value.limit


def test_trajectory_through_degeneracy(jt11):
    # n divisible by 6 puts a sample exactly on the outer intersection:
    # sample 16, at theta = pi/3
    traj = pseudorotation_trajectory(2.0, 1000.0, 96)
    for call in (lambda: integrate_spin(jt11, traj, PSI_LOWER),
                 lambda: dynamical_phase(jt11, traj),
                 lambda: adiabaticity_ratio(jt11, traj)):
        with pytest.raises(AlphaUndefined) as err:
            call()
        assert err.value.index == 16
        assert (err.value.r, err.value.theta) == (2.0, traj.theta_of_t[16])


def test_one_degeneracy_rule(jt11):
    # near the origin Delta ~ k r: at r = 5e-13 the half-gap lies above the
    # 1e-14 the point data once used and at or below the 1e-12 the spin
    # used, so both must now read the point as a degeneracy
    r, theta = 5e-13, 0.3
    re, im = model_polynomial(jt11, r * math.cos(theta), r * math.sin(theta))
    assert 1e-14 < math.hypot(re, im) <= 1e-12
    with pytest.raises(AlphaUndefined) as err:
        jt_point_data(jt11, r, theta)
    assert (err.value.index, err.value.r, err.value.theta) == (0, r, theta)
    traj = pseudorotation_trajectory(r, 1000.0, 64, theta0=theta)
    with pytest.raises(AlphaUndefined) as err:
        integrate_spin(jt11, traj, PSI_LOWER)
    assert (err.value.index, err.value.r, err.value.theta) == (0, r, theta)


def test_drive_with_a_non_finite_ratio_is_refused(jt11):
    # 1e-300 revolutions in unit time: the products of time steps in the
    # central differences underflow to 0, so thetadot and the ratio are NaN
    traj = pseudorotation_trajectory(1.0, 1.0, 64, revolutions=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: integrate_spin(jt11, traj, PSI_LOWER),
                     lambda: dynamical_phase(jt11, traj),
                     lambda: adiabaticity_ratio(jt11, traj)):
            with pytest.raises(NonFinite, match="adiabaticity ratio nan"):
                call()


def test_store_stride_consistency(jt11):
    traj = pseudorotation_trajectory(1.0, 50.0, 2048)
    full = integrate_spin(jt11, traj, PSI_LOWER)
    strided = integrate_spin(jt11, traj, PSI_LOWER, store_stride=8)
    assert np.array_equal(full.times[::8], strided.times)
    assert np.max(np.abs(full.states[::8] - strided.states)) < 1e-12
    assert np.array_equal(full.alphas[::8], strided.alphas)


def test_store_stride_pads_ragged_step_counts(jt11):
    traj = pseudorotation_trajectory(1.0, 50.0, 2000)
    full = integrate_spin(jt11, traj, PSI_LOWER)
    strided = integrate_spin(jt11, traj, PSI_LOWER, store_stride=16)
    assert strided.times[-1] == traj.times[-1]
    assert np.linalg.norm(full.states[-1] - strided.states[-1]) < 1e-12


def test_integrate_spin_memory_is_bounded(jt11):
    # the trajectory is sampled, and the drive evaluated and propagated, one
    # chunk of steps at a time: for a fixed number of records, and for a
    # stride past the last step, the traced peak, trajectory included, is
    # the same at 2^17 and at 2^20 steps (about 4.3 MiB at both; 4.6 MiB at
    # 2^17 and the CLI's stride 64)
    def peak(n, stride):
        tracemalloc.start()
        try:
            traj = pseudorotation_trajectory(1.0, n / 50.0, n)
            integrate_spin(jt11, traj, PSI_LOWER, store_stride=stride)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(1 << 17, 64) < 6 * 2**20
    for stride_of in (lambda n: n // 16, lambda n: 2 * n):
        small = peak(1 << 17, stride_of(1 << 17))
        large = peak(1 << 20, stride_of(1 << 20))
        assert small < 6 * 2**20
        assert abs(large - small) < 2**20


@pytest.mark.parametrize("n_steps", [3 * CHUNK_STEPS + 5, 2 * CHUNK_STEPS])
def test_drive_reads_each_chunk_once(jt11, n_steps):
    # one pass: each chunk of samples is read once, with one sample more on
    # each side, for its coupling, its angular velocity and its midpoints;
    # at a whole number of chunks of steps the last sample is a chunk alone
    inner = pseudorotation_trajectory(1.0, n_steps / 50.0, n_steps)
    reads = []

    def sample(start, stop):
        reads.append((start, stop))
        return inner.sample(start, stop)

    traj = NuclearTrajectory.from_sampler(n_steps + 1, sample)
    reads.clear()
    integrate_spin(jt11, traj, PSI_LOWER)
    assert reads == [(max(s - 1, 0), min(s + CHUNK_STEPS + 1, n_steps + 1))
                     for s in range(0, n_steps + 1, CHUNK_STEPS)]


def test_integrate_spin_argument_validation(jt11):
    traj = pseudorotation_trajectory(1.0, 50.0, 2048)
    with pytest.raises(ValueError):
        integrate_spin(jt11, traj, PSI_LOWER, frame="rotating")
    with pytest.raises(ValueError):
        integrate_spin(jt11, traj, PSI_LOWER, store_stride=3)
    with pytest.raises(ValueError):
        integrate_spin(jt11, traj, PSI_LOWER, store_stride=0)
    with pytest.raises(ValueError):
        integrate_spin(jt11, traj, np.array([1.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        integrate_spin(jt11, traj, np.array([1.0, 1.0], dtype=complex))


# ---------------------------------------------------------------------------
# frame conversion helpers


def test_rotation_matrix_values():
    assert np.allclose(rotation_matrix(0.0), np.eye(2), atol=1e-15)
    # half-angle form: a full 2 pi turn of alpha is a sign flip
    assert np.allclose(rotation_matrix(2.0 * math.pi), -np.eye(2), atol=1e-14)
    u = rotation_matrix(0.6)
    assert np.allclose(u.T @ u, np.eye(2), atol=1e-15)


def test_to_lab_frame_requires_comoving(jt11):
    traj = pseudorotation_trajectory(1.0, 50.0, 2048)
    lab = integrate_spin(jt11, traj,
                         jt_eigenvectors(jt11, 1.0, 0.0)[0].astype(complex),
                         frame="lab")
    with pytest.raises(ValueError):
        to_lab_frame(lab)


# ---------------------------------------------------------------------------
# phases along trajectories


def test_dynamical_phase_flat_gap(jt10):
    # g = 0 on a circle: Delta = 1 throughout, so the phase is just -+T
    traj = pseudorotation_trajectory(1.0, 100.0, 2048)
    assert dynamical_phase(jt10, traj) == pytest.approx(100.0, abs=1e-9)
    assert dynamical_phase(jt10, traj, band=1) == pytest.approx(-100.0,
                                                                abs=1e-9)
    with pytest.raises(ValueError):
        dynamical_phase(jt10, traj, band=2)


def test_dynamical_phase_quadrature_converges(jt11):
    coarse = dynamical_phase(jt11, pseudorotation_trajectory(1.0, 100.0, 4096))
    fine = dynamical_phase(jt11, pseudorotation_trajectory(1.0, 100.0, 1 << 16))
    assert coarse == pytest.approx(fine, abs=1e-5)
    assert coarse > 0.0


def test_recorded_phase_terms_match_direct_formulas(jt11):
    # gap_area and adiabaticity_ratio, recorded by integrate_spin and read
    # by dynamical_phase and adiabaticity_ratio, equal bit for bit the sums
    # over a coupling evaluated here apart from the integrator, at the
    # trajectory's points
    traj = pseudorotation_trajectory(1.0, 200.0, 12345, revolutions=1.5)
    ev = integrate_spin(jt11, traj, PSI_LOWER, store_stride=16)
    dt = np.diff(traj.times)
    x, y, x_mid, y_mid = traj.plane(0, traj.r_of_t, traj.theta_of_t)

    def field(x, y):  # Delta and d alpha/d theta, as coupling_at
        re, im = model_polynomial(jt11, x, y)
        delta = np.abs(re + 1j * im)
        # a/4 = (k z - g conj(z)^2)/4 = 0.75 k z - f/2, here with k = 1
        return delta, ((0.75 * x - 0.5 * re) * (re / delta)
                       + (0.75 * y - 0.5 * im) * (im / delta)) / (0.25 * delta)

    delta, _ = field(x_mid, y_mid)
    assert ev.gap_area == float(-np.sum(-delta * dt))
    assert dynamical_phase(jt11, traj) == ev.gap_area
    assert dynamical_phase(jt11, traj, band=1) == float(-np.sum(delta * dt))
    delta, dalpha = field(x, y)
    ratio = float(np.max(np.abs(dalpha) * np.abs(traj.theta_dot()) / delta))
    assert ev.adiabaticity_ratio == ratio
    assert adiabaticity_ratio(jt11, traj) == ratio


@pytest.mark.parametrize("n_steps", [4096, 16385, 3 * (1 << 14) + 5, 100000,
                                     1 << 20])
def test_gap_area_is_within_2_ulps_of_the_exact_sum(jt11, n_steps):
    # whatever order the sum takes, gap_area is within 2 ulps of the
    # correctly rounded sum of the same float products Delta dt, Delta at
    # the trajectory's midpoints
    traj = pseudorotation_trajectory(1.0, n_steps / 50.0, n_steps)
    r, th = traj.r_of_t, traj.theta_of_t
    _, delta, _ = coupling_at(jt11, *traj.plane(0, r, th)[2:], None)
    exact = math.fsum(delta * np.diff(traj.times))
    ev = integrate_spin(jt11, traj, PSI_LOWER, store_stride=1 << 20)
    assert abs(ev.gap_area - exact) <= 2 * math.ulp(exact)


def test_adiabaticity_ratio_closed_form(jt10, jt11):
    # pure linear coupling: dalpha/dtheta = 1 and Delta = 1, ratio = thetadot
    traj = pseudorotation_trajectory(1.0, 100.0, 512)
    assert adiabaticity_ratio(jt10, traj) == pytest.approx(
        2.0 * math.pi / 100.0, rel=1e-9)
    # k = g = 1 at r = 1 peaks at theta = pi: |dalpha/dtheta| / Delta = 8
    assert adiabaticity_ratio(jt11, traj) == pytest.approx(
        8.0 * 2.0 * math.pi / 100.0, rel=1e-6)


def test_adiabaticity_blows_up_near_degeneracy(jt11):
    traj_far = pseudorotation_trajectory(1.0, 100.0, 512)
    traj_near = pseudorotation_trajectory(1.99, 100.0, 512)
    assert (adiabaticity_ratio(jt11, traj_near)
            > 100.0 * adiabaticity_ratio(jt11, traj_far))


def test_static_trajectory_is_perfectly_adiabatic(jt11):
    assert adiabaticity_ratio(jt11, static_trajectory(1.0, 0.4, 5.0, 64)) == 0.0


# ---------------------------------------------------------------------------
# winding phase of closed loops


def test_ac_phase_inner_loop(jt11):
    # one enclosed degeneracy: half of a +2 pi winding
    phase = ac_loop_phase(jt11, circle_path(1.0, 4096))
    assert abs(phase - math.pi) < 1e-9


def test_ac_phase_outer_loop(jt11):
    # net winding -4 pi: two half-turns cancel mod 2 pi
    phase = ac_loop_phase(jt11, circle_path(3.0, 4096))
    assert abs(phase) < 1e-9


def test_ac_phase_loop_around_outer_intersection(jt11):
    loop = cartesian_loop(1.0, math.sqrt(3.0), 0.3, 2048)
    assert abs(ac_loop_phase(jt11, loop) - math.pi) < 1e-9


def test_ac_phase_empty_loop(jt11):
    loop = cartesian_loop(2.5, 0.0, 0.3, 2048)
    assert abs(ac_loop_phase(jt11, loop)) < 1e-12


def test_ac_phase_independent_of_start_angle(jt11):
    a = ac_loop_phase(jt11, circle_path(0.7, 2048))
    b = ac_loop_phase(jt11, circle_path(0.7, 2048, theta0=1.1))
    assert abs(a - b) < 1e-9


def test_ac_phase_open_path_rejected(jt11):
    pts = [(1.0, t) for t in np.linspace(0.0, 3.0, 64)]
    with pytest.raises(OpenPath):
        ac_loop_phase(jt11, DiscretizedPath(pts, closed=False))


def test_ac_phase_sample_on_degeneracy(jt11):
    with pytest.raises(AlphaUndefined) as err:
        ac_loop_phase(jt11, circle_path(2.0, 2048, theta0=math.pi / 3.0))
    assert (err.value.index, err.value.r, err.value.theta) == (
        0, 2.0, math.pi / 3.0)


def test_ac_phase_underresolved_crossing(jt11):
    # on the degeneracy circle alpha jumps by about pi between neighboring
    # samples at each intersection; that must refuse, not alias (theta0
    # offset keeps the samples themselves off the intersections)
    with pytest.raises(StepTooLarge):
        ac_loop_phase(jt11, circle_path(2.0, 512, theta0=0.05))


def test_ac_phase_matches_kinetic_coupling_integral(jt11):
    """The winding route must agree with quadrature of the co-moving drive
    coefficient d alpha/d theta around the same circle."""
    n = 4096
    thetas = np.linspace(0.0, 2.0 * math.pi, n + 1)
    dalpha = np.array([
        -effective_fields(jt11, 0.7, float(t), theta_dot=1.0).b_eff[1]
        for t in thetas
    ])
    integral = np.trapezoid(dalpha, thetas)
    assert integral == pytest.approx(2.0 * math.pi, abs=1e-6)
    phase = ac_loop_phase(jt11, circle_path(0.7, n))
    assert abs(phase - 0.5 * integral) < 1e-6
