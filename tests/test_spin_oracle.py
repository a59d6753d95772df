"""The chunked spin drive against whole-array references, bitwise.

`reference_drive` and `reference_integrate_spin` are the drive and the
propagation that the chunked `integrate_spin` replaced: every stage over
whole arrays of samples, midpoints and steps, padded to a whole number of
`store_stride` blocks, the records formed a group of RECORD_GROUP at a
time from running products of the group's block pairs, and gap_area summed
by the block rule over the whole array of Delta dt.  They live here,
not in the package, so the chunked path always has a whole-array one to
answer to.  Results must agree bit for bit, and where the reference raises,
the chunked code must raise the same error type at the same index with the
same message.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berryline import (
    AlphaUndefined,
    JTParams,
    NuclearTrajectory,
    StepTooLarge,
    adiabaticity_ratio,
    comoving,
    dynamical_phase,
    integrate_spin,
    pseudorotation_trajectory,
)
from berryline.comoving import (CHUNK_STEPS, GAP_BLOCK, RECORD_GROUP,
                                STEP_RESOLUTION_LIMIT, SpinEvolution,
                                _reduce_blocks)
from berryline.errors import NonFinite
from berryline.jahnteller import DEGENERACY_TOL, coupling_field


class ReferenceDrive(NamedTuple):
    f_samples: np.ndarray
    f_mid: np.ndarray
    delta: np.ndarray
    dalpha: np.ndarray
    gap_area: float
    ratio: float


def block_rule_sum(x):
    """np.sum of each GAP_BLOCK elements from the start, joined as a tree
    whose left part holds the largest power-of-two count of blocks below
    the whole count: the sums added in adjacent pairs, level by level."""
    blocks = -(-len(x) // GAP_BLOCK)
    if blocks <= 1:
        return np.sum(x)
    left = GAP_BLOCK << (blocks - 1).bit_length() - 1
    return block_rule_sum(x[:left]) + block_rule_sum(x[left:])


def reference_drive(p, traj) -> ReferenceDrive:
    """The coupling at all samples, then at all step midpoints."""
    f_samples, delta, dalpha = coupling_field(p, traj.r_of_t, traj.theta_of_t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta_dot = np.gradient(traj.theta_of_t, traj.times)
        ratio = float(np.max(np.abs(dalpha) * np.abs(theta_dot) / delta))
        if not math.isfinite(ratio):
            raise NonFinite(f"adiabaticity ratio {ratio!r} is not finite: "
                            "the angular velocity or d alpha/d theta leaves "
                            "the float range")
        r_mid = 0.5 * (traj.r_of_t[:-1] + traj.r_of_t[1:])
        th_mid = 0.5 * (traj.theta_of_t[:-1] + traj.theta_of_t[1:])
        f_mid, delta, dalpha = coupling_field(p, r_mid, th_mid)
        gap_area = float(block_rule_sum(delta * np.diff(traj.times)))
    return ReferenceDrive(f_samples, f_mid, delta, dalpha, gap_area, ratio)


def reference_blocks(p, traj, frame, store_stride):
    """The drive, and the pairs (a, b) of the block products, one per record
    after the first, over whole arrays from one step pair per step."""
    dt = np.diff(traj.times)
    n_steps = len(dt)
    ref = reference_drive(p, traj)
    with np.errstate(over="ignore", invalid="ignore"):
        drive = ref.dalpha * (np.diff(traj.theta_of_t) / dt)
        resolution = dt * np.maximum(2.0 * ref.delta, np.abs(drive))
        resolved = resolution < STEP_RESOLUTION_LIMIT
        if not resolved.all():
            j = int(np.argmin(resolved))
            raise StepTooLarge(j, float(resolution[j]), STEP_RESOLUTION_LIMIT)
        if frame == "lab":
            hx, hy, hz = (np.imag(ref.f_mid), np.zeros(n_steps),
                          np.real(ref.f_mid))
        else:
            hx, hy, hz = np.zeros(n_steps), -0.5 * drive, ref.delta
        omega = np.sqrt(hx * hx + hy * hy + hz * hz)
        phase = omega * dt
        sinc = np.sin(phase) / omega
        # U = [[a, -conj b], [b, conj a]]
        a = np.cos(phase) - 1j * sinc * hz
        b = sinc * hy - 1j * sinc * hx
    pad = (-n_steps) % store_stride
    if pad:
        a = np.concatenate((a, np.ones(pad, dtype=complex)))
        b = np.concatenate((b, np.zeros(pad, dtype=complex)))
    return ref, *_reduce_blocks(a, b, store_stride)


def reference_integrate_spin(p, traj, psi, frame, store_stride):
    """integrate_spin over whole arrays, one step pair per step."""
    ref, a, b = reference_blocks(p, traj, frame, store_stride)
    # running products within each group of records, in rounds at doubling
    # distances: element i takes the product of i with the one d before it
    n_blocks, pad = len(a), -len(a) % RECORD_GROUP
    a = np.concatenate((a, np.ones(pad, dtype=complex))).reshape(-1, RECORD_GROUP)
    b = np.concatenate((b, np.zeros(pad, dtype=complex))).reshape(-1, RECORD_GROUP)
    d = 1
    while d < RECORD_GROUP:
        a1, b1, a0, b0 = a[:, d:], b[:, d:], a[:, :-d], b[:, :-d]
        a, b = (np.concatenate((a[:, :d], a1 * a0 - np.conj(b1) * b0), axis=1),
                np.concatenate((b[:, :d], b1 * a0 + np.conj(a1) * b0), axis=1))
        d *= 2
    # each group's records from the renormalized last record before it
    state = psi.view(float)  # Re, Im of each component
    rows = [state[None]]
    with np.errstate(invalid="ignore"):
        for ar, ai, br, bi in zip(a.real, a.imag, b.real, b.imag):
            p0r, p0i, p1r, p1i = state
            x = np.array([ar * p0r - ai * p0i - (br * p1r + bi * p1i),
                          ar * p0i + ai * p0r - (br * p1i - bi * p1r),
                          br * p0r - bi * p0i + (ar * p1r + ai * p1i),
                          br * p0i + bi * p0r + (ar * p1i - ai * p1r)])
            x /= np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
            rows.append(x.T)
            state = x[:, -1]
    states = np.concatenate(rows)[:n_blocks + 1].copy().view(complex)
    if not np.isfinite(states[-1]).all():
        raise NonFinite("spin state is not finite: the step field's squared "
                        "norm overflows")
    idx = np.minimum(np.arange(len(states)) * store_stride, traj.n_samples - 1)
    alphas_all = np.unwrap(np.angle(ref.f_samples))
    return SpinEvolution(times=traj.times[idx], states=states, frame=frame,
                         alphas=alphas_all[idx], gap_area=ref.gap_area,
                         adiabaticity_ratio=ref.ratio)


class Raised(NamedTuple):
    error: type
    index: int | None
    message: str


def outcome(call):
    """What a call returns, or the type, index and message of its error."""
    try:
        return call()
    except (AlphaUndefined, NonFinite, StepTooLarge) as err:
        return Raised(type(err), getattr(err, "index", None), str(err))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class Ring(NamedTuple):
    """The arguments of pseudorotation_trajectory."""

    r: float
    period: float
    n_steps: int
    revolutions: float
    theta0: float


class Arrays(NamedTuple):
    """A trajectory built from arrays: times, radii and angles."""

    times: np.ndarray
    r: np.ndarray
    theta: np.ndarray


def trajectory(path):
    if isinstance(path, Arrays):
        return NuclearTrajectory(*path)
    return pseudorotation_trajectory(path.r, path.period, path.n_steps,
                                     theta0=path.theta0,
                                     revolutions=path.revolutions)


@st.composite
def couplings(draw):
    """(k, g, r, dt): one coupling may be 0; the radius lies inside or
    outside the degeneracy circle 2k/g (2 where a coupling is 0), and time
    steps around the limit 2 Delta dt < STEP_RESOLUTION_LIMIT."""
    zero = draw(st.sampled_from(["k", "g", None, None, None, None]))
    k = 0.0 if zero == "k" else draw(st.floats(0.25, 2.0))
    g = 0.0 if zero == "g" else draw(st.floats(0.25, 2.0))
    rc = 2.0 * k / g if k and g else 2.0
    r = rc * draw(st.one_of(st.floats(0.15, 0.95), st.floats(1.05, 2.0)))
    delta_max = k * r + 0.5 * g * r * r
    return k, g, r, draw(st.floats(0.005, 0.06)) / (delta_max or 1.0)


@st.composite
def drives(draw):
    """((k, g), Ring): a uniform circular drive."""
    k, g, r, dt = draw(couplings())
    # below about 1000 steps the drive term leaves most steps unresolved
    n = draw(st.one_of(st.integers(2, 4000), st.integers(1000, 4000),
                       st.sampled_from([1 << j for j in range(1, 13)])))
    revolutions = draw(st.floats(1.0, 3.0))
    theta0 = draw(st.floats(-math.pi, math.pi))
    return (k, g), Ring(r, n * dt / revolutions, n, revolutions, theta0)


@st.composite
def uneven_drives(draw):
    """((k, g), Arrays): a drive whose time steps and radius vary, so the
    angular velocity takes np.gradient's general form."""
    k, g, r, dt = draw(couplings())
    n = draw(st.one_of(st.integers(2, 3000), st.integers(1000, 3000)))
    revolutions = draw(st.floats(0.5, 2.5))
    theta0 = draw(st.floats(-math.pi, math.pi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.concatenate(([0.0], np.cumsum(dt * rng.uniform(0.5, 1.5, n))))
    phase = 2.0 * math.pi * revolutions * times / times[-1]
    radii = r * (1.0 + 0.03 * np.sin(3.0 * phase))
    return (k, g), Arrays(times, radii, theta0 + phase)


def _planted(n, angles={}, degenerate_steps=(), lengths={}):
    """An array trajectory at r = 2 for k = g = 1, away from the degeneracy
    set save where `angles` puts a sample (theta = pi is on it), and a step
    whose midpoint rounds to pi for each index in `degenerate_steps`.  Time
    steps alternate in length, save those that `lengths` gives a length of
    their own."""
    dt = np.where(np.arange(n) % 2, 0.0015, 0.001)
    dt[list(lengths)] = list(lengths.values())
    theta = 0.01 * np.arange(n + 1)
    theta[list(angles)] = list(angles.values())
    for j in degenerate_steps:
        theta[j], theta[j + 1] = math.pi - 1e-3, math.pi + 1e-3
    return Arrays(np.concatenate(([0.0], np.cumsum(dt))), np.full(n + 1, 2.0),
                  theta)


PSI = {("comoving", 0): np.array([0.0, 1.0], dtype=complex),
       ("comoving", 1): np.array([1.0, 0.0], dtype=complex),
       ("lab", 0): np.array([0.6, 0.8], dtype=complex),
       ("lab", 1): np.array([0.8j, -0.6], dtype=complex)}


@settings(max_examples=100, deadline=None)
@given(case=st.one_of(drives(), uneven_drives()),
       stride_log2=st.integers(0, 13),
       frame=st.sampled_from(["comoving", "lab"]), band=st.integers(0, 1),
       chunk_log2=st.integers(3, 7))
# a sample on the degeneracy set at the first sample of the second chunk
@example(case=((1.0, 1.0), Ring(2.0, 1e6, 6 * 16384, 1.0, 0.0)),
         stride_log2=6, frame="comoving", band=0, chunk_log2=14)
# a midpoint on it, inside the second chunk
@example(case=((1.0, 1.0), Ring(2.0, 1e6, 6 * 20000 + 3, 1.0, 0.0)),
         stride_log2=6, frame="lab", band=0, chunk_log2=14)
# the first step under-resolves the gap
@example(case=((1.0, 1.0), Ring(1.0, 3000.0, 40000, 1.0, 0.0)),
         stride_log2=6, frame="comoving", band=1, chunk_log2=14)
# record blocks of two chunks, the last one padded across a chunk edge
@example(case=((1.0, 1.0), Ring(1.0, 2000.0, 100000, 1.0, 0.3)),
         stride_log2=15, frame="comoving", band=0, chunk_log2=14)
# one block past the last step, over three chunks and 5 steps
@example(case=((1.0, 1.0), Ring(1.0, 1000.0, 3 * 16384 + 5, 1.0, 0.0)),
         stride_log2=16, frame="lab", band=1, chunk_log2=14)
# gap_area's blocks of two chunks each, and chunks of two blocks each (a
# sum a chunk reads other bits here)
@example(case=((0.7, 1.1), Ring(0.5, 2000.0, 3 * 16384 + 5, 1.0, 0.3)),
         stride_log2=6, frame="comoving", band=0, chunk_log2=13)
@example(case=((0.7, 1.1), Ring(0.5, 2000.0, 3 * 16384 + 5, 1.0, 0.3)),
         stride_log2=6, frame="lab", band=1, chunk_log2=15)
# one block of eight chunks, the last three of them identity fill
@example(case=((1.0, 1.0), Ring(1.0, 1000.0, 4 * 16384 + 1, 1.0, 0.0)),
         stride_log2=17, frame="comoving", band=0, chunk_log2=14)
# a step count one short of a chunk, a whole chunk whose last sample is a
# chunk alone, and one step past a chunk, at the real chunk size
@example(case=((1.0, 1.0), Ring(1.0, 400.0, CHUNK_STEPS - 1, 1.0, 0.3)),
         stride_log2=0, frame="comoving", band=0, chunk_log2=14)
@example(case=((1.0, 1.0), Ring(1.0, 400.0, CHUNK_STEPS, 1.0, 0.3)),
         stride_log2=0, frame="lab", band=1, chunk_log2=14)
@example(case=((1.0, 1.0), Ring(1.0, 400.0, CHUNK_STEPS + 1, 1.0, 0.3)),
         stride_log2=14, frame="comoving", band=1, chunk_log2=14)
# the drive starting at theta = -0.0 and at +0.0; the pure quadratic and the
# pure linear coupling
@example(case=((1.0, 1.0), Ring(1.0, 100.0, 4096, 1.0, -0.0)),
         stride_log2=0, frame="lab", band=0, chunk_log2=3)
@example(case=((1.0, 1.0), Ring(1.0, 100.0, 4096, 1.0, 0.0)),
         stride_log2=0, frame="comoving", band=0, chunk_log2=3)
@example(case=((0.0, 1.0), Ring(1.0, 100.0, 4096, 2.5, -0.0)),
         stride_log2=0, frame="lab", band=1, chunk_log2=5)
@example(case=((1.0, 0.0), Ring(1.0, 100.0, 4096, 3.0, -0.0)),
         stride_log2=2, frame="comoving", band=1, chunk_log2=4)
# standing drives: the unitaries are diagonal, so one component of the
# state stays an exact, signed zero, and in the first one the sign of that
# zero tells numpy's complex division from a complex times a float
@example(case=((1.0, 1.0), Arrays(np.linspace(0.0, 30.0, 301),
                                  np.full(301, 0.5), np.full(301, 1.0))),
         stride_log2=6, frame="comoving", band=0, chunk_log2=5)
@example(case=((1.0, 1.0), Arrays(np.linspace(0.0, 30.0, 3001),
                                  np.full(3001, 1.0), np.full(3001, -2.0))),
         stride_log2=3, frame="comoving", band=1, chunk_log2=5)
# a midpoint on the degeneracy set in the first chunk and a sample on it in
# the third: the sample's error comes first, as over whole arrays
@example(case=((1.0, 1.0), _planted(40, angles={20: math.pi},
                                     degenerate_steps=[2])),
         stride_log2=0, frame="comoving", band=0, chunk_log2=3)
# an unresolved step (50 time units) before a midpoint on the degeneracy
# set: the midpoint's error comes first
@example(case=((1.0, 1.0), _planted(40, degenerate_steps=[20],
                                     lengths={1: 50.0})),
         stride_log2=1, frame="lab", band=0, chunk_log2=3)
# an angular velocity that overflows, at a first step of 5e-324 before a
# midpoint on the degeneracy set, and at a jump past the float range after
# one: the ratio that is not finite comes first
@example(case=((1.0, 1.0), _planted(40, degenerate_steps=[20],
                                     lengths={0: 5e-324})),
         stride_log2=0, frame="comoving", band=0, chunk_log2=3)
@example(case=((1.0, 1.0), _planted(40, angles={25: 8e307, 26: -8e307},
                                     degenerate_steps=[2])),
         stride_log2=2, frame="lab", band=1, chunk_log2=3)
def test_chunked_spin_matches_whole_arrays(case, stride_log2, frame, band,
                                           chunk_log2):
    (k, g), path = case
    p = JTParams(k, g)
    traj = trajectory(path)
    psi, stride = PSI[frame, band], 1 << stride_log2
    expected = outcome(lambda: reference_integrate_spin(p, traj, psi, frame,
                                                        stride))
    drive = outcome(lambda: reference_drive(p, traj))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comoving, "CHUNK_STEPS", 1 << chunk_log2)
        got = outcome(lambda: integrate_spin(p, traj, psi, frame=frame,
                                             store_stride=stride))
        gap_area = outcome(lambda: dynamical_phase(p, traj))
        ratio = outcome(lambda: adiabaticity_ratio(p, traj))
    if isinstance(expected, Raised):
        assert got == expected
    else:
        for name in ("times", "states", "alphas", "gap_area",
                     "adiabaticity_ratio"):
            assert same_bits(getattr(got, name), getattr(expected, name)), name
    if isinstance(drive, Raised):
        assert gap_area == ratio == drive
    else:
        assert same_bits(gap_area, drive.gap_area)
        assert same_bits(ratio, drive.ratio)


def test_step_unitaries_match_complex_arithmetic():
    """The in-place step pairs (a, b) of U = [[a, -conj b], [b, conj a]]
    against the complex expressions a = cos_p - 1j*sinc*hz and b = sinc*hy
    - 1j*sinc*hx over whole arrays, bitwise, signed zeros included, on every
    resolved step off the degeneracy set in a grid of special values; where
    w overflows, a is NaN, so the state that takes the step is NaN."""
    special = [0.0, 1e-300, 0.3, 1.0, 7.5, 1e3, 1e120, 1e200]
    special += [-x for x in special]
    dts = [5e-324, 1e-300, 1e-6, 1e-3, 0.01, 0.04]
    grid = np.array(np.meshgrid(dts, special, special)).reshape(3, -1)
    for lab in (True, False):
        dt, h, hz = grid
        # off the degeneracy set: Delta (the co-moving hz) is above its
        # tolerance
        keep = (np.hypot(h, hz) if lab else hz) > DEGENERACY_TOL
        dt, h, hz = (x[keep] for x in (dt, h, hz))
        zero = np.zeros(len(dt))
        hx, hy = (h, zero) if lab else (zero, h)
        with np.errstate(over="ignore", invalid="ignore"):
            omega = np.sqrt(hx * hx + hy * hy + hz * hz)
            phase = omega * dt
            sinc = np.sin(phase) / omega
            want = (np.cos(phase) - 1j * sinc * hz, sinc * hy - 1j * sinc * hx)
            got = (comoving._step_unitaries(dt, hz, hx=h) if lab
                   else comoving._step_unitaries(dt, hz, hy=h))
        resolved = phase < 0.1
        overflow = np.isinf(omega)
        assert resolved.sum() > 100 and overflow.sum() > 10
        for w, u in zip(want, got):
            assert same_bits(u[resolved], w[resolved])
        assert np.isnan(got[0][overflow]).all()


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(drives(), uneven_drives()),
       stride_log2=st.integers(0, 13),
       frame=st.sampled_from(["comoving", "lab"]), band=st.integers(0, 1))
# 1000 records after the first: 15 whole groups and 40 records
@example(case=((1.0, 1.0), Ring(1.0, 25.0, 1000, 1.0, 0.3)),
         stride_log2=0, frame="comoving", band=0)
# stride 1 over 3 groups and 1 record, and over one record short of a group
@example(case=((0.7, 1.1), Ring(0.5, 20.0, 3 * RECORD_GROUP + 1, 0.5, -1.0)),
         stride_log2=0, frame="lab", band=1)
@example(case=((0.7, 1.1), Ring(0.5, 90.0, RECORD_GROUP - 1, 0.05, 2.0)),
         stride_log2=0, frame="comoving", band=1)
# a stride at or above the step count: one block, the first and last state
@example(case=((1.0, 1.0), Ring(1.0, 100.0, 3000, 1.0, 0.0)),
         stride_log2=12, frame="lab", band=0)
@example(case=((1.0, 1.0), Ring(1.0, 100.0, 4096, 1.0, 0.0)),
         stride_log2=13, frame="comoving", band=1)
def test_record_groups_match_a_sequential_product(case, stride_log2, frame,
                                                  band):
    """The records formed a group at a time from running products agree
    within 1e-13 with one product a record, each state renormalized before
    the next record is formed, and every norm is within 4 eps of 1."""
    (k, g), path = case
    p, traj = JTParams(k, g), trajectory(path)
    psi, stride = PSI[frame, band], 1 << stride_log2
    got = outcome(lambda: integrate_spin(p, traj, psi, frame=frame,
                                         store_stride=stride))
    assume(not isinstance(got, Raised))
    _, a, b = reference_blocks(p, traj, frame, stride)
    want = [psi]
    for a_k, b_k in zip(a, b):
        x = np.array([a_k * want[-1][0] - np.conj(b_k) * want[-1][1],
                      b_k * want[-1][0] + np.conj(a_k) * want[-1][1]])
        want.append(x / np.linalg.norm(x))
    assert got.states.shape == (len(want), 2)
    assert np.max(np.abs(got.states - np.array(want))) <= 1e-13
    assert np.max(np.abs(got.norms - 1.0)) <= 4.0 * np.finfo(float).eps
