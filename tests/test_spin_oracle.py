"""The chunked spin drive against whole-array references, bitwise.

`reference_drive` and `reference_integrate_spin` are the drive and the
propagation that the chunked `integrate_spin` replaced: every stage over
whole arrays of samples, midpoints and steps, padded to a whole number of
`store_stride` blocks.  They live here, not in the package, so the chunked
path always has a whole-array one to answer to.  Results must agree bit for
bit, and where the reference raises, the chunked code must raise the same
error type at the same index with the same message.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berryline import (
    AlphaUndefined,
    JTParams,
    StepTooLarge,
    adiabaticity_ratio,
    comoving,
    dynamical_phase,
    integrate_spin,
    pseudorotation_trajectory,
)
from berryline.comoving import (STEP_RESOLUTION_LIMIT, SpinEvolution,
                                _reduce_blocks)
from berryline.errors import NonFinite
from berryline.jahnteller import coupling_field


class ReferenceDrive(NamedTuple):
    f_samples: np.ndarray
    f_mid: np.ndarray
    delta: np.ndarray
    dalpha: np.ndarray
    gap_area: float
    ratio: float


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
        gap_area = float(np.sum(delta * np.diff(traj.times)))
    return ReferenceDrive(f_samples, f_mid, delta, dalpha, gap_area, ratio)


def reference_integrate_spin(p, traj, psi, frame, store_stride):
    """integrate_spin over whole arrays, one step unitary per step."""
    t = traj.times
    dt = np.diff(t)
    n_steps = len(dt)
    f_samples, f_mid, delta, dalpha, gap_area, ratio = reference_drive(p, traj)
    with np.errstate(over="ignore", invalid="ignore"):
        drive = dalpha * (np.diff(traj.theta_of_t) / dt)
        resolution = dt * np.maximum(2.0 * delta, np.abs(drive))
        resolved = resolution < STEP_RESOLUTION_LIMIT
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
        ua = cos_p - 1j * sinc * hz
        ub = -sinc * hy - 1j * sinc * hx
        uc = sinc * hy - 1j * sinc * hx
        ud = cos_p + 1j * sinc * hz
    block = store_stride
    pad = (-n_steps) % block
    if pad:
        one = np.ones(pad, dtype=complex)
        zero = np.zeros(pad, dtype=complex)
        ua, ub = np.concatenate((ua, one)), np.concatenate((ub, zero))
        uc, ud = np.concatenate((uc, zero)), np.concatenate((ud, one))
    ba, bb, bc, bd = _reduce_blocks(ua, ub, uc, ud, block)
    recorded = [psi]
    with np.errstate(invalid="ignore"):
        for k in range(len(ba)):
            psi = np.array([ba[k] * psi[0] + bb[k] * psi[1],
                            bc[k] * psi[0] + bd[k] * psi[1]])
            psi = psi / np.sqrt(psi.real.dot(psi.real) + psi.imag.dot(psi.imag))
            recorded.append(psi)
    if not np.isfinite(psi).all():
        raise NonFinite("spin state is not finite: the step field's squared "
                        "norm overflows")
    idx = np.minimum(np.arange(len(recorded)) * block, n_steps)
    alphas_all = np.unwrap(np.angle(f_samples))
    return SpinEvolution(times=t[idx], states=np.array(recorded), frame=frame,
                         alphas=alphas_all[idx], gap_area=gap_area,
                         adiabaticity_ratio=ratio)


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


@st.composite
def drives(draw):
    """(r, period, n_steps, revolutions, theta0): k = g = 1, so the radius
    lies inside or outside the degeneracy circle 2k/g = 2."""
    # below about 1000 steps the drive term leaves most steps unresolved
    n = draw(st.one_of(st.integers(2, 4000), st.integers(1000, 4000),
                       st.sampled_from([1 << j for j in range(1, 13)])))
    revolutions = draw(st.floats(1.0, 3.0))
    r = draw(st.one_of(st.floats(0.3, 1.9), st.floats(2.1, 4.0)))
    # time steps around the limit 2 Delta dt < STEP_RESOLUTION_LIMIT
    dt = draw(st.floats(0.005, 0.06)) / (r + 0.5 * r * r)
    theta0 = draw(st.floats(-math.pi, math.pi))
    return r, n * dt / revolutions, n, revolutions, theta0


PSI = {("comoving", 0): np.array([0.0, 1.0], dtype=complex),
       ("comoving", 1): np.array([1.0, 0.0], dtype=complex),
       ("lab", 0): np.array([0.6, 0.8], dtype=complex),
       ("lab", 1): np.array([0.8j, -0.6], dtype=complex)}


@settings(max_examples=100, deadline=None)
@given(case=drives(), stride_log2=st.integers(0, 13),
       frame=st.sampled_from(["comoving", "lab"]), band=st.integers(0, 1),
       chunk_log2=st.integers(3, 7))
# a sample on the degeneracy set at the first sample of the second chunk
@example(case=(2.0, 1e6, 6 * 16384, 1.0, 0.0), stride_log2=6,
         frame="comoving", band=0, chunk_log2=14)
# a midpoint on it, inside the second chunk
@example(case=(2.0, 1e6, 6 * 20000 + 3, 1.0, 0.0), stride_log2=6,
         frame="lab", band=0, chunk_log2=14)
# the first step under-resolves the gap
@example(case=(1.0, 3000.0, 40000, 1.0, 0.0), stride_log2=6,
         frame="comoving", band=1, chunk_log2=14)
# record blocks of two chunks, the last one padded across a chunk edge
@example(case=(1.0, 2000.0, 100000, 1.0, 0.3), stride_log2=15,
         frame="comoving", band=0, chunk_log2=14)
# one block past the last step, over three chunks and 5 steps
@example(case=(1.0, 1000.0, 3 * 16384 + 5, 1.0, 0.0), stride_log2=16,
         frame="lab", band=1, chunk_log2=14)
# one block of eight chunks, the last three of them identity fill
@example(case=(1.0, 1000.0, 4 * 16384 + 1, 1.0, 0.0), stride_log2=17,
         frame="comoving", band=0, chunk_log2=14)
def test_chunked_spin_matches_whole_arrays(case, stride_log2, frame, band,
                                           chunk_log2):
    p = JTParams(1.0, 1.0)
    r, period, n, revolutions, theta0 = case
    traj = pseudorotation_trajectory(r, period, n, theta0=theta0,
                                     revolutions=revolutions)
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
