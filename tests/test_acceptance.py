"""End-to-end checks of the package's headline claims.

Each test covers one numbered criterion and prints exactly one PASS or FAIL
line straight to the terminal, so a full run reads as a nine-line scorecard.
The criteria are checked at their stated tolerances; expected values come
from closed forms or from independent restatements (winding integrals, the
free-ring dispersion), never from the code under test.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from conftest import cone_states, loop_xy, refined_circle, winding_number

from berryline import (
    DiscretizedPath,
    JTParams,
    SearchRect,
    ac_loop_phase,
    canonicalize_phase,
    circle_path,
    detect_nodes,
    dynamical_phase,
    eig_real_symmetric,
    flat_ring_problem,
    holonomy_sign,
    integrate_spin,
    jt_electronic_hamiltonian,
    jt_eigenvectors,
    jt_field,
    jt_point_data,
    jt_ring_problem,
    locate_ci,
    open_path_berry_phase,
    overlap_trace,
    pseudorotation_trajectory,
    reference_section,
    spectrum,
    to_lab_frame,
    track_branch,
)

SQRT3 = math.sqrt(3.0)
KNOWN_POINTS = ((0.0, 0.0), (1.0, SQRT3), (-2.0, 0.0), (1.0, -SQRT3))
# local degree of the mixing-angle winding: +1 at the origin, -1 outside
POINT_DEGREES = (1, -1, -1, -1)


@contextmanager
def scorecard(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number} FAIL: {label}")
        raise
    else:
        with capsys.disabled():
            print(f"\ncriterion {number} PASS: {label}")


def test_criterion_1_node_lines(jt11, capsys):
    with scorecard(capsys, 1, "node lines match the closed form to 1e-4"):
        for r in (0.5, 1.0, 1.5):
            _, _, nodes = refined_circle(jt11, r)
            assert nodes.count == 1
            assert abs(nodes.angles[0] - math.pi) < 1e-4
        for r in (2.5, 3.0, 5.0, 10.0):
            _, _, nodes = refined_circle(jt11, r)
            assert nodes.count == 2
            lo = math.acos(1.0 / r)
            for got, want in zip(sorted(nodes.angles),
                                 sorted((lo, 2.0 * math.pi - lo))):
                assert abs(got - want) < 1e-4


def test_criterion_2_degeneracy_search(jt11, capsys):
    with scorecard(capsys, 2, "locator finds exactly the known degeneracies "
                              "within 1e-3 in under 30 s"):
        rect = SearchRect(-3.0, 3.0, -3.0, 3.0)

        start = time.perf_counter()
        res = locate_ci(jt_field(jt11, frame="cartesian"), rect,
                        spatial_tol=1e-3)
        assert time.perf_counter() - start < 30.0
        assert len(res.points) == 4
        for px, py in KNOWN_POINTS:
            near = [q for q in res.points
                    if math.hypot(q[0] - px, q[1] - py) < 1e-3]
            assert len(near) == 1

        start = time.perf_counter()
        res0 = locate_ci(jt_field(JTParams(1.0, 0.0), frame="cartesian"),
                         rect, spatial_tol=1e-3)
        assert time.perf_counter() - start < 30.0
        assert len(res0.points) == 1
        assert math.hypot(*res0.points[0]) < 1e-3


@pytest.fixture(scope="module")
def loop_rows(assorted_loops, jt11):
    """Per-loop pipeline output shared by the phase-law and loop-phase tests.

    count and geometric phase come from the eigenvector pipeline, the loop
    phase from the coupling-field winding, and the signed enclosure count
    from an independent polygonal winding-number oracle.
    """
    rows = []
    for case in assorted_loops:
        branch = track_branch(case.field, case.path, band=0)
        trace = overlap_trace(branch, anchor_index=0)
        nodes = detect_nodes(trace, angles=case.angles)
        phase = open_path_berry_phase(branch.vectors)
        loop_phase = ac_loop_phase(jt11, case.polar_path)
        xy = loop_xy(case)
        signed = sum(deg * winding_number(xy, px, py)
                     for (px, py), deg in zip(KNOWN_POINTS, POINT_DEGREES))
        rows.append((case.name, nodes.count, phase.geometric_phase,
                     holonomy_sign(branch), loop_phase, signed))
    return rows


def test_criterion_3_phase_law(loop_rows, capsys):
    with scorecard(capsys, 3, "geometric phase is -K*pi mod 2pi and matches "
                              "the holonomy sign exactly on 20 loops"):
        for name, count, geo, holonomy, _, _ in loop_rows:
            assert abs(canonicalize_phase(geo + count * math.pi)) < 1e-3, name
            assert geo == math.pi * (1 - holonomy) / 2.0, name


def test_criterion_4_gauge_invariance(jt11, capsys):
    with scorecard(capsys, 4, "100 random phase dressings leave the phase "
                              "and the reference section unchanged"):
        data = []
        for r in (1.0, 3.0):
            branch, _, nodes = refined_circle(jt11, r, n_samples=1024)
            baseline = open_path_berry_phase(branch.vectors).geometric_phase
            section = reference_section(branch, nodes)
            data.append((branch, nodes, baseline, section))

        rng = np.random.default_rng(7)
        for trial in range(100):
            branch, nodes, baseline, section = data[trial % 2]
            phases = np.exp(1j * rng.uniform(-math.pi, math.pi,
                                             len(branch.vectors)))
            dressed = open_path_berry_phase(phases[:, None] * branch.vectors)
            assert abs(canonicalize_phase(
                dressed.geometric_phase - baseline)) < 1e-9

            # the anchor state is the section's gauge reference; dressing
            # anything else must not move the output
            phases[0] = 1.0
            redone = reference_section(
                replace(branch, vectors=phases[:, None] * branch.vectors),
                nodes)
            assert np.max(np.abs(redone - section)) < 1e-9


def test_criterion_5_reparametrization(jt11, capsys):
    with scorecard(capsys, 5, "monotone resampling shifts the phase < 1e-6 "
                              "at 4096 samples; refinement is second order"):
        rng = np.random.default_rng(11)

        def monotone_angles(n):
            w = rng.uniform(0.2, 1.8, size=n)
            ang = np.concatenate([[0.0], np.cumsum(w)])
            return ang * (2.0 * math.pi / ang[-1])

        # real eigenvector loop: the discrete phase is independent of the
        # sampling altogether
        field = jt_field(jt11, frame="polar")
        uniform = open_path_berry_phase(
            track_branch(field, circle_path(1.0, 4096), band=0).vectors)
        points = [(1.0, a) for a in monotone_angles(4096)]
        skewed = open_path_berry_phase(
            track_branch(field, DiscretizedPath(points, closed=True),
                         band=0).vectors)
        assert abs(canonicalize_phase(
            skewed.geometric_phase - uniform.geometric_phase)) < 1e-6

        # complex state family, where the discrete sum has a genuine O(h^2)
        # error: resampling stability plus the decay rate itself
        polar = 0.5
        exact = -2.0 * math.pi * math.sin(polar / 2.0) ** 2

        def cone_phase(angles):
            return open_path_berry_phase(
                cone_states(angles, polar)).geometric_phase

        base = cone_phase(np.linspace(0.0, 2.0 * math.pi, 4097))
        for _ in range(5):
            resampled = cone_phase(monotone_angles(4096))
            assert abs(canonicalize_phase(resampled - base)) < 1e-6

        devs = [abs(cone_phase(np.linspace(0.0, 2.0 * math.pi, n + 1)) - exact)
                for n in (512, 1024, 2048)]
        assert 3.0 < devs[0] / devs[1] < 5.0
        assert 3.0 < devs[1] / devs[2] < 5.0


def free_levels(parity, grid_size, n_levels=8):
    return spectrum(flat_ring_problem(parity, grid_size=grid_size),
                    n_levels).levels


def test_criterion_6_ring_spectra(jt11, capsys):
    with scorecard(capsys, 6, "ring levels follow half-odd / integer m^2/2 "
                              "at O(h^2); a barrier merges the parities"):
        # half-odd m, each level doubly degenerate
        odd = free_levels("odd", 1024)
        odd_exact = sorted((m + 0.5) ** 2 / 2.0
                           for m in range(4) for _ in range(2))
        for got, want in zip(odd, odd_exact):
            assert abs(got - want) / want < 1e-4

        even = free_levels("even", 1024)
        even_exact = sorted([0.0] + [m * m / 2.0
                                     for m in range(1, 5) for _ in range(2)])
        assert abs(even[0]) < 1e-9
        for got, want in zip(even[1:], even_exact[1:8]):
            assert abs(got - want) / want < 1e-4

        # convergence on the lowest nonzero level of each parity
        errs = [abs(free_levels(parity, n)[idx] - exact)
                for parity, idx, exact in (("odd", 0, 0.125),
                                           ("even", 1, 0.5))
                for n in (512, 1024, 2048)]
        for j in (0, 1, 3, 4):
            assert 3.5 < errs[j] / errs[j + 1] < 4.5

        barrier_cases = [
            flat_ring_problem("even", grid_size=1024, barrier=(1.0, 0.5)),
            flat_ring_problem("even", grid_size=512, barrier=(5.5, 0.3)),
            jt_ring_problem(jt11, 1.0, grid_size=1024, barrier=(2.0, 0.8)),
        ]
        for prob in barrier_cases:
            other = "odd" if prob.flux_parity == "even" else "even"
            a = spectrum(prob, 8).levels
            b = spectrum(replace(prob, flux_parity=other), 8).levels
            assert np.max(np.abs(a - b)) <= 1e-10


def test_criterion_7_loop_phase(loop_rows, jt11, capsys):
    with scorecard(capsys, 7, "loop phase is pi*K and pi*(signed enclosure "
                              "count) mod 2pi; field winding +2pi/-4pi"):
        for name, count, _, _, loop_phase, signed in loop_rows:
            assert abs(canonicalize_phase(
                loop_phase - math.pi * count)) < 1e-3, name
            assert abs(canonicalize_phase(
                loop_phase - math.pi * signed)) < 1e-3, name

        # total winding of the coupling phase, restated from the raw field
        def winding(r, n=4096):
            th = np.linspace(0.0, 2.0 * math.pi, n + 1)
            f = r * np.exp(1j * th) + 0.5 * r * r * np.exp(-2j * th)
            return float(np.sum(np.angle(f[1:] / f[:-1])))

        assert abs(winding(1.0) - 2.0 * math.pi) < 1e-9
        assert abs(winding(3.0) + 4.0 * math.pi) < 1e-9


def test_criterion_8_adiabatic_transport(jt11, capsys):
    with scorecard(capsys, 8, "slow revolution yields geometric phase pi to "
                              "2e-2; lab and co-moving frames agree"):
        start = time.perf_counter()
        # smallest gap on the r=1 circle is 2*Delta = 1, so one revolution
        # over T = 2e4 satisfies the 1e4 slowness product either way the
        # gap is read (full splitting or half)
        period = 2.0e4
        steps = 1 << 20
        traj = pseudorotation_trajectory(1.0, period, steps)

        ev_co = integrate_spin(jt11, traj,
                               np.array([0.0, 1.0], dtype=complex),
                               frame="comoving", store_stride=1 << 14)
        lab_states = to_lab_frame(ev_co)
        total = float(np.angle(np.vdot(lab_states[0], lab_states[-1])))
        geo = canonicalize_phase(total - dynamical_phase(jt11, traj, band=0))
        assert abs(canonicalize_phase(geo - math.pi)) < 2e-2

        psi0 = jt_eigenvectors(jt11, 1.0, 0.0)[0].astype(complex)
        ev_lab = integrate_spin(jt11, traj, psi0, frame="lab",
                                store_stride=1 << 14)
        fidelity = abs(np.vdot(ev_lab.states[-1], lab_states[-1]))
        assert fidelity >= 1.0 - 1e-8
        assert time.perf_counter() - start < 120.0


def test_criterion_9_eigen_contracts(jt11, capsys):
    with scorecard(capsys, 9, "1000 random matrices reconstruct to 1e-9; "
                              "closed-form eigenvectors match numerics"):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            a = (a + a.T) / 2.0
            w, v = eig_real_symmetric(a)
            assert np.max(np.abs(v @ np.diag(w) @ v.T - a)) < 1e-9
            assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-9

        done = 0
        while done < 1000:
            r = float(rng.uniform(0.05, 4.0))
            theta = float(rng.uniform(-math.pi, math.pi))
            # skip near-degenerate draws, where the numeric eigenvector
            # direction is not a meaningful comparison target
            if jt_point_data(jt11, r, theta).delta_E < 1e-6:
                continue
            _, v = eig_real_symmetric(jt_electronic_hamiltonian(
                jt11, r, theta))
            analytic = jt_eigenvectors(jt11, r, theta)
            for band in (0, 1):
                num = v[:, band]
                err = min(np.linalg.norm(analytic[band] - num),
                          np.linalg.norm(analytic[band] + num))
                assert err < 1e-9
            done += 1
