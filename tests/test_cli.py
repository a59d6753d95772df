"""End-to-end tests of the berryline command line."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from berryline import (
    JTParams,
    OnDegeneracyCircle,
    adiabaticity_ratio,
    classify_mab,
    cli,
    degeneracy_points,
    dynamical_phase,
    holonomy_sign,
    integrate_spin,
    jahnteller,
    jt_eigenvectors,
    node_angles_analytic,
    open_path_berry_phase,
    pseudorotation_trajectory,
    to_lab_frame,
    track_branch,
)
from berryline.cli import (
    CONFIG_MAX_BYTES,
    ConfigError,
    _to_bool,
    _to_interval,
    _to_range,
    build_parser,
    csv_pieces,
    emit_json,
    fmt,
    main,
)
from berryline.jahnteller import (NODAL_MAP_TOL, _circle_thetas, check_nodes,
                                  coupling_field)

from conftest import COUPLING, refined_circle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# formatting helpers


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_round_trips_floats(x):
    assert float(fmt(x)) == x


def test_fmt_is_plain():
    assert fmt(1.0) == "1"
    assert fmt(0.5) == "0.5"
    assert fmt(math.pi) == "3.1415926535897931"


def test_range_parsing():
    assert _to_range("2.5") == (2.5,)
    assert _to_range("1:2:0.5") == (1.0, 1.5, 2.0)
    assert len(_to_range("0.5:3.0:0.25")) == 11
    with pytest.raises(ValueError):
        _to_range("1:2")
    with pytest.raises(ValueError):
        _to_range("1:2:-0.5")


def test_interval_parsing():
    assert _to_interval("1.0:2.5") == (1.0, 2.5)
    with pytest.raises(ValueError):
        _to_interval("1.0")


def test_bool_parsing():
    assert _to_bool("yes") and _to_bool("1") and _to_bool("True")
    assert not _to_bool("off")
    with pytest.raises(ValueError):
        _to_bool("maybe")


def test_csv_pieces_cells():
    # an int, an empty cell, a str and floats, one piece per block of rows
    pieces = csv_pieces(["a", "b", "c"], [[(1, "", 0.5)], [(2, "x", 2.0)]],
                        "%d,%s,%.17g")
    assert list(pieces) == ["a,b,c\n", "1,,0.5\n", "2,x,2\n"]


def test_emit_json_parses_and_round_trips():
    obj = {"x": math.pi, "items": [1.5, None, True], "name": "a\"b",
           "nested": {"k": 2}, "empty": {}}
    parsed = json.loads(emit_json(obj))
    assert parsed["x"] == math.pi
    assert parsed["items"] == [1.5, None, True]
    assert parsed["name"] == 'a"b'
    assert parsed["nested"] == {"k": 2}
    with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
        emit_json({"x": object()})


# ---------------------------------------------------------------------------
# berry


def test_berry_nontrivial_loop(capsys):
    code, out, _ = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["format_version"] == 1
    assert doc["K"] == 1
    assert doc["holonomy_sign"] == -1
    assert doc["mab_class"] == "Nontrivial"
    assert doc["geometric_phase"] == math.pi


def test_berry_trivial_loop(capsys):
    code, out, _ = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "3.0",
                       "--theta-samples", "1024")
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 2
    assert doc["holonomy_sign"] == 1
    assert doc["mab_class"] == "Trivial"
    assert doc["geometric_phase"] == 0.0
    assert len(doc["node_angles"]) == 2


def test_berry_rerun_is_byte_identical(capsys):
    _, first, _ = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "1.2",
                      "--theta-samples", "512")
    _, second, _ = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "1.2",
                       "--theta-samples", "512")
    assert first == second


def test_berry_tracks_each_circle_once(capsys):
    # theta = pi, the node inside 2k/g, is a sample of the 2048 grid at r = 1
    # but not of the half-step grid, which is read first; the phase and the
    # holonomy come from the one branch tracked
    with mock.patch.object(jahnteller, "track_branch",
                           wraps=track_branch) as tracked:
        code, out, _ = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "1")
    assert code == 0
    assert tracked.call_count == 1
    assert json.loads(out)["K"] == 1


def two_track_berry(values):
    """cmd_berry written out on circle_nodes' branch and its refined nodes,
    checked against the closed form after."""
    p = JTParams(values["k"], values["g"])
    branch, _, nodes = refined_circle(p, values["r"],
                                    n_samples=values["theta_samples"],
                                    band=values["band"])
    check_nodes(values["r"], nodes, node_angles_analytic(p, values["r"]))
    phase = open_path_berry_phase(branch.vectors)
    result = {
        "format_version": cli.FORMAT_VERSION,
        "k": values["k"],
        "g": values["g"],
        "r": values["r"],
        "band": values["band"],
        "theta_samples": values["theta_samples"],
        "K": nodes.count,
        "node_angles": list(nodes.angles),
        "geometric_phase": phase.geometric_phase,
        "holonomy_sign": holonomy_sign(branch),
        "mab_class": classify_mab(nodes).value,
    }
    return [(values["out"], emit_json(result))]


def outputs_or_error(command, values):
    try:
        return command(values)
    except Exception as err:
        return type(err), str(err)


@settings(deadline=None, max_examples=150)
@example(k=1.0, g=1.0, r=1.0, n=2048, band=0)   # pi on the j h grid
@example(k=0.0, g=1.0, r=1.0, n=2048, band=1)   # both nodes on it
@example(k=1.0, g=1.0, r=1.0, n=8, band=0)      # a coarse grid
@example(k=1.0, g=1.0, r=1.8, n=6, band=0)      # the half step fails to track
@example(k=1e16, g=1e16, r=1e16, n=16, band=0)  # the node rounds to pi/2
# a probe lands where Im f is exactly 0 and reads an overlap of exactly 0.0
@example(k=0.7255114487347945, g=2.0, r=1.0, n=2048, band=0)
@example(k=1.7e308, g=0.0, r=1.0, n=2048, band=0)  # every gap overflows
@given(k=COUPLING, g=COUPLING, r=st.floats(1e-4, 1e8),
       n=st.integers(3, 4096), band=st.sampled_from([0, 1]))
def test_berry_matches_two_track_sequence(k, g, r, n, band):
    assume(k > 0 or g > 0)
    try:
        node_angles_analytic(JTParams(k, g), r)
    except OnDegeneracyCircle:
        assume(False)
    values = {"k": k, "g": g, "r": r, "theta_samples": n, "band": band,
              "out": "-"}
    assert (outputs_or_error(cli.cmd_berry, values)
            == outputs_or_error(two_track_berry, values))


def test_berry_writes_file(tmp_path, capsys):
    target = tmp_path / "berry.json"
    code, out, _ = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "0.5",
                       "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["K"] == 1


# ---------------------------------------------------------------------------
# nodal-map


def test_nodal_map_single_radius(capsys):
    code, out, _ = run(capsys, "nodal-map", "--k", "1", "--g", "1",
                       "--r", "1.0", "--theta-samples", "512")
    assert code == 0
    nodes_csv, deg_csv = out.split("\n\n")
    lines = nodes_csv.splitlines()
    assert lines[0] == "r,theta_node,source"
    assert len(lines) == 3  # one analytic and one numeric row
    r, theta, source = lines[1].split(",")
    assert source == "analytic" and float(theta) == math.pi
    assert abs(float(lines[2].split(",")[1]) - math.pi) < 1e-6
    deg_lines = deg_csv.splitlines()
    assert deg_lines[0] == "r,theta"
    assert len(deg_lines) == 5
    assert deg_lines[1] == "0,"  # origin has no angle


def test_nodal_map_sweep_skips_degeneracy_circle(capsys):
    code, out, err = run(capsys, "nodal-map", "--k", "1", "--g", "1",
                         "--r", "1.5:2.5:0.5", "--theta-samples", "512")
    assert code == 0
    assert "degeneracy circle" in err
    radii = {line.split(",")[0] for line in out.split("\n\n")[0].splitlines()[1:]}
    assert radii == {"1.5", "2.5"}


def test_nodal_map_on_circle_is_domain_error(capsys):
    code, out, err = run(capsys, "nodal-map", "--k", "1", "--g", "1",
                         "--r", "2.0", "--theta-samples", "512")
    assert code == 3
    assert "OnDegeneracyCircle" in err


@pytest.mark.parametrize("command", ["nodal-map", "berry"])
def test_small_radius_off_a_smaller_degeneracy_circle(capsys, command):
    # 2k/g = 2e-11, so r = 1e-10 lies outside the circle with two nodes;
    # an absolute 1e-10 guard took it for a radius on the circle
    code, out, err = run(capsys, command, "--k", "1e3", "--g", "1e14",
                         "--r", "1e-10")
    assert (code, err) == (0, "")
    if command == "berry":
        assert json.loads(out)["K"] == 2
    else:
        rows = out.split("\n\n")[0].splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["analytic"] * 2 + [
            "numeric"] * 2


def test_nodal_map_pure_linear(capsys):
    code, out, _ = run(capsys, "nodal-map", "--k", "1", "--g", "0",
                       "--r", "0.5:1.5:0.5", "--theta-samples", "512")
    assert code == 0
    for line in out.split("\n\n")[0].splitlines()[1:]:
        assert abs(float(line.split(",")[1]) - math.pi) < 1e-6


def test_nodal_map_file_outputs(tmp_path, capsys):
    nodes = tmp_path / "nodes.csv"
    degs = tmp_path / "degs.csv"
    code, out, _ = run(capsys, "nodal-map", "--k", "1", "--g", "1",
                       "--r", "1.0", "--theta-samples", "512",
                       "--nodes-out", str(nodes),
                       "--degeneracies-out", str(degs))
    assert code == 0 and out == ""
    assert nodes.read_text().startswith("r,theta_node,source\n")
    assert degs.read_text().startswith("r,theta\n")


# ---------------------------------------------------------------------------
# spectrum


def parse_spectrum(out):
    lines = out.splitlines()
    assert lines[0].startswith("# ")
    header = json.loads(lines[0][2:])
    assert lines[1] == "index,energy,degeneracy_flag,parity"
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_spectrum_flat_odd(capsys):
    code, out, _ = run(capsys, "spectrum", "--flat", "--parity", "odd",
                       "--grid", "256", "--levels", "4")
    assert code == 0
    header, rows = parse_spectrum(out)
    assert header["kind"] == "flat"
    assert header["flux_parity"] == "odd"
    assert header["boundary"] == "antiperiodic"
    assert len(rows) == 4
    assert abs(float(rows[0][1]) - 0.125) < 1e-3
    assert rows[0][2] == "1" and rows[0][3] == "odd"


def test_spectrum_flat_requires_parity(capsys):
    code, _, err = run(capsys, "spectrum", "--flat", "--grid", "256")
    assert code == 2
    assert "parity" in err


def test_spectrum_model_requires_couplings(capsys):
    code, _, err = run(capsys, "spectrum", "--k", "1", "--grid", "256")
    assert code == 2


def test_spectrum_model_derives_parity(capsys):
    # g = 0 lower band: constant potential -1/2 on an antiperiodic ring
    code, out, _ = run(capsys, "spectrum", "--k", "1", "--g", "0",
                       "--grid", "256", "--levels", "4")
    assert code == 0
    header, rows = parse_spectrum(out)
    assert header["kind"] == "jahnteller"
    assert header["flux_parity"] == "odd"
    _, flat_out, _ = run(capsys, "spectrum", "--flat", "--parity", "odd",
                         "--grid", "256", "--levels", "4")
    _, flat_rows = parse_spectrum(flat_out)
    for row, flat_row in zip(rows, flat_rows):
        # the constant shift commutes only up to diagonalization roundoff
        assert float(row[1]) == pytest.approx(float(flat_row[1]) - 0.5,
                                              abs=1e-10)


def test_spectrum_grid_alias(capsys):
    _, a, _ = run(capsys, "spectrum", "--flat", "--parity", "even",
                  "--grid", "256")
    _, b, _ = run(capsys, "spectrum", "--flat", "--parity", "even",
                  "--M", "256")
    assert a == b


def test_spectrum_barrier_parity_invariance(capsys):
    outs = []
    for parity in ("even", "odd"):
        code, out, _ = run(capsys, "spectrum", "--flat", "--parity", parity,
                           "--grid", "512", "--levels", "6",
                           "--barrier", "1.0:2.0")
        assert code == 0
        header, rows = parse_spectrum(out)
        assert header["boundary"] == "dirichlet-barrier"
        outs.append([row[1] for row in rows])
    assert outs[0] == outs[1]  # energy text identical character for character


def test_spectrum_model_parity_override(capsys):
    # --parity overrides the seam the model's holonomy would set
    args = ("spectrum", "--k", "1", "--g", "1", "--r0", "1", "--grid", "256",
            "--levels", "4")
    code, derived, _ = run(capsys, *args)
    assert code == 0
    assert parse_spectrum(derived)[0]["flux_parity"] == "odd"
    code, out, _ = run(capsys, *args, "--parity", "even")
    assert code == 0
    header, rows = parse_spectrum(out)
    assert (header["flux_parity"], header["boundary"]) == ("even", "periodic")
    assert [row[3] for row in rows] == ["even"] * 4
    assert out != derived


def test_spectrum_model_parity_override_under_barrier(capsys):
    # a cut ring makes the overridden seam pure gauge: equal level bytes
    levels = []
    for parity in ("even", "odd"):
        code, out, _ = run(capsys, "spectrum", "--k", "1", "--g", "1",
                           "--r0", "1", "--grid", "256", "--levels", "4",
                           "--barrier", "0.5:1.2", "--parity", parity)
        assert code == 0
        header, rows = parse_spectrum(out)
        assert (header["flux_parity"], header["boundary"]) == (
            parity, "dirichlet-barrier")
        levels.append([row[1] for row in rows])
    assert levels[0] == levels[1]


# ---------------------------------------------------------------------------
# locate-ci


LOCATE_ARGS = ("locate-ci", "--k", "1", "--g", "1",
               "--x-min", "-0.6", "--x-max", "0.5",
               "--y-min", "-0.55", "--y-max", "0.5",
               "--spatial-tol", "1e-2", "--samples-per-edge", "16",
               "--min-depth", "2")


def test_locate_ci_origin(capsys):
    code, out, _ = run(capsys, *LOCATE_ARGS)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 1
    x, y = doc["points"][0]
    assert math.hypot(x, y) < 1e-6
    assert doc["gaps"][0] <= 1e-8
    assert doc["cells_evaluated"] == sum(doc["depth_histogram"].values())
    assert all(isinstance(k, str) for k in doc["depth_histogram"])


def test_locate_ci_rerun_is_byte_identical(capsys):
    _, a, _ = run(capsys, *LOCATE_ARGS)
    _, b, _ = run(capsys, *LOCATE_ARGS)
    assert a == b


def found_degeneracies(doc, k, g, tol):
    """Each known degeneracy of (k, g) has exactly one found point within tol."""
    want = [d.cartesian() for d in degeneracy_points(JTParams(k, g))]
    assert len(doc["points"]) == len(want)
    for wx, wy in want:
        assert sum(math.hypot(x - wx, y - wy) < tol
                   for x, y in doc["points"]) == 1


def test_locate_ci_readme_gaps_are_positive(capsys):
    # a gap of exactly zero prints as 0, never -0
    code, out, err = run(capsys, "locate-ci", "--k", "1", "--g", "1",
                         "--x-min", "-3", "--x-max", "3", "--y-min", "-3",
                         "--y-max", "3")
    assert (code, err) == (0, "")
    gaps = json.loads(out)["gaps"]
    assert len(gaps) == 4
    assert all(math.copysign(1.0, gap) == 1.0 and gap <= 2.5e-9 for gap in gaps)


def test_locate_ci_parity_lost_on_split(capsys):
    # a cone 8.3e-7 above a cell near (1.05, 1.82) once made the cell's
    # sign, and then its parity on the split, come out wrong
    code, out, err = run(capsys, "locate-ci", "--k", "0.869859",
                         "--g", "0.827127", "--x-min", "-3", "--x-max", "3",
                         "--y-min", "-3", "--y-max", "3")
    assert (code, err) == (0, "")
    found_degeneracies(json.loads(out), 0.869859, 0.827127, 1e-3)


def test_locate_ci_one_sample_per_edge(capsys):
    # a side of one step still resolves, by re-sampling that step alone
    code, out, err = run(capsys, "locate-ci", "--k", "1", "--g", "1",
                         "--samples-per-edge", "1")
    assert (code, err) == (0, "")
    found_degeneracies(json.loads(out), 1.0, 1.0, 1e-3)


def test_locate_ci_even_winding_cone_unreported(capsys):
    # the winding-2 cone of pure quadratic coupling reads +1: no point
    code, out, err = run(capsys, "locate-ci", "--k", "0", "--g", "1")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["points"] == [] and doc["gaps"] == []


def test_locate_ci_float_resolution_exits_three(capsys):
    # cells shrink to float resolution before reaching 1e-300
    code, out, err = run(capsys, "locate-ci", "--k", "1", "--g", "1",
                         "--spatial-tol", "1e-300", "--gap-tol", "1e-300",
                         "--max-depth", "100")
    assert code == 3
    assert out == ""
    assert err.startswith("error: MaxDepthExceeded: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# spin


SPIN_ARGS = ("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "200",
             "--steps", "16384", "--store-stride", "256")


def test_spin_outputs(capsys):
    code, out, _ = run(capsys, *SPIN_ARGS)
    assert code == 0
    series, summary_text = out.split("\n\n")
    lines = series.splitlines()
    assert lines[0] == "t,sigma_x,sigma_y,sigma_z,norm"
    assert len(lines) == 2 + 16384 // 256  # header + initial + recorded
    assert float(lines[1].split(",")[0]) == 0.0
    doc = json.loads(summary_text)
    for key in ("total_phase", "dynamical_phase", "geometric_phase",
                "adiabaticity_ratio", "final_norm", "ac_loop_phase"):
        assert key in doc
    assert doc["final_norm"] == pytest.approx(1.0, abs=1e-12)
    assert doc["ac_loop_phase"] == pytest.approx(math.pi, abs=1e-9)
    assert doc["frame"] == "comoving"


def test_spin_fractional_revolutions_has_no_loop_phase(capsys):
    code, out, _ = run(capsys, *SPIN_ARGS, "--revolutions", "0.5")
    assert code == 0
    doc = json.loads(out.split("\n\n")[1])
    assert doc["ac_loop_phase"] is None


def test_spin_frame_and_initial_validation(capsys):
    code, _, err = run(capsys, *SPIN_ARGS, "--frame", "rotating")
    assert code == 2
    code, _, err = run(capsys, *SPIN_ARGS, "--initial", "middle")
    assert code == 2


def test_spin_domain_error_exit_code(capsys):
    # 16 steps cannot resolve the gap frequency over this period
    code, _, err = run(capsys, "spin", "--k", "1", "--g", "1", "--r", "1",
                       "--period", "200", "--steps", "16",
                       "--store-stride", "1")
    assert code == 3
    assert "StepTooLarge" in err


@pytest.mark.parametrize("steps, revolutions", [("16384", "1"),
                                                ("12345", "1.5")])
@pytest.mark.parametrize("initial", ["lower", "upper"])
@pytest.mark.parametrize("frame", ["comoving", "lab"])
def test_spin_summary_matches_library_bitwise(capsys, frame, initial, steps,
                                              revolutions):
    # the summary's phase terms equal, bit for bit, those of the library
    # functions called one by one; 12345 steps need padding to whole blocks
    # of the default store stride 64
    code, out, _ = run(capsys, "spin", "--k", "1", "--g", "1", "--r", "1",
                       "--period", "200", "--steps", steps,
                       "--revolutions", revolutions, "--frame", frame,
                       "--initial", initial)
    assert code == 0
    doc = json.loads(out.split("\n\n")[1])
    p = JTParams(1.0, 1.0)
    traj = pseudorotation_trajectory(1.0, 200.0, int(steps),
                                     revolutions=float(revolutions))
    band = 0 if initial == "lower" else 1
    if frame == "comoving":
        psi0 = np.eye(2, dtype=complex)[1 - band]
    else:
        psi0 = jt_eigenvectors(p, 1.0, 0.0)[band].astype(complex)
    ev = integrate_spin(p, traj, psi0, frame=frame, store_stride=64)
    lab = to_lab_frame(ev) if frame == "comoving" else ev.states
    assert doc["total_phase"] == float(np.angle(np.vdot(lab[0], lab[-1])))
    assert doc["dynamical_phase"] == dynamical_phase(p, traj, band=band)
    assert doc["adiabaticity_ratio"] == adiabaticity_ratio(p, traj)


def test_spin_evaluates_the_coupling_twice(capsys, monkeypatch):
    # across the whole command, each of the 16385 trajectory samples and each
    # of the 16384 step midpoints is evaluated exactly once, in chunks of
    # steps; only the 4096-segment loop of ac_loop_phase is left out.  Every
    # caller reaches the coupling through the one model polynomial,
    # jahnteller.model_polynomial, so the count is taken where that helper
    # reads the points: the trajectory's own, bit for bit, which lie within
    # the bound of tests/test_comoving.py of r cos theta and r sin theta
    points, in_loop, loops = [], False, 0
    original, original_loop = jahnteller.model_polynomial, cli.ac_loop_phase

    def counting(p, x, y):
        if not in_loop:
            points.append(np.broadcast_arrays(x, y))
        return original(p, x, y)

    def loop_phase(*args, **kwargs):
        nonlocal in_loop, loops
        in_loop, loops = True, loops + 1
        try:
            return original_loop(*args, **kwargs)
        finally:
            in_loop = False

    monkeypatch.setattr(jahnteller, "model_polynomial", counting)
    monkeypatch.setattr(cli, "ac_loop_phase", loop_phase)
    code, _, _ = run(capsys, *SPIN_ARGS)
    assert code == 0
    assert loops == 1
    assert sum(x.size for x, _ in points) == 16385 + 16384
    traj = pseudorotation_trajectory(1.0, 200.0, 16384)
    samples = traj.theta_of_t
    x, y, x_mid, y_mid = traj.plane(0, traj.r_of_t, samples)
    thetas = np.concatenate((samples, 0.5 * (samples[:-1] + samples[1:])))
    bound = 3.0 * np.finfo(float).eps * (1.0 + 2.0 * math.pi)
    for got, want, exact in zip(zip(*points), ((x, x_mid), (y, y_mid)),
                                (np.cos(thetas), np.sin(thetas))):
        want = np.concatenate(want)
        assert np.array_equal(np.sort(np.concatenate(got).ravel()),
                              np.sort(want))
        assert np.max(np.abs(want - exact)) <= bound


@pytest.mark.parametrize("steps, base, strides", [
    ("256", "256", ["512", "65536", str(1 << 40)]),
    ("1000", "1024", ["4096", str(1 << 40)]),
])
def test_spin_store_stride_above_the_step_count(capsys, steps, base, strides):
    # a stride at or above the step count records the first and the last
    # state; the steps are padded to the next power of two, not to the
    # stride, so 2^40 neither allocates 16 TiB nor changes a byte
    argv = ("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "1",
            "--steps", steps, "--store-stride")
    expected = run(capsys, *argv, base)
    assert expected[0] == 0
    for stride in strides:
        assert run(capsys, *argv, stride) == expected


def test_spin_memory_grows_by_the_record_arrays(tmp_path):
    # at stride 1 the command keeps one (records, 2) complex array of
    # states and their times and angles, 48 B a record, and formats and
    # writes the CSV a block of records at a time; so the traced peak,
    # writing included, grows by at most 52 B a record (it grew by about
    # 55 B while an array of the recorded indices was kept as well, and by
    # about 480 B when each state was an ndarray of its own and the CSV one
    # string)
    def peak(steps):
        argv = ["spin", "--k", "1", "--g", "1", "--r", "1",
                "--period", str(steps / 64), "--steps", str(steps),
                "--store-stride", "1",
                "--series-out", str(tmp_path / "series.csv"),
                "--summary-out", str(tmp_path / "summary.json")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1 << 14), peak(1 << 17)
    assert (large - small) / ((1 << 17) - (1 << 14)) <= 52


# ---------------------------------------------------------------------------
# config files and environment


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# loop settings\nformat_version = 1\nk = 1\ng = 1\n"
                   "r = 0.5\ntheta-samples = 512\n")
    code, out, _ = run(capsys, "berry", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["K"] == 1


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1\ng = 1\nr = 0.5\ntheta-samples = 512\n")
    code, out, _ = run(capsys, "berry", "--config", str(cfg), "--r", "3.0")
    assert code == 0
    assert json.loads(out)["K"] == 2


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1\ng = 1\nr = 0.5\nwavelength = 3\n")
    code, _, err = run(capsys, "berry", "--config", str(cfg))
    assert code == 2
    assert "wavelength" in err


def test_config_bad_format_version(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format_version = 2\nk = 1\ng = 1\nr = 0.5\n")
    code, _, err = run(capsys, "berry", "--config", str(cfg))
    assert code == 2
    assert "format_version" in err


def test_config_bad_word_value(tmp_path, capsys):
    # the converter that refuses a flag's value refuses the file's too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1\ng = 1\nr0 = 1\ngrid = 64\nlevels = 2\nparity = foo\n")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: bad value for parity: must be even or odd, got 'foo'\n"


def test_config_missing_file(capsys):
    code, _, err = run(capsys, "berry", "--config", "/nonexistent/x.cfg")
    assert code == 2


def test_config_not_utf8(tmp_path, capsys):
    # a byte that is no UTF-8 is a config problem, not a traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"k=1\ng=1\nr=\xff1\n")
    code, out, err = run(capsys, "berry", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config {cfg}: ")


def test_config_over_the_cap(tmp_path, capsys):
    # valid keys after CONFIG_MAX_BYTES of comments: refused unread
    keys = b"k=1\ng=1\nr=0.5\n"
    filler = CONFIG_MAX_BYTES + 1 - len(keys)
    comment = b"#" * 1023 + b"\n"
    body = comment * (filler // len(comment)) + b"#" * (filler % len(comment))
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(body[:-1] + b"\n" + keys)
    assert cfg.stat().st_size == CONFIG_MAX_BYTES + 1
    code, out, err = run(capsys, "berry", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config {cfg}: ")
    # the same keys under the cap are read
    cfg.write_bytes(keys)
    assert run(capsys, "berry", "--config", str(cfg))[0] == 0


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_config_endless_file(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "berry", "--config", "/dev/zero")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read config /dev/zero: ")


def test_config_newlines_split_as_in_text_mode(tmp_path, capsys):
    # \r\n and a lone \r end lines; line numbers count them
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"k=1\r\ng=1\rr=0.5\n\rjust a line\n")
    code, _, err = run(capsys, "berry", "--config", str(cfg))
    assert code == 2
    assert err == f"error: {cfg}:5: expected key=value\n"


def test_config_nul_byte(tmp_path, capsys):
    # a NUL in a destination used to end in a ValueError traceback
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"out=a\0b\n")
    code, out, err = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "1",
                         "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:1: NUL byte\n"
    assert not list(tmp_path.glob("a*"))


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1\njust a line\n")
    code, _, err = run(capsys, "berry", "--config", str(cfg))
    assert code == 2


def test_missing_required_setting(capsys):
    code, _, err = run(capsys, "berry", "--k", "1", "--g", "1")
    assert code == 2
    assert "--r" in err


def test_bad_numeric_flag(capsys):
    code, _, err = run(capsys, "berry", "--k", "one", "--g", "1", "--r", "1")
    assert code == 2


def test_parser_is_built_once(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 1\ng = 1\nr = 3\n")
    first = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "1")
    second = run(capsys, "berry", "--config", str(cfg))
    third = run(capsys, "berry", "--k", "1", "--g", "1", "--r", "1")
    assert first[0] == second[0] == 0
    assert first == third
    assert json.loads(second[1])["r"] == 3
    assert json.loads(first[1])["r"] == 1


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_sweep_matches_single_radius_runs(capsys):
    # a swept nodal-map is the single-radius runs put together: node rows
    # in radius order under one header, one degeneracy table, and the
    # skipped-radius note for r = 2k/g
    common = ("nodal-map", "--k", "1", "--g", "1", "--theta-samples", "512")
    code, swept, swept_err = run(capsys, *common, "--r", "0.5:3.0:0.5")
    assert code == 0
    rows, notes, degeneracies = [], [], None
    for r in ("0.5", "1", "1.5", "2", "2.5", "3"):
        code, out, err = run(capsys, *common, "--r", r)
        assert code == (3 if r == "2" else 0)
        notes += [line for line in err.splitlines(keepends=True)
                  if line.startswith("note: ")]
        if out:
            nodes, _, degeneracies = out.partition("\n\n")
            rows += [line + "\n" for line in nodes.split("\n")[1:]]
    assert swept == ("r,theta_node,source\n" + "".join(rows) + "\n"
                     + degeneracies)
    assert swept_err == "".join(notes)
    assert len(notes) == 1


@pytest.mark.parametrize("argv, message", [
    (("berry", "--k", "-1", "--g", "1", "--r", "1"), "bad value for k:"),
    (("berry", "--k", "1", "--g", "1", "--r", "1", "--band", "2"),
     "bad value for band:"),
    (("spectrum", "--flat", "--parity", "odd", "--levels", "0"),
     "bad value for levels:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "20000",
      "--store-stride", "3"), "bad value for store-stride:"),
    (("spectrum", "--flat", "--parity", "odd", "--barrier", "2.0:1.0"),
     "bad value for barrier:"),
    (("berry", "--k", "0", "--g", "0", "--r", "1"), "--k and --g"),
    (("nodal-map", "--k", "1", "--g", "1", "--r", "0:1:0.5"),
     "bad value for r:"),
    (("spectrum", "--k", "1", "--g", "1", "--r0", "0"), "bad value for r0:"),
    (("locate-ci", "--k", "1", "--g", "1", "--x-min", "1", "--x-max", "0"),
     "--x-min < --x-max"),
    (("spectrum", "--flat", "--parity", "odd", "--levels", "5000",
      "--grid", "64"), "bad value for levels:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "inf",
      "--steps", "64"), "bad value for period:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "20000",
      "--steps", "64", "--theta0", "nan"), "bad value for theta0:"),
    (("locate-ci", "--k", "1", "--g", "1", "--samples-per-edge", "8",
      "--gap-tol", "nan"), "bad value for gap-tol:"),
    (("locate-ci", "--k", "1", "--g", "1", "--spatial-tol", "0"),
     "bad value for spatial-tol:"),
    (("locate-ci", "--k", "1", "--g", "1", "--x-max", "inf"),
     "bad value for x-max:"),
    (("nodal-map", "--k", "1", "--g", "1", "--r", "0.5:inf:0.5"),
     "bad value for r:"),
    (("nodal-map", "--k", "1", "--g", "1", "--r", "0.5:1e308:1e-300"),
     "bad value for r:"),
    (("nodal-map", "--k", "1", "--g", "1", "--r", "0.5:1.5:1e-9"),
     "bad value for r:"),
    (("locate-ci", "--k", "1", "--g", "1", "--min-depth", "9"),
     "bad value for min-depth:"),
    (("locate-ci", "--k", "1", "--g", "1", "--min-depth", "-1"),
     "bad value for min-depth:"),
    (("locate-ci", "--k", "1", "--g", "1", "--samples-per-edge", "4097"),
     "bad value for samples-per-edge:"),
    (("berry", "--k", "1", "--g", "1", "--r", "1", "--theta-samples",
      "2097153"), "bad value for theta-samples:"),
    (("nodal-map", "--k", "1", "--g", "1", "--r", "1", "--theta-samples",
      "2097153"), "bad value for theta-samples:"),
    (("spectrum", "--flat", "--parity", "odd", "--grid", "4097"),
     "bad value for grid:"),
    (("spectrum", "--flat", "--parity", "odd", "--M", "4097"),
     "bad value for grid:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "20000",
      "--steps", "2097153"), "bad value for steps:"),
    (("spectrum", "--flat", "--parity", "odd", "--r0", "1e-170", "--grid",
      "64", "--levels", "2"), "bad value for r0:"),
    (("spectrum", "--flat", "--parity", "odd", "--r0", "1e160", "--grid",
      "64", "--levels", "2"), "bad value for r0:"),
    (("spectrum", "--flat", "--parity", "odd", "--grid", "63"),
     "bad value for grid:"),
    # drives whose sampled times or loop angles collapse or overflow
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "1e-300",
      "--steps", "64", "--revolutions", "1e-300"), "cannot sample the drive:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "1", "--steps",
      "64", "--theta0", "1e16"), "cannot sample the drive:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "1e300",
      "--steps", "64", "--revolutions", "1e300"), "cannot sample the drive:"),
    # quadtree depth limits below 0 or below the minimum depth
    (("locate-ci", "--k", "1", "--g", "1", "--max-depth", "-3"),
     "bad value for max-depth:"),
    (("locate-ci", "--k", "1", "--g", "1", "--min-depth", "4",
      "--max-depth", "3"), "bad value for max-depth:"),
    # search windows whose cells' widths or centres would overflow, and a
    # confirmation box that would leave the window limit
    (("locate-ci", "--k", "1", "--g", "1", "--x-min", "-1.7e308", "--x-max",
      "1.7e308", "--samples-per-edge", "1", "--min-depth", "0"),
     "bad search window:"),
    (("locate-ci", "--k", "1", "--g", "1", "--x-min", "1e308", "--x-max",
      "1.7e308", "--y-min", "1e308", "--y-max", "1.7e308",
      "--samples-per-edge", "1", "--min-depth", "0"), "bad search window:"),
    (("locate-ci", "--k", "1", "--g", "1", "--x-min", "2e307", "--x-max",
      "1.7e308", "--y-min", "2e307", "--y-max", "1.7e308"),
     "bad search window:"),
    (("locate-ci", "--k", "1", "--g", "1", "--spatial-tol", "1e308"),
     "bad value for spatial-tol:"),
    # word options are refused by their converters in every mode, and a
    # sweep whose stop lies before its start is empty
    (("spectrum", "--flat", "--parity", "foo", "--grid", "64"),
     "bad value for parity:"),
    (("spectrum", "--k", "1", "--g", "1", "--r0", "1", "--grid", "64",
      "--levels", "2", "--parity", "foo"), "bad value for parity:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "200",
      "--steps", "64", "--frame", "rotating"), "bad value for frame:"),
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "200",
      "--steps", "64", "--initial", "middle"), "bad value for initial:"),
    (("nodal-map", "--k", "1", "--g", "1", "--r", "3:1:0.5"),
     "bad value for r: empty sweep"),
    # a loop of radius 0 is the origin, a point, as in nodal-map and spin
    (("berry", "--k", "1", "--g", "1", "--r", "0"), "bad value for r:"),
    # theta0 absorbs every angle step: the half turn stands still
    (("spin", "--k", "1", "--g", "1", "--r", "1", "--period", "100",
      "--steps", "65536", "--theta0", "1e17", "--revolutions", "0.5"),
     "cannot sample the drive: the angle does not advance at step 0:"),
])
def test_bad_option_value_exits_two(capsys, argv, message):
    # out-of-range values are usage errors, caught where options are read
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ("berry", "--k", "1e7", "--g", "1", "--r", "1"),
    ("nodal-map", "--k", "1e8", "--g", "1e8", "--r", "1"),
    ("spectrum", "--k", "1e8", "--g", "1", "--r0", "1", "--grid", "64",
     "--levels", "2"),
    ("spectrum", "--k", "1e300", "--g", "1", "--r0", "1", "--grid", "64",
     "--levels", "2"),
    ("berry", "--k", "1e300", "--g", "1e300", "--r", "1"),
    ("berry", "--k", "1.7e308", "--g", "0", "--r", "1"),
    ("berry", "--k", "1e308", "--g", "1e308", "--r", "1"),
])
def test_large_couplings_pass_the_residual_check(capsys, argv):
    # the residual bound scales with the matrix entries, so an eigensolve
    # accurate to eps * ||H|| passes at ||H|| ~ 1e8, and the residual is
    # formed on H / max |H_ij|, so its squares stay finite at 1e300; each
    # circle has r = 1, inside 2k/g, where the lower band's one node sits at
    # pi.  Symmetrizing keeps entries near the float range finite, and a gap
    # past the range is inf without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 0, err
    if argv[0] == "berry":
        assert json.loads(out)["node_angles"] == [pytest.approx(math.pi)]
    elif argv[0] == "nodal-map":
        numeric = [line for line in out.splitlines() if line.endswith("numeric")]
        assert len(numeric) == 1
        assert float(numeric[0].split(",")[1]) == pytest.approx(math.pi)
    else:
        header, rows = parse_spectrum(out)
        assert header["flux_parity"] == "odd"
        assert all(math.isfinite(float(row[1])) for row in rows)


@pytest.mark.parametrize("argv", [
    # two samples alias the pure quadratic model's two nodes away
    ("nodal-map", "--k", "0", "--g", "7", "--r", "0.123", "--theta-samples",
     "2"),
])
def test_nodal_map_disagreement_exits_three(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: NodeMismatch: r=") and err.count("\n") == 1


def test_berry_checks_nodes_against_the_closed_form(capsys):
    # the aliased grid above: berry read K = 0 and exited 0 without the check
    code, out, err = run(capsys, "berry", "--k", "0", "--g", "7", "--r",
                         "0.123", "--theta-samples", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("error: NodeMismatch: r=") and err.count("\n") == 1


# k = 2 cos(theta_p) to the last bit, with g = 2 and r = 1: theta_p, the
# first bisection probe of the bracket that holds the first node on the
# default half-step grid, is where k/2 and (g/2) x are the same float at
# x = cos(theta_p), so Im f = 2 y (k/2 - (g/2) x) is exactly 0 there
ZERO_PROBE_K, ZERO_PROBE_THETA = 0.7255114487347945, 1.1995729761265714


@pytest.mark.parametrize("command", ["berry", "nodal-map"])
def test_exact_zero_probe_ends_the_bisection(capsys, command):
    # where Im f = 0 and Re f < 0 the closed-form eigenvectors are the axes
    # exactly, the lower one (-1, 0) against the anchor's (0, 1) at theta =
    # 0, so the probe's overlap reads 0.0 and the bisection stops on it
    f = coupling_field(JTParams(ZERO_PROBE_K, 2.0), 1.0, ZERO_PROBE_THETA)[0]
    assert f.imag == 0.0 and f.real < 0.0
    grid = _circle_thetas(2048, 0.5)
    j = int(np.searchsorted(grid, ZERO_PROBE_THETA))
    assert ZERO_PROBE_THETA == 0.5 * (grid[j - 1] + grid[j])
    code, out, err = run(capsys, command, "--k", repr(ZERO_PROBE_K),
                         "--g", "2", "--r", "1")
    assert code == 0, err
    if command == "berry":
        angles = json.loads(out)["node_angles"]
    else:
        angles = [float(line.split(",")[1]) for line in out.splitlines()
                  if line.endswith("numeric")]
    node = math.acos(0.5 * ZERO_PROBE_K)
    assert angles == [pytest.approx(node, abs=NODAL_MAP_TOL),
                      pytest.approx(2.0 * math.pi - node, abs=NODAL_MAP_TOL)]
    # the first bracket ends on that probe, the second at NODE_BISECTION_TOL;
    # a batched round's unread probes leave both where one probe per step
    # left them
    assert angles == [ZERO_PROBE_THETA, 5.0836123310987311]
    assert abs(angles[1] - (2.0 * math.pi - node)) > 1e-12


@pytest.mark.parametrize("argv, option, value", [
    (SPIN_ARGS, "--theta0", "-1e-3"),
    (("locate-ci", "--k", "1", "--g", "1", "--samples-per-edge", "2",
      "--min-depth", "2"), "--x-min", "-1e3"),
])
def test_negative_value_in_exponent_form(capsys, argv, option, value):
    # argparse would take -1e-3 for an option name; both forms read the value
    attached = run(capsys, *argv, f"{option}={value}")
    assert attached[0] == 0, attached[2]
    assert run(capsys, *argv, option, value) == attached
    assert run(capsys, *argv)[1] != attached[1]


# ---------------------------------------------------------------------------
# output destinations


# a short call of each command, to which a test adds output options
OUTPUT_ARGS = {
    "berry": ("berry", "--k", "1", "--g", "1", "--r", "0.5",
              "--theta-samples", "512"),
    "spectrum": ("spectrum", "--flat", "--parity", "odd", "--grid", "64",
                 "--levels", "2"),
    "locate-ci": ("locate-ci", "--k", "1", "--g", "1", "--samples-per-edge",
                  "2", "--x-min", "-0.5", "--x-max", "0.6", "--y-min", "-0.5",
                  "--y-max", "0.55"),
    "nodal-map": ("nodal-map", "--k", "1", "--g", "1", "--r", "1",
                  "--theta-samples", "512"),
    "spin": SPIN_ARGS,
}


@pytest.mark.parametrize("kind", ["missing-directory", "directory"])
@pytest.mark.parametrize("command, option", [
    ("berry", "--out"), ("spectrum", "--out"), ("locate-ci", "--out"),
    ("nodal-map", "--nodes-out"), ("nodal-map", "--degeneracies-out"),
    ("spin", "--series-out"), ("spin", "--summary-out"),
])
def test_unwritable_destination_exits_two(tmp_path, capsys, command, option,
                                          kind):
    dest = tmp_path
    if kind == "missing-directory":
        dest = tmp_path / "missing" / "out"
    code, _, err = run(capsys, *OUTPUT_ARGS[command], option, str(dest))
    assert code == 2
    assert err.startswith(f"error: cannot write {dest}: ")
    assert err.count("\n") == 1


def test_stdout_closed_by_its_reader_exits_two():
    # a reader that closes the pipe after a few bytes, as `| head -c 10`
    # does: one error line and exit 2, as for any unwritable destination
    root = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))
    argv = ["spin", "--k", "1", "--g", "1", "--r", "1", "--period", "20000",
            "--steps", "1048576"]
    with subprocess.Popen([sys.executable, "-m", "berryline", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(10) == b"t,sigma_x,"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 2
    assert err == "error: cannot write -: Broken pipe\n"


@pytest.mark.parametrize("command, option, index", [
    ("nodal-map", "--nodes-out", 0), ("nodal-map", "--degeneracies-out", 1),
    ("spin", "--series-out", 0), ("spin", "--summary-out", 1),
])
def test_stdout_and_file_destinations(tmp_path, capsys, command, option, index):
    # both outputs on stdout are joined by one blank line; with one of them
    # in a file, stdout holds the other alone, with nothing added
    code, joined, _ = run(capsys, *OUTPUT_ARGS[command])
    assert code == 0
    first, second = joined.split("\n\n")
    texts = [first + "\n", second]
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, *OUTPUT_ARGS[command], option, str(target))
    assert code == 0
    assert target.read_text() == texts[index]
    assert out == texts[1 - index]


@pytest.mark.parametrize("argv, options, paths", [
    (("nodal-map", "--k", "1", "--g", "1", "--r", "1"),
     ("--nodes-out", "--degeneracies-out"), ("same.csv", "same.csv")),
    (SPIN_ARGS, ("--series-out", "--summary-out"), ("s.out", "./s.out")),
])
def test_one_file_named_twice_holds_both_outputs(tmp_path, monkeypatch, capsys,
                                                 argv, options, paths):
    # two outputs that name one file, however its path is spelled, are
    # joined there by one blank line, as they are on stdout
    code, joined, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv, options[0], paths[0], options[1],
                       paths[1])
    assert (code, out) == (0, "")
    assert (tmp_path / paths[0]).read_text() == joined


def test_dev_null_named_twice(capsys):
    assert run(capsys, *OUTPUT_ARGS["nodal-map"], "--nodes-out", "/dev/null",
               "--degeneracies-out", "/dev/null") == (0, "", "")


# ---------------------------------------------------------------------------
# inputs past the float range


@pytest.mark.parametrize("argv", [
    ("spin", "--k", "1", "--g", "1", "--r", "1e200", "--period", "1",
     "--steps", "64"),
    ("spin", "--k", "1", "--g", "1", "--r", "1e160", "--period", "1e300",
     "--steps", "64"),
])
def test_non_finite_coupling_exits_three(capsys, argv):
    # r^2 overflows, so f is not finite from the first sample on; the
    # overflow is reported once, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: NonFinite: coupling at point 0 ")
    assert err.count("\n") == 1


def test_locate_ci_huge_couplings_do_not_warn(capsys):
    # the squared gaps of the polish's quadratic model overflow at gaps past
    # 1e154; the model is skipped there, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "locate-ci", "--k", "1e300",
                             "--g", "1e300", "--samples-per-edge", "2")
    assert (code, err) == (0, "")
    found_degeneracies(json.loads(out), 1e300, 1e300, 1e-3)


def test_locate_ci_cell_limit_exits_three(capsys):
    # at k = g = 1e-9 the whole window has gaps below gap_tol 1e-8, so no
    # cell is pruned and the levels would grow 4x without end
    code, out, err = run(capsys, "locate-ci", "--k", "1e-9", "--g", "1e-9",
                         "--samples-per-edge", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: CellLimitExceeded: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the exit-code contract over edge values


@pytest.mark.parametrize("argv, message", [
    # polar couplings past the float range
    ("berry --k 1 --g 1 --r 1e300", "NonFinite: "),
    ("nodal-map --k 1e308 --g 1 --r 2", "NonFinite: "),
    ("spectrum --k 1.7e308 --g 1 --r0 1e150 --grid 64 --levels 2",
     "NonFinite: "),
    # a drive sample on the outer intersection (2, pi)
    ("spin --k 1 --g 1 --r 2 --period 20000 --steps 65536",
     "AlphaUndefined: gap vanishes at point 32768 (r=2.0, "),
    # time steps whose products underflow in the angular velocity, and
    # steps too long for the gap frequency
    ("spin --k 1 --g 1 --r 1 --period 1 --steps 64 --revolutions 1e-300",
     "NonFinite: adiabaticity ratio nan "),
    ("spin --k 1 --g 1 --r 1 --period 1e300 --steps 64", "StepTooLarge: "),
    # resolved steps whose field, the drive rate 6e154, squares past the
    # float range
    ("spin --k 1 --g 0 --r 1 --period 1e-154 --steps 4096",
     "NonFinite: spin state is not finite"),
])
def test_float_range_inputs_exit_three_in_one_line(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv.split())
    assert (code, out) == (3, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


# Values each option accepts, then values it refuses; a call draws a refused
# value for an option one time in eight, so that most calls get past the
# option checks and reach the library.
_FLOATS = (["0", "5e-324", "1e-320", "2e-308", "1e-300", "1e-16", "1e-9",
            "0.5", "1", "2", "3.141592653589793", "6.283185307179586", "1e9",
            "1e16", "1e150", "1e300", "1.7e308"], ["nan", "inf", "-inf", "-1"])
_SIGNED = (_FLOATS[0] + ["-0", "-1e-300", "-1", "-2", "-1e300", "-1.7e308"],
           ["nan", "inf", "-inf"])
_BAND = (["0", "1"], ["2", "-1"])
_SAMPLES = (["2", "3", "16", "256"], ["1", "2.5"])

# (option, values, always given) per command; the work-size options are
# always drawn so that no call falls back to a large default
_CONTRACT_OPTIONS = {
    "berry": [("k", _FLOATS, True), ("g", _FLOATS, True),
              ("r", _FLOATS, True), ("theta-samples", _SAMPLES, True),
              ("band", _BAND, False)],
    "nodal-map": [("k", _FLOATS, True), ("g", _FLOATS, True),
                  ("r", (_FLOATS[0][1:] + ["0.5:3.5:0.5", "1:2:0.25"],
                         ["0", "2:1:1", "0:1:0.5", "0.5:1e308:1e-300"]), True),
                  ("theta-samples", _SAMPLES, True), ("band", _BAND, False)],
    "spectrum": [("flat", ([None], []), False), ("k", _FLOATS, True),
                 ("g", _FLOATS, True), ("band", _BAND, False),
                 ("parity", (["even", "odd"], ["none"]), False),
                 ("r0", (["1e-150", "1e-9", "0.5", "1", "2", "1e9", "1e150"],
                         ["0", "1e-300", "1e300", "nan"]), False),
                 ("grid", (["64", "100", "128"], ["63"]), True),
                 ("levels", (["1", "2", "6"], ["0", "200"]), True),
                 ("barrier", (["0.5:1.2", "0.1:6.2", "3:3.0000001"],
                              ["0:1", "1:7", "3:3", "nan:1"]), False)],
    "locate-ci": [("k", _FLOATS, True), ("g", _FLOATS, True),
                  ("x-min", _SIGNED, False), ("x-max", _SIGNED, False),
                  ("y-min", _SIGNED, False), ("y-max", _SIGNED, False),
                  ("band", _BAND, False),
                  ("spatial-tol", (_FLOATS[0][1:-1], ["0", "1.7e308"]), False),
                  ("gap-tol", (_FLOATS[0][1:], ["0", "nan"]), False),
                  ("samples-per-edge", (["1", "2", "4"], ["0"]), True),
                  ("min-depth", (["0", "1", "2"], ["-1"]), True),
                  ("max-depth", (["2", "24"], ["-3", "0"]), False)],
    "spin": [("k", _FLOATS, True), ("g", _FLOATS, True),
             ("r", (_FLOATS[0][1:], ["0"] + _FLOATS[1]), True),
             ("period", (_FLOATS[0][1:], ["0"] + _FLOATS[1]), True),
             ("steps", (["2", "3", "64", "4096"], ["1"]), True),
             ("revolutions", (_FLOATS[0][1:], ["0"] + _FLOATS[1]), False),
             ("theta0", _SIGNED, False),
             ("frame", (["lab", "comoving"], ["rotating"]), False),
             ("initial", (["lower", "upper"], ["middle"]), False),
             ("store-stride", (["1", "64", "8192"], ["0", "3"]), False)],
}


@st.composite
def contract_argv(draw):
    command = draw(st.sampled_from(sorted(_CONTRACT_OPTIONS)))
    argv = [command]
    for name, (accepted, refused), always in _CONTRACT_OPTIONS[command]:
        if always or draw(st.booleans()):
            refuse = bool(refused) and draw(st.sampled_from([False] * 7 + [True]))
            value = draw(st.sampled_from(refused if refuse else accepted))
            # "--x=-inf": a value that starts with "-" cannot pass for an option
            argv.append(f"--{name}" if value is None else f"--{name}={value}")
    return argv


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def check_output(out: str) -> None:
    """Parse every JSON block or header strictly; no CSV cell is nan or inf."""
    for block in out.split("\n\n"):
        if block.startswith("{"):
            json.loads(block, parse_constant=_refuse)
            continue
        for line in block.splitlines():
            if line.startswith("# "):
                json.loads(line[2:], parse_constant=_refuse)
            else:
                cells = {cell.lower() for cell in line.split(",")}
                assert not cells & {"nan", "inf", "-inf"}, line


@settings(max_examples=100, deadline=None)
@given(contract_argv())
@example("berry --k 1 --g 1 --r 1e300".split())
@example("nodal-map --k 1e308 --g 1 --r 2".split())
@example("spectrum --k 1.7e308 --g 1 --r0 1e150 --grid 64 --levels 2".split())
@example("spectrum --k 1.7e308 --g 1 --r0 1 --grid 64 --levels 2".split())
@example("spin --k 1 --g 1 --r 2 --period 20000 --steps 65536".split())
@example("spin --k 1 --g 1 --r 1 --period 1 --steps 64 "
         "--revolutions 1e-300".split())
@example("spin --k 1 --g 1 --r 1 --period 1e300 --steps 64".split())
@example("spin --k 1 --g 0 --r 1 --period 1e-154 --steps 4096".split())
@example("nodal-map --k 1 --g 1e-320 --r 1".split())
@example("nodal-map --k 1e-320 --g 1e300 --r 1".split())
@example("locate-ci --k 1.01983e-07 --g 0 --x-min -0.0419356 "
         "--x-max 0.0272725 --y-min -0.0419356 --y-max 0.0419356 "
         "--samples-per-edge 4 --min-depth 2".split())
def test_every_input_ends_in_exit_0_2_or_3(argv):
    # stdout and stderr are captured by hand: hypothesis reruns the body,
    # which a function-scoped capsys would not reset
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 2, 3)
    assert all(line.startswith(("note: ", "error: ")) for line in lines), lines
    assert sum(line.startswith("error: ") for line in lines) == (code != 0)
    if code == 0:
        check_output(out.getvalue())
