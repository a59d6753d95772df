"""Command-line front end.

Subcommands: nodal-map, berry, spectrum, locate-ci, spin.  Every option can
also be supplied through a flat key=value config file (--config); explicit
flags win over the file, the file wins over built-in defaults.  All numeric
output is printed with 17 significant digits so reruns are byte-identical
and JSON re-reads reproduce the floats exactly.  Each command returns its
outputs as (destination, text) pairs, a text whole or in pieces, and main
writes them.  Exit codes: 0 success, 2 usage or config problem or an
unwritable destination, 3 domain error (the message names the error class
and offending values).
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from .berryphase import canonicalize_phase, classify_mab, open_path_berry_phase
from .cilocate import CIResult, SearchRect, locate_ci
from .comoving import ac_loop_phase, integrate_spin, pseudorotation_trajectory
from .eigenpath import GAP_TOL, circle_path, holonomy_sign
from .errors import BerrylineError, OnDegeneracyCircle
from .jahnteller import (JTParams, checked_circle, jt_eigenvectors, jt_field,
                         nodal_map, rotation_matrix)
from .ringspectrum import (MIN_GRID_POINTS, flat_ring_problem, jt_ring_problem,
                           spectrum)

FORMAT_VERSION = 1
CONFIG_MAX_BYTES = 1 << 20  # keeps a path like /dev/zero out of memory
SERIES_BLOCK = 4096  # spin records formatted at a time


class ConfigError(Exception):
    """Bad config file, missing required setting or unwritable destination
    (exit code 2)."""


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal; round-trips float64 exactly."""
    return "%.17g" % float(x)


def _json_value(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_value(v, indent + 2)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ", ".join(_json_value(v, indent) for v in value)
        return "[" + items + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(value)!r}")


def emit_json(obj: dict) -> str:
    return _json_value(obj, 0) + "\n"


def emit_json_compact(obj: dict) -> str:
    items = ", ".join(f'"{k}": {_json_value(v, 0)}' for k, v in obj.items())
    return "{" + items + "}"


def write_outputs(outputs: list[tuple[str, str | Iterable[str]]]) -> None:
    """Write each destination once, in the order they first appear; "-" is
    stdout, and a file is keyed by its real path, however it is spelled.

    A text is a str or an iterable of str pieces, written as they come.
    The texts bound for one destination are joined by one blank line.  A
    destination that cannot be opened or written is a ConfigError that
    names it as first given.
    """
    groups: dict[str, tuple[str, list]] = {}
    for dest, text in outputs:
        key = dest if dest == "-" else os.path.realpath(dest)
        groups.setdefault(key, (dest, []))[1].append(text)
    for key, (dest, texts) in groups.items():
        if key == "-":
            try:
                _write_pieces(sys.stdout, texts)
                sys.stdout.flush()
            except OSError as err:  # a reader that closed the pipe, say
                # the exit flush writes what is left of the buffer nowhere
                with open(os.devnull, "wb") as null:
                    os.dup2(null.fileno(), sys.stdout.fileno())
                raise ConfigError(
                    f"cannot write -: {err.strerror or err}") from err
            continue
        try:
            with open(dest, "w", newline="\n") as fh:
                _write_pieces(fh, texts)
        except OSError as err:
            raise ConfigError(
                f"cannot write {dest}: {err.strerror or err}") from err


def _write_pieces(fh, texts) -> None:
    for i, text in enumerate(texts):
        if i:
            fh.write("\n")
        for piece in [text] if isinstance(text, str) else text:
            fh.write(piece)


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    return fmt(cell)


def csv_lines(header: list[str], rows) -> str:
    """CSV text: None is an empty cell, a str is written as is, an integer in
    decimal and anything else by fmt."""
    return "".join([",".join(header) + "\n"]
                   + [",".join(map(_csv_cell, row)) + "\n" for row in rows])


def csv_pieces(header: list[str], blocks) -> Iterator[str]:
    """CSV text of float rows in pieces: the header line, then the rows of
    each block of rows in `blocks`, one block at a time.  One %-format per
    row gives the bytes fmt gives cell by cell."""
    yield ",".join(header) + "\n"
    float_row = ",".join(["%.17g"] * len(header)) + "\n"
    for rows in blocks:
        yield "".join([float_row % tuple(row) for row in rows])


# --- option plumbing ---------------------------------------------------------

_REQUIRED = object()


@dataclass(frozen=True)
class Opt:
    name: str
    conv: Callable[[str], object]
    default: object
    help: str
    flag: bool = False


def _to_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {s!r}")
    return x


# Points a START:STOP:STEP sweep may hold, checked before the sweep is built.
_MAX_SWEEP_POINTS = 10_000


def _to_range(s: str) -> tuple[float, ...]:
    """Either a single value or an inclusive start:stop:step sweep."""
    parts = s.split(":")
    if len(parts) == 1:
        return (_finite(parts[0]),)
    if len(parts) != 3:
        raise ValueError(f"expected VALUE or START:STOP:STEP, got {s!r}")
    start, stop, step = map(_finite, parts)
    if step <= 0:
        raise ValueError(f"sweep step must be > 0, got {step!r}")
    last = (stop - start) / step + 1e-9
    if not last < _MAX_SWEEP_POINTS:  # also catches an infinite count
        raise ValueError(f"sweep has more than {_MAX_SWEEP_POINTS} points: {s!r}")
    count = int(math.floor(last)) + 1
    if count < 1:
        raise ValueError(f"empty sweep {s!r}")
    return tuple(start + j * step for j in range(count))


def _to_interval(s: str) -> tuple[float, float]:
    parts = s.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected START:END, got {s!r}")
    return (_finite(parts[0]), _finite(parts[1]))


def _checked(conv: Callable[[str], object], ok: Callable[[object], bool],
             need: str) -> Callable[[str], object]:
    """Converter `conv` that also requires ok(value); `need` words the rule."""
    def check(s: str):
        value = conv(s)
        if not ok(value):
            raise ValueError(f"must be {need}, got {s!r}")
        return value
    return check


def _at_least(minimum: int) -> Callable[[str], object]:
    return _checked(int, lambda n: n >= minimum, f">= {minimum}")


def _between(low: int, high: int) -> Callable[[str], object]:
    return _checked(int, lambda n: low <= n <= high, f"{low} to {high}")


_NONNEG = _checked(_finite, lambda x: x >= 0, ">= 0")
_POSITIVE = _checked(_finite, lambda x: x > 0, "> 0")
_BAND = _checked(int, lambda b: b in (0, 1), "0 (lower) or 1 (upper)")
_PARITY = _checked(str, lambda s: s in ("even", "odd"), "even or odd")
_FRAME = _checked(str, lambda s: s in ("lab", "comoving"), "lab or comoving")
_INITIAL = _checked(str, lambda s: s in ("lower", "upper"), "lower or upper")
_RADII = _checked(_to_range, lambda radii: min(radii) > 0, "radii > 0")
_ARC = _checked(_to_interval, lambda ab: 0 < ab[0] < ab[1] < 2.0 * math.pi,
                "START:END with 0 < START < END < 2 pi")
_POWER_OF_TWO = _checked(int, lambda n: n >= 1 and n & (n - 1) == 0,
                         "a power of two")
# keeps the ring hopping 1/(2 r0^2 h^2) a finite nonzero float on every grid
_RING_RADIUS = _checked(_finite, lambda x: 1e-150 <= x <= 1e150,
                        "1e-150 to 1e150")


_ALIASES = {"grid": ["--M"]}


def _add_options(sub: argparse.ArgumentParser, options: list[Opt]) -> None:
    sub.add_argument("--config", default=None, metavar="FILE",
                     help="flat key=value config file; flags override it")
    for opt in options:
        dest = opt.name.replace("-", "_")
        extra = _ALIASES.get(opt.name, [])
        if opt.flag:
            sub.add_argument("--" + opt.name, *extra, dest=dest,
                             action="store_const", const=True, default=None,
                             help=opt.help)
        else:
            sub.add_argument("--" + opt.name, *extra, dest=dest, type=str,
                             default=None, help=opt.help, metavar="V")


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, "rb") as fh:
            data = fh.read(CONFIG_MAX_BYTES + 1)
        if len(data) > CONFIG_MAX_BYTES:
            raise ConfigError(f"cannot read config {path}: more than "
                              f"{CONFIG_MAX_BYTES} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        if "\0" in raw:  # no path or value may hold one
            raise ConfigError(f"{path}:{lineno}: NUL byte")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def resolve_options(args: argparse.Namespace, options: list[Opt]) -> dict:
    """Merge flags > config file > defaults into one settings dict."""
    cfg = _read_config(args.config) if args.config else {}
    if "format_version" in cfg:
        if cfg.pop("format_version") != str(FORMAT_VERSION):
            raise ConfigError(f"unsupported format_version (expected {FORMAT_VERSION})")
    known = {opt.name.replace("-", "_"): opt for opt in options}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    values = {}
    for opt in options:
        dest = opt.name.replace("-", "_")
        raw_cli = getattr(args, dest)
        if raw_cli is not None:
            values[dest] = raw_cli if opt.flag else _convert(opt, raw_cli)
        elif dest in cfg:
            values[dest] = _convert(opt, cfg[dest])
        elif opt.default is _REQUIRED:
            raise ConfigError(f"missing required setting --{opt.name}")
        else:
            values[dest] = opt.default
    return values


def _convert(opt: Opt, raw: str):
    try:
        return _to_bool(raw) if opt.flag else opt.conv(raw)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"bad value for {opt.name}: {err}") from err


def _jt_params(values: dict) -> JTParams:
    if values["k"] == 0 and values["g"] == 0:
        raise ConfigError("--k and --g cannot both be 0")
    return JTParams(values["k"], values["g"])


# --- subcommands -------------------------------------------------------------

_NODAL_OPTS = [
    Opt("k", _NONNEG, _REQUIRED, "linear coupling"),
    Opt("g", _NONNEG, _REQUIRED, "quadratic coupling"),
    Opt("r", _RADII, _REQUIRED, "radius or START:STOP:STEP sweep"),
    Opt("theta-samples", _between(2, 1 << 21), 2048, "loop samples per circle"),
    Opt("band", _BAND, 0, "band index (0 lower, 1 upper)"),
    Opt("nodes-out", str, "-", "node CSV destination ('-' = stdout)"),
    Opt("degeneracies-out", str, "-", "degeneracy CSV destination"),
]


def cmd_nodal_map(values: dict) -> list[tuple[str, str]]:
    p = _jt_params(values)
    m = nodal_map(p, values["r"], theta_samples=values["theta_samples"],
                  band=values["band"])
    rows = []
    for row in m.rows:
        for ang in row.analytic_angles:
            rows.append((row.r, ang, "analytic"))
        for ang in row.numeric_angles:
            rows.append((row.r, ang, "numeric"))
    node_csv = csv_lines(["r", "theta_node", "source"], rows)
    deg_csv = csv_lines(["r", "theta"], [(d.r, d.theta) for d in m.degeneracies])

    for r in m.skipped_radii:
        print(f"note: radius {fmt(r)} lies on the degeneracy circle; skipped",
              file=sys.stderr)
    if not rows:
        raise OnDegeneracyCircle(m.skipped_radii[0], p.degeneracy_radius)

    return [(values["nodes_out"], node_csv),
            (values["degeneracies_out"], deg_csv)]


_BERRY_OPTS = [
    Opt("k", _NONNEG, _REQUIRED, "linear coupling"),
    Opt("g", _NONNEG, _REQUIRED, "quadratic coupling"),
    Opt("r", _POSITIVE, _REQUIRED, "loop radius"),
    Opt("theta-samples", _between(2, 1 << 21), 2048, "loop samples"),
    Opt("band", _BAND, 0, "band index"),
    Opt("out", str, "-", "JSON destination"),
]


def cmd_berry(values: dict) -> list[tuple[str, str]]:
    p = _jt_params(values)
    branch, nodes, _ = checked_circle(p, values["r"], values["theta_samples"],
                                      values["band"])
    phase = open_path_berry_phase(branch.vectors)
    result = {
        "format_version": FORMAT_VERSION,
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


_SPECTRUM_OPTS = [
    Opt("flat", None, None, "flat (zero) potential instead of a model band",
        flag=True),
    Opt("k", _NONNEG, None, "linear coupling (model mode)"),
    Opt("g", _NONNEG, None, "quadratic coupling (model mode)"),
    Opt("band", _BAND, 0, "band index (model mode)"),
    Opt("parity", _PARITY, None, "seam parity even|odd (required with --flat)"),
    Opt("r0", _RING_RADIUS, 1.0, "ring radius"),
    Opt("grid", _between(MIN_GRID_POINTS, 4096), 1024, "grid points"),
    Opt("levels", _at_least(1), 6, "number of levels"),
    Opt("barrier", _ARC, None, "impenetrable arc START:END (radians)"),
    Opt("out", str, "-", "destination"),
]


def cmd_spectrum(values: dict) -> list[tuple[str, str]]:
    barrier = values["barrier"]
    if barrier is not None:
        barrier = (barrier[0], barrier[1] - barrier[0])
    if values["flat"]:
        if values["parity"] is None:
            raise ConfigError("--flat requires --parity even|odd")
        problem = flat_ring_problem(values["parity"], grid_size=values["grid"],
                                    radius=values["r0"], barrier=barrier)
        kind = "flat"
    else:
        if values["k"] is None or values["g"] is None:
            raise ConfigError("model mode requires --k and --g (or use --flat)")
        p = _jt_params(values)
        problem = jt_ring_problem(p, values["r0"], grid_size=values["grid"],
                                  band=values["band"], barrier=barrier)
        if values["parity"] is not None:
            problem = replace(problem, flux_parity=values["parity"])
        kind = "jahnteller"
    kept = len(problem.kept_indices())
    if values["levels"] > kept:
        raise ConfigError(f"bad value for levels: must be <= {kept}, the grid "
                          f"points the ring keeps, got {values['levels']}")
    result = spectrum(problem, values["levels"])
    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "k": values["k"],
        "g": values["g"],
        "band": values["band"] if kind == "jahnteller" else None,
        "r0": values["r0"],
        "grid": values["grid"],
        "levels": values["levels"],
        "flux_parity": problem.flux_parity,
        "barrier": None if values["barrier"] is None else list(values["barrier"]),
        "boundary": result.boundary,
    }
    lines = "# " + emit_json_compact(header) + "\n"
    rows = [
        (i, float(e), int(flag), problem.flux_parity)
        for i, (e, flag) in enumerate(zip(result.levels, result.degeneracy_flags))
    ]
    lines += csv_lines(["index", "energy", "degeneracy_flag", "parity"], rows)
    return [(values["out"], lines)]


_LOCATE_OPTS = [
    Opt("k", _NONNEG, _REQUIRED, "linear coupling"),
    Opt("g", _NONNEG, _REQUIRED, "quadratic coupling"),
    Opt("x-min", _finite, -3.0, "search window"),
    Opt("x-max", _finite, 3.0, "search window"),
    Opt("y-min", _finite, -3.0, "search window"),
    Opt("y-max", _finite, 3.0, "search window"),
    Opt("band", _BAND, 0, "band index"),
    # keeps the confirmation box of half-side spatial-tol around a point a
    # valid search window
    Opt("spatial-tol", _checked(_finite, lambda x: 0 < x <= 1e300,
                                "> 0 and <= 1e300"), 1e-3,
        "cell size at which a hit is accepted"),
    Opt("gap-tol", _POSITIVE, GAP_TOL, "gap treated as degenerate"),
    # ceilings on the work of one quadtree level, which is scored at once
    Opt("samples-per-edge", _between(1, 4096), 32,
        "boundary samples per cell edge"),
    Opt("min-depth", _between(0, 8), 4, "quadtree depth before pruning starts"),
    Opt("max-depth", _at_least(0), 24, "quadtree depth limit (>= min-depth)"),
    Opt("out", str, "-", "JSON destination"),
]


def cmd_locate_ci(values: dict) -> list[tuple[str, str]]:
    p = _jt_params(values)
    if not (values["x_min"] < values["x_max"] and values["y_min"] < values["y_max"]):
        raise ConfigError("the search window needs --x-min < --x-max and "
                          "--y-min < --y-max")
    if values["max_depth"] < values["min_depth"]:
        raise ConfigError(f"bad value for max-depth: must be >= min-depth "
                          f"{values['min_depth']}, got {values['max_depth']}")
    try:
        rect = SearchRect(values["x_min"], values["x_max"],
                          values["y_min"], values["y_max"])
    except ValueError as err:
        raise ConfigError(f"bad search window: {err}") from err
    res: CIResult = locate_ci(jt_field(p, frame="cartesian"), rect,
                              band=values["band"],
                              spatial_tol=values["spatial_tol"],
                              gap_tol=values["gap_tol"],
                              samples_per_edge=values["samples_per_edge"],
                              min_depth=values["min_depth"],
                              max_depth=values["max_depth"])
    result = {
        "format_version": FORMAT_VERSION,
        "k": values["k"],
        "g": values["g"],
        "band": values["band"],
        "spatial_tol": values["spatial_tol"],
        "points": [list(pt) for pt in res.points],
        "gaps": list(res.gaps),
        "cells_evaluated": res.cells_evaluated,
        "depth_histogram": {str(d): c for d, c in res.depth_histogram.items()},
    }
    return [(values["out"], emit_json(result))]


_SPIN_OPTS = [
    Opt("k", _NONNEG, _REQUIRED, "linear coupling"),
    Opt("g", _NONNEG, _REQUIRED, "quadratic coupling"),
    Opt("r", _POSITIVE, _REQUIRED, "drive radius"),
    Opt("period", _POSITIVE, _REQUIRED, "drive period"),
    Opt("steps", _between(2, 1 << 21), 65536, "integration steps"),
    Opt("revolutions", _POSITIVE, 1.0, "drive revolutions"),
    Opt("theta0", _finite, 0.0, "starting angle"),
    Opt("frame", _FRAME, "comoving", "propagation frame lab|comoving"),
    Opt("initial", _INITIAL, "lower", "initial band eigenstate lower|upper"),
    Opt("store-stride", _POWER_OF_TWO, 64,
        "record every this many steps (power of two)"),
    Opt("series-out", str, "-", "CSV time series destination"),
    Opt("summary-out", str, "-", "JSON phase summary destination"),
]


def cmd_spin(values: dict) -> list[tuple[str, Iterable[str]]]:
    p = _jt_params(values)
    r, theta0, rev = values["r"], values["theta0"], values["revolutions"]
    try:  # sampled times or loop angles that collapse or overflow
        traj = pseudorotation_trajectory(r, values["period"], values["steps"],
                                         theta0=theta0, revolutions=rev)
        loop = None
        if abs(rev - round(rev)) < 1e-12 and round(rev) != 0:
            loop = circle_path(r, 4096, theta0=theta0,
                               revolutions=float(round(rev)))
    except ValueError as err:
        raise ConfigError(f"cannot sample the drive: {err}") from err
    band = 0 if values["initial"] == "lower" else 1
    if values["frame"] == "comoving":
        psi0 = np.array([0.0, 1.0]) if band == 0 else np.array([1.0, 0.0])
    else:
        psi0 = jt_eigenvectors(p, values["r"], values["theta0"])[band]

    ev = integrate_spin(p, traj, psi0.astype(complex), frame=values["frame"],
                        store_stride=values["store_stride"])
    # the sign holonomy lives in the rotating basis, so phases are always
    # extracted from lab-frame states no matter which frame propagated; the
    # total phase reads the first and the last state only
    first, last = ev.states[0], ev.states[-1]
    if values["frame"] == "comoving":
        first = rotation_matrix(ev.alphas[0]) @ first
        last = rotation_matrix(ev.alphas[-1]) @ last
    total = float(np.angle(np.vdot(first, last)))
    dyn = ev.gap_area if band == 0 else -ev.gap_area  # = dynamical_phase
    geo = canonicalize_phase(total - dyn)

    ac = None if loop is None else ac_loop_phase(p, loop)

    def blocks():  # the rows of a block of records: no column spans them all
        for start in range(0, len(ev.times), SERIES_BLOCK):
            part = ev.records(start, start + SERIES_BLOCK)
            yield zip(part.times.tolist(), part.sigma_x.tolist(),
                      part.sigma_y.tolist(), part.sigma_z.tolist(),
                      part.norms.tolist())

    series = csv_pieces(["t", "sigma_x", "sigma_y", "sigma_z", "norm"],
                        blocks())
    summary = {
        "format_version": FORMAT_VERSION,
        "k": values["k"],
        "g": values["g"],
        "r": values["r"],
        "period": values["period"],
        "steps": values["steps"],
        "revolutions": values["revolutions"],
        "frame": values["frame"],
        "initial": values["initial"],
        "total_phase": total,
        "dynamical_phase": dyn,
        "geometric_phase": geo,
        "adiabaticity_ratio": ev.adiabaticity_ratio,
        "final_norm": float(ev.records(-1, None).norms[0]),
        "ac_loop_phase": ac,
    }
    return [(values["series_out"], series),
            (values["summary_out"], emit_json(summary))]


# --- driver ------------------------------------------------------------------

_COMMANDS = {
    "nodal-map": (_NODAL_OPTS, cmd_nodal_map,
                  "node lines of the anchor overlap over a radius sweep"),
    "berry": (_BERRY_OPTS, cmd_berry,
              "node count, geometric phase and loop class for one circle"),
    "spectrum": (_SPECTRUM_OPTS, cmd_spectrum,
                 "ring levels with periodic or antiperiodic seam"),
    "locate-ci": (_LOCATE_OPTS, cmd_locate_ci,
                  "find degeneracies by loop-sign subdivision"),
    "spin": (_SPIN_OPTS, cmd_spin,
             "driven two-level dynamics along a pseudorotation"),
}


@functools.cache  # built once per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berryline",
        description="geometric phases and sign holonomy of real electronic "
                    "Hamiltonians",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (options, func, help_text) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        # a token like -1e3 is a value, not an option name (argparse's own
        # rule knows only -1 and -1.5); no option here starts with -digit
        sub._negative_number_matcher = re.compile(r"-\.?\d")
        _add_options(sub, options)
        sub.set_defaults(_options=options, _func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = resolve_options(args, args._options)
        write_outputs(args._func(values))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BerrylineError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
