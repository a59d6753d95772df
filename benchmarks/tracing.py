"""Span tracer for the traced benchmark run.

Spans wrap public functions of the package from outside: each wrapped name is
replaced in every ``berryline`` module that imported it by name (for
example ``cilocate.track_branch`` and ``jahnteller.track_branch`` both point
at the one wrapper).  Hot per-point calls are counted on the innermost open
span instead of getting spans of their own: ``HamiltonianField.evaluate``,
``numpy.linalg.eigh`` and ``jahnteller.jt_point_data``.

A span records its name, start, end, parent span and job.  Spans are kept
in memory and written out once the run ends.  The ``nodal-map`` thread pool
opens spans on its worker threads; those hang off the job's root span, and
self time subtracts the union of the child intervals, so overlapping
children are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# module -> public functions that get a span
SPANNED = {
    "cli": ("main",),
    "eigenpath": ("track_branch",),
    "berryphase": ("overlap_trace", "detect_nodes", "refine_nodes",
                   "open_path_berry_phase"),
    "jahnteller": ("circle_nodes", "nodal_map"),
    "cilocate": ("locate_ci", "loop_sign"),
    "ringspectrum": ("flat_ring_problem", "jt_ring_problem",
                     "build_ring_hamiltonian", "spectrum"),
    "comoving": ("integrate_spin", "to_lab_frame", "dynamical_phase",
                 "adiabaticity_ratio", "ac_loop_phase"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "note", "counts")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.note = None
        self.counts = None

    def count(self, what: str) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[what] = self.counts.get(what, 0) + 1


def _note(name: str, args, kwargs, result):
    """Per-call figure kept on the span: the work a call was given or made."""
    if name == "eigenpath.track_branch":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return len(path)
    if name == "cilocate.loop_sign":
        return int(result)
    if name == "ringspectrum.build_ring_hamiltonian":
        return int(result.nbytes)
    if name == "comoving.integrate_spin":
        traj = args[1] if len(args) > 1 else kwargs["traj"]
        return len(traj.times) - 1
    return None


class Tracer:
    """Installs the wrappers, owns the spans, and restores the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._job = None
        self._root = None
        self._lock = threading.Lock()
        self.unattributed: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # --- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def active(self, job_index: int):
        """Trace the package while the block runs one job."""
        self._job = job_index
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is threading.main_thread():
            parent = None
        else:
            parent = self._root
        span = Span(name, time.perf_counter() - self._t0, parent, self._job)
        if parent is None:
            self._root = span
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter() - self._t0
        self._stack().pop()

    def _count(self, what: str) -> None:
        stack = self._stack()
        if stack:
            stack[-1].count(what)
        else:
            with self._lock:
                self.unattributed[what] += 1

    # --- patching -----------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                span.note = _note(name, args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_count(self, what: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._count(what)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "berryline" and not mod_name.startswith("berryline."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        import berryline.cli  # noqa: F401  (loads every layer module)
        from berryline import eigenpath

        for layer, names in SPANNED.items():
            module = sys.modules[f"berryline.{layer}"]
            for name in names:
                original = getattr(module, name)
                self._replace_everywhere(
                    original, self._wrap_span(f"{layer}.{name}", original))
        jahnteller = sys.modules["berryline.jahnteller"]
        original = jahnteller.jt_point_data
        self._replace_everywhere(
            original, self._wrap_count("jt_point_data", original))

        field_cls = eigenpath.HamiltonianField
        self._restore.append((field_cls, "evaluate", field_cls.evaluate))
        field_cls.evaluate = self._wrap_count("field_eval", field_cls.evaluate)
        self._restore.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._wrap_count("eigh", np.linalg.eigh)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            {"id": i, "name": s.name, "start_s": s.start, "end_s": s.end,
             "parent": None if s.parent is None else ids[id(s.parent)],
             "job": s.job, "note": s.note, "counts": s.counts or {}}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "unattributed": dict(self.unattributed)},
                      fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by any of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {id(s): (s.end - s.start) - _union_length(children[id(s)])
            for s in spans}


def _within(span: Span, name: str) -> bool:
    s = span
    while s is not None:
        if s.name == name:
            return True
        s = s.parent
    return False


def layer_metrics(spans: list[Span], jobs: int, cells_evaluated: int,
                  output_bytes: int,
                  speed_scale: dict[int, float]) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced jobs, each per job unless a ratio.

    Self times are scaled to the reference host speed with the factor
    measured over the span's job (hostspeed.py), like the end-to-end times.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    notes: dict[str, int] = defaultdict(int)
    field_evals = eigh_calls = jt_points = 0
    refine_evals = locate_evals = 0
    retried_tracks = edge_tracks = negative_cells = 0
    for s in spans:
        calls[s.name] += 1
        self_ms[s.name] += 1e3 * selfs[id(s)] * speed_scale[s.job]
        if s.note is not None:
            notes[s.name] += s.note
        counts = s.counts or {}
        fe = counts.get("field_eval", 0)
        field_evals += fe
        eigh_calls += counts.get("eigh", 0)
        jt_points += counts.get("jt_point_data", 0)
        if s.name == "berryphase.refine_nodes":
            refine_evals += fe
        if fe and _within(s, "cilocate.locate_ci"):
            locate_evals += fe
        parent = s.parent.name if s.parent is not None else None
        if s.name == "eigenpath.track_branch":
            if parent == "jahnteller.circle_nodes":
                retried_tracks += 1
            elif parent == "cilocate.loop_sign":
                edge_tracks += 1
        if s.name == "cilocate.loop_sign" and s.note == -1:
            negative_cells += 1

    def per_job(x):
        return x / jobs

    def ratio(a, b):
        return a / b if b else 0.0

    tb = "eigenpath.track_branch"
    cn = "jahnteller.circle_nodes"
    ls = "cilocate.loop_sign"
    spin = "comoving.integrate_spin"
    phase_ms = sum(self_ms[f"comoving.{n}"] for n in
                   ("dynamical_phase", "adiabaticity_ratio", "ac_loop_phase"))
    return {
        "eigenpath.track_branch.calls": (per_job(calls[tb]), "count/job"),
        "eigenpath.track_branch.self_ms": (per_job(self_ms[tb]), "ms/job"),
        "eigenpath.points_tracked": (per_job(notes[tb]), "count/job"),
        "eigenpath.field_evals": (per_job(field_evals), "count/job"),
        "eigenpath.eigh_calls": (per_job(eigh_calls), "count/job"),
        "eigenpath.us_per_point": (1e3 * ratio(self_ms[tb], notes[tb]), "us"),
        "berryphase.detect_nodes.self_ms":
            (per_job(self_ms["berryphase.detect_nodes"]), "ms/job"),
        "berryphase.refine_nodes.self_ms":
            (per_job(self_ms["berryphase.refine_nodes"]), "ms/job"),
        "berryphase.refine_field_evals": (per_job(refine_evals), "count/job"),
        "jahnteller.circle_nodes.calls": (per_job(calls[cn]), "count/job"),
        "jahnteller.circle_nodes.self_ms": (per_job(self_ms[cn]), "ms/job"),
        "jahnteller.grid_retries":
            (per_job(retried_tracks - calls[cn]), "count/job"),
        "jahnteller.jt_point_data.calls": (per_job(jt_points), "count/job"),
        "cilocate.locate_ci.self_ms":
            (per_job(self_ms["cilocate.locate_ci"]), "ms/job"),
        "cilocate.loop_sign.calls": (per_job(calls[ls]), "count/job"),
        "cilocate.loop_sign.self_ms": (per_job(self_ms[ls]), "ms/job"),
        "cilocate.cells_evaluated": (per_job(cells_evaluated), "count/job"),
        "cilocate.boundary_expansions":
            (per_job(calls[ls] - cells_evaluated), "count/job"),
        "cilocate.edge_refines": (per_job(edge_tracks - calls[ls]), "count/job"),
        "cilocate.useful_cell_ratio": (ratio(negative_cells, cells_evaluated),
                                       "ratio"),
        "cilocate.field_evals_per_cell": (ratio(locate_evals, cells_evaluated),
                                          "count/cell"),
        "ringspectrum.jt_ring_problem.self_ms":
            (per_job(self_ms["ringspectrum.jt_ring_problem"]), "ms/job"),
        "ringspectrum.build_ring_hamiltonian.self_ms":
            (per_job(self_ms["ringspectrum.build_ring_hamiltonian"]), "ms/job"),
        "ringspectrum.spectrum.self_ms":
            (per_job(self_ms["ringspectrum.spectrum"]), "ms/job"),
        "ringspectrum.matrix_mb":
            (per_job(notes["ringspectrum.build_ring_hamiltonian"]) / 2**20,
             "MB/job"),
        "comoving.integrate_spin.self_ms": (per_job(self_ms[spin]), "ms/job"),
        "comoving.to_lab_frame.self_ms":
            (per_job(self_ms["comoving.to_lab_frame"]), "ms/job"),
        "comoving.phase_terms.self_ms": (per_job(phase_ms), "ms/job"),
        "comoving.steps": (per_job(notes[spin]), "count/job"),
        "comoving.ns_per_step": (1e6 * ratio(self_ms[spin], notes[spin]), "ns"),
        "cli.main.self_ms": (per_job(self_ms["cli.main"]), "ms/job"),
        "cli.output_bytes": (per_job(output_bytes), "bytes/job"),
    }
