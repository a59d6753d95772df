"""Host-speed probe that scales job times to a fixed reference speed.

On the 2-vCPU host this benchmark was built on, the speed of a core flips
between two levels about 1.8x apart, on time scales from a fraction of a
second to a minute, while the machine itself is idle (README.md).  A raw
wall time then mostly measures which level a run landed on: ten 20-second
runs of the same workload spread by 25 % between their quartiles.

While a job runs, a timer signal every 10 ms runs a fixed piece of work on
the main thread and records the thread CPU time it took.  Thread CPU time
leaves out any wait for the interpreter lock.  A job's wall time is
1/speed integrated over the job, so it is scaled by
``reference_s / mean(probe times during the job)``: the time the job would
take at the reference speed.  The probe never touches the package under
test.  Raw wall times are kept in the result file beside the scaled ones.

Each workload's probe does the kind of work that dominates its jobs:

* ``EighWork`` for the trackers (loop-sweep, ci-search): 2x2
  ``numpy.linalg.eigh`` calls and small array operations.
* ``VectorWork`` for the whole-array workloads (ring-spectra, spin-drive):
  sin, exp and products over 8192 floats.
* ``LoopWork``, a pure interpreter loop, around ``import berryline`` in the
  set-up launches, which must not load numpy before the import they time.

The first two are timed after an untimed run of the same work, so the
timer interrupt's cold start is not measured.  The choice comes from
150-second runs of each workload with all kinds of work probed in turn:
the per-job coefficient of variation of the scaled times (raw in brackets)
was 5.5 % with EighWork and 6.7 % with VectorWork on ci-search (12.1 %);
3.3 % with VectorWork and 5.8 % with EighWork on spin-drive (7.8 %); and
on ring-spectra at M = 1536, 9.5 % with VectorWork and 13 % with either
of the others (9.6 %).  VectorWork then drew its floats at random; it now
spaces them evenly, which leaves numpy.random, and its memory, out of
the worker.  A signal handler runs only between bytecodes, so during
ring-spectra's long LAPACK calls the probe samples rarely.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.01


class LoopWork:
    """A pure interpreter loop, timed from the timer signal on."""

    # Probe time at the reference speed: the fast level of the host the
    # benchmark was built on.  It fixes the unit only; changing it rescales
    # every scaled time by the same factor.
    reference_s = 40e-6

    def __call__(self) -> float:
        start = time.thread_time()
        s = 0
        for i in range(300):
            s += i * i % 7
        return time.thread_time() - start


class _WarmedWork:
    """Work timed after an untimed run of the same work."""

    def __init__(self):
        for _ in range(10):
            self._step()

    def __call__(self) -> float:
        self._step()
        start = time.thread_time()
        self._step()
        return time.thread_time() - start


class EighWork(_WarmedWork):
    """Three 2x2 eigenproblems with small array operations."""

    # As for LoopWork, the reference time fixes the unit only.
    reference_s = 40e-6

    def __init__(self):
        # numpy is imported here, not at the top: the set-up launches import
        # this module and must not load numpy before the import they time.
        import numpy as np

        self._np = np
        # Bound now: the traced run counts calls of numpy.linalg.eigh by
        # replacing it, and the probe's own calls must not be counted.
        self._eigh = np.linalg.eigh
        self._matrix = np.array([[1.0, 0.3], [0.3, -0.5]])
        super().__init__()

    def _step(self) -> float:
        np = self._np
        x = 0.0
        for _ in range(3):
            w, v = self._eigh(self._matrix)
            x += np.abs(v[:, 0] @ v[:, 1]) + np.hypot(w[0], w[1])
        return x


class VectorWork(_WarmedWork):
    """Sin, exp and products over 8192 floats."""

    reference_s = 170e-6

    def __init__(self):
        import numpy as np

        self._np = np
        self._v = np.linspace(-3.0, 3.0, 8192)
        super().__init__()

    def _step(self) -> float:
        np, v = self._np, self._v
        return float((np.sin(v) * v + np.exp(-v * v)).sum())


class SpeedProbe:
    """Samples the host's speed in the background of the main thread."""

    def __init__(self, work):
        self.work = work
        self.samples: list[float] = []
        self._previous = None

    def _probe(self, signum, frame) -> None:
        self.samples.append(self.work())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale_since(self, mark: int) -> float:
        """Factor from wall time to reference time for work since `mark`.

        Work too short to be probed takes the last ten samples, or one taken
        now.
        """
        if not self.samples:
            self._probe(None, None)
        window = self.samples[mark:] or self.samples[-10:]
        return self.work.reference_s * len(window) / sum(window)
