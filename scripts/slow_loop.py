#!/usr/bin/env python3
"""Geometric phase of a driven spin approaching the adiabatic limit.

One full pseudorotation at radius r is integrated in the co-moving frame for
a range of revolution periods.  The phase left over after subtracting the
dynamical integral converges to pi (the sign change of the transported
eigenvector) as the drive slows down; the printed adiabaticity ratio is the
peak of |dalpha/dt| against the gap and should be small in the good cases.
"""

import argparse
import math
import sys

import numpy as np

from berryline import (
    JTParams,
    ac_loop_phase,
    canonicalize_phase,
    circle_path,
    integrate_spin,
    pseudorotation_trajectory,
    to_lab_frame,
)


def one_run(p, r, period, steps):
    traj = pseudorotation_trajectory(r, period, steps)
    # strides must be powers of two; aim for about 64 recorded states
    stride = 1 << max(0, steps.bit_length() - 7)
    ev = integrate_spin(p, traj, np.array([0.0, 1.0], dtype=complex),
                        frame="comoving", store_stride=stride)
    lab = to_lab_frame(ev)
    total = float(np.angle(np.vdot(lab[0], lab[-1])))
    # the lower band's dynamical phase is +gap_area
    geo = canonicalize_phase(total - ev.gap_area)
    return geo, ev.adiabaticity_ratio, float(ev.norms[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=float, default=1.0)
    ap.add_argument("--g", type=float, default=1.0)
    ap.add_argument("--r", type=float, default=1.0)
    ap.add_argument("--periods", type=float, nargs="+",
                    default=[1e2, 1e3, 1e4, 2e4])
    ap.add_argument("--steps-per-unit-time", type=float, default=64.0,
                    help="step density; keeps dt * gap fixed across periods")
    args = ap.parse_args(argv)

    p = JTParams(args.k, args.g)
    target = ac_loop_phase(p, circle_path(args.r, 4096))
    print(f"# r={args.r}  loop phase from the field winding: {target:+.6f}")
    print(f"{'period':>10}  {'geo phase':>12}  {'|geo - pi|':>10}  "
          f"{'adiab ratio':>11}  {'final norm':>12}")
    for period in args.periods:
        steps = max(4096, int(period * args.steps_per_unit_time))
        geo, ratio, norm = one_run(p, args.r, period, steps)
        dev = abs(canonicalize_phase(geo - math.pi))
        print(f"{period:10.0f}  {geo:+12.6f}  {dev:10.2e}  "
              f"{ratio:11.3e}  {norm:12.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
