#!/usr/bin/env python3
"""Benchmark the matching-formula phase shift against the square-well closed
form, and the small-k asymptotic law against the full formula.

Writes a CSV with one row per (V0, k) and prints worst-case deviations.
Exits 1 when the worst |eta - closed form| exceeds ETA_TOL rad, or when an
asymptotic/full tan eta ratio leaves [1 - RATIO_TOL, 1 + RATIO_TOL].
"""

import argparse
import math
import sys

import numpy as np

from qws.model import ChannelParams, EnergyValue, effective_equation
from qws.potentials import PotentialModel, square_well
from qws.radial_ode import interior_state
from qws.scattering import low_k_phase_asymptotic, phase_shift

ETA_TOL = 1e-9
RATIO_TOL = 1e-5


def closed_form_eta(k, V0, r0):
    kp = math.sqrt(k * k + V0)
    return math.atan(k / kp * math.tan(kp * r0)) - k * r0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="well_phase_benchmark.csv")
    parser.add_argument("--depths", type=float, nargs="+", default=[1.0, 4.0, 25.0])
    parser.add_argument("--k-count", type=int, default=40)
    args = parser.parse_args()

    ch = ChannelParams(q=3, l=0)
    rows = []
    worst = 0.0
    for V0 in args.depths:
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        for k in np.linspace(0.1, 5.0, args.k_count):
            res = phase_shift(ch, pot, float(k), mu_steps=None, with_fit=False)
            ref = closed_form_eta(float(k), V0, 1.0)
            dev = abs((res.eta_raw - ref + math.pi / 2) % math.pi - math.pi / 2)
            worst = max(worst, dev)
            rows.append((V0, float(k), res.eta_raw, ref, dev))
    print(f"phase shift vs closed form: worst |deviation| = {worst:.3e}")

    failed = not all(row[-1] <= ETA_TOL for row in rows)   # a nan deviation fails too
    print("small-k law check (tan eta ratios at k = 1e-3):")
    for V0 in args.depths:
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        eq0 = effective_equation(ch, pot, EnergyValue(E=-1e-12))
        u, v, _ = interior_state(eq0, 1e-11)
        A0 = (v / u).real
        asym = low_k_phase_asymptotic(ch, A0, 1e-3, 1.0)
        full = phase_shift(ch, pot, 1e-3, mu_steps=None, with_fit=False).tan_eta
        ratio = asym / full
        print(f"  V0 = {V0:6.2f}: asymptotic/full = {ratio:.8f}")
        failed |= not abs(ratio - 1.0) <= RATIO_TOL

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("V0,k,eta,eta_closed_form,abs_deviation\n")
        for row in rows:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    if failed:
        print(f"FAIL: a deviation passes {ETA_TOL:g} rad or a ratio leaves 1 +- {RATIO_TOL:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
