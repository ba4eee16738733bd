#!/usr/bin/env python3
"""Run the zero-momentum phase / bound-count identity over a mixed corpus.

Covers attractive square wells with 0, 1 and 2 levels, a higher partial
wave, a purely non-local rank-1 attraction, a mixed local + non-local
configuration, a repulsive rank-1 kernel whose coupling determinant
det(Id - mu C M) changes sign along the mu path, a deep well (32
levels) whose first thresholds share one step of the default mu grid, an
l = 2 rank-1 kernel whose phase at the Levinson wavenumbers steps by pi
to the last bit at its one event, and an l = 4 rank-1 kernel, where
int_0^r S y_2 of the irregular solution y_2 diverges at the origin, so that
its particular solutions are taken from r0 inward.
Prints one line per configuration and exits 1 unless every configuration
passes.
"""

import argparse
import math
import time

from qws.model import ChannelParams
from qws.potentials import PotentialModel, gaussian_bump, square_well
from qws.spectral import levinson_verify


def corpus():
    ch_s = ChannelParams(q=3, l=0)
    ch_p = ChannelParams(q=3, l=1)
    ch_d = ChannelParams(q=3, l=2)
    ch_g = ChannelParams(q=3, l=4)
    bump = gaussian_bump(center=0.5, width=0.15)
    return [
        ("square well, no level", ch_s, PotentialModel(r0=1.0, local=square_well(1.0))),
        ("square well, 1 level", ch_s, PotentialModel(r0=1.0, local=square_well(4.0))),
        ("square well, 2 levels", ch_s,
         PotentialModel(r0=1.0, local=square_well((2 * math.pi) ** 2))),
        ("p-wave well", ch_p, PotentialModel(r0=1.0, local=square_well(12.0))),
        ("rank-1 kernel", ch_p,
         PotentialModel(r0=1.0, kernel=(bump,), strengths=(-700.0,))),
        ("well + kernel", ch_s,
         PotentialModel(r0=1.0, local=square_well(3.0), kernel=(bump,),
                        strengths=(-120.0,))),
        ("repulsive rank-1 kernel", ch_p,
         PotentialModel(r0=1.0, kernel=(bump,), strengths=(3000.0,))),
        ("deep well, 32 levels", ch_s, PotentialModel(r0=1.0, local=square_well(1e4))),
        ("d-wave rank-1 kernel", ch_d,
         PotentialModel(r0=1.0, kernel=(bump,), strengths=(-3000.0,))),
        ("g-wave (l = 4) rank-1 kernel", ch_g,
         PotentialModel(r0=1.0, kernel=(bump,), strengths=(-2e4,))),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-9, help="ODE tolerance")
    args = parser.parse_args()

    print(f"{'configuration':<28} {'eta0/pi':>10} {'n_direct':>8} {'n_cont':>7} "
          f"{'status':>8} {'time':>7}")
    passed = True
    for name, ch, pot in corpus():
        t0 = time.perf_counter()
        rep = levinson_verify(ch, pot, tol=args.tol)
        dt = time.perf_counter() - t0
        print(f"{name:<28} {rep.eta0 / math.pi:>10.6f} {rep.n_direct:>8} "
              f"{rep.n_continuation:>7} {rep.status:>8} {dt:>6.1f}s")
        passed = passed and rep.passed
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
