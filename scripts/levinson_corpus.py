#!/usr/bin/env python3
"""Run the zero-momentum phase / bound-count identity over a mixed corpus.

Covers attractive square wells with 0, 1 and 2 levels, a higher partial
wave, a purely non-local rank-1 attraction, a mixed local + non-local
configuration, and a repulsive rank-1 kernel whose coupling determinant
det(Id - mu C M) changes sign along the mu path.  Prints one line per configuration and exits 1 unless
every configuration passes.
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
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tol", type=float, default=1e-9, help="ODE tolerance")
    args = parser.parse_args()

    print(f"{'configuration':<24} {'eta0/pi':>10} {'n_scan':>7} {'n_cont':>7} "
          f"{'status':>8} {'time':>7}")
    passed = True
    for name, ch, pot in corpus():
        t0 = time.perf_counter()
        rep = levinson_verify(ch, pot, tol=args.tol)
        dt = time.perf_counter() - t0
        print(f"{name:<24} {rep.eta0 / math.pi:>10.6f} {rep.n_direct:>7} "
              f"{rep.n_continuation:>7} {rep.status:>8} {dt:>6.1f}s")
        passed = passed and rep.passed
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
