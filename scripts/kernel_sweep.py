#!/usr/bin/env python3
"""Zero-momentum identity over seeded random square wells with 0-2 kernel bumps.

Each model is an attractive square well (depth 0-150, r0 = 1) plus 0, 1 or
2 rank-1 gaussian bumps (centre 0.3-0.7, width 0.10-0.17, strength
-3000..3000), in a channel with lambda = 0.5, 1, 1.5, 2 or 2.5.  Every
model runs through ``levinson_verify``, and every model whose kernel acts
also through ``find_bound_states`` on a coarse 32-energy scan, whose
brackets the level count must split to its own number of levels.  The
script prints each model whose status is not "pass" or whose two counts
differ, then the totals, and exits 1 if any status is "fail" or any count
differs ("inconclusive" is reported but allowed).

    PYTHONPATH=src python3 scripts/kernel_sweep.py [--count 120] [--seed 11]
"""

from __future__ import annotations

import argparse
import math
import random
import time

from qws.model import ChannelParams
from qws.potentials import PotentialModel, gaussian_bump, square_well
from qws.spectral import find_bound_states, levinson_verify

# (q, l) for lambda = 0.5, 1, 1.5, 2, 2.5
CHANNELS = ((3, 0), (4, 0), (3, 1), (4, 1), (3, 2))


def models(count: int, seed: int):
    """``count`` (label, channel, potential) triples drawn from ``seed``."""
    rng = random.Random(seed)
    for i in range(count):
        q, l = rng.choice(CHANNELS)
        depth = rng.uniform(0.0, 150.0)
        bumps = [(rng.uniform(0.3, 0.7), rng.uniform(0.10, 0.17), rng.uniform(-3000.0, 3000.0))
                 for _ in range(rng.randint(0, 2))]
        pot = PotentialModel(r0=1.0, local=square_well(depth),
                             kernel=tuple(gaussian_bump(c, w) for c, w, _ in bumps),
                             strengths=tuple(s for _, _, s in bumps))
        label = (f"#{i} q={q} l={l} well {depth:.6g} bumps "
                 + (", ".join(f"({c:.6g}, {w:.6g}, {s:.6g})" for c, w, s in bumps) or "none"))
        yield label, ChannelParams(q=q, l=l), pot


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=120, help="number of models")
    parser.add_argument("--seed", type=int, default=11, help="random seed of the models")
    args = parser.parse_args()

    t0 = time.perf_counter()
    tally = {"pass": 0, "fail": 0, "inconclusive": 0}
    miscounts = 0
    for label, ch, pot in models(args.count, args.seed):
        rep = levinson_verify(ch, pot)
        tally[rep.status] += 1
        if rep.status != "pass":
            print(f"{rep.status:<12} {label}: eta0/pi = {rep.eta0 / math.pi:.4f}, "
                  f"n = {rep.n_direct}/{rep.n_continuation} {rep.reason}")
        if pot.kernel_acts and rep.status != "inconclusive":
            found = len(find_bound_states(ch, pot, n_scan=32))
            if found != rep.n_direct:
                miscounts += 1
                print(f"{'miscount':<12} {label}: {found} levels from a 32-energy scan, "
                      f"count {rep.n_direct}")
    print(f"{args.count} models: {tally['pass']} pass, {tally['fail']} fail, "
          f"{tally['inconclusive']} inconclusive, {miscounts} scans off the count "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if tally["fail"] or miscounts else 0


if __name__ == "__main__":
    raise SystemExit(main())
