#!/usr/bin/env python3
"""Zero-momentum identity over seeded random square wells with 0-2 kernel bumps.

Each model is an attractive square well (depth 0-150, r0 = 1) plus 0, 1 or
2 rank-1 gaussian bumps (centre 0.3-0.7, width 0.10-0.17, strength
-3000..3000), in a channel with lambda = 0.5, 0.75, 1, 1.5, 2, 2.3 or 2.5.  Every
model runs through ``levinson_verify``, and every model whose kernel acts
also through ``find_bound_states``, which must return as many levels as
the count, each within LEVEL_RTOL relative of the nearest root of the
independent Green-function reference ``kernel_level_near`` of
tests/oracles.py (closed-form Bessel pair, composite Gauss-Legendre; it
needs scipy); a level above E = -LEVEL_TOL / LEVEL_RTOL need only lie
within its refinement width LEVEL_TOL max(1, |E|).  Every model's principal
phase shift at one wavenumber k in [0.5, 3] (drawn per model, apart from
the models' own draws) must lie within PHASE_TOL rad, mod pi, of the
reference ``kernel_phase`` of the same file, and every model whose kernel
acts has its continued phase shift at that k (the Birman-Krein route)
within WALK_TOL rad of the end of the mu walk of ``phase_events``.  The
script prints each model whose status is not "pass", whose two counts
differ, whose level misses the reference or whose phase misses either
check, then the totals with the largest relative level error and the
largest error of each phase check, and exits 1 if any status is "fail",
any count differs, any level misses or any phase misses ("inconclusive"
is reported but allowed).

    PYTHONPATH=src python3 scripts/kernel_sweep.py [--count 120] [--seed 11]
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path

import numpy as np

from qws.model import ChannelParams
from qws.potentials import PotentialModel, gaussian_bump, square_well
from qws.radial_ode import interior_in_mu
from qws.scattering import (MU_REFINE_FLOOR, MU_STEPS_DEFAULT, _matching_map, _phase_walk,
                            phase_shift)
from qws.spectral import find_bound_states, levinson_verify

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import circ_dist, kernel_level_near, kernel_phase  # noqa: E402

# (q, l) for lambda = 0.5, 1, 1.5, 2, 2.5, and 0.75 and 2.3, whose 2 lambda is no
# integer, so that the kernel points' reduction of order runs without its log term
CHANNELS = ((3, 0), (4, 0), (3, 1), (4, 1), (3, 2), (3.5, 0), (4.6, 1))
LEVEL_RTOL = 1e-7   # largest relative distance of a level from the reference's
LEVEL_TOL = 1e-10   # find_bound_states' tol: levels are refined to LEVEL_TOL max(1, |E|)
PHASE_TOL = 1e-8    # rad, mod pi: the principal phase against the reference's
WALK_TOL = 1e-10    # rad: the continued phase against the end of the mu walk


def models(count: int, seed: int):
    """``count`` (label, channel, potential, depth, bumps) tuples drawn from ``seed``."""
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
        yield label, ChannelParams(q=q, l=l), pot, depth, bumps


def _profiles(bumps):
    return [lambda r, c=c, w=w: np.exp(-((r - c) / w) ** 2) for c, w, _ in bumps]


def reference_level(ch: ChannelParams, pot: PotentialModel, depth: float, bumps,
                    E: float) -> float:
    """The reference level nearest E (nan if there is none)."""
    profiles = _profiles(bumps)
    try:
        return kernel_level_near(ch.lam, ch.q, pot.r0, profiles, pot.coupling_matrix(), E,
                                 depth=depth)
    except ValueError:
        return math.nan


def walk_eta(ch: ChannelParams, pot: PotentialModel, k: float) -> float:
    """eta(k) at mu = 1, the end of the mu walk that ``phase_events`` takes on a kernel."""
    pair = _matching_map(ch.lam, k, pot.r0)[0]
    at = interior_in_mu(ch, pot, k * k, 1e-10)
    grid = np.linspace(0.0, 1.0, MU_STEPS_DEFAULT + 1).tolist()
    return _phase_walk(pair, None, at, {0.0: at(0.0), 1.0: at(1.0)}, grid, MU_REFINE_FLOOR,
                       pot)[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=120, help="number of models")
    parser.add_argument("--seed", type=int, default=11, help="random seed of the models")
    args = parser.parse_args()

    t0 = time.perf_counter()
    tally = {"pass": 0, "fail": 0, "inconclusive": 0}
    miscounts = misses = phase_misses = walk_misses = 0
    worst = worst_phase = worst_walk = 0.0
    for i, (label, ch, pot, depth, bumps) in enumerate(models(args.count, args.seed)):
        k = random.Random(args.seed * 1_000_003 + i).uniform(0.5, 3.0)
        eta = phase_shift(ch, pot, k, mu_steps=None, with_fit=False).eta
        err = circ_dist(eta, kernel_phase(ch.lam, ch.q, pot.r0, _profiles(bumps),
                                          pot.coupling_matrix(), k, depth=depth))
        worst_phase = max(worst_phase, err)
        if not err <= PHASE_TOL:
            phase_misses += 1
            print(f"{'phase off':<12} {label}: eta({k:.6g}) is {err:.2e} rad off the reference")
        if pot.kernel_acts:
            err = abs(phase_shift(ch, pot, k, with_fit=False).eta - walk_eta(ch, pot, k))
            worst_walk = max(worst_walk, err)
            if not err <= WALK_TOL:
                walk_misses += 1
                print(f"{'walk off':<12} {label}: continued eta({k:.6g}) is {err:.2e} rad "
                      "off the mu walk's")
        rep = levinson_verify(ch, pot)
        tally[rep.status] += 1
        if rep.status != "pass":
            print(f"{rep.status:<12} {label}: eta0/pi = {rep.eta0 / math.pi:.4f}, "
                  f"n = {rep.n_direct}/{rep.n_continuation} {rep.reason}")
        if pot.kernel_acts and rep.status != "inconclusive":
            levels = [s.E for s in find_bound_states(ch, pot, tol=LEVEL_TOL)]
            if len(levels) != rep.n_direct:
                miscounts += 1
                print(f"{'miscount':<12} {label}: {len(levels)} levels, count {rep.n_direct}")
            for E in levels:
                E_ref = reference_level(ch, pot, depth, bumps, E)
                err = abs(E - E_ref) / abs(E_ref) if math.isfinite(E_ref) else math.inf
                worst = max(worst, err)
                bound = max(LEVEL_RTOL * abs(E_ref), LEVEL_TOL * max(1.0, abs(E)))
                if not abs(E - E_ref) <= bound:
                    misses += 1
                    print(f"{'level off':<12} {label}: E = {E!r} is {err:.2e} off the reference")
    print(f"{args.count} models: {tally['pass']} pass, {tally['fail']} fail, "
          f"{tally['inconclusive']} inconclusive, {miscounts} level lists off the count, "
          f"{misses} levels off the reference (largest relative error {worst:.2e}), "
          f"{phase_misses} phases off the reference (largest error {worst_phase:.2e} rad), "
          f"{walk_misses} continued phases off the mu walk (largest error {worst_walk:.2e} rad) "
          f"in {time.perf_counter() - t0:.1f} s")
    return 1 if tally["fail"] or miscounts or misses or phase_misses or walk_misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
