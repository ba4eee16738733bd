"""Corpus rows of the ROADMAP baseline table, untraced times plus traced counts.

    python3 perfbench/corpus.py

Run from the root of a qws checkout.  For the square well with two levels,
the p-wave well, the rank-1 kernel and the well + kernel entries of
scripts/levinson_corpus.py, it times continuation_count, find_bound_states
and one mu-continued phase_shift (k = 1) at their defaults, once untraced and
once traced, and prints each time beside the baseline recorded in ROADMAP.md
(a 2-core sandbox) with the traced solve and RHS counts.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QWS_THREADS", None)

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import qws  # noqa: E402
from tracer import Tracer  # noqa: E402

# seconds per stage: continuation_count, find_bound_states, phase_shift
BASELINE = {
    "square well, 2 levels": (0.45, 0.90, 0.45),
    "p-wave well": (0.86, 2.0, 1.1),
    "rank-1 kernel": (6.9, 15.7, 7.9),
    "well + kernel": (6.0, 12.6, 6.7),
}


def corpus():
    ch_s, ch_p = qws.ChannelParams(q=3, l=0), qws.ChannelParams(q=3, l=1)
    bump = qws.gaussian_bump(center=0.5, width=0.15)
    return {
        "square well, 2 levels": (ch_s, qws.PotentialModel(
            r0=1.0, local=qws.square_well((2 * math.pi) ** 2))),
        "p-wave well": (ch_p, qws.PotentialModel(r0=1.0, local=qws.square_well(12.0))),
        "rank-1 kernel": (ch_p, qws.PotentialModel(r0=1.0, kernel=(bump,),
                                                   strengths=(-700.0,))),
        "well + kernel": (ch_s, qws.PotentialModel(r0=1.0, local=qws.square_well(3.0),
                                                   kernel=(bump,), strengths=(-120.0,))),
    }


STAGES = (
    ("continuation_count", lambda ch, pot: qws.continuation_count(ch, pot)),
    ("find_bound_states", lambda ch, pot: qws.find_bound_states(ch, pot)),
    ("phase_shift", lambda ch, pot: qws.phase_shift(ch, pot, 1.0)),
)


def main() -> int:
    print(f"{'entry':<22} {'stage':<19} {'time s':>8} {'baseline':>8} {'ratio':>6} "
          f"{'traced s':>8} {'solves':>7} {'rhs':>9}")
    for name, (ch, pot) in corpus().items():
        for (stage, fn), base in zip(STAGES, BASELINE[name]):
            t0 = time.perf_counter()
            fn(ch, pot)
            dt = time.perf_counter() - t0
            with Tracer() as tr:
                t0 = time.perf_counter()
                fn(ch, pot)
                dt_traced = time.perf_counter() - t0
            m = tr.layer_metrics(overhead_frac=dt_traced / dt - 1.0)
            solves = m["radial_ode.solves.local"] + m["radial_ode.solves.kernel"]
            print(f"{name:<22} {stage:<19} {dt:8.2f} {base:8.2f} {dt / base:6.2f} "
                  f"{dt_traced:8.2f} {solves:7d} {m['radial_ode.rhs_evals']:9d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
