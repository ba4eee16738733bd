"""One benchmark process: set up qws, build a workload, run and check it.

Started by run.py with the BLAS thread variables already pinned, so that
numpy sees them on import.  Prints one JSON object on its last stdout line.

Times are reported in reference seconds.  The machine's speed drifts by
10-30 % over seconds to minutes on a shared 2-vCPU sandbox, and a fixed
pure-Python loop slows down with it.  So the loop runs before the first job
and after each one.  A pass's wall and CPU time are divided by the median of
its loop times over CAL_REF_S, the loop's typical time on a 2-vCPU x86
sandbox with Python 3.11; each job's latency is divided by the mean of the
two loop times around it.  Pass times count the jobs only, not the loops or
the checks.  The raw seconds are reported beside the normalised ones.

    python3 perfbench/worker.py --workload kernel --seed 1 --seconds 20 --trace 0
    python3 perfbench/worker.py --setup-only
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

CAL_LOOPS = 500_000
CAL_REF_S = 0.05


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    t = time.perf_counter()
    s = 0.0
    for i in range(CAL_LOOPS):
        s += math.sqrt(i)
    return time.perf_counter() - t


def setup():
    """Import qws from the checkout's sources and run one warm-up solve."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qws
    ch = qws.ChannelParams(q=3, l=0)
    pot = qws.PotentialModel(r0=1.0, local=qws.square_well(4.0))
    qws.phase_shift(ch, pot, 1.0, mu_steps=None, with_fit=False)
    raw = time.perf_counter() - t0
    speed = statistics.median(calibrate() for _ in range(3)) / CAL_REF_S
    return qws, raw, raw / speed


class Pass:
    """One run of every job, with raw and speed-normalised times."""

    def __init__(self, jobs):
        self.results, self.latencies, self.latencies_raw = [], [], []
        self.wall_raw = self.cpu_raw = 0.0
        loops = [calibrate()]
        for job in jobs:
            t, c = time.perf_counter(), time.process_time()
            try:
                res = job.run()
            except Exception as exc:  # a failed job is recorded, never retried
                res = exc
            lat, dc = time.perf_counter() - t, time.process_time() - c
            loops.append(calibrate())
            self.results.append(res)
            self.latencies.append(lat * 2.0 * CAL_REF_S / (loops[-2] + loops[-1]))
            self.latencies_raw.append(lat)
            self.wall_raw += lat
            self.cpu_raw += dc
        speed = statistics.median(loops) / CAL_REF_S
        self.wall, self.cpu = self.wall_raw / speed, self.cpu_raw / speed


def check_pass(jobs, results, tally):
    """Check one pass's results; returns the list of fingerprints."""
    prints = []
    for job, res in zip(jobs, results):
        tally["attempted"] += 1
        if isinstance(res, Exception):
            ok, reason, errs, fp = False, f"{type(res).__name__}: {res}", {}, repr(res)
        else:
            try:
                ok, reason, errs, fp = job.check(res)
            except Exception as exc:
                ok, reason, errs, fp = False, f"check raised {type(exc).__name__}: {exc}", {}, ""
        for key, val in errs.items():
            tally[key] = max(tally[key], val)
        if not ok:
            tally["failed"] += 1
            tally["failed_ids"].setdefault(job.id, reason)
        prints.append(fp)
    return prints


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    qws, setup_raw, setup_s = setup()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    import numpy
    import scipy
    sys.path.insert(0, str(HERE))
    import workloads

    out_dir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, qws, ROOT, out_dir)
        tally = {"attempted": 0, "failed": 0, "failed_ids": {}, "eta": 0.0, "level": 0.0}
        report = {
            "workload": args.workload, "seed": args.seed, "jobs": len(jobs),
            "setup_s": setup_s, "setup_raw_s": setup_raw, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
        if args.trace:
            report.update(traced_run(jobs, tally))
        else:
            report.update(timed_run(jobs, tally, args.seconds))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report.update(attempted=tally["attempted"], failed=tally["failed"],
                  failed_ids=tally["failed_ids"], eta_err_max=tally["eta"],
                  level_rel_err_max=tally["level"])
    print(json.dumps(report))
    return 0


def summary(passes):
    """End-to-end figures over the timed passes: medians, normalised and raw."""
    med = statistics.median
    return {
        "passes": len(passes),
        "wall_s": med(p.wall for p in passes), "cpu_s": med(p.cpu for p in passes),
        "job_p50_s": med(x for p in passes for x in p.latencies),
        "wall_raw_s": med(p.wall_raw for p in passes),
        "cpu_raw_s": med(p.cpu_raw for p in passes),
        "job_p50_raw_s": med(x for p in passes for x in p.latencies_raw),
        "job_count": sum(len(p.latencies) for p in passes),
    }


def timed_run(jobs, tally, seconds):
    """Closed loop: whole passes until the next one would overrun ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(Pass(jobs))
        check_pass(jobs, passes[-1].results, tally)
        if time.perf_counter() - t0 + statistics.median(p.wall_raw for p in passes) > seconds:
            break
    return summary(passes)


def traced_run(jobs, tally):
    """One untraced pass, then two traced passes, with the tracer self-checks."""
    from tracer import Tracer

    plain = Pass(jobs)
    prints0 = check_pass(jobs, plain.results, tally)
    traced = []
    for _ in range(2):
        with Tracer() as tr:
            p = Pass(jobs)
        traced.append((tr, p, check_pass(jobs, p.results, tally)))
    (tr_a, pass_a, prints_a), (tr_b, _, prints_b) = traced
    mismatched = [job.id for job, p0, pa, pb in zip(jobs, prints0, prints_a, prints_b)
                  if not (p0 == pa == pb)]
    counts_a, counts_b = tr_a.counts(), tr_b.counts()
    return {
        **summary([plain]),
        "layers": tr_a.layer_metrics(overhead_frac=pass_a.wall / plain.wall - 1.0),
        "selfcheck_bitwise": not mismatched, "selfcheck_mismatched": mismatched,
        "selfcheck_counts": counts_a == counts_b, "counts": [counts_a, counts_b],
    }


if __name__ == "__main__":
    sys.exit(main())
