"""qws benchmark runner: one workload, one seed, fresh processes.

    python3 perfbench/run.py --workload phase_local --seed 1 --seconds 20 --trace 0

Run from the root of a qws checkout; qws is imported from ./src.  The runner
pins the BLAS thread pools to one thread, unsets QWS_THREADS, times set-up in
several fresh processes, and runs the workload in one more fresh process
(perfbench/worker.py), so set-up time and peak memory belong to this
workload alone.  Jobs run as a closed loop: one client, one job at a time.

With --trace 0 the last line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics from a traced
pass (perfbench/tracer.py), and the lines before it also give the end-to-end
figures of the untraced pass run alongside.  Either way the lines before the
result list every figure by name with its unit, the accuracy figures, the
ids of failed jobs and the platform.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4          # extra fresh processes timing import + warm-up
RUN_LIMIT_S = 170.0       # hard limit for the whole run

END_TO_END_FROM_WORKER = ("wall_s", "cpu_s", "job_p50_s", "peak_rss_mb")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("QWS_THREADS", None)
    return env


def spawn(args, deadline: float) -> dict:
    """Run worker.py with ``args``; returns its last-line JSON or raises RuntimeError."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out: {' '.join(args)}") from exc
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def declared() -> dict:
    """Workload names and metric units, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = {key: {m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")}
    out["workloads"] = [w["name"] for w in spec["workloads"]]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    metrics_spec = declared()
    ap.add_argument("--workload", required=True, choices=metrics_spec["workloads"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (Path.cwd() / "src" / "qws" / "__init__.py").is_file():
        print("run.py: no qws sources under ./src; run from the root of a qws checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
        rep = spawn(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(rep)

    e2e = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
    e2e.update({k: rep[k] for k in END_TO_END_FROM_WORKER})
    attempted, failed = rep["attempted"], rep["failed"]
    correct = failed == 0
    if args.trace:
        correct = correct and rep["selfcheck_bitwise"] and rep["selfcheck_counts"]

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rep['jobs']} jobs, {rep['job_count']} job runs, "
          f"{rep.get('passes', 1)} timed pass(es)")
    print(f"# platform: nproc {rep['nproc']} (affinity {rep['affinity']}), "
          f"python {rep['python']}, numpy {rep['numpy']}, scipy {rep['scipy']}")
    samples = ", ".join(f"{s['setup_s']:.4f}" for s in setups)
    print(f"# setup_s samples: {samples}")
    print("# end-to-end, times in reference seconds"
          + (" (untraced pass)" if args.trace else ""))
    for name, unit in metrics_spec["end_to_end"].items():
        print(f"  {name} = {e2e[name]:.6g} {unit}")
    print("# the same times in raw seconds")
    print(f"  setup_raw_s = {statistics.median(s['setup_raw_s'] for s in setups):.6g} s")
    for name in ("wall_raw_s", "cpu_raw_s", "job_p50_raw_s"):
        print(f"  {name} = {rep[name]:.6g} s")
    print(f"  job_count = {rep['job_count']} count")
    print(f"  fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"  eta_err_max = {rep['eta_err_max']:.6g} rad")
    print(f"  level_rel_err_max = {rep['level_rel_err_max']:.6g} ratio")
    for jid, reason in rep["failed_ids"].items():
        print(f"  FAILED {jid}: {reason}")
    if args.trace:
        layers = rep["layers"]
        print("# per-layer (traced pass)")
        for name, unit in metrics_spec["per_layer"].items():
            print(f"  {name} = {layers[name]:.6g} {unit}")
        print(f"# tracer self-check, traced results bitwise equal to untraced: "
              f"{rep['selfcheck_bitwise']} {rep['selfcheck_mismatched'] or ''}")
        print(f"# tracer self-check, counts repeat exactly: {rep['selfcheck_counts']} "
              f"{'' if rep['selfcheck_counts'] else rep['counts']}")
        values = {name: layers[name] for name in metrics_spec["per_layer"]}
        units = metrics_spec["per_layer"]
    else:
        values = {name: e2e[name] for name in metrics_spec["end_to_end"]}
        units = metrics_spec["end_to_end"]
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
