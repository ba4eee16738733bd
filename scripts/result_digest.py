#!/usr/bin/env python3
"""Print the exact results of a benchmark workload and of the shipped configs.

    python3 scripts/result_digest.py --workload phase_local --seeds 1-5

Runs every job of the workload (``perfbench/workloads.py``) once per seed,
untimed, and prints one line per job: the seed, the job id, the status of
its check and the fingerprint text that the job's check computes (floats as
hex, so equal text means bitwise-equal results).  Then, once, one line per
``configs/*.cfg``: the exit code and the sha256 of its ``--no-metadata``
CLI output.  Run it in two checkouts and ``diff`` the outputs to show that
a change leaves the numbers as they were.  Exits 1 when a job's check or a
config run fails.  Run from anywhere; qws is imported from this checkout's
``src``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("phase_local", "spectrum_local", "kernel", "cli_configs")


def seed_range(text: str):
    """'3' -> [3]; '1-5' -> [1, 2, 3, 4, 5]."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def job_lines(workload: str, seed: int, qws, out_dir: Path):
    """(ok, line) for each job of ``workload`` at ``seed``."""
    import workloads
    for job in workloads.build(workload, seed, qws, ROOT, out_dir):
        try:
            ok, _, _, fp = job.check(job.run())
        except Exception as exc:   # recorded as the benchmark worker records it
            ok, fp = False, repr(exc)
        yield ok, f"seed {seed} {job.id} {'ok' if ok else 'FAIL'} {fp}"


def config_lines(out_dir: Path):
    """(ok, line) for each shipped config run through the CLI with --no-metadata."""
    import qws.cli as cli
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        cfg = configparser.ConfigParser()
        cfg.read(path)
        out = out_dir / f"{path.stem}.out"
        rc = cli.main([cfg["experiment"]["task"], "--config", str(path), "--out", str(out),
                       "--no-metadata"])
        digest = hashlib.sha256(out.read_bytes() if out.exists() else b"").hexdigest()
        yield rc == 0, f"config {path.name} exit {rc} sha256 {digest}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, default=[1], help="a seed or a range, e.g. 1-5")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import qws

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        lines = [line for seed in args.seeds
                 for line in job_lines(args.workload, seed, qws, out_dir)]
        lines += config_lines(out_dir)
        for ok, line in lines:
            failed += not ok
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
