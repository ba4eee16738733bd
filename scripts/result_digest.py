#!/usr/bin/env python3
"""Print the exact results of a benchmark workload and of the shipped configs.

    python3 scripts/result_digest.py --workload phase_local --seeds 1-5
    python3 scripts/result_digest.py --compare parent.txt change.txt

Runs every job of the workload (``perfbench/workloads.py``) once per seed,
untimed, and prints one line per job: the seed, the job id, the status of
its check and the fingerprint text that the job's check computes (floats as
hex, so equal text means bitwise-equal results).  Then, once, one line per
``configs/*.cfg``: the exit code and the sha256 of its ``--no-metadata``
CLI output.  Run it in two checkouts and ``diff`` the outputs to show that
a change leaves the numbers as they were.  Exits 1 when a job's check or a
config run fails.  Run from anywhere; qws is imported from this checkout's
``src``.

``--compare PARENT CHANGE`` reads two such outputs instead, for a change
that moves the numbers on purpose.  Per line (job or config) it prints the
largest relative move |a - b| / max(|a|, |b|) among its floats, with its
place among them and the two values, and whether a sha256 in it (the
output of a CLI job or config) changed; a last line gives the largest move
over all lines.  It exits 1 when a line is missing on one side, or when
anything but the floats and the sha256 differs: a check status, a count,
the shape or the integers of an event tuple, or an exit code.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("phase_local", "spectrum_local", "kernel", "cli_configs")
# a float as the fingerprints write it: float.hex, or inf / nan (a complex is
# two of them and a "j")
FLOAT = re.compile(r"-?0x[0-9a-f]+(?:\.[0-9a-f]*)?p[+-]\d+|(?<![\w.])-?(?:inf|nan)(?!\w)")
SHA256 = re.compile(r"\b[0-9a-f]{64}\b")


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


def parse_digest(text: str) -> dict:
    """{key: (the line without its floats and sha256s, [floats], [sha256s])} of a digest.

    Job lines are keyed by (seed, job id), config lines by their file name.
    """
    entries = {}
    for line in text.splitlines():
        words = line.split(" ", 3)
        if words[0] == "seed":
            key = (words[1], words[2])
        elif words[0] == "config":
            key = (words[1],)
        else:
            continue
        hashes = SHA256.findall(line)
        line = SHA256.sub("@", line)
        floats = [float.fromhex(x) if "0x" in x else float(x) for x in FLOAT.findall(line)]
        entries[key] = (FLOAT.sub("#", line), floats, hashes)
    return entries


def relative_move(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (NaN included), inf past a non-finite one."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(parent: str, change: str) -> int:
    """Print the moves between two digest outputs; 1 when anything but floats and sha256s differs."""
    old, new = parse_digest(parent), parse_digest(change)
    failed = 0
    largest = 0.0
    for key in sorted(old.keys() | new.keys()):
        name = f"seed {key[0]} {key[1]}" if len(key) == 2 else f"config {key[0]}"
        if key not in old or key not in new:
            print(f"{name}: only in {'CHANGE' if key in new else 'PARENT'}")
            failed += 1
            continue
        (shape_a, xs, sha_a), (shape_b, ys, sha_b) = old[key], new[key]
        if shape_a != shape_b or len(xs) != len(ys):
            print(f"{name}: DIFFERS beyond its floats\n  - {shape_a}\n  + {shape_b}")
            failed += 1
            continue
        moves = [relative_move(a, b) for a, b in zip(xs, ys)]
        i = max(range(len(moves)), key=moves.__getitem__, default=None)
        if i is None or moves[i] == 0.0:
            text = f"no move over {len(xs)} floats"
        else:
            largest = max(largest, moves[i])
            text = (f"largest relative move {moves[i]:.3g} over {len(xs)} floats,"
                    f" at float {i}: {xs[i]!r} -> {ys[i]!r}")
        if sha_a != sha_b:
            text += "; output bytes changed (sha256)"
        print(f"{name}: {text}")
    print(f"largest relative move over all lines: {largest:.3g}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seeds", type=seed_range, default=[1], help="a seed or a range, e.g. 1-5")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two saved outputs of this script instead")
    args = ap.parse_args(argv)
    if args.compare:
        parent, change = (Path(p).read_text() for p in args.compare)
        return compare(parent, change)
    if args.workload is None:
        ap.error("one of --workload and --compare is required")
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
