#!/usr/bin/env python3
"""Mutation sweep over the shipped configs, run in process through ``qws.cli.main``.

Every numeric key of every config (a key whose value parses as a float) is
set, one at a time, to each value of a list of malformed or extreme values,
and the mutated config runs through the CLI with ``--no-metadata``.  The
local families no shipped config uses, the truncated gaussian and
exponential, are swept as variants of one shipped config's text, made in
memory: a file under ``configs/`` would also join the benchmark.  Every
run must end with a documented exit code: 0 (ran), 2 (config), 3 (numeric)
or 4 (inconclusive).  An exit 1, any other code, or an exception escaping
``cli.main`` is a failure.  Prints one line per failure and the totals, and
exits 1 when anything failed.

    PYTHONPATH=src python3 scripts/config_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

from qws import cli

ROOT = Path(__file__).resolve().parents[1]
VALUES = ("0", "-1", "0.5", "2.5", "nan", "inf", "-inf", "1e-300", "1e300", "abc", "")
DOCUMENTED_EXITS = (0, 2, 3, 4)
# (family, its shape-parameter line) swapped for the square well of VARIANT_BASE
FAMILY_VARIANTS = (("truncated_gaussian", "width = 0.5"), ("truncated_exponential", "scale = 0.5"))
VARIANT_BASE = "levinson_two_levels.cfg"


def numeric_keys(text: str) -> List[Tuple[int, str]]:
    """(line index, key) of every ``key = value`` line whose value parses as a float."""
    keys = []
    for i, line in enumerate(text.splitlines()):
        key, sep, value = line.partition("=")
        if not sep or line.lstrip().startswith(("#", ";", "[")):
            continue
        try:
            float(value)
        except ValueError:
            continue
        keys.append((i, key.strip()))
    return keys


def mutated(text: str, line: int, value: str) -> str:
    """``text`` with the value on line ``line`` replaced by ``value``."""
    lines = text.splitlines()
    lines[line] = f"{lines[line].partition('=')[0].rstrip()} = {value}"
    return "\n".join(lines) + "\n"


def family_variants(text: str) -> List[Tuple[str, str]]:
    """(name, text) of ``text`` with its square well swapped for each family of FAMILY_VARIANTS."""
    if "family = square_well\n" not in text:
        raise ValueError(f"{VARIANT_BASE} no longer holds a square well")
    return [(f"{VARIANT_BASE}[{family}]",
             text.replace("family = square_well\n", f"family = {family}\n{shape}\n"))
            for family, shape in FAMILY_VARIANTS]


def shipped(paths: Iterable[Path]) -> List[Tuple[str, str]]:
    """(name, text) of each config file."""
    return [(Path(path).name, Path(path).read_text()) for path in paths]


def task_of(text: str) -> str:
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == "task":
            return value.strip()
    raise ValueError("config names no task")


def run_one(text: str, task: str, workdir: Path) -> str:
    """Run one config through cli.main; '' when it ends with a documented exit, else why not."""
    cfg = workdir / "mutated.cfg"
    cfg.write_text(text)
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main([task, "--config", str(cfg), "--out", str(workdir / "out"),
                             "--no-metadata"])
    except Exception:   # the sweep reports any escaping exception as a failure
        return "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    if code in DOCUMENTED_EXITS:
        return ""
    return f"exit {code}: {stderr.getvalue().strip()[-200:]}"


def sweep(configs: Iterable[Tuple[str, str]], values: Sequence[str] = VALUES,
          workdir: Path = None) -> Tuple[int, List[str]]:
    """Run every ((name, text) config, numeric key, value); returns (runs, one line per failure)."""
    failures = []
    runs = 0
    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for name, text in configs:
            task = task_of(text)
            for line, key in numeric_keys(text):
                for value in values:
                    runs += 1
                    why = run_one(mutated(text, line, value), task, workdir)
                    if why:
                        failures.append(f"{name}: {key} = {value!r}: {why}")
    return runs, failures


def main() -> int:
    t0 = time.perf_counter()
    configs = shipped(sorted((ROOT / "configs").glob("*.cfg")))
    runs, failures = sweep(configs + family_variants(dict(configs)[VARIANT_BASE]))
    for line in failures:
        print(line)
    print(f"{runs} runs, {len(failures)} failures, {time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
