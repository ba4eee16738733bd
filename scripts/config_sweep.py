#!/usr/bin/env python3
"""Mutation sweep over the shipped configs, run in process through ``qws.cli.main``.

Every numeric key of every config (a key whose value parses as a float) is
set, one at a time, to each value of a list of malformed or extreme values,
and the mutated config runs through the CLI with ``--no-metadata``.  The
local families no shipped config uses, the truncated gaussian and
exponential, are swept as variants of one shipped config's text, made in
memory: a file under ``configs/`` would also join the benchmark.  So are
the four Bessel functions of ``eval-special``, as variants of the gamma
config at nu = 1.5, x = 2.5, and ``[tolerances] root`` of the kernel
bound-state config, which ships without it, over every value and one below
the float spacing.  Every run must end with a documented exit
code: 0 (ran), 2 (config), 3 (numeric) or 4 (inconclusive), and a Bessel
variant's run with the one ``special_exit`` names.  An exit 1, any other
code, an exception escaping ``cli.main``, a numpy ``RuntimeWarning``
escaping it (overflow or NaN arithmetic left unguarded), or a run that
takes longer than ``TIME_LIMIT_S`` (stopped in process by a timer signal,
so that a hang fails the sweep rather than stalls it) is a failure.
Prints one line per failure and the totals, and exits 1 when anything
failed.

    PYTHONPATH=src python3 scripts/config_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import math
import signal
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

from qws import cli

ROOT = Path(__file__).resolve().parents[1]
VALUES = ("0", "-1", "0.5", "2.5", "nan", "inf", "-inf", "1e-300", "1e300", "abc", "")
DOCUMENTED_EXITS = (0, 2, 3, 4)
# (family, its shape-parameter line) swapped for the square well of VARIANT_BASE
FAMILY_VARIANTS = (("truncated_gaussian", "width = 0.5"), ("truncated_exponential", "scale = 0.5"))
VARIANT_BASE = "levinson_two_levels.cfg"
# eval-special functions swapped, with nu and x, for the gamma function of SPECIAL_BASE
SPECIAL_FUNCTIONS = ("bessel_j", "bessel_y", "bessel_i", "bessel_k")
SPECIAL_BASE = "eval_gamma.cfg"
SPECIAL_LINES = "name = gamma\nx = 0.5\n"
# [tolerances] root swept on ROOT_BASE, over VALUES and one tolerance below the float spacing
ROOT_BASE = "bound_states_kernel.cfg"
ROOT_VALUES = VALUES + ("1e-17",)
TIME_LIMIT_S = 20.0     # per run; a run still going then is a hang


class RunTimeout(BaseException):
    """Raised by the timer signal into a run past its limit; ``except Exception`` lets it by."""


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


def special_variants(text: str) -> List[Tuple[str, str]]:
    """(name, text) of ``text`` with its gamma function swapped for each of SPECIAL_FUNCTIONS."""
    if SPECIAL_LINES not in text:
        raise ValueError(f"{SPECIAL_BASE} no longer evaluates gamma at x = 0.5")
    return [(f"{SPECIAL_BASE}[{name}]",
             text.replace(SPECIAL_LINES, f"name = {name}\nnu = 1.5\nx = 2.5\n"))
            for name in SPECIAL_FUNCTIONS]


def root_variant(text: str) -> List[Tuple[str, str]]:
    """(name, text) of ``text`` with a ``[tolerances] root`` line at the default 1e-10."""
    if "[tolerances]" in text:
        raise ValueError(f"{ROOT_BASE} now holds a [tolerances] section")
    return [(f"{ROOT_BASE}[root]", text.rstrip("\n") + "\n\n[tolerances]\nroot = 1e-10\n")]


def special_exit(name: str, key: str, value: str) -> int:
    """The exit code a Bessel variant ``name`` must end with when ``key`` reads ``value``.

    2 for a value that is no finite number; 3 outside the envelope (nu in
    [0, 50], x in (0, 1e3]) and where Y, I/K or a derivative overflows at
    x -> 0 (J has a limit at x = 0); else 0.
    """
    try:
        v = float(value)
    except ValueError:
        return 2
    if not math.isfinite(v):
        return 2
    if v < 0.0 or v > (50.0 if key == "nu" else 1e3):
        return 3
    if key == "x" and v <= 1e-300 and not name.endswith("[bessel_j]"):
        return 3
    return 0


def shipped(paths: Iterable[Path]) -> List[Tuple[str, str]]:
    """(name, text) of each config file."""
    return [(Path(path).name, Path(path).read_text()) for path in paths]


def task_of(text: str) -> str:
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() == "task":
            return value.strip()
    raise ValueError("config names no task")


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise :class:`RunTimeout` in the block once it has run ``seconds`` (main thread only)."""
    def expire(signum, frame):
        raise RunTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_one(text: str, task: str, workdir: Path, expected: int = None) -> str:
    """Run one config through cli.main; '' when it ends with a documented exit, else why not.

    With ``expected`` the run must end with that exit code, and every run
    within ``TIME_LIMIT_S``.
    """
    cfg = workdir / "mutated.cfg"
    cfg.write_text(text)
    stderr = io.StringIO()
    try:
        with (contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught,
              time_limit(TIME_LIMIT_S)):
            warnings.simplefilter("always", RuntimeWarning)
            code = cli.main([task, "--config", str(cfg), "--out", str(workdir / "out"),
                             "--no-metadata"])
    except RunTimeout:
        return f"timeout: still running after {TIME_LIMIT_S:g} s"
    except Exception:   # the sweep reports any escaping exception as a failure
        return "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    if code not in DOCUMENTED_EXITS or expected not in (None, code):
        want = "" if expected is None else f" (expected {expected})"
        return f"exit {code}{want}: {stderr.getvalue().strip()[-200:]}"
    leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if leaked:
        w = leaked[0]
        return (f"{len(leaked)} RuntimeWarning(s), first {Path(w.filename).name}:{w.lineno}: "
                f"{w.message}")
    return ""


def sweep(configs: Iterable[Tuple[str, str]], values: Sequence[str] = VALUES,
          workdir: Path = None, expected_exit=None,
          keys: Sequence[str] = None) -> Tuple[int, List[str]]:
    """Run every ((name, text) config, numeric key, value); returns (runs, one line per failure).

    ``keys``, when given, limits the sweep to those keys, and
    ``expected_exit(name, key, value)`` names the exit code each run must
    end with.
    """
    failures = []
    runs = 0
    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for name, text in configs:
            task = task_of(text)
            for line, key in numeric_keys(text):
                if keys is not None and key not in keys:
                    continue
                for value in values:
                    runs += 1
                    expected = None if expected_exit is None else expected_exit(name, key, value)
                    why = run_one(mutated(text, line, value), task, workdir, expected)
                    if why:
                        failures.append(f"{name}: {key} = {value!r}: {why}")
    return runs, failures


def main() -> int:
    t0 = time.perf_counter()
    configs = shipped(sorted((ROOT / "configs").glob("*.cfg")))
    runs, failures = sweep(configs + family_variants(dict(configs)[VARIANT_BASE]))
    special_runs, special_failures = sweep(special_variants(dict(configs)[SPECIAL_BASE]),
                                           expected_exit=special_exit, keys=("nu", "x"))
    root_runs, root_failures = sweep(root_variant(dict(configs)[ROOT_BASE]), ROOT_VALUES,
                                     keys=("root",))
    runs += special_runs + root_runs
    failures += special_failures + root_failures
    for line in failures:
        print(line)
    print(f"{runs} runs, {len(failures)} failures, {time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
