"""Experiment configuration: strict line-oriented `key = value` files with
[section] headers.

Sections: [experiment] (version, task), [channel] (q, l), [potential]
(family + parameters + r0), repeatable [kernel.N] blocks, [scan] (grids and
coupling), optional [grid], [tolerances] and [output].  Unknown sections or
keys are rejected; the version key is mandatory.  ``validate`` reports every
violation at once instead of stopping at the first.
"""

from __future__ import annotations

import configparser
import csv as _csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, QwsError
from .model import ChannelParams
from .potentials import (KernelTerm, PotentialModel, gaussian_bump, poly_bump,
                         square_well, tabulated, truncated_exponential,
                         truncated_gaussian)
from .radial_ode import R_MIN_FRACTION
from .spectral import default_sturm_step

TASKS = ("eval-special", "solve", "phase-shift", "wronskian-audit",
         "bound-states", "levinson", "sturm-check")

CONFIG_VERSION = 1

_KNOWN_KEYS = {
    "experiment": {"version", "task"},
    "channel": {"q", "l"},
    "potential": {"family", "depth", "scale", "width", "r0", "table", "mu"},
    "kernel": {"family", "center", "width", "height", "a", "b", "strength"},
    "scan": {"k", "k_min", "k_max", "k_count", "e", "e_min", "e_max", "e_count",
             "mu", "mu_steps", "name", "nu", "x", "kind", "k_im", "de",
             "pair", "lambdas", "ks", "e_floor"},
    "grid": {"r_min", "r_max", "n_interior", "n_exterior"},
    "tolerances": {"ode", "eta", "root"},
    "output": {"metadata", "staircase"},
}

# required parameters per family, and the keys that must parse as numbers
_LOCAL_PARAMS = {"none": (), "square_well": ("depth",),
                 "truncated_exponential": ("depth", "scale"),
                 "truncated_gaussian": ("depth", "width"), "tabulated": ("table",)}
_KERNEL_PARAMS = {"gaussian_bump": ("center", "width", "strength"),
                  "poly_bump": ("a", "b", "strength")}
_NUMERIC = {
    "potential": ("depth", "scale", "width", "mu"),
    "kernel": ("center", "width", "height", "a", "b", "strength"),
    "grid": ("r_min", "r_max", "n_interior", "n_exterior"),
    "tolerances": ("ode", "eta", "root"),
}
# counts, which must be finite integers; the [grid] ones with their least value
_SCAN_COUNTS = ("k_count", "e_count", "mu_steps")
_GRID_COUNTS = {"n_interior": 5, "n_exterior": 2}
# the largest count of either kind: larger grids and scans are rejected before
# anything of that size is allocated
MAX_COUNT = 1_000_000


@dataclass
class ExperimentConfig:
    """Parsed experiment file, with raw strings kept for diagnostics."""

    task: str
    version: int
    channel: Dict[str, str] = field(default_factory=dict)
    potential: Dict[str, str] = field(default_factory=dict)
    kernels: List[Dict[str, str]] = field(default_factory=list)
    scan: Dict[str, str] = field(default_factory=dict)
    grid: Dict[str, str] = field(default_factory=dict)
    tolerances: Dict[str, str] = field(default_factory=dict)
    output: Dict[str, str] = field(default_factory=dict)
    source: str = ""


def parse_config(path_or_text) -> ExperimentConfig:
    """Parse a config file (path or raw text); raises ConfigError on malformed input."""
    if isinstance(path_or_text, (str, Path)) and "\n" not in str(path_or_text):
        text = Path(path_or_text).read_text(encoding="utf-8")
        source = str(path_or_text)
    else:
        text = str(path_or_text)
        source = "<inline>"
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str.lower
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if "experiment" not in cp:
        raise ConfigError("missing [experiment] section")
    exp = dict(cp["experiment"])
    if "version" not in exp:
        raise ConfigError("missing mandatory 'version' key in [experiment]")
    try:
        version = int(exp["version"])
    except ValueError as exc:
        raise ConfigError("version must be an integer") from exc
    task = exp.get("task", "")
    kernels = []
    for name in cp.sections():
        if name.startswith("kernel."):
            kernels.append(dict(cp[name]))
    cfg = ExperimentConfig(
        task=task, version=version,
        channel=dict(cp["channel"]) if "channel" in cp else {},
        potential=dict(cp["potential"]) if "potential" in cp else {},
        kernels=kernels,
        scan=dict(cp["scan"]) if "scan" in cp else {},
        grid=dict(cp["grid"]) if "grid" in cp else {},
        tolerances=dict(cp["tolerances"]) if "tolerances" in cp else {},
        output=dict(cp["output"]) if "output" in cp else {},
        source=source,
    )
    cfg._sections = [s for s in cp.sections()]  # type: ignore[attr-defined]
    return cfg


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _is_count(s: str) -> bool:
    """A finite integer value (``200``, ``2e2``), as every count key needs."""
    return _is_float(s) and math.isfinite(float(s)) and float(s).is_integer()


def validate(cfg: ExperimentConfig) -> List[str]:
    """All invariant violations at once (empty list = valid)."""
    diags: List[str] = []
    if cfg.version != CONFIG_VERSION:
        diags.append(f"unsupported config version {cfg.version} (expected {CONFIG_VERSION})")
    if cfg.task not in TASKS:
        diags.append(f"unknown task {cfg.task!r}; expected one of {', '.join(TASKS)}")
    sections = getattr(cfg, "_sections", [])
    for name in sections:
        base = "kernel" if name.startswith("kernel.") else name
        if base not in _KNOWN_KEYS:
            diags.append(f"unknown section [{name}]")
    for name, keys, store in (
        ("experiment", {"version", "task"}, {"version": "", "task": ""}),
        ("channel", _KNOWN_KEYS["channel"], cfg.channel),
        ("potential", _KNOWN_KEYS["potential"], cfg.potential),
        ("scan", _KNOWN_KEYS["scan"], cfg.scan),
        ("grid", _KNOWN_KEYS["grid"], cfg.grid),
        ("tolerances", _KNOWN_KEYS["tolerances"], cfg.tolerances),
        ("output", _KNOWN_KEYS["output"], cfg.output),
    ):
        for key in store:
            if key not in keys:
                diags.append(f"unknown key '{key}' in [{name}]")
    for i, kern in enumerate(cfg.kernels, 1):
        for key in kern:
            if key not in _KNOWN_KEYS["kernel"]:
                diags.append(f"unknown key '{key}' in [kernel.{i}]")

    q = l = None
    if cfg.task not in ("eval-special",):
        for key in ("q", "l"):
            if key not in cfg.channel:
                diags.append(f"missing '{key}' in [channel]")
            elif not _is_float(cfg.channel[key]):
                diags.append(f"[channel] {key} must be numeric")
            elif not math.isfinite(float(cfg.channel[key])):
                diags.append(f"[channel] {key} must be finite")
        if not diags or all(_is_float(cfg.channel.get(k, "x")) for k in ("q", "l")):
            q = float(cfg.channel.get("q", "nan"))
            l = float(cfg.channel.get("l", "nan"))
        if "r0" not in cfg.potential:
            diags.append("missing 'r0' in [potential]")
        elif not _is_float(cfg.potential["r0"]):
            diags.append("[potential] r0 must be numeric")
        elif not math.isfinite(float(cfg.potential["r0"])):
            diags.append("[potential] r0 must be finite")
        elif float(cfg.potential["r0"]) <= 0:
            diags.append("[potential] r0 must be positive")
        elif not _origin_finite(R_MIN_FRACTION * float(cfg.potential["r0"])):
            diags.append(f"[potential] r0 = {cfg.potential['r0']} is too small: the "
                         f"centrifugal term 1/r^2 overflows at r_min = {R_MIN_FRACTION:g} r0")

    if q is not None and l is not None and math.isfinite(q) and math.isfinite(l):
        lam = l + (q - 2) / 2
        if cfg.task in ("levinson", "bound-states", "sturm-check") and lam <= 0:
            diags.append(
                f"lambda = {lam} unsupported for task {cfg.task} "
                "(threshold-degenerate regime: need l + (q-2)/2 > 0)")

    r0 = None
    if _is_float(cfg.potential.get("r0", "")) and math.isfinite(float(cfg.potential["r0"])):
        r0 = float(cfg.potential["r0"])
    family = cfg.potential.get("family", "none")
    if family not in _LOCAL_PARAMS:
        diags.append(f"unknown potential family {family!r}")
    else:
        diags += _param_diags("potential", cfg.potential, _LOCAL_PARAMS[family],
                              _NUMERIC["potential"])
    for i, kern in enumerate(cfg.kernels, 1):
        fam = kern.get("family")
        if fam not in _KERNEL_PARAMS:
            diags.append(f"[kernel.{i}] unknown kernel family {fam!r}")
            continue
        bad = _param_diags(f"kernel.{i}", kern, _KERNEL_PARAMS[fam], _NUMERIC["kernel"])
        diags += bad
        if bad or r0 is None:
            continue
        try:
            term = _build_kernel(kern, r0)
        except QwsError as exc:
            diags.append(f"[kernel.{i}] {exc}")
            continue
        # material support beyond the cutoff, not a negligible tail
        if fam == "gaussian_bump" and abs(term.profile(r0)) > 1e-3 * _bump_peak(term):
            diags.append(
                f"[kernel.{i}] profile support reaches the cutoff r0 = {r0}: "
                "the kernel must vanish for r >= r0")
    for name, store in (("grid", cfg.grid), ("tolerances", cfg.tolerances)):
        diags += _param_diags(name, store, (), _NUMERIC[name])
    for key, val in cfg.tolerances.items():
        if _is_float(val) and float(val) <= 0:
            diags.append(f"[tolerances] {key} must be positive")
    diags += _grid_diags(cfg.grid, r0)

    for key in ("lambdas", "ks"):
        values = cfg.scan.get(key, "").split()
        if not all(_is_float(v) for v in values):
            diags.append(f"[scan] {key} must be a list of numbers")
        elif not all(math.isfinite(float(v)) for v in values):
            diags.append(f"[scan] {key} must be finite")
    for key, val in cfg.scan.items():
        if key in ("name", "kind", "pair", "lambdas", "ks"):
            continue
        if not _is_float(val):
            diags.append(f"[scan] {key} must be numeric")
        elif not math.isfinite(float(val)):
            diags.append(f"[scan] {key} must be finite")
        elif key == "de" and float(val) <= 0:
            diags.append("[scan] de must be positive")
        elif key == "e_floor" and float(val) >= 0:
            diags.append("[scan] e_floor must be negative")
        elif key == "mu_steps" and float(val) < 0:
            diags.append("[scan] mu_steps must be >= 0 (0: principal value only)")
        elif key in _SCAN_COUNTS and not _is_count(val):
            diags.append(f"[scan] {key} must be an integer")
        elif key in _SCAN_COUNTS and float(val) > MAX_COUNT:
            diags.append(f"[scan] {key} must be at most {MAX_COUNT}")
    for gk in ("k", "e"):
        lo, hi, cnt = (cfg.scan.get(f"{gk}_min"), cfg.scan.get(f"{gk}_max"),
                       cfg.scan.get(f"{gk}_count"))
        if (lo is None) != (hi is None):
            diags.append(f"[scan] {gk}_min and {gk}_max must be given together")
        if lo is not None and hi is not None and _is_float(lo) and _is_float(hi):
            if float(lo) >= float(hi):
                diags.append(f"[scan] {gk}_min must be < {gk}_max")
            if cnt is not None and _is_count(cnt) and float(cnt) < 2:
                diags.append(f"[scan] {gk}_count must be >= 2")
    if cfg.task == "sturm-check":
        diags += _stencil_diags(cfg.scan)
    return diags


def _stencil_diags(scan: Dict[str, str]) -> List[str]:
    """sturm-check needs E + dE < 0 at each E; E + dE grows with E, so the top E decides."""
    top, de = scan.get("e_max" if "e_min" in scan else "e"), scan.get("de")
    if top is None or not all(_is_float(v) and math.isfinite(float(v)) for v in (top, de or top)):
        return []   # missing or reported above
    E = float(top)
    dE = float(de) if de else default_sturm_step(E)
    return [] if E + dE < 0 else [f"[scan] sturm-check needs E + dE < 0 at every energy; "
                                  f"E = {E:g} with dE = {dE:g} reaches {E + dE:g}"]


def _param_diags(section: str, store: Dict[str, str], required: Tuple[str, ...],
                 numeric: Tuple[str, ...]) -> List[str]:
    """Missing required keys and non-numeric or non-finite values of one section."""
    diags = [f"[{section}] missing '{key}'" for key in required if key not in store]
    for key in numeric:
        if key not in store:
            continue
        if not _is_float(store[key]):
            diags.append(f"[{section}] {key} must be numeric")
        elif not math.isfinite(float(store[key])):
            diags.append(f"[{section}] {key} must be finite")
    return diags


def _origin_finite(r_min: float) -> bool:
    """1/r_min^2 is finite: r * r neither underflows to 0 nor leaves 1/(r * r) infinite."""
    sq = r_min * r_min
    return sq > 0 and math.isfinite(1.0 / sq)


def _grid_diags(grid: Dict[str, str], r0: Optional[float]) -> List[str]:
    """Range checks of the finite [grid] values: 0 < r_min < r0 <= r_max, node counts."""
    vals = {k: float(v) for k, v in grid.items()
            if k in _NUMERIC["grid"] and _is_float(v) and math.isfinite(float(v))}
    diags = []
    if "r_min" in vals and vals["r_min"] <= 0:
        diags.append("[grid] r_min must be positive")
    elif "r_min" in vals and not _origin_finite(vals["r_min"]):
        diags.append(f"[grid] r_min = {vals['r_min']:g} is too small: "
                     "the centrifugal term 1/r^2 overflows there")
    elif r0 is not None and vals.get("r_min", 0.0) >= r0:
        diags.append(f"[grid] r_min must be below r0 = {r0}")
    if r0 is not None and vals.get("r_max", r0) < r0:
        diags.append(f"[grid] r_max must be at least r0 = {r0}")
    for key, least in _GRID_COUNTS.items():
        if not float(vals.get(key, least)).is_integer():
            diags.append(f"[grid] {key} must be an integer")
        elif vals.get(key, least) < least:
            diags.append(f"[grid] {key} must be >= {least}")
        elif vals.get(key, least) > MAX_COUNT:
            diags.append(f"[grid] {key} must be at most {MAX_COUNT}")
    return diags


def _bump_peak(term: KernelTerm) -> float:
    params = dict(term.params)
    return abs(params.get("height", 1.0))


def _build_kernel(kern: Dict[str, str], r0: float) -> KernelTerm:
    fam = kern["family"]
    if fam == "gaussian_bump":
        return gaussian_bump(center=float(kern["center"]),
                             width=float(kern["width"]),
                             height=float(kern.get("height", "1")))
    if fam == "poly_bump":
        return poly_bump(a=float(kern["a"]), b=float(kern["b"]), r0=r0,
                         height=float(kern.get("height", "1")))
    raise ConfigError(f"unknown kernel family {fam!r}")


def build_channel(cfg: ExperimentConfig) -> ChannelParams:
    return ChannelParams(q=float(cfg.channel["q"]), l=float(cfg.channel["l"]))


def build_potential(cfg: ExperimentConfig) -> PotentialModel:
    r0 = float(cfg.potential["r0"])
    family = cfg.potential.get("family", "none")
    if family == "none":
        local = None
    elif family == "square_well":
        local = square_well(float(cfg.potential["depth"]))
    elif family == "truncated_exponential":
        local = truncated_exponential(float(cfg.potential["depth"]),
                                      float(cfg.potential["scale"]))
    elif family == "truncated_gaussian":
        local = truncated_gaussian(float(cfg.potential["depth"]),
                                   float(cfg.potential["width"]))
    elif family == "tabulated":
        rows = _read_table(Path(cfg.potential["table"]))
        local = tabulated([r for r, _ in rows], [v for _, v in rows])
    else:
        raise ConfigError(f"unknown potential family {family!r}")
    kernels = tuple(_build_kernel(k, r0) for k in cfg.kernels)
    strengths = tuple(float(k["strength"]) for k in cfg.kernels)
    mu = float(cfg.potential.get("mu", "1"))
    return PotentialModel(r0=r0, local=local, kernel=kernels,
                          strengths=strengths, mu=mu)


def _read_table(path: Path) -> List[Tuple[float, float]]:
    """Two-column (r, V) CSV; a non-numeric first row is treated as a header."""
    rows: List[Tuple[float, float]] = []
    try:
        with path.open(newline="") as fh:
            for i, row in enumerate(_csv.reader(fh)):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < 2:
                    raise ConfigError(f"{path}: row {i + 1} needs two columns")
                try:
                    rows.append((float(row[0]), float(row[1])))
                except ValueError:
                    if i == 0:
                        continue
                    raise ConfigError(f"{path}: non-numeric row {i + 1}")
    except OSError as exc:
        raise ConfigError(f"cannot read table {path}: {exc}") from exc
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least two data rows")
    return rows


def scan_floats(cfg: ExperimentConfig, prefix: str) -> Optional[np.ndarray]:
    """Build the grid `prefix`_min/_max/_count from [scan], or a single `prefix` value."""
    s = cfg.scan
    if f"{prefix}_min" in s:
        lo, hi = float(s[f"{prefix}_min"]), float(s[f"{prefix}_max"])
        n = int(float(s.get(f"{prefix}_count", "50")))
        return np.linspace(lo, hi, n)
    if prefix in s:
        return np.array([float(s[prefix])])
    return None
