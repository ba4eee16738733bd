"""Batch front door: parse an experiment config, run one task, write tables.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 inconclusive
verification.  Outputs are deterministic: identical config and build give
byte-identical files (the optional metadata block, which carries a
timestamp, can be disabled with --no-metadata).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import specfun
from .config import (ExperimentConfig, build_channel, build_potential,
                     parse_config, scan_floats, validate)
from .errors import (AmbiguousCrossingError, ConfigError,
                     NearThresholdResonanceError, QwsError)
from .model import ChannelParams, EnergyValue, effective_equation
from .radial_ode import integrate_jost, make_grid, solve_nonlocal
from .scattering import (log_derivative_interior, low_k_phase_asymptotic, phase_shift,
                         wronskian_pair_jost, wronskian_pair_phi)
from .spectral import find_bound_states, levinson_verify, sturm_liouville_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_INCONCLUSIVE = 4


def _fmt(x) -> str:
    """17-significant-digit decimal, '.' separator (round-trips doubles)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return format(float(x), ".17g")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence],
              metadata: Optional[dict]) -> None:
    lines = []
    if metadata:
        for k, v in metadata.items():
            lines.append(f"# {k} = {v}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: dict, metadata: Optional[dict]) -> None:
    doc = dict(payload)
    if metadata:
        doc["metadata"] = metadata
    path.write_text(json.dumps(doc, indent=2, allow_nan=True) + "\n",
                    encoding="utf-8")


def write_table(path: Path, header: Sequence[str], rows: Iterable[Sequence],
                fmt: str, metadata: Optional[dict]) -> None:
    """Tabular output as CSV (default) or as a JSON list of row objects."""
    if fmt == "json":
        rows_out = [dict(zip(header, [None if isinstance(x, float) and math.isnan(x)
                                      else x for x in row])) for row in rows]
        write_json(path, {"rows": rows_out}, metadata)
    else:
        write_csv(path, header, rows, metadata)


def _tolerance(cfg: ExperimentConfig, name: str, default: float) -> float:
    return float(cfg.tolerances.get(name, default))


def run_eval_special(cfg: ExperimentConfig, out: Path, fmt: str, metadata) -> int:
    name = cfg.scan.get("name", "")
    nu = float(cfg.scan.get("nu", "0"))
    x = float(cfg.scan.get("x", "0"))
    if name == "gamma":
        val = specfun.gamma(x)
        rec = {"value": val, "derivative": None}
    elif name in ("bessel_j", "bessel_y"):
        rep = (specfun.bessel_j if name == "bessel_j" else specfun.bessel_y)(nu, x)
        rec = {"value": rep.value, "derivative": rep.derivative}
    elif name in ("bessel_i", "bessel_k"):
        pair = specfun.bessel_i_k(nu, x)
        if name == "bessel_i":
            rec = {"value": pair.i_value, "derivative": pair.i_derivative}
        else:
            rec = {"value": pair.k_value, "derivative": pair.k_derivative}
    else:
        raise ConfigError(f"eval-special: unknown function {name!r}")
    write_json(out, rec, metadata)
    return EXIT_OK


def run_solve(cfg: ExperimentConfig, out: Path, fmt: str, metadata) -> int:
    channel = build_channel(cfg)
    potential = build_potential(cfg)
    grid = _grid_from_cfg(cfg, potential.r0)
    kind = cfg.scan.get("kind", "regular")
    mu = float(cfg.scan.get("mu", potential.mu))
    potential = potential.with_mu(mu)
    if kind == "regular":
        k = float(cfg.scan.get("k", "1"))
        eq = effective_equation(channel, potential, EnergyValue.from_k(k))
        sol = solve_nonlocal(eq, grid, _tolerance(cfg, "ode", 1e-10))
    elif kind == "jost":
        k = complex(float(cfg.scan.get("k", "1")), float(cfg.scan.get("k_im", "0")))
        eq = effective_equation(channel, potential, EnergyValue(E=k * k))
        sol = integrate_jost(eq, grid, k, _tolerance(cfg, "ode", 1e-10))
    else:
        raise ConfigError(f"solve: unknown kind {kind!r}")
    rows = [(r, y.real, y.imag, dy.real, dy.imag)
            for r, y, dy in zip(grid.nodes, sol.y, sol.dy)]
    write_table(out, ["r", "re_y", "im_y", "re_dy", "im_dy"], rows, fmt, metadata)
    return EXIT_OK


def run_phase_shift(cfg: ExperimentConfig, out: Path, fmt: str, metadata) -> int:
    channel = build_channel(cfg)
    potential = build_potential(cfg)
    ks = scan_floats(cfg, "k")
    if ks is None:
        raise ConfigError("phase-shift needs a k grid in [scan]")
    mu = float(cfg.scan.get("mu", "1"))
    mu_steps = int(float(cfg.scan.get("mu_steps", "200"))) or None
    tol = _tolerance(cfg, "ode", 1e-10)
    r0 = potential.r0
    A0 = _zero_energy_A(channel, potential, mu, tol)

    def one(k: float):
        res = phase_shift(channel, potential, float(k), mu=mu, tol=tol,
                          mu_steps=mu_steps, with_fit=False)
        if k * r0 < 0.1 and A0 is not None:
            try:
                tan520 = low_k_phase_asymptotic(channel, A0, float(k), r0)
            except (NearThresholdResonanceError, QwsError):
                tan520 = math.nan
        else:
            tan520 = math.nan
        return (k, mu, res.eta_raw, res.eta,
                res.A if res.A is not None else math.nan, res.tan_eta, tan520)

    rows = [one(float(k)) for k in ks]
    write_table(out, ["k", "mu", "eta_raw", "eta_unwrapped", "A",
                      "tan_eta_matching", "tan_eta_lowk"], rows, fmt, metadata)
    return EXIT_OK


def _zero_energy_A(channel, potential, mu, tol) -> Optional[float]:
    try:
        eq = effective_equation(channel, potential.with_mu(mu),
                                EnergyValue(E=-1e-12))
        return log_derivative_interior(eq, tol).A.real
    except QwsError:
        return None


def run_wronskian_audit(cfg: ExperimentConfig, out: Path, fmt: str, metadata) -> int:
    channel = build_channel(cfg)
    potential = build_potential(cfg)
    pair = cfg.scan.get("pair", "f")
    tol = _tolerance(cfg, "ode", 1e-12)
    lams = [float(s) for s in cfg.scan.get("lambdas", "").split()] or [channel.lam]
    ks = [float(s) for s in cfg.scan.get("ks", "1").split()]
    reports = []
    for lam in lams:
        ch = ChannelParams.from_lambda(lam, q=channel.q)
        for k in ks:
            if pair == "phi":
                rep = wronskian_pair_phi(ch, potential, k, tol=tol)
            elif pair == "f":
                rep = wronskian_pair_jost(ch, potential, k, tol=tol)
            else:
                raise ConfigError(f"wronskian-audit: unknown pair {pair!r}")
            reports.append({
                "pair": rep.pair, "lambda": lam, "k": k,
                "expected_re": rep.expected.real if isinstance(rep.expected, complex)
                else float(rep.expected),
                "expected_im": rep.expected.imag if isinstance(rep.expected, complex)
                else 0.0,
                "max_abs_deviation": rep.max_abs_deviation,
                "stddev": rep.stddev,
                "pass": rep.passes(),
            })
    write_json(out, {"reports": reports}, metadata)
    return EXIT_OK


def run_bound_states(cfg: ExperimentConfig, out: Path, fmt: str, metadata) -> int:
    channel = build_channel(cfg)
    potential = build_potential(cfg)
    mu = float(cfg.scan.get("mu", "1"))
    e_floor = cfg.scan.get("e_floor")
    states = find_bound_states(
        channel, potential, mu=mu,
        E_floor=float(e_floor) if e_floor is not None else None,
        tol=_tolerance(cfg, "root", 1e-10),
        ode_tol=_tolerance(cfg, "ode", 1e-10))
    if fmt == "csv":
        rows = [(s.E, s.kappa, s.matching_residual) for s in states]
        write_table(out, ["E", "kappa", "matching_residual"], rows, "csv", metadata)
        return EXIT_OK
    levels = [{"E": s.E, "kappa": s.kappa,
               "matching_residual": s.matching_residual} for s in states]
    write_json(out, {"mu": mu, "count": len(states), "levels": levels}, metadata)
    return EXIT_OK


def run_levinson(cfg: ExperimentConfig, out: Path, fmt: str, metadata) -> int:
    channel = build_channel(cfg)
    potential = build_potential(cfg)
    tol_eta = _tolerance(cfg, "eta", 1e-2)
    tol = _tolerance(cfg, "ode", 1e-9)
    report = levinson_verify(channel, potential, tol_eta=tol_eta, tol=tol)
    payload = {"eta0": report.eta0, "n": report.n_direct,
               "n_continuation": report.n_continuation,
               "pass": report.passed, "status": report.status,
               "reason": report.reason}
    write_json(out, payload, metadata)
    staircase = cfg.output.get("staircase")
    cont = report.continuation
    if staircase and cont is not None:
        rows = [(m, a, s) for m, a, s in
                zip(cont.mu_grid, cont.A_samples, cont.eta0_staircase)]
        write_csv(Path(staircase), ["mu", "A_threshold", "eta0_staircase"],
                  rows, metadata)
    if report.status == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def run_sturm_check(cfg: ExperimentConfig, out: Path, fmt: str, metadata) -> int:
    channel = build_channel(cfg)
    potential = build_potential(cfg)
    es = scan_floats(cfg, "e")
    if es is None:
        raise ConfigError("sturm-check needs an E grid in [scan]")
    mu = float(cfg.scan.get("mu", "1"))
    de = cfg.scan.get("de")
    tol = _tolerance(cfg, "ode", 1e-10)

    def one(E: float):
        rep = sturm_liouville_check(channel, potential, mu, float(E),
                                    dE=float(de) if de else None, tol=tol)
        return (rep.E, rep.dE, rep.slope_interior_fd, rep.slope_interior_quad,
                rep.slope_exterior_fd, rep.slope_exterior_quad)

    rows = [one(float(e)) for e in es]
    write_table(out, ["E", "dE", "slope_interior_fd", "slope_interior_quad",
                      "slope_exterior_fd", "slope_exterior_quad"], rows, fmt, metadata)
    return EXIT_OK


_RUNNERS = {
    "eval-special": run_eval_special,
    "solve": run_solve,
    "phase-shift": run_phase_shift,
    "wronskian-audit": run_wronskian_audit,
    "bound-states": run_bound_states,
    "levinson": run_levinson,
    "sturm-check": run_sturm_check,
}

# first entry is the task's native format
_FORMATS = {
    "eval-special": ("json",),
    "solve": ("csv", "json"),
    "phase-shift": ("csv", "json"),
    "wronskian-audit": ("json",),
    "bound-states": ("json", "csv"),
    "levinson": ("json",),
    "sturm-check": ("csv", "json"),
}


def _grid_from_cfg(cfg: ExperimentConfig, r0: float):
    g = cfg.grid
    return make_grid(
        r0,
        r_min=float(g["r_min"]) if "r_min" in g else None,
        r_max=float(g["r_max"]) if "r_max" in g else None,
        n_interior=int(float(g.get("n_interior", "801"))),
        n_exterior=int(float(g.get("n_exterior", "161"))),
    )


def run(cfg: ExperimentConfig, out: Path, fmt: str = "csv",
        with_metadata: bool = True) -> int:
    """Validate and execute one config; returns the process exit code."""
    diags = validate(cfg)
    if diags:
        for d in diags:
            print(f"config: {d}", file=sys.stderr)
        return EXIT_CONFIG
    metadata = None
    if with_metadata and cfg.output.get("metadata", "true").lower() != "false":
        metadata = {"task": cfg.task, "config": cfg.source,
                    "created": time.strftime("%Y-%m-%dT%H:%M:%S")}
    try:
        return _RUNNERS[cfg.task](cfg, out, fmt, metadata)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AmbiguousCrossingError, NearThresholdResonanceError) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        print(f"error-category: inconclusive", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except QwsError as exc:
        print(f"numeric: {exc}", file=sys.stderr)
        print(f"error-category: {type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qws",
        description="Radial scattering in q dimensions: phase shifts, bound "
                    "states, zero-momentum checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=True, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--no-metadata", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.task and cfg.task != args.command:
        print(f"config: task {cfg.task!r} does not match subcommand "
              f"{args.command!r}", file=sys.stderr)
        return EXIT_CONFIG
    fmt = args.format or _FORMATS[args.command][0]
    if fmt not in _FORMATS[args.command]:
        print(f"config: task {args.command!r} does not support --format {fmt}",
              file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg, Path(args.out), fmt=fmt,
               with_metadata=not args.no_metadata)


if __name__ == "__main__":
    sys.exit(main())
