"""The benchmark's four workloads: seeded inputs, the qws call each job makes,
and the check of its result against a scipy-only reference.

Every workload is a fixed list of jobs for a given seed.  The seed moves each
input inside a fixed cell (a coupling or depth range, a wavenumber bin, a
level count), so different seeds exercise different inputs while the work per
job stays comparable; see README.md for why each workload exists.

A job calls the public qws API through module attributes at call time, so
the tracer's wrappers see it.  ``run`` returns the raw result; ``check``
turns it into (ok, reason, errors, fingerprint), where the fingerprint is an
exact text form used to prove that traced and untraced results agree bit for
bit.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

import oracles as O

# check tolerances, fixed before any measurement
ETA_TOL = 1e-6            # rad, mod pi: qws integrates at rtol 1e-10
LEVINSON_ETA_TOL = 1e-2   # rad: the k -> 0 extrapolation; levinson_verify's own default
LOCAL_LEVEL_RTOL = 1e-8   # local levels: bisection at 1e-10 on an exact matching function
# kernel levels: qws takes the kernel moments by Simpson on its 401-node scan
# grid (about 2e-5 relative on the narrow rank-2 bumps), the reference by a
# 40k-interval trapezoid (about 3e-7)
KERNEL_LEVEL_RTOL = 1e-4
WAVE_RTOL = 1e-6          # solve: sampled y against the closed form, relative to max |y|
SLOPE_RTOL = 1e-5         # sturm-check: energy slopes against the closed form

KERNEL_N_SCAN = 32        # find_bound_states energies on the kernel workload
KERNEL_MU_POINTS = 17     # continuation_count mu grid on the kernel workload


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Tuple[bool, str, Dict[str, float], str]]


def _fp(*values) -> str:
    """Exact text of a result: floats as hex, everything else by repr."""
    def one(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, complex):
            return f"{v.real.hex()}{v.imag.hex()}j"
        if isinstance(v, (list, tuple)):
            return "(" + ",".join(one(x) for x in v) + ")"
        return repr(v)
    return one(values)


def build(workload: str, seed: int, qws, root: Path, out_dir: Path) -> List[Job]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "phase_local":
        return _phase_local(rng, qws)
    if workload == "spectrum_local":
        return _spectrum_local(rng, qws)
    if workload == "kernel":
        return _kernel(rng, qws)
    if workload == "cli_configs":
        return _cli_configs(rng, qws, root, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


# -- phase_local --------------------------------------------------------------

# (family, q, l, depth, shape parameter, k bin).  A job's cost is set mostly
# by lam and the family; the seed moves depths by 2 % and k inside a narrow
# bin, and the cells are spread so that the two middle jobs are always the
# lam = 1 and lam = 1.5 square wells.
PHASE_CELLS = (
    ("square", 3, 0, 4.0, None, (0.4, 0.5)),
    ("exponential", 3, 0, 15.0, 0.5, (1.4, 1.6)),
    ("square", 4, 0, 25.0, None, (1.7, 1.9)),
    ("square", 5, 0, 12.0, None, (3.1, 3.3)),
    ("gaussian", 3, 1, 30.0, 0.6, (2.6, 2.8)),
    ("square", 3, 2, 30.0, None, (0.65, 0.75)),
)


def _phase_local(rng, qws) -> List[Job]:
    jobs = []
    for i, (fam, q, l, depth0, shape, (k_lo, k_hi)) in enumerate(PHASE_CELLS):
        depth = depth0 * rng.uniform(0.98, 1.02)
        k = rng.uniform(k_lo, k_hi)
        lam = l + (q - 2) / 2
        if fam == "square":
            local = qws.square_well(depth)
            ref = O.square_well_phase(lam, depth, 1.0, k)
        elif fam == "gaussian":
            local = qws.truncated_gaussian(depth, shape)
            ref = O.profile_phase(lam, lambda r, d=depth, w=shape: -d * math.exp(-(r / w) ** 2),
                                  1.0, k)
        else:
            local = qws.truncated_exponential(depth, shape)
            ref = O.profile_phase(lam, lambda r, d=depth, s=shape: -d * math.exp(-r / s), 1.0, k)
        ch = qws.ChannelParams(q=q, l=l)
        pot = qws.PotentialModel(r0=1.0, local=local)
        jobs.append(Job(
            id=f"phase_local/{i}:{fam}-lam{lam:g}-V{depth:.4g}-k{k:.4g}",
            run=lambda ch=ch, pot=pot, k=k: qws.phase_shift(ch, pot, k),
            check=lambda res, ref=ref: _check_phase(res, ref)))
    return jobs


def _check_phase(res, ref):
    err = O.circ_dist(res.eta, ref)
    ok = err <= ETA_TOL
    fp = _fp(res.eta, res.eta_raw, res.tan_eta, res.A, res.eta_fit, list(res.events))
    return ok, "" if ok else f"eta off by {err:.3e} rad", {"eta": err}, fp


# -- spectrum_local -----------------------------------------------------------

# (job, q, l, levels): square wells whose depth sits mid-way inside the
# level-count window, away from both thresholds
SPECTRUM_CELLS = (
    ("levinson", 3, 0, 0),
    ("levinson", 3, 0, 2),
    ("bound_states", 4, 0, 1),
    ("bound_states", 3, 0, 3),
)


def mid_gap_depth(lam: float, levels: int, rng) -> float:
    """Depth (r0 = 1) with exactly ``levels`` levels, 45-55 % of the way between thresholds."""
    zeros = [0.0] + O.threshold_zeros(lam, levels + 1)
    lo, hi = zeros[levels], zeros[levels + 1]
    return (lo + rng.uniform(0.45, 0.55) * (hi - lo)) ** 2


def _spectrum_local(rng, qws) -> List[Job]:
    jobs = []
    for i, (kind, q, l, n) in enumerate(SPECTRUM_CELLS):
        lam = l + (q - 2) / 2
        depth = mid_gap_depth(lam, n, rng)
        ref = O.square_well_levels(lam, depth, 1.0)
        ch = qws.ChannelParams(q=q, l=l)
        pot = qws.PotentialModel(r0=1.0, local=qws.square_well(depth))
        jid = f"spectrum_local/{i}:{kind}-lam{lam:g}-V{depth:.5g}-n{n}"
        if kind == "levinson":
            jobs.append(Job(jid, lambda ch=ch, pot=pot: qws.levinson_verify(ch, pot),
                            lambda res, ref=ref: _check_levinson(res.status, res.eta0,
                                                                 res.n_direct,
                                                                 res.n_continuation, ref)))
        else:
            jobs.append(Job(jid, lambda ch=ch, pot=pot: qws.find_bound_states(ch, pot),
                            lambda res, ref=ref: _check_levels([s.E for s in res], ref,
                                                               LOCAL_LEVEL_RTOL,
                                                               [s.matching_residual
                                                                for s in res])))
    return jobs


def _check_levinson(status, eta0, n_direct, n_cont, ref_levels):
    n = len(ref_levels)
    err = abs(eta0 - n * math.pi) if eta0 == eta0 else math.inf
    reasons = []
    if status != "pass":
        reasons.append(f"status {status}")
    if n_direct != n or n_cont != n:
        reasons.append(f"counts {n_direct}/{n_cont}, reference {n}")
    if err > LEVINSON_ETA_TOL:
        reasons.append(f"eta0 off n pi by {err:.3e}")
    return (not reasons, "; ".join(reasons), {"eta": err},
            _fp(status, eta0, n_direct, n_cont))


def _check_levels(levels, ref, rtol, extra=()):
    fp = _fp(list(levels), list(extra))
    if len(levels) != len(ref):
        return False, f"{len(levels)} levels, reference {len(ref)}", {}, fp
    if not ref:
        return True, "", {}, fp
    err = max(abs(a - b) / abs(b) for a, b in zip(sorted(levels), ref))
    ok = err <= rtol
    return ok, "" if ok else f"level off by {err:.3e} relative", {"level": err}, fp


# -- kernel -------------------------------------------------------------------

def _bump(c, w):
    return lambda r: math.exp(-(((r - c) / w) ** 2))


# (name, q, l, square-well depth, [(center, width, strength)], jobs): the
# corpus p-wave rank-1 bump, a rank-2 pair, and the corpus well + kernel.
# The rank-1 levels are checked on cli_configs (bound_states_kernel.cfg);
# here it runs the crossing counter only, which keeps a pass near 8 s.
KERNEL_MODELS = (
    ("rank1", 3, 1, 0.0, ((0.5, 0.15, -700.0),), ("continuation_count",)),
    ("rank2", 4, 0, 0.0, ((0.35, 0.12, -500.0), (0.7, 0.12, -400.0)), ("bound_states",)),
    ("well+kernel", 3, 0, 3.0, ((0.5, 0.15, -120.0),),
     ("bound_states", "continuation_count")),
)


def _kernel(rng, qws) -> List[Job]:
    jobs = []
    for name, q, l, depth, bumps, kinds in KERNEL_MODELS:
        scale = rng.uniform(0.98, 1.02)
        strengths = [s * scale for _, _, s in bumps]
        lam = l + (q - 2) / 2
        ref = O.kernel_levels(lam, q, 1.0, [_bump(c, w) for c, w, _ in bumps],
                              strengths, depth=depth)
        ch = qws.ChannelParams(q=q, l=l)
        pot = qws.PotentialModel(
            r0=1.0, local=qws.square_well(depth) if depth else None,
            kernel=tuple(qws.gaussian_bump(center=c, width=w) for c, w, _ in bumps),
            strengths=tuple(strengths))
        tag = f"{name}-lam{lam:g}-s{scale:.4f}"
        if "bound_states" in kinds:
            jobs.append(Job(
                f"kernel/bound_states:{tag}",
                lambda ch=ch, pot=pot: qws.find_bound_states(ch, pot, n_scan=KERNEL_N_SCAN),
                lambda res, ref=ref: _check_levels([s.E for s in res], ref, KERNEL_LEVEL_RTOL,
                                                   [s.matching_residual for s in res])))
        if "continuation_count" in kinds:
            jobs.append(Job(
                f"kernel/continuation_count:{tag}",
                lambda ch=ch, pot=pot: qws.continuation_count(
                    ch, pot, mu_grid=np.linspace(0.0, 1.0, KERNEL_MU_POINTS)),
                lambda res, ref=ref: _check_count(res, len(ref))))
    return jobs


def _check_count(res, n):
    ok = res.n_bound == n
    fp = _fp(res.n_bound, res.n_down, res.n_up, list(res.events),
             [float(a) for a in res.A_samples])
    return ok, "" if ok else f"n_bound {res.n_bound}, reference {n}", {}, fp


# -- cli_configs --------------------------------------------------------------

def _cli_configs(rng, qws, root: Path, out_dir: Path) -> List[Job]:
    import qws.cli as cli
    paths = sorted((root / "configs").glob("*.cfg"))
    rng.shuffle(paths)  # the inputs are the shipped files; the seed sets the order
    jobs = []
    for path in paths:
        cfg = configparser.ConfigParser()
        cfg.read(path)
        task = cfg["experiment"]["task"]
        out = out_dir / f"{path.stem}.out"
        argv = [task, "--config", str(path), "--out", str(out), "--no-metadata"]
        ref = _CLI_REFERENCES[task](cfg) if task in _CLI_REFERENCES else None
        check = functools.partial(_CLI_CHECKS[task], cfg, ref)
        jobs.append(Job(f"cli_configs/{path.name}",
                        lambda argv=argv: cli.main(argv),
                        lambda rc, out=out, check=check: _check_cli(rc, out, check)))
    return jobs


def _check_cli(rc, out: Path, check):
    data = out.read_bytes() if out.exists() else b""
    fp = _fp(rc, hashlib.sha256(data).hexdigest())
    if rc != 0:
        return False, f"exit code {rc}", {}, fp
    ok, reason, errs = check(data.decode("utf-8"))
    return ok, reason, errs, fp


def _lam(cfg) -> float:
    return float(cfg["channel"]["l"]) + (float(cfg["channel"]["q"]) - 2) / 2


def _csv_rows(text: str) -> List[Dict[str, float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _kernel_reference(cfg):
    """Levels of a gaussian-bump kernel config, with its square well if any."""
    kernels = [cfg[s] for s in cfg.sections() if s.startswith("kernel.")]
    pot = cfg["potential"]
    depth = float(pot["depth"]) if pot.get("family") == "square_well" else 0.0
    return O.kernel_levels(_lam(cfg), float(cfg["channel"]["q"]), float(pot["r0"]),
                           [_bump(float(k["center"]), float(k["width"])) for k in kernels],
                           [float(k["strength"]) for k in kernels], depth=depth)


def _square_well_reference(cfg):
    pot = cfg["potential"]
    return O.square_well_levels(_lam(cfg), float(pot["depth"]), float(pot["r0"]))


def _cli_bound_states(cfg, ref, text):
    doc = json.loads(text)
    ok, reason, errs, _ = _check_levels([lv["E"] for lv in doc["levels"]], ref,
                                        KERNEL_LEVEL_RTOL)
    return ok, reason, errs


def _cli_phase_shift(cfg, ref, text):
    lam, pot = _lam(cfg), cfg["potential"]
    depth, r0 = float(pot["depth"]), float(pot["r0"])
    err = max(O.circ_dist(row["eta_unwrapped"], O.square_well_phase(lam, depth, r0, row["k"]))
              for row in _csv_rows(text))
    ok = err <= ETA_TOL
    return ok, "" if ok else f"eta off by {err:.3e} rad", {"eta": err}


def _cli_levinson(cfg, ref, text):
    doc = json.loads(text)
    ok, reason, errs, _ = _check_levinson(doc["status"], doc["eta0"], doc["n"],
                                          doc["n_continuation"], ref)
    return ok, reason, errs


def _cli_solve(cfg, ref, text):
    rows = _csv_rows(text)
    pot, scan = cfg["potential"], cfg["scan"]
    r = np.array([row["r"] for row in rows])
    y, _ = O.regular_solution(_lam(cfg), float(pot["depth"]), float(pot["r0"]),
                              float(scan["k"]), r)
    got = np.array([row["re_y"] for row in rows])
    err = float(np.max(np.abs(got - y)) / np.max(np.abs(y)))
    return err <= WAVE_RTOL, "" if err <= WAVE_RTOL else f"wave off by {err:.3e}", {}


def _cli_sturm(cfg, ref, text):
    lam, pot = _lam(cfg), cfg["potential"]
    depth, r0 = float(pot["depth"]), float(pot["r0"])
    worst = 0.0
    for row in _csv_rows(text):
        E, h = row["E"], 1e-5 * max(1.0, abs(row["E"]))
        ip, ep = O.square_well_log_derivatives(lam, depth, r0, E + h)
        im, em = O.square_well_log_derivatives(lam, depth, r0, E - h)
        ref_int, ref_ext = (ip - im) / (2 * h), (ep - em) / (2 * h)
        for got, ref in ((row["slope_interior_fd"], ref_int),
                         (row["slope_interior_quad"], ref_int),
                         (row["slope_exterior_fd"], ref_ext),
                         (row["slope_exterior_quad"], ref_ext)):
            worst = max(worst, abs(got - ref) / abs(ref))
    ok = bool(worst <= SLOPE_RTOL)
    return ok, "" if ok else f"slope off by {worst:.3e} relative", {}


def _cli_wronskian(cfg, ref, text):
    # the package recovers k from the exact exterior tail, so 2k agrees to rounding
    bad = [rep for rep in json.loads(text)["reports"]
           if not rep["pass"] or abs(rep["expected_im"] - 2.0 * rep["k"]) > 1e-12 * rep["k"]]
    return not bad, f"{len(bad)} audits failed" if bad else "", {}


def _cli_eval_special(cfg, ref, text):
    if cfg["scan"]["name"] != "gamma":
        return False, f"no reference for {cfg['scan']['name']}", {}
    ref = math.gamma(float(cfg["scan"]["x"]))
    got = json.loads(text)["value"]
    err = abs(got - ref) / abs(ref)
    return err <= 1e-14, "" if err <= 1e-14 else f"gamma off by {err:.3e}", {}


_CLI_CHECKS = {
    "bound-states": _cli_bound_states,
    "phase-shift": _cli_phase_shift,
    "levinson": _cli_levinson,
    "solve": _cli_solve,
    "sturm-check": _cli_sturm,
    "wronskian-audit": _cli_wronskian,
    "eval-special": _cli_eval_special,
}

_CLI_REFERENCES = {
    "bound-states": _kernel_reference,
    "levinson": _square_well_reference,
}
