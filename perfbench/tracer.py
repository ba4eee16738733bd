"""In-memory span tracer built from the outside of the qws package.

The tracer replaces public functions of qws by timing wrappers, in every qws
module that holds a reference to them, and restores the originals on exit.
Spans (name, start, end, parent) stay in memory; ``layer_metrics`` turns
them into the per-layer figures once the traced pass is over.  A layer's
self time is its span duration minus the time covered by its child spans.

Two counts come from inside equations instead of spans: every equation that
``effective_equation`` returns gets its ``coefficient`` (one call per RHS
evaluation) and its kernel ``sources`` wrapped in call counters.  Names that
a later version of the package no longer has are skipped, so the tracer
keeps working while the package changes; their metrics then read 0.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from collections import Counter, defaultdict

# (module, function, span name); a span name groups functions into a layer
TRACED = (
    ("qws.specfun", "bessel_j", "specfun.jy"),
    ("qws.specfun", "bessel_y", "specfun.jy"),
    ("qws.specfun", "bessel_i_k", "specfun.ik"),
    ("qws.model", "effective_equation", "model.equation"),
    ("qws.radial_ode", "interior_state", "solve"),
    ("qws.radial_ode", "integrate_regular", "solve"),
    ("qws.radial_ode", "integrate_jost", "solve"),
    ("qws.radial_ode", "solve_nonlocal", "solve"),
    ("qws.scattering", "phase_shift", "scattering.phase_shift"),
    ("qws.spectral", "find_bound_states", "spectral.bound_search"),
    ("qws.spectral", "continuation_count", "spectral.crossing_count"),
    ("qws.spectral", "levinson_verify", "spectral.levinson"),
    ("qws.config", "parse_config", "config"),
    ("qws.config", "validate", "config"),
    ("qws.cli", "write_csv", "cli.write"),
    ("qws.cli", "write_json", "cli.write"),
    ("qws.cli", "main", "cli.main"),
)

CLI_TASKS = ("eval-special", "solve", "phase-shift", "wronskian-audit",
             "bound-states", "levinson", "sturm-check")

MU_STEPS_DEFAULT = 200  # qws.phase_shift's documented default continuation grid


def _is_kernel(eq) -> bool:
    """True when the equation takes the non-local (superposition) path."""
    coupling = getattr(eq, "coupling", None)
    return (getattr(eq, "rank", 0) > 0 and getattr(eq, "mu", 0) != 0
            and coupling is not None and bool((coupling != 0.0).any()))


class Span:
    __slots__ = ("name", "start", "end", "parent", "kind", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.kind = None
        self.info = None


class Tracer:
    """Context manager: install wrappers on enter, restore on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.rhs = [0]
        self.src = [0]
        self.degenerate = 0
        self.warnings = []
        self._warn_ctx = None

    # -- installation -------------------------------------------------
    def __enter__(self):
        for mod_name, fn_name, span_name in TRACED:
            mod = sys.modules.get(mod_name)
            original = getattr(mod, fn_name, None) if mod else None
            if original is None:
                continue
            wrapper = self._wrap(original, span_name, fn_name)
            for name, m in list(sys.modules.items()):
                if m is None or not (name == "qws" or name.startswith("qws.")):
                    continue
                for attr, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))
        self._warn_ctx = warnings.catch_warnings(record=True)
        self.warnings = self._warn_ctx.__enter__()
        warnings.simplefilter("always")
        return self

    def __exit__(self, *exc):
        self._warn_ctx.__exit__(*exc)
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, fn, span_name, fn_name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(span_name, clock(), stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            rhs0 = self.rhs[0]
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if span_name == "solve" and type(exc).__name__ == "DegenerateCouplingError":
                    self.degenerate += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            self._after(span, fn_name, args, kwargs, result, rhs0)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", fn_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _after(self, span, fn_name, args, kwargs, result, rhs0):
        name = span.name
        if name == "model.equation":
            self._count_equation(result)
        elif name == "solve":
            eq = args[0] if args else kwargs.get("eq")
            span.kind = "kernel" if (fn_name in ("interior_state", "solve_nonlocal")
                                     and _is_kernel(eq)) else "local"
            span.info = self.rhs[0] - rhs0
        elif name == "scattering.phase_shift":
            steps = kwargs.get("mu_steps", MU_STEPS_DEFAULT)
            span.info = (steps, len(getattr(result, "events", ())))
        elif name == "spectral.bound_search":
            span.info = len(result)
        elif name == "cli.main":
            argv = list(args[0]) if args else list(kwargs.get("argv") or [])
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            size = os.path.getsize(out) if out and os.path.exists(out) else 0
            span.info = (argv[0] if argv else "", size)

    def _count_equation(self, eq):
        rhs, src = self.rhs, self.src
        coefficient = eq.coefficient

        def counted_coefficient(r, _f=coefficient):
            rhs[0] += 1
            return _f(r)

        def counted(f):
            def source(r, _f=f):
                src[0] += 1
                return _f(r)
            return source

        # EffectiveEquation is a frozen dataclass: set through object
        object.__setattr__(eq, "coefficient", counted_coefficient)
        object.__setattr__(eq, "sources", tuple(counted(f) for f in eq.sources))

    # -- reduction ----------------------------------------------------
    def counts(self) -> dict:
        """Counts that must repeat exactly between two traced passes."""
        m = self.layer_metrics(overhead_frac=0.0)
        keys = ("radial_ode.rhs_evals", "radial_ode.src_evals", "radial_ode.solves.local",
                "radial_ode.solves.kernel", "specfun.jy.calls", "specfun.ik.calls")
        return {k: m[k] for k in keys}

    def layer_metrics(self, overhead_frac: float) -> dict:
        spans = self.spans
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[id(s.parent)] += s.end - s.start

        def self_s(s):
            return (s.end - s.start) - child_time[id(s)]

        def inside(s, name):
            return any(p.name == name for p in _ancestors(s))

        calls = Counter(s.name for s in spans)
        self_time = defaultdict(float)
        total_time = defaultdict(float)
        for s in spans:
            self_time[s.name] += self_s(s)
            total_time[s.name] += s.end - s.start

        # outermost solves only: solve_nonlocal may fall back to integrate_regular
        solves = [s for s in spans if s.name == "solve" and not inside(s, "solve")]
        n_solve = Counter(s.kind for s in solves)
        rhs_in = Counter()
        for s in solves:
            rhs_in[s.kind] += s.info or 0

        # spans whose call raised carry no info and count only as time
        points = [s for s in spans if s.name == "scattering.phase_shift" and s.info]
        samples = [sum(1 for c in solves if any(a is p for a in _ancestors(c)))
                   for p in points]
        grid = [(p.info[0] or 0) + 1 for p in points]
        extra = sum(max(0, n - g) for n, g in zip(samples, grid))

        def solves_under(name):
            return sum(1 for s in solves if inside(s, name))

        levels = sum(s.info or 0 for s in spans if s.name == "spectral.bound_search")
        bound_solves = solves_under("spectral.bound_search")
        cli_run = defaultdict(float)
        written = 0
        for s in spans:
            if s.name == "cli.main" and s.info:
                cli_run[s.info[0]] += s.end - s.start
                written += s.info[1]
        qws_warnings = sum(1 for w in self.warnings
                           if os.sep + "qws" + os.sep in str(w.filename))

        m = {
            "specfun.jy.calls": calls["specfun.jy"],
            "specfun.jy.self_s": self_time["specfun.jy"],
            "specfun.ik.calls": calls["specfun.ik"],
            "specfun.ik.self_s": self_time["specfun.ik"],
            "model.equations": calls["model.equation"],
            "model.equation.self_s": self_time["model.equation"],
            "radial_ode.solves.local": n_solve["local"],
            "radial_ode.solves.kernel": n_solve["kernel"],
            "radial_ode.rhs_evals": self.rhs[0],
            "radial_ode.src_evals": self.src[0],
            "radial_ode.rhs_per_solve.local": _ratio(rhs_in["local"], n_solve["local"]),
            "radial_ode.rhs_per_solve.kernel": _ratio(rhs_in["kernel"], n_solve["kernel"]),
            "radial_ode.self_s": self_time["solve"],
            "radial_ode.degenerate_retries": self.degenerate,
            "scattering.points": len(points),
            "scattering.point_s": _ratio(total_time["scattering.phase_shift"], len(points)),
            "scattering.samples_per_point": _ratio(sum(samples), len(points)),
            "scattering.refine_frac": _ratio(extra, sum(grid)),
            "scattering.branch_events": sum(p.info[1] for p in points),
            "spectral.bound_search.solves": bound_solves,
            "spectral.bound_search_s": total_time["spectral.bound_search"],
            "spectral.solves_per_level": _ratio(bound_solves, levels),
            "spectral.scan_warnings": qws_warnings,
            "spectral.crossing_count.solves": solves_under("spectral.crossing_count"),
            "spectral.crossing_count_s": total_time["spectral.crossing_count"],
            "spectral.levinson_self_s": self_time["spectral.levinson"],
            "config.parse_s": total_time["config"],
            "cli.write_s": total_time["cli.write"],
            "cli.bytes_written": written,
            "trace.overhead_frac": overhead_frac,
        }
        for task in CLI_TASKS:
            m[f"cli.run_s.{task}"] = cli_run[task]
        return m


def _ancestors(span):
    p = span.parent
    while p is not None:
        yield p
        p = p.parent


def _ratio(a, b) -> float:
    return a / b if b else 0.0
