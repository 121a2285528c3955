"""Layer tracing from outside the program.

:class:`Tracer` wraps the public functions of each ``edgejump`` layer in
every ``edgejump`` module namespace that binds them, so re-exports such as
``from .ode import adaptive_rk`` are caught as well, and records one span per
call: name, start, end, parent and run id, plus counts read from the call's
arguments and return value.  Spans stay in memory until the run writes them
out.  :meth:`Tracer.remove` puts every original object back.

:func:`layer_metrics` turns the spans of one pass into the per-layer metrics.
A metric ending in ``_s`` is self time (span duration minus the time its
child spans cover), except ``fredholm.hermite_gram_s``,
``painleve.solve_as_s`` and ``verify.<driver>_s``, which are inclusive.
"""
from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from functools import wraps

from workloads import DRIVERS

#: Public functions wrapped per layer (module of ``edgejump``).
LAYERS = {
    "quadrature": ("gauss_legendre",),
    "fredholm": ("hermite_gram", "finite_n_det", "airy_fredholm_det",
                 "airy_fredholm_logdet"),
    "specfun": ("half_gauss_moments", "hermite_functions_mp"),
    "weightlab": ("build_op_system", "moments"),
    "linalg": ("lu_det",),
    "ode": ("adaptive_rk",),
    "painleve": ("solve_as", "pole_roundtrip_error"),
    "asympt": ("edge_hankel_asymptote", "bulk_hankel_asymptote",
               "recurrence_asymptotes", "polynomial_value_asymptote"),
    "rmtsim": ("sample_gue_eigs", "gap_probability_mc", "thinning_check",
               "thinned_max_cdf", "plancherel_sample"),
    "verify": DRIVERS + ("op_system_cached", "solution_cached"),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gauss_legendre(args, result, exc):
    return {"mp_nodes": args["m"]} if args.get("ctx") is not None else {}


def _build_op_system(args, result, exc):
    if result is None:
        return {}
    out = {"checked": int(args.get("check", True)), "bits": result.bits}
    if result.agreed:
        out["agreed_min"] = min(result.agreed.values())
    return out


def _adaptive_rk(args, result, exc):
    traj = result if exc is None else getattr(exc, "trajectory", None)
    out = {"underflows": int(type(exc).__name__ == "StepUnderflow")}
    if traj is not None:
        out["steps"] = traj.n_steps
        out["t_span"] = abs(float(traj.t_end) - float(traj.t_begin))
    return out


def _solve_as(args, result, exc):
    return {"poles": len(result.poles)} if result is not None else {}


def _sample_gue_eigs(args, result, exc):
    return {"trials": args["trials"]}


#: Count probes: (bound arguments, return value, exception) -> counts.
PROBES = {
    "quadrature.gauss_legendre": _gauss_legendre,
    "weightlab.build_op_system": _build_op_system,
    "ode.adaptive_rk": _adaptive_rk,
    "painleve.solve_as": _solve_as,
    "rmtsim.sample_gue_eigs": _sample_gue_eigs,
}


class Tracer:
    """Records spans around the layers' public functions while installed."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every listed function in every loaded ``edgejump`` module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "edgejump" or name.startswith("edgejump.")) and m]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"edgejump.{layer}"]
            for func_name in funcs:
                original = getattr(home, func_name)
                wrapper = self._wrap(f"{layer}.{func_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched module attribute to its original object."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, name: str, func):
        probe = PROBES.get(name)
        signature = inspect.signature(func) if probe else None

        @wraps(func)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, name, self.run, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            result = error = None
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if probe:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = probe(bound.arguments, result, error)

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def metric_names() -> list[str]:
    """Names of every per-layer metric, in report order."""
    return list(layer_metrics([], 0.0, 0.0))


def layer_metrics(spans: list[Span], wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed as in :func:`metric_names`."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s.id)

    def self_s(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def incl_s(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def counts(name, key):
        return [spans[i].counts[key] for i in by_name.get(name, ()) if key in spans[i].counts]

    def calls(name):
        return len(by_name.get(name, ()))

    def hits(cached, build):
        """Cache lookups that finished without a call to ``build``."""
        built = {s.parent for s in spans if s.name == build}
        return sum(1 for i in by_name.get(cached, ()) if i not in built)

    m = {f"{layer}.self_s": sum(selfs[s.id] for s in spans
                                if s.name.split(".", 1)[0] == layer)
         for layer in LAYERS}
    m["quadrature.gauss_legendre_s"] = self_s("quadrature.gauss_legendre")
    m["quadrature.mp_nodes"] = sum(counts("quadrature.gauss_legendre", "mp_nodes"))
    m["fredholm.hermite_gram_s"] = incl_s("fredholm.hermite_gram")
    for f in ("finite_n_det", "airy_fredholm_det", "airy_fredholm_logdet"):
        m[f"fredholm.{f}_s"] = self_s(f"fredholm.{f}")
    m["fredholm.airy_fredholm_det.calls"] = calls("fredholm.airy_fredholm_det")
    m["specfun.half_gauss_moments_s"] = self_s("specfun.half_gauss_moments")
    m["specfun.hermite_functions_mp_s"] = self_s("specfun.hermite_functions_mp")
    m["specfun.hermite_functions_mp.calls"] = calls("specfun.hermite_functions_mp")
    build = by_name.get("weightlab.build_op_system", ())
    for flag, label in ((1, "checked"), (0, "unchecked")):
        m[f"weightlab.build_op_system.{label}_s"] = sum(
            selfs[i] for i in build if spans[i].counts.get("checked") == flag)
    m["weightlab.build_op_system.calls"] = len(build)
    m["weightlab.moments_s"] = self_s("weightlab.moments")
    m["precision.bits_max"] = max(counts("weightlab.build_op_system", "bits"), default=0)
    m["precision.agreed_digits_min"] = min(
        counts("weightlab.build_op_system", "agreed_min"), default=0)
    m["linalg.lu_det_s"] = self_s("linalg.lu_det")
    m["ode.adaptive_rk_s"] = self_s("ode.adaptive_rk")
    steps = sum(counts("ode.adaptive_rk", "steps"))
    t_span = sum(counts("ode.adaptive_rk", "t_span"))
    m["ode.steps"] = steps
    m["ode.steps_per_t"] = steps / t_span if t_span else 0.0
    m["ode.underflows"] = sum(counts("ode.adaptive_rk", "underflows"))
    m["painleve.solve_as_s"] = incl_s("painleve.solve_as")
    m["painleve.poles"] = sum(counts("painleve.solve_as", "poles"))
    m["asympt.evaluators_s"] = sum(self_s(f"asympt.{f}") for f in LAYERS["asympt"])
    n_perm = calls("rmtsim.plancherel_sample")
    m["rmtsim.plancherel_ms_per_trial"] = (
        1e3 * self_s("rmtsim.plancherel_sample") / n_perm if n_perm else 0.0)
    trials = sum(counts("rmtsim.sample_gue_eigs", "trials"))
    m["rmtsim.gue_us_per_trial"] = (
        1e6 * self_s("rmtsim.sample_gue_eigs") / trials if trials else 0.0)
    m["rmtsim.sample_gue_eigs.trials"] = trials
    for d in DRIVERS:
        m[f"verify.{d}_s"] = incl_s(f"verify.{d}")
    m["verify.op_cache_hits"] = hits("verify.op_system_cached", "weightlab.build_op_system")
    m["verify.sol_cache_hits"] = hits("verify.solution_cached", "painleve.solve_as")
    m["trace.wall_s"] = wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms_per_trial"):
        return "ms"
    if name.endswith("_us_per_trial"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return {"precision.bits_max": "bits", "precision.agreed_digits_min": "digits",
            "ode.steps_per_t": "steps/t"}.get(name, "count")


def layer_shares(metrics: dict) -> dict:
    """Each layer's self time as a share of the traced wall time."""
    wall = metrics["trace.wall_s"]
    return {layer: metrics[f"{layer}.self_s"] / wall for layer in LAYERS}
