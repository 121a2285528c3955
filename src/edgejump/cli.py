"""Command-line surface: dumps, verification subcommands, Monte-Carlo runs.

Subcommands
-----------
hankel     dump an orthogonal-polynomial system (log H_k, log h_k, R_k, Q_k rows)
painleve   dump a Painleve trajectory (t, u, u', v, F series plus poles)
fredholm   dump an Airy-determinant grid over t
verify     run one named verification (``edgejump verify --help`` lists them)
mc         Monte-Carlo comparisons (gue, plancherel)

Reports are written as CSV or JSON (complex values split re/im) together
with a machine-readable PASS/FAIL summary; exit status is 0 when every
criterion passed, 1 on any FAIL, 2 on invalid configuration.  Given the same
configuration and seed, reruns are byte-identical (pass --timestamp to embed
a generation time header).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import fredholm, painleve, verify, weightlab
from .precision import MIN_BITS, PrecisionCtx, hankel_ctx
from .report import Report, ReportRow, write_report
from .util import beta_from_kappa, kappa_from_beta


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Normalized options shared by all subcommands.

    Exactly one of beta / kappa may be given; the other is derived through
    the jump relation on the |Re beta| <= 1/2 branch, so both are set or
    neither is.  ``trials`` is None when not given.
    """

    beta: complex | None = None
    kappa: complex | None = None
    ns: tuple = ()
    t: float | None = None
    lambda0: float | None = None
    bits: int | None = None
    tol: float | None = None
    nodes: int | None = None
    trials: int | None = None
    seed: int = 20240
    out: str | None = None
    fmt: str = "csv"
    timestamp: bool = False
    t_min: float | None = None

    def resolved_kappa(self) -> complex:
        if self.kappa is None:
            raise ConfigError("need --beta/--beta-im or --kappa/--kappa-im")
        return self.kappa


def _parse_ns(raw: str | None) -> tuple:
    if not raw:
        return ()
    try:
        ns = tuple(int(x) for x in str(raw).replace(" ", "").split(","))
    except ValueError:
        raise ConfigError(f"n-list must be comma-separated integers, got {raw!r}") from None
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("n-list must be strictly increasing")
    if any(n < 1 for n in ns):
        raise ConfigError("n values must be positive")
    return ns


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    return data


def _value(merged: dict, key: str, kind, default=None):
    """``merged[key]`` converted by ``kind``; ``default`` when absent or null."""
    v = merged.get(key)
    if v is None:
        return default
    try:
        return kind(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {v!r}") from None


def _build_config(args) -> RunConfig:
    # the keys a config file may set are the dests of the flags _add_common declares
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "which", "config")}
    merged: dict = {}
    if args.config:
        merged.update(_read_config_file(args.config))
        unknown = sorted(set(merged) - set(flags))
        if unknown:
            raise ConfigError(f"unknown config key(s) in {args.config!r}: "
                              + ", ".join(map(repr, unknown)))
    merged.update({k: v for k, v in flags.items() if v is not None})
    beta = kappa = None
    if merged.get("beta") is not None or merged.get("beta_im") is not None:
        beta = complex(_value(merged, "beta", float, 0.0),
                       _value(merged, "beta_im", float, 0.0))
    if merged.get("kappa") is not None or merged.get("kappa_im") is not None:
        kappa = complex(_value(merged, "kappa", float, 0.0),
                        _value(merged, "kappa_im", float, 0.0))
    if beta is not None and kappa is not None:
        raise ConfigError("give beta or kappa, not both")
    if beta is not None:
        if abs(beta.real) > 0.5:
            raise ConfigError("need |Re beta| <= 1/2")
        kappa = kappa_from_beta(beta)
    elif kappa is not None:
        try:
            beta = beta_from_kappa(kappa)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    # 0 bits asks for the default precision, as an unset --bits does
    bits = _value(merged, "bits", int) or None
    nodes = _value(merged, "nodes", int) or None
    if nodes is not None and nodes < 1:
        raise ConfigError(f"need nodes >= 1 (or 0 for the default), got {nodes}")
    if bits is not None and bits < MIN_BITS:
        raise ConfigError(f"need bits >= {MIN_BITS} (or 0 for the default), got {bits}")
    trials = _value(merged, "trials", int)
    if trials is not None and trials < 2:  # every estimator reports a ddof = 1 standard error
        raise ConfigError(f"need trials >= 2, got {trials}")
    fmt = merged.get("format", "csv")
    if fmt not in ("csv", "json"):  # a config file bypasses the flag's choices
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return RunConfig(
        beta=beta, kappa=kappa, ns=_parse_ns(merged.get("n")),
        t=_value(merged, "t", float),
        lambda0=_value(merged, "lambda0", float),
        bits=bits,
        tol=_value(merged, "tol", float),
        nodes=nodes,
        trials=trials,
        seed=_value(merged, "seed", int, 20240),
        out=merged.get("out"), fmt=fmt,
        timestamp=bool(merged.get("timestamp", False)),
        t_min=_value(merged, "t_min", float),
    )


def _emit(reports, cfg: RunConfig) -> int:
    reports = list(reports)
    if cfg.out:
        write_report(reports, cfg.out, fmt=cfg.fmt, timestamp=cfg.timestamp)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.name}" + (f": {rep.detail}" if rep.detail else ""))
        if not cfg.out:
            for row in rep.sorted_rows()[:40]:
                rec = row.as_record()
                brief = {k: v for k, v in rec.items() if v not in (None, "")}
                print("   ", brief)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# dump subcommands
# ---------------------------------------------------------------------------

def _cmd_hankel(cfg: RunConfig) -> int:
    if not cfg.ns:
        raise ConfigError("hankel needs --n")
    beta = cfg.beta if cfg.beta is not None else 0j
    N = max(cfg.ns)
    ctx = PrecisionCtx(cfg.bits) if cfg.bits else hankel_ctx(N)
    lambda0 = weightlab.edge_cut(N, cfg.t) if cfg.t is not None else cfg.lambda0 or 0.0
    params = weightlab.WeightParams(beta, lambda0)
    sys = weightlab.build_op_system(params, N, ctx)
    rep = Report("hankel-dump", passed=True, compares=False,
                 detail=f"agreed digits {sys.agreed}")
    # H_k and h_k leave double range near k = 32; their logs do not
    log_H, log_h = [mp.log(v) for v in sys.H], [mp.log(v) for v in sys.h]
    for k in range(N + 1):
        for name, vals in (("logH", log_H), ("logh", log_h), ("Q", sys.Q), ("R", sys.R)):
            if name != "R" or k >= 1:
                rep.add(ReportRow(label=f"opsystem-{name}", n=k,
                                  lambda0=float(params.lambda0), beta=complex(beta),
                                  finite=vals[k]))
    return _emit([rep], cfg)


def _cmd_painleve(cfg: RunConfig) -> int:
    kap = cfg.resolved_kappa()
    t_min = cfg.t_min if cfg.t_min is not None else -12.0
    sol = painleve.solve_as(kap, t_min, cfg.tol if cfg.tol is not None else 1e-12)
    rep = Report("painleve-dump", passed=True, compares=False,
                 detail=f"{len(sol.poles)} poles, start t = {sol.t_start}")
    for t in sol.grid(241):
        u, _, v, F = sol.state(t)
        rep.add(ReportRow(label="trajectory-u", t=float(t), kappa=kap, finite=u))
        rep.add(ReportRow(label="trajectory-v", t=float(t), kappa=kap, finite=v))
        rep.add(ReportRow(label="trajectory-F", t=float(t), kappa=kap, finite=F))
    for p in sol.poles:
        rep.add(ReportRow(label="pole", t=p.location, kappa=kap,
                          finite=complex(p.sign), asym=complex(p.cubic)))
    return _emit([rep], cfg)


def _cmd_fredholm(cfg: RunConfig) -> int:
    kap = cfg.resolved_kappa()
    k2 = kap * kap
    t_lo = cfg.t_min if cfg.t_min is not None else -8.0
    t_hi = cfg.t if cfg.t is not None else 4.0
    ts = np.arange(t_lo, t_hi + 0.25, 0.5)
    nodes = {} if cfg.nodes is None else {"nodes": cfg.nodes}
    logdets = fredholm.airy_fredholm_logdet(k2, ts, **nodes)
    rep = Report("fredholm-dump", passed=True, compares=False)
    for t, logdet in zip(ts, logdets):
        rep.add(ReportRow(label="airy-determinant", t=float(t), kappa=kap,
                          finite=complex(np.exp(logdet)), asym=complex(logdet)))
    return _emit([rep], cfg)


# ---------------------------------------------------------------------------
# verify / mc subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: RunConfig, which: str) -> int:
    check = verify.CHECKS[which]
    if cfg.ns and len(cfg.ns) < check.min_ns:
        raise ConfigError(f"verify {which} judges a trend over n: need at least "
                          f"{check.min_ns} values in --n, got {len(cfg.ns)}")
    return _emit([check.run(cfg)], cfg)


def _cmd_mc(cfg: RunConfig, which: str) -> int:
    # without --trials: fewer for plancherel, whose pure-Python RSK costs ms a trial
    trials = cfg.trials or (100_000 if which == "gue" else 5000)
    if which == "gue":
        reps = [
            verify.check_mc_gue(n=cfg.ns[0] if cfg.ns else 8,
                                lambda0=cfg.lambda0 if cfg.lambda0 is not None else 3.0,
                                trials=trials, master=cfg.seed),
            verify.check_mc_thinning(trials=trials, master=cfg.seed + 1),
        ]
    else:
        reps = [verify.check_mc_plancherel(
            N=cfg.ns[0] if cfg.ns else 10_000, trials=trials, master=cfg.seed)]
    return _emit(reps, cfg)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--beta", type=float, help="Re beta of the jump exponent")
    p.add_argument("--beta-im", type=float, help="Im beta of the jump exponent")
    p.add_argument("--kappa", type=float, help="Re kappa of the deformation")
    p.add_argument("--kappa-im", type=float, help="Im kappa")
    p.add_argument("--n", type=str, help="strictly increasing n list, e.g. 20,40,80")
    p.add_argument("--t", type=float, help="edge coordinate t")
    p.add_argument("--t-min", type=float, help="lower end of a t sweep")
    p.add_argument("--lambda0", type=float, help="cut point (direct form)")
    p.add_argument("--bits", type=int, help="mantissa bits for exact computations")
    p.add_argument("--tol", type=float, help="ODE tolerance (painleve, verify tw-identity)")
    p.add_argument("--nodes", type=int, help="Gauss nodes per unit length of the Airy grid "
                   "(a shorter panel gets proportionally fewer, at least half)")
    p.add_argument("--trials", type=int, help="Monte-Carlo trial count")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--out", type=str, help="report file path")
    p.add_argument("--format", choices=("csv", "json"), help="report format")
    p.add_argument("--timestamp", action="store_const", const=True,
                   help="embed a generation timestamp header line")
    p.add_argument("--config", type=str, help="JSON config file (flags override)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="edgejump",
        description="Verification lab for jump-deformed Gaussian spectra: "
                    "Hankel determinants, Painleve II transcendents, "
                    "Airy-kernel determinants, and their Monte-Carlo twins.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("hankel", "painleve", "fredholm"):
        _add_common(sub.add_parser(name))
    vp = sub.add_parser("verify")
    vp.add_argument("which", choices=tuple(verify.CHECKS))
    _add_common(vp)
    mcp = sub.add_parser("mc")
    mcp.add_argument("which", choices=("gue", "plancherel"))
    _add_common(mcp)

    args = ap.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "hankel":
            return _cmd_hankel(cfg)
        if args.command == "painleve":
            return _cmd_painleve(cfg)
        if args.command == "fredholm":
            return _cmd_fredholm(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg, args.which)
        return _cmd_mc(cfg, args.which)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
