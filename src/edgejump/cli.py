"""Command-line surface: dumps, verification subcommands, Monte-Carlo runs.

Subcommands
-----------
hankel     dump an orthogonal-polynomial system (log H_k, log h_k, R_k, Q_k rows)
painleve   dump a Painleve trajectory (t, u, u', v, F series plus poles)
fredholm   dump an Airy-determinant grid over t
verify     run one named check of ``verify.CHECKS`` (``edgejump verify --help`` lists them)
mc         ``mc gue`` and ``mc plancherel`` run ``verify mc-gue`` and ``verify mc-plancherel``

A command takes the flags its function (a check: its drivers) reads, and no
other (see ``_FLAGS``).  A bare ``verify`` or ``mc`` command runs its
criterion's sweep, trials and seeds.

Reports are written as CSV or JSON (complex values split re/im) together
with a machine-readable PASS/FAIL summary; exit status is 0 when every
criterion passed, 1 on any FAIL, 2 on invalid configuration: a flag the
command line refuses, or a value a library guard refuses (``DomainError``).
Given the same configuration and seed, reruns are byte-identical (pass
--timestamp to embed a generation time header).
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys

import mpmath as mp
import numpy as np

from . import fredholm, painleve, verify, weightlab
from .precision import MIN_BITS, PrecisionCtx, hankel_ctx
from .report import Report, ReportRow, write_report
from .util import DomainError, beta_from_kappa, kappa_from_beta


class ConfigError(ValueError):
    pass


#: Every flag a command may take: name -> (type or choices, help).  ``--n`` is
#: a list: it sets ``ns`` as given, or ``n`` as its only value.  The four jump
#: flags come together to every function that reads beta(s) or kappa(s); the
#: one of beta and kappa not given is derived from the other through the jump
#: relation on the |Re beta| <= 1/2 branch.  ``--seed S`` sets S + i at the
#: i-th call of a command.
_FLAGS = {
    "beta": (float, "Re beta of the jump exponent"),
    "beta_im": (float, "Im beta of the jump exponent"),
    "kappa": (float, "Re kappa of the deformation"),
    "kappa_im": (float, "Im kappa"),
    "n": (str, "n, or a strictly increasing n list for a ladder, e.g. 20,40,80"),
    "t": (float, "edge coordinate t (fredholm: upper end of its grid)"),
    "t_min": (float, "lower end of a t range"),
    "lambda0": (float, "cut point (direct form)"),
    "bits": (int, "mantissa bits for exact computations (0: the default, "
                  "max(192, 64 + 12 n) bits at size n)"),
    "tol": (float, "ODE tolerance"),
    "nodes": (int, "Gauss nodes per unit length of the Airy grid (a shorter panel "
                   "gets proportionally fewer, at least half; 0: the default)"),
    "trials": (int, "Monte-Carlo trial count"),
    "seed": (int, "master seed"),
    "out": (str, "report file path"),
    "format": (("csv", "json"), "report format"),
    "timestamp": (bool, "embed a generation timestamp header line"),
}
_JUMP = ("beta", "beta_im", "kappa", "kappa_im")
#: Rival flags, refused together: one on the command line overrides the other in --config.
_RIVALS = ({"t"}, {"lambda0"}), ({"beta", "beta_im"}, {"kappa", "kappa_im"})


def _flag(keyword: str) -> str | None:
    """The flag that sets ``keyword``: x for x or xs; None when no flag does."""
    if keyword in _FLAGS:
        return keyword
    return keyword[:-1] if keyword[-1:] == "s" and keyword[:-1] in _FLAGS else None


def _flags(functions) -> list:
    """The flags that some keyword of ``functions`` reads, in vocabulary order."""
    read = {_flag(k) for fn in functions for k in inspect.signature(fn).parameters}
    if read & {"beta", "kappa"}:
        read.update(_JUMP)
    return [name for name in _FLAGS if name in read]


def _dashed(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _keywords(fn, given: dict, i: int = 0) -> dict:
    """The keywords of ``fn`` that the ``given`` flags set, at the i-th call of a command."""
    kwargs = {}
    for keyword in inspect.signature(fn).parameters:
        flag = _flag(keyword)
        if flag not in given:
            continue
        value = given[flag]
        if flag == keyword == "n":
            if len(value) > 1:
                raise ConfigError(f"--n sets one n here, got {len(value)} values")
            value = value[0]
        elif keyword != flag and flag != "n":
            value = (value,)
        elif flag == "seed":
            value += i
        kwargs[keyword] = value
    return kwargs


def _parse_ns(raw) -> tuple:
    """An n-list: a comma string such as "20,40", or in a config file an integer or a list."""
    try:
        ns = (tuple(int(x) for x in raw.replace(" ", "").split(",")) if isinstance(raw, str)
              else tuple(raw if isinstance(raw, list) else [raw]))
    except ValueError:
        raise ConfigError(f"n-list must be comma-separated integers, got {raw!r}") from None
    if (not ns or any(type(x) is not int for x in ns)
            or ns[0] < 1 or any(b <= a for a, b in zip(ns, ns[1:]))):
        raise ConfigError(f"n-list must be positive strictly increasing integers, got {raw!r}")
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


def _value(name: str, raw, kind):
    """``raw`` if of its flag's JSON type: bool, integer, finite number (no bool for
    either), one of the flag's choices, or an n-list (:func:`_parse_ns`)."""
    if name == "n":
        return _parse_ns(raw)
    choices, is_bool = isinstance(kind, tuple), isinstance(raw, bool)
    ok = (raw in kind if choices else  # a bool is an int to Python, but not to JSON
          isinstance(raw, (int, float) if kind is float else kind) and is_bool == (kind is bool))
    if not ok:
        want = " or ".join(kind) if choices else kind.__name__
        raise ConfigError(f"{name} must be {want}, got {raw!r}")
    if kind is float and not math.isfinite(raw):
        raise ConfigError(f"{name} must be finite, got {raw!r}")
    return float(raw) if kind is float else raw


def _given(args) -> dict:
    """The command's flags given in ``--config`` or, over it, on the command line, checked.

    ``n`` becomes a tuple, and beta and kappa each a complex, both set or
    neither; a flag not given is absent, and so is a config flag whose rival
    (``_RIVALS``) is given on the command line.
    """
    merged = {}
    if args.config:
        merged = _read_config_file(args.config)
        unknown = sorted(set(merged) - set(args.flags))
        if unknown:
            raise ConfigError(f"unknown config key(s) in {args.config!r}: "
                              + ", ".join(map(repr, unknown)))
    line = {name: getattr(args, name) for name in args.flags if getattr(args, name) is not None}
    for mine, theirs in _RIVALS + tuple(pair[::-1] for pair in _RIVALS):
        if mine & line.keys():
            merged = {name: raw for name, raw in merged.items() if name not in theirs}
    merged.update(line)
    given = {name: _value(name, raw, _FLAGS[name][0])
             for name, raw in merged.items() if raw is not None}
    for pair in _RIVALS:
        if all(side & given.keys() for side in pair):
            raise ConfigError("give {} or {}, not both".format(*map(min, pair)))
    for name, least in (("bits", MIN_BITS), ("nodes", 1)):
        if given.get(name) == 0:  # 0 asks for the default, as an unset flag does
            del given[name]
        elif given.get(name, least) < least:
            raise ConfigError(f"need {name} >= {least} (or 0 for the default), got {given[name]}")
    if given.get("trials", 2) < 2:  # every estimator reports a ddof = 1 standard error
        raise ConfigError(f"need trials >= 2, got {given['trials']}")
    if given.get("tol", 1) <= 0:
        raise ConfigError(f"need tol > 0, got {given['tol']}")
    jump = {x: complex(given.pop(x, 0.0), given.pop(x + "_im", 0.0))
            for x in ("beta", "kappa") if x in given or x + "_im" in given}
    if "beta" in jump:
        if abs(jump["beta"].real) > 0.5:
            raise ConfigError("need |Re beta| <= 1/2")
        jump["kappa"] = kappa_from_beta(jump["beta"])
    elif "kappa" in jump:
        try:
            jump["beta"] = beta_from_kappa(jump["kappa"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return {**given, **jump}


def _emit(reports, out: str | None = None, format: str = "csv",
          timestamp: bool = False) -> int:
    """Write ``reports`` to ``out`` when given and print their verdicts; the exit status."""
    if out:
        write_report(reports, out, fmt=format, timestamp=timestamp)
    try:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            print(f"[{status}] {rep.name}" + (f": {rep.detail}" if rep.detail else ""))
            if not out:
                for row in rep.sorted_rows()[:40]:
                    print("   ", {k: v for k, v in row.as_record().items() if v not in (None, "")})
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (``| head``), and the verdict stands: Python's recipe
        # points stdout at devnull, so that flushing it at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# dump subcommands
# ---------------------------------------------------------------------------

def _hankel_dump(n: int, beta: complex = 0j, t: float | None = None,
                 lambda0: float | None = None, bits: int = 0) -> Report:
    """Dump log H_k, log h_k, Q_k, R_k (k <= n) at the cut lambda0 or the edge cut at t."""
    ctx = PrecisionCtx(bits) if bits else hankel_ctx(n)
    lambda0 = weightlab.edge_cut(n, t) if t is not None else lambda0 or 0.0
    params = weightlab.WeightParams(beta, lambda0)
    sys = weightlab.build_op_system(params, n, ctx)
    # the doubled-precision build must agree to the 16 digits a printed double carries
    rep = Report("hankel-dump", passed=min(sys.agreed.values()) >= 16, compares=False,
                 detail=f"agreed digits {sys.agreed}")
    # H_k and h_k leave double range near k = 32; their logs do not
    log_H, log_h = [mp.log(v) for v in sys.H], [mp.log(v) for v in sys.h]
    for k in range(n + 1):
        for name, vals in (("logH", log_H), ("logh", log_h), ("Q", sys.Q), ("R", sys.R)):
            if name != "R" or k >= 1:
                rep.add(ReportRow(label=f"opsystem-{name}", n=k,
                                  lambda0=float(params.lambda0), beta=complex(beta),
                                  finite=vals[k]))
    return rep


def _painleve_dump(kappa: complex, t_min: float = -12.0, tol: float = 1e-12) -> Report:
    """Dump a Painleve trajectory (u, v, F on 241 points down to t_min) and its poles."""
    sol = painleve.solve_as(kappa, t_min, tol)
    rep = Report("painleve-dump", passed=True, compares=False,
                 detail=f"{len(sol.poles)} poles, start t = {sol.t_start}")
    for t in sol.grid(241):
        u, _, v, F = sol.state(t)
        rep.add(ReportRow(label="trajectory-u", t=float(t), kappa=kappa, finite=u))
        rep.add(ReportRow(label="trajectory-v", t=float(t), kappa=kappa, finite=v))
        rep.add(ReportRow(label="trajectory-F", t=float(t), kappa=kappa, finite=F))
    for p in sol.poles:
        rep.add(ReportRow(label="pole", t=p.location, kappa=kappa,
                          finite=complex(p.sign), asym=complex(p.cubic)))
    return rep


def _fredholm_dump(kappa: complex, t_min: float = -8.0, t: float = 4.0,
                   nodes: int | None = None) -> Report:
    """Dump the Airy determinant and its log on [t', inf) for t' = t_min, t_min + 0.5, ..., t."""
    ts = np.arange(t_min, t + 0.25, 0.5)
    given = {"nodes": nodes} if nodes else {}  # else the library's default
    logdets = fredholm.airy_fredholm_logdet(kappa * kappa, ts, **given)
    rep = Report("fredholm-dump", passed=True, compares=False)
    for t, logdet in zip(ts, logdets):
        rep.add(ReportRow(label="airy-determinant", t=float(t), kappa=kappa,
                          finite=complex(np.exp(logdet)), asym=complex(logdet)))
    return rep


def _run_dump(name: str, dump, given: dict) -> list:
    kwargs = _keywords(dump, given)
    for keyword, param in inspect.signature(dump).parameters.items():
        if param.default is param.empty and keyword not in kwargs:
            flags = _JUMP if keyword in _JUMP else (_flag(keyword),)
            raise ConfigError(f"{name} needs " + " or ".join(map(_dashed, flags)))
    return [dump(**kwargs)]


# ---------------------------------------------------------------------------
# verify / mc subcommands
# ---------------------------------------------------------------------------

def _run_check(name: str, given: dict) -> list:
    check = verify.CHECKS[name]
    if "n" in given and len(given["n"]) < check.min_ns:
        raise ConfigError(f"verify {name} judges a trend over n: need at least "
                          f"{check.min_ns} values in --n, got {len(given['n'])}")
    return check.run([_keywords(getattr(verify, driver), given, i)
                      for i, (driver, _) in enumerate(check.calls)])


def _add_command(sub, name: str, functions, run) -> None:
    """A sub-parser for ``name`` with the flags ``functions`` and ``_emit`` read."""
    doc = (functions[0].__doc__ or "").strip().split("\n")[0]
    p = sub.add_parser(name, help=doc, description=doc)
    flags = _flags([*functions, _emit])
    for flag in flags:
        kind, text = _FLAGS[flag]
        how = ({"action": "store_const", "const": True} if kind is bool
               else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
        p.add_argument(_dashed(flag), help=text, **how)
    p.add_argument("--config", help="JSON file of these flags, underscored (flags override it)")
    p.set_defaults(flags=flags, run=run)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="edgejump",
        description="Verification lab for jump-deformed Gaussian spectra: "
                    "Hankel determinants, Painleve II transcendents, "
                    "Airy-kernel determinants, and their Monte-Carlo twins.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, dump in (("hankel", _hankel_dump), ("painleve", _painleve_dump),
                       ("fredholm", _fredholm_dump)):
        _add_command(sub, name, [dump], lambda given, name=name, dump=dump:
                     _run_dump(name, dump, given))
    for command, prefix in (("verify", ""), ("mc", "mc-")):
        checks = sub.add_parser(command).add_subparsers(dest="which", required=True)
        for name, check in verify.CHECKS.items():
            if name.startswith(prefix):
                _add_command(checks, name[len(prefix):],
                             [getattr(verify, driver) for driver, _ in check.calls],
                             lambda given, name=name: _run_check(name, given))

    args = ap.parse_args(argv)
    try:
        given = _given(args)
        return _emit(args.run(given), **_keywords(_emit, given))
    except (ConfigError, DomainError) as exc:  # any other error is a defect: its traceback stands
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
