"""Benchmark workloads: slices of the acceptance drivers, one layer each.

A workload is an ordered list of ``(driver, kwargs)`` calls into
``edgejump.verify``.  Tolerances and gates stay at their acceptance values;
only sweep breadth (grid points, trial counts) is narrowed so that a run fits
the benchmark's run length.  The cases that carry today's known costs stay:

* ``hankel``: the n = 20 big-float Gram build (768-bit Gauss-Legendre rule)
  and the checked n = 256 orthogonal-polynomial build.  Quadrature and
  weightlab dominate.
* ``painleve``: a real-cut pole traversal with its round trip, the long
  pole-free kappa = 0.5 run and the Nystrom cross-check.  The ODE dominates.
* ``montecarlo``: a 20,000-trial dense GUE batch at n = 50 and Plancherel
  partitions at N = 10^4 through pure-Python RSK.  rmtsim dominates.

No workload takes random input, so the seed is recorded and changes
nothing.  The Monte-Carlo drivers keep the acceptance suite's master seeds:
their gates are 3-sigma bands, so seed-derived masters would miss on a few
seeds in a thousand at full trial counts and far more often at the narrowed
ones (Plancherel at 25 trials missed on seed 3).  A statistical miss is not
a program defect, and a benchmark run may not fail an operation.
"""
from __future__ import annotations

WORKLOADS = ("hankel", "painleve", "montecarlo")


def calls(workload: str) -> list[tuple[str, dict]]:
    """The driver calls of one pass of ``workload``."""
    if workload == "hankel":
        return [
            ("check_finite_n_identity", {"ns": (20,), "lambda0s": ("edge",)}),
            ("check_polynomial_asymptote", {}),
            ("check_edge_hankel", {}),
            ("check_gaussian_closed_form", {}),
            ("check_exact_identities", {}),
        ]
    if workload == "painleve":
        # check_pole_freeness is left out: a one-kappa slice of it takes
        # 19 s, and check_singular_regime already traverses real-cut poles.
        return [
            ("check_pii_solution", {}),
            ("check_tw_identity", {}),
            ("check_singular_regime", {}),
            ("check_airy_tail", {}),
        ]
    if workload == "montecarlo":
        return [
            ("check_mc_gue", {}),
            ("check_mc_thinning", {"trials": 20_000}),
            ("check_mc_plancherel", {"trials": 50}),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


#: Every driver some workload calls; each gets a ``verify.<driver>_s`` metric.
DRIVERS = tuple(dict.fromkeys(name for w in WORKLOADS for name, _ in calls(w)))
