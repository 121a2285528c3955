"""Confronting edge asymptotics with exact finite-n data.

The recurrence coefficients, norms, polynomial values and Hankel
determinants of the jump weight approach their Painleve II predictions as n
grows with the cut scaled to the spectral edge.

Run:  python demos/05_asymptotics_vs_finite_n.py   (about a second)
"""
import math

import mpmath as mp

from edgejump.asympt import (edge_hankel_asymptote, polynomial_value_asymptote,
                             recurrence_asymptotes)
from edgejump.painleve import solve_as
from edgejump.precision import PrecisionCtx, hankel_ctx
from edgejump.util import kappa_from_beta
from edgejump.weightlab import WeightParams, build_op_system, eval_pn

beta, t = 0.4j, 0.0
sol = solve_as(kappa_from_beta(beta), t - 1.0, 1e-12)

print(f"beta = {beta}, edge coordinate t = {t}")
print("   n      R_n - R_pred      (Q_n - Q_pred) sqrt(n)   |H_n/H_pred| - 1   |p_n/p_pred| - 1")
for n in (16, 32, 64, 128):
    ctx = hankel_ctx(n)
    params = WeightParams.edge(beta, n, t, ctx)
    sys = build_op_system(params, n, ctx, check=False)
    pred = recurrence_asymptotes(n, t, sol, ctx=ctx)
    hpred = edge_hankel_asymptote(n, t, beta, sol, ctx)
    ppred = polynomial_value_asymptote(n, t, sol, ctx)
    with ctx.workprec():
        dR = float(abs(sys.R[n] - mp.mpc(pred["R"])))
        dQ = float(abs(sys.Q[n] - mp.mpc(pred["Q"]))) * math.sqrt(n)
        dH = float(abs(abs(sys.H[n] / hpred) - 1))
        dp = float(abs(eval_pn(sys, n, mp.mpf(params.lambda0)) / ppred - 1))
    print(f" {n:4d}   {dR:14.6f}   {dQ:18.6f}   {dH:14.6f}   {dp:14.6f}")

print("\nbounded R/Q gaps and the ~n^(-1/3) decay of the polynomial error "
      "are the expansion claims;")
print("the norm expansion needs the sign-corrected first-order coefficient "
      "(see the recurrence driver).")
