"""Confronting edge asymptotics with exact finite-n data.

The recurrence coefficients, polynomial values and Hankel determinants of
the jump weight approach their Painleve II predictions as n grows with the
cut scaled to the spectral edge.  The finite-n side comes from the Gram
route (``gram_system``: one complex128 LDL^T of I - kappa^2 G), which keeps
H_n and p_n(lambda0) in log scale; the predictions are logs too, so the
ladder reaches n = 1024 in well under a second.

Run:  python demos/05_asymptotics_vs_finite_n.py   (about a second)
"""
import cmath
import math

from edgejump.asympt import (edge_hankel_asymptote, polynomial_value_asymptote,
                             recurrence_asymptotes)
from edgejump.painleve import solve_as
from edgejump.util import kappa_from_beta
from edgejump.weightlab import gram_system

beta, t = 0.4j, 0.0
sol = solve_as(kappa_from_beta(beta), t - 1.0, 1e-12)

print(f"beta = {beta}, edge coordinate t = {t}")
print("   n      R_n - R_pred      (Q_n - Q_pred) sqrt(n)   |H_n/H_pred| - 1   |p_n/p_pred| - 1")
for n in (64, 128, 256, 512, 1024):
    lam0 = math.sqrt(2 * n) * (1 + t * n ** (-2 / 3) / 2)
    sys = gram_system(beta, n, lam0)
    pred = recurrence_asymptotes(n, t, sol)
    dR = abs(sys.R[n] - pred["R"])
    dQ = abs(sys.Q[n] - pred["Q"]) * math.sqrt(n)
    dH = abs(abs(cmath.exp(sys.log_H_ratio - edge_hankel_asymptote(n, t, beta, sol))) - 1)
    dp = abs(cmath.exp(sys.log_pn - polynomial_value_asymptote(n, t, sol)) - 1)
    print(f" {n:4d}   {dR:14.6f}   {dQ:18.6f}   {dH:14.6f}   {dp:14.6f}")

print("\nbounded R/Q gaps and the ~n^(-1/3) decay of the polynomial error "
      "are the expansion claims;")
print("the norm expansion needs the sign-corrected first-order coefficient "
      "(see the recurrence driver).")
