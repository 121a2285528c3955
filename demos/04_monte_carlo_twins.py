"""Monte-Carlo twins of the determinant formulas.

Tridiagonal GUE sampling reproduces the gap probability; independent
thinning of eigenvalues reproduces the deformed determinant; thinned
Plancherel partitions walk toward the deformed Airy law.

Run:  python demos/04_monte_carlo_twins.py
"""
import math

from edgejump.fredholm import airy_fredholm_det, finite_n_det
from edgejump.rmtsim import (gap_probability_mc, thinned_max_cdf,
                             thinning_check)

print("GUE gap probability, n = 8, threshold 3.0, 50k draws:")
p, sig = gap_probability_mc(8, 3.0, 50_000, master=2024)
det = finite_n_det(8, 3.0, 1.0).real
print(f"  empirical {p:.5f} +- {sig:.5f}   determinant {det:.5f}   "
      f"z = {(p - det) / sig:+.2f}")

print("\nthinned largest eigenvalue, n = 50, removal probability 1/2:")
lam0 = math.sqrt(100.0)
res = thinning_check(50, 0.5, lam0, 50_000, master=2025)
det = finite_n_det(50, lam0, 0.5).real
print(f"  thin-and-count : {res['bernoulli']:.5f} +- {res['bernoulli_stderr']:.5f}")
print(f"  average of s^X : {res['analytic']:.5f} +- {res['analytic_stderr']:.5f}")
print(f"  determinant    : {det:.5f}")

print("\nthinned Plancherel maximum, N = 10000, 300 draws:")
est = thinned_max_cdf(10_000, 0.5, (-2.0, 0.0, 1.0), 300, master=2026)
dets = airy_fredholm_det(0.5, est["t"]).real
for t, cdf, sig, det in zip(est["t"], est["cdf"], est["stderr"], dets):
    print(f"  t = {t:+.1f}: empirical {cdf:.4f} +- {sig:.4f}   "
          f"deformed Airy det {det:.4f}")
