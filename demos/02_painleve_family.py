"""The Airy-pinned oscillatory Painleve II family.

Integrates u'' = t u + 2 u^3 downward from u ~ kappa Ai(t), shows the
oscillatory asymptote taking over at large negative t, and crosses real
poles for a deformation on the real cut |kappa| > 1.

Run:  python demos/02_painleve_family.py
"""
import numpy as np

from edgejump.painleve import (as_asymptote_minus, oscillation_envelope,
                               pii_residual, solve_as)
from edgejump.util import beta_from_kappa

kappa = 0.5
sol = solve_as(kappa, -25.0, 1e-12)
beta = beta_from_kappa(kappa)
print(f"kappa = {kappa}: started at t = {sol.t_start}, "
      f"{sum(s.n_steps for s in sol.segments)} Taylor steps")

print("\n   t        u(t)           v(t)         osc. asymptote")
for t in (-5.0, -10.0, -15.0, -20.0, -25.0):
    u = complex(sol.u(t)).real
    v = complex(sol.v(t)).real
    pred = complex(as_asymptote_minus(t, beta)).real
    print(f" {t:6.1f}  {u:+.9f}  {v:+.8f}   {pred:+.9f}")
print(f"limit envelope of (-t)^(1/4) u: {oscillation_envelope(beta):.6f}")

res = max(pii_residual(sol, t) / (1 + abs(sol.u(t)) ** 3) for t in sol.grid(100))
print(f"certified residual |u'' - t u - 2u^3|/(1+|u|^3) <= {res:.2e}")

print("\nkappa = 1.5 sits on the real cut: real poles appear and are gone around")
sol15 = solve_as(1.5, -9.0, 1e-12)
for p in sol15.poles:
    print(f"  pole at t = {p.location:+.6f}  residue sign {p.sign:+d}  "
          f"free cubic coefficient {p.cubic:+.6f}")
