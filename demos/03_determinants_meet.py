"""Three determinants telling one story.

The finite-n Fredholm determinant of the Hermite kernel, the Hankel
determinant ratio of the jump weight, and the Airy-kernel determinant with
its Painleve II exponent all agree where they should: the first two exactly
at every n, the third as the n -> infinity edge limit.

Run:  python demos/03_determinants_meet.py
"""
import math

import mpmath as mp

from edgejump.fredholm import airy_fredholm_det, finite_n_det, hermite_gram
from edgejump.painleve import solve_as
from edgejump.precision import PrecisionCtx
from edgejump.util import kappa_sq_from_beta
from edgejump.weightlab import WeightParams, build_op_system, edge_cut, gaussian_hankel

beta, n, lam0 = 0.4j, 12, 0.5
ctx = PrecisionCtx(448)

sys = build_op_system(WeightParams(beta, lam0), n, ctx, check=False)
with ctx.workprec():
    ratio = mp.exp(-1j * mp.pi * n * mp.mpc(beta)) * sys.H[n] / gaussian_hankel(n, ctx)
det = finite_n_det(n, lam0, kappa_sq_from_beta(beta, ctx), ctx=ctx)
with ctx.workprec():
    print(f"exact identity at n = {n}:")
    print(f"  normalized Hankel ratio:  {mp.nstr(ratio, 20)}")
    print(f"  Hermite-kernel det:       {mp.nstr(det, 20)}")
    print(f"  |difference| = {mp.nstr(abs(ratio - det), 3)}")

print("\nTracy-Widom bridge at the edge (kappa = 0.7):")
sol = solve_as(0.7, -6.5, 1e-12)
print("   t     Airy-kernel det    exp(-F(t))        finite n=400")
ts = (-6.0, -3.0, 0.0, 2.0)
for t, d in zip(ts, airy_fredholm_det(0.49, ts).real):
    f = math.exp(-complex(sol.F(t)).real)
    fin = finite_n_det(400, edge_cut(400, t), 0.49).real
    print(f" {t:+5.1f}   {d:.12f}    {f:.12f}    {fin:.6f}")
