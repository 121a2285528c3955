"""Orthogonal polynomials for a Gaussian weight with a phase jump.

Builds the moment sequence, Hankel determinants and three-term recurrence
coefficients for the weight e^(-x^2) carrying a phase jump e^(+-i pi beta)
across a cut point, at controlled precision, and shows the exact internal
identities holding at round-off level.

Run:  python demos/01_jump_weight_systems.py
"""
import mpmath as mp

from edgejump.precision import PrecisionCtx
from edgejump.weightlab import (WeightParams, build_op_system,
                                diff_identity_residual, gaussian_hankel,
                                qn_jump_identity_residual)

ctx = PrecisionCtx(384)

print("== pure Gaussian reference (beta = 0) ==")
sys0 = build_op_system(WeightParams(0.0, 0.3), 8, ctx)
with ctx.workprec():
    for n in (1, 4, 8):
        closed = gaussian_hankel(n, ctx)
        print(f"  H_{n}: {mp.nstr(sys0.H[n], 12)}   closed form: {mp.nstr(closed, 12)}")
print(f"  R_5 = {mp.nstr(sys0.R[5], 8)} (expect 5/2), Q_3 = {mp.nstr(sys0.Q[3], 3)} (expect 0)")

print("\n== jump weight: beta = 0.4i, cut at 1.1 ==")
params = WeightParams(0.4j, 1.1)
sys = build_op_system(params, 8, ctx)
with ctx.workprec():
    print(f"  H_8 = {mp.nstr(sys.H[8], 12)} (positive: imaginary beta keeps the weight positive)")
    print(f"  R_8 = {mp.nstr(sys.R[8], 12)}")
    print(f"  Q_8 = {mp.nstr(sys.Q[8], 12)}")
print(f"  agreed digits across the doubled-precision rebuild: {sys.agreed}")

print("\n== exact identities (round-off scale residuals) ==")
print(f"  jump identity for Q_8:     {mp.nstr(qn_jump_identity_residual(sys, 8), 3)}")
res = diff_identity_residual(params, 6, ctx=PrecisionCtx(320))
print(f"  log-derivative identity:   {mp.nstr(res, 3)}  (central difference vs closed form)")
