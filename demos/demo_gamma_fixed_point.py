"""The second chaos contains exact centered-Gamma laws: the fixed point.

F = sum_{i<k} (x_i^2 - 1) is a centered Gamma(k/2, 1/2).  Its kernel solves
the half-contraction fixed-point equation exactly, so every diagnostic that
measures distance from the Gamma law returns literal zero -- not just small.

Run:  python3 demos/demo_gamma_fixed_point.py
"""
from chaoslimits import (
    gamma_fixed_family,
    gamma_kernel_gap,
    gamma_target,
    lemma_l11_gap,
    moment3,
    stein_residual_l2,
    stein_residual_l2_direct,
)

for k in (1, 2, 4):
    f = gamma_fixed_family(k)(1)
    target = gamma_target(k / 2.0, 0.5)
    coeff = target.coeff.as_tuple()
    print(f"k = {k}: F ~ centered Gamma({k / 2:g}, 1/2),"
          f" coefficient a(x) = {coeff[0]:g} x^2 + {coeff[1]:g} x + {coeff[2]:g}")
    print(f"   E[F^2] = {f.scaled_norm_sq():g}   E[F^3] = {moment3(f):g}")
    print(f"   stein residual (norms by level)      = {stein_residual_l2(f, coeff)}")
    print(f"   stein residual (direct subtraction)  = {stein_residual_l2_direct(f, coeff)}")
    print(f"   kernel fixed-point gap               = {gamma_kernel_gap(f, 0.5)}")
    print(f"   inner-product identity gap           = {lemma_l11_gap(f, coeff)}")

# The same kernel against the WRONG Gamma coefficients is not a fixed point.
f = gamma_fixed_family(1)(1)
wrong = gamma_target(1.0, 1.0).coeff.as_tuple()
print(f"\nsame k=1 kernel vs Gamma(1,1) coefficients {wrong}:"
      f" residual = {stein_residual_l2(f, wrong):g}  (nonzero, as it must be)")
