"""
The structure constant alpha and the P-property
===============================================

Every bound in the library needs alpha(F_A) > 0, the minimum over the unit
cube boundary of max_i x_i (F_A x)_i.  Positive diagonals admit a certified
closed form; everything else gets a deterministic face-grid search with
coordinate-descent refinement, and a sampling check that hunts for explicit
counterexamples to the P-property.
"""

import numpy as np

from tcpbounds import (
    ALPHA_T,
    DenseTensor,
    GridSpec,
    check_p_tensor_sampled,
    contract_m1,
    diagonal_alpha_estimate,
    estimate_alpha,
)

# --------------------------------------------------- certified closed form
D = DenseTensor.from_diagonal([1.0, 8.0], order=4)
est = diagonal_alpha_estimate(D)
print("diag(1, 8):  alpha(F) =", est.value, f"({est.method}, certified={est.certified})")
print("closed form min_i a_i^(1/3):", diagonal_alpha_estimate(D).value)

# ----------------------------------------------------------- grid estimate
# The same tensor through the generic search: the odd point count puts a
# node at 0 on every axis, so the diagonal minimizer is hit exactly.
grid = estimate_alpha(D, grid=GridSpec(points_per_axis=41))
print("grid search on diag(1, 8):", grid.value, f"(certified={grid.certified})")

# A tensor with coupling terms has no closed form; watch refinement work.
B = DenseTensor(3, 2, {(1, 1, 2): 2.0, (1, 2, 1): 3.0, (2, 1, 1): -1.0, (2, 2, 2): 1.0})
coarse = estimate_alpha(B, ALPHA_T, grid=GridSpec(points_per_axis=7, refinement_steps=0))
fine = estimate_alpha(B, ALPHA_T, grid=GridSpec(points_per_axis=7))
print("\ncoupled order-3 tensor, alpha(T):")
print("  raw 7-point grid:    ", coarse.value)
print("  after refinement:    ", fine.value)
print("  negative value: no P certificate on this one")

# ------------------------------------------------------------ P-check
print("\nsampling the P objective max_i x_i (A x^{m-1})_i:")
check = check_p_tensor_sampled(D)
print(f"  diag(1, 8): {check.verdict} after {check.points_checked} points")

N = DenseTensor.from_diagonal([1.0, -2.0], order=2)
check = check_p_tensor_sampled(N)
print(f"  diag(1, -2): {check.verdict}, witness x = {check.witness}")
print("  witness objective:", check.witness_value, "(a P-tensor needs > 0 for every x != 0)")
x = check.witness
print("  recomputed:       ", float(np.max(x * contract_m1(N, x))))
