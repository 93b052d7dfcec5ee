"""Composite systems: reduced kernels, admissibility, local-unitary orbits.

A kernel for a bipartite system should reduce, by partial trace, to valid
kernels of the subsystems.  This demo builds such kernels, shows what the
extra conditions rule out, and probes the symmetry structure: local
unitaries preserve admissibility, non-local ones break it.
"""

import numpy as np
import scipy.linalg

from swphase.linalg import BipartiteDims, haar_unitary, kron, random_density
from swphase.kernel import kernel_from_spectrum, solve_kernel_spectrum, wigner_value
from swphase.composite import (
    constraint_jacobian,
    dual_dim,
    make_composite_kernel,
    reduce_kernel,
    subsystem_wigner,
    verify_composite_master,
)
from swphase.twoqubit import FANO_ORDER, LAMBDA

dims = BipartiteDims(2, 2)

print("=" * 72)
print("1. An elementary kernel need not be composite-admissible")
print("=" * 72)

aligned = (np.eye(4) + np.sqrt(15.0) * np.diag([1, 1, -1, -1])) / 4.0
report = verify_composite_master(aligned, dims)
print("\n4 Delta = I + sqrt(15) sigma_z x I:")
print(f"  full-system residuals: trace {report.full.trace_residual:.1e}, "
      f"purity {report.full.purity_residual:.1e}  (a perfectly good kernel)")
print(f"  subsystem purity residuals: A {report.purity_a_residual:.3f}, "
      f"B {report.purity_b_residual:.3f}  (badly composite-inadmissible)")

print()
print("=" * 72)
print("2. Building admissible kernels and reducing them")
print("=" * 72)

comp = make_composite_kernel(dims, seed=0)
report = verify_composite_master(comp.mat, dims)
print(f"\nrandom admissible kernel at (2,2): residuals "
      f"{report.purity_a_residual:.1e} / {report.purity_b_residual:.1e}")
for keep in ("A", "B"):
    red = reduce_kernel(comp, keep)
    print(f"  reduced kernel {keep}: trace {np.trace(red.mat).real:+.6f}, "
          f"purity {np.trace(red.mat @ red.mat).real:.6f} (target 2)")

comp23 = make_composite_kernel(BipartiteDims(2, 3), seed=1)
red_b = reduce_kernel(comp23, "B")
print(f"\n(2,3) works too: reduced B purity = "
      f"{np.trace(red_b.mat @ red_b.mat).real:.6f} (target 3)")

print()
print("=" * 72)
print("3. Subsystem Wigner functions: two routes, one value")
print("=" * 72)

rho = random_density(4, seed=2)
w_reduce = subsystem_wigner(rho, comp, keep="A")
from swphase.linalg import partial_trace

ker_a = partial_trace(comp.mat, dims, keep="A")
w_embed = np.trace(rho.mat @ kron(ker_a, np.eye(2))).real
print(f"\nreduce-then-pair : {w_reduce:.12f}")
print(f"embed-then-pair  : {w_embed:.12f}")
print(f"difference       : {abs(w_reduce - w_embed):.2e}")

ka = kernel_from_spectrum(solve_kernel_spectrum(2), haar_unitary(2, 3))
kb = kernel_from_spectrum(solve_kernel_spectrum(2), haar_unitary(2, 4))
rho_a = random_density(2, 5)
rho_b = random_density(2, 6)
from swphase.kernel import SWKernel
from swphase.composite import CompositeKernel
from swphase.linalg import DensityMatrix

product = CompositeKernel(SWKernel(kron(ka.mat, kb.mat), 4), dims)
rho_prod = DensityMatrix(kron(rho_a.mat, rho_b.mat))
print(f"\nproduct state with product kernel factorizes: "
      f"{subsystem_wigner(rho_prod, product, 'A'):.9f} vs "
      f"{wigner_value(rho_a, ka):.9f}")

print()
print("=" * 72)
print("4. Local vs non-local unitaries")
print("=" * 72)

worst = 0.0
for seed in range(200):
    u = kron(haar_unitary(2, seed), haar_unitary(2, seed + 1000))
    r = verify_composite_master(u @ comp.mat @ u.conj().T, dims)
    worst = max(worst, r.purity_a_residual, r.purity_b_residual)
print(f"\n200 random local rotations: worst admissibility residual {worst:.2e}")

u = scipy.linalg.expm((np.pi / 2) * LAMBDA[FANO_ORDER.index((1, 1))])  # a correlation generator
r = verify_composite_master(u @ comp.mat @ u.conj().T, dims)
print(f"one non-local rotation: residuals {r.purity_a_residual:.3f} / "
      f"{r.purity_b_residual:.3f}  (admissibility destroyed)")

print()
print("=" * 72)
print("5. How big is the admissible set?")
print("=" * 72)

print(f"\ndual_dim(2,2) = {dual_dim(dims)}   dual_dim(2,3) = "
      f"{dual_dim(BipartiteDims(2, 3))}")
svals = np.linalg.svd(constraint_jacobian(comp.mat, dims), compute_uv=False)
print(f"constraint Jacobian singular values at a random admissible kernel: "
      f"{np.round(svals, 3)}")
print("Three robustly nonzero values: the three purity constraints cut the")
print("15-dimensional traceless chart down by exactly 3, leaving 12.")
