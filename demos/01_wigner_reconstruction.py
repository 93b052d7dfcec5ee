"""Elementary phase-space kernels: spectra, Wigner values, reconstruction.

Walks through the basic objects: the sphere of admissible kernel spectra,
kernels as unitary orbit points, Wigner quasiprobability values (including
a negative one), and state reconstruction both in closed form and by
Monte-Carlo integration over the orbit.
"""

import numpy as np

from swphase.linalg import DensityMatrix, haar_unitary, random_density
from swphase.kernel import (
    kernel_from_spectrum,
    reconstruct_exact,
    reconstruct_mc,
    solve_kernel_spectrum,
    verify_master,
    wigner_value,
)

print("=" * 72)
print("1. Kernel spectra: solutions of tr = 1, tr^2 = N")
print("=" * 72)

for n in (2, 3, 4):
    spec = solve_kernel_spectrum(n)
    print(f"\ncanonical spectrum at N={n}: {np.round(spec.pi, 6)}")
    print(f"  sum = {spec.pi.sum():+.3e}   sum of squares = {(spec.pi**2).sum():.3e}")
    print(f"  traceless radius = {np.linalg.norm(spec.traceless_part()):.6f}"
          f"  (expected sqrt(N - 1/N) = {np.sqrt(n - 1/n):.6f})")

print("\nThe qubit case is rigid: both solutions sort to the same point,")
print("pi = ((1 + sqrt 3)/2, (1 - sqrt 3)/2).")

print()
print("=" * 72)
print("2. Wigner values are quasiprobabilities: they can be negative")
print("=" * 72)

rho = DensityMatrix(np.diag([1.0, 0.0]))  # the pure state |0><0|
spec2 = solve_kernel_spectrum(2)
kernel_here = kernel_from_spectrum(spec2, np.eye(2))
sx = np.array([[0.0, 1.0], [1.0, 0.0]])
kernel_there = kernel_from_spectrum(spec2, sx)
print(f"\nW at the identity orbit point : {wigner_value(rho, kernel_here):+.6f}")
print(f"W at the sigma_x orbit point  : {wigner_value(rho, kernel_there):+.6f}")
print("Both are real; the second is negative, which a probability could")
print("never be.  The maximally mixed state pairs to 1/N everywhere:")
mixed = DensityMatrix(np.eye(2) / 2)
print(f"W(I/2) = {wigner_value(mixed, kernel_there):.6f}")

print()
print("=" * 72)
print("3. Reconstruction: the orbit integral returns the state")
print("=" * 72)

n = 4
rho4 = random_density(n, seed=42)
spec4 = solve_kernel_spectrum(n, "random", seed=43)
exact = reconstruct_exact(rho4, spec4)
print(f"\nclosed-form residual ||R - rho||_F = {np.linalg.norm(exact - rho4.mat):.2e}")

print("\nMonte-Carlo ladder (Haar samples over the orbit):")
print(f"{'samples':>10}  {'error':>12}")
for rung, samples in enumerate((1000, 10_000, 100_000)):
    est = reconstruct_mc(rho4, spec4, samples, seed=(44, rung))
    print(f"{samples:>10}  {np.linalg.norm(est - rho4.mat):>12.2e}")
print("The error falls like 1/sqrt(samples).")

# tr Delta = 1 for every kernel, so the trace of the reconstruction is the integral of W.
norm = np.trace(reconstruct_mc(rho4, spec4, 100_000, seed=45)).real
print(f"\nphase-space integral of W (should be tr rho = 1): {norm:.4f}")

print()
print("=" * 72)
print("4. What fails if the moment conditions fail")
print("=" * 72)

report = verify_master(np.eye(n) / n)
print(f"\nI/N as a kernel candidate: trace residual {report.trace_residual:.1e}, "
      f"purity residual {report.purity_residual:.3f}")
print("The maximally mixed operator has the right trace but nowhere near")
print("the required purity N, so it cannot resolve states.")
