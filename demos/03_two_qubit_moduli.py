"""The two-qubit moduli bundle: generators, ellipsoids, roots, solutions.

The torus coordinates of a two-qubit kernel live on a unit 2-sphere; the
composite admissibility conditions carve out the intersection with two
ellipsoids whose matrices come from the adjoint action of the abelian
group factor, in the closed form of ``abelian_quadrics``.  This demo builds
the whole chain, computes the characteristic roots, surveys the geometry,
and solves the ellipsoid system at both normalizations, labelling each
fibre by the solver's outcome.
"""

import numpy as np

from swphase.linalg import BipartiteDims
from swphase.composite import verify_composite_master
from swphase.twoqubit import (
    A_PLANE,
    K_TWISTED,
    LAMBDA,
    MATRIX_LEVEL,
    TORUS,
    abelian_factor,
    abelian_quadrics,
    char_cubic_roots,
    kak_element,
    kernel_from_moduli,
    moduli_feasibility,
    moduli_scan,
)
from swphase.reports import cross_commutator_report, torus_factor_dependence

dims = BipartiteDims(2, 2)

print("=" * 72)
print("1. The generator basis and its split")
print("=" * 72)

gram = -np.einsum("iab,jba->ij", LAMBDA, LAMBDA).real
print(f"\northonormality defect of the 15 generators: "
      f"{np.abs(gram - np.eye(15)).max():.1e}")
print(f"split: twisted su(2)+su(2) block ({len(K_TWISTED)}), two abelian "
      f"{len(A_PLANE)}-planes, torus ({len(TORUS)})")
cc = cross_commutator_report()
print(f"commutators between the two abelian planes span a {cc['span_dim']}-dim"
      f" space, landing entirely in the twisted block "
      f"(weight {cc['weight_k_twisted']:.3f} of {cc['total_weight']:.3f})")

el = kak_element(np.full(6, 0.2), [0.3, 0.1, -0.2], [0.5, -0.4, 0.1],
                 [0.7, 0.2, -0.3])
print(f"factored group element: |det g - 1| = {abs(np.linalg.det(el.g) - 1):.1e}, "
      f"unitarity defect {np.linalg.norm(el.g @ el.g.conj().T - np.eye(4)):.1e}")

print()
print("=" * 72)
print("2. From a group factor to the ellipsoid pair")
print("=" * 72)

rng = np.random.default_rng(5)
a_params = rng.uniform(-np.pi, np.pi, 3)
ap_params = rng.uniform(-np.pi, np.pi, 3)
factor = abelian_factor(a_params, ap_params)
q = abelian_quadrics(a_params, ap_params)
print("\nA and B read the block of the adjoint rotation of the factor that takes")
print("the torus to each qubit's local generators, built without the 15x15 map:")
print(f"eig(A) = {np.round(np.linalg.eigvalsh(q.a), 4)}")
print(f"eig(B) = {np.round(np.linalg.eigvalsh(q.b), 4)}")
print("Both sit in the window [0, 4/3]; moreover A + B <= (4/3) I:")
print(f"  max eig(A + B) = {np.linalg.eigvalsh(q.a + q.b)[-1]:.4f}")

print(f"\ncharacteristic roots (sphere vs A): {np.round(-q.eig_a, 4)}")
print(f"characteristic roots (A vs B)     : {np.round(char_cubic_roots(q), 4)}")
print(f"solver label at the matrix level 4/15: "
      f"{moduli_feasibility(q, level=MATRIX_LEVEL).classification}")

print()
print("=" * 72)
print("3. Kernels from moduli coordinates")
print("=" * 72)

mu = np.array([1.0, 0.0, 0.0])
ker = kernel_from_moduli(np.eye(4), mu)
print(f"\nmu = (1,0,0), U = I: spectrum {np.round(np.linalg.eigvalsh(ker.mat), 6)}")
print(f"  (1 +/- sqrt 15)/4 = {np.round([(1 - np.sqrt(15)) / 4, (1 + np.sqrt(15)) / 4], 6)}")
rep = verify_composite_master(ker.mat, dims)
print(f"  full purity residual {rep.full.purity_residual:.1e}, but subsystem "
      f"residuals {rep.purity_a_residual:.1f}/{rep.purity_b_residual:.1f}:"
      f" an axis point is not composite-admissible")

dependence = torus_factor_dependence(a_params, ap_params, mu, n_draws=12, seed=0)
print("\ndoes the dropped K*T part of the factorization matter?")
print(f"  torus factor shifts the admissibility values by "
      f"{dependence['max_torus_shift']:.2e} (an exact invariance)")
print(f"  twisted-block factor shifts them by up to "
      f"{dependence['max_k_shift']:.3f} (a real dependence, reported)")

print()
print("=" * 72)
print("4. Solving the sphere + two ellipsoids system")
print("=" * 72)

res_unit = moduli_feasibility(q, level=1.0)
print(f"\nat the quoted unit level: {res_unit.n_solutions} solutions")
print("That is not an accident of this fibre: A + B <= (4/3) I makes the")
print("two unit-level equations unsatisfiable together, at every fibre.")

res_matrix = moduli_feasibility(q, level=MATRIX_LEVEL)
print(f"\nat the matrix-equivalent level 4/15: {res_matrix.n_solutions} solutions")
for mu_sol in res_matrix.solutions[:4]:
    ker = kernel_from_moduli(factor, mu_sol)
    r = verify_composite_master(ker.mat, dims)
    print(f"  mu = {np.round(mu_sol, 4)} -> admissibility residuals "
          f"{r.purity_a_residual:.1e}/{r.purity_b_residual:.1e}")
print("Solutions of the corrected system generate composite-admissible")
print("kernels exactly; the kernel's reduced purity obeys the bridge")
print("identity 1/2 + (45/8) mu A mu^T for every unit mu.")

print()
print("=" * 72)
print("5. A scan across the bundle")
print("=" * 72)

records = moduli_scan(300, seed=9)
n_deg = sum(1 for r in records if r.classification == "degenerate")
nondeg = [r for r in records if r.classification != "degenerate"]
crossings = 0
for r in nondeg:
    ea = np.linalg.eigvalsh(r.quadrics.a)
    eb = np.linalg.eigvalsh(r.quadrics.b)
    if ea[0] <= 1.0 <= ea[-1] and eb[0] <= 1.0 <= eb[-1]:
        crossings += 1
worst_root = max(max((-r.quadrics.eig_a).max(), (-r.quadrics.eig_b).max(),
                     r.roots_ab.max()) for r in nondeg)
print(f"\n300 records: {n_deg} degenerate, {len(nondeg)} nondegenerate")
print(f"largest characteristic root over all nondegenerate records: "
      f"{worst_root:.2e}")
print("(never positive: A and B are positive semidefinite, so no root of")
print("det(tI + A) or det(tI + B) can be, and the roots of det(tA + B) are")
print("1 - 1/lambda over the pencil eigenvalues lambda of (A, A + B) in (0, 1];")
print("the roots carry no verdict)")
print(f"fibres where BOTH ellipsoid surfaces also cross the unit sphere: "
      f"{crossings} of {len(nondeg)} (the unit-level system is tight)")
counts = {}
for r in records:
    counts[r.n_solutions] = counts.get(r.n_solutions, 0) + 1
print(f"unit-level solution counts: {dict(sorted(counts.items()))}")
labels = {}
for r in records:
    labels[r.classification] = labels.get(r.classification, 0) + 1
print(f"unit-level solver labels: {dict(sorted(labels.items()))}")
