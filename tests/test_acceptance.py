"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import numpy as np
import pytest

from swphase.linalg import (
    BipartiteDims,
    haar_unitary,
    partial_trace,
    random_density,
)
from swphase.kernel import (
    kernel_from_spectrum,
    reconstruct_exact,
    reconstruct_mc,
    solve_kernel_spectrum,
    verify_master,
)
from swphase.composite import (
    constraint_jacobian,
    dual_dim,
    make_composite_kernel,
    reduce_kernel,
    subsystem_wigner,
    verify_composite_master,
)
from swphase.twoqubit import (
    A_PLANE,
    A_PRIME_PLANE,
    FANO_ORDER,
    K_TWISTED,
    LAMBDA,
    MATRIX_LEVEL,
    TORUS,
    QuadricTriple,
    abelian_quadrics,
    char_cubic_roots,
    kernel_from_moduli,
    moduli_feasibility,
    moduli_record,
    _pencil_roots,
)
from swphase.reports import convention_report, elementary_constraint_value, isotropy_dim

DIMS22 = BipartiteDims(2, 2)
DIMS23 = BipartiteDims(2, 3)


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavy draws for criteria 8 and 9


@pytest.fixture(scope="module")
def quadric_batch():
    """Parameters and ellipsoid matrices (abelian_quadrics) of 10^4 random abelian factors."""
    n_draws = 10_000
    rng = np.random.default_rng(606)
    a_params = rng.uniform(-np.pi, np.pi, (n_draws, 3))
    ap_params = rng.uniform(-np.pi, np.pi, (n_draws, 3))
    quadrics = [abelian_quadrics(a_params[lo:lo + 1000], ap_params[lo:lo + 1000])
                for lo in range(0, n_draws, 1000)]
    qa = np.concatenate([q.a for q in quadrics])
    qb = np.concatenate([q.b for q in quadrics])
    return a_params, ap_params, qa, qb


# ---------------------------------------------------------------------------


def test_criterion_01_master_equations():
    worst = 0.0
    for n in (2, 3, 4, 6):
        for seed in range(100):
            spec = solve_kernel_spectrum(n, "random", seed=seed)
            ker = kernel_from_spectrum(spec, haar_unitary(n, seed + 10_000))
            trace_res = abs(np.trace(ker.mat).real - 1.0)
            purity_res = abs(np.trace(ker.mat @ ker.mat).real - n)
            worst = max(worst, trace_res, purity_res)
    _report(1, "master equations at N in {2,3,4,6}", worst < 1e-12,
            f"worst residual {worst:.2e} < 1e-12, 100 kernels per N")


def test_criterion_02_reconstruction():
    worst_exact = 0.0
    for seed in range(50):
        rho = random_density(4, seed)
        spec = solve_kernel_spectrum(4, "random", seed=seed + 300)
        worst_exact = max(worst_exact,
                          np.linalg.norm(reconstruct_exact(rho, spec) - rho.mat))
    rho = random_density(4, 101)
    spec = solve_kernel_spectrum(4, "random", seed=102)
    mc_err = np.linalg.norm(reconstruct_mc(rho, spec, 200_000, (103, 0)) - rho.mat)
    ladder = [1000, 10_000, 100_000]
    errs = [np.linalg.norm(reconstruct_mc(rho, spec, s, (104, rung)) - rho.mat)
            for rung, s in enumerate(ladder)]
    slope = np.polyfit(np.log10(ladder), np.log10(errs), 1)[0]
    ok = worst_exact < 1e-12 and mc_err < 0.05 and -0.65 <= slope <= -0.35
    _report(2, "reconstruction (exact + Monte Carlo)", ok,
            f"exact {worst_exact:.2e} < 1e-12, MC@2e5 {mc_err:.3f} < 0.05, "
            f"slope {slope:.3f} in -0.5 +/- 0.15")


def test_criterion_03_norm_axiom():
    rho = random_density(4, 101)
    spec = solve_kernel_spectrum(4, "random", seed=102)
    est = np.trace(reconstruct_mc(rho, spec, 100_000, 105)).real  # tr D = 1: the norm integral
    dev = abs(est - 1.0)
    _report(3, "phase-space norm integral", dev < 0.02,
            f"estimate {est:.4f}, |dev| {dev:.4f} < 0.02 at 1e5 samples")


def test_criterion_04_composite_axiom():
    worst_adm = 0.0
    worst_reduced = 0.0
    for dims in (DIMS22, DIMS23):
        for seed in range(50):
            comp = make_composite_kernel(dims, seed)
            rep = verify_composite_master(comp.mat, dims)
            worst_adm = max(worst_adm, rep.full.trace_residual,
                            rep.full.purity_residual,
                            rep.purity_a_residual, rep.purity_b_residual)
            for keep, n_sub in (("A", dims.n_a), ("B", dims.n_b)):
                red = reduce_kernel(comp, keep)
                assert red.n == n_sub
                sub = verify_master(red.mat)
                worst_reduced = max(worst_reduced, sub.trace_residual,
                                    sub.purity_residual)
    worst_two_path = 0.0
    for seed in range(1000):
        comp = make_composite_kernel(DIMS22, seed)
        rho = random_density(4, seed + 50_000)
        lhs = subsystem_wigner(rho, comp, keep="A")
        ker_a = partial_trace(comp.mat, DIMS22, keep="A")
        rhs = np.trace(rho.mat @ np.kron(ker_a, np.eye(2))).real
        worst_two_path = max(worst_two_path, abs(lhs - rhs))
    ok = worst_adm < 1e-10 and worst_reduced < 1e-10 and worst_two_path < 1e-12
    _report(4, "composite admissibility and reduction", ok,
            f"admissibility {worst_adm:.2e} < 1e-10, reduced {worst_reduced:.2e}"
            f" < 1e-10, two-path {worst_two_path:.2e} < 1e-12 on 1000 draws")


def test_criterion_05_lu_invariance_and_witness():
    comp = make_composite_kernel(DIMS22, 1)
    worst = 0.0
    for seed in range(1000):
        u = np.kron(haar_unitary(2, seed), haar_unitary(2, seed + 20_000))
        rep = verify_composite_master(u @ comp.mat @ u.conj().T, DIMS22)
        worst = max(worst, rep.purity_a_residual, rep.purity_b_residual)
    expm = pytest.importorskip("scipy.linalg").expm
    u = expm((np.pi / 2) * LAMBDA[FANO_ORDER.index((1, 1))])
    witness = verify_composite_master(u @ comp.mat @ u.conj().T, DIMS22)
    violation = max(witness.purity_a_residual, witness.purity_b_residual)
    ok = worst < 1e-11 and violation > 0.1
    _report(5, "local-unitary invariance + non-local witness", ok,
            f"1000 local rotations worst {worst:.2e} < 1e-11, "
            f"non-local violation {violation:.3f} > 0.1")


def test_criterion_06_dual_dimension():
    ok_dim = dual_dim(DIMS22) == 12
    worst_ratio = np.inf
    worst_abs = np.inf
    for seed in range(50):
        comp = make_composite_kernel(DIMS22, seed)
        svals = np.linalg.svd(constraint_jacobian(comp.mat, DIMS22),
                              compute_uv=False)
        worst_ratio = min(worst_ratio, svals[2] / svals[0])
        worst_abs = min(worst_abs, svals[2])
    # the tangent space of the admissible set: N^2 - 1 chart directions
    # minus rank 3 constraints is dual_dim, at every bipartition tried
    tangent_ok = True
    for n_a, n_b in ((2, 2), (2, 3), (3, 3), (2, 4)):
        dims = BipartiteDims(n_a, n_b)
        for seed in range(5):
            jac = constraint_jacobian(make_composite_kernel(dims, seed).mat, dims)
            rank = np.linalg.matrix_rank(jac)
            tangent_ok = (tangent_ok and rank == 3
                          and dims.total**2 - 1 - rank == dual_dim(dims))
    ok = ok_dim and worst_ratio > 1e-6 and worst_abs > 1e-8 and tangent_ok
    _report(6, "dual-space dimension and constraint rank", ok,
            f"dual_dim(2,2) = {dual_dim(DIMS22)}, rank-3 margin: smallest/largest"
            f" singular value {worst_ratio:.2e} > 1e-6 at 50 kernels; rank 3 and"
            f" N^2 - 1 - rank = dual_dim at 2x2, 2x3, 3x3, 2x4: {tangent_ok}")


def test_criterion_07_lambda_basis_algebra():
    lam = LAMBDA
    worst = np.abs(-np.einsum("iab,jba->ij", lam, lam).real - np.eye(15)).max()

    def max_comm(gens):
        out = 0.0
        for x in gens:
            for y in gens:
                out = max(out, np.linalg.norm(x @ y - y @ x))
        return out

    worst = max(worst, max_comm(lam[list(A_PLANE)]), max_comm(lam[list(A_PRIME_PLANE)]),
                max_comm(lam[list(TORUS)]))

    def closure_defect(gens_x, gens_y, span):
        out = 0.0
        for x in gens_x:
            for y in gens_y:
                c = x @ y - y @ x
                coeff = -np.einsum("ab,mba->m", c, span).real
                out = max(out, np.linalg.norm(
                    c - np.einsum("m,mab->ab", coeff, span)))
        return out

    k = K_TWISTED
    kp = lam[list(TORUS)]
    planes = lam[list(A_PLANE + A_PRIME_PLANE)]
    worst = max(worst, closure_defect(k, k, k), closure_defect(kp, kp, kp),
                closure_defect(k, kp, planes))
    _report(7, "generator basis algebra", worst < 1e-13,
            f"orthonormality, abelian blocks, closures: worst {worst:.2e} < 1e-13")


def test_criterion_08_adjoint_and_ellipsoids(quadric_batch, adjoint_oracle, oracle_quadrics,
                                             exp_generators):
    # The adjoint map and the quadrics from their definition (tests/conftest.py),
    # on factors from scipy's expm: nothing here shares code with abelian_quadrics.
    rng = np.random.default_rng(17)
    params = rng.uniform(-np.pi, np.pi, (100, 2, 3))
    el1 = exp_generators(params[:, 0], A_PLANE)
    el2 = exp_generators(params[:, 1], A_PRIME_PLANE)
    o1 = adjoint_oracle(el1)
    o2 = adjoint_oracle(el2)
    worst_orth = np.linalg.norm(o1 @ o1.transpose(0, 2, 1) - np.eye(15), axis=(1, 2)).max()
    worst_hom = np.linalg.norm(adjoint_oracle(el1 @ el2) - o1 @ o2, axis=(1, 2)).max()
    a_params, ap_params, qa, qb = quadric_batch
    worst_oracle = 0.0
    for lo in range(0, len(qa), 1000):
        want = oracle_quadrics(exp_generators(a_params[lo:lo + 1000], A_PLANE)
                               @ exp_generators(ap_params[lo:lo + 1000], A_PRIME_PLANE))
        worst_oracle = max(worst_oracle, np.abs(qa[lo:lo + 1000] - want.a).max(),
                           np.abs(qb[lo:lo + 1000] - want.b).max())
    eig_a = np.linalg.eigvalsh(qa)
    eig_b = np.linalg.eigvalsh(qb)
    # A + B <= (4/3) I is why MATRIX_LEVEL is 4/15 and the unit level unreachable
    max_ab = np.linalg.eigvalsh(qa + qb)[:, -1].max()
    psd_ok = (eig_a[:, 0].min() > -1e-12 and eig_b[:, 0].min() > -1e-12
              and eig_a[:, -1].max() < 4.0 / 3.0 + 1e-12
              and eig_b[:, -1].max() < 4.0 / 3.0 + 1e-12
              and max_ab <= 4.0 / 3.0 + 1e-12)
    q_ref = abelian_quadrics(np.zeros(3), np.zeros(3))
    ref_ok = (np.array_equal(q_ref.a, np.diag([4.0 / 3.0, 0.0, 0.0]))
              and np.array_equal(q_ref.b, np.diag([0.0, 4.0 / 3.0, 0.0])))
    ok = (worst_orth < 1e-12 and worst_hom < 1e-12 and worst_oracle <= 1e-14 and psd_ok
          and ref_ok)
    _report(8, "adjoint rotation and ellipsoid window", ok,
            f"orthogonality {worst_orth:.2e}, homomorphism {worst_hom:.2e} < 1e-12"
            f" on 100 factors; abelian_quadrics within {worst_oracle:.1e} <= 1e-14 of the"
            f" definition, 0 <= A,B and A + B <= 4/3 (max {max_ab:.6f}) on 10^4"
            f" draws; identity reference"
            f" exact: {ref_ok}")


def _largest_eigenvalue(m):
    """Closed-form largest eigenvalue of symmetric 3x3 matrices (..., 3, 3)."""
    mean = np.trace(m, axis1=-2, axis2=-1) / 3.0
    a, b, c = (m[..., k, k] - mean for k in range(3))
    d, e, f = m[..., 0, 1], m[..., 1, 2], m[..., 0, 2]
    scale = np.sqrt((a * a + b * b + c * c + 2.0 * (d * d + e * e + f * f)) / 6.0)
    det = a * (b * c - e * e) - d * (d * c - e * f) + f * (d * e - b * f)
    half_det = det / (2.0 * np.where(scale > 0.0, scale, 1.0) ** 3)
    return mean + 2.0 * scale * np.cos(np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0)


def _brickman_margins(qa, qb, level):
    """min over t of lambda_max(cos t A + sin t B) - level (cos t + sin t), per pair.

    Brickman (1961): the joint range of two quadratic forms on the unit
    sphere of R^3 is convex, so mu mu = 1, mu A mu = mu B mu = level has a
    solution iff this margin is >= 0.  The best of 720 angles (closed-form
    eigenvalue) is refined by six rounds of 41 angles (eigvalsh), each
    round 20 times narrower, and the margin is the least eigvalsh value.
    """
    def margin(angles, largest):
        c, s = np.cos(angles)[..., None, None], np.sin(angles)[..., None, None]
        pencil = c * qa[:, None] + s * qb[:, None]
        return largest(pencil) - level * (c + s)[..., 0, 0]

    step = np.pi / 360.0
    coarse = np.broadcast_to(np.arange(720) * step, (len(qa), 720))
    best_angle = coarse[0, np.argmin(margin(coarse, _largest_eigenvalue), axis=1)]
    best = np.full(len(qa), np.inf)
    for _ in range(6):
        angles = best_angle[:, None] + np.linspace(-step, step, 41)
        values = margin(angles, lambda m: np.linalg.eigvalsh(m)[..., -1])
        k = np.argmin(values, axis=1)
        best = np.minimum(best, values[np.arange(len(qa)), k])
        best_angle = angles[np.arange(len(qa)), k]
        step /= 20.0
    return best


def test_criterion_09_root_criterion(quadric_batch):
    a_params, ap_params, qa, qb = quadric_batch
    n_draws = qa.shape[0]

    # spot-check the batch path against the batch-of-one path
    for idx in range(0, n_draws, n_draws // 50):
        q_one = moduli_record(idx, a_params[idx], ap_params[idx]).quadrics
        assert np.linalg.norm(q_one.a - qa[idx]) < 1e-12
        assert np.linalg.norm(q_one.b - qb[idx]) < 1e-12

    margins = np.concatenate([_brickman_margins(qa[k:k + 200], qb[k:k + 200], MATRIX_LEVEL)
                              for k in range(0, n_draws, 200)])
    quads = QuadricTriple(a=qa, b=qb)
    n_nondeg = n_decided = 0
    n_root_violations = n_structure_violations = n_disagree = 0
    worst_residual = 0.0
    counts = {}
    for idx in range(n_draws):
        q = quads[idx]
        feas = moduli_feasibility(q, level=MATRIX_LEVEL)
        sols = np.array(feas.solutions).reshape(-1, 3)
        counts[len(sols)] = counts.get(len(sols), 0) + 1
        # every solution has exactly one antipode among the solutions
        antipodes = np.linalg.norm(sols[:, None] + sols[None], axis=2) <= 1e-8
        if len(sols) % 2 or len(sols) > 8 or np.any(antipodes.sum(axis=1) != 1):
            n_structure_violations += 1
        if len(sols):
            res = np.einsum("pi,kij,pj->pk", sols, np.stack([q.a, q.b]), sols) - MATRIX_LEVEL
            worst_residual = max(worst_residual, np.abs(res).max(),
                                 np.abs(np.linalg.norm(sols, axis=1) - 1.0).max())
        if feas.classification == "degenerate":
            continue
        n_nondeg += 1
        has_negative = ((-q.eig_a).min() < -1e-9
                        and (-q.eig_b).min() < -1e-9
                        and char_cubic_roots(q).real.min() < -1e-9)
        if not has_negative:
            n_root_violations += 1
        if abs(margins[idx]) > 1e-9:
            n_decided += 1
            if (feas.classification == "feasible") != (margins[idx] >= 0.0):
                n_disagree += 1

    # Every reported root t of every draw is a root: |det(tA + B)| relative
    # to the cube of the bound |t| lambda_max(A) + lambda_max(B) of its size.
    roots = _pencil_roots(quads)
    owner = np.repeat(np.arange(n_draws), [len(r) for r in roots])
    t = np.concatenate(roots)
    dets = np.linalg.det(t[:, None, None] * qa[owner] + qb[owner])
    sizes = np.abs(t) * quads.eig_a[owner, -1] + quads.eig_b[owner, -1]
    worst_root = float(np.max(np.abs(dets) / sizes**3))

    ok = (n_root_violations == 0 and n_structure_violations == 0 and worst_residual <= 1e-10
          and worst_root <= 1e-13
          and n_disagree == 0 and n_decided >= 0.99 * n_draws and n_nondeg > 9000)
    _report(9, "exact solver vs Brickman certificate at the matrix level", ok,
            f"{n_nondeg} nondegenerate of {n_draws} (need > 9000), {n_decided} decided"
            f" (need >= 99%): {n_disagree} feasible-vs-margin disagreements,"
            f" {n_structure_violations} odd/unpaired/over-8 solution sets,"
            f" worst residual {worst_residual:.1e} <= 1e-10, {n_root_violations}"
            f" negative-root violations (need 0), worst |det(tA + B)| / size^3 over"
            f" {t.size} roots {worst_root:.2e} <= 1e-13; counts {dict(sorted(counts.items()))}")


def test_criterion_10_moduli_bridge():
    rng = np.random.default_rng(7)
    worst_master = 0.0
    for seed in range(1000):
        mu = rng.standard_normal(3)
        mu /= np.linalg.norm(mu)
        ker = kernel_from_moduli(haar_unitary(4, seed), mu)
        worst_master = max(worst_master,
                           abs(np.trace(ker.mat).real - 1.0),
                           abs(np.trace(ker.mat @ ker.mat).real - 4.0))
    ker_ref = kernel_from_moduli(np.eye(4), [1.0, 0.0, 0.0])
    gold = np.sort([(1 + np.sqrt(15)) / 4] * 2 + [(1 - np.sqrt(15)) / 4] * 2)
    spec_err = np.abs(np.sort(np.linalg.eigvalsh(ker_ref.mat)) - gold).max()
    orbit_ok = True
    for seed in range(100):
        comp = make_composite_kernel(DIMS22, seed)
        orbit_dim = 6 - isotropy_dim(comp.mat)
        orbit_ok = orbit_ok and orbit_dim == 6
    ok = worst_master < 1e-12 and spec_err < 1e-14 and orbit_ok
    _report(10, "moduli-sphere kernels and orbit dimension", ok,
            f"master residuals {worst_master:.2e} < 1e-12 on 1000 mu, reference"
            f" spectrum error {spec_err:.2e} < 1e-14, orbit dim 6 on 100 seeds")


def test_criterion_11_convention_ledger():
    report = convention_report(seed=11)
    s_dev = abs(report["elementary_sum_rule"] - 1.0)
    blocks = report["composite_blocks"]
    printed_both = ("targets_hs2" in blocks and "targets_hs4" in blocks
                    and "literature_values" in blocks
                    and "matrix_residuals" in blocks)
    # the discrepancy is documented, not hidden: the literature triple must
    # appear verbatim and differ from the adopted targets
    documented = (blocks["literature_values"] == [0.1, 0.1, 0.8]
                  and blocks["literature_values"] != blocks["targets_hs2"])
    matrix_ok = max(blocks["matrix_residuals"].values()) < 1e-10
    elementary = kernel_from_moduli(haar_unitary(4, 12),
                                    np.array([3.0, -2.0, 1.0]) / np.sqrt(14.0)).mat
    s_check = abs(elementary_constraint_value(elementary) - 1.0)
    measured = convention_report(seed=13)["composite_blocks"]
    measured_ok = np.allclose(measured["measured_hs2"], measured["targets_hs2"], atol=1e-10)
    ok = (s_dev < 1e-10 and s_check < 1e-10 and printed_both and documented
          and matrix_ok and measured_ok)
    print("[criterion 11] convention audit:",
          {"sum_rule": report["elementary_sum_rule"],
           "measured_hs2": blocks["measured_hs2"],
           "targets_hs2": blocks["targets_hs2"],
           "targets_hs4": blocks["targets_hs4"],
           "literature_values": blocks["literature_values"],
           "matrix_residuals": blocks["matrix_residuals"]})
    _report(11, "convention ledger", ok,
            f"sum rule dev {s_dev:.2e} < 1e-10; both candidate translations and"
            f" matrix-level residuals printed; discrepancy documented")
