import csv
import dataclasses
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from swphase.linalg import BipartiteDims, haar_unitary, random_hermitian
from swphase.kernel import kernel_from_spectrum, solve_kernel_spectrum
from swphase.composite import (
    block_norm_targets,
    fano_blocks,
    fano_blocks_compose,
    make_composite_kernel,
    verify_composite_master,
)
from swphase import twoqubit
from swphase.twoqubit import (
    A_PLANE,
    A_PRIME_PLANE,
    KERNEL_COEFF,
    K_TWISTED,
    LAMBDA,
    MATRIX_LEVEL,
    PAULI,
    SCAN_CHUNK,
    SCAN_CSV_COLUMNS,
    SIGMA,
    TORUS,
    QuadricTriple,
    abelian_factor,
    abelian_quadrics,
    char_cubic_roots,
    kak_element,
    kernel_from_moduli,
    moduli_feasibility,
    moduli_record,
    moduli_scan,
    scan_to_csv,
    scan_to_json,
)
from swphase.reports import (
    TwoQubitBlockReport,
    convention_report,
    cross_commutator_report,
    elementary_constraint_value,
    isotropy_dim,
    torus_factor_dependence,
)

DIMS22 = BipartiteDims(2, 2)


def _random_params(seed):
    """a then a', uniform in [-pi, pi)^3 each."""
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, (2, 3))


def _random_abelian_factor(seed):
    return abelian_factor(*_random_params(seed))


def _random_quadrics(seed):
    return abelian_quadrics(*_random_params(seed))


class TestLambdaBasis:
    def test_orthonormality(self):
        gram = -np.einsum("iab,jba->ij", LAMBDA, LAMBDA).real
        assert np.abs(gram - np.eye(15)).max() < 1e-14

    def test_single_generator_norm(self):
        l3 = LAMBDA[TORUS[0]]
        assert abs(-np.trace(l3 @ l3).real - 1.0) < 1e-14

    @pytest.mark.parametrize("block", [pytest.param(A_PLANE, id="a_generators"),
                                       pytest.param(A_PRIME_PLANE, id="a_prime_generators"),
                                       pytest.param(TORUS, id="k_prime_generators")])
    def test_abelian_blocks(self, block):
        gens = LAMBDA[list(block)]
        for x in gens:
            for y in gens:
                assert np.linalg.norm(x @ y - y @ x) < 1e-13

    def test_k_triple_closure(self):
        # [l2, -l14] is proportional to -l8: the first triple of K_TWISTED
        minus_l14, l2, minus_l8 = K_TWISTED[:3]
        comm = l2 @ minus_l14 - minus_l14 @ l2
        coeff = -np.trace(comm @ minus_l8).real
        assert np.linalg.norm(comm - coeff * minus_l8) < 1e-13
        assert abs(coeff) > 0.5

    def test_k_triples_are_anticommuting_paulis(self):
        # What the Rodrigues form of the K factor rests on: within a triple,
        # x x = -I/4 and x y = -y x; across the triples, x y = y x.  Exact.
        zero = np.zeros((4, 4))
        for triple in (K_TWISTED[:3], K_TWISTED[3:]):
            for i, x in enumerate(triple):
                assert np.array_equal(x @ x, -0.25 * np.eye(4))
                for y in triple[i + 1:]:
                    assert np.array_equal(x @ y + y @ x, zero)
        for x in K_TWISTED[:3]:
            for y in K_TWISTED[3:]:
                assert np.array_equal(x @ y - y @ x, zero)

    def test_k_closes_on_itself(self):
        k = K_TWISTED
        for i in range(6):
            for j in range(6):
                c = k[i] @ k[j] - k[j] @ k[i]
                proj = np.einsum("m,mab->ab", -np.einsum("ab,mba->m", c, k).real, k)
                assert np.linalg.norm(c - proj) < 1e-13

    def test_k_kprime_commutators_in_abelian_planes(self):
        span = LAMBDA[list(A_PLANE + A_PRIME_PLANE)]
        for x in K_TWISTED:
            for y in LAMBDA[list(TORUS)]:
                c = x @ y - y @ x
                proj = np.einsum(
                    "m,mab->ab", -np.einsum("ab,mba->m", c, span).real, span)
                assert np.linalg.norm(c - proj) < 1e-13

    @pytest.mark.parametrize("shared", [PAULI, SIGMA, LAMBDA, K_TWISTED,
                                        twoqubit._PHASE_BILINEAR.reshape(16, 24, 16)],
                             ids=["PAULI", "SIGMA", "LAMBDA", "K_TWISTED", "_PHASE_BILINEAR"])
    def test_shared_arrays_read_only(self, shared):
        before = shared.copy()
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0, 0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            shared *= 2.0
        assert np.array_equal(shared, before)

    def test_cross_commutator_report_is_descriptive(self):
        report = cross_commutator_report()
        assert report["span_dim"] >= 1
        assert report["total_weight"] == pytest.approx(
            report["weight_k_twisted"], abs=1e-10)


class TestFanoForm:
    """The two-qubit Fano form (identity, local and correlation blocks) at 2x2."""

    def test_maximally_mixed(self):
        blocks = fano_blocks(np.eye(4) / 4, DIMS22)
        assert np.linalg.norm(blocks.local_a) < 1e-15
        assert np.linalg.norm(blocks.local_b) < 1e-15
        assert np.linalg.norm(blocks.corr) < 1e-15

    def test_round_trip(self):
        for seed in range(200):
            h = random_hermitian(4, seed)
            back = fano_blocks_compose(fano_blocks(h, DIMS22))
            assert np.linalg.norm(back - h) < 1e-13

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            fano_blocks(np.eye(4) + 1j * np.diag([1, 0, 0, 0]), DIMS22)


class TestElementaryConstraint:
    def test_moduli_kernel_on_shell(self):
        ker = kernel_from_moduli(np.eye(4), [1.0, 0.0, 0.0])
        s = elementary_constraint_value(ker.mat)
        assert abs(s - 1.0) < 1e-12

    def test_maximally_mixed_is_zero(self):
        s = elementary_constraint_value(np.eye(4) / 4)
        assert abs(s) < 1e-15

    def test_random_elementary_kernel(self):
        for seed in range(25):
            ker = kernel_from_spectrum(
                solve_kernel_spectrum(4, "random", seed=seed),
                haar_unitary(4, seed + 77))
            s = elementary_constraint_value(ker.mat)
            assert abs(s - 1.0) < 1e-10


class TestTwoQubitConstraintValues:
    def test_product_kernel(self):
        ka = kernel_from_spectrum(solve_kernel_spectrum(2), haar_unitary(2, 0))
        kb = kernel_from_spectrum(solve_kernel_spectrum(2), haar_unitary(2, 1))
        product = np.kron(ka.mat, kb.mat)
        report = verify_composite_master(product, DIMS22)
        assert max(report.full.trace_residual, report.full.purity_residual,
                   report.purity_a_residual, report.purity_b_residual) < 1e-12
        blocks = fano_blocks(product, DIMS22)
        measured = (blocks.local_a @ blocks.local_a, blocks.local_b @ blocks.local_b,
                    np.sum(blocks.corr**2))
        np.testing.assert_allclose(measured, block_norm_targets(DIMS22), atol=1e-12)


class TestKakElement:
    def test_zero_params_is_identity(self):
        el = kak_element(np.zeros(6), np.zeros(3), np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(el.g, np.eye(4), atol=1e-15)

    def test_torus_factor_is_diagonal(self):
        el = kak_element(np.zeros(6), np.zeros(3), np.zeros(3), [0.3, -0.8, 1.1])
        off = el.g - np.diag(np.diag(el.g))
        assert np.linalg.norm(off) < 1e-14

    def test_special_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            el = kak_element(rng.uniform(-np.pi, np.pi, 6),
                             rng.uniform(-np.pi, np.pi, 3),
                             rng.uniform(-np.pi, np.pi, 3),
                             rng.uniform(-np.pi, np.pi, 3))
            g = el.g
            assert np.linalg.norm(g @ g.conj().T - np.eye(4)) < 1e-12
            assert abs(np.linalg.det(g) - 1.0) < 1e-12

    def test_factor_order(self):
        expm = pytest.importorskip("scipy.linalg").expm
        el = kak_element(np.zeros(6), [0.5, 0, 0], [0, 0.7, 0], np.zeros(3))
        expected = expm(0.5 * LAMBDA[A_PLANE[0]]) @ expm(0.7 * LAMBDA[A_PRIME_PLANE[1]])
        np.testing.assert_allclose(el.factor_a, expected, atol=1e-14)

    def test_factor_k_matches_expm(self):
        expm = pytest.importorskip("scipy.linalg").expm
        zeros = np.zeros(3)
        for k in np.random.default_rng(13).uniform(-np.pi, np.pi, (200, 6)):
            got = kak_element(k, zeros, zeros, zeros).factor_k
            want = expm(np.einsum("i,iab->ab", k, K_TWISTED))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-9], ids=str)
    def test_factor_k_near_origin(self, scale):
        k = scale * np.array([0.6, -0.8, 0.0, 0.0, 0.0, 1.0])
        got = kak_element(k, np.zeros(3), np.zeros(3), np.zeros(3)).factor_k
        assert np.isfinite(got).all()
        if scale == 0.0:
            assert np.array_equal(got, np.eye(4))
        want = pytest.importorskip("scipy.linalg").expm(np.einsum("i,iab->ab", k, K_TWISTED))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_rejects_non_finite(self, bad):
        for group in range(4):
            params = [np.zeros(6), np.zeros(3), np.zeros(3), np.zeros(3)]
            params[group][1] = bad
            with pytest.raises(ValueError, match=r"^KAK parameters must be finite$"):
                kak_element(*params)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_abelian_factor_rejects_non_finite(self, bad):
        for which in range(2):
            params = [np.zeros((4, 3)), np.zeros((4, 3))]
            params[which][2, 1] = bad
            with pytest.raises(ValueError, match=r"^abelian parameters must be finite$"):
                abelian_factor(*params)
            with pytest.raises(ValueError, match=r"^abelian parameters must be finite$"):
                moduli_record(0, params[0][2], params[1][2])

    @pytest.mark.parametrize("shape", [(3,), (7, 3), (2, 5, 3)], ids=str)
    def test_closed_forms_match_expm(self, shape, exp_generators):
        a, ap, t = np.random.default_rng(len(shape)).uniform(-np.pi, np.pi, (3,) + shape)
        exp_a, exp_ap = exp_generators(a, A_PLANE), exp_generators(ap, A_PRIME_PLANE)
        factors = abelian_factor(a, ap)
        assert factors.shape == shape[:-1] + (4, 4)
        np.testing.assert_allclose(factors, exp_a @ exp_ap, rtol=0, atol=1e-14)
        # the two planes do not commute: the swapped order is far off
        assert np.abs(factors - exp_ap @ exp_a).max() > 1e-2
        for idx in np.ndindex(shape[:-1]):
            el = kak_element(np.zeros(6), a[idx], ap[idx], t[idx])
            np.testing.assert_allclose(el.factor_t, exp_generators(t[idx], TORUS),
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(el.factor_a, factors[idx], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("plane", [pytest.param(A_PLANE, id="a_plane"),
                                       pytest.param(A_PRIME_PLANE, id="a_prime_plane"),
                                       pytest.param(TORUS, id="torus")])
    def test_plane_frame_exact(self, plane):
        v = twoqubit._PLANE_FRAMES[plane]
        assert np.array_equal(v @ v.conj().T, np.eye(4))
        assert np.array_equal(v.conj().T @ v, np.eye(4))
        for row, signs in zip(plane, twoqubit._PLANE_SIGNS):
            assert np.array_equal(v.conj().T @ SIGMA[row] @ v, np.diag(signs))


class TestEllipsoidMatrices:
    def test_identity_reference_case(self):
        q = abelian_quadrics(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(q.a, np.diag([4.0 / 3.0, 0.0, 0.0]))
        np.testing.assert_array_equal(q.b, np.diag([0.0, 4.0 / 3.0, 0.0]))

    def test_psd_window_and_trace_bound(self):
        for seed in range(200):
            q = _random_quadrics(seed)
            for m in (q.a, q.b):
                w = np.linalg.eigvalsh(m)
                assert w[0] > -1e-12
                assert w[-1] < 4.0 / 3.0 + 1e-12
                assert np.trace(m) < 4.0 + 1e-12

    def test_symmetry_residual(self):
        # symmetrized in the builder: exactly symmetric, not only within the 1e-13 check
        q = abelian_quadrics(*np.random.default_rng(50).uniform(-np.pi, np.pi, (2, 50, 3)))
        for m in (q.a, q.b):
            assert np.array_equal(m, m.swapaxes(-1, -2))

    def test_sum_bound_on_the_grid(self):
        # A + B <= (4/3) I on all 6^6 grid records; the identity fibre attains it
        index = np.arange(6 ** 6)
        params = _GRID_VALUES[index[:, None] // 6 ** np.arange(6) % 6]
        worst = 0.0
        for chunk in np.split(params, 6):
            q = abelian_quadrics(chunk[:, :3], chunk[:, 3:])
            worst = max(worst, np.linalg.eigvalsh(q.a + q.b)[:, -1].max())
        assert 4.0 / 3.0 - 1e-12 <= worst <= 4.0 / 3.0 + 1e-12


# a'_i -> a'_i + pi conjugates A and B by S_i = diag(_SIGN_MATRICES[i]).
_SIGN_MATRICES = np.array([[1, -1, -1], [1, -1, 1], [1, 1, -1]], dtype=float)


class TestModuliSymmetries:
    """The symmetries of the bundle that the abelian_quadrics docstring states, on 2,000
    random records (the solution map on the first 300)."""

    A, A_PRIME = np.random.default_rng(0).uniform(-np.pi, np.pi, (2, 2000, 3))

    @pytest.mark.parametrize("i", range(3))
    def test_a_period_is_pi(self, i):
        q = abelian_quadrics(self.A, self.A_PRIME)
        shifted = abelian_quadrics(self.A + np.pi * np.eye(3)[i], self.A_PRIME)
        assert np.abs(shifted.a - q.a).max() <= 1e-14
        assert np.abs(shifted.b - q.b).max() <= 1e-14

    def test_joint_sign_is_bit_identical(self):
        q = abelian_quadrics(self.A, self.A_PRIME)
        flipped = abelian_quadrics(-self.A, -self.A_PRIME)
        assert np.array_equal(flipped.a, q.a) and np.array_equal(flipped.b, q.b)

    @pytest.mark.parametrize("i", range(3))
    def test_a_prime_period_conjugates_by_a_sign_matrix(self, i):
        q = abelian_quadrics(self.A, self.A_PRIME)
        shifted = abelian_quadrics(self.A, self.A_PRIME + np.pi * np.eye(3)[i])
        s = np.diag(_SIGN_MATRICES[i])
        assert np.abs(shifted.a - s @ q.a @ s).max() <= 1e-14
        assert np.abs(shifted.b - s @ q.b @ s).max() <= 1e-14

    def test_solutions_map_by_the_sign_matrix(self):
        counts = set()
        for a, ap in zip(self.A[:300], self.A_PRIME[:300]):
            sols = moduli_feasibility(abelian_quadrics(a, ap), MATRIX_LEVEL).solutions
            counts.add(len(sols))
            for i, signs in enumerate(_SIGN_MATRICES):
                shifted = abelian_quadrics(a, ap + np.pi * np.eye(3)[i])
                got = moduli_feasibility(shifted, MATRIX_LEVEL).solutions
                assert len(got) == len(sols)
                if sols:  # each solution of the shifted record is S_i mu for a solution mu
                    dist = np.abs(np.array(got)[:, None] - np.array(sols) * signs).max(axis=-1)
                    assert dist.min(axis=1).max() <= 1e-9
        assert counts == {0, 4, 8}


_QUADRIC_FIELDS = ("a", "b", "eig_a", "eig_b", "eig_ab", "eig_pencil", "rank_a", "rank_b")


class TestPhaseBilinearQuadrics:
    """abelian_quadrics against the adjoint map from its definition (the oracle_quadrics fixture)."""

    @pytest.mark.parametrize("m", [1, 22, SCAN_CHUNK + 1])
    def test_matches_the_adjoint_route(self, m, oracle_quadrics):
        params = np.random.default_rng(m).uniform(-np.pi, np.pi, (m, 6))
        a, ap = params[:, :3], params[:, 3:]
        got, want = abelian_quadrics(a, ap), oracle_quadrics(abelian_factor(a, ap))
        for name in ("a", "b", "eig_a", "eig_b", "eig_ab"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-14)
        assert np.array_equal(got.rank_a, want.rank_a) and np.array_equal(got.rank_b, want.rank_b)

    def test_matches_the_adjoint_route_on_the_grid(self, oracle_quadrics):
        # Rank-deficient records, shared null directions and touching conics.
        index = np.arange(6 ** 6)
        params = _GRID_VALUES[index[:, None] // 6 ** np.arange(6) % 6]
        for chunk in np.split(params, 6):
            a, ap = chunk[:, :3], chunk[:, 3:]
            got, want = abelian_quadrics(a, ap), oracle_quadrics(abelian_factor(a, ap))
            np.testing.assert_allclose(got.a, want.a, rtol=0, atol=1e-14)
            np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-14)
            assert np.array_equal(got.rank_a, want.rank_a)
            assert np.array_equal(got.rank_b, want.rank_b)

    def test_bit_identical_at_zero_parameters(self, oracle_quadrics):
        zeros = np.zeros((3, 3))
        got, want = abelian_quadrics(zeros, zeros), oracle_quadrics(abelian_factor(zeros, zeros))
        for name in _QUADRIC_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        np.testing.assert_array_equal(got.a[0], np.diag([4.0 / 3.0, 0.0, 0.0]))

    def test_record_bits_do_not_depend_on_the_batch(self):
        params = np.random.default_rng(5).uniform(-np.pi, np.pi, (SCAN_CHUNK + 1, 6))
        a, ap = params[:, :3], params[:, 3:]
        stack = abelian_quadrics(a, ap)
        for k in (0, 1, 21, SCAN_CHUNK):
            single = abelian_quadrics(a[k:k + 1], ap[k:k + 1])
            for name in _QUADRIC_FIELDS:
                assert np.array_equal(getattr(stack[k], name), getattr(single, name)[0]), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    def test_rejects_non_finite(self, bad):
        a, ap = np.zeros((4, 3)), np.zeros((4, 3))
        ap[2, 1] = bad
        with pytest.raises(ValueError, match=r"^abelian parameters must be finite$"):
            abelian_quadrics(a, ap)

    def test_overflowing_phase_sums_fail_the_unitarity_check(self):
        a, ap = np.zeros((4, 3)), np.zeros((4, 3))
        a[2] = 8e307
        stacked = np.zeros((2, 5, 3))
        stacked[1, 2] = 8e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^input is not unitary at stack index \[2\]$"):
                abelian_quadrics(a, ap)
            with pytest.raises(ValueError, match=r"^input is not unitary at stack index \[1, 2\]$"):
                abelian_quadrics(stacked, np.zeros((2, 5, 3)))
            with pytest.raises(ValueError, match=r"^input is not unitary$"):
                abelian_quadrics(a[2], ap[2])
            # Finite in each parameter, too large in the sum of a phase.
            with pytest.raises(ValueError, match=r"^input is not unitary at stack index \[0\]$"):
                moduli_record(0, [8e307] * 3, [8e307] * 3)

    def test_non_real_block_raises(self, monkeypatch):
        monkeypatch.setattr(twoqubit, "_PHASE_BILINEAR",
                            twoqubit._PHASE_BILINEAR * np.exp(1e-9j))
        params = np.random.default_rng(3).uniform(-np.pi, np.pi, (2, 6))
        with pytest.raises(ValueError,
                           match=r"^local-by-torus block came out non-real at stack index \[0\]$"):
            abelian_quadrics(params[:, :3], params[:, 3:])


def _det_poly_roots(qa, qb):
    """Oracle: roots of det(t qa + qb), interpolated at four points, by np.roots."""
    ts = np.array([-2.0, -1.0, 0.0, 1.0])
    coeffs = np.linalg.solve(np.vander(ts, 4), [np.linalg.det(t * qa + qb) for t in ts])
    return np.roots(coeffs)


def _ulp_noise(m, rng):
    """m plus symmetric noise of -1, 0 or +1 ulp of its largest entry."""
    e = rng.choice([-1.0, 0.0, 1.0], size=m.shape) * np.spacing(np.abs(m).max())
    return m + np.triu(e) + np.triu(e, 1).T


class TestCharCubicRoots:
    def test_proportional_quadrics(self):
        q = QuadricTriple(a=(4.0 / 3.0) * np.eye(3), b=(4.0 / 3.0) * np.eye(3))
        np.testing.assert_allclose(char_cubic_roots(q), [-1.0, -1.0, -1.0], atol=1e-12)

    def test_cubic_path_matches_eigenvalue_path(self):
        for seed in range(30):
            q = _random_quadrics(seed + 3000)
            roots_ab = char_cubic_roots(q)
            gold_a = np.sort(_det_poly_roots(np.eye(3), q.a).real)
            np.testing.assert_allclose(np.sort(-q.eig_a), gold_a, atol=1e-10)
            if q.rank_a == 3:
                gold_ab = np.sort(_det_poly_roots(q.a, q.b).real)
                np.testing.assert_allclose(np.sort(roots_ab), gold_ab, atol=1e-8)

    def test_backward_accurate_with_one_root_per_rank(self):
        # Normwise residual |det(t A + B)| / (|t| |A| + |B|)^3 at roundoff level,
        # and one root per nonzero eigenvalue of A, in descending order.
        for rec in moduli_scan(5000, 7):
            q, roots = rec.quadrics, rec.roots_ab
            assert roots.dtype == np.float64 and roots.shape == (q.rank_a,)
            assert np.all(np.diff(roots) <= 0.0) and np.all(roots <= 0.0)
            norm_a, norm_b = np.linalg.norm(q.a, 2), np.linalg.norm(q.b, 2)
            for t in roots:
                residual = abs(np.linalg.det(t * q.a + q.b)) / (abs(t) * norm_a + norm_b) ** 3
                assert residual <= 1e-14

    # grid records whose A and B share a null direction, so det(t A + B) == 0
    @pytest.mark.parametrize("a, a_prime", [((0, 1 / 2, 0), (1 / 2, 1 / 2, -1)),
                                            ((0, 1 / 2, 1 / 4), (1 / 2, 0, -1 / 2))])
    def test_singular_pencil_has_no_roots(self, a, a_prime):
        q = abelian_quadrics(np.pi * np.array(a), np.pi * np.array(a_prime))
        assert char_cubic_roots(q).shape == (0,)
        assert q.eig_ab[0] <= 1e-8

    def test_identity_fibre(self):
        q = abelian_quadrics(np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(np.sort(-q.eig_a), [-4.0 / 3.0, 0.0, 0.0], atol=1e-14)
        assert (q.rank_a, q.rank_b) == (1, 1)
        assert char_cubic_roots(q).shape == (0,)

    def test_grid_sample_roots_real_and_non_positive(self):
        # multiples of pi/4 and pi/2: many records share a null direction of A and B
        params = np.random.default_rng(15).choice(_GRID_VALUES, size=(3000, 6))
        q = abelian_quadrics(params[:, :3], params[:, 3:])
        roots = [char_cubic_roots(q[k]) for k in range(len(params))]
        assert all(np.all(np.imag(r) == 0.0) and np.all(np.real(r) <= 0.0) for r in roots)
        # rank_A roots, none on a singular pencil
        assert [len(r) for r in roots] == np.where(q.eig_ab[:, 0] > 1e-8, q.rank_a, 0).tolist()

    def test_ill_conditioned_small_root(self):
        # Record 885 of seed 7: a root near -2.45e-6 beside one near -1.6e6.
        # The reference value is the root of det(t A + B) for these float
        # quadrics in 60-digit arithmetic.
        q = moduli_scan(1000, 7)[885].quadrics
        roots = char_cubic_roots(q)
        small = roots[np.argmin(np.abs(roots))]
        assert abs(small / -2.45400255708e-6 - 1.0) <= 1e-9
        rng = np.random.default_rng(885)
        for _ in range(50):
            noisy = char_cubic_roots(QuadricTriple(a=_ulp_noise(q.a, rng), b=_ulp_noise(q.b, rng)))
            assert abs(noisy[np.argmin(np.abs(noisy))] / small - 1.0) <= 1e-8

    def test_negative_root_sweep(self):
        for seed in range(200):
            q = _random_quadrics(seed + 7000)
            if min(q.rank_a, q.rank_b) < 3:
                continue
            assert (-q.eig_a).min() < -1e-9
            assert (-q.eig_b).min() < -1e-9
            assert char_cubic_roots(q).real.min() < -1e-9


class TestKernelFromModuli:
    def test_reference_spectrum(self):
        ker = kernel_from_moduli(np.eye(4), [1.0, 0.0, 0.0])
        gold = np.diag([(1 + np.sqrt(15)) / 4] * 2 + [(1 - np.sqrt(15)) / 4] * 2)
        got = np.diag([(1 + np.sqrt(15)) / 4, (1 + np.sqrt(15)) / 4,
                       (1 - np.sqrt(15)) / 4, (1 - np.sqrt(15)) / 4])
        np.testing.assert_allclose(ker.mat, got, atol=1e-14)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(ker.mat)),
                                   np.sort(np.diag(gold)), atol=1e-14)

    def test_master_equations_on_sphere(self):
        rng = np.random.default_rng(3)
        for seed in range(100):
            mu = rng.standard_normal(3)
            mu /= np.linalg.norm(mu)
            ker = kernel_from_moduli(haar_unitary(4, seed), mu)
            assert abs(np.trace(ker.mat).real - 1.0) < 1e-12
            assert abs(np.trace(ker.mat @ ker.mat).real - 4.0) < 1e-12

    def test_spectrum_pattern(self):
        rng = np.random.default_rng(4)
        mu = rng.standard_normal(3)
        mu /= np.linalg.norm(mu)
        ker = kernel_from_moduli(np.eye(4), mu)
        d = np.array([mu[0] + mu[1] + mu[2], mu[0] - mu[1] - mu[2],
                      -mu[0] + mu[1] - mu[2], -mu[0] - mu[1] + mu[2]])
        assert abs(d.sum()) < 1e-12
        assert abs((d**2).sum() - 4.0) < 1e-12
        gold = np.sort((1.0 + np.sqrt(15) * d) / 4.0)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(ker.mat)), gold,
                                   atol=1e-12)

    def test_axis_point_fails_reduction(self):
        ker = kernel_from_moduli(np.eye(4), [1.0, 0.0, 0.0])
        report = verify_composite_master(ker.mat, DIMS22)
        assert abs(report.purity_a_residual - 6.0) < 1e-12

    def test_rejects_off_sphere(self):
        with pytest.raises(ValueError):
            kernel_from_moduli(np.eye(4), [1.0, 1.0, 0.0])


class TestModuliFeasibility:
    def test_identity_case_empty(self):
        result = moduli_feasibility(abelian_quadrics(np.zeros(3), np.zeros(3)), level=1.0)
        assert result.solutions == []
        assert result.classification == "degenerate"

    def test_unit_level_provably_infeasible_on_bundle(self):
        # sub-blocks of an orthogonal matrix: A + B <= (4/3) I, so the two
        # unit-level ellipsoid equations can never hold at once
        for seed in range(100):
            q = _random_quadrics(seed)
            top = np.linalg.eigvalsh(q.a + q.b)[-1]
            assert top <= 4.0 / 3.0 + 1e-12
            assert moduli_feasibility(q, level=1.0).solutions == []

    def test_solutions_on_generic_quadrics(self):
        special_ortho_group = pytest.importorskip("scipy.stats").special_ortho_group
        ra = special_ortho_group.rvs(3, random_state=1)
        rb = special_ortho_group.rvs(3, random_state=2)
        q = QuadricTriple(a=ra @ np.diag([1.25, 0.8, 0.85]) @ ra.T,
                          b=rb @ np.diag([0.7, 1.3, 1.05]) @ rb.T)
        result = moduli_feasibility(q, level=1.0)
        assert result.n_solutions == 4  # two antipodal pairs
        for mu in result.solutions:
            assert abs(np.linalg.norm(mu) - 1.0) < 1e-10
            assert abs(mu @ q.a @ mu - 1.0) < 1e-10
            assert abs(mu @ q.b @ mu - 1.0) < 1e-10

    def test_matrix_level_solutions_give_admissible_kernels(self):
        from swphase.twoqubit import MATRIX_LEVEL

        found = 0
        for seed in range(12):
            factor, q = _random_abelian_factor(seed), _random_quadrics(seed)
            result = moduli_feasibility(q, level=MATRIX_LEVEL)
            for mu in result.solutions:
                found += 1
                assert abs(mu @ q.a @ mu - MATRIX_LEVEL) < 1e-10
                ker = kernel_from_moduli(factor, mu)
                report = verify_composite_master(ker.mat, DIMS22)
                assert report.admissible()
        assert found > 0

    def test_record_79_keeps_both_antipodal_pairs(self):
        # a sphere search drops one member of a pair on this record
        rec = moduli_scan(200, seed=3)[79]
        factor = kak_element(np.zeros(6), rec.a_params, rec.a_prime_params,
                             np.zeros(3)).factor_a
        sols = moduli_feasibility(rec.quadrics, level=MATRIX_LEVEL).solutions
        assert len(sols) == 4
        for mu in sols:
            assert sum(np.linalg.norm(mu + s) <= 1e-8 for s in sols) == 1
            assert abs(mu @ rec.quadrics.a @ mu - MATRIX_LEVEL) <= 1e-10
            assert abs(mu @ rec.quadrics.b @ mu - MATRIX_LEVEL) <= 1e-10
            ker = kernel_from_moduli(factor, mu)
            assert verify_composite_master(ker.mat, DIMS22).admissible()

    def test_identity_fibre_matrix_level(self):
        # A = diag(4/3, 0, 0), B = diag(0, 4/3, 0): mu_1^2 = mu_2^2 = 1/5
        q = abelian_quadrics(np.zeros(3), np.zeros(3))
        sols = moduli_feasibility(q, level=MATRIX_LEVEL).solutions
        assert len(sols) == 8
        for mu in sols:
            np.testing.assert_allclose(np.abs(mu), np.sqrt([0.2, 0.2, 0.6]), atol=1e-12)
            assert abs(mu @ q.a @ mu - MATRIX_LEVEL) <= 1e-10
            assert abs(mu @ q.b @ mu - MATRIX_LEVEL) <= 1e-10

    def test_degenerate_pencil_raises(self):
        rot, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
        a = rot @ np.diag([1.0, 0.5, 0.1]) @ rot.T
        # A = B: every point of one level set on the sphere solves the system
        with pytest.raises(ValueError, match="degenerate pencil"):
            moduli_feasibility(QuadricTriple(a=a, b=a), level=MATRIX_LEVEL)
        # an eigenvector shared at eigenvalue MATRIX_LEVEL: a common null direction
        for a_diag, b_diag in (([1.0, 0.1], [0.05, 1.2]), ([0.9, 0.2], [0.1, 0.7])):
            a, b = (rot @ np.diag(d + [MATRIX_LEVEL]) @ rot.T for d in (a_diag, b_diag))
            with pytest.raises(ValueError, match="degenerate pencil"):
                moduli_feasibility(QuadricTriple(a=a, b=b), level=MATRIX_LEVEL)

    def test_exchange_gives_same_solutions_and_label(self):
        labels = set()
        for seed in range(60):
            q = _random_quadrics(seed + 11_000)
            got = moduli_feasibility(q, level=MATRIX_LEVEL)
            swapped = moduli_feasibility(QuadricTriple(a=q.b, b=q.a), level=MATRIX_LEVEL)
            assert got.classification == swapped.classification
            assert got.n_solutions == swapped.n_solutions
            for mu in got.solutions:
                assert min(np.linalg.norm(mu - s) for s in swapped.solutions) <= 1e-12
            labels.add(got.classification)
        assert {"feasible", "empty"} <= labels

    @pytest.mark.parametrize("a, a_prime, level", [
        ((0, 0, 1 / 4), (0, 0, 1 / 4), 0.4),
        ((-1, -1 / 2, 1 / 4), (1, 1 / 2, 1 / 4), MATRIX_LEVEL),
        ((1 / 4, 1, 1), (1 / 2, 1 / 4, 0), MATRIX_LEVEL),
        ((1, 1, 1 / 4), (-1 / 2, -1, 1 / 4), 0.4),
        ((0, 0, 1 / 4), (0, 1 / 4, 0), 0.4),
    ])
    def test_structured_tangency_records(self, a, a_prime, level):
        # Rank-deficient records on the grid of multiples of pi/4 with a
        # tangency: a line of the split pencil member touches the other
        # conic, and its double root is one candidate, so the tangent
        # point counts once.  Every record has solutions, exact to
        # roundoff, the last one too: a tangency whose Brickman margin is
        # +2.1e-11.
        q = abelian_quadrics(np.pi * np.array(a), np.pi * np.array(a_prime))
        assert min(q.rank_a, q.rank_b) < 3
        got = moduli_feasibility(q, level=level)
        assert got.classification == "degenerate"
        assert got.n_solutions == 4
        mus = np.array(got.solutions)
        np.testing.assert_allclose(np.linalg.norm(mus, axis=1), 1.0, rtol=0, atol=1e-14)
        for quad in (q.a, q.b):
            values = np.einsum("pi,ij,pj->p", mus, quad, mus)
            assert np.abs(values - level).max() <= 1e-14
        np.testing.assert_array_equal(mus[1::2], -mus[0::2])

    def test_tangent_point_counts_once_under_noise(self):
        # The double root comes out as one candidate whatever its last bits:
        # with two candidates about sqrt(eps) apart, around _DEDUP_TOL,
        # 1-ulp noise gave 4, 6 or 8 solutions here.
        q = abelian_quadrics(np.pi * np.array([0, 0, 0.25]), np.pi * np.array([0, 0.25, 0]))
        rng = np.random.default_rng(38)
        for _ in range(200):
            noisy = QuadricTriple(a=_ulp_noise(q.a, rng), b=_ulp_noise(q.b, rng))
            assert moduli_feasibility(noisy, level=0.4).n_solutions == 4

    def test_label_degenerate_on_identity_fibre(self):
        # rank 1/1 quadrics: degenerate even though 8 solutions exist
        result = moduli_feasibility(abelian_quadrics(np.zeros(3), np.zeros(3)), level=MATRIX_LEVEL)
        assert result.n_solutions == 8
        assert result.classification == "degenerate"

    def test_label_feasible(self):
        rec = moduli_scan(200, seed=3)[79]
        assert (rec.quadrics.rank_a, rec.quadrics.rank_b) == (3, 3)
        result = moduli_feasibility(rec.quadrics, level=MATRIX_LEVEL)
        assert result.n_solutions == 4
        assert result.classification == "feasible"

    def test_label_empty(self):
        # level 1 is out of reach on the bundle (A + B <= (4/3) I)
        rec = moduli_scan(200, seed=3)[79]
        assert (rec.quadrics.rank_a, rec.quadrics.rank_b) == (3, 3)
        assert rec.n_solutions == 0
        assert rec.classification == "empty"
        assert moduli_feasibility(rec.quadrics, level=1.0).classification == "empty"

    def test_bundle_matrix_bridge_identity(self):
        # for every unit mu (solution or not):
        # tr((Tr_B D)^2) = 1/2 + (45/8) mu A mu^T, and the B twin
        rng = np.random.default_rng(17)
        for seed in range(25):
            factor, q = _random_abelian_factor(seed + 4000), _random_quadrics(seed + 4000)
            mu = rng.standard_normal(3)
            mu /= np.linalg.norm(mu)
            ker = kernel_from_moduli(factor, mu)
            ra = np.einsum("ikjk->ij", ker.mat.reshape(2, 2, 2, 2))
            val_a = np.trace(ra @ ra).real
            assert abs(val_a - (0.5 + (45.0 / 8.0) * (mu @ q.a @ mu))) < 1e-10
            rb = np.einsum("kikj->ij", ker.mat.reshape(2, 2, 2, 2))
            val_b = np.trace(rb @ rb).real
            assert abs(val_b - (0.5 + (45.0 / 8.0) * (mu @ q.b @ mu))) < 1e-10


def _qz_reference(q, level):
    """Solutions of the moduli system through scipy's QZ wrapper, one point at a time.

    The pencil-and-line-pair algorithm of the library, written without its
    batching: eigvals(..., homogeneous_eigvals=True) for the pencil roots
    and a per-point loop that refines, checks residuals and deduplicates.
    The library keeps its closed-form points as they are, so parity at
    1e-12 also checks that the refinement moves them by roundoff only.
    Both candidates of a tangent line's double root are kept here and left
    to the distance dedup, where the library emits one; seeded draws have
    no exact tangency, so the counts must agree.
    """
    if not (q.eig_a[0] <= level <= q.eig_a[-1] and q.eig_b[0] <= level <= q.eig_b[-1]
            and np.linalg.eigvalsh(q.a + q.b)[-1] >= 2.0 * level):
        return []
    ca, cb = q.a - level * np.eye(3), q.b - level * np.eye(3)
    ca, cb = ca / np.linalg.norm(ca), cb / np.linalg.norm(cb)
    eigvals = pytest.importorskip("scipy.linalg").eigvals
    ab = eigvals(ca, -cb, homogeneous_eigvals=True)
    xy = np.stack([ab[1].real, ab[0].real], axis=1)[np.abs(ab[0].imag) <= 1e-8 * np.abs(ab).max(axis=0)]
    xy /= np.linalg.norm(xy, axis=1, keepdims=True)
    w, v = np.linalg.eigh(xy[:, 0, None, None] * ca + xy[:, 1, None, None] * cb)
    score = np.where((np.argmin(np.abs(w), axis=1) == 1) & (w[:, 0] < 0.0) & (w[:, 2] > 0.0),
                     np.minimum(-w[:, 0], w[:, 2]), -np.inf)
    k, points = int(np.argmax(score)), []
    if score[k] > -np.inf:
        other = cb if abs(xy[k, 0]) >= abs(xy[k, 1]) else ca
        lo, hi = np.sqrt(-w[k, 0]), np.sqrt(w[k, 2])
        v0, v1, v2 = v[k].T
        for sign in (1.0, -1.0):
            e = (lo * v2 + sign * hi * v0) / np.hypot(lo, hi)
            p, c, r = v1 @ other @ v1, v1 @ other @ e, e @ other @ e
            disc = c * c - p * r
            if disc >= -1e-10 * (p * p + c * c + r * r):
                s = -(c + np.copysign(np.sqrt(max(disc, 0.0)), c))
                points += [u * v1 + t * e for u, t in ((s, p), (r, s)) if u or t]
    forms, solutions = np.stack([np.eye(3), q.a, q.b]), []
    for mu in points:
        mu = mu / np.linalg.norm(mu)
        for _ in range(2):
            grad = forms @ mu
            if np.linalg.det(grad) != 0.0:
                mu = mu - 0.5 * np.linalg.solve(grad, grad @ mu - [1.0, level, level])
        mu = mu / np.linalg.norm(mu)
        if (max(abs(mu @ q.a @ mu - level), abs(mu @ q.b @ mu - level)) <= 1e-10
                and all(np.linalg.norm(mu - s) > 1e-8 for s in solutions)):
            solutions += [mu, -mu]
    return solutions


class TestSolverGuards:
    """Inputs the solver must refuse with a ValueError before any LAPACK call."""

    @pytest.mark.parametrize("zero", ["a", "b"])
    def test_zero_conic_raises_degenerate_pencil(self, zero):
        # A = level I: C_A = 0, a pencil made of C_B alone, solved by a whole conic
        flat, other = MATRIX_LEVEL * np.eye(3), np.diag([0.1, 0.3, 0.5])
        pair = {"a": flat, "b": other} if zero == "a" else {"a": other, "b": flat}
        q = QuadricTriple(**pair)
        assert twoqubit._level_reachable(q, MATRIX_LEVEL)
        with pytest.raises(ValueError, match="degenerate pencil"):
            moduli_feasibility(q, level=MATRIX_LEVEL)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_level_must_be_positive_and_finite(self, level):
        q = _random_quadrics(3)
        with pytest.raises(ValueError, match="level must be positive and finite"):
            moduli_feasibility(q, level=level)
        with pytest.raises(TypeError):  # the level has no default
            moduli_feasibility(q)

    def test_exact_shared_null_direction_raises_degenerate_pencil(self):
        # diagonal quadrics sharing the eigenvalue level: alpha = beta = 0 exactly
        for a_diag, b_diag in (([1.0, 0.1], [0.05, 1.2]), ([0.9, 0.2], [0.1, 0.7])):
            q = QuadricTriple(a=np.diag(a_diag + [MATRIX_LEVEL]), b=np.diag(b_diag + [MATRIX_LEVEL]))
            with pytest.raises(ValueError, match="degenerate pencil"):
                moduli_feasibility(q, level=MATRIX_LEVEL)

    @pytest.mark.parametrize("gap", [1e-9, -1e-9, 1e-6, -1e-6])
    def test_near_shared_null_direction_is_solved(self, gap, monkeypatch):
        # C_A and C_B miss a common null direction by `gap`: a regular
        # pencil, solved as the QZ reference solves it (no solutions for a
        # positive gap, four pairs near the third axis for a negative one)
        q = QuadricTriple(a=np.diag([1.0, 0.1, MATRIX_LEVEL]),
                          b=np.diag([0.05, 1.2, MATRIX_LEVEL + gap]))
        got = moduli_feasibility(q, level=MATRIX_LEVEL)
        monkeypatch.setattr(twoqubit, "_singular_members", _dggev_singular_members)
        want = moduli_feasibility(q, level=MATRIX_LEVEL)
        assert got.n_solutions == want.n_solutions == (0 if gap > 0 else 8)
        for mu in got.solutions:
            assert min(np.abs(mu - s).max() for s in want.solutions) <= 1e-12


class TestRealRootCut:
    """_singular_members keeps a pencil root when |Im nu| <= 1e-8 of its size."""

    def test_near_real_complex_pair_is_dropped(self):
        # det(ca - t cb) = (-eps^2 - (1 - t)^2)(c - t): the real root c and the
        # pair 1 +- i eps, whose relative imaginary part (about eps) lies above
        # the cut and below a looser cut of 1e-5
        eps, c = 2e-6, 0.3
        ca = np.array([[eps, 1.0, 0.0], [1.0, -eps, 0.0], [0.0, 0.0, c]])
        cb = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rot = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
        ca, cb = rot @ ca @ rot.T, rot @ cb @ rot.T  # a congruence keeps the roots
        norm_a, norm_b = np.linalg.norm(ca), np.linalg.norm(cb)
        roots = twoqubit._singular_members(ca / norm_a, cb / norm_b)
        assert len(roots) == 1
        want = np.array([norm_a, -c * norm_b])  # the member ca - c cb
        want /= np.linalg.norm(want)
        assert min(np.abs(roots[0] - want).max(), np.abs(roots[0] + want).max()) <= 1e-12


class TestSolverParity:
    """moduli_feasibility against the per-point QZ reference on seeded bundle draws."""

    @pytest.mark.parametrize("level", [MATRIX_LEVEL, 0.15, 0.4])
    def test_matches_qz_reference(self, level):
        labels = set()
        for seed in range(300):
            q = _random_quadrics(seed + 30_000)
            got, want = moduli_feasibility(q, level=level), _qz_reference(q, level)
            assert got.n_solutions == len(want)
            if min(q.rank_a, q.rank_b) < 3:
                assert got.classification == "degenerate"
            else:
                assert got.classification == ("feasible" if want else "empty")
            for mu in got.solutions:
                assert min(np.abs(mu - s).max() for s in want) <= 1e-12
            labels.add(got.classification)
        assert {"feasible", "empty"} <= labels


# The 6^6 structured grid: each abelian parameter is one of 0, +-pi/2, +-pi
# and pi/4.  Its records are often rank-deficient, share a null direction of
# A and B, or have conics that touch.
_GRID_VALUES = np.pi * np.array([0.0, 0.5, -0.5, 1.0, -1.0, 0.25])


def _grid_quadrics(n, seed):
    """The quadrics of n distinct grid records, drawn with a seed."""
    index = np.random.default_rng(seed).choice(6 ** 6, size=n, replace=False)
    params = _GRID_VALUES[index[:, None] // 6 ** np.arange(6) % 6]
    return abelian_quadrics(params[:, :3], params[:, 3:])


def _dsygvd_roots(q):
    """Reference roots of det(t A + B), descending, from scipy's eigh of the pencil (A, A + B).

    No roots when A + B is singular; otherwise 1 - 1/lambda over the
    eigenvalues above 1e-9 (the zero ones come out at roundoff).
    """
    scipy_linalg = pytest.importorskip("scipy.linalg")
    if scipy_linalg.eigvalsh(q.a + q.b)[0] <= 1e-8:
        return np.zeros(0)
    lam = scipy_linalg.eigh(q.a, q.a + q.b, eigvals_only=True)[::-1]
    return 1.0 - 1.0 / np.minimum(lam[lam > 1e-9], 1.0)


def _dggev_singular_members(ca, cb):
    """Reference for twoqubit._singular_members through scipy's QZ wrapper (LAPACK dggev).

    Roots alpha / beta of det(ca + t cb): a root with alpha and beta both at
    most 1e-12 marks a singular pencil, and a root is real when
    |Im alpha| <= 1e-8 max(|alpha|, |beta|); it stands for the member
    beta ca + alpha cb.
    """
    alpha, beta = pytest.importorskip("scipy.linalg").eigvals(ca, -cb, homogeneous_eigvals=True)
    size = np.maximum(np.abs(alpha), np.abs(beta))
    if size.min() <= 1e-12:
        raise ValueError(twoqubit._DEGENERATE_PENCIL)
    xy = np.stack([beta.real, alpha.real], axis=1)[np.abs(alpha.imag) <= 1e-8 * size]
    return (xy / np.linalg.norm(xy, axis=1, keepdims=True)).tolist()


def _solve_or_none(q, level):
    try:
        return moduli_feasibility(q, level=level)
    except ValueError as exc:
        assert "degenerate pencil" in str(exc)
        return None


class TestGridParity:
    """The pencil code on 2,000 grid records against the scipy references of the tests."""

    def test_roots_match_dsygvd(self):
        q = _grid_quadrics(2000, 16)
        with_roots = 0
        for k in range(2000):
            got, want = char_cubic_roots(q[k]), _dsygvd_roots(q[k])
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            norm_a, norm_b = np.linalg.norm(q[k].a, 2), np.linalg.norm(q[k].b, 2)
            for t in got:
                det = np.linalg.det(t * q[k].a + q[k].b)
                assert abs(det) / (abs(t) * norm_a + norm_b) ** 3 <= 1e-14
            with_roots += len(got) > 0
        assert 0 < with_roots < 2000  # the sample holds singular pencils too

    @pytest.mark.parametrize("level", [MATRIX_LEVEL, 0.15, 0.4])
    def test_solutions_match_dggev(self, level, monkeypatch):
        # Points where the conics cross agree to 1e-12.  Where they touch,
        # the three gradients mu, A mu, B mu are dependent, and a change in
        # the last bits of a pencil root moves the point by up to sqrt(eps):
        # there the bound is 1e-6, with residuals at roundoff in both.
        q = _grid_quadrics(2000, 16)
        got = [_solve_or_none(q[k], level) for k in range(2000)]
        monkeypatch.setattr(twoqubit, "_singular_members", _dggev_singular_members)
        want = [_solve_or_none(q[k], level) for k in range(2000)]
        raised = touching = 0
        for k, (g, w) in enumerate(zip(got, want)):
            assert (g is None) == (w is None)
            if g is None:
                raised += 1
                continue
            assert (g.n_solutions, g.classification) == (w.n_solutions, w.classification)
            for mu in g.solutions:
                crossing = abs(np.linalg.det(np.stack([mu, q[k].a @ mu, q[k].b @ mu]))) >= 1e-5
                touching += not crossing
                bound = 1e-12 if crossing else 1e-6
                assert min(np.abs(mu - s).max() for s in w.solutions) <= bound
                assert abs(mu @ q[k].a @ mu - level) <= 1e-10
                assert abs(mu @ q[k].b @ mu - level) <= 1e-10
        assert raised > 0
        assert touching > 0 or level == 0.15  # no record of the sample touches at 0.15


def _array_bookkeeping(q, level):
    """moduli_feasibility's solutions by the array form of its residual filter and dedup.

    The form the solver used before this bookkeeping ran on Python floats:
    one array product for the residuals of all candidate points of
    _conic_intersection and one for their distances, then the first-come dedup.
    """
    if not twoqubit._level_reachable(q, level):
        return []
    mus = twoqubit._conic_intersection(q.a - level * np.eye(3), q.b - level * np.eye(3))
    if not len(mus):
        return []
    mus /= np.sqrt((mus * mus).sum(axis=1, keepdims=True))
    values = (mus @ np.concatenate([q.a, q.b], axis=1)).reshape(-1, 2, 3) @ mus[:, :, None]
    good = mus[np.abs(values[..., 0] - level).max(axis=1) <= twoqubit._RESIDUAL_TOL]
    # Distances from each point to every point, then to every antipode.
    n = len(good)
    diff = good[:, None] - np.concatenate([good, -good])
    dist = np.sqrt((diff * diff).sum(axis=-1)).tolist()
    kept = []
    for i, row in enumerate(dist):
        if all(row[j] > twoqubit._DEDUP_TOL and row[j + n] > twoqubit._DEDUP_TOL for j in kept):
            kept.append(i)
    return [mu for i in kept for mu in (good[i], -good[i])]


class TestBookkeepingParity:
    """The float bookkeeping of moduli_feasibility gives the array form's solutions, bit for bit.

    numpy alone: the reference takes the same candidate points, so any
    difference is in the normalization, the residual filter or the dedup.
    """

    @pytest.mark.parametrize("level", [MATRIX_LEVEL, 0.15, 0.4])
    @pytest.mark.parametrize("sample", ["draws", "grid"])
    def test_solutions_are_bit_identical(self, level, sample):
        if sample == "draws":
            params = np.random.default_rng(40_000).uniform(-np.pi, np.pi, (2, 2000, 3))
            q = abelian_quadrics(params[0], params[1])
        else:
            q = _grid_quadrics(1000, 17)
        counts = set()
        for k in range(len(q.a)):
            try:
                want = _array_bookkeeping(q[k], level)
            except ValueError:
                with pytest.raises(ValueError, match="degenerate pencil"):
                    moduli_feasibility(q[k], level=level)
                continue
            got = moduli_feasibility(q[k], level=level).solutions
            assert [mu.tobytes() for mu in got] == [mu.tobytes() for mu in want], k
            assert all(mu.shape == (3,) and mu.dtype == float for mu in got)
            counts.add(len(got))
        assert {0, 8} <= counts if sample == "draws" else 0 in counts


class TestIsotropyDim:
    def test_diagonal_distinct_local(self):
        assert isotropy_dim(np.diag([0.4, 0.3, 0.2, 0.1])) == 2

    def test_maximally_mixed_all_algebras(self):
        assert isotropy_dim(np.eye(4) / 4) == 6

    def test_generic_composite_kernel_orbit_dim(self):
        for seed in range(25):
            comp = make_composite_kernel(DIMS22, seed)
            iso = isotropy_dim(comp.mat)
            assert iso == 0  # orbit dimension 6


class TestModuliScan:
    def test_zero_params_single_record(self):
        records = moduli_scan(1, seed=0, ranges=(0.0, 0.0))
        assert len(records) == 1
        rec = records[0]
        assert not (rec.a_params.any() or rec.a_prime_params.any())
        assert rec.classification == "degenerate"
        assert rec.n_solutions == 0
        np.testing.assert_array_equal(rec.quadrics.a, np.diag([4.0 / 3.0, 0, 0]))

    def test_closed_form_change_is_roundoff(self, oracle_quadrics, exp_generators):
        # The closed-form front end against the eigensolver route it replaced
        # (the exponential of the generator sums, then the per-generator adjoint).
        # The roots are compared relative to the largest root of the record:
        # a root far below it is ill-conditioned, and the last bits in which
        # the two front ends' quadrics differ move it by up to 1e-6 of itself.
        records = moduli_scan(1000, 7)
        a = np.stack([rec.a_params for rec in records])
        ap = np.stack([rec.a_prime_params for rec in records])
        ref = oracle_quadrics(exp_generators(a, A_PLANE) @ exp_generators(ap, A_PRIME_PLANE))
        for k, rec in enumerate(records):
            want, feas = ref[k], moduli_feasibility(ref[k], level=1.0)
            assert (rec.quadrics.rank_a, rec.quadrics.rank_b) == (want.rank_a, want.rank_b)
            assert (rec.classification, rec.n_solutions) == (feas.classification,
                                                             feas.n_solutions)
            np.testing.assert_allclose(rec.quadrics.eig_a, want.eig_a, rtol=0, atol=1e-13)
            np.testing.assert_allclose(rec.quadrics.eig_b, want.eig_b, rtol=0, atol=1e-13)
            got_roots, want_roots = np.sort(rec.roots_ab), np.sort(char_cubic_roots(want))
            assert got_roots.shape == want_roots.shape
            assert (np.abs(got_roots - want_roots).max(initial=0.0)
                    <= 1e-6 * np.abs(want_roots).max(initial=0.0))

    def test_deterministic(self):
        r1 = moduli_scan(5, seed=9)
        r2 = moduli_scan(5, seed=9)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.a_params, b.a_params)
            np.testing.assert_array_equal(a.quadrics.a, b.quadrics.a)

    def test_csv_contract(self):
        buf = io.StringIO()
        scan_to_csv(buf, 8, seed=13)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(SCAN_CSV_COLUMNS)
        assert len(lines) == 9
        for row in csv.reader(lines[1:]):
            assert len(row) == len(SCAN_CSV_COLUMNS)

    def test_json_mirror(self):
        buf = io.StringIO()
        scan_to_json(buf, 3, seed=21)
        data = json.loads(buf.getvalue())
        assert len(data) == 3
        for rec in data:
            assert set(rec) == {
                "record_index", "a_params", "ap_params", "rank_A", "rank_B",
                "eig_A", "eig_B", "roots_AB", "classification", "n_solutions",
                "solutions",
            }


def _reference_row(rec):
    """A CSV row formatted one numpy scalar at a time with repr(float(v))."""
    eig_a, eig_b = rec.quadrics.eig_a[::-1], rec.quadrics.eig_b[::-1]
    return ([rec.record_index]
            + [repr(float(v)) for v in rec.a_params]
            + [repr(float(v)) for v in rec.a_prime_params]
            + [rec.quadrics.rank_a, rec.quadrics.rank_b]
            + [repr(float(v)) for v in eig_a]
            + [repr(float(v)) for v in eig_b]
            + [";".join(repr(float(r)) for r in rec.roots_ab), rec.classification,
               rec.n_solutions,
               ";".join(" ".join(repr(float(c)) for c in s) for s in rec.feasibility.solutions)])


def _reference_json(rec):
    """The JSON record built with float(v) on each numpy scalar."""
    return {
        "record_index": rec.record_index,
        "a_params": [float(v) for v in rec.a_params],
        "ap_params": [float(v) for v in rec.a_prime_params],
        "rank_A": int(rec.quadrics.rank_a),
        "rank_B": int(rec.quadrics.rank_b),
        "eig_A": [float(v) for v in rec.quadrics.eig_a[::-1]],
        "eig_B": [float(v) for v in rec.quadrics.eig_b[::-1]],
        "roots_AB": [[float(r), 0.0] for r in rec.roots_ab],
        "classification": rec.classification,
        "n_solutions": rec.n_solutions,
        "solutions": [[float(c) for c in s] for s in rec.feasibility.solutions],
    }


def _record_with_solutions():
    a, ap = list(_scan_draws(80, 3))[79]
    rec = moduli_record(79, a, ap)
    feas = moduli_feasibility(rec.quadrics, level=MATRIX_LEVEL)
    assert feas.n_solutions == 4
    return dataclasses.replace(rec, feasibility=feas)


def _solve_at_matrix_level(monkeypatch):
    """Make the scan pipeline solve at MATRIX_LEVEL, where records have solutions."""
    feasibility, reachable = twoqubit.moduli_feasibility, twoqubit._level_reachable
    monkeypatch.setattr(twoqubit, "moduli_feasibility",
                        lambda q, level: feasibility(q, level=MATRIX_LEVEL))
    monkeypatch.setattr(twoqubit, "_level_reachable", lambda q, level: reachable(q, MATRIX_LEVEL))


class TestScanFormatting:
    """The chunk writers keep the bytes of per-scalar formatting of the records."""

    @pytest.mark.parametrize("kwargs, with_solutions", [
        ({"n": 2 * SCAN_CHUNK + 3, "seed": 11, "ranges": (-1.0, 2.0)}, False),
        ({"n": 2 * SCAN_CHUNK + 3, "seed": 0, "ranges": (0.0, 0.0)}, False),
        ({"n": 80, "seed": 3}, True),
    ], ids=["ranges", "zero_params", "solutions"])
    def test_same_bytes_as_per_scalar_formatting(self, kwargs, with_solutions, monkeypatch):
        if with_solutions:
            _solve_at_matrix_level(monkeypatch)
        records = moduli_scan(**kwargs)
        if with_solutions:
            want = _record_with_solutions()
            assert records[79].n_solutions == 4
            assert np.array_equal(records[79].feasibility.solutions, want.feasibility.solutions)
        want_csv = io.StringIO()
        csv.writer(want_csv, lineterminator="\n").writerows(
            [SCAN_CSV_COLUMNS] + [_reference_row(rec) for rec in records])
        want_json = json.dumps([_reference_json(rec) for rec in records], indent=2,
                               sort_keys=True) + "\n"
        for writer, want in ((scan_to_csv, want_csv.getvalue()), (scan_to_json, want_json)):
            got = io.StringIO()
            writer(got, **kwargs)
            assert got.getvalue() == want

    def test_writers_check_arguments_before_writing(self):
        for writer in (scan_to_csv, scan_to_json):
            for kwargs in ({"n": 0}, {"n": 3, "ranges": (2.0, 1.0)}):
                got = io.StringIO()
                with pytest.raises(ValueError):
                    writer(got, seed=1, **kwargs)
                assert got.getvalue() == ""

    def test_writer_memory_is_flat_in_n(self):
        # The output goes to a sink that keeps nothing, so what the writer
        # holds is the pipeline's working set: one chunk, whatever n is.
        # The margin is below what 3 * SCAN_CHUNK more records would take as
        # kept text (about 230 kB of CSV, 580 kB of JSON).
        class Sink:
            def write(self, text):
                pass

        for writer in (scan_to_csv, scan_to_json):
            writer(Sink(), 3, seed=5)  # first-call caches out of the measurement
            peaks = []
            for n in (SCAN_CHUNK, 4 * SCAN_CHUNK):
                tracemalloc.start()
                writer(Sink(), n, seed=5)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            assert peaks[1] <= peaks[0] + 128 * 1024, peaks


def _scan_draws(n, seed, lo=-np.pi, hi=np.pi):
    """The documented draws of moduli_scan: record i uses child i of SeedSequence(seed)."""
    for child in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(child)
        yield rng.uniform(lo, hi, 3), rng.uniform(lo, hi, 3)


def _assert_same_record(got, want):
    assert got.record_index == want.record_index
    pairs = [(got.a_params, want.a_params), (got.a_prime_params, want.a_prime_params)]
    pairs += [(getattr(got.quadrics, k), getattr(want.quadrics, k))
              for k in ("a", "b", "eig_a", "eig_b", "eig_ab", "eig_pencil", "rank_a", "rank_b")]
    pairs += [(got.roots_ab, want.roots_ab)]
    pairs += [(np.array(got.feasibility.solutions), np.array(want.feasibility.solutions))]
    for x, y in pairs:
        assert np.array_equal(x, y)
    assert got.classification == want.classification


class TestBatchParity:
    """moduli_scan runs each stage once per chunk; records equal the batch-of-one path."""

    @pytest.mark.parametrize("n, seed, kwargs", [
        (40, 0, {}),
        (40, 3, {}),
        (25, 20210, {}),
        (5, 1, {"ranges": (0.0, 0.0)}),
        (30, 11, {"ranges": (-1.0, 2.0)}),
        (SCAN_CHUNK + 1, 7, {}),
        # Two and five entropy words (the pool mixes words past the fourth), and a sequence.
        (30, 2**32 + 5, {}),
        (30, 2**130 + 3, {}),
        (30, [1, 2, 3], {}),
        # Two entropy words across two chunk boundaries.
        (2 * SCAN_CHUNK + 3, 2**32 + 5, {}),
    ])
    def test_scan_equals_records(self, n, seed, kwargs):
        records = moduli_scan(n, seed, **kwargs)
        assert len(records) == n
        lo, hi = kwargs.get("ranges", (-np.pi, np.pi))
        for i, (rec, (a, ap)) in enumerate(zip(records, _scan_draws(n, seed, lo, hi))):
            assert lo < hi or not (a.any() or ap.any())  # uniform(lo, lo) is exactly lo
            assert np.array_equal(rec.a_params, a) and np.array_equal(rec.a_prime_params, ap)
            _assert_same_record(rec, moduli_record(i, a, ap))

    @pytest.mark.parametrize("seed", [0, 2**130 + 3, [7, "0x10", "017"]])
    def test_last_spawn_keys_match_numpy(self, seed):
        # Spawn keys are single words: the derived states of the last keys below 2**32.
        start = 2**32 - 3
        want = [np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)
                for k in range(start, start + 3)]
        assert np.array_equal(twoqubit._child_states(np.random.SeedSequence(seed), start, 3), want)

    def test_chunk_boundary_does_not_move_records(self):
        long = moduli_scan(SCAN_CHUNK + 3, seed=4)
        for got, want in zip(moduli_scan(4, seed=4), long):
            _assert_same_record(got, want)

    def test_batched_stages_equal_single_calls(self):
        a, ap = np.random.default_rng(12).uniform(-np.pi, np.pi, (2, 10, 3))
        flat_factors, flat_quads = abelian_factor(a, ap), abelian_quadrics(a, ap)
        singles = [(abelian_factor(a[k], ap[k]), abelian_quadrics(a[k], ap[k])) for k in range(10)]
        # Batch shapes (), (0,), (7,) and (2, 5): bit-equal to the flattened call and to one call
        # per record.
        for shape in ((), (0,), (7,), (2, 5)):
            n = int(np.prod(shape))
            sa, sap = a[:n].reshape(shape + (3,)), ap[:n].reshape(shape + (3,))
            factors, quads = abelian_factor(sa, sap), abelian_quadrics(sa, sap)
            assert factors.shape == shape + (4, 4)
            assert quads.a.shape == quads.b.shape == shape + (3, 3)
            assert quads.eig_a.shape == shape + (3,) and quads.rank_a.shape == shape
            factors = factors.reshape(n, 4, 4)
            assert np.array_equal(factors, flat_factors[:n])
            for name in _QUADRIC_FIELDS:
                field = getattr(quads, name)
                field = field.reshape((n,) + field.shape[len(shape):])
                assert np.array_equal(field, getattr(flat_quads, name)[:n]), (shape, name)
                for k, (factor, single) in enumerate(singles[:n]):
                    assert np.array_equal(factors[k], factor)
                    assert np.array_equal(field[k], getattr(single, name)), (shape, name, k)
            assert twoqubit._pencil_roots(quads) == twoqubit._pencil_roots(flat_quads)[:n]
        single = singles[0][1]
        # the one stacked eigensolver call gives the bits of a separate one on A + B
        assert np.array_equal(flat_quads.eig_ab, np.linalg.eigvalsh(flat_quads.a + flat_quads.b))
        with pytest.raises(TypeError):
            single[0]
        # a and a' must be stacks (..., 3) of one shape
        for bad in ((a, ap[:4]), (a[0], ap), (a[:, :2], ap[:, :2]), (a.reshape(2, 5, 3), ap)):
            with pytest.raises(ValueError, match=r"^expected parameter stacks \(\.\.\., 3\)"):
                abelian_quadrics(*bad)

    @pytest.mark.parametrize("solve", [char_cubic_roots, lambda q: moduli_feasibility(q, 1.0)],
                             ids=["char_cubic_roots", "moduli_feasibility"])
    def test_stack_is_refused(self, solve):
        quads = abelian_quadrics(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"^\w+ takes one quadric pair; index the stack first$"):
            solve(quads)

    def test_roots_computed_once_per_record(self, monkeypatch):
        # one batched roots call per scan chunk, none from the solver
        calls = []
        original = twoqubit._pencil_roots
        monkeypatch.setattr(twoqubit, "_pencil_roots", lambda q: calls.append(q) or original(q))
        rec = moduli_record(0, [0.3, -1.2, 2.0], [0.7, 0.1, -0.4])
        assert len(calls) == 1
        assert np.array_equal(rec.roots_ab, char_cubic_roots(rec.quadrics))
        calls.clear()
        moduli_feasibility(rec.quadrics, level=MATRIX_LEVEL)
        assert len(calls) == 0
        moduli_scan(30, seed=2)
        assert len(calls) == 1
        moduli_scan(SCAN_CHUNK + 1, seed=2)
        assert len(calls) == 3

    def test_non_unitary_factor_in_stack_raises(self):
        # A phase sum that overflows makes the factor of record 3 non-unitary.
        a, ap = np.random.default_rng(1).uniform(-np.pi, np.pi, (2, 5, 3))
        a[3] = 8e307
        with pytest.raises(ValueError, match=r"not unitary at stack index \[3\]"):
            abelian_quadrics(a, ap)
        abelian_quadrics(np.delete(a, 3, axis=0), np.delete(ap, 3, axis=0))

    def test_non_symmetric_quadric_in_stack_raises(self):
        quads = abelian_quadrics(*np.random.default_rng(2).uniform(-np.pi, np.pi, (2, 5, 3)))
        a = quads.a.copy()
        a[2, 0, 1] += 1e-12
        with pytest.raises(ValueError, match=r"a is not symmetric at stack index \[2\]"):
            QuadricTriple(a=a, b=quads.b)
        with pytest.raises(ValueError, match=r"b is not symmetric at stack index \[2\]"):
            QuadricTriple(a=quads.b, b=a)
        QuadricTriple(a=np.delete(a, 2, axis=0), b=np.delete(quads.b, 2, axis=0))

    def test_non_psd_quadric_in_stack_raises(self):
        quads = abelian_quadrics(*np.random.default_rng(3).uniform(-np.pi, np.pi, (2, 5, 3)))
        b = quads.b.copy()
        b[4] -= (np.linalg.eigvalsh(b[4])[0] + 1e-6) * np.eye(3)
        with pytest.raises(ValueError, match=r"b is not positive semidefinite at stack index \[4\]"):
            QuadricTriple(a=quads.a, b=b)
        QuadricTriple(a=np.delete(quads.a, 4, axis=0), b=np.delete(b, 4, axis=0))

    def test_stack_shapes_must_match(self):
        q = abelian_quadrics(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="differ in shape"):
            QuadricTriple(a=np.stack([q.a, q.a]), b=q.b)

    @pytest.mark.parametrize("check", ["symmetric", "positive semidefinite"])
    def test_stacked_check_names_a_before_b(self, check):
        quads = abelian_quadrics(*np.random.default_rng(4).uniform(-np.pi, np.pi, (2, 6, 3)))
        a, b = quads.a.copy(), quads.b.copy()
        if check == "symmetric":
            a[3, 0, 1] += 1e-12
            b[1, 2, 0] += 1e-12
        else:
            a[3] -= (np.linalg.eigvalsh(a[3])[0] + 1e-6) * np.eye(3)
            b[1] -= (np.linalg.eigvalsh(b[1])[0] + 1e-6) * np.eye(3)
        with pytest.raises(ValueError, match=rf"^a is not {check} at stack index \[3\]$"):
            QuadricTriple(a=a, b=b)
        with pytest.raises(ValueError, match=rf"^b is not {check} at stack index \[1\]$"):
            QuadricTriple(a=quads.a, b=b)
        with pytest.raises(ValueError, match=rf"^b is not {check}$"):
            QuadricTriple(a=quads.a[1], b=b[1])
        # The checks run in order of kind (shape, finite, symmetric,
        # semidefinite), each on a then b.
        with pytest.raises(ValueError, match=r"^a and b stacks differ in shape"):
            QuadricTriple(a=a, b=b[:4])
        if check == "positive semidefinite":
            b[1, 2, 0] += 1e-12
            with pytest.raises(ValueError, match=r"^b is not symmetric at stack index \[1\]$"):
                QuadricTriple(a=a, b=b)

    def test_tolerance_edges_of_the_stacked_checks(self):
        # A skew of Frobenius norm 7e-14 is symmetric (the bound is 1e-13, not
        # exact symmetry) and 2e-13 is not; a least eigenvalue of -0.9e-10 is
        # semidefinite and -1.1e-10 is not.  Single pairs, and record 3 of a stack.
        quads = abelian_quadrics(*np.random.default_rng(6).uniform(-np.pi, np.pi, (2, 5, 3)))

        def skewed(a, norm):
            a = a.copy()
            a[..., 0, 1] += norm / np.sqrt(2.0)
            defect = np.linalg.norm(a - a.swapaxes(-1, -2), axis=(-2, -1))
            assert np.allclose(defect, norm, rtol=1e-3, atol=0.0)
            return a

        def shifted(a, least):
            return a - (np.linalg.eigvalsh(a)[..., :1, None] - least) * np.eye(3)

        for make, ok, bad, check in ((skewed, 7e-14, 2e-13, "symmetric"),
                                     (shifted, -0.9e-10, -1.1e-10, "positive semidefinite")):
            QuadricTriple(a=make(quads.a[3], ok), b=quads.b[3])
            with pytest.raises(ValueError, match=rf"^a is not {check}$"):
                QuadricTriple(a=make(quads.a[3], bad), b=quads.b[3])
            for value, raises in ((ok, False), (bad, True)):
                a = quads.a.copy()
                a[3] = make(a[3], value)
                if raises:
                    with pytest.raises(ValueError, match=rf"^a is not {check} at stack index \[3\]$"):
                        QuadricTriple(a=a, b=quads.b)
                else:
                    assert np.array_equal(QuadricTriple(a=a, b=quads.b)[3].a, a[3])
        least = QuadricTriple(a=shifted(quads.a[3], -0.9e-10), b=quads.b[3]).eig_a[0]
        assert -1e-10 < least < -0.8e-10

    def test_non_finite_quadric_raises(self):
        quads = abelian_quadrics(*np.random.default_rng(5).uniform(-np.pi, np.pi, (2, 5, 3)))
        for bad in (np.nan, np.inf, -np.inf):
            a = quads.a[0].copy()
            a[1, 1] = bad
            with pytest.raises(ValueError, match=r"^a has a non-finite entry$"):
                QuadricTriple(a=a, b=quads.b[0])
            b = quads.b.copy()
            b[3, 0, 2] = b[3, 2, 0] = bad
            with pytest.raises(ValueError, match=r"^b has a non-finite entry at stack index \[3\]$"):
                QuadricTriple(a=quads.a, b=b)


class TestTorusFactorDependence:
    def test_torus_invariance_exact_k_dependence_reported(self):
        report = torus_factor_dependence([0.4, -0.2, 0.9], [0.1, 0.5, -0.7],
                                         [1.0, 0.0, 0.0], n_draws=8, seed=2)
        assert report["max_torus_shift"] < 1e-12
        assert report["max_k_shift"] >= 0.0


class TestConventionReport:
    def test_verifies_and_traces_the_composite_kernel_once(self, count_calls):
        from swphase import composite, kernel

        traced = count_calls(composite, "partial_trace")
        verified = count_calls(kernel, "verify_master")
        count_calls(composite, "verify_master", verified)
        report = convention_report(seed=0)
        # One verify_master per kernel, elementary and composite; the
        # composite's two partial traces are those of its admission.
        assert (len(traced), len(verified)) == (2, 2)
        elem = kernel_from_spectrum(solve_kernel_spectrum(4, "random", seed=0), haar_unitary(4, 0))
        comp = make_composite_kernel(DIMS22, 0)
        blocks = fano_blocks(comp.mat, DIMS22)
        norms = (blocks.local_a @ blocks.local_a, blocks.local_b @ blocks.local_b,
                 np.sum(blocks.corr**2))
        hs2 = float(1.0 / (2.0 * KERNEL_COEFF**2))  # HS2 coordinates: 4/15 of fano_blocks'
        comp_report = verify_composite_master(comp.mat, DIMS22)
        residuals = (comp_report.full.purity_residual, comp_report.purity_a_residual,
                     comp_report.purity_b_residual)
        assert report == {
            "pinned_convention": "HS2",
            "elementary_sum_rule": elementary_constraint_value(elem.mat),
            "elementary_sum_rule_target": 1.0,
            "composite_blocks": TwoQubitBlockReport(
                tuple(float(hs2 * v) for v in norms), residuals).as_dict(),
            "composite_matrix_report": comp_report.as_dict(),
        }

    def test_fields_and_values(self):
        report = convention_report(seed=5)
        assert report["pinned_convention"] == "HS2"
        assert abs(report["elementary_sum_rule"] - 1.0) < 1e-10
        blocks = report["composite_blocks"]
        assert blocks["targets_hs2"] == [0.2, 0.2, 0.6]
        assert blocks["targets_hs4"] == [0.1, 0.1, 0.3]
        assert blocks["literature_values"] == [0.1, 0.1, 0.8]
        np.testing.assert_allclose(blocks["measured_hs2"], [0.2, 0.2, 0.6],
                                   atol=1e-10)
        assert report["composite_matrix_report"]["admissible"] is True
