import dataclasses

import numpy as np
import pytest

from swphase import composite
from swphase.linalg import (
    BipartiteDims,
    DensityMatrix,
    haar_unitary,
    hermiticity_defect,
    partial_trace,
    random_density,
    random_hermitian,
)
from swphase.kernel import SWKernel, kernel_from_spectrum, solve_kernel_spectrum
from swphase.composite import (
    CompositeAdmissibilityError,
    CompositeKernel,
    block_norm_targets,
    constraint_jacobian,
    dual_dim,
    fano_blocks,
    fano_blocks_compose,
    make_composite_kernel,
    reduce_kernel,
    subsystem_wigner,
    traceless_orthonormal_basis,
    verify_composite_master,
)
from swphase.twoqubit import FANO_ORDER, LAMBDA

DIMS22 = BipartiteDims(2, 2)


def _constraints(m, dims):
    """The three purity residuals (full, A-reduced, B-reduced), the finite-difference
    reference of constraint_jacobian."""
    return np.array([np.trace(r @ r).real - r.shape[0]
                     for r in (m, partial_trace(m, dims, "A"), partial_trace(m, dims, "B"))])


def _product_kernel():
    ka = kernel_from_spectrum(solve_kernel_spectrum(2), haar_unitary(2, 1))
    kb = kernel_from_spectrum(solve_kernel_spectrum(2), haar_unitary(2, 2))
    return ka, kb, CompositeKernel(SWKernel(np.kron(ka.mat, kb.mat)), DIMS22)


class TestTracelessBasis:
    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_one_shared_read_only_stack_per_dimension(self, d):
        basis = traceless_orthonormal_basis(d)
        assert traceless_orthonormal_basis(d) is basis
        assert basis.shape == (d * d - 1, d, d)
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0

    def test_dimension_one_is_the_empty_stack(self):
        # The traceless 1x1 matrices are {0}: no basis element.
        basis = traceless_orthonormal_basis(1)
        assert basis.shape == (0, 1, 1) and basis.dtype == complex
        assert traceless_orthonormal_basis(1) is basis and not basis.flags.writeable

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one_names_d(self, d):
        with pytest.raises(ValueError, match=f"d={d}"):
            traceless_orthonormal_basis(d)


class TestFanoBlocks:
    @pytest.mark.parametrize("dims", [BipartiteDims(1, 3), BipartiteDims(3, 1)],
                             ids=["1x3", "3x1"])
    def test_round_trip_with_a_trivial_factor(self, dims):
        h = random_hermitian(3, seed=4)
        blocks = fano_blocks(h, dims)
        assert blocks.corr.shape == (dims.n_a**2 - 1, dims.n_b**2 - 1)
        assert np.linalg.norm(fano_blocks_compose(blocks) - h) < 1e-12

    def test_round_trip(self):
        # 2x3 and 3x2 tell the strides n_a and n_b apart; 8x8 is the
        # benchmark's tail op.
        cases = [(DIMS22, 50), (BipartiteDims(2, 3), 50), (BipartiteDims(3, 2), 50), (BipartiteDims(8, 8), 3)]
        for dims, n_seeds in cases:
            for seed in range(n_seeds):
                h = random_hermitian(dims.total, seed=seed)
                blocks = fano_blocks(h, dims)
                back = fano_blocks_compose(blocks)
                assert np.linalg.norm(back - h) < 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.0], ids=["pos", "neg", "zero"])
    @pytest.mark.parametrize("na,nb", [(1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (8, 8)])
    def test_compose_is_bitwise_the_kronecker_formula(self, na, nb, sign):
        dims = BipartiteDims(na, nb)
        drawn = fano_blocks(random_hermitian(dims.total, seed=na * 10 + nb), dims)
        blocks = dataclasses.replace(drawn, identity_coeff=sign * abs(drawn.identity_coeff))
        fa = traceless_orthonormal_basis(na)
        fb = traceless_orthonormal_basis(nb)
        ia = np.eye(na, dtype=complex) / np.sqrt(na)
        ib = np.eye(nb, dtype=complex) / np.sqrt(nb)
        want = blocks.identity_coeff * np.kron(ia, ib)
        want += np.kron(np.einsum("a,aij->ij", blocks.local_a, fa), ib)
        want += np.kron(ia, np.einsum("b,bij->ij", blocks.local_b, fb))
        want += np.einsum("ab,aij,bkl->ikjl", blocks.corr, fa, fb).reshape(dims.total, dims.total)
        got = fano_blocks_compose(blocks)
        assert got.dtype == want.dtype and got.shape == want.shape
        # The uint64 view tells signed zeros and last-bit differences apart.
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_pauli_coefficient_2x2(self):
        # (I + sigma_z ⊗ I)/4 on F_z = sigma_z / sqrt(2): tr(x (F_z ⊗ I)) / sqrt(2) = 1/2
        x = (np.eye(4) + np.kron(np.diag([1.0, -1.0]), np.eye(2))) / 4.0
        blocks = fano_blocks(x, DIMS22)
        np.testing.assert_allclose(blocks.local_a, [0.0, 0.0, 0.5], atol=1e-15)
        assert np.linalg.norm(blocks.local_b) < 1e-15
        assert np.linalg.norm(blocks.corr) < 1e-15

    def test_pure_states_2x2(self):
        # traceless blocks of a pure state carry tr(rho^2) - 1/4 = 3/4
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            blocks = fano_blocks(np.outer(v, v.conj()), DIMS22)
            s = (blocks.local_a @ blocks.local_a + blocks.local_b @ blocks.local_b
                 + np.sum(blocks.corr**2))
            assert abs(s - 0.75) < 1e-10

    def test_identity_coeff_is_scaled_trace(self):
        h = random_hermitian(4, 3)
        blocks = fano_blocks(h, DIMS22)
        assert abs(blocks.identity_coeff - np.trace(h).real / 2.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            fano_blocks(1j * np.eye(4) + random_hermitian(4, 0), DIMS22)


class TestReduceKernel:
    def test_product_case(self):
        ka, kb, comp = _product_kernel()
        got = reduce_kernel(comp, keep="A")
        np.testing.assert_allclose(got.mat, ka.mat, atol=1e-12)
        got = reduce_kernel(comp, keep="B")
        np.testing.assert_allclose(got.mat, kb.mat, atol=1e-12)

    def test_trace_preserved(self):
        for seed in range(100):
            comp = make_composite_kernel(DIMS22, seed)
            red = reduce_kernel(comp, keep="A")
            assert abs(np.trace(red.mat).real - 1.0) < 1e-12

    def test_reduced_purity(self):
        for seed in range(20):
            comp = make_composite_kernel(DIMS22, seed)
            for keep, n in (("A", 2), ("B", 2)):
                red = reduce_kernel(comp, keep=keep)
                assert abs(np.trace(red.mat @ red.mat).real - n) < 1e-10

    def test_reduction_of_2x3(self):
        dims = BipartiteDims(2, 3)
        comp = make_composite_kernel(dims, 5)
        assert reduce_kernel(comp, "A").n == 2
        assert reduce_kernel(comp, "B").n == 3

    def test_rejects_unknown_subsystem(self):
        comp = make_composite_kernel(DIMS22, 0)
        for reduce in (lambda keep: reduce_kernel(comp, keep),
                       lambda keep: subsystem_wigner(random_density(4, 1), comp, keep)):
            with pytest.raises(ValueError, match=r"^keep must be 'A' or 'B', got 'C'$"):
                reduce("C")

    def test_error_carries_residuals(self):
        # an elementary kernel aligned with sigma_z ⊗ I is not composite-admissible
        mat = (np.eye(4) + np.sqrt(15) * np.diag([1.0, 1.0, -1.0, -1.0])) / 4.0
        with pytest.raises(CompositeAdmissibilityError) as err:
            CompositeKernel(SWKernel(mat), DIMS22)
        assert err.value.purity_a_residual > 1.0


class TestSubsystemWigner:
    def test_maximally_mixed(self):
        comp = make_composite_kernel(DIMS22, 0)
        rho = DensityMatrix(np.eye(4) / 4)
        assert abs(subsystem_wigner(rho, comp, keep="A") - 0.5) < 1e-12

    def test_product_factorization(self):
        from swphase.kernel import wigner_value

        ka, kb, comp = _product_kernel()
        rho_a = random_density(2, 3)
        rho_b = random_density(2, 4)
        rho = DensityMatrix(np.kron(rho_a.mat, rho_b.mat))
        got = subsystem_wigner(rho, comp, keep="A")
        assert abs(got - wigner_value(rho_a, ka)) < 1e-12

    def test_two_path_identity(self):
        # reduce-then-pair equals embed-then-pair (duality oracle)
        for seed in range(50):
            comp = make_composite_kernel(DIMS22, seed)
            rho = random_density(4, seed + 900)
            lhs = subsystem_wigner(rho, comp, keep="A")
            ker_a = partial_trace(comp.mat, DIMS22, keep="A")
            rhs = np.trace(rho.mat @ np.kron(ker_a, np.eye(2))).real
            assert abs(lhs - rhs) < 1e-12


class TestPartialTracesTakenOnce:
    """Admission takes Tr_B Delta and Tr_A Delta once; the reductions read them."""

    @pytest.mark.parametrize("dims", [DIMS22, BipartiteDims(2, 3), BipartiteDims(3, 3)])
    def test_harness_sequence_takes_three(self, dims, count_calls):
        rho = random_density(dims.total, 8)
        traced = count_calls(composite, "partial_trace")
        comp = make_composite_kernel(dims, 7)
        reduce_kernel(comp, "A")
        reduce_kernel(comp, "B")
        subsystem_wigner(rho, comp, "A")
        # Delta twice, at admission, then the state once.
        assert [args[0] is comp.mat for args in traced] == [True, True, False]
        assert traced[2][0] is rho.mat

    @pytest.mark.parametrize("dims", [DIMS22, BipartiteDims(2, 3)])
    def test_kept_traces_are_bit_identical_to_recomputed(self, dims):
        # A kernel admitted with a Hermiticity defect within SWKernel's 1e-12:
        # the kept partial traces are the measured, unsymmetrized ones, so
        # the reductions equal the recomputation from comp.mat bit for bit.
        n = dims.total
        rng = np.random.default_rng(12)
        skew = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        skew = 1e-14 * (skew - skew.conj().T)
        np.fill_diagonal(skew, 0.0)  # keeps the trace
        comp = CompositeKernel(SWKernel(make_composite_kernel(dims, 11).mat + skew), dims)
        assert 0.0 < hermiticity_defect(comp.mat) <= 1e-12
        rho = random_density(n, 13)
        for keep, n_sub in (("A", dims.n_a), ("B", dims.n_b)):
            red = partial_trace(comp.mat, dims, keep=keep)
            assert not np.array_equal(red, red.conj().T)
            assert np.array_equal(reduce_kernel(comp, keep).mat, (red + red.conj().T) / 2.0)
            assert reduce_kernel(comp, keep).n == n_sub
            pairing = np.trace(partial_trace(rho.mat, dims, keep=keep) @ red)
            assert subsystem_wigner(rho, comp, keep) == float(pairing.real)


class TestVerifyCompositeMaster:
    def test_product_kernel_admissible(self):
        _, _, comp = _product_kernel()
        report = verify_composite_master(comp.mat, DIMS22)
        assert report.purity_a_residual < 1e-12
        assert report.purity_b_residual < 1e-12
        assert report.full.purity_residual < 1e-12
        assert report.admissible()

    def test_sigma_z_aligned_kernel_fails_reduction(self):
        mat = (np.eye(4) + np.sqrt(15) * np.diag([1.0, 1.0, -1.0, -1.0])) / 4.0
        report = verify_composite_master(mat, DIMS22)
        assert report.full.ok()
        assert abs(report.purity_a_residual - 6.0) < 1e-12
        assert not report.admissible()

    def test_maximally_mixed(self):
        report = verify_composite_master(np.eye(4) / 4.0, DIMS22)
        assert abs(report.purity_a_residual - 1.5) < 1e-14
        assert abs(report.purity_b_residual - 1.5) < 1e-14

    def test_wire_format(self):
        report = verify_composite_master(make_composite_kernel(DIMS22, 3).mat, DIMS22)
        d = report.as_dict()
        assert set(d) == {"dims", "eq6", "eq8_a", "eq8_b", "admissible"}
        assert d["dims"] == [2, 2]
        assert d["admissible"] is True


class TestMakeCompositeKernel:
    @pytest.mark.parametrize("dims", [DIMS22, BipartiteDims(2, 3)])
    def test_residuals(self, dims):
        for seed in range(20):
            comp = make_composite_kernel(dims, seed)
            report = verify_composite_master(comp.mat, dims)
            assert report.full.purity_residual < 1e-12
            assert report.purity_a_residual < 1e-12
            assert report.purity_b_residual < 1e-12

    def test_deterministic(self):
        a = make_composite_kernel(DIMS22, 11)
        b = make_composite_kernel(DIMS22, 11)
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_block_targets_realized(self):
        comp = make_composite_kernel(DIMS22, 7)
        blocks = fano_blocks(comp.mat, DIMS22)
        ta, tb, tc = block_norm_targets(DIMS22)
        assert abs(np.linalg.norm(blocks.local_a) ** 2 - ta) < 1e-12
        assert abs(np.linalg.norm(blocks.local_b) ** 2 - tb) < 1e-12
        assert abs(np.linalg.norm(blocks.corr) ** 2 - tc) < 1e-12

    def test_rejects_qubitless_dims(self):
        with pytest.raises(ValueError, match="need subsystem dimensions >= 2"):
            make_composite_kernel(BipartiteDims(1, 4), 0)

    def test_report_is_the_constructor_verdict(self):
        for dims in (DIMS22, BipartiteDims(2, 3)):
            comp = make_composite_kernel(dims, 4)
            assert comp.report == verify_composite_master(comp.mat, dims)
        ka, kb, product = _product_kernel()
        assert product.report == verify_composite_master(np.kron(ka.mat, kb.mat), DIMS22)
        assert product.report.full is product.kernel.report

    def test_rejects_mismatched_dims(self):
        _, _, product = _product_kernel()
        with pytest.raises(ValueError, match=r"^matrix dimension 4 does not match bipartition 2x3$"):
            CompositeKernel(product.kernel, BipartiteDims(2, 3))


class TestDualDim:
    def test_values(self):
        assert dual_dim(DIMS22) == 12
        assert dual_dim(BipartiteDims(2, 3)) == 32

    def test_jacobian_rank(self):
        for seed in range(5):
            comp = make_composite_kernel(DIMS22, seed)
            jac = constraint_jacobian(comp.mat, DIMS22)
            assert jac.shape == (3, 15)
            svals = np.linalg.svd(jac, compute_uv=False)
            assert svals[2] > 1e-8
            assert svals[2] / svals[0] > 1e-6

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4)])
    def test_jacobian_matches_central_differences(self, dims):
        dims = BipartiteDims(*dims)
        ia = np.eye(dims.n_a) / np.sqrt(dims.n_a)
        ib = np.eye(dims.n_b) / np.sqrt(dims.n_b)
        fa = traceless_orthonormal_basis(dims.n_a)
        fb = traceless_orthonormal_basis(dims.n_b)
        chart = ([np.kron(f, ib) for f in fa] + [np.kron(ia, g) for g in fb]
                 + [np.kron(f, g) for f in fa for g in fb])
        for seed in range(3):
            m = make_composite_kernel(dims, seed).mat
            step = 1e-6
            ref = np.stack([(_constraints(m + step * d, dims)
                             - _constraints(m - step * d, dims)) / (2.0 * step)
                            for d in chart], axis=1)
            assert np.abs(constraint_jacobian(m, dims) - ref).max() <= 1e-8


class TestLocalUnitaryStructure:
    def test_lu_invariance(self):
        comp = make_composite_kernel(DIMS22, 1)
        for seed in range(50):
            u = np.kron(haar_unitary(2, seed), haar_unitary(2, seed + 10_000))
            report = verify_composite_master(u @ comp.mat @ u.conj().T, DIMS22)
            assert report.purity_a_residual < 1e-11
            assert report.purity_b_residual < 1e-11

    def test_nonlocal_witness(self):
        # conjugation by the exponential of a correlation generator breaks
        # the reduction constraints while keeping the full-system ones
        comp = make_composite_kernel(DIMS22, 2)
        expm = pytest.importorskip("scipy.linalg").expm
        u = expm((np.pi / 2) * LAMBDA[FANO_ORDER.index((1, 1))])  # sigma_1 ⊗ sigma_1
        report = verify_composite_master(u @ comp.mat @ u.conj().T, DIMS22)
        assert report.full.purity_residual < 1e-12
        assert max(report.purity_a_residual, report.purity_b_residual) > 0.1
