import tracemalloc

import numpy as np
import pytest

from swphase import kernel
from swphase.linalg import _haar_from_rng, haar_unitary, random_density
from swphase.kernel import (
    _MC_CHUNK_BYTES,
    _orbit_chunks,
    KernelSpectrum,
    SWKernel,
    covariance_check,
    haar_second_moment_coefficients,
    kernel_from_spectrum,
    phase_space_norm_mc,
    reconstruct_exact,
    reconstruct_mc,
    solve_kernel_spectrum,
    verify_master,
    wigner_value,
)

# Samples per chunk of the orbit sampler at n = 4.
CHUNK_N4 = _MC_CHUNK_BYTES // (16 * 4 * 4)

GOLD_2 = np.array([(1 + np.sqrt(3)) / 2, (1 - np.sqrt(3)) / 2])


class TestSolveSpectrum:
    def test_n2_analytic(self):
        spec = solve_kernel_spectrum(2)
        np.testing.assert_allclose(spec.pi, GOLD_2, atol=1e-15)

    def test_n2_any_selector_gives_same_moduli_point(self):
        # at n=2 the sphere is two points; descending sort collapses them
        for seed in range(5):
            spec = solve_kernel_spectrum(2, "random", seed=seed)
            np.testing.assert_allclose(spec.pi, GOLD_2, atol=1e-12)

    def test_n4_aligned_vector(self):
        # unit vector whose frame image is (1,1,-1,-1)/2
        v = np.array([0.0, 2.0 / np.sqrt(6.0), 1.0 / np.sqrt(3.0)])
        spec = solve_kernel_spectrum(4, "from_unit_vector", vector=v)
        gold = np.array([(1 + np.sqrt(15)) / 4] * 2 + [(1 - np.sqrt(15)) / 4] * 2)
        np.testing.assert_allclose(spec.pi, gold, atol=1e-12)
        assert abs(spec.pi.sum() - 1.0) < 1e-12
        assert abs((spec.pi**2).sum() - 4.0) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_master_equation_residuals(self, n):
        for seed in range(100):
            spec = solve_kernel_spectrum(n, "random", seed=seed)
            assert abs(spec.pi.sum() - 1.0) < 1e-12
            assert abs((spec.pi**2).sum() - n) < 1e-12

    def test_sphere_radius_invariant(self):
        for n in (2, 3, 4, 6):
            spec = solve_kernel_spectrum(n, "random", seed=n)
            radius = np.linalg.norm(spec.traceless_part())
            assert abs(radius - np.sqrt(n - 1.0 / n)) < 1e-12
            assert abs(np.linalg.norm(spec.unit_direction()) - 1.0) < 1e-12

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            solve_kernel_spectrum(1)

    def test_rejects_bad_vector(self):
        with pytest.raises(ValueError):
            solve_kernel_spectrum(3, "from_unit_vector", vector=[1.0, 1.0])
        with pytest.raises(ValueError, match="unit norm"):
            solve_kernel_spectrum(3, "from_unit_vector", vector=[np.nan, 0.0])

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            KernelSpectrum(np.array([0.9, 0.1]))  # purity 0.82 != 2
        with pytest.raises(ValueError, match="sum nan != 1"):
            KernelSpectrum(np.array([np.nan, np.nan]))


class TestKernelFromSpectrum:
    def test_identity_orbit_point(self):
        spec = solve_kernel_spectrum(2)
        ker = kernel_from_spectrum(spec, np.eye(2))
        np.testing.assert_allclose(ker.mat, np.diag(GOLD_2), atol=1e-15)

    def test_spectrum_invariance(self):
        spec = solve_kernel_spectrum(4, "random", seed=0)
        ker = kernel_from_spectrum(spec, haar_unitary(4, 1))
        np.testing.assert_allclose(ker.spectrum, spec.pi, atol=1e-12)

    def test_residuals_random_orbit(self):
        for seed in range(100):
            spec = solve_kernel_spectrum(4, "random", seed=seed)
            ker = kernel_from_spectrum(spec, haar_unitary(4, seed + 1000))
            assert abs(np.trace(ker.mat).real - 1.0) < 1e-12
            assert abs(np.trace(ker.mat @ ker.mat).real - 4.0) < 1e-12

    def test_rejects_non_unitary(self):
        spec = solve_kernel_spectrum(2)
        with pytest.raises(ValueError):
            kernel_from_spectrum(spec, np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [1e-9j, np.nan], ids=["non_hermitian", "nan"])
    def test_sw_kernel_rejects_bad_entry(self, entry):
        mat = np.diag(GOLD_2).astype(complex)
        SWKernel(mat, 2)
        mat[0, 1] = entry
        with pytest.raises(ValueError, match="not Hermitian"):
            SWKernel(mat, 2)


class TestWignerValue:
    def test_maximally_mixed(self):
        n = 4
        rho = random_density(n, 0)
        spec = solve_kernel_spectrum(n, "random", seed=1)
        ker = kernel_from_spectrum(spec, haar_unitary(n, 2))
        mixed = type(rho)(np.eye(n) / n)
        assert abs(wigner_value(mixed, ker) - 1.0 / n) < 1e-12

    def test_diagonal_pairing(self):
        from swphase.linalg import DensityMatrix

        rho = DensityMatrix(np.diag([1.0, 0.0]))
        ker = kernel_from_spectrum(solve_kernel_spectrum(2), np.eye(2))
        assert abs(wigner_value(rho, ker) - GOLD_2[0]) < 1e-12

    def test_negativity_on_orbit(self):
        # conjugating by sigma_x swaps the kernel's eigenvalues
        from swphase.linalg import DensityMatrix

        rho = DensityMatrix(np.diag([1.0, 0.0]))
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        ker = kernel_from_spectrum(solve_kernel_spectrum(2), sx)
        val = wigner_value(rho, ker)
        assert abs(val - GOLD_2[1]) < 1e-12
        assert val < 0.0

    def test_dimension_mismatch(self):
        rho = random_density(2, 0)
        ker = kernel_from_spectrum(solve_kernel_spectrum(4, "random", seed=0),
                                   haar_unitary(4, 0))
        with pytest.raises(ValueError):
            wigner_value(rho, ker)


class TestReconstructExact:
    def test_identity_on_states(self):
        for seed in range(50):
            rho = random_density(4, seed)
            spec = solve_kernel_spectrum(4, "random", seed=seed + 500)
            rec = reconstruct_exact(rho, spec)
            assert np.linalg.norm(rec - rho.mat) < 1e-12

    def test_maximally_mixed(self):
        from swphase.linalg import DensityMatrix

        rho = DensityMatrix(np.eye(4) / 4)
        rec = reconstruct_exact(rho, solve_kernel_spectrum(4, "random", seed=3))
        np.testing.assert_allclose(rec, np.eye(4) / 4, atol=1e-14)

    def test_perturbed_spectrum_matches_prediction(self):
        # spectrum with sum 1 but purity N + 0.5: the analytic map coefficients
        # predict the deviation exactly
        n = 4
        rho = random_density(n, 9)
        base = solve_kernel_spectrum(n, "random", seed=4).pi
        direction = base - 1.0 / n
        scale = np.sqrt((n + 0.5 - 1.0 / n) / (direction @ direction))
        perturbed = 1.0 / n + scale * direction
        assert abs(perturbed.sum() - 1.0) < 1e-12
        assert abs((perturbed**2).sum() - (n + 0.5)) < 1e-12
        rec = reconstruct_exact(rho, perturbed)
        alpha, beta = haar_second_moment_coefficients(n, 1.0, n + 0.5)
        predicted = n * (alpha * rho.mat + beta * np.eye(n))
        assert np.linalg.norm(rec - predicted) < 1e-13
        assert np.linalg.norm(rec - rho.mat) > 1e-3


class TestReconstructMC:
    def test_single_sample_bit_reproducible(self):
        rho = random_density(4, 0)
        spec = solve_kernel_spectrum(4, "random", seed=1)
        a = reconstruct_mc(rho, spec, 1, seed=42)
        b = reconstruct_mc(rho, spec, 1, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_converges_towards_exact(self):
        rho = random_density(4, 2)
        spec = solve_kernel_spectrum(4, "random", seed=3)
        exact = reconstruct_exact(rho, spec)
        err_small = np.linalg.norm(reconstruct_mc(rho, spec, 500, seed=5) - exact)
        err_large = np.linalg.norm(reconstruct_mc(rho, spec, 50_000, seed=5) - exact)
        assert err_large < err_small

    def test_norm_estimate(self):
        rho = random_density(4, 4)
        spec = solve_kernel_spectrum(4, "random", seed=5)
        est = phase_space_norm_mc(rho, spec, 50_000, seed=6)
        assert abs(est - 1.0) < 0.03


class TestOrbitChunks:
    """The Monte-Carlo estimators' one orbit sampler."""

    @pytest.mark.parametrize("n, samples", [(2, 500), (4, 500), (32, 60), (4, CHUNK_N4 + 7)])
    def test_equals_haar_orbit(self, n, samples):
        spec = solve_kernel_spectrum(n, "random", seed=n)
        chunks = list(_orbit_chunks(n, spec, samples, seed=17))
        assert sum(len(c) for c in chunks) == samples
        assert max(c.nbytes for c in chunks) <= _MC_CHUNK_BYTES
        rng = np.random.default_rng(17)
        u = np.stack([_haar_from_rng(n, rng) for _ in range(samples)])
        want = (u * spec.pi) @ u.conj().swapaxes(-1, -2)
        assert np.abs(np.concatenate(chunks) - want).max() < 1e-13

    def test_stream_does_not_depend_on_chunk(self, monkeypatch):
        # One chunk, 64 samples a chunk (does not divide 1000), one sample a chunk.
        rho = random_density(4, 3)
        spec = solve_kernel_spectrum(4, "random", seed=4)
        counts, orbits, estimates = [], [], []
        for chunk_bytes in (_MC_CHUNK_BYTES, 16 * 16 * 64 + 5, 1):
            monkeypatch.setattr(kernel, "_MC_CHUNK_BYTES", chunk_bytes)
            chunks = list(_orbit_chunks(4, spec, 1000, seed=8))
            counts.append(len(chunks))
            orbits.append(np.concatenate(chunks))
            estimates.append((reconstruct_mc(rho, spec, 1000, seed=8),
                              phase_space_norm_mc(rho, spec, 1000, seed=8)))
        assert counts == [1, 16, 1000]
        for orbit, (rec, norm) in zip(orbits[1:], estimates[1:]):
            assert np.array_equal(orbit, orbits[0])
            assert np.abs(rec - estimates[0][0]).max() < 1e-14
            assert abs(norm - estimates[0][1]) < 1e-14

    def test_memory_does_not_grow_with_samples(self):
        rho = random_density(32, 1)
        spec = solve_kernel_spectrum(32, "random", seed=2)
        peaks = []
        for samples in (500, 5000):
            tracemalloc.start()
            try:
                reconstruct_mc(rho, spec, samples, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8 * _MC_CHUNK_BYTES
        assert abs(peaks[1] - peaks[0]) <= 2 << 20

    @pytest.mark.parametrize("estimator", [reconstruct_mc, phase_space_norm_mc])
    @pytest.mark.parametrize("n", [4, 32])
    def test_peak_drops_each_orbit_stack(self, estimator, n):
        # Three chunks and one sample: an orbit stack kept by its caller beside
        # the next draw takes the peak to about 7 chunks.
        rho = random_density(n, 1)
        spec = solve_kernel_spectrum(n, "random", seed=2)
        samples = 3 * (_MC_CHUNK_BYTES // (16 * n * n)) + 1
        tracemalloc.start()
        try:
            estimator(rho, spec, samples, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * _MC_CHUNK_BYTES

    @pytest.mark.parametrize("estimator", [reconstruct_mc, phase_space_norm_mc])
    def test_input_errors_shared(self, estimator):
        rho = random_density(4, 0)
        with pytest.raises(ValueError, match=r"^dimension mismatch: state 4, spectrum 3$"):
            estimator(rho, solve_kernel_spectrum(3), 10, seed=0)
        with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
            estimator(rho, solve_kernel_spectrum(4), 0, seed=0)


class TestVerifyMaster:
    def test_valid_kernel(self):
        spec = solve_kernel_spectrum(4, "random", seed=0)
        ker = kernel_from_spectrum(spec, haar_unitary(4, 1))
        report = verify_master(ker.mat, 4)
        assert report.ok(1e-10)

    def test_maximally_mixed_purity_residual(self):
        n = 4
        report = verify_master(np.eye(n) / n, n)
        assert report.hermitian
        assert report.trace_residual < 1e-14
        assert abs(report.purity_residual - (n - 1.0 / n)) < 1e-12

    def test_perturbation_scale(self):
        from swphase.linalg import random_hermitian

        spec = solve_kernel_spectrum(4, "random", seed=7)
        ker = kernel_from_spectrum(spec, haar_unitary(4, 8))
        noise = random_hermitian(4, 9)
        noise = noise / np.linalg.norm(noise)
        report = verify_master(ker.mat + 1e-6 * noise, 4)
        assert 1e-8 < report.trace_residual + report.purity_residual < 1e-4


class TestCovariance:
    def test_identity_exact_zero(self):
        rho = random_density(4, 0)
        ker = kernel_from_spectrum(solve_kernel_spectrum(4, "random", seed=1),
                                   haar_unitary(4, 2))
        assert covariance_check(ker, rho, np.eye(4)) == 0.0

    def test_sweep(self):
        rho = random_density(4, 3)
        ker = kernel_from_spectrum(solve_kernel_spectrum(4, "random", seed=4),
                                   haar_unitary(4, 5))
        worst = max(covariance_check(ker, rho, haar_unitary(4, s))
                    for s in range(1000))
        assert worst < 1e-12
