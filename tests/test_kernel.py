import tracemalloc

import numpy as np
import pytest

from swphase import kernel
from swphase.linalg import DensityMatrix, haar_unitary, random_density
from swphase.kernel import (
    _MC_CHUNK_BYTES,
    _PLANES_MAX_N,
    _orbit_frames,
    _plane_frames,
    _wy_frames,
    KernelSpectrum,
    SWKernel,
    haar_second_moment_coefficients,
    hyperplane_frame,
    kernel_from_spectrum,
    reconstruct_exact,
    reconstruct_mc,
    solve_kernel_spectrum,
    verify_master,
    wigner_value,
)

# Samples per chunk of the orbit sampler at n = 4 and n = 32.
CHUNK_N4 = _MC_CHUNK_BYTES // (16 * 4 * 4)
CHUNK_N32 = _MC_CHUNK_BYTES // (16 * 32 * 32)

GOLD_2 = np.array([(1 + np.sqrt(3)) / 2, (1 - np.sqrt(3)) / 2])


def norm_mc(rho, spec, samples, seed) -> float:
    """The Monte-Carlo phase-space norm: the trace of reconstruct_mc, since tr D = 1."""
    return np.trace(reconstruct_mc(rho, spec, samples, seed)).real


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
        # The unit vector whose frame image is (1,1,-1,-1)/2 gives the two-qubit spectrum.
        v = np.array([0.0, 2.0 / np.sqrt(6.0), 1.0 / np.sqrt(3.0)])
        direction = v @ hyperplane_frame(4)
        np.testing.assert_allclose(direction, [0.5, 0.5, -0.5, -0.5], atol=1e-15)
        spec = KernelSpectrum(0.25 + np.sqrt(4.0 - 0.25) * direction)
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

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            solve_kernel_spectrum(1)

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
        assert SWKernel(mat).n == 2
        mat[0, 1] = entry
        with pytest.raises(ValueError, match="not Hermitian"):
            SWKernel(mat)


def _kernel16():
    return kernel_from_spectrum(solve_kernel_spectrum(16, "random", seed=3), haar_unitary(16, 3))


class TestSWKernelReport:
    """SWKernel keeps the verify_master report that admitted it."""

    def test_report_is_verify_master(self):
        from swphase.composite import make_composite_kernel, reduce_kernel
        from swphase.linalg import BipartiteDims
        from swphase.twoqubit import kernel_from_moduli

        comp = make_composite_kernel(BipartiteDims(2, 3), 5)
        kernels = [
            kernel_from_spectrum(solve_kernel_spectrum(5, "random", seed=1), haar_unitary(5, 2)),
            kernel_from_moduli(haar_unitary(4, 7), [0.6, 0.0, 0.8]),
            reduce_kernel(comp, "A"),
            reduce_kernel(comp, "B"),
            comp.kernel,
        ]
        for ker in kernels:
            assert ker.report == verify_master(ker.mat)
        assert comp.report.full is comp.kernel.report

    def test_imaginary_trace_is_rejected(self):
        # Hermiticity defect 8e-13 and Re tr = 1 pass; Im tr = 1.6e-12 does not.
        mat = _kernel16().mat + 1e-13j * np.eye(16)
        assert verify_master(mat).hermiticity_defect <= 1e-12
        assert abs(np.trace(mat).real - 1.0) <= 1e-12
        with pytest.raises(ValueError, match=r"^kernel trace has imaginary part 1\.600e-12$"):
            SWKernel(mat)

    def test_imaginary_purity_is_rejected(self):
        # Re tr(m^2) sits 0.99e-10 above 16, inside PURITY_TOL; the imaginary
        # part 2 tr(Delta K) ~ 3.2e-12 of a traceless Hermitian K with
        # |2K| = 8e-13 takes the residual over it.
        delta = _kernel16().mat
        s = 1.0 + 0.99e-10 / (2.0 * (16.0 - 1.0 / 16.0))
        k = delta - np.eye(16) / 16.0
        k *= 4e-13 / np.linalg.norm(k)
        mat = s * delta + (1.0 - s) / 16.0 * np.eye(16) + 1j * k
        report = verify_master(mat)
        assert report.hermiticity_defect <= 1e-12 and report.trace_residual <= 1e-12
        assert abs(np.trace(mat @ mat).real - 16.0) <= kernel.PURITY_TOL
        with pytest.raises(ValueError, match=r"^kernel purity has imaginary part 3\.\d+e-12$"):
            SWKernel(mat)

    @pytest.mark.parametrize("scale, message", [
        (1.1, r"^kernel trace 1\.1\d* != 1$"),
        (1.0 + 2e-12, r"^kernel trace 1\.0000000000\d* != 1$"),
    ])
    def test_real_trace_message(self, scale, message):
        with pytest.raises(ValueError, match=message):
            SWKernel(scale * _kernel16().mat)

    def test_overflow_rejected_without_warning(self):
        # The trace test rejects it; tr(m^2) overflows inside verify_master,
        # which must not warn (warnings are errors in this suite).
        with pytest.raises(ValueError, match=r"^kernel trace 2e\+200 != 1$"):
            SWKernel(np.diag([1e200, 1e200]))


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


# The Haar error law of reconstruct_mc: each sample X_k = n w_k U_k D U_k^dagger
# is unbiased with E|X_k|_F^2 = n^2 tr(rho^2), so E|rho_hat - rho|_F^2 =
# (n^2 - 1) tr(rho^2) / S exactly (ROADMAP item 6), and r = err^2 / law has
# mean 1.  With C the covariance of one sample, Var r = 2 tr(C^2) / tr(C)^2
# + O(1/S) <= 2 + O(1/S) (measured 0.62, 0.14 and 0.03 at n = 2, 4 and 9,
# S = 200).  The band on the mean of r over R seeded repeats is
# LAW_Z * sqrt(2 / R): by the central limit theorem a sampler with the right
# law leaves it with probability below 7e-6 per n.
LAW_Z = 4.5
LAW_REPEATS = 100


def _law_deviation(n: int, samples: int) -> float:
    """Mean of err^2 / law over LAW_REPEATS seeded runs, less 1, in units of the band."""
    rho = random_density(n, 60 + n)
    spec = solve_kernel_spectrum(n, "random", seed=70 + n)
    law = (n * n - 1) * np.trace(rho.mat @ rho.mat).real / samples
    err2 = [np.linalg.norm(reconstruct_mc(rho, spec, samples, seed=(80, n, k)) - rho.mat)**2
            for k in range(LAW_REPEATS)]
    return (np.mean(err2) / law - 1.0) / (LAW_Z * np.sqrt(2.0 / LAW_REPEATS))


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

    # n = 2, 4, 9 and the cut take the planes' frames, the cut + 1, 14 and 15 the WY frames.
    @pytest.mark.parametrize("n", [2, 4, 9, _PLANES_MAX_N, _PLANES_MAX_N + 1, 14, 15])
    def test_error_follows_haar_law(self, n):
        assert abs(_law_deviation(n, 200)) < 1.0

    @pytest.mark.parametrize("n", [2, 4, 9, _PLANES_MAX_N + 1])
    def test_haar_law_rejects_a_real_draw(self, n, monkeypatch):
        # Real drawn Householder vectors give frames Haar on O(n), not U(n):
        # against a complex rho the estimate is biased, and its error stops
        # falling.  The bias grows with S against the law, and at S = 200
        # it leaves the band by less as n grows (1.5 band widths at n = 9,
        # 0.75 at n = 13), so the WY case above the cut takes S = 400 (1.44).
        def real_frames(a, *work):
            a.imag = 0.0
            return _orbit_frames(a, *work)

        monkeypatch.setattr(kernel, "_orbit_frames", real_frames)
        assert _law_deviation(n, 200 if n <= _PLANES_MAX_N else 400) > 1.0

    def test_norm_estimate(self):
        rho = random_density(4, 4)
        spec = solve_kernel_spectrum(4, "random", seed=5)
        est = norm_mc(rho, spec, 50_000, seed=6)
        assert abs(est - 1.0) < 0.03


def _householder_product(rng, samples: int, n: int) -> np.ndarray:
    """H_0 ... H_{n-2} of each sample, from the documented draw as dense reflector matrices.

    Sample k draws the (re, im) pairs of z_0, ..., z_{n-2}, of lengths n, ...,
    2, in that order; H_l = I - tau w w^dagger on rows l, ..., n - 1, with
    w = z_l but w[0] = z_l[0] + e^{i phi} |z_l|, e^{i phi} = z_l[0] / |z_l[0]|
    and tau = 1 / (|z_l| (|z_l| + |z_l[0]|)).
    """
    x = rng.standard_normal((samples, n * n + n - 2))
    z = x[:, 0::2] + 1j * x[:, 1::2]
    q = np.broadcast_to(np.eye(n, dtype=complex), (samples, n, n))
    first = 0
    for l in range(n - 1):
        zl = z[:, first:first + n - l]
        first += n - l
        norm, head = np.linalg.norm(zl, axis=-1), np.abs(zl[:, 0])
        w = np.zeros((samples, n), dtype=complex)
        w[:, l:] = zl
        w[:, l] += zl[:, 0] / head * norm
        tau = 1.0 / (norm * (norm + head))
        h = np.eye(n) - tau[:, None, None] * w[:, :, None] * w[:, None, :].conj()
        q = q @ h
    return q


class TestOrbitChunks:
    """The orbit sampler of reconstruct_mc, the one Monte-Carlo estimator."""

    @pytest.mark.parametrize("n, samples", [
        (2, 500), (3, 500), (4, 500), (8, 200), (9, 200), (_PLANES_MAX_N, 200),
        (_PLANES_MAX_N + 1, 200), (14, 200), (15, 200), (32, 60), (4, CHUNK_N4 + 7),
        (32, CHUNK_N32 + 7),
    ])
    def test_equals_haar_orbit(self, n, samples):
        # Rebuild every sample from the documented draw, on either side of
        # the cut.  The reference U D U^dagger takes all n columns of a
        # unitary U, whose diagonal phases cancel in it, and not the
        # completeness identity that reconstruct_mc uses.
        rho = random_density(n, n + 50)
        spec = solve_kernel_spectrum(n, "random", seed=n)
        u = _householder_product(np.random.default_rng(17), samples, n)
        orbit = (u * spec.pi) @ u.conj().swapaxes(-1, -2)
        w = np.einsum("kij,ji->k", orbit, rho.mat).real
        want = n * np.einsum("k,kij->ij", w, orbit) / samples
        got = reconstruct_mc(rho, spec, samples, seed=17)
        assert np.abs(got - want).max() < 1e-13
        # The trace is the phase-space norm estimate, since tr D = 1.
        assert abs(np.trace(got).real - n * w.sum() / samples) < 1e-13

    # Householder planes at n = 2, 4, 8, 9 and the cut (one, three, seven,
    # eight and cut - 1 frames), WY frames at the cut + 1, 14 and 15.
    @pytest.mark.parametrize("n", [2, 4, 8, 9, _PLANES_MAX_N, _PLANES_MAX_N + 1, 14, 15])
    def test_stream_does_not_depend_on_chunk(self, n, monkeypatch):
        # One chunk, 64 samples a chunk (does not divide 1000), one sample a chunk.
        rho = random_density(n, 3)
        spec = solve_kernel_spectrum(n, "random", seed=4)
        counts, frames, estimates = [], [], []
        for chunk_bytes in (16 * n * n * 1000, 16 * n * n * 64 + 5, 1):
            monkeypatch.setattr(kernel, "_MC_CHUNK_BYTES", chunk_bytes)
            chunks = []

            def recording(a, *work):
                # Each chunk's frames overwrite the last ones, so keep copies.
                q = _orbit_frames(a, *work)
                chunks.append(q.copy())
                return q

            monkeypatch.setattr(kernel, "_orbit_frames", recording)
            estimates.append(reconstruct_mc(rho, spec, 1000, seed=8))
            counts.append(len(chunks))
            # Frames are sample-last planes: join the chunks along the sample axis.
            frames.append(np.concatenate(chunks, axis=-1))
        assert counts == [1, 16, 1000]
        for frame, rec in zip(frames[1:], estimates[1:]):
            assert np.array_equal(frame, frames[0])
            assert np.abs(rec - estimates[0]).max() < 1e-14

    @pytest.mark.parametrize("n, chunk", [(4, CHUNK_N4), (32, CHUNK_N32)])
    def test_ladder_rungs_are_prefixes(self, n, chunk):
        # Rungs of several chunks, out of order and repeated, on either side of
        # the cut: each is the call of its own count on the same stream, to
        # roundoff, and the smallest one bit for bit.
        rho = random_density(n, 5)
        spec = solve_kernel_spectrum(n, "random", seed=6)
        ladder = [2 * chunk + 7, 10, chunk + 3, 2 * chunk + 7]
        got = reconstruct_mc(rho, spec, ladder, seed=7)
        assert got.shape == (len(ladder), n, n)
        assert np.array_equal(got[1], reconstruct_mc(rho, spec, 10, seed=7))
        assert np.array_equal(got[0], got[3])
        for rung, samples in zip(got, ladder):
            assert np.abs(rung - reconstruct_mc(rho, spec, samples, seed=7)).max() < 1e-14

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

    @pytest.mark.parametrize("n", [2, 3, 4, 8, _PLANES_MAX_N, 14, 32])
    def test_peak_drops_each_orbit_stack(self, n):
        # Three chunks and one sample.  Householder planes (n = 2, one frame,
        # up to the cut) keep the draw and the planes in two reused buffers,
        # the per-plane products in the spent draw, and form no orbit stack
        # (2.0-2.4 chunks measured): one (k, n, n) stack more takes it past its
        # bound.  WY frames (n = 14 and 32) keep the draw, the stack that
        # then takes the orbit stack, and the conj W, G and T workspace in
        # reused buffers (4.9-5.1 chunks measured).  Fresh stacks or a fresh
        # workspace per chunk take the peak past the bound.
        bound = 3.0 if n <= _PLANES_MAX_N else 6.5
        rho = random_density(n, 1)
        spec = solve_kernel_spectrum(n, "random", seed=2)
        samples = 3 * (_MC_CHUNK_BYTES // (16 * n * n)) + 1
        tracemalloc.start()
        try:
            reconstruct_mc(rho, spec, samples, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * _MC_CHUNK_BYTES

    @pytest.mark.parametrize("n", [2, 3, 4, 8, _PLANES_MAX_N, _PLANES_MAX_N + 1, 14, 32])
    def test_householder_frames_orthonormal(self, n):
        # Random vectors, and planted ones with every z_l[0] = 0 exactly (the
        # phase e^{i phi} = 1 branch) or of modulus 1e-300, whose square
        # underflows: neither may warn (the suite turns RuntimeWarning into
        # an error) or lose orthonormality.  On the planes the rows below j
        # of plane j are NaN, which must never be read; the WY stack holds
        # zeros there, which its GEMMs read.
        planes = n <= _PLANES_MAX_N
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n - 1, n, 6)) + 1j * rng.standard_normal((n - 1, n, 6))
        for j in range(n - 1):
            z[j, :j] = np.nan if planes else 0.0
            z[j, j, 1] = 0.0
            z[j, j, 2] = 1e-300
            z[j, j, 3] = 1e-300 * (-0.6 + 0.8j)
            z[j, j, 4] = -1e-300j
        z0 = z[0].T.copy()  # (samples, n)
        want = z0 / np.linalg.norm(z0, axis=-1, keepdims=True)
        if not planes:
            # WY frame 0 is -e^{-i phi_0} z_0 / |z_0|, e^{i phi_0} = 1 when z_0[0] = 0.
            head = z0[:, :1]
            want *= -np.divide(head.conj(), np.abs(head), out=np.ones_like(head), where=head != 0)
            z = z.transpose(2, 0, 1).copy().transpose(1, 2, 0)  # a (samples, n - 1, n) stack
        u = _orbit_frames(z).transpose(2, 0, 1)  # (samples, n - 1, n)
        assert u.shape == (6, n - 1, n) and np.all(np.isfinite(u))
        gram = u.conj() @ u.swapaxes(-1, -2)
        assert np.abs(gram - np.eye(n - 1)).max() <= 1e-14
        # Frame 0 takes no reflection on the planes, and only its own in WY.
        assert np.abs(u[:, 0] - want).max() <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 8, _PLANES_MAX_N, _PLANES_MAX_N + 1])
    def test_wy_frames_match_plane_frames(self, n):
        # Both builders read one draw: the WY product's column j is
        # -e^{-i phi_j} u_j, with e^{i phi_j} = z_j[0] / |z_j[0]|.
        rng = np.random.default_rng(n)
        stack = np.zeros((5, n - 1, n), dtype=complex)  # z_l in row l from column l
        for l in range(n - 1):
            stack[:, l, l:] = rng.standard_normal((5, n - l)) + 1j * rng.standard_normal((5, n - l))
        head = stack[:, range(n - 1), range(n - 1)]
        u = _plane_frames(stack.transpose(1, 2, 0).copy()).transpose(2, 0, 1)
        f = _wy_frames(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
        assert np.abs(f + (head.conj() / np.abs(head))[..., None] * u).max() <= 1e-14

    def test_input_errors_shared(self):
        rho = random_density(4, 0)
        with pytest.raises(ValueError, match=r"^dimension mismatch: state 4, spectrum 3$"):
            reconstruct_mc(rho, solve_kernel_spectrum(3), 10, seed=0)
        for samples in (0, [10, 0], []):
            with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
                reconstruct_mc(rho, solve_kernel_spectrum(4), samples, seed=0)

    @pytest.mark.parametrize("estimate", [
        lambda rho, spec: reconstruct_exact(rho, spec),
        lambda rho, spec: reconstruct_mc(rho, spec, 10, seed=0),
        lambda rho, spec: norm_mc(rho, spec, 10, seed=0),
    ], ids=["exact", "mc", "norm_mc"])
    def test_raw_spectrum_needs_n2(self, estimate):
        # KernelSpectrum refuses n = 1, and so must a raw spectrum: at n = 1 the
        # Monte-Carlo draw has no column and the closed form divides 0 by 0.
        with pytest.raises(ValueError, match=r"^kernel spectra need n >= 2$"):
            estimate(DensityMatrix(np.ones((1, 1))), np.ones(1))


class TestVerifyMaster:
    def test_valid_kernel(self):
        spec = solve_kernel_spectrum(4, "random", seed=0)
        ker = kernel_from_spectrum(spec, haar_unitary(4, 1))
        report = verify_master(ker.mat)
        assert report.ok()

    def test_maximally_mixed_purity_residual(self):
        n = 4
        report = verify_master(np.eye(n) / n)
        assert report.hermitian
        assert report.trace_residual < 1e-14
        assert abs(report.purity_residual - (n - 1.0 / n)) < 1e-12

    def test_second_positional_argument_refused(self):
        # verify_master reads N from its matrix and its tolerances are pinned: a second
        # argument, a size or a tolerance, is refused.
        with pytest.raises(TypeError):
            verify_master(np.eye(4) / 4, 4)

    def test_ok_judges_at_the_report_tol(self):
        # The report's tolerances are pinned, as SWKernel admits: Hermiticity and trace at
        # DEFAULT_TOL (1e-12), purity at PURITY_TOL (1e-10).  hermitian: false is never ok.
        m = np.diag(GOLD_2) + 1e-9 * np.array([[0, 1], [-1, 0]])
        report = verify_master(m)
        assert report.trace_residual <= 1e-12 and report.purity_residual <= 1e-12
        assert not report.hermitian and not report.ok()
        shifted = verify_master(np.diag(GOLD_2 + 1.5e-11))  # trace residual 3e-11
        assert shifted.hermitian and shifted.purity_residual <= 1e-10
        assert 2e-11 < shifted.trace_residual < 4e-11 and not shifted.ok()
        d = 5e-11 / (2 * np.sqrt(3))  # purity residual 5e-11, trace kept
        impure = verify_master(np.diag(GOLD_2 + [d, -d]))
        assert 4e-11 < impure.purity_residual < 6e-11 and impure.ok()
        assert set(report.as_dict()) == {"hermitian", "hermiticity_defect", "trace_residual",
                                         "purity_residual"}

    def test_perturbation_scale(self):
        from swphase.linalg import random_hermitian

        spec = solve_kernel_spectrum(4, "random", seed=7)
        ker = kernel_from_spectrum(spec, haar_unitary(4, 8))
        noise = random_hermitian(4, 9)
        noise = noise / np.linalg.norm(noise)
        report = verify_master(ker.mat + 1e-6 * noise)
        assert 1e-8 < report.trace_residual + report.purity_residual < 1e-4
