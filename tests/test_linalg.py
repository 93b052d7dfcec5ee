import json

import numpy as np
import pytest

from swphase.linalg import (
    BipartiteDims,
    DensityMatrix,
    _haar_from_rng,
    haar_unitaries,
    haar_unitary,
    is_hermitian,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_density,
    random_hermitian,
)

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def _rand_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitarity_sites():
    from swphase.kernel import covariance_check, kernel_from_spectrum, solve_kernel_spectrum
    from swphase.twoqubit import adjoint_matrix, kernel_from_moduli

    rho, spec = random_density(4, 0), solve_kernel_spectrum(4)
    return {
        "adjoint_matrix": adjoint_matrix,
        "kernel_from_moduli": lambda u: kernel_from_moduli(u, [0.0, 0.0, 1.0]),
        "kernel_from_spectrum": lambda u: kernel_from_spectrum(spec, u),
        "covariance_check": lambda u: covariance_check(
            kernel_from_spectrum(spec, np.eye(4)), rho, u),
    }


def _hermiticity_sites():
    from swphase.composite import fano_blocks
    from swphase.reports import twoqubit_constraint_values
    from swphase.twoqubit import isotropy_dim

    return {
        "twoqubit_constraint_values": twoqubit_constraint_values,
        "isotropy_dim": isotropy_dim,
        "fano_blocks": lambda x: fano_blocks(x, BipartiteDims(2, 2)),
    }


class TestSharedChecks:
    """Every site of the unitarity and the 1e-10 Hermiticity check uses the shared one."""

    @pytest.mark.parametrize("site", list(_unitarity_sites()))
    def test_unitarity_sites(self, site):
        check = _unitarity_sites()[site]
        u = haar_unitary(4, 3)
        check(u * np.exp(0.4j))  # unitary up to roundoff: accepted
        for bad in (u * (1.0 + 1e-9), np.full((4, 4), np.nan)):
            with pytest.raises(ValueError, match=r"^input is not unitary$"):
                check(bad)

    @pytest.mark.parametrize("site", list(_hermiticity_sites()))
    def test_hermiticity_sites(self, site):
        check = _hermiticity_sites()[site]
        h = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        check(h + 1e-12j * np.triu(np.ones((4, 4)), 1))  # defect below 1e-10: accepted
        for bad in (h + 1e-9j * np.triu(np.ones((4, 4)), 1), np.full((4, 4), np.nan)):
            with pytest.raises(ValueError, match=r"^input is not Hermitian$"):
                check(bad)


class TestKron:
    def test_identity_case(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_expansion(self):
        np.testing.assert_array_equal(
            kron(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex))

    def test_trace_multiplicative(self):
        for seed in range(5):
            a = _rand_complex(2, seed)
            b = _rand_complex(2, seed + 100)
            # oracle: direct multiplication
            assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12

    def test_associative_exact_on_integers(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.integers(-3, 4, size=(2, 2)) for _ in range(3))
        np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_index_convention(self):
        a = _rand_complex(2, 1)
        b = _rand_complex(3, 2)
        k = kron(a, b)
        for i in range(2):
            for j in range(2):
                for l in range(3):
                    for m in range(3):
                        assert abs(k[i * 3 + l, j * 3 + m] - a[i, j] * b[l, m]) < 1e-15


class TestPartialTrace:
    def test_defining_identity(self):
        dims = BipartiteDims(2, 2)
        for seed in range(5):
            a = _rand_complex(2, seed)
            b = _rand_complex(2, seed + 50)
            got = partial_trace(kron(a, b), dims, keep="A")
            np.testing.assert_allclose(got, np.trace(b) * a, atol=1e-12)
            got = partial_trace(kron(a, b), dims, keep="B")
            np.testing.assert_allclose(got, np.trace(a) * b, atol=1e-12)

    def test_identity_matrix(self):
        got = partial_trace(np.eye(4), BipartiteDims(2, 2), keep="B")
        np.testing.assert_array_equal(got, 2.0 * np.eye(2))

    def test_trace_preserved(self):
        dims = BipartiteDims(2, 3)
        x = _rand_complex(6, 3)
        for keep in ("A", "B"):
            assert abs(np.trace(partial_trace(x, dims, keep)) - np.trace(x)) < 1e-12

    def test_duality(self):
        # tr(Tr_B(X) Y) = tr(X (Y ⊗ I)), both sides brute force
        dims = BipartiteDims(2, 2)
        for seed in range(10):
            x = _rand_complex(4, seed)
            y = _rand_complex(2, seed + 7)
            lhs = np.trace(partial_trace(x, dims, keep="A") @ y)
            rhs = np.trace(x @ kron(y, np.eye(2)))
            assert abs(lhs - rhs) < 1e-12

    def test_linearity(self):
        dims = BipartiteDims(2, 2)
        rng = np.random.default_rng(9)
        x = _rand_complex(4, 11)
        y = _rand_complex(4, 12)
        alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = partial_trace(alpha * x + beta * y, dims)
        rhs = alpha * partial_trace(x, dims) + beta * partial_trace(y, dims)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), BipartiteDims(2, 2))


class TestIsHermitian:
    def test_identity(self):
        assert is_hermitian(np.eye(4), 1e-12)

    def test_sigma_y(self):
        assert is_hermitian(SIGMA_Y, 1e-12)

    def test_anti_hermitian(self):
        assert not is_hermitian(1j * np.eye(2), 1e-12)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            is_hermitian(np.eye(2), 0.0)
        with pytest.raises(ValueError, match="tol must be positive"):
            is_hermitian(np.eye(2), np.nan)


class TestHaarUnitary:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_special_unitary(self, n):
        for seed in range(5):
            u = haar_unitary(n, seed)
            assert np.linalg.norm(u @ u.conj().T - np.eye(n)) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_unitary(4, 123), haar_unitary(4, 123))

    def test_single_draw_keeps_two_draw_formula(self):
        # Real part, then imaginary part, each one (n, n) draw: pins `kernel gen` output.
        n = 4
        rng = np.random.default_rng(123)
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        q = q * np.exp(-1j * np.angle(np.linalg.det(q)) / n)
        assert np.array_equal(haar_unitary(n, 123), q)

    def test_batch_does_not_depend_on_its_split(self):
        rng = np.random.default_rng(9)
        split = np.concatenate([_haar_from_rng(3, rng, size=5), _haar_from_rng(3, rng, size=8)])
        assert np.array_equal(haar_unitaries(3, 13, seed=9), split)

    def test_first_moment_vanishes(self):
        u = haar_unitaries(4, 10_000, seed=7)
        mean = u[:, 0, 0].mean()
        assert abs(mean) < 5.0 / np.sqrt(10_000)

    def test_second_moment(self):
        n = 4
        u = haar_unitaries(n, 10_000, seed=8)
        vals = np.abs(u[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0 / n) < 5.0 * se


class TestRandomDensity:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_invariants(self, n):
        rho = random_density(n, seed=n)
        assert rho.dim == n  # DensityMatrix construction already validates

    def test_unit_trace_tight(self):
        for seed in range(10):
            rho = random_density(4, seed)
            assert abs(np.trace(rho.mat) - 1.0) < 1e-14

    def test_full_rank(self):
        for seed in range(100):
            rho = random_density(4, seed)
            assert np.linalg.eigvalsh(rho.mat)[0] > 0.0

    def test_keeps_two_draw_formula(self):
        # Real part, then imaginary part, each one (n, n) draw: pins `reconstruct` output.
        g = _rand_complex(4, 5)
        w = (g / np.sqrt(2.0)) @ (g / np.sqrt(2.0)).conj().T
        w = (w + w.conj().T) / 2.0
        assert np.array_equal(random_density(4, 5).mat, w / np.trace(w).real)
        g = _rand_complex(3, 5)
        assert np.array_equal(random_hermitian(3, 5), (g + g.conj().T) / 2.0)

    @pytest.mark.parametrize("draw", [random_density, random_hermitian, haar_unitary],
                             ids=lambda f: f.__name__)
    def test_rejects_empty(self, draw):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            draw(0, 5)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))  # not PSD
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan))


class TestSerialization:
    def test_round_trip(self):
        x = _rand_complex(3, 4)
        obj = matrix_to_json(x)
        text = json.dumps(obj)
        back = matrix_from_json(json.loads(text))
        np.testing.assert_array_equal(back, x)

    def test_schema_errors(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "entries": [[1, 0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"entries": []})
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "entries": [[1, 0, 0]] * 4})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "nan", 1e400])
    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_rejected(self, bad, part):
        entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        entries[2][part] = bad
        with pytest.raises(ValueError, match="entry 2 is not finite"):
            matrix_from_json({"dim": 2, "entries": entries})
