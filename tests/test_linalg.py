import json

import numpy as np
import pytest

from swphase.composite import make_composite_kernel
from swphase.linalg import (
    BipartiteDims,
    DensityMatrix,
    _ginibre,
    haar_unitary,
    hermiticity_defect,
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
    from swphase.kernel import kernel_from_spectrum, solve_kernel_spectrum
    from swphase.twoqubit import kernel_from_moduli

    spec = solve_kernel_spectrum(4)
    return {
        "kernel_from_moduli": lambda u: kernel_from_moduli(u, [0.0, 0.0, 1.0]),
        "kernel_from_spectrum": lambda u: kernel_from_spectrum(spec, u),
    }


def _hermiticity_sites():
    from swphase.composite import fano_blocks
    from swphase.reports import elementary_constraint_value, isotropy_dim

    return {
        "elementary_constraint_value": elementary_constraint_value,
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
    """np.kron flattens subsystem-A-major, the order partial_trace reads."""

    def test_identity_case(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_expansion(self):
        np.testing.assert_array_equal(
            np.kron(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex))

    def test_index_convention(self):
        a = _rand_complex(2, 1)
        b = _rand_complex(3, 2)
        k = np.kron(a, b)
        for i in range(2):
            for j in range(2):
                for l in range(3):
                    for m in range(3):
                        assert abs(k[i * 3 + l, j * 3 + m] - a[i, j] * b[l, m]) < 1e-15


class TestBipartiteDims:
    def test_numpy_integers_accepted(self):
        assert BipartiteDims(np.int64(2), np.int32(3)).total == 6

    def test_numpy_integers_kept_as_ints(self):
        # So that a report built on them serializes.
        dims = BipartiteDims(np.int64(2), np.int64(2))
        assert type(dims.n_a) is int and type(dims.n_b) is int
        json.dumps(make_composite_kernel(dims, 0).report.as_dict())

    @pytest.mark.parametrize("dims, error, message", [
        ((2.0, 2.0), TypeError, "must be integers"),
        ((2, 3.0), TypeError, "must be integers"),
        ((True, 2), TypeError, "must be integers"),
        ((2, np.bool_(True)), TypeError, "must be integers"),
        ((0, 2), ValueError, "must be positive"),
        ((2, -1), ValueError, "must be positive"),
    ])
    def test_rejected_when_built(self, dims, error, message):
        with pytest.raises(error, match=message):
            BipartiteDims(*dims)


class TestPartialTrace:
    def test_defining_identity(self):
        dims = BipartiteDims(2, 2)
        for seed in range(5):
            a = _rand_complex(2, seed)
            b = _rand_complex(2, seed + 50)
            got = partial_trace(np.kron(a, b), dims, keep="A")
            np.testing.assert_allclose(got, np.trace(b) * a, atol=1e-12)
            got = partial_trace(np.kron(a, b), dims, keep="B")
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
            rhs = np.trace(x @ np.kron(y, np.eye(2)))
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
    """The library's Hermiticity test: the Frobenius norm of x - x^dagger, against a tolerance."""

    def test_identity(self):
        assert hermiticity_defect(np.eye(4)) == 0.0

    def test_sigma_y(self):
        assert hermiticity_defect(SIGMA_Y) == 0.0

    def test_anti_hermitian(self):
        # x - x^dagger = 2i I, whose Frobenius norm is 2 sqrt(2).
        assert hermiticity_defect(1j * np.eye(2)) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)


@pytest.fixture(scope="module")
def haar_draws():
    """haar_unitary(4, s) for the seeds s < 10,000, stacked."""
    return np.array([haar_unitary(4, s) for s in range(10_000)])


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

    def test_first_moment_vanishes(self, haar_draws):
        mean = haar_draws[:, 0, 0].mean()
        assert abs(mean) < 5.0 / np.sqrt(10_000)

    def test_second_moment(self, haar_draws):
        n = 4
        vals = np.abs(haar_draws[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - 1.0 / n) < 5.0 * se


class TestGinibre:
    @pytest.mark.parametrize("n, size", [(1, None), (4, None), (4, 7), (9, 3)])
    def test_bits_equal_complex_sum(self, n, size):
        # Filling .real and .imag gives the bits of g0 + 1j*g1, so every seeded
        # draw (states, kernels, unitaries) keeps its output; ``size`` draws in a
        # row read the stream as one (size, 2, n, n) draw.
        for seed in range(20):
            g = np.random.default_rng(seed).standard_normal((2, n, n) if size is None
                                                            else (size, 2, n, n))
            want = g[..., 0, :, :] + 1j * g[..., 1, :, :]
            rng = np.random.default_rng(seed)
            got = (_ginibre(n, rng) if size is None
                   else np.array([_ginibre(n, rng) for _ in range(size)]))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize("obj, match", [
        ({"dim": 2.9, "entries": [[1, 0]] * 4}, "'dim' must be an integer, got 2.9"),
        ({"dim": "2", "entries": [[1, 0]] * 4}, "'dim' must be an integer, got '2'"),
        ({"dim": True, "entries": [[1, 0]]}, "'dim' must be an integer, got True"),
        ({"dim": 1, "entries": [["1", "0"]]}, r"entry 0 is not a \[re, im\] pair of numbers"),
        ({"dim": 1, "entries": [[True, 0]]}, r"entry 0 is not a \[re, im\] pair of numbers"),
        ({"dim": 1, "entries": [[0, False]]}, r"entry 0 is not a \[re, im\] pair of numbers"),
        ({"dim": 1, "entries": [[10**400, 0]]}, "entry 0 is not finite"),
    ], ids=["dim-float", "dim-str", "dim-bool", "entry-str", "entry-bool-re", "entry-bool-im",
            "entry-huge-int"])
    def test_strict_number_types(self, obj, match):
        with pytest.raises(ValueError, match=match):
            matrix_from_json(obj)

    def test_ints_and_floats_accepted(self):
        back = matrix_from_json({"dim": 2, "entries": [[1, 0], [0.5, -2], [0, 0.25], [3, 1]]})
        np.testing.assert_array_equal(back, [[1, 0.5 - 2j], [0.25j, 3 + 1j]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "nan", 1e400])
    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_rejected(self, bad, part):
        entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        entries[2][part] = bad
        with pytest.raises(ValueError, match="entry 2 is not finite"):
            matrix_from_json({"dim": 2, "entries": entries})
