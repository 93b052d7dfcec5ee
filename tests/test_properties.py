"""Property tests: matrix JSON round trips, partial-trace duality, the master
equations of random kernels and the exact moduli solver at the matrix level."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from swphase.kernel import PURITY_TOL, kernel_from_spectrum, solve_kernel_spectrum, verify_master
from swphase.linalg import (BipartiteDims, haar_unitary, matrix_from_json, matrix_to_json,
                            partial_trace)
from swphase.twoqubit import MATRIX_LEVEL, moduli_feasibility, moduli_record


def _matrices(n, elements=st.complex_numbers(allow_nan=False, allow_infinity=False)):
    return arrays(np.complex128, (n, n), elements=elements)


_UNIT_ENTRIES = st.complex_numbers(max_magnitude=1.0)


@given(st.integers(1, 4).flatmap(_matrices))
def test_matrix_json_round_trip_is_exact(m):
    text = json.dumps(matrix_to_json(m), allow_nan=False)
    back = matrix_from_json(json.loads(text))
    assert back.shape == m.shape
    assert back.tobytes() == m.tobytes()  # bit for bit, signed zeros included


@given(st.integers(1, 4).flatmap(_matrices), st.data())
def test_non_finite_entry_rejected(m, data):
    obj = matrix_to_json(m)
    k = data.draw(st.integers(0, m.size - 1))
    part = data.draw(st.integers(0, 1))
    obj["entries"][k][part] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    with pytest.raises(ValueError, match=f"entry {k} is not finite"):
        matrix_from_json(json.loads(json.dumps(obj)))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_partial_trace_duality(n_a, n_b, data):
    """tr(Tr_B rho X) = tr(rho (X x I)) and tr(Tr_A rho Y) = tr(rho (I x Y))."""
    dims = BipartiteDims(n_a, n_b)
    rho = data.draw(_matrices(dims.total, _UNIT_ENTRIES))
    x = data.draw(_matrices(n_a, _UNIT_ENTRIES))
    y = data.draw(_matrices(n_b, _UNIT_ENTRIES))
    pairs = [
        (np.trace(partial_trace(rho, dims, keep="A") @ x), np.trace(rho @ np.kron(x, np.eye(n_b)))),
        (np.trace(partial_trace(rho, dims, keep="B") @ y), np.trace(rho @ np.kron(np.eye(n_a), y))),
    ]
    for reduced, full in pairs:
        assert abs(reduced - full) <= 1e-12 * dims.total ** 2


@settings(max_examples=20)
@given(st.integers(2, 256), st.integers(0, 2**32 - 1))
@example(256, 0)
def test_master_equations_random_kernel(n, seed):
    """U diag(pi) U^dagger has unit trace and purity n for a random spectrum and Haar U."""
    spec = solve_kernel_spectrum(n, "random", seed=seed)
    report = verify_master(kernel_from_spectrum(spec, haar_unitary(n, seed)).mat)
    assert report.hermitian
    assert max(report.hermiticity_defect, report.trace_residual,
               report.purity_residual) <= PURITY_TOL


# Abelian parameters (a, a'): hypothesis floats favour structured points such
# as 0 and +-pi; seeded uniform draws add generic ones.
_ABELIAN_PARAMS = st.one_of(
    arrays(np.float64, 6, elements=st.floats(-np.pi, np.pi)),
    st.integers(0, 2**32 - 1).map(lambda s: np.random.default_rng(s).uniform(-np.pi, np.pi, 6)),
)


@given(_ABELIAN_PARAMS)
def test_matrix_level_solutions_are_antipodal_pairs(params):
    q = moduli_record(0, params[:3], params[3:]).quadrics
    sols = moduli_feasibility(q, level=MATRIX_LEVEL).solutions
    assert len(sols) % 2 == 0 and len(sols) <= 8  # Bezout: at most 4 antipodal pairs
    for mu in sols:
        assert sum(np.linalg.norm(mu + s) <= 1e-8 for s in sols) == 1
        residuals = [mu @ mu - 1.0, mu @ q.a @ mu - MATRIX_LEVEL, mu @ q.b @ mu - MATRIX_LEVEL]
        assert np.abs(residuals).max() <= 1e-10
