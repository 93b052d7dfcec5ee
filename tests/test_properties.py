"""Property tests: matrix JSON round trips and partial-trace duality."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from swphase.linalg import BipartiteDims, kron, matrix_from_json, matrix_to_json, partial_trace


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
        (np.trace(partial_trace(rho, dims, keep="A") @ x), np.trace(rho @ kron(x, np.eye(n_b)))),
        (np.trace(partial_trace(rho, dims, keep="B") @ y), np.trace(rho @ kron(np.eye(n_a), y))),
    ]
    for reduced, full in pairs:
        assert abs(reduced - full) <= 1e-12 * dims.total ** 2
