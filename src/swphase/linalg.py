"""Dense complex linear algebra primitives for the phase-space modules.

Conventions
-----------
Bipartite operators are flattened subsystem-A-major: the row index of
``kron(a, b)`` is ``i * dim(b) + k`` with ``i`` labelling subsystem A and
``k`` labelling subsystem B.  This fixes the partial-trace index pairing
bit-for-bit.

All functions are pure and operate on immutable inputs; random sampling is
deterministic given a seed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "BipartiteDims",
    "DensityMatrix",
    "as_complex_matrix",
    "kron",
    "partial_trace",
    "is_hermitian",
    "hermiticity_defect",
    "haar_unitary",
    "haar_unitaries",
    "random_density",
    "random_hermitian",
    "matrix_to_json",
    "matrix_from_json",
]

# Headroom for double precision at the 4x4..64x64 scales this library targets.
DEFAULT_TOL = 1e-12


def as_complex_matrix(x) -> np.ndarray:
    """Coerce ``x`` to a square complex128 array.

    Raises
    ------
    ValueError
        If the input is not a square 2-d array of size >= 1.
    """
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class BipartiteDims:
    """Subsystem dimensions (n_a, n_b) of a bipartite factorization."""

    n_a: int
    n_b: int

    def __post_init__(self):
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError("subsystem dimensions must be positive")

    @property
    def total(self) -> int:
        return self.n_a * self.n_b

    def check(self, dim: int):
        if dim != self.total:
            raise ValueError(
                f"matrix dimension {dim} does not match bipartition "
                f"{self.n_a}x{self.n_b}"
            )


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    Invariants are checked on construction: Hermiticity defect <= 1e-12
    (Frobenius), |trace - 1| <= 1e-12, smallest eigenvalue >= -1e-10.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        defect = hermiticity_defect(m)
        if not defect <= DEFAULT_TOL:
            raise ValueError(f"not Hermitian: defect {defect:.3e}")
        tr = np.trace(m)
        if not abs(tr - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"trace {tr} is not 1")
        w = np.linalg.eigvalsh(m)
        if w[0] < -1e-10:
            raise ValueError(f"not positive semidefinite: min eigenvalue {w[0]:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def kron(a, b) -> np.ndarray:
    """Kronecker product with A-major index order: (ik),(jl) -> a[i,j] b[k,l]."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace(x, dims: BipartiteDims, keep: str = "A") -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    Parameters
    ----------
    x : array_like
        Square matrix of dimension ``dims.n_a * dims.n_b``.
    dims : BipartiteDims
        The bipartition.
    keep : {"A", "B"}
        Which subsystem the result lives on.

    Returns
    -------
    numpy.ndarray
        ``n_a x n_a`` matrix with entries sum_k x[(i,k),(j,k)] for keep="A",
        symmetrically for keep="B".  The full trace is preserved.
    """
    m = as_complex_matrix(x)
    dims.check(m.shape[0])
    t = m.reshape(dims.n_a, dims.n_b, dims.n_a, dims.n_b)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermiticity_defect(x) -> float:
    """Frobenius norm of x - x^dagger."""
    m = as_complex_matrix(x)
    return float(np.linalg.norm(m - m.conj().T))


def _check_each(bad, message: str) -> None:
    """Raise ValueError(message) if the check failed for any matrix of a stack."""
    if bad.any():
        where = "" if np.ndim(bad) == 0 else f" at stack index {np.argwhere(bad)[0].tolist()}"
        raise ValueError(message + where)


def _check_unitary(u: np.ndarray) -> None:
    """Reject a matrix or stack (..., n, n) unless |u u^dagger - I|_F <= DEFAULT_TOL.

    The test is ``~(defect <= tol)``, not ``defect > tol``, so that NaN fails it.
    """
    gram = u @ u.conj().swapaxes(-1, -2)
    _check_each(~(np.linalg.norm(gram - np.eye(u.shape[-1]), axis=(-2, -1)) <= DEFAULT_TOL),
                "input is not unitary")


def _check_hermitian(x: np.ndarray) -> None:
    """Reject a matrix or stack (..., n, n) unless its Hermiticity defect is <= 1e-10."""
    defect = np.linalg.norm(x - x.conj().swapaxes(-1, -2), axis=(-2, -1))
    _check_each(~(defect <= 1e-10), "input is not Hermitian")


def is_hermitian(x, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Frobenius Hermiticity defect is within ``tol``."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    return hermiticity_defect(x) <= tol


def _ginibre(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Unscaled complex Ginibre matrices, batched when ``size`` is given.  Each is one
    (2, n, n) draw, real part first, filled in C order: sample k does not depend on size."""
    g = rng.standard_normal((2, n, n) if size is None else (size, 2, n, n))
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _haar_from_rng(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar samples from SU(n), batched when ``size`` is given."""
    q, r = np.linalg.qr(_ginibre(n, rng, size) / np.sqrt(2.0))
    # Unique-factor convention: absorb the phases of diag(R) so the
    # distribution is exactly Haar on U(n), then fix det = 1.
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    det = np.linalg.det(q)
    phase = np.exp(-1j * np.angle(det) / n)
    return q * np.asarray(phase)[..., None, None]


def haar_unitary(n: int, seed) -> np.ndarray:
    """Draw one Haar-distributed special unitary.

    Uses complex-Ginibre QR with diagonal phase correction, then removes the
    global phase so that det = 1.  Deterministic given ``seed``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _haar_from_rng(n, np.random.default_rng(seed))


def haar_unitaries(n: int, size: int, seed) -> np.ndarray:
    """Stacked Haar SU(n) samples of shape (size, n, n)."""
    if n < 1 or size < 1:
        raise ValueError("n and size must be >= 1")
    return _haar_from_rng(n, np.random.default_rng(seed), size=size)


def random_hermitian(n: int, seed) -> np.ndarray:
    """GUE-style random Hermitian matrix (unnormalized)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _ginibre(n, np.random.default_rng(seed))
    return (g + g.conj().T) / 2.0


def random_density(n: int, seed) -> DensityMatrix:
    """Full-rank random density matrix G G† / tr(G G†), G complex Gaussian."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _ginibre(n, np.random.default_rng(seed)) / np.sqrt(2.0)
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    return DensityMatrix(w / np.trace(w).real)


def matrix_to_json(x) -> dict:
    """Serialize a matrix to {"dim": n, "entries": [[re, im], ...]} (row-major)."""
    m = as_complex_matrix(x)
    entries = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"dim": int(m.shape[0]), "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`, with schema validation.

    Exact for finite entries; NaN or infinite parts raise ValueError.
    """
    try:
        dim = int(obj["dim"])
        entries = list(obj["entries"])
    except (KeyError, TypeError) as exc:
        raise ValueError("matrix object needs 'dim' and a list of 'entries'") from exc
    if dim < 1 or len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries for dim {dim}, got {len(entries)}")
    flat = np.empty(dim * dim, dtype=complex)
    for k, pair in enumerate(entries):
        try:
            re, im = pair
            z = complex(float(re), float(im))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"entry {k} is not a [re, im] pair of numbers: {pair!r}") from exc
        if not cmath.isfinite(z):
            raise ValueError(f"entry {k} is not finite: {pair!r}")
        flat[k] = z
    return flat.reshape(dim, dim)
