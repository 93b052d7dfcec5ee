"""Two-qubit kernel geometry: su(4) structure and the moduli bundle.

The traceless part of any two-qubit operator lives in the span of the 15
Pauli tensor products sigma_mu x sigma_nu.  This module fixes the
associated su(4) generator basis, splits it into two commuting su(2)
triples, two abelian 3-planes and a maximal torus, and builds the
machinery that turns the composite admissibility constraints into a bundle
of a unit 2-sphere and two ellipsoids over the abelian group factor: the
adjoint 15x15 rotation, the ellipsoid matrices, the roots of their
characteristic cubics, and a closed-form solver (conic pencil, line pairs)
for the points where sphere and both ellipsoids meet.  The Fano block
norms of a two-qubit kernel and the convention audit live in
:mod:`swphase.reports`.

Closed forms
------------
Each abelian 3-plane (A, A' and the torus) is spanned by three commuting
Pauli products whose product is the identity: the Cartan (KAK) structure
of SU(4) (Khaneja & Glaser, Chem. Phys. 267, 2001).  The three share a
fixed eigenframe V with entries 0, +-1/2, +-i/2 (V = I on the torus), so
V V^dagger == I exactly and exp(sum_i p_i l_i) = V diag(exp((i/2) p . S))
V^dagger with a +-1 sign table S.  The twisted block K_TWISTED is two
commuting triples of pairwise anticommuting signed Pauli products, so
x = sum_i k_i K_i over one triple squares to -(|k|/2)^2 I and
exp(x) = cos(|k|/2) I + sin(|k|/2)/(|k|/2) x (Rodrigues).  No factor of
:func:`kak_element` needs an eigensolver.  The adjoint map is
O = L^dagger (a kron conj(a)) L, with L the flattened generators.

Batch axes
----------
The abelian factor, the adjoint map and the ellipsoid matrices take a
leading batch axis: parameters (..., 3) give factors (..., 4, 4), adjoint
matrices (..., 15, 15) and a :class:`QuadricTriple` of stacks (..., 3, 3).
Every check runs on every matrix of a stack and its error names the first
failing stack index.  :func:`moduli_scan` runs these stages once per chunk
of ``SCAN_CHUNK`` records; only the ragged per-record work (pencil roots,
the solver) runs record by record, and :func:`moduli_record` is the
batch-of-one case of the same pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    _check_each,
    _check_hermitian,
    _check_unitary,
)
from .kernel import SWKernel

__all__ = [
    "KERNEL_COEFF",
    "SIGMA",
    "FANO_ORDER",
    "LAMBDA",
    "LOCAL_A",
    "LOCAL_B",
    "A_PLANE",
    "A_PRIME_PLANE",
    "TORUS",
    "K_TWISTED",
    "KakElement",
    "abelian_factor",
    "kak_element",
    "adjoint_matrix",
    "QuadricTriple",
    "ellipsoid_matrices",
    "char_cubic_roots",
    "kernel_from_moduli",
    "FeasibilityResult",
    "MATRIX_LEVEL",
    "moduli_feasibility",
    "isotropy_dim",
    "ScanRecord",
    "SCAN_CHUNK",
    "moduli_record",
    "moduli_scan",
    "SCAN_CSV_COLUMNS",
    "scan_record_row",
    "scan_to_csv",
    "scan_to_json",
]

KERNEL_COEFF = np.sqrt(30.0) / 4.0

PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

# Listing order of the 15 traceless Fano labels (mu, nu); entry m hosts
# generator number m + 1.
FANO_ORDER = (
    (1, 0), (2, 0), (3, 0),
    (0, 1), (0, 2), (0, 3),
    (1, 1), (1, 2), (1, 3),
    (2, 1), (2, 2), (2, 3),
    (3, 1), (3, 2), (3, 3),
)

SIGMA = np.stack([np.kron(PAULI[m], PAULI[n]) for m, n in FANO_ORDER])

# The su(4) generators (i/2) sigma_{mu nu}, -tr(l_i l_j) = delta_ij, and
# their subalgebra split as zero-based rows of LAMBDA; the comments give the
# one-based generator numbers.  The arrays are shared and read-only.
LAMBDA = 0.5j * SIGMA
LOCAL_A = (0, 1, 2)            # 1, 2, 3: sigma_10, sigma_20, sigma_30
LOCAL_B = (3, 4, 5)            # 4, 5, 6: sigma_01, sigma_02, sigma_03
A_PLANE = (10, 8, 12)          # 11, 9, 13
A_PRIME_PLANE = (3, 0, 6)      # 4, 1, 7
TORUS = (2, 5, 14)             # 3, 6, 15: sigma_30, sigma_03, sigma_33
# The twisted su(2) + su(2), -l14, l2, -l8, -l5, l12, -l10: the signs make
# its two triples close among themselves.
K_TWISTED = (np.array([-1, 1, -1, -1, 1, -1], dtype=complex)[:, None, None]
             * LAMBDA[[13, 1, 7, 4, 11, 9]])
# The sign table S of the closed forms (module docstring); the third row is
# the product of the first two.
_PLANE_SIGNS = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float)


def _joint_frame(plane) -> np.ndarray:
    """The frame V of an abelian plane: V^dagger sigma_i V = diag(_PLANE_SIGNS[i]).

    Column k is a column of the joint projector (I + s1 sigma_1)(I + s2 sigma_2)/4
    with (s1, s2) = _PLANE_SIGNS[:2, k], divided by the square root of its
    diagonal entry (1/4, or 1 on the torus), so the entries are 0, +-1/2,
    +-i/2 or 1 and V V^dagger == I holds exactly in floating point.
    """
    cols = []
    for s1, s2 in _PLANE_SIGNS[:2].T:
        proj = (np.eye(4) + s1 * SIGMA[plane[0]]) @ (np.eye(4) + s2 * SIGMA[plane[1]]) / 4.0
        j = np.argmax(proj.diagonal().real)
        cols.append(proj[:, j] / np.sqrt(proj[j, j].real))
    return np.stack(cols, axis=1)


# The frame V of A_PLANE, A_PRIME_PLANE and TORUS (where V = I).
_PLANE_FRAMES = {plane: _joint_frame(plane) for plane in (A_PLANE, A_PRIME_PLANE, TORUS)}
# L and L^dagger of adjoint_matrix: column n of L is l_n flattened row-major.
_LAMBDA_COLS = LAMBDA.reshape(15, 16).T.copy()
_LAMBDA_ROWS_H = LAMBDA.reshape(15, 16).conj()
for _shared in (PAULI, SIGMA, LAMBDA, K_TWISTED, _PLANE_SIGNS, _LAMBDA_COLS, _LAMBDA_ROWS_H,
                *_PLANE_FRAMES.values()):
    _shared.flags.writeable = False


@dataclass(frozen=True)
class KakElement:
    """Group element factored as g = K * A * T.

    K exponentiates the twisted su(2)+su(2) block, A is the ordered product
    exp(a-block) exp(a'-block) of the two abelian 3-planes, T lies in the
    maximal torus.  All factors are special unitary.
    """

    k_params: np.ndarray
    a_params: np.ndarray
    a_prime_params: np.ndarray
    t_params: np.ndarray
    factor_k: np.ndarray
    factor_a: np.ndarray
    factor_t: np.ndarray

    @property
    def g(self) -> np.ndarray:
        return self.factor_k @ self.factor_a @ self.factor_t


def _plane_exp(params, plane) -> np.ndarray:
    """exp(sum_i params[..., i] LAMBDA[plane[i]]) over an abelian plane, batched.

    ``plane`` is A_PLANE, A_PRIME_PLANE or TORUS; parameters (..., 3) give
    (..., 4, 4).  Closed form in the plane's exact eigenframe, no eigensolver.
    """
    v = _PLANE_FRAMES[plane]
    phases = np.exp(0.5j * (np.asarray(params, dtype=float) @ _PLANE_SIGNS))
    return (v * phases[..., None, :]) @ v.conj().T


def _triple_exp(params, triple) -> np.ndarray:
    """exp(sum_i params[i] triple[i]) for a triple of K_TWISTED, in Rodrigues form.

    The sum squares to -(|params|/2)^2 I; np.sinc(t / pi) = sin(t) / t is 1 at t = 0.
    """
    half = math.hypot(*params) / 2.0
    x = np.einsum("i,iab->ab", params, triple)
    return math.cos(half) * np.eye(4) + np.sinc(half / math.pi) * x


def abelian_factor(a_params, a_prime_params) -> np.ndarray:
    """The abelian factor exp(a) exp(a') of :func:`kak_element`, batched.

    Parameters of shape (..., 3) give factors of shape (..., 4, 4).  Each
    exponential is V diag(phases) V^dagger in its plane's common eigenframe,
    whose entries are 0, +-1/2 and +-i/2, so the factors are exactly the
    identity at the origin.  The order is exactly exp(a) exp(a'): the two do
    not commute with each other even though each 3-plane is abelian.
    """
    return _plane_exp(a_params, A_PLANE) @ _plane_exp(a_prime_params, A_PRIME_PLANE)


def kak_element(k_params, a_params, a_prime_params, t_params) -> KakElement:
    """Build the factored group element from real coordinates.

    ``k_params`` has length 6, the others length 3, all finite.  The A factor
    is :func:`abelian_factor`, the diagonal torus factor has the same closed
    form, and the K factor is the product of the Rodrigues forms of the two
    commuting triples of K_TWISTED.
    """
    k_params = np.asarray(k_params, dtype=float)
    a_params = np.asarray(a_params, dtype=float)
    a_prime_params = np.asarray(a_prime_params, dtype=float)
    t_params = np.asarray(t_params, dtype=float)
    if k_params.shape != (6,) or a_params.shape != (3,) \
            or a_prime_params.shape != (3,) or t_params.shape != (3,):
        raise ValueError("expected parameter shapes (6,), (3,), (3,), (3,)")
    if not np.isfinite(np.concatenate([k_params, a_params, a_prime_params, t_params])).all():
        raise ValueError("KAK parameters must be finite")
    factor_k = _triple_exp(k_params[:3], K_TWISTED[:3]) @ _triple_exp(k_params[3:], K_TWISTED[3:])
    factor_a = abelian_factor(a_params, a_prime_params)
    factor_t = _plane_exp(t_params, TORUS)
    return KakElement(k_params, a_params, a_prime_params, t_params,
                      factor_k, factor_a, factor_t)


def adjoint_matrix(a) -> np.ndarray:
    """Adjoint action of a unitary on the generator basis, as a real 15x15 matrix.

    Entries O[m, n] = -tr(a l_n a^dagger l_m), i.e. column n holds the
    coordinates of a l_n a^dagger, so coefficient vectors transform as
    x -> O x and adjoint(a1 a2) = adjoint(a1) adjoint(a2).  O is orthogonal.
    With L the 16x15 matrix whose columns are the flattened generators this
    is O = L^dagger (a kron conj(a)) L: the first product is one GEMM over the
    whole stack.  A stack of unitaries (..., 4, 4) gives a stack (..., 15, 15).
    """
    am = np.asarray(a, dtype=complex)
    if am.ndim < 2 or am.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 unitary or a stack of them, got shape {am.shape}")
    _check_unitary(am)
    # Rows (..., i, l), columns (j, k): a[i, j] conj(a[l, k]).
    kron = (am[..., :, None, :, None] * am.conj()[..., None, :, None, :]).reshape(-1, 16)
    o = _LAMBDA_ROWS_H @ (kron @ _LAMBDA_COLS).reshape(am.shape[:-2] + (16, 15))
    _check_each(np.abs(o.imag).max(axis=(-2, -1)) > 1e-12, "adjoint matrix came out non-real")
    o = o.real
    _check_each(np.linalg.norm(o @ o.swapaxes(-1, -2) - np.eye(15), axis=(-2, -1)) > 1e-11,
                "adjoint matrix is not orthogonal")
    return o


# Eigenvalue floor below which a quadric counts as rank-deficient: the
# pencil det(t A + B) goes through the polynomial fallback and the record is
# labelled degenerate.
_COND_FLOOR = 1e-8


@dataclass(frozen=True, slots=True)
class QuadricTriple:
    """Ellipsoid matrices of the moduli bundle over torus coordinates.

    ``a`` and ``b`` are symmetric positive-semidefinite 3x3 matrices with
    eigenvalues <= 4/3; together with the unit sphere they define the
    admissibility locus in the torus coordinates (mu3, mu6, mu15).  They
    may also be stacks (..., 3, 3) of equal shape, one pair per record;
    indexing the triple gives the pair of one record.  ``eig_a`` and
    ``eig_b`` hold the ascending eigenvalues, computed once by the
    positive-semidefinite check; -eig_a and -eig_b are the roots of
    det(t I + A) and det(t I + B).  ``rank_a`` and ``rank_b`` count the
    eigenvalues above ``_COND_FLOOR``, one count per pair.  Every entry must
    be finite.  The checks run in order of kind (shape, finite, symmetric,
    positive semidefinite), each once on ``a`` and ``b`` stacked; the first
    kind that fails is reported, on ``a`` before ``b``.
    """

    a: np.ndarray
    b: np.ndarray
    eig_a: np.ndarray = field(init=False, repr=False, compare=False)
    eig_b: np.ndarray = field(init=False, repr=False, compare=False)
    rank_a: np.ndarray = field(init=False, repr=False, compare=False)
    rank_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pair = (np.asarray(self.a, dtype=float), np.asarray(self.b, dtype=float))
        for name, arr in zip("ab", pair):
            if arr.ndim < 2 or arr.shape[-2:] != (3, 3):
                raise ValueError(f"{name} must be 3x3 or a stack of 3x3 matrices")
        if pair[0].shape != pair[1].shape:
            raise ValueError(f"a and b stacks differ in shape: {pair[0].shape} vs {pair[1].shape}")
        ab = np.stack(pair)
        _check_pair(~np.isfinite(ab).all(axis=(-2, -1)), "has a non-finite entry")
        _check_pair(np.linalg.norm(ab - ab.swapaxes(-1, -2), axis=(-2, -1)) > 1e-13,
                    "is not symmetric")
        eig = np.linalg.eigvalsh(ab)
        _check_pair(eig[..., 0] < -1e-10, "is not positive semidefinite")
        rank = np.count_nonzero(eig > _COND_FLOOR, axis=-1)
        for name, arr, eig_k, rank_k in zip("ab", pair, eig, rank):
            object.__setattr__(self, name, arr)
            object.__setattr__(self, f"eig_{name}", eig_k)
            object.__setattr__(self, f"rank_{name}", rank_k)

    def __getitem__(self, index) -> QuadricTriple:
        """The pair of one record of a stack (or a sub-stack), checked with it."""
        if self.a.ndim == 2:
            raise TypeError("a single quadric pair has no records to index")
        part = object.__new__(QuadricTriple)
        for name in ("a", "b", "eig_a", "eig_b", "rank_a", "rank_b"):
            object.__setattr__(part, name, getattr(self, name)[index])
        return part


def _check_pair(bad: np.ndarray, message: str) -> None:
    """:func:`_check_each` on ``a`` then ``b`` of a stacked check (2, ...)."""
    if bad.any():
        for name, bad_k in zip("ab", bad):
            _check_each(bad_k, f"{name} {message}")


# The sub-blocks S of O behind A and B, stacked: local rows, torus columns.
_QUADRIC_BLOCKS = (...,) + np.ix_(LOCAL_A + LOCAL_B, TORUS)


def ellipsoid_matrices(o) -> QuadricTriple:
    """Ellipsoid matrices from the adjoint rotation.

    With S the sub-block of O taking torus coordinates (generator numbers
    3, 6, 15, in that order) to the A-local coordinates (numbers 1..3),
    A := (4/3) S^T S; B likewise over the B-local rows (numbers 4..6).
    Entry [alpha, beta] is (4/3) times the A-local overlap of the rotated
    torus directions alpha and beta.  A stack (..., 15, 15) gives a triple
    of stacks (..., 3, 3).
    """
    om = np.asarray(o, dtype=float)
    if om.ndim < 2 or om.shape[-2:] != (15, 15):
        raise ValueError(f"expected a 15x15 adjoint matrix or a stack of them, got shape {om.shape}")
    sub = om[_QUADRIC_BLOCKS].reshape(om.shape[:-2] + (2, 3, 3))
    q = (4.0 / 3.0) * (sub.swapaxes(-1, -2) @ sub)
    q = (q + q.swapaxes(-1, -2)) / 2.0
    return QuadricTriple(a=q[..., 0, :, :], b=q[..., 1, :, :])


def _det_poly_roots(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Finite roots of det(t qa + qb) via exact cubic interpolation."""
    ts = np.array([-2.0, -1.0, 0.0, 1.0])
    vals = np.array([np.linalg.det(t * qa + qb) for t in ts])
    coeffs = np.linalg.solve(np.vander(ts, 4), vals)
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return np.array([], dtype=complex)
    trimmed = np.trim_zeros(np.where(np.abs(coeffs) > 1e-12 * scale, coeffs, 0.0), "f")
    if trimmed.size < 2:
        return np.array([], dtype=complex)
    return np.roots(trimmed)


def char_cubic_roots(q: QuadricTriple) -> np.ndarray:
    """Roots of det(t A + B) for a single quadric pair.

    Solved through the symmetric-definite pencil when A has full rank
    (``q.rank_a == 3``); otherwise a direct polynomial fallback reports the
    finite roots.  For positive-semidefinite A and B no root is positive.
    The roots of det(t I + A) and det(t I + B) are -q.eig_a and -q.eig_b.
    """
    if q.a.ndim != 2:
        raise ValueError("char_cubic_roots takes one quadric pair; index the stack first")
    if q.rank_a < 3:
        return _det_poly_roots(q.a, q.b)
    # The LAPACK routine scipy.linalg.eigh(q.b, q.a, eigvals_only=True) calls.
    gen, _, info = scipy.linalg.lapack.dsygvd(q.b, q.a, jobz="N")
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eigenproblem failed (dsygvd info {info})")
    return (-gen).astype(complex)


def kernel_from_moduli(u, mu) -> SWKernel:
    """Two-qubit kernel from a unitary and a unit vector of torus coordinates.

    4 Delta = U (I + sqrt(15) (mu_1 sigma_30 + mu_2 sigma_03
    + mu_3 sigma_33)) U^dagger.  The sqrt(15) scale is the HS2-pinned
    rewrite of the sqrt(30)-scaled generator expansion over plain Pauli
    products; it is the unique scale for which unit-sphere mu gives
    purity exactly 4.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (3,):
        raise ValueError("mu must be a real 3-vector")
    if not abs(np.linalg.norm(mu) - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"mu must be a unit vector, got norm {np.linalg.norm(mu)}")
    um = as_complex_matrix(u)
    if um.shape[0] != 4:
        raise ValueError("expected a 4x4 unitary")
    _check_unitary(um)
    s1, s2, s3 = SIGMA[list(TORUS)]
    core = np.eye(4, dtype=complex) + np.sqrt(15.0) * (mu[0] * s1 + mu[1] * s2 + mu[2] * s3)
    mat = (um @ core @ um.conj().T) / 4.0
    mat = (mat + mat.conj().T) / 2.0
    return SWKernel(mat, 4)


@dataclass(frozen=True)
class FeasibilityResult:
    """Solutions of the sphere-plus-two-ellipsoids system, with the verdict.

    ``classification`` is "degenerate" when A or B has rank below 3
    (:attr:`QuadricTriple.rank_a`, :attr:`QuadricTriple.rank_b`); otherwise
    "feasible" when solutions were found and "empty" when none were.
    """

    solutions: list
    classification: str

    @property
    def n_solutions(self) -> int:
        return len(self.solutions)


# Right-hand side of the ellipsoid equations that reproduces the
# matrix-level reduction constraints exactly: with A = (4/3) S^T S the
# subsystem purity condition reads mu A mu^T = 4/15, not 1 (the 4/3-scaled
# bundle with unit level is infeasible outright, since A + B <= (4/3) I
# forces mu A mu^T + mu B mu^T <= 4/3 < 2 on the sphere).
MATRIX_LEVEL = 4.0 / 15.0

# A polished point is a solution when both ellipsoid residuals are at most
# _RESIDUAL_TOL; points closer than _DEDUP_TOL count once.
_RESIDUAL_TOL = 1e-10
_DEDUP_TOL = 1e-8


def moduli_feasibility(q: QuadricTriple, level: float = 1.0) -> FeasibilityResult:
    """Solve mu mu^T = 1, mu A mu^T = level, mu B mu^T = level in closed form.

    Solutions are the real common points of the conics C_A = A - level I and
    C_B = B - level I in the projective plane, each an antipodal pair on the
    sphere, at most 4 pairs (Bezout): a real degenerate member of the pencil
    C_A + t C_B splits into two lines, and each line meets a conic at the
    roots of a 2x2 quadratic form.  Points get two Newton steps on the
    square 3x3 system and are kept, both antipodes, when their residuals are
    at most ``_RESIDUAL_TOL`` (points within ``_DEDUP_TOL`` count once).
    No solution exists, and none is sought, when ``level`` is outside the
    eigenvalue range of A or of B, or above lambda_max(A + B) / 2.  A
    degenerate pencil (A = B, a null direction shared by C_A and C_B, or a
    zero conic, A or B equal to level I), whose solutions can form a curve,
    raises ValueError, as does a ``level`` that is not positive and finite.

    The pencil roots come from one direct LAPACK ``dggev`` call; its input
    is finite because :class:`QuadricTriple` rejects non-finite entries.
    The line pairs are split on Python floats, and the Newton steps, the
    residuals and the dedup distances take one array product each over all
    candidate points.

    The default ``level`` is the quoted unit normalization; pass
    ``MATRIX_LEVEL`` to solve the system equivalent to the matrix-level
    subsystem purity conditions (solutions then generate
    composite-admissible kernels through :func:`kernel_from_moduli`).
    """
    if not (level > 0.0 and math.isfinite(level)):
        raise ValueError(f"level must be positive and finite, got {level!r}")
    if not _level_reachable(q, level):
        return _feasibility_result(q, [])
    eye = np.eye(3)
    mus = _conic_intersection(q.a - level * eye, q.b - level * eye)
    if not len(mus):
        return _feasibility_result(q, [])
    # Row k of grad[p] is form k of [I | A | B] applied to mu_p.
    forms = np.concatenate([eye, q.a, q.b], axis=1)
    target = np.array([[1.0], [level], [level]])
    for _ in range(2):
        grad = (mus @ forms).reshape(-1, 3, 3)
        f = grad @ mus[:, :, None] - target
        ok = np.linalg.det(grad) != 0.0  # exactly singular at structured tangencies
        mus[ok] -= 0.5 * np.linalg.solve(grad[ok], f[ok])[..., 0]
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    values = (mus @ forms[:, 3:]).reshape(-1, 2, 3) @ mus[:, :, None]
    good = mus[np.abs(values[..., 0] - level).max(axis=1) <= _RESIDUAL_TOL]
    # Distances from each point to every point, then to every antipode.
    n = len(good)
    dist = np.linalg.norm(good[:, None] - np.concatenate([good, -good]), axis=-1).tolist()
    kept: list[int] = []
    for i, row in enumerate(dist):
        if all(row[j] > _DEDUP_TOL and row[j + n] > _DEDUP_TOL for j in kept):
            kept.append(i)
    return _feasibility_result(q, [mu for i in kept for mu in (good[i], -good[i])])


def _feasibility_result(q: QuadricTriple, solutions: list) -> FeasibilityResult:
    """The solutions of one pair with their label (see :class:`FeasibilityResult`)."""
    if min(q.rank_a, q.rank_b) < 3:
        label = "degenerate"
    else:
        label = "feasible" if solutions else "empty"
    return FeasibilityResult(solutions=solutions, classification=label)


def _level_reachable(q: QuadricTriple, level: float) -> np.ndarray:
    """The early exit of :func:`moduli_feasibility`, per pair of a stack.

    False where mu A mu = mu B mu = level provably has no solution on the
    unit sphere: level outside the eigenvalue range of A or of B, or above
    lambda_max(A + B) / 2.
    """
    top = np.linalg.eigvalsh(q.a + q.b)[..., -1]
    return ((q.eig_a[..., 0] <= level) & (level <= q.eig_a[..., -1])
            & (q.eig_b[..., 0] <= level) & (level <= q.eig_b[..., -1])
            & (top >= 2.0 * level))


def _conic_intersection(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Unit candidates (m, 3), m <= 4, for the real common points of two conics.

    The entries must be finite: the pencil roots come straight from LAPACK's
    ``dggev`` (the routine behind ``scipy.linalg.eigvals``), which does not
    check its input.  A zero conic (A or B equal to level I) makes the
    pencil degenerate and raises ValueError, as does any degenerate pencil.
    """
    norm_a, norm_b = np.linalg.norm(ca), np.linalg.norm(cb)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("degenerate pencil: C_A or C_B is zero (A or B equals level I)")
    ca, cb = ca / norm_a, cb / norm_b
    wedge = np.outer(ca, cb)
    # Roots t = alpha / beta of det(ca + t cb), t = inf too, from ca v = t (-cb) v.
    alpha_re, alpha_im, beta, _, _, _, info = scipy.linalg.lapack.dggev(
        ca, -cb, compute_vl=0, compute_vr=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"generalized eigenproblem failed (dggev info {info})")
    roots = list(zip(alpha_re.tolist(), alpha_im.tolist(), beta.tolist()))
    sizes = [max(math.hypot(a_re, a_im), abs(b)) for a_re, a_im, b in roots]
    if np.linalg.norm(wedge - wedge.T) <= 1e-12 or min(sizes) <= 1e-12:
        raise ValueError("degenerate pencil: C_A and C_B proportional or det(C_A + t C_B) == 0")
    xy = []
    for (a_re, a_im, b), size in zip(roots, sizes):
        if abs(a_im) <= 1e-8 * size:  # a real root: the member b ca + a_re cb
            h = math.sqrt(b * b + a_re * a_re)
            xy.append([b / h, a_re / h])
    xy = np.array(xy).reshape(-1, 2)
    w, v = np.linalg.eigh(xy[:, 0, None, None] * ca + xy[:, 1, None, None] * cb)
    # Split the indefinite member (a real line pair) with the best-separated
    # lines: the middle eigenvalue is the one nearest zero (the first on a tie)
    # and the others straddle it; the first best score wins.
    k, best, w = -1, -math.inf, w.tolist()
    for i, (w0, w1, w2) in enumerate(w):
        if abs(w1) < abs(w0) and abs(w1) <= abs(w2) and w0 < 0.0 < w2 and min(-w0, w2) > best:
            k, best = i, min(-w0, w2)
    if k < 0:  # no real line pair: complex contact (or 4-fold, unresolved)
        return np.zeros((0, 3))
    # On the member x ca + y cb, cb = 0 implies ca = 0 when x != 0, and vice versa.
    x, y = xy[k].tolist()
    other = cb if abs(x) >= abs(y) else ca
    lo, hi = math.sqrt(-w[k][0]), math.sqrt(w[k][2])
    h = math.hypot(lo, hi)
    lo, hi = lo / h, hi / h
    # Rows v1, e+, e-: the line hi (v2 . mu) = sign lo (v0 . mu) is spanned by
    # v1 and e = lo v2 + sign hi v0, so the rows span both lines.
    basis = np.array([[0.0, 1.0, 0.0], [hi, 0.0, lo], [-hi, 0.0, lo]]) @ v[k].T
    (p, c_plus, c_minus), (_, r_plus, _), (_, _, r_minus) = (basis @ other @ basis.T).tolist()
    coeffs = []
    for j, c, r in ((1, c_plus, r_plus), (2, c_minus, r_minus)):
        disc = c * c - p * r
        if disc >= -1e-10 * (p * p + c * c + r * r):  # tangent up to roundoff: keep
            s = -(c + math.copysign(math.sqrt(max(disc, 0.0)), c))
            for u, t in ((s, p), (r, s)):
                if u or t:  # the unit point (u v1 + t e) / hypot(u, t): v1 is normal to e
                    h = math.hypot(u, t)
                    coeffs.append([u / h, t / h, 0.0] if j == 1 else [u / h, 0.0, t / h])
    return np.array(coeffs).reshape(-1, 3) @ basis


_ISOTROPY_SPANS = {"lu_local": LAMBDA[list(LOCAL_A + LOCAL_B)], "full_su4": LAMBDA,
                   "k_twisted": K_TWISTED}


def isotropy_dim(delta, algebra: str = "lu_local") -> int:
    """Dimension of the subalgebra commuting with a Hermitian matrix.

    Builds X -> [X, delta] on the chosen generator span (6-dimensional
    local block, full 15-dimensional algebra, or the twisted 6-dimensional
    su(2)+su(2)) and counts singular values below 1e-9.  The orbit
    (phase-space) dimension is dim(algebra) minus this number.
    """
    m = as_complex_matrix(delta)
    if m.shape[0] != 4:
        raise ValueError("expected a 4x4 matrix")
    _check_hermitian(m)
    gens = _ISOTROPY_SPANS.get(algebra)
    if gens is None:
        raise ValueError(f"algebra must be one of {tuple(_ISOTROPY_SPANS)}")
    comm = gens @ m - m @ gens
    flat = comm.reshape(len(gens), -1)
    stacked = np.concatenate([flat.real, flat.imag], axis=1)
    svals = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(svals < 1e-9))


@dataclass(frozen=True)
class ScanRecord:
    """One moduli-scan draw: abelian parameters, quadrics, their pencil roots, solutions."""

    record_index: int
    a_params: np.ndarray
    a_prime_params: np.ndarray
    quadrics: QuadricTriple
    roots_ab: np.ndarray
    feasibility: FeasibilityResult

    @property
    def classification(self) -> str:
        return self.feasibility.classification

    @property
    def n_solutions(self) -> int:
        return self.feasibility.n_solutions


# Records per batched pass of moduli_scan.  The stacks of one pass take a
# few MB, so peak memory does not grow with the chunk count.
SCAN_CHUNK = 256


def _moduli_records(first_index: int, a_params: np.ndarray, a_prime_params: np.ndarray,
                    solve: bool) -> list:
    """Records for stacked parameter rows (m, 3), numbered from ``first_index``.

    The abelian factor, adjoint map, ellipsoid matrices, their eigenvalues
    and the early-exit test of :func:`moduli_feasibility` (at its default
    level) run once over the stack; pencil roots and the solver run per
    record, the solver only where the early exit does not settle it.
    """
    q = ellipsoid_matrices(adjoint_matrix(abelian_factor(a_params, a_prime_params)))
    reachable = _level_reachable(q, 1.0) if solve else np.zeros(len(a_params), dtype=bool)
    records = []
    for k, reach in enumerate(reachable):
        qk = q[k]
        feas = moduli_feasibility(qk) if reach else _feasibility_result(qk, [])
        records.append(ScanRecord(first_index + k, a_params[k], a_prime_params[k],
                                  qk, char_cubic_roots(qk), feas))
    return records


def moduli_record(record_index: int, a_params, a_prime_params,
                  solve: bool = True) -> ScanRecord:
    """Evaluate one moduli point: the batch-of-one case of :func:`moduli_scan`.

    ``solve=False`` skips the solver for callers that need only the
    quadrics and roots; the record then holds no solutions, and its label
    is not a verdict.
    """
    a = np.asarray(a_params, dtype=float)
    ap = np.asarray(a_prime_params, dtype=float)
    if a.shape != (3,) or ap.shape != (3,):
        raise ValueError("expected parameter shapes (3,), (3,)")
    return _moduli_records(record_index, a[None], ap[None], solve)[0]


def moduli_scan(n: int, seed, ranges=(-np.pi, np.pi),
                zero_params: bool = False) -> list:
    """Random scan of the moduli bundle.

    Each record draws the two abelian parameter triples uniformly from
    ``ranges`` using a child seed spawned from (seed, record index), so the
    scan is reproducible and a record does not depend on ``n``.
    ``zero_params`` pins every draw to the origin instead.  Records are
    evaluated ``SCAN_CHUNK`` at a time, each stage once over the chunk, and
    equal :func:`moduli_record` of the same parameters bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = float(ranges[0]), float(ranges[1])
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError(f"ranges must satisfy lo < hi with hi - lo finite, got {lo!r},{hi!r}")
    children = np.random.SeedSequence(seed).spawn(n)
    records = []
    for start in range(0, n, SCAN_CHUNK):
        chunk = children[start:start + SCAN_CHUNK]
        if zero_params:
            draws = np.zeros((len(chunk), 2, 3))
        else:
            draws = np.array([[rng.uniform(lo, hi, 3), rng.uniform(lo, hi, 3)]
                              for rng in map(np.random.default_rng, chunk)])
        records += _moduli_records(start, draws[:, 0], draws[:, 1], solve=True)
    return records


SCAN_CSV_COLUMNS = (
    "record_index", "a1", "a2", "a3", "ap1", "ap2", "ap3",
    "rank_A", "rank_B",
    "eigA1", "eigA2", "eigA3", "eigB1", "eigB2", "eigB3",
    "rootsAB", "classification", "n_solutions", "solutions",
)


def _fmt_root(r: complex) -> str:
    if abs(r.imag) < 1e-12:
        return repr(r.real)
    return repr(r)


def scan_record_row(rec: ScanRecord) -> list:
    """One CSV row; each array goes to Python floats once, whose repr round-trips."""
    q = rec.quadrics
    params = rec.a_params.tolist() + rec.a_prime_params.tolist()
    eigs = q.eig_a[::-1].tolist() + q.eig_b[::-1].tolist()
    roots_ab = ";".join(map(_fmt_root, rec.roots_ab.tolist()))
    sols = ";".join(" ".join(map(repr, s.tolist())) for s in rec.feasibility.solutions)
    return [rec.record_index, *map(repr, params), q.rank_a, q.rank_b,
            *map(repr, eigs), roots_ab, rec.classification, rec.n_solutions, sols]


def scan_to_csv(records, stream):
    """Write scan records as CSV with the fixed column contract."""
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SCAN_CSV_COLUMNS)
    for rec in records:
        writer.writerow(scan_record_row(rec))


def scan_to_json(records) -> list:
    """JSON mirror of the CSV dataset (same fields, structured values)."""
    out = []
    for rec in records:
        q = rec.quadrics
        out.append({
            "record_index": rec.record_index,
            "a_params": rec.a_params.tolist(),
            "ap_params": rec.a_prime_params.tolist(),
            "rank_A": int(q.rank_a),
            "rank_B": int(q.rank_b),
            "eig_A": q.eig_a[::-1].tolist(),
            "eig_B": q.eig_b[::-1].tolist(),
            "roots_AB": [[r.real, r.imag] for r in rec.roots_ab.tolist()],
            "classification": rec.classification,
            "n_solutions": rec.n_solutions,
            "solutions": [s.tolist() for s in rec.feasibility.solutions],
        })
    return out
