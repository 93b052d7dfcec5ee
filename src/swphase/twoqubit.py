"""Two-qubit kernel geometry: su(4) structure and the moduli bundle.

The traceless part of any two-qubit operator lives in the span of the 15
Pauli tensor products sigma_mu x sigma_nu.  This module fixes the
associated su(4) generator basis, splits it into two commuting su(2)
triples, two abelian 3-planes and a maximal torus, and builds the
machinery that turns the composite admissibility constraints into a bundle
of a unit 2-sphere and two ellipsoids over the abelian group factor: the
ellipsoid matrices of each fibre, the roots of det(t A + B) from the
symmetric-definite pencil (A, A + B), and a closed-form solver (conic
pencil, line pairs) for the points where sphere and both ellipsoids meet.
The Fano block norms of a two-qubit kernel, the isotropy dimension and the
convention audit live in :mod:`swphase.reports`.

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
:func:`kak_element` needs an eigensolver.

The fibre over g = exp(a) exp(a') carries A = (4/3) S_A^T S_A and
B = (4/3) S_B^T S_B, with S_A and S_B the blocks of the adjoint action
O[m, n] = -tr(g l_n g^dagger l_m) that take the torus (sigma_30, sigma_03,
sigma_33 = diag(S[alpha])) to the local products sigma_M of each qubit.
Their entries are (1/4) sum_j S[alpha, j] T[M, j] with
T[M, j] = (g^dagger sigma_M g)[j, j].  With p and p' the phases of the two
planes, T is bilinear in the phase products conj(p) x p and conj(p') x p'
with a constant 16 x 24 x 16 coefficient array, so
:func:`abelian_quadrics` takes the 24 numbers T of a record to its quadric
pair with neither g nor the 15x15 adjoint map built.

Batch axes
----------
:func:`abelian_factor` and :func:`abelian_quadrics` take leading batch
axes: parameters (..., 3) give factors (..., 4, 4) and a
:class:`QuadricTriple` of stacks (..., 3, 3).  Every check runs on every
record of a stack and its error names the first failing stack index.  The
scan's chunk pipeline builds the quadric pairs of a chunk of
``SCAN_CHUNK`` records in one :func:`abelian_quadrics` call, for
:func:`moduli_scan` and the writers :func:`scan_to_csv` and
:func:`scan_to_json`.  Its contractions run record by record inside one
stacked product, so a record's bits do not depend on the chunk.  Only the
closed-form pencil matrices, the roots and the solver run record by
record in Python, and :func:`moduli_record` is the batch-of-one case of
the same pipeline.

Scan draws
----------
Record i of a scan draws ``default_rng(child i of SeedSequence(seed))
.uniform(lo, hi, 6)``, so a record does not depend on ``n``.  numpy's
construction is the reference, and the chunk pipeline derives the same
doubles for a whole chunk at once (:func:`_child_states`): child i's pool is
the parent's pool with the spawn key i mixed into each word by numpy's
SeedSequence hash, and its ``generate_state(4, uint64)`` is one more hash
of the pool, both as uint32 array arithmetic.  numpy's own PCG64, seeded
from those words, gives six raw outputs a record, and ``uniform`` is
lo + (hi - lo) * (raw >> 11) * 2**-53, as numpy computes it.

Dependencies
------------
The module needs numpy alone.  Its 3x3 eigenproblems go through
``numpy.linalg``: one stacked ``eigvalsh`` call per :class:`QuadricTriple`
and, in the solver, one ``eigvals`` call for the conic pencil and one
``eigh`` call for its singular members.  The Cholesky reduction of the
definite pencil and the adjugate of the conic pencil's member are closed
forms on Python floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    _check_each,
    _check_unitary,
    _frobenius,
)
from .kernel import SWKernel, _orbit_kernel

__all__ = [
    "KERNEL_COEFF", "SIGMA", "FANO_ORDER", "LAMBDA", "LOCAL_A", "LOCAL_B",
    "A_PLANE", "A_PRIME_PLANE", "TORUS", "K_TWISTED",
    "KakElement", "abelian_factor", "kak_element",
    "QuadricTriple", "abelian_quadrics", "char_cubic_roots", "kernel_from_moduli",
    "FeasibilityResult", "MATRIX_LEVEL", "moduli_feasibility",
    "ScanRecord", "SCAN_CHUNK", "moduli_record", "moduli_scan",
    "SCAN_CSV_COLUMNS", "scan_to_csv", "scan_to_json",
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


# The frame V of A_PLANE, A_PRIME_PLANE and TORUS (where V = I), and V^dagger.
_PLANE_FRAMES = {plane: _joint_frame(plane) for plane in (A_PLANE, A_PRIME_PLANE, TORUS)}
_PLANE_FRAMES_H = {plane: v.conj().T for plane, v in _PLANE_FRAMES.items()}


def _phase_bilinear_constant() -> np.ndarray:
    """The constant K of :func:`abelian_quadrics`, shape (16, 24 * 16).

    With V, V' the frames of A_PLANE and A_PRIME_PLANE, W = V'^dagger V and
    N_M = V^dagger sigma_M V over the six local products M, the entry
    [(r, s), (M, j, t, u)] is V'[j, r] conj(V'[j, s]) W[r, t] N_M[t, u] conj(W[s, u]).
    """
    v, vp = _PLANE_FRAMES[A_PLANE], _PLANE_FRAMES[A_PRIME_PLANE]
    w = vp.conj().T @ v
    n = v.conj().T @ SIGMA[list(LOCAL_A + LOCAL_B)] @ v
    return np.einsum("jr,js,rt,Mtu,su->rsMjtu", vp, vp.conj(), w, n, w.conj()).reshape(16, 384)


_PHASE_BILINEAR = _phase_bilinear_constant()
# The torus signs S^T / 4: the adjoint blocks behind A and B are T @ _TORUS_COLUMNS.
_TORUS_COLUMNS = _PLANE_SIGNS.T / 4.0
for _shared in (PAULI, SIGMA, LAMBDA, K_TWISTED, _PLANE_SIGNS, _PHASE_BILINEAR, _TORUS_COLUMNS,
                *_PLANE_FRAMES.values(), *_PLANE_FRAMES_H.values()):
    _shared.flags.writeable = False


@dataclass(frozen=True, eq=False)
class KakElement:
    """Group element factored as g = K * A * T, built by :func:`kak_element`.

    K exponentiates the twisted su(2)+su(2) block, A is the ordered product
    exp(a-block) exp(a'-block) of the two abelian 3-planes, T lies in the
    maximal torus.  All factors are special unitary.
    """

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
    v, v_h = _PLANE_FRAMES[plane], _PLANE_FRAMES_H[plane]
    phases = np.exp(0.5j * (np.asarray(params, dtype=float) @ _PLANE_SIGNS))
    return (v * phases[..., None, :]) @ v_h


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
    not commute with each other even though each 3-plane is abelian.  Every
    parameter must be finite.
    """
    a, ap = np.asarray(a_params, dtype=float), np.asarray(a_prime_params, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(ap).all()):
        raise ValueError("abelian parameters must be finite")
    return _plane_exp(a, A_PLANE) @ _plane_exp(ap, A_PRIME_PLANE)


def kak_element(k, a, a_prime, t) -> KakElement:
    """Build the factored group element from real coordinates.

    ``k`` has length 6, the others length 3, all finite.  The A factor
    is :func:`abelian_factor`, the diagonal torus factor has the same closed
    form, and the K factor is the product of the Rodrigues forms of the two
    commuting triples of K_TWISTED.
    """
    k, a, a_prime, t = (np.asarray(x, dtype=float) for x in (k, a, a_prime, t))
    if k.shape != (6,) or a.shape != (3,) or a_prime.shape != (3,) or t.shape != (3,):
        raise ValueError("expected parameter shapes (6,), (3,), (3,), (3,)")
    if not np.isfinite(np.concatenate([k, a, a_prime, t])).all():
        raise ValueError("KAK parameters must be finite")
    factor_k = _triple_exp(k[:3], K_TWISTED[:3]) @ _triple_exp(k[3:], K_TWISTED[3:])
    factor_a = abelian_factor(a, a_prime)
    factor_t = _plane_exp(t, TORUS)
    return KakElement(factor_k, factor_a, factor_t)


# Eigenvalue floor below which a quadric counts as rank-deficient (the
# record is labelled degenerate), and below which A + B counts as singular
# (det(t A + B) vanishes for every t and no pencil root is reported).
_COND_FLOOR = 1e-8
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False
_EYE3_ROWS = _EYE3.tolist()
_PIVOT_FLOOR = _COND_FLOOR / 2.0


@dataclass(frozen=True, slots=True, eq=False)
class QuadricTriple:
    """Ellipsoid matrices of the moduli bundle over torus coordinates.

    ``a`` and ``b`` are symmetric positive-semidefinite 3x3 matrices with
    eigenvalues <= 4/3; together with the unit sphere they define the
    admissibility locus in the torus coordinates (mu3, mu6, mu15).  They
    may also be stacks (..., 3, 3) of equal shape, one pair per record;
    indexing the triple gives the pair of one record.  ``eig_a``, ``eig_b``
    and ``eig_ab`` hold the ascending eigenvalues of A, B and A + B,
    computed once, in one call, with the positive-semidefinite check;
    -eig_a and -eig_b are the roots of det(t I + A) and det(t I + B).
    ``eig_pencil`` holds, from the same call, the ascending eigenvalues of
    the symmetric-definite pencil (A, A + B), those of L^-1 A L^-T with
    A + B = L L^T (see :func:`char_cubic_roots`); they are meaningful only
    where ``eig_ab[..., 0]`` exceeds ``_COND_FLOOR``.
    ``rank_a`` and ``rank_b`` count the eigenvalues above ``_COND_FLOOR``,
    one count per pair.  Every entry must be finite.  The checks run in
    order of kind (shape, finite, symmetric, positive semidefinite), each
    once on ``a`` and ``b`` stacked; the first kind that fails is reported,
    on ``a`` before ``b``.
    """

    a: np.ndarray
    b: np.ndarray
    eig_a: np.ndarray = field(init=False, repr=False)
    eig_b: np.ndarray = field(init=False, repr=False)
    eig_ab: np.ndarray = field(init=False, repr=False)
    eig_pencil: np.ndarray = field(init=False, repr=False)
    rank_a: np.ndarray = field(init=False, repr=False)
    rank_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pair = (np.asarray(self.a, dtype=float), np.asarray(self.b, dtype=float))
        for name, arr in zip("ab", pair):
            if arr.ndim < 2 or arr.shape[-2:] != (3, 3):
                raise ValueError(f"{name} must be 3x3 or a stack of 3x3 matrices")
        if pair[0].shape != pair[1].shape:
            raise ValueError(f"a and b stacks differ in shape: {pair[0].shape} vs {pair[1].shape}")
        # A, B, A + B and the pencil matrices, stacked for one eigensolver call.
        quad = np.empty((4,) + pair[0].shape)
        quad[0], quad[1] = pair
        ab = quad[:2]
        _check_pair(~np.isfinite(ab).all(axis=(-2, -1)), "has a non-finite entry")
        _check_pair(_frobenius(ab - ab.swapaxes(-1, -2)) > 1e-13, "is not symmetric")
        c = np.add(*pair, out=quad[2])
        quad[3].reshape(-1, 3, 3)[...] = np.array([
            _cholesky_congruence(ak, ck)
            for ak, ck in zip(pair[0].reshape(-1, 3, 3).tolist(), c.reshape(-1, 3, 3).tolist())
        ]).reshape(-1, 3, 3)  # an empty list is an empty stack
        eig = np.linalg.eigvalsh(quad)
        eig, eig_ab, eig_pencil = eig[:2], eig[2], eig[3]
        _check_pair(eig[..., 0] < -1e-10, "is not positive semidefinite")
        rank = (eig > _COND_FLOOR).sum(axis=-1)
        object.__setattr__(self, "eig_ab", eig_ab)
        object.__setattr__(self, "eig_pencil", eig_pencil)
        for name, arr, eig_k, rank_k in zip("ab", pair, eig, rank):
            object.__setattr__(self, name, arr)
            object.__setattr__(self, f"eig_{name}", eig_k)
            object.__setattr__(self, f"rank_{name}", rank_k)

    def __getitem__(self, index) -> QuadricTriple:
        """The pair of one record of a stack (or a sub-stack), checked with it."""
        if self.a.ndim == 2:
            raise TypeError("a single quadric pair has no records to index")
        part = object.__new__(QuadricTriple)
        for name in ("a", "b", "eig_a", "eig_b", "eig_ab", "eig_pencil", "rank_a", "rank_b"):
            object.__setattr__(part, name, getattr(self, name)[index])
        return part


def _check_pair(bad: np.ndarray, message: str) -> None:
    """:func:`_check_each` on ``a`` then ``b`` of a stacked check (2, ...)."""
    if bad.any():
        for name, bad_k in zip("ab", bad):
            _check_each(bad_k, f"{name} {message}")


def abelian_quadrics(a_params, a_prime_params) -> QuadricTriple:
    """The quadric pair of the fibre over exp(a) exp(a'), batched, in closed form.

    Parameters of equal shape (..., 3) give a :class:`QuadricTriple` of
    stacks (..., 3, 3); shape (3,) gives one pair.  A = (4/3) S_A^T S_A and
    B = (4/3) S_B^T S_B, each symmetrized, where S is the local-by-torus
    block of the adjoint action of g = V diag(p) V^dagger V' diag(p') V'^dagger
    (module docstring): its diagonal T[M, j] = (g^dagger sigma_M g)[j, j] is
    T = F' K F with the phase products F = conj(p) x p, F' = conj(p') x p'
    and K of :func:`_phase_bilinear_constant`, and S = T @ ``_TORUS_COLUMNS``.
    The factor is exactly the identity at the origin, and so is that block:
    A = diag(4/3, 0, 0) and B = diag(0, 4/3, 0) bit for bit.  Each record
    is contracted on its own, (1, 16) @ K then (24, 16) @ (16, 1), so its
    bits do not depend on the batch; one GEMM over the stack would make
    them depend on it.  Checked, in order: the shapes, finite parameters,
    phases of unit modulus (``input is not unitary``, which also catches
    phase sums that overflow, without a warning), a real T, then every check
    of :class:`QuadricTriple`.

    Symmetries, up to roundoff: a_i -> a_i + pi leaves A and B unchanged, so
    the period in a is pi; a'_i -> a'_i + pi conjugates both by
    S_0 = diag(1, -1, -1), S_1 = diag(1, -1, 1) or S_2 = diag(1, 1, -1), so
    the solutions of :func:`moduli_feasibility` map by mu -> S_i mu; and
    (a, a') -> -(a, a') leaves them bit for bit.
    """
    a, ap = np.asarray(a_params, dtype=float), np.asarray(a_prime_params, dtype=float)
    if a.shape != ap.shape or a.shape[-1:] != (3,):
        raise ValueError(f"expected parameter stacks (..., 3) of equal shape, got {a.shape}"
                         f" and {ap.shape}")
    params = np.concatenate([a, ap], axis=-1)
    if not np.isfinite(params).all():
        raise ValueError("abelian parameters must be finite")
    batch = a.shape[:-1]
    params = params.reshape(-1, 2, 3)
    m = len(params)
    # An overflowing phase sum gives NaN phases, which the unitarity check reports.
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.exp(0.5j * (params @ _PLANE_SIGNS))
    _check_each(~(np.abs(np.abs(p) - 1.0) <= DEFAULT_TOL).all(axis=(1, 2)).reshape(batch),
                "input is not unitary")
    f = (p.conj()[:, :, :, None] * p[:, :, None, :]).reshape(m, 2, 16)
    t = (f[:, 1, None] @ _PHASE_BILINEAR).reshape(m, 24, 16) @ f[:, 0, :, None]
    _check_each((np.abs(t.imag).max(axis=(1, 2)) > 1e-12).reshape(batch),
                "local-by-torus block came out non-real")
    sub = (t.real.reshape(m, 6, 4) @ _TORUS_COLUMNS).reshape(m, 2, 3, 3)
    q = (4.0 / 3.0) * (sub.swapaxes(-1, -2) @ sub)
    q = ((q + q.swapaxes(-1, -2)) / 2.0).reshape(batch + (2, 3, 3))
    return QuadricTriple(a=q[..., 0, :, :], b=q[..., 1, :, :])


def _cholesky_congruence(a: list, c: list) -> list:
    """L^-1 A L^-T for the Cholesky factor L of C = L L^T, as 3x3 nested lists of floats.

    The reduction of LAPACK's dsygvd (dpotrf, then dsygst) in closed form,
    from the lower triangles of A and C: Y = L^-1 A by forward substitution,
    then the lower triangle of L^-1 Y^T, which is L^-1 A L^-T since A is
    symmetric, mirrored.  When a pivot of C is at most ``_COND_FLOOR`` / 2
    the identity is returned instead: the pivots of a C whose smallest
    eigenvalue exceeds ``_COND_FLOOR`` are all above it, and the bound keeps
    every entry finite.
    """
    (c00, _, _), (c10, c11, _), (c20, c21, c22) = c
    (a00, _, _), (a10, a11, _), (a20, a21, a22) = a
    if not c00 > _PIVOT_FLOOR:
        return _EYE3_ROWS
    l00 = math.sqrt(c00)
    l10, l20 = c10 / l00, c20 / l00
    p1 = c11 - l10 * l10
    if not p1 > _PIVOT_FLOOR:
        return _EYE3_ROWS
    l11 = math.sqrt(p1)
    l21 = (c21 - l20 * l10) / l11
    p2 = c22 - l20 * l20 - l21 * l21
    if not p2 > _PIVOT_FLOOR:
        return _EYE3_ROWS
    l22 = math.sqrt(p2)
    y00, y01, y02 = a00 / l00, a10 / l00, a20 / l00
    y10, y11, y12 = (a10 - l10 * y00) / l11, (a11 - l10 * y01) / l11, (a21 - l10 * y02) / l11
    y20 = (a20 - l20 * y00 - l21 * y10) / l22
    y21 = (a21 - l20 * y01 - l21 * y11) / l22
    y22 = (a22 - l20 * y02 - l21 * y12) / l22
    # Column j of the result is L^-1 times row j of Y; its rows j..2 are kept.
    m00 = y00 / l00
    m10 = (y01 - l10 * m00) / l11
    m20 = (y02 - l20 * m00 - l21 * m10) / l22
    z0 = y10 / l00
    m11 = (y11 - l10 * z0) / l11
    m21 = (y12 - l20 * z0 - l21 * m11) / l22
    z0 = y20 / l00
    z1 = (y21 - l10 * z0) / l11
    m22 = (y22 - l20 * z0 - l21 * z1) / l22
    return [[m00, m10, m20], [m10, m11, m21], [m20, m21, m22]]


def _pencil_roots(q: QuadricTriple) -> list:
    """Real roots of det(t A + B) for each pair of q (one pair or a stack), in descending order.

    Returns one list of Python floats per pair, the pairs of a stack in
    row-major order, from ``q.eig_pencil`` (see :func:`char_cubic_roots`).
    A pair whose A + B is singular (lambda_min <= ``_COND_FLOOR``) has no
    roots.  Only the top ``rank_a`` eigenvalues are divided: the others are zero.
    """
    counts = np.where(q.eig_ab[..., 0] > _COND_FLOOR, q.rank_a, 0).reshape(-1).tolist()
    lam = q.eig_pencil.reshape(-1, 3)[:, ::-1].tolist()
    # A <= A + B gives lambda <= 1; the clamp keeps roundoff from making a root positive.
    return [[1.0 - 1.0 / min(x, 1.0) for x in row[:count]] for row, count in zip(lam, counts)]


def char_cubic_roots(q: QuadricTriple) -> np.ndarray:
    """Real roots of det(t A + B) for a single quadric pair, in descending order.

    With C = A + B, det(t A + B) = det(C) prod_i (1 + (t - 1) lambda_i),
    where lambda_i in [0, 1] are the eigenvalues of the symmetric-definite
    pencil (A, C) (Golub & Van Loan, Matrix Computations, 8.7), those of
    L^-1 A L^-T with C = L L^T (``q.eig_pencil``).  When C is definite,
    exactly ``q.rank_a`` of them are nonzero, and the roots are
    t_i = 1 - 1/lambda_i over those: real and <= 0.  When lambda_min(C)
    is at most ``_COND_FLOOR``, A and B share a null direction, the
    determinant vanishes for every t and no root is reported.  The roots
    of det(t I + A) and det(t I + B) are -q.eig_a and -q.eig_b.  This is
    the batch-of-one case of the per-chunk computation of
    :func:`moduli_scan`.
    """
    if q.a.ndim != 2:
        raise ValueError("char_cubic_roots takes one quadric pair; index the stack first")
    return np.array(_pencil_roots(q)[0], dtype=float)


def kernel_from_moduli(u, mu) -> SWKernel:
    """Two-qubit kernel from a unitary and a unit vector of torus coordinates.

    4 Delta = U (I + sqrt(15) (mu_1 sigma_30 + mu_2 sigma_03
    + mu_3 sigma_33)) U^dagger.  The sqrt(15) scale is the HS2-pinned
    rewrite of the sqrt(30)-scaled generator expansion over plain Pauli
    products; it is the unique scale for which unit-sphere mu gives
    purity exactly 4.  The three torus products are diagonal,
    sigma_30, sigma_03, sigma_33 = diag(_PLANE_SIGNS[i]), so the kernel is
    U diag(pi) U^dagger with pi = (1 + sqrt(15) mu S) / 4.
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
    return _orbit_kernel(um, (1.0 + np.sqrt(15.0) * (mu @ _PLANE_SIGNS)) / 4.0)


@dataclass(frozen=True, eq=False)
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

# A candidate point is a solution when both ellipsoid residuals are at most
# _RESIDUAL_TOL; points closer than _DEDUP_TOL count once.
_RESIDUAL_TOL = 1e-10
_DEDUP_TOL = 1e-8

# The members cos(theta) C_A + sin(theta) C_B, theta = k pi / 8, k < 12, of
# _singular_members: it picks its invertible member P among the first eight
# and takes Q, the member pi/2 further on, four places later.  At or below
# _SINGULAR_PENCIL_TOL the best |det| of the eight, so every member of the
# pencil, is singular.
_PENCIL_COS_SIN = [(math.cos(k * math.pi / 8), math.sin(k * math.pi / 8)) for k in range(12)]
_PENCIL_COS, _PENCIL_SIN = np.array(_PENCIL_COS_SIN).T[:, :, None, None]
_PENCIL_COS.flags.writeable = _PENCIL_SIN.flags.writeable = False
_SINGULAR_PENCIL_TOL = 1e-12


def moduli_feasibility(q: QuadricTriple, level: float) -> FeasibilityResult:
    """Solve mu mu^T = 1, mu A mu^T = level, mu B mu^T = level in closed form.

    Solutions are the real common points of the conics C_A = A - level I and
    C_B = B - level I in the projective plane, each an antipodal pair on the
    sphere, at most 4 pairs (Bezout): a real degenerate member of the pencil
    C_A + t C_B splits into two lines, and each line meets a conic at the
    roots of a 2x2 quadratic form.  These points are exact up to roundoff
    and are kept, both antipodes, when their residuals are at most
    ``_RESIDUAL_TOL`` (points within ``_DEDUP_TOL`` count once).
    No solution exists, and none is sought, when ``level`` is outside the
    eigenvalue range of A or of B, or above lambda_max(A + B) / 2.  A
    degenerate pencil (A = B, a null direction shared by C_A and C_B, or a
    zero conic, A or B equal to level I), whose solutions can form a curve,
    raises ValueError, as does a ``level`` that is not positive and finite
    or a stack of pairs.

    The pencil roots come from one 3x3 nonsymmetric eigenvalue call (see
    :func:`_singular_members`); its input is finite because
    :class:`QuadricTriple` rejects non-finite entries.  The line pairs are
    split on Python floats, and the residuals and the dedup distances take
    one array product each over all candidate points.

    Level 1 is the quoted unit normalization, which the scan uses.  At
    ``MATRIX_LEVEL`` the system is the matrix-level subsystem purity
    conditions: solutions give composite-admissible kernels (:func:`kernel_from_moduli`).
    """
    if q.a.ndim != 2:
        raise ValueError("moduli_feasibility takes one quadric pair; index the stack first")
    if not (level > 0.0 and math.isfinite(level)):
        raise ValueError(f"level must be positive and finite, got {level!r}")
    if not _level_reachable(q, level):
        return _feasibility_result(q, [])
    mus = _conic_intersection(q.a - level * _EYE3, q.b - level * _EYE3)
    if not len(mus):
        return _feasibility_result(q, [])
    mus /= np.sqrt((mus * mus).sum(axis=1, keepdims=True))
    values = (mus @ np.concatenate([q.a, q.b], axis=1)).reshape(-1, 2, 3) @ mus[:, :, None]
    good = mus[np.abs(values[..., 0] - level).max(axis=1) <= _RESIDUAL_TOL]
    # Distances from each point to every point, then to every antipode.
    n = len(good)
    diff = good[:, None] - np.concatenate([good, -good])
    dist = np.sqrt((diff * diff).sum(axis=-1)).tolist()
    kept: list[int] = []
    for i, row in enumerate(dist):
        if all(row[j] > _DEDUP_TOL and row[j + n] > _DEDUP_TOL for j in kept):
            kept.append(i)
    return _feasibility_result(q, [mu for i in kept for mu in (good[i], -good[i])])


def _feasibility_result(q: QuadricTriple, solutions: list) -> FeasibilityResult:
    """The solutions of one pair with their label."""
    return FeasibilityResult(solutions, *_scan_labels([q.rank_a], [q.rank_b], [len(solutions)]))


def _scan_labels(rank_a, rank_b, n_solutions) -> list:
    """The :class:`FeasibilityResult` label per record of stacked ranks and solution counts."""
    return ["degenerate" if min(ra, rb) < 3 else "feasible" if k else "empty"
            for ra, rb, k in zip(rank_a, rank_b, n_solutions)]


def _level_reachable(q: QuadricTriple, level: float) -> np.ndarray:
    """The early exit of :func:`moduli_feasibility`, per pair of a stack.

    False where mu A mu = mu B mu = level provably has no solution on the
    unit sphere: level outside the eigenvalue range of A or of B, or above
    lambda_max(A + B) / 2.
    """
    return ((q.eig_a[..., 0] <= level) & (level <= q.eig_a[..., -1])
            & (q.eig_b[..., 0] <= level) & (level <= q.eig_b[..., -1])
            & (q.eig_ab[..., -1] >= 2.0 * level))


_DEGENERATE_PENCIL = "degenerate pencil: C_A and C_B proportional or det(C_A + t C_B) == 0"


def _singular_members(ca: np.ndarray, cb: np.ndarray) -> list:
    """The real roots of det(x ca + y cb), as unit pairs [x, y], for conics of unit norm.

    They come from one nonsymmetric eigenproblem.  Of the members
    P = cos(theta) ca + sin(theta) cb, theta = k pi / 8, k < 8, the one with
    the largest |det| is inverted: with Q the member at theta + pi/2, each
    eigenvalue nu of adj(P) Q = det(P) P^-1 Q gives the singular member
    nu P - det(P) Q, and a root counts as real when its imaginary part is at
    most 1e-8 of its size.  det(x ca + y cb) is a cubic form, so at most
    three of the eight members are singular unless every member is: a best
    |det| of at most ``_SINGULAR_PENCIL_TOL`` raises ValueError (a
    degenerate pencil).
    """
    members = _PENCIL_COS * ca + _PENCIL_SIN * cb
    dets = np.linalg.det(members[:8])
    k = int(np.abs(dets).argmax())
    det = float(dets[k])
    if abs(det) <= _SINGULAR_PENCIL_TOL:
        raise ValueError(_DEGENERATE_PENCIL)
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = members[k].tolist()
    adj = np.array([[p11 * p22 - p12 * p21, p02 * p21 - p01 * p22, p01 * p12 - p02 * p11],
                    [p12 * p20 - p10 * p22, p00 * p22 - p02 * p20, p02 * p10 - p00 * p12],
                    [p10 * p21 - p11 * p20, p01 * p20 - p00 * p21, p00 * p11 - p01 * p10]])
    (c, s), (c_q, s_q) = _PENCIL_COS_SIN[k], _PENCIL_COS_SIN[k + 4]
    xy = []
    for nu in map(complex, np.linalg.eigvals(adj @ members[k + 4]).tolist()):
        if abs(nu.imag) <= 1e-8 * max(abs(nu), abs(det)):  # the member nu P - det Q
            x, y = c * nu.real - c_q * det, s * nu.real - s_q * det
            h = math.hypot(x, y)
            xy.append([x / h, y / h])
    return xy


def _conic_intersection(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Unit candidates (m, 3), m <= 4, for the real common points of two conics.

    The real singular members of the pencil come from
    :func:`_singular_members`; one of them that is a real line pair is split
    into its two lines, and each line meets the other conic at the roots of
    a 2x2 quadratic form.  A zero conic (A or B equal to level I), two
    proportional conics and any other degenerate pencil raise ValueError.
    """
    norm_a, norm_b = np.linalg.norm(ca), np.linalg.norm(cb)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("degenerate pencil: C_A or C_B is zero (A or B equals level I)")
    ca, cb = ca / norm_a, cb / norm_b
    wedge = np.outer(ca, cb)
    if np.linalg.norm(wedge - wedge.T) <= 1e-12:
        raise ValueError(_DEGENERATE_PENCIL)
    xy = np.array(_singular_members(ca, cb)).reshape(-1, 2)
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
        disc, band = c * c - p * r, 1e-10 * (p * p + c * c + r * r)
        if disc >= -band:  # tangent up to roundoff: keep
            s = -(c + math.copysign(math.sqrt(max(disc, 0.0)), c))
            # In the band a root is double; with p != 0 (s, p) alone is that point.
            for u, t in ((s, p),) if p and disc <= band else ((s, p), (r, s)):
                if u or t:  # the unit point (u v1 + t e) / hypot(u, t): v1 is normal to e
                    h = math.hypot(u, t)
                    coeffs.append([u / h, t / h, 0.0] if j == 1 else [u / h, 0.0, t / h])
    return np.array(coeffs).reshape(-1, 3) @ basis


@dataclass(frozen=True, eq=False)
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


# Records per chunk of the scan pipeline.  The stacks of one chunk take a
# few MB, so peak memory does not grow with the chunk count.
SCAN_CHUNK = 256


def _chunk_stages(a: np.ndarray, ap: np.ndarray, solve: bool) -> tuple:
    """(quadrics, roots, solved) for parameter stacks a and a' (m, 3), each stage once.

    ``solved`` maps the records that the early exit of :func:`moduli_feasibility`
    (level 1, run over the stack) does not settle to the solver's results.
    """
    q = abelian_quadrics(a, ap)
    reachable = np.flatnonzero(_level_reachable(q, 1.0)).tolist() if solve else []
    return q, _pencil_roots(q), {k: moduli_feasibility(q[k], 1.0) for k in reachable}


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx): the
# entropy hash INIT_A * MULT_A**j, the state hash INIT_B * MULT_B**w and the
# two multipliers of its mix, all mod 2**32.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int, j: int, count: int) -> np.ndarray:
    """init * mult**(j + w) mod 2**32 for w < count, as uint32."""
    return np.array([init * pow(mult, j + w, 1 << 32) & 0xFFFFFFFF for w in range(count)],
                    dtype=np.uint32)


def _xorshift(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> 16)


def _entropy_words(entropy) -> int:
    """The number of 32-bit words SeedSequence(entropy) assembles from ``entropy``:
    max(1, ceil(bits / 32)) for an int, the sum over the elements of a sequence,
    whose strings are read as numpy reads them ("0x": hex, "0": octal)."""
    if isinstance(entropy, str):
        entropy = int(entropy, 16 if entropy.startswith("0x") else 8 if entropy.startswith("0") else 10)
    if isinstance(entropy, (int, np.integer)):
        return max(1, -(-int(entropy).bit_length() // 32))
    return sum(map(_entropy_words, entropy))


_STATE_HASH = _hash_consts(_INIT_B, _MULT_B, 0, 9)


def _child_states(parent: np.random.SeedSequence, start: int, m: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of children start, ..., start + m - 1 of a
    fresh ``parent``, shape (m, 4), keys below 2**32.

    numpy builds child i from the parent's entropy with the spawn key i appended:
    its pool is the parent's pool, each word d then mixed with the key hashed at
    step j0 + d, where j0 = 16 + 4 max(0, L - 4) hash steps precede it for L
    entropy words.  Its state word w hashes pool word w % 4 at step w.  Every
    product is on uint32 arrays, which wrap without a warning.
    """
    h = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, _entropy_words(parent.entropy) - 4), 5)
    keys = np.arange(start, start + m, dtype=np.uint32)[:, None]
    pool = _xorshift(_MIX_L * parent.pool - _MIX_R * _xorshift((keys ^ h[:4]) * h[1:]))
    return _xorshift((np.tile(pool, 2) ^ _STATE_HASH[:8]) * _STATE_HASH[1:]).view(np.uint64)


class _GivenState(ISeedSequence):
    """A seed sequence that hands a bit generator the state words it was given."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _scan_chunks(n: int, seed, ranges):
    """The scan's chunk pipeline: (start, params (m, 6), *_chunk_stages) per chunk.

    A chunk of ``SCAN_CHUNK`` records is drawn when the one before it has
    been consumed.  Record i takes a then a' from the doubles of
    default_rng(child i of SeedSequence(seed)).uniform(lo, hi, 6), which are
    exactly lo when hi == lo.  numpy's construction is the reference, and a
    chunk derives them at once (module docstring, "Scan draws"): state words
    from :func:`_child_states`, six raw outputs of numpy's PCG64 on each, and
    numpy's ``uniform`` formula.  Spawn keys are single words, so ``n`` is at
    most 2**32.
    """
    if not 1 <= n <= 1 << 32:
        raise ValueError(f"n must be between 1 and 2**32, got {n}")
    lo, hi = float(ranges[0]), float(ranges[1])
    if not (lo <= hi and np.isfinite(hi - lo)):
        raise ValueError(f"ranges must satisfy lo <= hi with hi - lo finite, got {lo!r},{hi!r}")
    parent = np.random.SeedSequence(seed)
    for start in range(0, n, SCAN_CHUNK):
        raw = np.array([np.random.PCG64(_GivenState(state)).random_raw(6)
                        for state in _child_states(parent, start, min(SCAN_CHUNK, n - start))])
        params = lo + (hi - lo) * ((raw >> 11) * 2.0**-53)
        yield (start, params, *_chunk_stages(params[:, :3], params[:, 3:], solve=True))


def _chunk_records(start: int, a, ap, q: QuadricTriple, roots: list, solved: dict) -> list:
    """The :class:`ScanRecord` of each record of a chunk, numbered from ``start``."""
    unsolved = _scan_labels(q.rank_a, q.rank_b, [0] * len(roots))
    return [ScanRecord(start + k, a[k], ap[k], q[k], np.array(row, dtype=float),
                       solved.get(k, FeasibilityResult([], label)))
            for k, (row, label) in enumerate(zip(roots, unsolved))]


def moduli_record(record_index: int, a_params, a_prime_params, solve: bool = True) -> ScanRecord:
    """Evaluate one moduli point: the batch-of-one case of :func:`moduli_scan`.

    The quadric pair is that of :func:`abelian_quadrics` on the batch of one
    record.  Parameters must be finite; parameters whose phase sums overflow
    fail the unitarity check with a ValueError and no warning.
    ``solve=False`` skips the solver.  Both settings return equal records:
    at the scan's level 1 the early exit of :func:`moduli_feasibility`
    settles every record before a solve, because A + B <= (4/3) I.
    """
    # Copies, so that the record does not share the caller's arrays.
    a, ap = np.array(a_params, dtype=float), np.array(a_prime_params, dtype=float)
    if a.shape != (3,) or ap.shape != (3,):
        raise ValueError("expected parameter shapes (3,), (3,)")
    a, ap = a[None], ap[None]
    return _chunk_records(record_index, a, ap, *_chunk_stages(a, ap, solve))[0]


def moduli_scan(n: int, seed, ranges=(-np.pi, np.pi)) -> list:
    """Random scan of the moduli bundle, as a list of :class:`ScanRecord`.

    Record i draws its abelian parameters uniformly from ``ranges`` = (lo, hi),
    lo <= hi, as default_rng(child i of SeedSequence(seed)).uniform(lo, hi, 6),
    so a record does not depend on ``n``; ranges (0, 0) puts every record at
    the origin.  numpy's construction is the reference for the draws, which
    the chunk pipeline derives a chunk at a time, bit for bit (module
    docstring, "Scan draws"); ``n`` is at most 2**32.  The records come
    from the chunk pipeline (:func:`_scan_chunks`), whose quadrics come from
    one :func:`abelian_quadrics` call per chunk, and equal
    :func:`moduli_record` bit for bit.
    :func:`scan_to_csv` and :func:`scan_to_json` stream them.
    """
    return [rec for start, params, *stages in _scan_chunks(n, seed, ranges)
            for rec in _chunk_records(start, params[:, :3], params[:, 3:], *stages)]


SCAN_CSV_COLUMNS = (
    "record_index", "a1", "a2", "a3", "ap1", "ap2", "ap3", "rank_A", "rank_B",
    "eigA1", "eigA2", "eigA3", "eigB1", "eigB2", "eigB3",
    "rootsAB", "classification", "n_solutions", "solutions",
)


def _chunk_fields(start: int, params, q: QuadricTriple, roots: list, solved: dict):
    """Per record of a chunk, from a few tolist() calls: index, params, rank_A, rank_B, eig_A,
    eig_B (descending), roots, label (:func:`_scan_labels`) and solutions."""
    rank_a, rank_b = q.rank_a.tolist(), q.rank_b.tolist()
    sols = [[]] * len(rank_a)
    for k, feas in solved.items():
        sols[k] = [mu.tolist() for mu in feas.solutions]
    return zip(range(start, start + len(sols)), params.tolist(), rank_a, rank_b,
               q.eig_a[:, ::-1].tolist(), q.eig_b[:, ::-1].tolist(), roots,
               _scan_labels(rank_a, rank_b, map(len, sols)), sols)


# One CSV row: no field holds a comma, a quote or a line break, so none is quoted.
_CSV_ROW = "%d" + ",%r" * 6 + ",%d,%d" + ",%r" * 6 + ",%s,%s,%d,%s\n"


def _csv_text(*chunk) -> str:
    """The CSV rows of one chunk, after the header in the first chunk."""
    return (",".join(SCAN_CSV_COLUMNS) + "\n" if chunk[0] == 0 else "") + "".join(
        _CSV_ROW % (i, *p, ra, rb, *ea, *eb, ";".join(map(repr, r)), label, len(s),
                    ";".join(" ".join(map(repr, mu)) for mu in s))
        for i, p, ra, rb, ea, eb, r, label, s in _chunk_fields(*chunk))


def _json_text(*chunk) -> str:
    """The JSON items of one chunk, after "[" in the first chunk and "," in the others."""
    text = json.dumps([{"record_index": i, "a_params": p[:3], "ap_params": p[3:],
                        "rank_A": ra, "rank_B": rb, "eig_A": ea, "eig_B": eb,
                        "roots_AB": [[x, 0.0] for x in r], "classification": label,
                        "n_solutions": len(s), "solutions": s}
                       for i, p, ra, rb, ea, eb, r, label, s in _chunk_fields(*chunk)],
                      indent=2, sort_keys=True, allow_nan=False)
    # text is "[", the items as "\n  item" joined by ",", then "\n]": keep the items.
    return ("[" if chunk[0] == 0 else ",") + text[1:-2]


def _write_chunks(stream, chunk_text, n, seed, ranges) -> None:
    for chunk in _scan_chunks(n, seed, ranges):
        stream.write(chunk_text(*chunk))
        del chunk  # freed before the next chunk is drawn


def scan_to_csv(stream, n: int, seed, ranges=(-np.pi, np.pi)):
    """Write the records of ``moduli_scan(n, seed, ranges)`` as CSV.

    Columns ``SCAN_CSV_COLUMNS``, floats as their round-tripping repr; each chunk of the
    chunk pipeline is written before the next is drawn, so memory does not grow with ``n``.
    """
    _write_chunks(stream, _csv_text, n, seed, ranges)


def scan_to_json(stream, n: int, seed, ranges=(-np.pi, np.pi)):
    """Write the records as a strict JSON array, the mirror of :func:`scan_to_csv`.

    The bytes of json.dumps(items, indent=2, sort_keys=True) of the whole list, then a
    newline: each chunk is dumped alone and written without its brackets before the next.
    """
    _write_chunks(stream, _json_text, n, seed, ranges)
    stream.write("\n]\n")
