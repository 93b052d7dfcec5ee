"""Composite-system kernels: reduction by partial trace and admissibility.

A kernel for a bipartite N = n_a * n_b system is composite-admissible when,
on top of the master equations at dimension N, its partial traces are
themselves valid subsystem kernels:

    tr((Tr_B Delta)^2) = n_a,      tr((Tr_A Delta)^2) = n_b.

Subsystem Wigner functions are then obtained by pairing reduced states with
reduced kernels.  The admissible set has dimension n_a^2 n_b^2 - 4 (three
independent constraints on the N^2 - 1 dimensional traceless chart, plus
the unit trace).  Gell-Mann bases are shared read-only stacks, built once per
dimension; :func:`make_composite_kernel` draws one Ginibre matrix per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    BipartiteDims,
    DensityMatrix,
    as_complex_matrix,
    kron,
    partial_trace,
    random_hermitian,
    _check_hermitian,
)
from .kernel import PURITY_TOL, MasterReport, SWKernel, hyperplane_frame, verify_master, _pairing

__all__ = [
    "CompositeAdmissibilityError",
    "CompositeKernel",
    "CompositeReport",
    "FanoBlocks",
    "traceless_orthonormal_basis",
    "fano_blocks",
    "fano_blocks_compose",
    "block_norm_targets",
    "reduce_kernel",
    "subsystem_wigner",
    "verify_composite_master",
    "make_composite_kernel",
    "dual_dim",
    "constraint_functions",
    "constraint_jacobian",
]

# The stacks of traceless_orthonormal_basis, one per dimension, read-only.
_BASES: dict[int, np.ndarray] = {}


class CompositeAdmissibilityError(ValueError):
    """Raised when a matrix fails the composite admissibility conditions.

    Carries both subsystem purity residuals.
    """

    def __init__(self, purity_a_residual: float, purity_b_residual: float):
        self.purity_a_residual = purity_a_residual
        self.purity_b_residual = purity_b_residual
        super().__init__(
            "composite admissibility violated: subsystem purity residuals "
            f"A={purity_a_residual:.3e}, B={purity_b_residual:.3e}"
        )


def traceless_orthonormal_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian traceless basis of d x d matrices, shape (d^2-1, d, d).

    Generalized Gell-Mann construction: symmetric pairs, antisymmetric
    pairs, then diagonal sum-zero directions; tr(F_i F_j) = delta_ij.  Built
    once per d and shared by every call, so read-only.
    """
    if d in _BASES:
        return _BASES[d]
    out = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = inv_sqrt2
            m[j, i] = inv_sqrt2
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j * inv_sqrt2
            m[j, i] = 1j * inv_sqrt2
            out.append(m)
    for row in hyperplane_frame(d):
        out.append(np.diag(row).astype(complex))
    basis = _BASES[d] = np.stack(out)
    basis.flags.writeable = False
    return basis


@dataclass(frozen=True)
class FanoBlocks:
    """Block decomposition of a bipartite Hermitian matrix.

    Coefficients over the orthonormal product basis built from
    :func:`traceless_orthonormal_basis`: an identity coefficient, an A-local
    vector, a B-local vector and a correlation matrix.  Reassembly through
    :func:`fano_blocks_compose` reproduces the source matrix.
    """

    identity_coeff: float
    local_a: np.ndarray
    local_b: np.ndarray
    corr: np.ndarray
    dims: BipartiteDims


def fano_blocks(x, dims: BipartiteDims) -> FanoBlocks:
    """Project a Hermitian matrix onto identity / A-local / B-local / correlation blocks."""
    m = as_complex_matrix(x)
    dims.check(m.shape[0])
    _check_hermitian(m)
    fa = traceless_orthonormal_basis(dims.n_a)
    fb = traceless_orthonormal_basis(dims.n_b)
    t = m.reshape(dims.n_a, dims.n_b, dims.n_a, dims.n_b)
    # tr(m (P ⊗ Q)) = sum_{ikjl} t[i,k,j,l] P[j,i] Q[l,k]
    identity_coeff = float(np.einsum("ikik->", t).real) / np.sqrt(dims.total)
    local_a = np.einsum("ikjk,aji->a", t, fa).real / np.sqrt(dims.n_b)
    local_b = np.einsum("ikil,blk->b", t, fb).real / np.sqrt(dims.n_a)
    corr = np.einsum("ikjl,aji,blk->ab", t, fa, fb).real
    return FanoBlocks(identity_coeff, local_a, local_b, corr, dims)


def fano_blocks_compose(blocks: FanoBlocks) -> np.ndarray:
    """Reassemble the matrix from its blocks."""
    dims = blocks.dims
    fa = traceless_orthonormal_basis(dims.n_a)
    fb = traceless_orthonormal_basis(dims.n_b)
    ia = np.eye(dims.n_a) / np.sqrt(dims.n_a)
    ib = np.eye(dims.n_b) / np.sqrt(dims.n_b)
    m = blocks.identity_coeff * kron(ia, ib)
    m += kron(np.einsum("a,aij->ij", blocks.local_a, fa), ib)
    m += kron(ia, np.einsum("b,bij->ij", blocks.local_b, fb))
    m += np.einsum("ab,aij,bkl->ikjl", blocks.corr, fa, fb).reshape(dims.total, dims.total)
    return m


def block_norm_targets(dims: BipartiteDims) -> tuple[float, float, float]:
    """Squared block norms forced by composite admissibility.

    In the orthonormal-basis sense: with N = n_a n_b,

        |local_a|^2 = (n_a^2 - 1) / N
        |local_b|^2 = (n_b^2 - 1) / N
        |corr|^2    = (n_a^2 - 1)(n_b^2 - 1) / N

    Three orthogonal blocks map one-to-one onto the three purity
    constraints, so the rescaling construction is well-posed.
    """
    n = dims.total
    ta = (dims.n_a**2 - 1.0) / n
    tb = (dims.n_b**2 - 1.0) / n
    tc = (dims.n_a**2 - 1.0) * (dims.n_b**2 - 1.0) / n
    return ta, tb, tc


@dataclass(frozen=True)
class CompositeKernel:
    """An SW kernel admissible for a given bipartition; ``report`` is the :class:`CompositeReport`
    its constructor checked from ``kernel.report`` and the two partial traces, which it keeps."""

    kernel: SWKernel
    dims: BipartiteDims
    report: CompositeReport = field(init=False)
    _reduced: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        reduced, residuals = _reductions(self.kernel.mat, self.dims)
        report = CompositeReport(self.dims, self.kernel.report, *map(abs, residuals))
        if not report.admissible():
            raise CompositeAdmissibilityError(report.purity_a_residual, report.purity_b_residual)
        object.__setattr__(self, "report", report)
        object.__setattr__(self, "_reduced", reduced)

    @property
    def mat(self) -> np.ndarray:
        return self.kernel.mat


@dataclass(frozen=True)
class CompositeReport:
    """Residuals of the full-system and subsystem-reduction conditions, judged
    (``full.hermitian`` and :meth:`admissible`) at the ``tol`` they were built with."""

    dims: BipartiteDims
    full: MasterReport
    purity_a_residual: float
    purity_b_residual: float
    tol: float = PURITY_TOL

    def admissible(self) -> bool:
        return (self.full.ok(self.tol)
                and self.purity_a_residual <= self.tol
                and self.purity_b_residual <= self.tol)

    def as_dict(self) -> dict:
        # Wire-format field names are part of the on-disk report schema.
        return {
            "dims": [self.dims.n_a, self.dims.n_b],
            "eq6": self.full.as_dict(),
            "eq8_a": self.purity_a_residual,
            "eq8_b": self.purity_b_residual,
            "admissible": self.admissible(),
        }


def _reductions(m, dims: BipartiteDims) -> tuple[dict, list]:
    """Tr_B m and Tr_A m, keyed "A" and "B" by the subsystem each lives on, and their signed
    purity residuals tr((Tr_B m)^2) - n_a and tr((Tr_A m)^2) - n_b; checks dims."""
    reduced = {"A": partial_trace(m, dims, keep="A"), "B": partial_trace(m, dims, keep="B")}
    return reduced, [float(np.trace(r @ r).real - r.shape[0]) for r in reduced.values()]


def verify_composite_master(x, dims: BipartiteDims, tol: float = PURITY_TOL) -> CompositeReport:
    """Report all four admissibility residuals for a candidate matrix."""
    m = as_complex_matrix(x)
    residuals = _reductions(m, dims)[1]  # checks dims before verify_master can
    return CompositeReport(dims, verify_master(m, dims.total, tol), *map(abs, residuals), tol)


def reduce_kernel(delta: CompositeKernel, keep: str = "A") -> SWKernel:
    """Partial-trace a composite kernel down to a subsystem kernel.

    The result is the partial trace that :class:`CompositeKernel` kept, symmetrized: it has
    unit trace, and admissibility makes its purity the subsystem dimension, as a kernel's.
    """
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    reduced = delta._reduced[keep]
    return SWKernel((reduced + reduced.conj().T) / 2.0, reduced.shape[0])


def subsystem_wigner(rho_ab: DensityMatrix, delta: CompositeKernel,
                     keep: str = "A") -> float:
    """Wigner value of a reduced state: tr(Tr_B rho * Tr_B Delta) for keep="A".

    Equals the direct pairing tr(rho_ab (Delta_A ⊗ I)) by the partial-trace
    duality; the reduce-then-pair route, with the kept Tr_B Delta, is computed here.
    """
    return _pairing(partial_trace(rho_ab.mat, delta.dims, keep=keep), delta._reduced[keep])


def make_composite_kernel(dims: BipartiteDims, seed) -> CompositeKernel:
    """Random composite-admissible kernel by block rescaling.

    Draws a random Hermitian matrix, splits it into Fano blocks and rescales
    each traceless block to the norm forced by the admissibility
    constraints (only identity and A-local blocks survive Tr_B, and
    symmetrically).  One Ginibre matrix is drawn per seed: a block of a
    random Hermitian matrix vanishes with probability zero.
    """
    if dims.n_a < 2 or dims.n_b < 2:
        raise ValueError("composite kernels need subsystem dimensions >= 2")
    ta, tb, tc = block_norm_targets(dims)
    n = dims.total
    blocks = fano_blocks(random_hermitian(n, seed), dims)
    scaled = FanoBlocks(
        identity_coeff=1.0 / np.sqrt(n),
        local_a=blocks.local_a * (np.sqrt(ta) / np.linalg.norm(blocks.local_a)),
        local_b=blocks.local_b * (np.sqrt(tb) / np.linalg.norm(blocks.local_b)),
        corr=blocks.corr * (np.sqrt(tc) / np.linalg.norm(blocks.corr)),
        dims=dims,
    )
    mat = fano_blocks_compose(scaled)
    return CompositeKernel(SWKernel((mat + mat.conj().T) / 2.0, n), dims)


def dual_dim(dims: BipartiteDims) -> int:
    """Dimension of the composite-admissible kernel set: n_a^2 n_b^2 - 4."""
    return dims.n_a**2 * dims.n_b**2 - 4


def constraint_functions(x, dims: BipartiteDims) -> np.ndarray:
    """The three purity constraints (full, A-reduced, B-reduced), as residual values."""
    m = as_complex_matrix(x)
    return np.array([np.trace(m @ m).real - dims.total, *_reductions(m, dims)[1]])


def constraint_jacobian(x, dims: BipartiteDims) -> np.ndarray:
    """Exact Jacobian of :func:`constraint_functions` on the traceless chart.

    The chart is the orthonormal product basis of traceless Hermitian
    matrices at dimension N (N^2 - 1 directions: A-local, B-local, then
    correlation, in the order of :func:`fano_blocks`).  The constraints are
    quadratic, so along a chart direction D the derivatives are
    2 tr(m D), 2 tr(Tr_B m Tr_B D) and 2 tr(Tr_A m Tr_A D): twice the block
    coefficients of m, and n_b resp. n_a times twice the local coefficients
    on the local columns.  Rank 3 of the returned (3, N^2 - 1) matrix
    confirms that the constraints cut out codimension 3.
    """
    blocks = fano_blocks(x, dims)
    na2, nb2 = dims.n_a**2 - 1, dims.n_b**2 - 1
    jac = np.zeros((3, na2 + nb2 + na2 * nb2))
    jac[0] = np.concatenate([blocks.local_a, blocks.local_b, blocks.corr.ravel()])
    jac[1, :na2] = dims.n_b * blocks.local_a
    jac[2, na2:na2 + nb2] = dims.n_a * blocks.local_b
    return 2.0 * jac
