"""Research reports on two-qubit kernels: Fano block norms and the convention audit.

These reports measure and print; the admissibility verdicts themselves come
from the matrix-level checks of :mod:`swphase.composite`.

Convention pin
--------------
A single tag governs the Fano parametrizations: "HS2" means basis elements
sigma_{mu nu} / sqrt(2) (Hilbert-Schmidt norm sqrt(2)); "HS4" means plain
sigma_{mu nu} (norm 2).  The library pins HS2 because it makes the
elementary sum rule |eta_A|^2 + |eta_B|^2 + tr(E E^T) = 1 equivalent to
the purity condition tr(Delta^2) = 4, and makes the moduli-sphere kernel
construction land exactly on purity 4.  Block-norm values quoted in the
literature for the alternative normalization are reported side by side by
:func:`convention_report`, never silently adopted.  The block coordinates
are those of :func:`swphase.composite.fano_blocks` at 2x2, scaled by the
HS2 weight 4/15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import BipartiteDims, as_complex_matrix, haar_unitary
from .kernel import PURITY_TOL, kernel_from_spectrum, solve_kernel_spectrum, _residual_error
from .composite import (
    block_norm_targets,
    fano_blocks,
    make_composite_kernel,
    verify_composite_master,
    _reductions,
)
from .twoqubit import (
    A_PLANE,
    A_PRIME_PLANE,
    KERNEL_COEFF,
    K_TWISTED,
    LAMBDA,
    LOCAL_A,
    LOCAL_B,
    TORUS,
    abelian_factor,
    kak_element,
    kernel_from_moduli,
)

__all__ = [
    "elementary_constraint_value",
    "TwoQubitBlockReport",
    "twoqubit_constraint_values",
    "torus_factor_dependence",
    "cross_commutator_report",
    "convention_report",
]

_DIMS22 = BipartiteDims(2, 2)

# A Fano block written as KERNEL_COEFF * eta . (sigma / sqrt(2)) carries
# orthonormal-basis weight 2 KERNEL_COEFF^2 |eta|^2 = (15/4) |eta|^2, so the
# HS2 block norms are the fano_blocks norms times 1 / (2 KERNEL_COEFF^2) = 4/15.
_HS2_WEIGHT = float(1.0 / (2.0 * KERNEL_COEFF**2))


def _hs2_block_norms(x) -> tuple:
    """(|eta_A|^2, |eta_B|^2, tr(E E^T)) of a Hermitian 4x4 matrix in HS2 coordinates."""
    blocks = fano_blocks(x, _DIMS22)
    norms = (blocks.local_a @ blocks.local_a, blocks.local_b @ blocks.local_b,
             np.sum(blocks.corr**2))
    return tuple(float(_HS2_WEIGHT * v) for v in norms)


def elementary_constraint_value(delta) -> float:
    """Sum rule S = |eta_A|^2 + |eta_B|^2 + tr(E E^T) of a Hermitian 4x4 kernel matrix.

    Under the pinned HS2 convention with kernel coefficient sqrt(30)/4,
    S = 1 is equivalent to the purity condition tr(Delta^2) = 4.
    """
    return sum(_hs2_block_norms(delta))


@dataclass(frozen=True)
class TwoQubitBlockReport:
    """Measured Fano block norms of a two-qubit kernel and their targets.

    ``matrix_residuals`` holds |tr(Delta^2) - 4| and the two subsystem
    purity residuals |tr((Tr_B Delta)^2) - 2|, |tr((Tr_A Delta)^2) - 2|;
    these matrix-level values are the authoritative admissibility check.
    The block targets are derived in :func:`twoqubit_constraint_values`.
    """

    measured: tuple
    targets_pinned: tuple
    targets_hs4: tuple
    literature_values: tuple
    matrix_residuals: tuple

    def as_dict(self) -> dict:
        return {
            "measured_hs2": list(self.measured),
            "targets_hs2": list(self.targets_pinned),
            "targets_hs4": list(self.targets_hs4),
            "literature_values": list(self.literature_values),
            "matrix_residuals": {
                "purity": self.matrix_residuals[0],
                "eq8_a": self.matrix_residuals[1],
                "eq8_b": self.matrix_residuals[2],
            },
        }


def twoqubit_constraint_values(delta) -> TwoQubitBlockReport:
    """Measured block norms of a candidate two-qubit kernel vs. derived targets.

    Derivation of the targets: in the orthonormal (HS-norm-1) product
    basis, composite admissibility at (2, 2) forces squared block weights
    3/4, 3/4, 9/4 for the A-local, B-local and correlation blocks
    (subsystem purity 2 each, total purity 4;
    :func:`swphase.composite.block_norm_targets`).  A Fano block written as
    coeff * eta . (sigma / s) carries orthonormal weight
    (coeff^2 * 4 / s^2) |eta|^2, so with coeff = sqrt(30)/4:

        HS2 (s = sqrt(2)):  (15/4) |eta|^2  ->  targets (1/5, 1/5, 3/5)
        HS4 (s = 1):        (15/2) |eta|^2  ->  targets (1/10, 1/10, 3/10)

    The literature triple (1/10, 1/10, 4/5) for this parametrization sums
    to 1 like the HS2 triple but matches neither uniform normalization;
    it is reported, not adopted.
    """
    m = as_complex_matrix(delta)
    # fano_blocks also rejects input that is not 4x4 or not Hermitian.
    measured = _hs2_block_norms(m)
    return _block_report(m, measured, verify_composite_master(m, _DIMS22))


def _block_report(m: np.ndarray, measured: tuple, report) -> TwoQubitBlockReport:
    """The block report of a 4x4 matrix m from its HS2 block norms and its CompositeReport."""
    if not report.full.trace_residual <= PURITY_TOL:
        raise _residual_error("kernel trace", np.trace(m), 1, PURITY_TOL)
    residuals = (report.full.purity_residual, report.purity_a_residual, report.purity_b_residual)
    targets = tuple(_HS2_WEIGHT * t for t in block_norm_targets(_DIMS22))
    return TwoQubitBlockReport(
        measured=measured,
        targets_pinned=targets,
        targets_hs4=tuple(t / 2.0 for t in targets),
        literature_values=(0.1, 0.1, 0.8),
        matrix_residuals=residuals,
    )


def torus_factor_dependence(a_params, a_prime_params, mu, n_draws: int = 16,
                            seed=0) -> dict:
    """Measure how the K and T factors move the composite residuals.

    The bundle construction keeps only the abelian factor of the full
    K * A * T decomposition.  This experiment fixes (A, mu), conjugates by
    random K and T factors, and reports the maximum change of the two
    subsystem purity values.  Torus invariance is an identity (diagonal
    factors commute with the diagonal seed); the K dependence is a measured
    number, reported rather than assumed to vanish.
    """
    factor_a = abelian_factor(a_params, a_prime_params)

    def purity_residuals(u):
        return np.abs(_reductions(kernel_from_moduli(u, mu).mat, _DIMS22)[1])

    base = purity_residuals(factor_a)
    rng = np.random.default_rng(seed)
    max_t_shift = max_k_shift = 0.0
    zeros = np.zeros(3)
    for _ in range(n_draws):
        t = kak_element(np.zeros(6), zeros, zeros, rng.uniform(-np.pi, np.pi, 3)).factor_t
        max_t_shift = max(max_t_shift, *np.abs(purity_residuals(factor_a @ t) - base))
        k = kak_element(rng.uniform(-np.pi, np.pi, 6), zeros, zeros, zeros).factor_k
        max_k_shift = max(max_k_shift, *np.abs(purity_residuals(k @ factor_a) - base))
    return {
        "base_purity_a_residual": float(base[0]),
        "base_purity_b_residual": float(base[1]),
        "max_torus_shift": float(max_t_shift),
        "max_k_shift": float(max_k_shift),
        "n_draws": n_draws,
    }


def cross_commutator_report() -> dict:
    """Numerically locate the span of commutators between the two abelian planes.

    Returns the dimension of span{[a', a]} and the Frobenius weight of its
    projection onto the twisted block, the torus, the abelian planes and
    the local block.  Reported, not asserted: no target is guessed for
    where these commutators must land.
    """
    comms = np.stack([x @ y - y @ x for x in LAMBDA[list(A_PRIME_PLANE)]
                      for y in LAMBDA[list(A_PLANE)]])
    coeff = -np.einsum("cab,mba->cm", comms, LAMBDA).real
    span_dim = int(np.linalg.matrix_rank(coeff, tol=1e-10))

    def weight(gens):
        proj = -np.einsum("cab,mba->cm", comms, gens).real
        return float(np.linalg.norm(proj) ** 2)

    total = float(np.linalg.norm(coeff) ** 2)
    return {
        "span_dim": span_dim,
        "total_weight": total,
        "weight_k_twisted": weight(K_TWISTED),
        "weight_torus": weight(LAMBDA[list(TORUS)]),
        "weight_abelian_planes": weight(LAMBDA[list(A_PLANE + A_PRIME_PLANE)]),
        "weight_local": weight(LAMBDA[list(LOCAL_A + LOCAL_B)]),
    }


def convention_report(seed=0) -> dict:
    """Audit of the basis-normalization pin against the composite constraints.

    Builds a random elementary kernel (the sum rule must give 1 under the
    pin) and a random composite kernel, then prints the measured block
    norms alongside every candidate target triple and the authoritative
    matrix-level residuals.  Discrepancies between conventions are part of
    the report by construction.
    """
    spec = solve_kernel_spectrum(4, "random", seed=seed)
    elem = kernel_from_spectrum(spec, haar_unitary(4, seed))
    s_value = elementary_constraint_value(elem.mat)

    comp = make_composite_kernel(_DIMS22, seed)
    block_report = _block_report(comp.mat, _hs2_block_norms(comp.mat), comp.report)
    return {
        "pinned_convention": "HS2",
        "elementary_sum_rule": s_value,
        "elementary_sum_rule_target": 1.0,
        "composite_blocks": block_report.as_dict(),
        "composite_matrix_report": comp.report.as_dict(),
    }
