"""Stratonovich-Weyl phase-space representation of finite-dimensional quantum systems.

Subpackages by concern: ``linalg`` (dense complex primitives), ``kernel``
(elementary SW kernels and Wigner pairing), ``composite`` (bipartite
admissibility and reduction), ``twoqubit`` (su(4) structure and the
two-qubit moduli bundle), ``reports`` (two-qubit Fano block norms and the
convention audit), ``cli`` (command-line front end).
"""

from .linalg import (
    BipartiteDims,
    DensityMatrix,
    haar_unitary,
    is_hermitian,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    random_density,
)
from .kernel import (
    KernelSpectrum,
    SWKernel,
    covariance_check,
    kernel_from_spectrum,
    phase_space_norm_mc,
    reconstruct_exact,
    reconstruct_mc,
    solve_kernel_spectrum,
    verify_master,
    wigner_value,
)
from .composite import (
    CompositeKernel,
    dual_dim,
    make_composite_kernel,
    reduce_kernel,
    subsystem_wigner,
    verify_composite_master,
)
from .twoqubit import (
    adjoint_matrix,
    char_cubic_roots,
    ellipsoid_matrices,
    isotropy_dim,
    kak_element,
    kernel_from_moduli,
    moduli_feasibility,
    moduli_scan,
)
from .reports import convention_report

__version__ = "0.1.0"
