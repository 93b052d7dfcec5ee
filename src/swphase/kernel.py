"""Stratonovich-Weyl kernels for elementary N-level systems.

A kernel is a Hermitian matrix satisfying the master equations
tr(Delta) = 1 and tr(Delta^2) = N.  The admissible spectra form a sphere of
radius sqrt(N - 1/N) around (1/N, ..., 1/N) inside the trace-1 hyperplane;
kernels are the unitary orbit of a spectrum.  Wigner values are the pairing
W = tr(rho Delta).

The phase-space measure is normalized so that the total volume of the
unitary orbit is N; with that choice the orbit average of the kernel is the
identity operator and state reconstruction holds exactly (verified both in
closed form via the Haar second moment and by Monte Carlo).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DensityMatrix,
    as_complex_matrix,
    hermiticity_defect,
    _check_unitary,
    _ginibre,
)

__all__ = [
    "KernelSpectrum",
    "SWKernel",
    "MasterReport",
    "hyperplane_frame",
    "solve_kernel_spectrum",
    "kernel_from_spectrum",
    "wigner_value",
    "haar_second_moment_coefficients",
    "reconstruct_exact",
    "reconstruct_mc",
    "phase_space_norm_mc",
    "verify_master",
    "covariance_check",
]

# The tolerance of every verdict on purities and reports (and the CLI's --tol);
# algebraic identities (Hermiticity, unit trace) keep linalg.DEFAULT_TOL.
PURITY_TOL = 1e-10

# Bytes of one complex n x n stack per pass of the Monte-Carlo estimators.
# It bounds their memory only: the sample stream does not depend on it.
_MC_CHUNK_BYTES = 1 << 20

# Largest n whose orbit sampler takes Q factors by Gram-Schmidt over the
# stack instead of one LAPACK QR per matrix.  At one BLAS thread a 1 MiB
# chunk of reconstruct_mc took 0.64x LAPACK's time at n = 4 and 0.88x at
# n = 8, but 1.0-1.3x at n = 9 to 12 and 2.0x at n = 32.
_GS_MAX_N = 8


def hyperplane_frame(n: int) -> np.ndarray:
    """Fixed orthonormal basis (rows) of the sum-zero hyperplane in R^n.

    Row k is (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k+1)) with k leading ones.
    """
    f = np.zeros((n - 1, n))
    for k in range(1, n):
        f[k - 1, :k] = 1.0
        f[k - 1, k] = -float(k)
        f[k - 1] /= np.sqrt(k * (k + 1.0))
    return f


@dataclass(frozen=True)
class KernelSpectrum:
    """Ordered (descending) eigenvalues of an SW kernel.

    Invariants: sum(pi) = 1 and sum(pi^2) = N, both within 1e-12.
    """

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if pi.ndim != 1 or pi.size < 2:
            raise ValueError("spectrum must be a vector of length >= 2")
        if np.any(np.diff(pi) > 0):
            raise ValueError("spectrum must be sorted descending")
        n = pi.size
        if not abs(pi.sum() - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"sum {pi.sum()} != 1")
        if not abs((pi**2).sum() - n) <= DEFAULT_TOL:
            raise ValueError(f"sum of squares {(pi ** 2).sum()} != {n}")

    @property
    def n(self) -> int:
        return self.pi.size

    def traceless_part(self) -> np.ndarray:
        """pi - 1/N; Euclidean norm sqrt(N - 1/N)."""
        return self.pi - 1.0 / self.n

    def unit_direction(self) -> np.ndarray:
        """Unit-normalized traceless part (the direction on the moduli sphere)."""
        t = self.traceless_part()
        return t / np.linalg.norm(t)


def solve_kernel_spectrum(n: int, selector: str = "canonical", *, seed=None,
                          vector=None) -> KernelSpectrum:
    """Solve sum(pi) = 1, sum(pi^2) = n for an ordered spectrum.

    Parameters
    ----------
    n : int
        System dimension, >= 2.
    selector : {"canonical", "random", "from_unit_vector"}
        canonical: traceless part along the first hyperplane-frame axis
        (1, -1, 0, ...) / sqrt(2).  random: uniform on the spectrum sphere,
        driven by ``seed``.  from_unit_vector: map a unit (n-1)-vector
        through the fixed frame.
    seed : rng seed, for selector="random".
    vector : array_like, for selector="from_unit_vector".

    Returns
    -------
    KernelSpectrum
        Sorted descending (the moduli representative).
    """
    if n < 2:
        raise ValueError("kernel spectra need n >= 2")
    radius = np.sqrt(n - 1.0 / n)
    if selector == "canonical":
        v = np.zeros(n - 1)
        v[0] = 1.0
    elif selector == "random":
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n - 1)
        v /= np.linalg.norm(v)
    elif selector == "from_unit_vector":
        v = np.asarray(vector, dtype=float)
        if v.shape != (n - 1,):
            raise ValueError(f"vector must have shape ({n - 1},)")
        if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
            raise ValueError("vector must have unit norm")
    else:
        raise ValueError(f"unknown selector {selector!r}")
    pi = 1.0 / n + radius * (v @ hyperplane_frame(n))
    return KernelSpectrum(np.sort(pi)[::-1])


@dataclass(frozen=True)
class SWKernel:
    """A Stratonovich-Weyl kernel: Hermitian with tr = 1 and tr^2 = N; ``report`` is the
    :func:`verify_master` report that admitted it (purity to PURITY_TOL, the rest DEFAULT_TOL)."""

    mat: np.ndarray
    n: int
    report: MasterReport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_complex_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_master(m, self.n)  # entries that overflow fail a test below
        object.__setattr__(self, "report", report)
        if not report.hermiticity_defect <= DEFAULT_TOL:
            raise ValueError(f"kernel not Hermitian: defect {report.hermiticity_defect:.3e}")
        if not report.trace_residual <= DEFAULT_TOL:
            raise _residual_error("kernel trace", np.trace(m), 1, DEFAULT_TOL)
        if not report.purity_residual <= PURITY_TOL:
            raise _residual_error("kernel purity", np.trace(m @ m), self.n, PURITY_TOL)

    @property
    def spectrum(self) -> np.ndarray:
        return np.sort(np.linalg.eigvalsh(self.mat))[::-1]


def _residual_error(name: str, value: complex, target: int, tol: float) -> ValueError:
    """The error for a trace off its target: by the real part, else by the imaginary part."""
    if abs(value.real - target) <= tol:
        return ValueError(f"{name} has imaginary part {value.imag:.3e}")
    return ValueError(f"{name} {value.real} != {target}")


def kernel_from_spectrum(spec: KernelSpectrum, u) -> SWKernel:
    """Conjugate diag(pi) by a unitary: the orbit point u diag(pi) u^dagger."""
    um = as_complex_matrix(u)
    n = spec.n
    if um.shape[0] != n:
        raise ValueError(f"unitary is {um.shape[0]}x{um.shape[0]}, spectrum has n = {n}")
    _check_unitary(um)
    return _orbit_kernel(um, spec.pi)


def _orbit_kernel(um: np.ndarray, pi) -> SWKernel:
    """The kernel at the orbit point um diag(pi) um^dagger, symmetrized; um is checked unitary."""
    mat = (um * pi) @ um.conj().T
    return SWKernel((mat + mat.conj().T) / 2.0, um.shape[0])


def wigner_value(rho: DensityMatrix, delta: SWKernel) -> float:
    """Wigner quasiprobability value W = tr(rho Delta); real, may be negative."""
    if rho.dim != delta.n:
        raise ValueError(f"dimension mismatch: state {rho.dim}, kernel {delta.n}")
    return _pairing(rho.mat, delta.mat)


def _pairing(rho: np.ndarray, delta: np.ndarray) -> float:
    """tr(rho delta) of two same-size matrices, which must be real to DEFAULT_TOL."""
    w = np.trace(rho @ delta)
    if abs(w.imag) > DEFAULT_TOL:
        raise ValueError(f"pairing has imaginary part {w.imag:.3e}")
    return float(w.real)


def _spectrum_values(spec, n: int) -> np.ndarray:
    """Eigenvalues of a KernelSpectrum or a raw array, checked against dimension n."""
    pi = spec.pi if isinstance(spec, KernelSpectrum) else np.asarray(spec, dtype=float)
    if pi.size != n:
        raise ValueError(f"dimension mismatch: state {n}, spectrum {pi.size}")
    return pi


def _q_factors(a: np.ndarray) -> np.ndarray:
    """Q factors of a stack (..., n, n) of full-rank matrices, A = Q R.

    Up to ``_GS_MAX_N`` the columns of ``a`` are orthonormalized in place by
    classical Gram-Schmidt run twice, vectorized over the stack (CGS2: "twice
    is enough", Giraud et al., Numer. Math. 101, 2005), and ``a`` is returned;
    R then has a positive real diagonal.  Above it a new array holds the Q
    of ``np.linalg.qr``, whose R diagonal carries arbitrary phases.
    """
    n = a.shape[-1]
    if n > _GS_MAX_N:
        return np.linalg.qr(a)[0]
    for j in range(n):
        v, q = a[..., j], a[..., :j]
        for _ in range(2 if j else 0):
            h = np.einsum("...ij,...i->...j", q, v.conj())  # conj(Q^dagger v)
            v -= np.einsum("...ij,...j->...i", q, np.conjugate(h, out=h))
        sq = np.einsum("...i,...i->...", v.real, v.real)
        sq += np.einsum("...i,...i->...", v.imag, v.imag)
        v /= np.sqrt(sq)[..., None]
    return a


def _orbit_chunks(n: int, spec, samples: int, seed):
    """Orbit points U D U^dagger for Haar U, in (k, n, n) stacks of at most ``_MC_CHUNK_BYTES``.

    U is the Q factor (:func:`_q_factors`) of a complex Ginibre draw from the
    stream that :func:`linalg.haar_unitaries` uses, which does not depend on
    the chunk.  Up to ``_GS_MAX_N`` Gram-Schmidt gives R a positive diagonal,
    so Q is Haar outright; above it, LAPACK's Q differs from that one by a
    diagonal unitary on the right, and so do the 1/sqrt(2) scale and the
    det = 1 fix of :func:`linalg.haar_unitaries`: all of them cancel in
    U D U^dagger, so none is applied (Mezzadri, math-ph/0609050, section 5).

    Each yielded stack is a view of a buffer that the next chunk overwrites:
    a caller that keeps one past the next step must copy it.  The normals
    and the complex stack go into buffers allocated once, and conj(U) into
    the spent normals.  Up to ``_GS_MAX_N`` the orbit has a third buffer;
    above it the orbit goes into the spent complex stack, so a chunk holds
    no more than the Q and R that LAPACK allocates for it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    pi = _spectrum_values(spec, n)
    rng = np.random.default_rng(seed)
    step = min(samples, max(1, _MC_CHUNK_BYTES // (16 * n * n)))
    draw = np.empty((step, 2, n, n))
    z = np.empty((step, n, n), dtype=complex)
    orbit = np.empty_like(z) if n <= _GS_MAX_N else z
    for start in range(0, samples, step):
        k = min(step, samples - start)
        u = _q_factors(_ginibre(n, rng, draw=draw[:k], out=z[:k]))
        uc = draw[:k].reshape(k, 2 * n * n).view(complex).reshape(k, n, n)
        np.conjugate(u, out=uc)
        u *= pi
        yield np.matmul(u, uc.swapaxes(-1, -2), out=orbit[:k])


def haar_second_moment_coefficients(n: int, tr_delta: float, tr_delta_sq: float):
    """Coefficients (alpha, beta) of the Haar-averaged pairing map.

    The average over the unitary orbit of (U D U†) tr(rho U D U†) equals
    alpha * rho + beta * tr(rho) * I with

        alpha = (n tr(D^2) - tr(D)^2) / (n (n^2 - 1))
        beta  = (n tr(D)^2 - tr(D^2)) / (n (n^2 - 1))

    With tr(D) = 1 and tr(D^2) = n this gives alpha = 1/n, beta = 0, so the
    measure-weighted integral (total measure n) reproduces rho exactly.
    """
    denom = n * (n * n - 1.0)
    alpha = (n * tr_delta_sq - tr_delta**2) / denom
    beta = (n * tr_delta**2 - tr_delta_sq) / denom
    return alpha, beta


def reconstruct_exact(rho: DensityMatrix, spec) -> np.ndarray:
    """Closed-form orbit-integral reconstruction of a state.

    Evaluates N * integral dU (U D U†) tr(rho U D U†) via the Haar second
    moment.  For a valid spectrum this returns ``rho.mat`` exactly; for
    perturbed moment values it returns the analytically predicted deviation,
    so ``spec`` may be a KernelSpectrum or a raw eigenvalue array.
    """
    n = rho.dim
    pi = _spectrum_values(spec, n)
    alpha, beta = haar_second_moment_coefficients(n, pi.sum(), (pi**2).sum())
    return n * (alpha * rho.mat + beta * np.trace(rho.mat) * np.eye(n))


def reconstruct_mc(rho: DensityMatrix, spec, samples: int, seed) -> np.ndarray:
    """Monte-Carlo orbit-integral reconstruction.

    Returns (N / samples) * sum_k (U_k D U_k†) tr(rho U_k D U_k†) over Haar
    samples U_k.  Converges to rho at the O(1/sqrt(samples)) rate.
    Deterministic given ``seed``; chunking only bounds memory, as the
    sample stream does not depend on it.
    """
    n = rho.dim
    vec = rho.mat.T.reshape(-1)  # tr(rho O) = vec(O) . vec(rho^T)
    acc = np.zeros(n * n, dtype=complex)
    for orbit in _orbit_chunks(n, spec, samples, seed):
        flat = orbit.reshape(len(orbit), n * n)
        acc += (flat @ vec).real @ flat
    return n * acc.reshape(n, n) / samples


def phase_space_norm_mc(rho: DensityMatrix, spec, samples: int, seed) -> float:
    """Monte-Carlo estimate of the phase-space integral of the Wigner function.

    Estimates (N / samples) * sum_k tr(rho U_k D U_k†), which converges to
    tr(rho) = 1: the finite-norm axiom under the total-measure-N convention.
    """
    n = rho.dim
    vec = rho.mat.T.reshape(-1)
    total = 0.0
    for orbit in _orbit_chunks(n, spec, samples, seed):
        total += (orbit.reshape(len(orbit), n * n) @ vec).real.sum()
    return n * total / samples


@dataclass(frozen=True)
class MasterReport:
    """Residual report for the master equations at dimension n."""

    hermitian: bool
    hermiticity_defect: float
    trace_residual: float
    purity_residual: float

    def ok(self, tol: float) -> bool:
        return (self.hermiticity_defect <= tol
                and self.trace_residual <= tol
                and self.purity_residual <= tol)

    def as_dict(self) -> dict:
        return asdict(self)


def verify_master(x, n: int, tol: float = PURITY_TOL) -> MasterReport:
    """Report |tr x - 1|, |tr x^2 - n|, each plus its |imaginary part|, and the Hermiticity
    defect: the one master-equation check, which SWKernel keeps as ``report``."""
    m = as_complex_matrix(x)
    if m.shape[0] != n:
        raise ValueError(f"matrix is {m.shape[0]}x{m.shape[0]}, n = {n}")
    defect = hermiticity_defect(m)
    tr, purity = np.trace(m), np.trace(m @ m)
    return MasterReport(
        hermitian=defect <= tol,
        hermiticity_defect=float(defect),
        trace_residual=float(abs(tr.real - 1.0) + abs(tr.imag)),
        purity_residual=float(abs(purity.real - n) + abs(purity.imag)),
    )


def covariance_check(delta: SWKernel, rho: DensityMatrix, u) -> float:
    """Residual |tr(rho U Delta U†) - tr(U† rho U Delta)|.

    Zero up to roundoff for any unitary: an executable witness that moving
    the kernel along the orbit is the same as countermoving the state.
    """
    um = as_complex_matrix(u)
    _check_unitary(um)
    lhs = np.trace(rho.mat @ (um @ delta.mat @ um.conj().T))
    rhs = np.trace((um.conj().T @ rho.mat @ um) @ delta.mat)
    return float(abs(lhs - rhs))
