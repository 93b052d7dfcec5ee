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
]

# The tolerance of every verdict on purities and reports (and the CLI's --tol);
# algebraic identities (Hermiticity, unit trace) keep linalg.DEFAULT_TOL.
PURITY_TOL = 1e-10

# Bytes of the complex (k, n, n) stack of one pass of the Monte-Carlo
# estimators, which take k = _MC_CHUNK_BYTES // (16 n^2) samples a pass.  It
# bounds their memory only: the sample stream does not depend on it.
_MC_CHUNK_BYTES = 1 << 20

# Largest n whose orbit sampler orthonormalizes its frames by Gram-Schmidt on
# sample-last planes and contracts them with rho by per-plane GEMMs, instead of
# one LAPACK QR and one orbit point per sample (_orbit_sums).  At one BLAS
# thread (2-vCPU Xeon), per 1 MiB chunk, planes against LAPACK: the Q step took
# 2.1-2.3 against 3.2-5.0 ms at n = 8, 2.7-2.8 against 3.0-4.0 ms at n = 9 and
# 4.4-5.5 against 2.7-4.0 ms at n = 12; the contraction 0.5-0.7 against
# 0.6-0.9, 0.6 against 0.7-1.1 and 0.55 against 0.5-0.7 ms.
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


@dataclass(frozen=True, eq=False)
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
        if not abs(pi.sum() - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"sum {pi.sum()} != 1")
        if not abs((pi**2).sum() - pi.size) <= DEFAULT_TOL:
            raise ValueError(f"sum of squares {(pi ** 2).sum()} != {pi.size}")

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


@dataclass(frozen=True, eq=False)
class SWKernel:
    """A Stratonovich-Weyl kernel: Hermitian N x N with tr = 1 and tr^2 = N; ``report`` is the
    :func:`verify_master` report that admitted it (purity to PURITY_TOL, the rest DEFAULT_TOL)."""

    mat: np.ndarray
    report: MasterReport = field(init=False, repr=False)

    def __post_init__(self):
        m = as_complex_matrix(self.mat)
        object.__setattr__(self, "mat", m)
        with np.errstate(over="ignore", invalid="ignore"):
            report = verify_master(m)  # entries that overflow fail a test below
        object.__setattr__(self, "report", report)
        if not report.hermiticity_defect <= DEFAULT_TOL:
            raise ValueError(f"kernel not Hermitian: defect {report.hermiticity_defect:.3e}")
        if not report.trace_residual <= DEFAULT_TOL:
            raise _residual_error("kernel trace", np.trace(m), 1, DEFAULT_TOL)
        if not report.purity_residual <= PURITY_TOL:
            raise _residual_error("kernel purity", np.trace(m @ m), self.n, PURITY_TOL)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

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
    if um.shape[0] != spec.n:
        raise ValueError(f"unitary is {um.shape[0]}x{um.shape[0]}, spectrum has n = {spec.n}")
    _check_unitary(um)
    return _orbit_kernel(um, spec.pi)


def _orbit_kernel(um: np.ndarray, pi) -> SWKernel:
    """The kernel at the orbit point um diag(pi) um^dagger, symmetrized; um is checked unitary."""
    mat = (um * pi) @ um.conj().T
    return SWKernel((mat + mat.conj().T) / 2.0)


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
    """Eigenvalues of a KernelSpectrum or a raw array, checked against dimension n >= 2."""
    pi = spec.pi if isinstance(spec, KernelSpectrum) else np.asarray(spec, dtype=float)
    if n < 2 or pi.size != n:
        raise ValueError("kernel spectra need n >= 2" if n < 2
                         else f"dimension mismatch: state {n}, spectrum {pi.size}")
    return pi


def _q_factors(t: np.ndarray) -> np.ndarray:
    """Orthonormalize the frames in a sample-last stack of planes (m, n, k), m <= n.

    ``t[j, i, s]`` is component i of row j of sample s, whose m rows are full
    rank; the result holds, in the same layout, the columns of the reduced Q
    of A = Q R, A the n x m matrix whose columns are the sample's rows.  The
    row length n picks the method.  Up to ``_GS_MAX_N`` a C-contiguous ``t``
    is orthonormalized in place and returned, by classical Gram-Schmidt run
    twice (CGS2: "twice is enough", Giraud et al., Numer. Math. 101, 2005):
    h_l = sum_i conj(q_l[i]) v[i] for each earlier row l, v[i] -= q_l[i] h_l,
    then v is scaled by 1 / sqrt(sum_i re^2 + im^2).  Every complex product
    is one call on two length-k vectors (over a size-1 sample axis numpy may
    pick another loop, which rounds differently) and sums run over i in a
    fixed order, so a sample's bits do not depend on k or on its place in
    the stack; R has a positive real diagonal.  Above the cut the result is
    a view of the reduced Q of ``np.linalg.qr``, whose R diagonal has
    arbitrary phases.
    """
    m, n = t.shape[:2]
    if n > _GS_MAX_N:
        return np.linalg.qr(t.transpose(2, 1, 0))[0].transpose(2, 1, 0)
    cv = np.empty(t.shape[1:], dtype=complex)  # conj(v), then v's squared parts
    h = np.empty((m,) + t.shape[2:], dtype=complex)
    p = h[-1]  # products; h_l is kept for l < j <= m - 1 only
    for j, v in enumerate(t):
        for _ in range(2 if j else 0):
            np.conjugate(v, out=cv)
            for q, hl in zip(t[:j], h):  # conj(h_l) = sum_i q_l[i] conj(v[i])
                np.multiply(q[0], cv[0], out=hl)
                for i in range(1, n):
                    hl += np.multiply(q[i], cv[i], out=p)
            np.conjugate(h[:j], out=h[:j])
            for q, hl in zip(t[:j], h):  # v -= q_l h_l
                for i in range(n):
                    v[i] -= np.multiply(q[i], hl, out=p)
        sq = np.square(v.view(float), out=cv.view(float))
        s = sq[0, 0::2] + sq[0, 1::2]
        for i in range(1, n):
            s += sq[i, 0::2]
            s += sq[i, 1::2]
        np.divide(1.0, np.sqrt(s, out=s), out=s)
        v.real *= s
        v.imag *= s
    return t


def _orbit_sums(rho: DensityMatrix, spec, samples: int, seed, acc=None) -> float:
    """Sum of the pairings w_k = tr(rho O_k) over Haar orbit points O_k = U_k D U_k^dagger;
    given an (n, n) complex ``acc``, also add sum_k w_k O_k into it.

    Each sample draws 2 n (n - 1) standard normals: the (re, im) pairs of the
    first n - 1 columns of a complex Ginibre matrix G = U R, column j in row j
    of a reused (k, n - 1, n) complex chunk, k = ``_MC_CHUNK_BYTES`` // (16 n^2).
    A sample's normals are contiguous, so the stream does not depend on the
    chunk.  The columns u_j of U are complete, sum_j u_j u_j^dagger = I, so

        O = d_n I + sum_{j<n} (d_j - d_n) u_j u_j^dagger,

    and the last column of G or U is never drawn or formed.  The phases of
    diag R, the 1/sqrt(2) scale and the det = 1 fix of
    :func:`linalg.haar_unitaries` all cancel in O, so none is applied
    (Mezzadri, math-ph/0609050, section 5).

    :func:`_q_factors` turns the chunk into frames, which are contracted
    one of two ways at the ``_GS_MAX_N`` cut.  Up to it the chunk is copied
    once into reused sample-last planes U_j (n, k), one per frame row j, and
    no orbit point is formed: one GEMM per plane, P_j = rho U_j, written into
    the spent draw, gives x_j = Re sum_i conj(U_j[i]) P_j[i] = u_j^dagger rho u_j
    for every sample, so w = d_n tr(rho) + sum_j (d_j - d_n) x_j; then
    C_j = conj(U_j) w (d_j - d_n), in the same buffer, and one GEMM per plane
    adds sum_j U_j C_j^T, which is sum_k w_k O_k less d_n (sum_k w_k) I.
    Above it the orbit stack of U' diag(d_j - d_n) U'^dagger is formed, with
    conj(U') diag(d_j - d_n) in the spent draw, and paired by two
    matrix-vector products on its (k, n^2) view.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = rho.dim
    pi = _spectrum_values(spec, n)
    shift = pi[:-1] - pi[-1]
    base = pi[-1] * np.trace(rho.mat).real
    rho_t = rho.mat.T.reshape(-1)  # tr(rho O) = vec(O) . vec(rho^T)
    rng = np.random.default_rng(seed)
    step = min(samples, max(1, _MC_CHUNK_BYTES // (16 * n * n)))
    draw = np.empty((step, n - 1, n), dtype=complex)
    spare = np.empty(draw.size if n <= _GS_MAX_N else step * n * n,
                     dtype=complex)  # the planes, or the orbit stack
    total = 0.0
    for start in range(0, samples, step):
        k = min(step, samples - start)
        g = draw[:k]
        rng.standard_normal(out=g.view(float))
        if n <= _GS_MAX_N:
            u = spare[:g.size].reshape(n - 1, n, k)
            np.copyto(u, g.transpose(1, 2, 0))
            u = _q_factors(u)
            p = np.matmul(rho.mat, u, out=g.reshape(n - 1, n, k))  # the draw is spent
            # x_j = Re sum_i conj(U_j[i]) P_j[i], summed from the float views.
            pf = np.multiply(p.view(float), u.view(float), out=p.view(float))
            x = pf[:, 0, 0::2] + pf[:, 0, 1::2]
            for i in range(1, n):
                x += pf[:, i, 0::2]
                x += pf[:, i, 1::2]
            w = base + shift @ x
            if acc is not None:
                np.conjugate(u, out=p)
                p *= (shift[:, None] * w)[:, None, :]
                acc += np.matmul(u, p.swapaxes(-1, -2)).sum(axis=0)
        else:
            f = _q_factors(g.transpose(1, 2, 0)).transpose(2, 0, 1)
            uc = np.conjugate(f, out=g)  # the draw is spent
            uc *= shift[:, None]
            orbit = spare[:k * n * n].reshape(k, n, n)
            orbit = np.matmul(f.swapaxes(-1, -2), uc, out=orbit).reshape(k, n * n)
            w = base + (orbit @ rho_t).real
            if acc is not None:
                acc += (w @ orbit).reshape(n, n)
        total += w.sum()
    if acc is not None:
        acc.reshape(-1)[::n + 1] += pi[-1] * total
    return total


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
    acc = np.zeros((n, n), dtype=complex)
    _orbit_sums(rho, spec, samples, seed, acc)
    return n * acc / samples


def phase_space_norm_mc(rho: DensityMatrix, spec, samples: int, seed) -> float:
    """Monte-Carlo estimate of the phase-space integral of the Wigner function.

    Estimates (N / samples) * sum_k tr(rho U_k D U_k†), which converges to
    tr(rho) = 1: the finite-norm axiom under the total-measure-N convention.
    """
    return rho.dim * _orbit_sums(rho, spec, samples, seed) / samples


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


def verify_master(x, *, tol: float = PURITY_TOL) -> MasterReport:
    """Report |tr x - 1|, |tr x^2 - N| of an N x N x, each plus its |imaginary part|, and the
    Hermiticity defect: the one master-equation check, which SWKernel keeps as ``report``."""
    m = as_complex_matrix(x)
    defect = hermiticity_defect(m)
    tr, purity = np.trace(m), np.trace(m @ m)
    return MasterReport(
        hermitian=defect <= tol,
        hermiticity_defect=float(defect),
        trace_residual=float(abs(tr.real - 1.0) + abs(tr.imag)),
        purity_residual=float(abs(purity.real - m.shape[0]) + abs(purity.imag)),
    )
