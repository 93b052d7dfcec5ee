"""Stratonovich-Weyl kernels for elementary N-level systems.

A kernel is a Hermitian matrix satisfying the master equations
tr(Delta) = 1 and tr(Delta^2) = N.  The admissible spectra form a sphere of
radius sqrt(N - 1/N) around (1/N, ..., 1/N) inside the trace-1 hyperplane;
kernels are the unitary orbit of a spectrum.  Wigner values are the pairing
W = tr(rho Delta).

The phase-space measure is normalized so that the total volume of the
unitary orbit is N; with that choice the orbit average of the kernel is the
identity operator and state reconstruction holds exactly (verified both in
closed form via the Haar second moment and by Monte Carlo).  Since every
kernel has unit trace, the finite-norm axiom, that W integrates to tr(rho),
is the trace of the reconstruction formula: its Monte-Carlo estimate is
np.trace(reconstruct_mc(...)).real.
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
    "verify_master",
]

# The tolerance of every verdict on purities and reports (and the CLI's --tol);
# algebraic identities (Hermiticity, unit trace) keep linalg.DEFAULT_TOL.
PURITY_TOL = 1e-10

# Bytes of the complex (k, n, n) stack of one pass of reconstruct_mc, which
# takes k = _MC_CHUNK_BYTES // (16 n^2) samples a pass.  It bounds its memory
# only: the sample stream does not depend on it.
_MC_CHUNK_BYTES = 1 << 20

# Largest n whose orbit frames are built by reflections on sample-last planes
# and contracted with rho by per-plane GEMMs; above it the same draw gives
# them as one compact-WY product from batched GEMMs, paired through orbit
# points (reconstruct_mc).  Both read the same draw, so the cut is a speed
# choice only.  At one BLAS thread (2-vCPU Xeon), over 15 runs (quartiles, us
# a sample), whole 1 MiB chunks of reconstruct_mc took 4.6-4.8 on the planes
# against 5.3-5.5 with WY at n = 10, 6.2-6.4 against 6.5-6.6 at n = 11,
# 7.7-7.9 against 7.5-7.9 at n = 12, 9.9-10.2 against 8.1-8.4 at n = 13,
# 12.9-13.2 against 9.8-10.1 at n = 14 and 20.8-21.5 against 12.9-13.5 at
# n = 16.  WY loses at small n because each of its batched GEMMs makes one
# small product per sample: at n = 4 one (k, 3, 4) by (k, 4, 3) product alone
# takes 0.22 a sample, and a sample took 0.42-0.43 on the planes against
# 1.58-1.64 with WY, or 1.43-1.48 with WY frames copied into planes for the
# per-plane pairing.  That pairing loses above the cut: at n = 32 WY frames
# took 57-76 through it against 48-59 through orbit points.
_PLANES_MAX_N = 12


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


def solve_kernel_spectrum(n: int, selector: str = "canonical", *, seed=None) -> KernelSpectrum:
    """Solve sum(pi) = 1, sum(pi^2) = n for an ordered spectrum.

    Parameters
    ----------
    n : int
        System dimension, >= 2.
    selector : {"canonical", "random"}
        canonical: traceless part along the first hyperplane-frame axis
        (1, -1, 0, ...) / sqrt(2).  random: uniform on the spectrum sphere,
        driven by ``seed``.
    seed : rng seed, for selector="random".

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
        return np.linalg.eigvalsh(self.mat)[::-1]


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


def _orbit_frames(t: np.ndarray, work=None) -> np.ndarray:
    """The orthonormal frames of a sample-last stack of planes (n - 1, n, k), built by
    :func:`_plane_frames` up to ``_PLANES_MAX_N`` and by :func:`_wy_frames` above it."""
    return _plane_frames(t) if t.shape[1] <= _PLANES_MAX_N else _wy_frames(t, work)


def _plane_frames(t: np.ndarray) -> np.ndarray:
    """The frames u_0, ..., u_{n-2} of the first n - 1 columns of H_0 ... H_{n-2}, in place.

    ``t[j, i, s]`` is component i of plane j of sample s, a C-contiguous
    (n - 1, n, k) stack whose plane j holds a drawn vector z_j of length
    n - j in rows j, ..., n - 1 (its rows below j are never read); the
    result holds u_j in plane j, in the same layout:

        u_j = H_0 ... H_{j-1} (z_j / |z_j|),   H_l = I - tau_l w_l w_l^dagger

    on rows l, ..., n - 1, where w_l = z_l except w_l[0] = z_l[0] +
    e^{i phi_l} |z_l| = e^{i phi_l} (|z_l[0]| + |z_l|), e^{i phi_l} =
    z_l[0] / |z_l[0]| (1 when z_l[0] = 0), and tau_l = 1 / (|z_l|
    (|z_l| + |z_l[0]|)) = 2 / |w_l|^2.  Frames run from j = n - 2 down, so
    each z_l is read before frame l overwrites it.  Row l of frame j > l
    is still zero when H_l reaches it: the dot product skips that row and
    the row is written, not updated.  Every product of two complex vectors
    is one call on two length-k vectors into a third (numpy may round one
    over a size-1 sample axis, or one written over an input, another way);
    products with a real factor round alike in every loop, and sums run
    over rows in a fixed order, so a sample's bits do not depend on k.
    """
    m, n, k = t.shape
    tf = t.view(float).reshape(m, n, 2 * k)
    work = np.empty((n, k), dtype=complex)  # squares, then h and conj(v) or products
    norm = np.empty((m, k))  # |z_j|
    for j, s in enumerate(norm):
        zsq = np.square(tf[j, j:], out=work[j:].view(float))
        for row in zsq[1:]:
            zsq[0] += row
        np.add(zsq[0, 0::2], zsq[0, 1::2], out=s)
        np.sqrt(s, out=s)
    w0 = np.empty((m - 1, k), dtype=complex)  # w_l[0] of H_l, l < n - 2
    ntau = np.empty((m - 1, k))  # -tau_l
    for l, (w, nt) in enumerate(zip(w0, ntau)):
        z0 = t[l, l]
        a = np.abs(z0)
        head = a > 0  # else e^{i phi} = 1
        cos = np.divide(z0.real, a, out=np.ones(k), where=head)
        sin = np.divide(z0.imag, a, out=np.zeros(k), where=head)
        a += norm[l]
        np.multiply(cos, a, out=w.real)
        np.multiply(sin, a, out=w.imag)
        np.divide(-1.0, np.multiply(norm[l], a, out=nt), out=nt)
    h = work[0]  # rows l + 1, ..., n - 1 hold conj(v), then the products
    for j in range(m - 1, -1, -1):
        v = t[j]
        r = np.divide(1.0, norm[j], out=norm[j])
        for row in v[j:]:
            np.multiply(row, r, out=row)
        for l in range(j - 1, -1, -1):
            z = t[l]
            # conj(h) = sum_{i > l} z_l[i] conj(v[i]); v[l] is still zero.
            cv = np.conjugate(v[l + 1:], out=work[l + 1:])
            np.multiply(z[l + 1], cv[0], out=h)
            for zi, c, spent in zip(z[l + 2:], cv[1:], cv):
                h += np.multiply(zi, c, out=spent)
            # g = -tau_l h; v[l] = g w_l[0], v[i] += g z_l[i].
            np.conjugate(h, out=h)
            np.multiply(h, ntau[l], out=h)
            np.multiply(h, w0[l], out=v[l])
            for vi, zi, c in zip(v[l + 1:], z[l + 1:], cv):
                vi += np.multiply(h, zi, out=c)
    return t


def _wy_frames(t: np.ndarray, work=None) -> np.ndarray:
    """The frames of :func:`_plane_frames`'s draw as columns of one compact-WY product.

    ``t`` is the transpose (1, 2, 0) of a C-contiguous (k, n - 1, n) stack
    whose row l holds z_l from column l, with zeros to its left, so row l
    is w_l once its head is set as in :func:`_plane_frames`.  With W the
    n x (n - 1) matrix of columns w_l, H_0 ... H_{n-2} = I - W T W^dagger
    (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989), where T
    is upper triangular with T[l, l] = tau_l and, by the zlarft column
    recurrence, T[:l, l] = -tau_l T[:l, :l] G[:l, l], G = W^dagger W.  The
    stack is W^T.  One batched GEMM gives G^T, whose row l, scaled by
    -tau_l, times the leading l x l block of -T^T gives row l of -T^T: one
    batched row-matrix product per l.  Two more GEMMs give F^T = I +
    (X^T (-T^T)) W^T, X = conj(W[:n - 1])^T, whose row j is column j of the
    product, -e^{-i phi_j} u_j.  The stack's heads are overwritten and the frames
    are a view of ``work``, which holds the complex conj W^T, G^T and -T^T
    of k samples (k (n - 1) (3 n - 2) numbers, allocated if None).  Each
    GEMM and each reduction runs sample by sample, so a sample's bits do
    not depend on k.
    """
    m, n, k = t.shape
    a = t.transpose(2, 0, 1)
    if work is None:
        work = np.empty(k * m * (3 * n - 2), dtype=complex)
    cw = work[:k * m * n].reshape(k, m, n)
    gt = work[k * m * n:k * m * (n + m)].reshape(k, m, m)
    low = work[k * m * (n + m):k * m * (n + 2 * m)].reshape(k, m, m)
    diag = np.arange(m)
    z0 = a[:, diag, diag]
    head = np.abs(z0)  # |z_l[0]|, then |z_l[0]| + |z_l|
    norm = np.sqrt(np.square(a.view(float), out=cw.view(float)).sum(axis=-1))  # |z_l|
    phase = np.divide(z0, head, out=np.ones_like(z0), where=head > 0)
    head += norm
    ntau = np.multiply(norm, head)
    np.divide(-1.0, ntau, out=ntau)
    a[:, diag, diag] = phase * head
    np.conjugate(a, out=cw)
    np.matmul(a, cw.swapaxes(-1, -2), out=gt)  # G^T
    gt *= ntau[:, :, None]
    low.fill(0.0)
    low[:, diag, diag] = ntau
    for l in range(1, m):
        np.matmul(gt[:, l:l + 1, :l], low[:, :l, :l], out=low[:, l:l + 1, :l])
    mt = np.matmul(cw[..., :m].swapaxes(-1, -2), low, out=gt)  # X^T (-T^T)
    f = np.matmul(mt, a, out=cw)
    f.reshape(k, m * n)[:, ::n + 1] += 1.0
    return f.transpose(1, 2, 0)


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


def reconstruct_mc(rho: DensityMatrix, spec, samples: int | list[int], seed) -> np.ndarray:
    """Monte-Carlo orbit-integral reconstruction, (N / samples) sum_k w_k O_k.

    The sum runs over Haar orbit points O_k = U_k D U_k^dagger with pairings
    w_k = tr(rho O_k), and converges to rho at the O(1/sqrt(samples)) rate.
    Since tr D = 1, its trace (N / samples) sum_k w_k is the Monte-Carlo
    phase-space integral of the Wigner function, which converges to tr(rho)
    = 1: the finite-norm axiom under the total-measure-N convention.
    Deterministic given ``seed``.

    ``samples`` is a count, which gives one (N, N) estimate, or a ladder of
    counts, which gives a (len(samples), N, N) stack of estimates in the
    order given: rung S_i is the estimate from the first S_i samples of one
    stream, so the ladder draws max(samples) samples, and a repeated count
    gives identical estimates.  The loop closes a chunk at every rung, so
    the smallest rung equals its own call bit for bit and the others equal
    theirs to roundoff.

    The columns u_j of U are complete, sum_j u_j u_j^dagger = I, so

        O = d_n I + sum_{j<n} (d_j - d_n) u_j u_j^dagger,

    and the last column of U is never formed.  If U is replaced by U Lambda,
    Lambda any diagonal unitary, O does not change, since Lambda commutes
    with D; so no phase fix or det = 1 fix is applied.

    Every sample draws n^2 + n - 2 standard normals: the (re, im) pairs of
    z_0, ..., z_{n-2}, of lengths n, n - 1, ..., 2, in that order, a
    sample's normals contiguous in a reused chunk of k =
    ``_MC_CHUNK_BYTES`` // (16 n^2) samples, so the stream does not depend
    on the chunk.  Householder QR of a Ginibre matrix takes reflector j
    from a vector that, by unitary invariance, is a CN(0, I_{n-j}) draw
    independent of the earlier ones (Stewart, SIAM J. Numer. Anal. 17,
    1980), so the product H_0 ... H_{n-2} of the reflectors of these
    vectors is a Haar U times a diagonal unitary (Mezzadri,
    math-ph/0609050, section 5).  Each z_j is copied once into rows j, ...,
    n - 1 of plane j of a reused sample-last (n - 1, n, k) stack, and
    :func:`_orbit_frames` builds the frames from it; the ``_PLANES_MAX_N``
    cut picks how, and how they meet rho.

    Up to the cut the stack is C-contiguous and :func:`_plane_frames` builds
    u_j = H_0 ... H_{j-1} (z_j / |z_j|) in place.  No orbit point is formed:
    one GEMM per plane, P_j = rho U_j, written into the spent draw, gives
    x_j = Re sum_i conj(U_j[i]) P_j[i] = u_j^dagger rho u_j for every
    sample, so w = d_n tr(rho) + sum_j (d_j - d_n) x_j; then
    C_j = conj(U_j) w (d_j - d_n), in the same buffer, and one GEMM per
    plane adds sum_j U_j C_j^T, which is sum_k w_k O_k less d_n (sum_k w_k) I.
    The stages are the draw, the copy into planes, the frames, the pairing
    GEMMs and the accumulating GEMMs: 225-260, 10-15, 95-117, 54-63 and
    41-50 ns a sample at n = 4 (one BLAS thread, 2-vCPU Xeon).

    Above the cut the stack is the transpose of a (k, n - 1, n) one, whose
    row j holds z_j from column j and zeros, written each chunk, to its
    left.  :func:`_wy_frames` builds the frames -e^{-i phi_j} u_j as
    columns of the compact-WY product I - W T W^dagger from batched GEMMs,
    in a workspace allocated once per call.  The orbit stack of
    U' diag(d_j - d_n) U'^dagger is formed in the spent stack, with
    conj(U') diag(d_j - d_n) in the spent draw, and paired by two
    matrix-vector products on its (k, n^2) view.  At n = 32 a sample takes
    53-56 us: 12.5-13 to draw, 30-31.5 for the frames and about 11 for the
    copy, the orbit stack and the pairing (one BLAS thread, 2-vCPU Xeon).
    """
    ladder = np.ndim(samples) > 0
    counts = list(samples) if ladder else [samples]
    if not counts or min(counts) < 1:
        raise ValueError("samples must be >= 1")
    n = rho.dim
    pi = _spectrum_values(spec, n)
    shift = pi[:-1] - pi[-1]
    base = pi[-1] * np.trace(rho.mat).real
    rho_t = rho.mat.T.reshape(-1)  # tr(rho O) = vec(O) . vec(rho^T)
    rng = np.random.default_rng(seed)
    step = min(max(counts), max(1, _MC_CHUNK_BYTES // (16 * n * n)))
    planes = n <= _PLANES_MAX_N
    drawn = (n * n + n - 2) // 2  # complex normals a sample
    draw = np.empty(step * (n - 1) * n, dtype=complex)  # the draw, then products or conj frames
    spare = np.empty(step * (n - 1) * n if planes else step * n * n,
                     dtype=complex)  # the planes, or the stack and then the orbit stack
    work = None if planes else np.empty(step * (n - 1) * (3 * n - 2), dtype=complex)
    acc = np.zeros((n, n), dtype=complex)
    total = 0.0
    rungs, done = {}, 0
    for stop in sorted(set(counts)):  # one stream: each rung closes a chunk and keeps a copy
        for start in range(done, stop, step):
            k = min(step, stop - start)
            g = draw[:k * drawn].reshape(k, drawn)
            rng.standard_normal(out=g.view(float))
            u = spare[:k * (n - 1) * n]
            u = u.reshape(n - 1, n, k) if planes else u.reshape(k, n - 1, n).transpose(1, 2, 0)
            first = 0
            for j in range(n - 1):  # z_j into rows j, ..., n - 1 of plane j
                np.copyto(u[j, j:], g[:, first:first + n - j].T)
                if not planes:
                    u[j, :j] = 0.0
                first += n - j
            u = _orbit_frames(u, work)
            if planes:
                p = np.matmul(rho.mat, u, out=draw[:u.size].reshape(u.shape))  # the draw is spent
                # x_j = Re sum_i conj(U_j[i]) P_j[i], summed from the float views.
                pf = np.multiply(p.view(float), u.view(float), out=p.view(float))
                x = pf[:, 0, 0::2] + pf[:, 0, 1::2]
                for i in range(1, n):
                    x += pf[:, i, 0::2]
                    x += pf[:, i, 1::2]
                w = base + shift @ x
                np.conjugate(u, out=p)
                p *= (shift[:, None] * w)[:, None, :]
                acc += np.matmul(u, p.swapaxes(-1, -2)).sum(axis=0)
            else:
                f = u.transpose(2, 0, 1)
                uc = np.conjugate(f, out=draw[:f.size].reshape(f.shape))  # the draw is spent
                uc *= shift[:, None]
                orbit = spare[:k * n * n].reshape(k, n, n)  # so is the stack
                orbit = np.matmul(f.swapaxes(-1, -2), uc, out=orbit).reshape(k, n * n)
                w = base + (orbit @ rho_t).real
                acc += (w @ orbit).reshape(n, n)
            total += w.sum()
        done = stop
        est = acc.copy()
        est.reshape(-1)[::n + 1] += pi[-1] * total
        rungs[stop] = n * est / stop
    return np.stack([rungs[s] for s in counts]) if ladder else rungs[samples]


@dataclass(frozen=True)
class MasterReport:
    """Residual report for the master equations at dimension n, judged (``hermitian`` and
    :meth:`ok`) at the ``tol`` it was built with."""

    hermitian: bool
    hermiticity_defect: float
    trace_residual: float
    purity_residual: float
    tol: float

    def ok(self) -> bool:
        return (self.hermiticity_defect <= self.tol
                and self.trace_residual <= self.tol
                and self.purity_residual <= self.tol)

    def as_dict(self) -> dict:
        # Wire-format fields: the tolerance is the caller's, not part of the report schema.
        return {k: v for k, v in asdict(self).items() if k != "tol"}


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
        tol=tol,
    )
