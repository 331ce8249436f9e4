"""Dense complex Hermitian eigensolver.

Self-contained two-stage reduction, no LAPACK eigenroutine involved:

1. Householder similarity transformations bring the Hermitian matrix to
   tridiagonal form; a diagonal phase rotation then makes the off-diagonal
   real and nonnegative.  A matrix whose largest entry lies outside
   [2**-500, 2**500] is first scaled by an exact power of two, and its
   eigenvalues scaled back, as LAPACK's zheev does.
2. Implicit-shift QL iteration (Wilkinson shift) diagonalizes the real
   symmetric tridiagonal matrix.  When eigenvectors are requested, each
   sweep's plane rotations are multiplied, up to ROTATION_BLOCK at a time,
   into real transforms that update a real orthogonal accumulator, one
   matrix product per block; the eigenvectors are the Householder unitary
   times that accumulator.

Contracts: eigenvalues ascending; when vectors are requested, per-pair
residual ||H v - lambda v|| <= 1e-10 * (1 + max|H| * dim) and orthonormality
to 1e-10.  The QL stage is capped at 64 * dim implicit-shift sweeps; beyond
the cap a ConvergenceError names the matrix size (in practice a handful of
sweeps per eigenvalue suffice).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, NumericalError, ParameterError

#: Hermiticity tolerance for accepting a matrix, relative to max(1, max|H|).
HERMITICITY_RTOL = 1e-12

#: Residual/orthonormality contract for returned eigenpairs.
RESIDUAL_RTOL = 1e-10

#: Implicit-shift sweeps allowed per matrix dimension before giving up.
MAX_SWEEPS_PER_DIM = 64

#: Rotations multiplied into one transform.  A sweep's chain of K rotations is
#: applied in blocks of this many, one matrix product each, so accumulating it
#: costs O(K * ROTATION_BLOCK * dim) flops instead of O(K^2 * dim).
ROTATION_BLOCK = 32

#: Strictly lower triangle of the largest block transform.
_BLOCK_LOWER = np.tri(ROTATION_BLOCK + 1, ROTATION_BLOCK + 1, -1, dtype=bool)

#: The Householder stage takes a matrix unscaled when its largest entry lies in
#: [2**-SAFE_EXPONENT, 2**SAFE_EXPONENT]; otherwise it is scaled into [0.5, 1).
SAFE_EXPONENT = 500


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending), optionally the unitary of column eigenvectors,
    and the number of QL implicit-shift sweeps the solve took."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None
    sweeps: int = 0

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        if self.eigenvectors is not None:
            self.eigenvectors.flags.writeable = False


def _require_hermitian(H: np.ndarray) -> tuple[np.ndarray, float]:
    """H as a complex array, and max|H|, once H is known to be square, finite and Hermitian.

    The package's one Hermiticity check: the eigensolver and block assembly
    both call it.  Raises ParameterError otherwise.
    """
    A = np.asarray(H, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParameterError(f"matrix must be square, got shape {A.shape}")
    peak = float(np.max(np.abs(A))) if A.size else 0.0
    if not math.isfinite(peak):
        raise ParameterError("matrix has non-finite entries")
    dev = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
    if dev > HERMITICITY_RTOL * max(1.0, peak):
        raise ParameterError(f"matrix is not Hermitian: max|H - H^dag| = {dev:.3e}")
    return A, peak


def _tridiagonalize(A: np.ndarray, want_vectors: bool):
    """In-place Householder reduction; returns (diag, offdiag >= 0, Q or None)."""
    n = A.shape[0]
    Q = np.eye(n, dtype=np.complex128) if want_vectors else None
    tiny = np.finfo(np.float64).tiny
    for j in range(n - 2):
        x = A[j + 1:, j].copy()
        xnorm = np.linalg.norm(x)
        if xnorm == 0.0:
            continue
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        alpha = -phase * xnorm
        v = x
        v[0] -= alpha
        vnorm2 = np.real(np.vdot(v, v))
        if vnorm2 < tiny:
            # 2/vnorm2 would overflow; the column below the subdiagonal is
            # under 1e-154 and is dropped, within the residual contract
            continue
        tau = 2.0 / vnorm2
        sub = A[j + 1:, j + 1:]
        p = tau * (sub @ v)
        w = p - (0.5 * tau * np.vdot(v, p)) * v
        sub -= np.outer(w, v.conj())
        sub -= np.outer(v, w.conj())
        A[j + 1, j] = alpha
        if Q is not None:
            Qv = Q[:, j + 1:] @ v
            Q[:, j + 1:] -= tau * np.outer(Qv, v.conj())
    d = np.real(np.diag(A)).copy()
    e = np.diag(A, -1).copy()
    # rotate residual phases into the basis so the off-diagonal is |e_j|; a
    # subnormal |e_j| would overflow the division and is zero to working
    # precision anyway, so the phase carries over unchanged
    s = np.ones(n, dtype=np.complex128)
    for j in range(n - 1):
        mag = abs(e[j])
        s[j + 1] = (e[j] * s[j]) / mag if mag >= tiny else s[j]
    if Q is not None:
        Q *= s[np.newaxis, :]
    return d, np.abs(e).astype(np.float64), Q


def _sweep_transform(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The K x K product G_0 G_1 ... G_{K-2} of K - 1 <= ROTATION_BLOCK plane rotations.

    G_j = [[c_j, -s_j], [s_j, c_j]] acts on rows (j, j+1), and the sweep
    applies G_{K-2} first.  Column k of the product is therefore
    c_k e_k + s_k e_{k+1} carried up through G_{k-1}, ..., G_0:
    P[k+1, k] = s_k and, for i <= k,
    P[i, k] = c_{i-1} (-s_i) (-s_{i+1}) ... (-s_{k-1}) c_k with c_{-1} = c_{K-1} = 1.
    Row i's running products come from one cumprod, without division; an
    entry that underflows is below anything the transform can resolve.
    """
    K = s.size + 1
    P = np.empty((K, K))
    P[0, 0] = 1.0
    P[1:, 0] = c
    P[:, 1:] = -s
    np.copyto(P[:, 1:], 1.0, where=_BLOCK_LOWER[:K, :K - 1])
    np.cumprod(P, axis=1, out=P)
    np.copyto(P, 0.0, where=_BLOCK_LOWER[:K, :K])
    P[:, :-1] *= c
    P.flat[K::K + 1] = s
    return P


def _ql_implicit_shift(d: list, e: list, Zt: Optional[np.ndarray]) -> int:
    """Wilkinson-shifted QL on the tridiagonal (d, e), in place; returns the sweep count.

    d and e are Python float lists (len(e) == len(d) - 1): the scalar chain
    runs faster on them than on numpy scalars.  Each sweep's rotations are
    recorded and, when Zt is given, applied to its rows once the sweep ends,
    ROTATION_BLOCK rotations per real matrix product.
    """
    n = len(d)
    e.append(0.0)
    eps = sys.float_info.epsilon
    sweeps = 0
    cap = MAX_SWEEPS_PER_DIM * max(n, 1)
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > cap:
                raise ConvergenceError(
                    f"eigensolver exceeded {cap} implicit-shift sweeps on a {n}x{n} matrix"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s_rot, c_rot, p = 1.0, 1.0, 0.0
            s_seq, c_seq = [], []
            for i in range(m - 1, l - 1, -1):
                f = s_rot * e[i]
                b = c_rot * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s_rot = f / r
                c_rot = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s_rot + 2.0 * c_rot * b
                p = s_rot * r
                d[i + 1] = g + p
                g = c_rot * r - b
                s_seq.append(s_rot)
                c_seq.append(c_rot)
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
            if Zt is not None and s_seq:
                # rotation j of s_arr acts on rows lo + j and lo + j + 1; the
                # sweep made the highest j first, so blocks go bottom up
                lo = m - len(s_seq)
                s_arr, c_arr = np.array(s_seq[::-1]), np.array(c_seq[::-1])
                for stop in range(len(s_seq), 0, -ROTATION_BLOCK):
                    start = max(stop - ROTATION_BLOCK, 0)
                    rows = slice(lo + start, lo + stop + 1)
                    P = _sweep_transform(s_arr[start:stop], c_arr[start:stop])
                    Zt[rows] = P @ Zt[rows]
    return sweeps


def eigendecompose(H: np.ndarray, want_vectors: bool = False) -> Spectrum:
    """Eigendecompose a dense complex Hermitian matrix.

    Raises ParameterError for non-square, non-finite or non-Hermitian input,
    NumericalError if the tridiagonal stage or the eigenvalues leave the
    float range, and ConvergenceError if the QL stage exceeds its sweep cap.
    """
    A, peak = _require_hermitian(H)
    n = A.shape[0]
    # like LAPACK's zheev, scale extreme matrices by an exact power of two so
    # the Householder norms neither overflow nor drop columns that underflow;
    # at ordinary magnitudes the bits are those of the unscaled solve
    exponent = math.frexp(peak)[1]
    if abs(exponent) <= SAFE_EXPONENT:
        exponent = 0
    work = A.copy()
    if exponent:
        parts = work.view(np.float64)
        np.ldexp(parts, -exponent, out=parts)
    d, e, Q = _tridiagonalize(work, want_vectors)
    levels, off = d.tolist(), e.tolist()
    # entries of the scaled tridiagonal are at most n * 2**500, so their sum is
    # finite exactly when every entry is
    if not math.isfinite(sum(levels) + sum(off)):
        raise NumericalError(
            f"Householder tridiagonalization of a {n}x{n} matrix left non-finite entries"
        )
    Zt = np.eye(n) if want_vectors else None
    sweeps = _ql_implicit_shift(levels, off, Zt)
    d = np.array(levels)
    order = np.argsort(d, kind="stable")
    values = d[order]
    if exponent:
        with np.errstate(over="ignore"):
            values = np.ldexp(values, exponent)
        if not np.isfinite(values).all():
            raise NumericalError(f"eigenvalues of a {n}x{n} matrix exceed the float range")
    vectors = Q @ Zt[order].T if want_vectors else None
    return Spectrum(values, vectors, sweeps)


def eigenvalues_only(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues without the eigenvector accumulation cost."""
    return eigendecompose(H, want_vectors=False).eigenvalues


def cluster_eigenvalues(values: np.ndarray, scale_tol: float = 1e-8):
    """Group an ascending eigenvalue sequence into near-degenerate clusters.

    Two neighbours belong to one cluster when their gap is below
    scale_tol * (1 + |value|).  Returns a list of (mean value, multiplicity).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return []
    clusters = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > scale_tol * (1.0 + abs(values[i])):
            group = values[start:i]
            clusters.append((float(np.mean(group)), int(group.size)))
            start = i
    return clusters
