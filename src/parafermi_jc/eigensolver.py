"""Dense complex Hermitian eigensolver.

Self-contained two-stage reduction, no LAPACK eigenroutine involved:

1. Householder similarity transformations bring the Hermitian matrix to
   tridiagonal form; a diagonal phase rotation then makes the off-diagonal
   real and nonnegative.
2. Implicit-shift QL iteration (Wilkinson shift) diagonalizes the real
   symmetric tridiagonal matrix, with the plane rotations accumulated into
   the unitary transform when eigenvectors are requested.

Contracts: eigenvalues ascending; when vectors are requested, per-pair
residual ||H v - lambda v|| <= 1e-10 * (1 + max|H| * dim) and orthonormality
to 1e-10.  The QL stage is capped at 64 * dim implicit-shift sweeps; beyond
the cap a ConvergenceError names the matrix size (in practice a handful of
sweeps per eigenvalue suffice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, ParameterError

#: Hermiticity tolerance for accepting a matrix, relative to max(1, max|H|).
HERMITICITY_RTOL = 1e-12

#: Residual/orthonormality contract for returned eigenpairs.
RESIDUAL_RTOL = 1e-10

#: Implicit-shift sweeps allowed per matrix dimension before giving up.
MAX_SWEEPS_PER_DIM = 64


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending) and, optionally, the unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        if self.eigenvectors is not None:
            self.eigenvectors.flags.writeable = False


def _require_hermitian(H: np.ndarray) -> np.ndarray:
    """H as a complex array, once it is known to be square, finite and Hermitian.

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
    return A


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


def _ql_implicit_shift(d: np.ndarray, e: np.ndarray, Q: Optional[np.ndarray]):
    """Wilkinson-shifted QL on the tridiagonal (d, e); rotations go into Q's columns."""
    n = d.size
    d = d.copy()
    e = np.concatenate([e, [0.0]])
    eps = np.finfo(np.float64).eps
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
            r = np.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s_rot, c_rot, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f = s_rot * e[i]
                b = c_rot * e[i]
                r = np.hypot(f, g)
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
                if Q is not None:
                    col_i = Q[:, i].copy()
                    col_next = Q[:, i + 1].copy()
                    Q[:, i + 1] = s_rot * col_i + c_rot * col_next
                    Q[:, i] = c_rot * col_i - s_rot * col_next
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d, Q


def eigendecompose(H: np.ndarray, want_vectors: bool = False) -> Spectrum:
    """Eigendecompose a dense complex Hermitian matrix.

    Raises ParameterError for non-square, non-finite or non-Hermitian input
    and ConvergenceError if the QL stage exceeds its sweep cap.
    """
    A = _require_hermitian(H)
    d, e, Q = _tridiagonalize(A.copy(), want_vectors)
    d, Q = _ql_implicit_shift(d, e, Q)
    order = np.argsort(d, kind="stable")
    values = d[order]
    vectors = Q[:, order] if Q is not None else None
    return Spectrum(values, vectors)


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
