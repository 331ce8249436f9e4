"""Dense complex Hermitian eigensolver.

Self-contained two-stage reduction, no LAPACK eigenroutine involved:

1. Householder similarity transformations bring the Hermitian matrix to
   tridiagonal form, PANEL reflectors at a time as in LAPACK's zhetrd: within
   a panel each column is brought up to date from the panel's reflectors
   when it is reached, and the trailing matrix takes the whole panel as one
   rank-2*PANEL product.  A diagonal phase rotation then makes the
   off-diagonal real and nonnegative.  With eigenvectors requested, the
   reduction keeps its reflectors, scaled to unit norm; once stage 2 is done
   they are applied to its accumulator, one panel per compact-WY product as
   in zunmtr (the back-transform), so the Householder unitary is never
   formed.  A matrix whose largest entry lies outside [2**-500, 2**500] is
   first scaled by an exact power of two, and its eigenvalues scaled back,
   as LAPACK's zheev does.
2. Implicit-shift QL iteration (Wilkinson shift) diagonalizes the real
   symmetric tridiagonal matrix.  When eigenvectors are requested, each
   sweep's plane rotations are multiplied, up to ROTATION_BLOCK at a time,
   into real transforms that update a real orthogonal accumulator, one
   matrix product per block.

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

#: Householder reflectors per panel.  A panel's rank-2 updates reach the
#: trailing matrix as one product, and its reflectors reach the eigenvectors as
#: one compact-WY transform.
PANEL = 32

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
    """Householder reduction of A to tridiagonal form, in panels of PANEL columns.

    Returns (diag, offdiag >= 0, reflectors).  A is overwritten.  Reflector j
    is H_j = I - 2 u_j u_j^H with u_j of unit norm in rows j+1.., and
    Q = H_0 H_1 ... H_{n-3} diag(phases) takes the tridiagonal back to A.
    reflectors is None unless want_vectors; then it is (phases, panels) for
    _back_transform, where each panel is (r0, V) with the panel's u_j as the
    columns of V over rows r0..  A skipped reflector is a zero column.

    Within a panel the reflectors' rank-2 updates are not applied: each
    column is brought up to date from the panel's (V, W) when it is reached,
    and p = A u - V (W^H u) - W (V^H u) stands in for the updated A u.  The
    trailing matrix takes all of them at once when the panel ends, as one
    rank-2*PANEL product.
    """
    n = A.shape[0]
    tiny = sys.float_info.min
    # reflector k of a panel is stored in column PANEL-1-k and its w in column
    # PANEL+k, so the panel's first k pairs fill the contiguous columns
    # [PANEL-k, PANEL+k), and reversing those columns pairs each u with its w
    work = np.empty((n, 2 * PANEL), dtype=np.complex128)
    panels = [] if want_vectors else None
    for j0 in range(0, n - 2, PANEL):
        j1 = min(j0 + PANEL, n - 2)
        work[j0:] = 0.0
        for k, j in enumerate(range(j0, j1)):
            col = A[j:, j]
            if k:
                pairs = work[j:, PANEL - k:PANEL + k]
                col -= pairs @ pairs[0, ::-1].conj()
            x = col[1:]
            xnorm = math.sqrt(np.vdot(x, x).real)
            x0 = complex(x[0])
            ax0 = abs(x0)
            # ||x - alpha e_0||^2 with alpha = -phase * ||x||, without cancellation
            vnorm2 = 2.0 * xnorm * (xnorm + ax0)
            if vnorm2 < tiny:
                # nothing to annihilate, or 1/||v|| would overflow: the column
                # below the subdiagonal is under 1e-154 and is dropped, within
                # the residual contract
                continue
            phase = x0 / ax0 if ax0 else 1.0
            vnorm = math.sqrt(vnorm2)
            u = work[j + 1:, PANEL - 1 - k]
            np.multiply(x, 1.0 / vnorm, out=u)
            u[0] = phase * ((ax0 + xnorm) / vnorm)
            col[1] = -phase * xnorm
            p = A[j + 1:, j + 1:] @ u
            if k:
                pairs = work[j + 1:, PANEL - k:PANEL + k]
                p -= pairs @ (u.conj() @ pairs).conj()[::-1]
            p *= 2.0
            w = work[j + 1:, PANEL + k]
            np.multiply(u, -np.vdot(u, p), out=w)
            w += p
        nb = j1 - j0
        pairs = work[j1:, PANEL - nb:PANEL + nb]
        A[j1:, j1:] -= pairs @ pairs[:, ::-1].conj().T
        if panels is not None:
            panels.append((j0 + 1, work[j0 + 1:, PANEL - nb:PANEL][:, ::-1].copy()))
    d = A.diagonal().real.copy()
    e = A.diagonal(-1).copy()
    if not want_vectors:
        return d, np.abs(e), None
    # rotate residual phases into the basis so the off-diagonal is |e_j|; a
    # subnormal |e_j| would overflow the division and is zero to working
    # precision anyway, so the phase carries over unchanged
    phases = [1.0 + 0.0j] * n
    for j, e_j in enumerate(e.tolist()):
        mag = abs(e_j)
        phases[j + 1] = (e_j * phases[j]) / mag if mag >= tiny else phases[j]
    return d, np.abs(e), (np.array(phases, dtype=np.complex128), panels)


def _back_transform(reflectors, Z: np.ndarray) -> np.ndarray:
    """Q Z for the unitary Q = H_0 H_1 ... diag(phases) that _tridiagonalize stored.

    The product of a panel's reflectors is I - V T V^H in compact-WY form,
    with T from V's Gram matrix by the UT transform
    T^-1 = striu(V^H V) + diag(V^H V) / 2; a skipped reflector's zero column
    gets pivot 1.  The panels are applied last first, so Q is never formed.
    """
    phases, panels = reflectors
    X = phases[:, np.newaxis] * Z
    for r0, V in reversed(panels):
        gram = V.conj().T @ V
        pivots = gram.diagonal().real / 2.0
        T_inv = np.triu(gram, 1)
        np.fill_diagonal(T_inv, np.where(pivots == 0.0, 1.0, pivots))
        X[r0:] -= V @ np.linalg.solve(T_inv, V.conj().T @ X[r0:])
    return X


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
    d, e, reflectors = _tridiagonalize(work, want_vectors)
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
    vectors = _back_transform(reflectors, Zt[order].T) if want_vectors else None
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
