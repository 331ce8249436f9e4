"""Dense complex Hermitian eigensolver.

Self-contained two-stage reduction, no LAPACK eigenroutine involved.  Every
stage takes a (G, d, d) stack of matrices; a single matrix is a stack of one.

1. Householder similarity transformations bring each Hermitian matrix to
   tridiagonal form, PANEL reflectors at a time as in LAPACK's zhetrd: within
   a panel each column is brought up to date from the panel's reflectors
   when it is reached, and the trailing matrix takes the whole panel as one
   rank-2*PANEL product.  A diagonal phase rotation then makes the
   off-diagonal real and nonnegative.  With eigenvectors requested, the
   reduction keeps its reflectors, scaled to unit norm; once stage 2 is done
   they are applied to the tridiagonal's eigenvectors, one panel per
   compact-WY product as in zunmtr (the back-transform), so the Householder
   unitary is never formed.  A matrix whose largest entry lies outside
   [2**-500, 2**500] is first scaled by an exact power of two, and its
   eigenvalues scaled back, as LAPACK's zheev does.
2. Implicit-shift QL iteration (Wilkinson shift) finds the eigenvalues of
   each real symmetric tridiagonal matrix, one matrix at a time on Python
   floats.  When eigenvectors are requested, inverse iteration on the
   tridiagonal finds them, as LAPACK's dstein does, for all G*d eigenvalues
   of the stack at once: each eigenvalue is its own shift, T - lambda I is
   factored with partial pivoting for every shift in one loop over the rows,
   and INVERSE_SOLVES solves from a fixed start follow.  Neighbouring
   eigenvalues closer than CLUSTER_RTOL * ||T||_1 form a cluster, and those
   closer than GROUP_RTOL * ||T||_1 a group.  A QR factorization
   orthonormalizes each group after every solve but the last, and each
   cluster, in ascending order, after the last.  T is split at zero
   off-diagonals.

Contracts: eigenvalues ascending; when vectors are requested, per-pair
residual ||H v - lambda v|| <= 1e-10 * (1 + max|H| * dim) and orthonormality
to 1e-10.  The QL stage is capped at 64 * dim implicit-shift sweeps per
matrix; beyond the cap a ConvergenceError names the matrix size (in practice
a handful of sweeps per eigenvalue suffice).  A NumericalError raised for one
matrix of a stack carries that matrix's position as its ``index``.
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

#: Householder reflectors per panel.  A panel's rank-2 updates reach the
#: trailing matrix as one product, and its reflectors reach the eigenvectors as
#: one compact-WY transform.
PANEL = 32

#: The Householder stage takes a matrix unscaled when its largest entry lies in
#: [2**-SAFE_EXPONENT, 2**SAFE_EXPONENT]; otherwise it is scaled into [0.5, 1).
SAFE_EXPONENT = 500

#: Inverse-iteration solves per eigenvector.  Each shrinks the components along
#: the other eigenvectors by a factor of about eps / CLUSTER_RTOL outside the
#: vector's cluster, and eps / GROUP_RTOL outside its group.
INVERSE_SOLVES = 3

#: Neighbouring eigenvalues closer than this times ||T||_1 share a cluster, and
#: their vectors are orthogonalized against each other (dstein's ORTOL).
CLUSTER_RTOL = 1e-3

#: Neighbouring eigenvalues closer than this times ||T||_1 form a group, whose
#: vectors are orthonormalized together after every solve but the last: solves
#: this close in shift barely separate them, so they would turn into one vector.
GROUP_RTOL = 1e-12



@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending), optionally the unitary of column eigenvectors,
    and the number of QL implicit-shift sweeps the solve took.

    For a (G, d, d) stack, eigenvalues is (G, d), eigenvectors (G, d, d) and
    sweeps the total over the stack.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None
    sweeps: int = 0

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        if self.eigenvectors is not None:
            self.eigenvectors.flags.writeable = False


def _require_hermitian(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H as a complex array, and max|H| per matrix, once H is known to be a
    square matrix or a stack of them, finite and Hermitian.

    The package's one Hermiticity check: the eigensolver and block assembly
    both call it.  Raises ParameterError otherwise.
    """
    A = np.asarray(H, dtype=np.complex128)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ParameterError(f"matrix must be square, got shape {A.shape}")
    peak = np.max(np.abs(A), axis=(-2, -1), initial=0.0)
    if not np.isfinite(peak).all():
        raise ParameterError("matrix has non-finite entries")
    dev = np.max(np.abs(A - A.conj().swapaxes(-1, -2)), axis=(-2, -1), initial=0.0)
    if (dev > HERMITICITY_RTOL * np.maximum(1.0, peak)).any():
        raise ParameterError(f"matrix is not Hermitian: max|H - H^dag| = {np.max(dev):.3e}")
    return A, peak


def _mv(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for stacks of matrices and vectors."""
    return (M @ v[..., np.newaxis])[..., 0]


def _vh(u: np.ndarray, M: np.ndarray) -> np.ndarray:
    """u^H M for stacks of vectors and matrices."""
    return (u.conj()[..., np.newaxis, :] @ M)[..., 0, :]


def _tridiagonalize(A: np.ndarray, want_vectors: bool):
    """Householder reduction of each matrix of A to tridiagonal form, in panels of PANEL columns.

    A is one matrix or a stack of them, and is overwritten.  Returns (diag,
    offdiag >= 0, reflectors), with a leading stack axis when A has one.
    Reflector j is H_j = I - 2 u_j u_j^H with u_j of unit norm in rows j+1..,
    and Q = H_0 H_1 ... H_{n-3} diag(phases) takes the tridiagonal back to A.
    reflectors is None unless want_vectors; then it is (phases, panels) for
    _back_transform, where each panel is (r0, V) with the panel's u_j as the
    columns of V over rows r0..  A skipped reflector is a zero column.

    Within a panel the reflectors' rank-2 updates are not applied: each
    column is brought up to date from the panel's (V, W) when it is reached,
    and p = A u - V (W^H u) - W (V^H u) stands in for the updated A u.  The
    trailing matrix takes all of them at once when the panel ends, as one
    rank-2*PANEL product.
    """
    n = A.shape[-1]
    stack = A.shape[:-2]
    tiny = sys.float_info.min
    # reflector k of a panel is stored in column PANEL-1-k and its w in column
    # PANEL+k, so the panel's first k pairs fill the contiguous columns
    # [PANEL-k, PANEL+k), and reversing those columns pairs each u with its w
    work = np.empty(stack + (n, 2 * PANEL), dtype=np.complex128)
    zeros = np.zeros(stack)
    panels = [] if want_vectors else None
    for j0 in range(0, n - 2, PANEL):
        j1 = min(j0 + PANEL, n - 2)
        work[..., j0:, :] = 0.0
        for k, j in enumerate(range(j0, j1)):
            col = A[..., j:, j]
            if k:
                pairs = work[..., j:, PANEL - k:PANEL + k]
                col -= _mv(pairs, pairs[..., 0, ::-1].conj())
            x = col[..., 1:]
            xnorm = np.sqrt(_vh(x, x[..., np.newaxis])[..., 0].real)
            x0 = x[..., 0].copy()
            ax0 = np.abs(x0)
            # ||x - alpha e_0||^2 with alpha = -phase * ||x||, without cancellation
            vnorm2 = 2.0 * xnorm * (xnorm + ax0)
            # a matrix with nothing to annihilate, or whose 1/||v|| would
            # overflow, skips this reflector: the column below its subdiagonal
            # is under 1e-154 and is dropped, within the residual contract
            keep = vnorm2 >= tiny
            # x0 / |x0| part by part: numpy's complex division overflows when
            # |x0| is subnormal
            phase = np.ones_like(x0)
            np.divide(x0[..., np.newaxis].view(np.float64), ax0[..., np.newaxis],
                      out=phase[..., np.newaxis].view(np.float64),
                      where=ax0[..., np.newaxis] > 0.0)
            vnorm = np.sqrt(vnorm2)
            u = work[..., j + 1:, PANEL - 1 - k]
            inv = np.divide(1.0, vnorm, out=zeros.copy(), where=keep)
            np.multiply(x, inv[..., np.newaxis], out=u)
            u[..., 0] = phase * np.divide(ax0 + xnorm, vnorm, out=zeros.copy(), where=keep)
            col[..., 1] = np.where(keep, -phase * xnorm, x0)
            p = _mv(A[..., j + 1:, j + 1:], u)
            if k:
                pairs = work[..., j + 1:, PANEL - k:PANEL + k]
                p -= _mv(pairs, _vh(u, pairs).conj()[..., ::-1])
            p *= 2.0
            w = work[..., j + 1:, PANEL + k]
            np.multiply(u, -_vh(u, p[..., np.newaxis]), out=w)
            w += p
        nb = j1 - j0
        pairs = work[..., j1:, PANEL - nb:PANEL + nb]
        A[..., j1:, j1:] -= pairs @ pairs[..., ::-1].conj().swapaxes(-1, -2)
        if panels is not None:
            panels.append((j0 + 1, work[..., j0 + 1:, PANEL - nb:PANEL][..., ::-1].copy()))
    d = np.diagonal(A, axis1=-2, axis2=-1).real.copy()
    e = np.diagonal(A, -1, axis1=-2, axis2=-1)
    mag = np.abs(e)
    if not want_vectors:
        return d, mag, None
    # rotate residual phases into the basis so the off-diagonal is |e_j|; a
    # subnormal |e_j| would overflow the division and is zero to working
    # precision anyway, so the phase carries over unchanged
    unit = np.divide(e, mag, out=np.ones_like(e), where=mag >= tiny)
    phases = np.concatenate([np.ones(stack + (1,), dtype=np.complex128),
                             np.cumprod(unit, axis=-1)], axis=-1)
    return d, mag, (phases, panels)


def _back_transform(reflectors, Z: np.ndarray) -> np.ndarray:
    """Q Z for the unitary Q = H_0 H_1 ... diag(phases) that _tridiagonalize stored.

    The product of a panel's reflectors is I - V T V^H in compact-WY form,
    with T from V's Gram matrix by the UT transform
    T^-1 = striu(V^H V) + diag(V^H V) / 2; a skipped reflector's zero column
    gets pivot 1.  The panels are applied last first, so Q is never formed.
    """
    phases, panels = reflectors
    X = phases[..., :, np.newaxis] * Z
    for r0, V in reversed(panels):
        nb = V.shape[-1]
        C = V.conj().swapaxes(-1, -2)
        T_inv = C @ V
        pivots = np.diagonal(T_inv, axis1=-2, axis2=-1).real / 2.0
        T_inv *= np.tri(nb, nb, -1, dtype=bool).T
        T_inv[..., np.arange(nb), np.arange(nb)] = np.where(pivots == 0.0, 1.0, pivots)
        C = np.linalg.solve(T_inv, C)
        X[..., r0:, :] -= V @ (C @ X[..., r0:, :])
    return X


def _ql_implicit_shift(d: list, e: list) -> int:
    """Wilkinson-shifted QL on the tridiagonal (d, e), in place; returns the sweep count.

    d and e are Python float lists (len(e) == len(d) - 1): the scalar chain
    runs faster on them than on numpy scalars.  A sweep never crosses an
    off-diagonal that is zero on entry, so d[i] ends as an eigenvalue of the
    unreduced block that holds row i.
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
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return sweeps


def _factor_shifted(a: np.ndarray, b: np.ndarray):
    """T - sigma I = P L U for many shifts at once, with partial pivoting (dgttrf).

    a (n, S) holds each column's diagonal of T - sigma I and b (n - 1, S) its
    nonnegative off-diagonal; both are overwritten.  Returns (swap, mult, u0,
    u1, u2): row k is exchanged with row k + 1 where swap[k], mult[k] is the
    multiplier that eliminates row k + 1, and U has diagonal u0 and
    superdiagonals u1, u2.  A zero off-diagonal gives no exchange and a zero
    multiplier, so the blocks it separates stay separate.
    """
    n, shifts = a.shape
    u0, u1 = a, b
    u2 = np.zeros((max(n - 2, 0), shifts))
    swap = np.empty((max(n - 1, 0), shifts), dtype=bool)
    mult = np.empty((max(n - 1, 0), shifts))
    below = u1[0].copy() if n > 1 else None
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            pivot, right, nxt = u0[k], u1[k], u0[k + 1]
            exchange = np.greater(below, np.abs(pivot), out=swap[k])
            m = np.divide(np.where(exchange, pivot, below), np.where(exchange, below, pivot),
                          out=mult[k])
            m[np.isnan(m)] = 0.0  # a zero column below a zero pivot
            top_right = np.where(exchange, nxt, right)
            u0[k + 1] = np.where(exchange, right, nxt) - m * top_right
            u0[k] = np.where(exchange, below, pivot)
            u1[k] = top_right
            if k < n - 2:
                below = u1[k + 1].copy()
                np.multiply(below, exchange, out=u2[k])
                u1[k + 1] = np.where(exchange, -m * below, below)
    return swap, mult, u0, u1, u2


def _start_vectors(n: int) -> np.ndarray:
    """A fixed n x n matrix of entries in [-1, 1), as if random: the splitmix64
    hash of each entry's index.  Column j starts the eigenvalue of rank j."""
    z = np.arange(n * n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.ldexp((z >> np.uint64(11)).astype(np.float64), -52).reshape(n, n) - 1.0


def _solve_shifted(factors, Y: np.ndarray, forward: bool) -> None:
    """Y <- (T - sigma I)^-1 Y column by column, in place, from _factor_shifted's
    factors as lists of rows (u0 inverted).  Without forward, Y is a start
    vector, taken as already multiplied by L^-1 P."""
    swap, mult, inv0, u1, u2 = factors
    rows = list(Y)
    n = len(rows)
    if forward:
        for k in range(1, n):
            upper, lower, exchange = rows[k - 1], rows[k], swap[k - 1]
            top = np.where(exchange, lower, upper)
            np.copyto(lower, upper, where=exchange)
            lower -= mult[k - 1] * top
            upper[...] = top
    for k in range(n - 1, -1, -1):
        y = rows[k]
        if k < n - 1:
            y -= u1[k] * rows[k + 1]
        if k < n - 2:
            y -= u2[k] * rows[k + 2]
        y *= inv0[k]


def _orthonormalize(Y: np.ndarray, firsts: np.ndarray, sizes: np.ndarray) -> None:
    """Normalize the rows of Y in place, and orthonormalize each run of rows
    [first, first + size) by QR, one stacked QR per size."""
    Y /= np.maximum(np.sqrt(np.einsum("ij,ij->i", Y, Y)), sys.float_info.min)[:, np.newaxis]
    for m in sorted(set(sizes[sizes > 1].tolist())):
        idx = firsts[sizes == m][:, np.newaxis] + np.arange(m)
        Y[idx] = np.linalg.qr(Y[idx].transpose(0, 2, 1))[0].transpose(0, 2, 1)


def _inverse_iteration(d: np.ndarray, e: np.ndarray, levels: np.ndarray):
    """Eigenvectors of the real symmetric tridiagonals (d, e) by inverse iteration.

    d (G, n) and e (G, n - 1) >= 0 are the stack's tridiagonals and levels
    (G, n) the QL eigenvalues in QL's positions.  Returns Z (G, n, n) whose
    column j is the eigenvector of the j-th smallest eigenvalue.

    Each T is scaled by a power of two near its 1-norm, so the tolerances are
    absolute.  T splits at zero off-diagonals; QL leaves the eigenvalues of a
    split block in its rows, and a shift's start vector is zero outside its
    block, which the factorization keeps so.  The eigenvalues are sorted by
    (matrix, block, value), and each is its own shift.  Neighbours closer than
    GROUP_RTOL form a group and neighbours closer than CLUSTER_RTOL a cluster.
    All shifts make INVERSE_SOLVES solves together; after each but the last,
    every group is orthonormalized by one QR factorization, and after the last
    every cluster is, in ascending order of its eigenvalues.
    """
    G, n = d.shape
    if n == 0:
        return np.zeros((G, 0, 0))
    row_norm = np.abs(d)
    row_norm[:, 1:] += e
    row_norm[:, :-1] += e
    exponent = np.frexp(np.max(row_norm, axis=1))[1][:, np.newaxis]
    a = np.ldexp(d, -exponent).T
    b = np.ldexp(e, -exponent).T
    lam = np.ldexp(levels, -exponent)
    norm = np.ldexp(np.max(row_norm, axis=1), -exponent[:, 0])
    block = np.zeros((G, n), dtype=np.intp)
    np.cumsum(b.T == 0.0, axis=1, out=block[:, 1:])
    rank = np.argsort(np.argsort(levels, axis=1, kind="stable"), axis=1)

    # every shift, sorted by (matrix, block, value) into clusters and groups
    which = np.repeat(np.arange(G), n)
    order = np.lexsort((lam.ravel(), block.ravel(), which))
    matrix, sb, sv, sj = which[order], block.ravel()[order], lam.ravel()[order], rank.ravel()[order]
    S = matrix.size
    same = np.zeros(S, dtype=bool)
    same[1:] = (matrix[1:] == matrix[:-1]) & (sb[1:] == sb[:-1])
    gap = np.diff(sv, prepend=0.0)
    tol = norm[matrix]

    def runs(rtol):
        """(first, size) of each maximal run of neighbours closer than rtol * ||T||_1."""
        firsts = np.flatnonzero(~(same & (gap <= rtol * tol)))
        return firsts, np.diff(firsts, append=S)

    groups, clusters = runs(GROUP_RTOL), runs(CLUSTER_RTOL)

    Y = np.where((block[matrix] == sb[:, np.newaxis]).T, _start_vectors(n)[:, sj], 0.0)
    diagonal = a[:, matrix]
    diagonal -= sv
    swap, mult, u0, u1, u2 = _factor_shifted(diagonal, b[:, matrix])
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, u0, out=u0)
    # a pivot under eps (an exact eigenvalue) counts as eps
    np.clip(u0, -1.0 / sys.float_info.epsilon, 1.0 / sys.float_info.epsilon, out=u0)
    factors = [list(f) for f in (swap, mult, u0, u1, u2)]
    for it in range(INVERSE_SOLVES):
        _solve_shifted(factors, Y, forward=it > 0)
        _orthonormalize(Y.T, *(clusters if it == INVERSE_SOLVES - 1 else groups))
    # sign as in dstein: the largest component positive
    Y *= np.sign(Y[np.argmax(np.abs(Y), axis=0), np.arange(S)])
    Z = np.empty((G * n, n))
    Z[matrix * n + sj] = Y.T
    return Z.reshape(G, n, n).swapaxes(1, 2)


def eigendecompose(H: np.ndarray, want_vectors: bool = False) -> Spectrum:
    """Eigendecompose a dense complex Hermitian matrix, or a (G, d, d) stack of them.

    Raises ParameterError for non-square, non-finite or non-Hermitian input,
    NumericalError if the tridiagonal stage or the eigenvalues leave the
    float range, and ConvergenceError if the QL stage exceeds its sweep cap;
    either names the failing matrix's position in the stack as ``index``.
    """
    A, peak = _require_hermitian(H)
    stack = A[np.newaxis] if A.ndim == 2 else A
    G, n = stack.shape[:2]
    # like LAPACK's zheev, scale extreme matrices by an exact power of two so
    # the Householder norms neither overflow nor drop columns that underflow;
    # at ordinary magnitudes the bits are those of the unscaled solve
    exponent = np.frexp(peak.reshape(G))[1]
    exponent[np.abs(exponent) <= SAFE_EXPONENT] = 0
    work = stack.copy()
    if exponent.any():
        parts = work.view(np.float64)
        np.ldexp(parts, -exponent[:, np.newaxis, np.newaxis], out=parts)
    d, e, reflectors = _tridiagonalize(work, want_vectors)
    del work
    levels = np.empty((G, n))
    sweeps = 0
    for g in range(G):
        diag, off = d[g].tolist(), e[g].tolist()
        # entries of the scaled tridiagonal are at most n * 2**500, so their
        # sum is finite exactly when every entry is
        if not math.isfinite(sum(diag) + sum(off)):
            raise NumericalError(
                f"Householder tridiagonalization of a {n}x{n} matrix left non-finite entries",
                index=g,
            )
        try:
            sweeps += _ql_implicit_shift(diag, off)
        except ConvergenceError as exc:
            exc.index = g
            raise
        levels[g] = diag
    values = np.sort(levels, axis=1)
    if exponent.any():
        with np.errstate(over="ignore"):
            values = np.ldexp(values, exponent[:, np.newaxis])
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise NumericalError(f"eigenvalues of a {n}x{n} matrix exceed the float range",
                                 index=int(bad[0]))
    vectors = None
    if want_vectors:
        vectors = _back_transform(reflectors, _inverse_iteration(d, e, levels))
    if A.ndim == 2:
        values = values[0]
        vectors = None if vectors is None else vectors[0]
    return Spectrum(values, vectors, sweeps)


def eigenvalues_only(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues without the eigenvector cost."""
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
