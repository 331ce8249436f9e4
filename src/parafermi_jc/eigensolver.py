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
   unitary is never formed.  Each matrix is first scaled by the power of two
   of its largest entry, and its eigenvalues scaled back, as LAPACK's zheev
   does for extreme matrices.
2. Each tridiagonal is scaled by the power of two nearest its 1-norm, and its
   eigenvalues scaled back exactly; every off-diagonal that the split test
   e_i**2 <= eps**2 * (|d_i| + |d_i+1|)**2 calls negligible is then set to
   zero, once.  T is halved until no piece has more than LEAF rows (a single
   piece up to LEAF rows), each tear taking its off-diagonal out of the two
   diagonal entries beside it.  Root-free implicit-shift QL (the
   Pal-Walker-Kahan form of LAPACK's dsterf, Wilkinson shift) finds the
   leaves' eigenvalues, one leaf at a time on Python floats: it works on the
   squares e_i**2, computed once, so a sweep takes one square root and one
   hypot for its shift and none per rotation; the scaling keeps the squares
   in range.  When eigenvectors are requested or the leaves are to be merged,
   inverse iteration on the same leaves finds their vectors, as LAPACK's
   dstein does, for every eigenvalue of the leaves of one size at once: each
   eigenvalue is its own shift, T - lambda I is factored with partial
   pivoting for every shift in one loop over the rows, and INVERSE_SOLVES
   solves from a fixed start follow.  Neighbouring eigenvalues closer than
   CLUSTER_RTOL * ||T||_1 form a cluster, and those closer than
   GROUP_RTOL * ||T||_1 a group.  A QR factorization orthonormalizes each
   group after every solve but the last, and each cluster, in ascending order,
   after the last.  Inverse iteration splits T at its zero off-diagonals,
   where QL deflates on entry.  The pieces are then merged back level by
   level (Cuppen's divide and conquer, as LAPACK's dstedc; module ``divide``,
   imported on first use): each merge is a rank-one update of the two pieces'
   eigenvalues, deflated as in dlaed2, its secular equations solved all at
   once by dlaed4's middle way, and its eigenvectors taken from Gu and
   Eisenstat's weights and applied to the pieces' vectors by one product per
   piece.  The values-only path runs the same merges and skips only the top
   level's eigenvectors, so its eigenvalues are those of the vectors path,
   bit for bit.

Working set: the input is copied once and, when the caller keeps no
reference to it, freed (from Python 3.11).  The Householder workspace has
2 * min(PANEL, d - 2) columns, inverse iteration holds its factors only
through the solves, and the back-transform applies T^-1 to the nb x d
product V^H X; the root's eigenvectors reach it with no other reference, so
it frees them once phase-rotated.  A merge holds the two pieces' vectors,
its own, one d x d coefficient matrix, and d x d arrays of the secular
solver's rows (the roots' distances to the poles, and while a level has
several equations, their weights), which shrink as roots converge.  With
eigenvectors the traced peak is about 5.4 times the complex stack at
d = 27, and 3.3 times at d = 256.

Contracts: eigenvalues ascending; when vectors are requested, per-pair
residual ||H v - lambda v|| <= 1e-10 * (1 + max|H| * dim) and orthonormality
to 1e-10.  The QL stage is capped at 64 * dim implicit-shift sweeps per
matrix, and each secular equation at divide.MAX_SECULAR_ITERATIONS steps
per root; beyond either cap a ConvergenceError names the sizes involved (in
practice a handful of sweeps per eigenvalue, and of steps per root,
suffice).  A NumericalError raised for one matrix of a stack carries that
matrix's position as its ``index``.
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

#: Tridiagonals are halved until no piece has more rows than this; QL and
#: inverse iteration solve the pieces, which are merged back level by level.
LEAF = 64


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending), optionally the unitary of column eigenvectors,
    and the number of QL implicit-shift sweeps the solve took, those of its
    leaves.

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
    # |H - H^dag| from real parts (antisymmetric part) and imaginary parts
    # (symmetric part), in half-size arrays
    diff = A.real - A.real.swapaxes(-1, -2)
    np.hypot(diff, A.imag + A.imag.swapaxes(-1, -2), out=diff)
    dev = np.max(diff, axis=(-2, -1), initial=0.0)
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
    # reflector k of a panel is stored in column mid-1-k and its w in column
    # mid+k, so the panel's first k pairs fill the contiguous columns
    # [mid-k, mid+k), and reversing those columns pairs each u with its w
    mid = min(PANEL, max(n - 2, 0))
    work = np.empty(stack + (n, 2 * mid), dtype=np.complex128)
    zeros = np.zeros(stack)
    panels = [] if want_vectors else None
    for j0 in range(0, n - 2, PANEL):
        j1 = min(j0 + PANEL, n - 2)
        work[..., j0:, :] = 0.0
        for k, j in enumerate(range(j0, j1)):
            col = A[..., j:, j]
            if k:
                pairs = work[..., j:, mid - k:mid + k]
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
            u = work[..., j + 1:, mid - 1 - k]
            inv = np.divide(1.0, vnorm, out=zeros.copy(), where=keep)
            np.multiply(x, inv[..., np.newaxis], out=u)
            u[..., 0] = phase * np.divide(ax0 + xnorm, vnorm, out=zeros.copy(), where=keep)
            col[..., 1] = np.where(keep, -phase * xnorm, x0)
            p = _mv(A[..., j + 1:, j + 1:], u)
            if k:
                pairs = work[..., j + 1:, mid - k:mid + k]
                p -= _mv(pairs, _vh(u, pairs).conj()[..., ::-1])
            p *= 2.0
            w = work[..., j + 1:, mid + k]
            np.multiply(u, -_vh(u, p[..., np.newaxis]), out=w)
            w += p
        nb = j1 - j0
        pairs = work[..., j1:, mid - nb:mid + nb]
        A[..., j1:, j1:] -= pairs @ pairs[..., ::-1].conj().swapaxes(-1, -2)
        if panels is not None:
            panels.append((j0 + 1, work[..., j0 + 1:, mid - nb:mid][..., ::-1].copy()))
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
    del Z
    for r0, V in reversed(panels):
        nb = V.shape[-1]
        T_inv = V.conj().swapaxes(-1, -2) @ V
        pivots = np.diagonal(T_inv, axis1=-2, axis2=-1).real / 2.0
        T_inv *= np.tri(nb, nb, -1, dtype=bool).T
        T_inv[..., np.arange(nb), np.arange(nb)] = np.where(pivots == 0.0, 1.0, pivots)
        # T (V^H X) on the nb x d product; only the solution outlives the solve
        Y = np.linalg.solve(T_inv, V.conj().swapaxes(-1, -2) @ X[..., r0:, :])
        X[..., r0:, :] -= V @ Y
    return X


def _ql_implicit_shift(d: list, e2: list) -> int:
    """Root-free Wilkinson-shifted QL on the tridiagonal (d, e), in place; returns the sweep count.

    The Pal-Walker-Kahan form of LAPACK's dsterf: e2 holds the squares e_i**2
    of the off-diagonal (len(e2) == len(d) - 1), so a sweep takes one square
    root and one hypot for its shift and none per rotation.  The shift sigma
    is carried through the chase rather than subtracted from the diagonal.
    d and e2 are Python float lists: the scalar chain runs faster on them than
    on numpy scalars.  Off-diagonal i is negligible when e2[i] <= eps**2 * t * t
    with t = |d_i| + |d_i+1|, the square of |e_i| <= eps * t; the squares stay
    in range when ||T||_1 is near 1.  A sweep never crosses an off-diagonal
    that is negligible on entry, so d[i] ends as an eigenvalue of the
    unreduced block that holds row i.
    """
    n = len(d)
    e2.append(0.0)
    eps2 = sys.float_info.epsilon ** 2
    sweeps = 0
    cap = MAX_SWEEPS_PER_DIM * max(n, 1)
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                t = abs(d[m]) + abs(d[m + 1])
                if e2[m] <= eps2 * t * t:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > cap:
                raise ConvergenceError(
                    f"eigensolver exceeded {cap} implicit-shift sweeps on a {n}x{n} matrix"
                )
            rte = math.sqrt(e2[l])
            g = (d[l + 1] - d[l]) / (2.0 * rte)
            r = math.hypot(g, 1.0)
            sigma = d[l] - rte / (g + (r if g >= 0 else -r))
            c, s = 1.0, 0.0
            gamma = d[m] - sigma
            p = gamma * gamma
            # at i = m - 1, s = 0 clears e2[m]
            for i in range(m - 1, l - 1, -1):
                bb = e2[i]
                r = p + bb
                e2[i + 1] = s * r
                old_c = c
                c = p / r
                s = bb / r
                old_gamma = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * old_gamma
                d[i + 1] = old_gamma + (alpha - gamma)
                p = gamma * gamma / c if c else old_c * bb
            e2[l] = s * p
            d[l] = sigma + gamma
    return sweeps


def _factor_shifted(a: np.ndarray, b: np.ndarray):
    """T - sigma I = P L U for many shifts at once, with partial pivoting (dgttrf).

    a (n, S) holds each column's diagonal of T - sigma I and b (n - 1, S) its
    nonnegative off-diagonal; both are overwritten.  Returns (swap, mult, inv0,
    u1, u2) as lists of rows, the form _solve_shifted takes: row k is
    exchanged with row k + 1 where swap[k], mult[k] is the multiplier that
    eliminates row k + 1, and U has diagonal 1 / inv0 and superdiagonals u1,
    u2.  A pivot under eps (an exact eigenvalue) counts as eps.  A zero
    off-diagonal gives no exchange and a zero multiplier, so the blocks it
    separates stay separate.
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
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, u0, out=u0)
    np.clip(u0, -1.0 / sys.float_info.epsilon, 1.0 / sys.float_info.epsilon, out=u0)
    return [list(f) for f in (swap, mult, u0, u1, u2)]


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
    factors.  Without forward, Y is a start vector, taken as already
    multiplied by L^-1 P."""
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


def _one_norm(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """||T||_1 of each tridiagonal of the stack (d (G, n), e (G, n - 1) >= 0)."""
    row_norm = np.abs(d)
    row_norm[:, 1:] += e
    row_norm[:, :-1] += e
    return np.max(row_norm, axis=1, initial=0.0)


def _inverse_iteration(d: np.ndarray, e: np.ndarray, levels: np.ndarray):
    """Eigenvectors of the real symmetric tridiagonals (d, e) by inverse iteration.

    d (G, n) and e (G, n - 1) >= 0 are the stack's tridiagonals, each scaled
    by a power of two near its 1-norm so the tolerances are absolute, and
    levels (G, n) the QL eigenvalues of the scaled tridiagonals in QL's
    positions.  Returns Z (G, n, n) whose column j is the eigenvector of the
    j-th smallest eigenvalue.

    T splits at its zero off-diagonals, where QL deflates on entry, so QL
    leaves the eigenvalues of a split block in its rows; a shift's start
    vector is zero outside its block, which the factorization keeps so.  The
    eigenvalues are sorted by (matrix, block, value), and each is its own
    shift.  Neighbours closer than GROUP_RTOL form a group and neighbours
    closer than CLUSTER_RTOL a cluster.  All shifts make INVERSE_SOLVES solves
    together; after each but the last, every group is orthonormalized by one
    QR factorization, and after the last every cluster is, in ascending order
    of its eigenvalues.
    """
    G, n = d.shape
    if n == 0:
        return np.zeros((G, 0, 0))
    a, b = d.T, e.T
    norm = _one_norm(d, e)
    block = np.zeros((G, n), dtype=np.intp)
    np.cumsum(e == 0.0, axis=1, out=block[:, 1:])
    rank = np.argsort(np.argsort(levels, axis=1, kind="stable"), axis=1)

    # every shift, sorted by (matrix, block, value) into clusters and groups
    which = np.repeat(np.arange(G), n)
    order = np.lexsort((levels.ravel(), block.ravel(), which))
    matrix, sb, sv, sj = which[order], block.ravel()[order], levels.ravel()[order], rank.ravel()[order]
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

    # a start vector is zero outside rows [lo, hi) of its shift's block: the
    # blocks of all matrices, numbered matrix * n + block, ascend over the rows
    keys = (block + n * np.arange(G)[:, np.newaxis]).ravel()
    first = n * matrix
    lo = np.searchsorted(keys, first + sb, side="left") - first
    hi = np.searchsorted(keys, first + sb, side="right") - first
    rows = np.arange(n)[:, np.newaxis]
    Y = _start_vectors(n)[:, sj]
    Y[(rows < lo) | (rows >= hi)] = 0.0
    factors = _factor_shifted(a[:, matrix] - sv, b[:, matrix])
    for it in range(INVERSE_SOLVES):
        _solve_shifted(factors, Y, forward=it > 0)
        _orthonormalize(Y.T, *(clusters if it == INVERSE_SOLVES - 1 else groups))
    del factors
    # sign as in dstein: the largest component positive
    Y *= np.sign(Y[np.argmax(np.abs(Y), axis=0), np.arange(S)])
    Z = np.empty((G * n, n))
    Z[matrix * n + sj] = Y.T
    return Z.reshape(G, n, n).swapaxes(1, 2)


def _solve_tridiagonal(d: np.ndarray, e: np.ndarray, reflectors):
    """Ascending eigenvalues (G, n) of the scaled tridiagonals (d, e), whose
    negligible off-diagonals are zero, the eigenvectors (G, n, n) of the
    matrices they came from when reflectors is not None (else None), and the
    QL sweeps.  d is overwritten.

    T is halved, the odd row going to the upper half, until no piece has more
    than LEAF rows.  Each tear takes its off-diagonal beta off the two diagonal
    entries beside it, T = diag(pieces) + beta u u^T with u the sum of the
    unit vectors of the two rows.  QL and inverse iteration solve the leaves
    as one stack per size, and divide._merge_level merges the pieces level by
    level.  A single leaf solved for values only skips inverse iteration; the
    values-only path of a tree runs the same merges and skips only the top
    level's eigenvectors, so its eigenvalues are those of the vectors path.
    """
    G, n = d.shape
    tree = [[(0, n)]]
    while max(hi - lo for lo, hi in tree[-1]) > LEAF:
        tree.append([half for lo, hi in tree[-1]
                     for half in ((lo, (lo + hi) // 2), ((lo + hi) // 2, hi))])
    tears = np.array([lo for lo, _ in tree[-1][1:]], dtype=np.intp)
    d[:, tears - 1] -= e[:, tears - 1]
    d[:, tears] -= e[:, tears - 1]

    pieces = {}
    sweeps = 0
    for size in sorted({hi - lo for lo, hi in tree[-1]}):
        group = [(lo, hi) for lo, hi in tree[-1] if hi - lo == size]
        rows = G * len(group)  # matrix g's leaves are rows g * len(group)..
        ld = np.stack([d[:, lo:hi] for lo, hi in group], axis=1).reshape(rows, size)
        le = np.stack([e[:, lo:hi - 1] for lo, hi in group], axis=1).reshape(rows, size - 1)
        squares = le * le
        levels = np.empty_like(ld)
        for r in range(rows):
            diag = ld[r].tolist()
            try:
                sweeps += _ql_implicit_shift(diag, squares[r].tolist())
            except ConvergenceError as exc:
                exc.index = r // len(group)
                raise
            levels[r] = diag
        values = np.sort(levels, axis=1).reshape(G, len(group), size)
        vectors = None
        if reflectors is not None or len(tree) > 1:
            vectors = _inverse_iteration(ld, le, levels).reshape(G, len(group), size, size)
        for k, piece in enumerate(group):
            pieces[piece] = (values[:, k], None if vectors is None else vectors[:, k])
    del vectors
    if len(tree) > 1:
        # imported on first use, so that a process solving only small blocks
        # does not compile it (as costly as this module where bytecode is not
        # cached)
        from .divide import _merge_level
    for depth in range(len(tree) - 2, -1, -1):
        pieces.update(zip(tree[depth], _merge_level(
            [(pieces.pop((lo, (lo + hi) // 2)), pieces.pop(((lo + hi) // 2, hi)),
              e[:, (lo + hi) // 2 - 1]) for lo, hi in tree[depth]],
            reflectors is not None or depth > 0)))
    values = pieces[(0, n)][0]
    if reflectors is None:
        return values, None, sweeps
    # the root's vectors are passed on unnamed, so _back_transform can free them early
    return values, _back_transform(reflectors, pieces.pop((0, n))[1]), sweeps


def eigendecompose(H: np.ndarray, want_vectors: bool = False) -> Spectrum:
    """Eigendecompose a dense complex Hermitian matrix, or a (G, d, d) stack of them.

    Raises ParameterError for non-square, non-finite or non-Hermitian input,
    NumericalError if the tridiagonal stage or the eigenvalues leave the
    float range, and ConvergenceError if the QL stage exceeds its sweep cap or
    a secular equation its iteration cap; either names the failing matrix's
    position in the stack as ``index``.
    """
    A, peak = _require_hermitian(H)
    single = A.ndim == 2
    work = (A[np.newaxis] if single else A).copy()
    del H, A  # an input that the caller does not keep is freed here (Python 3.11+)
    G, n = work.shape[:2]
    # scale each matrix by the power of two of its largest entry, as LAPACK's
    # zheev does for extreme ones, so the Householder norms neither overflow
    # nor drop columns that underflow; every sum of squares scales by an even
    # power of two and its square root exactly, so a matrix whose squares are
    # normal floats either way keeps the bits of an unscaled solve
    exponent = np.frexp(peak.reshape(G))[1]
    parts = work.view(np.float64)
    np.ldexp(parts, -exponent[:, np.newaxis, np.newaxis], out=parts)
    d, e, reflectors = _tridiagonalize(work, want_vectors)
    del work, parts  # the view parts would keep work alive
    # entries of the tridiagonal are at most about n, so its 1-norm is finite
    # exactly when every entry is
    norm = _one_norm(d, e)
    bad = np.flatnonzero(~np.isfinite(norm))
    if bad.size:
        raise NumericalError(
            f"Householder tridiagonalization of a {n}x{n} matrix left non-finite entries",
            index=int(bad[0]),
        )
    # scale each tridiagonal by the power of two nearest its 1-norm, so the
    # squares e_i**2 of QL stay in range; the eigenvalues scale back exactly
    scale = np.frexp(norm)[1]
    d = np.ldexp(d, -scale[:, np.newaxis])
    e = np.ldexp(e, -scale[:, np.newaxis])
    # the one split test: an off-diagonal negligible beside its two diagonal
    # entries is zero from here on, so QL deflates on entry where inverse
    # iteration splits T, and a tear there takes nothing off the diagonal
    t = np.abs(d[:, :-1]) + np.abs(d[:, 1:])
    e[e * e <= sys.float_info.epsilon ** 2 * t * t] = 0.0
    values, vectors, sweeps = _solve_tridiagonal(d, e, reflectors)
    with np.errstate(over="ignore"):
        values = np.ldexp(values, (exponent + scale)[:, np.newaxis])
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise NumericalError(f"eigenvalues of a {n}x{n} matrix exceed the float range",
                             index=int(bad[0]))
    if single:
        values = values[0]
        vectors = None if vectors is None else vectors[0]
    return Spectrum(values, vectors, sweeps)


def eigenvalues_only(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues without the eigenvector cost."""
    return eigendecompose(H, want_vectors=False).eigenvalues
