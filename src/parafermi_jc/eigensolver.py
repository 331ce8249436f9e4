"""Dense complex Hermitian eigensolver.

Self-contained two-stage reduction, no LAPACK eigenroutine involved.  Every
stage takes a (G, d, d) stack of matrices; a single matrix is a stack of one.
A matrix of at most LEAF rows, in a stack of fewer than LOCKSTEP matrices, is
solved in its basis reordered by ascending real diagonal (a stable sort), and
its eigenvectors' rows are put back in the input's order at the end; larger
matrices and larger stacks keep the input's order, as the ordering only
helps QL on the row-by-row schedule stop at a window (see 2.).

1. Householder similarity transformations bring each Hermitian matrix to
   tridiagonal form, PANEL reflectors at a time as in LAPACK's zhetrd: within
   a panel each column is brought up to date from the panel's reflectors
   when it is reached, and the trailing matrix takes the whole panel as one
   rank-2*PANEL product.  A lone matrix takes each column's reflector scalars
   on Python numbers, as zlarfg does, and a stack on (G,) arrays.  A diagonal
   phase rotation then makes the off-diagonal real and nonnegative.  With
   eigenvectors requested, the reduction keeps its reflectors, scaled to
   unit norm; once stage 2 is done they are applied to the tridiagonal's
   eigenvectors, one panel per compact-WY product as in zunmtr (the
   back-transform), so the Householder unitary is never formed.  Each matrix
   is first scaled by the power of two of its largest entry, and its
   eigenvalues scaled back, as LAPACK's zheev does for extreme matrices.
2. Each tridiagonal is scaled by the power of two nearest its 1-norm, and its
   eigenvalues scaled back exactly; every off-diagonal that the split test
   e_i**2 <= eps**2 * (|d_i| + |d_i+1|)**2 calls negligible is then set to
   zero, once.  T is halved until no piece has more than LEAF rows (a single
   piece up to LEAF rows), each tear taking its off-diagonal out of the two
   diagonal entries beside it.  Root-free implicit-shift QL (the
   Pal-Walker-Kahan form of LAPACK's dsterf, Wilkinson shift) finds the
   leaves' eigenvalues: it works on the squares e_i**2, computed once, so a
   sweep takes one square root and one hypot for its shift and none per
   rotation; the scaling keeps the squares in range.  The leaves of one size
   over the whole stack form a group, and QL runs on one of two schedules.
   A group of fewer than LOCKSTEP leaves goes row by row, one leaf at a time
   on Python floats: a block's end is found once; each sweep then tests only
   the off-diagonal at the block's top, where QL converges, and may cross an
   entry that became negligible during the block's sweeps.  A larger group
   goes in lockstep, with the same arithmetic on numpy rows: every leaf
   deflates row l before any moves on to l + 1, and one sweep serves every
   leaf whose off-diagonal l is not yet negligible, chased from the leaf's
   last row, across any exactly zero coupling (no rotation there).  On the
   semiclassical comparison's 161-point scans (d = 2 to 8, values only) the
   lockstep took 0.2 to 0.5 of the row-by-row QL time.  When eigenvectors are
   requested or the leaves are to be merged, inverse iteration on the same
   leaves finds their vectors, as LAPACK's dstein does, for every eigenvalue
   of the leaves of one size at once: each eigenvalue is its own shift,
   T - lambda I is factored with partial pivoting for every shift in one loop
   over the rows, and INVERSE_SOLVES solves from a fixed start follow.
   Neighbouring eigenvalues closer than CLUSTER_RTOL * ||T||_1 form a cluster,
   and those closer than GROUP_RTOL * ||T||_1 a group.  A QR factorization
   orthonormalizes each group after every solve but the last, and each
   cluster, in ascending order, after the last.  Inverse iteration splits T at
   its zero off-diagonals, where QL's blocks end; a matrix whose shifts
   include a group also splits at its couplings under GROUP_RTOL * ||T||_1,
   its shifts then from QL on the split tridiagonal, so that each piece
   solves its own copy of an eigenvalue that several pieces share.  Given a
   window, a matrix
   solved as a single leaf keeps only the vectors of its eigenvalues up to
   its smallest plus the window, and of the chain of neighbours closer than
   CLUSTER_RTOL * ||T||_1 that continues from the last of them, so no
   cluster straddles the cut; the other shifts are not solved, and their
   columns are zero.  On the row-by-row schedule the window also stops that
   leaf's QL, which in the ascending order deflates the low-lying states
   first (the lockstep computes every level): once a Sturm count
   certifies that no undeflated eigenvalue reaches the kept chain, QL
   returns, and every level beyond the chain is +inf.  The finite levels are
   then the kept ones, with the bits of the full solve; on the staircase
   stack (d = 27, 40 matrices, beta = 1) QL finds 177 of the 1,080
   eigenvalues, in 413 sweeps instead of 1,906.  The pieces of a larger
   matrix are then merged
   back level by level (Cuppen's divide and conquer, as LAPACK's dstedc;
   module ``divide``, imported on first use): each merge is a rank-one update
   of the two pieces' eigenvalues, deflated as in dlaed2, its secular
   equations solved all at once by dlaed4's middle way, and its eigenvectors
   taken from Gu and Eisenstat's weights and applied to the pieces' vectors by
   one product per piece.  The values-only path runs the same merges and skips
   only the top level's eigenvectors, so its eigenvalues are those of the
   vectors path, bit for bit.

Working set: the input is copied once and, when the caller keeps no
reference to it, freed (from Python 3.11); for an ordered matrix the copy
is one gather into the ascending order, through an integer index the size
of the stack, and the eigenvectors return to the input's order through one
scatter into a new array.  The lockstep holds its group's diagonals and
squares, and per sweep a few arrays of the rows it moves.  The Householder
workspace has 2 * min(PANEL, d - 2) columns, inverse iteration holds its
factors only through the solves, and the back-transform applies T^-1 to the
nb x d product V^H X; the root's eigenvectors reach it with no other
reference, so it frees them once phase-rotated.  A merge holds the two pieces' vectors,
its own, one d x d coefficient matrix, and d x d arrays of the secular
solver's rows (the roots' distances to the poles, and while a level has
several equations, their weights), which shrink as roots converge.  With
eigenvectors the traced peak is about 5.4 times the complex stack at
d = 27, and 3.3 times at d = 256; the staircase stack (d = 27, 40 matrices)
with the window of beta = 1 keeps 135 of its 1,080 vectors and peaks at 4.0.

Contracts: eigenvalues ascending, with +inf for the levels a window leaves
out; when vectors are requested, per-pair residual
||H v - lambda v|| <= 1e-10 * (1 + max|H| * dim) and orthonormality to
1e-10, over the kept columns when a window leaves some out.  The QL
stage is capped at 64 * dim implicit-shift sweeps per matrix, and each
secular equation at divide.MAX_SECULAR_ITERATIONS steps per root; beyond
either cap a ConvergenceError names the sizes involved (in practice a
handful of sweeps per eigenvalue, and of steps per root, suffice).  A
NumericalError raised for one matrix of a stack carries that matrix's
position as its ``index``.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from itertools import repeat
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

#: A size group of at least this many leaves is solved by QL in lockstep, one
#: numpy sweep serving all of its rows; a smaller one row by row on Python
#: floats.  Solving omega scans of d = 2 to 16 blocks for values or windowed
#: vectors, the lockstep took 0.5 to 1.0 times the row-by-row time at 128
#: matrices, and 0.6 to 1.3 times at 64.
LOCKSTEP = 128


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending), optionally the unitary of column eigenvectors,
    and the number of QL implicit-shift sweeps the solve took, those of its
    leaves.  A lockstep sweep counts once for every leaf it moves, so both
    schedules count the sweeps that each leaf took.

    For a (G, d, d) stack, eigenvalues is (G, d), eigenvectors (G, d, d) and
    sweeps the total over the stack.  A solve with a window returns the
    eigenvectors (G, d, m) of the m smallest eigenvalues, m the most that any
    matrix keeps; column j of a matrix that keeps fewer than j + 1 is zero.
    A row of eigenvalues whose QL stopped at the window holds the kept
    levels, ascending, followed by +inf.
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

    A matrix without a stack axis takes each column's scalars (||x||, x0, the
    keep test, the phase, u[0], alpha) as Python numbers and its products as
    plain 2-D ones, as numpy calls on 0-d arrays cost more than their
    arithmetic; a stack keeps (G,) arrays, whose calls serve all G matrices.
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
            u = work[..., j + 1:, mid - 1 - k]
            w = work[..., j + 1:, mid + k]
            if not stack:
                # a lone matrix: the steps below on Python numbers, and a
                # skipped u stays the zero column the panel started with
                xnorm = math.sqrt(np.vdot(x, x).real)
                x0 = complex(x[0])
                ax0 = abs(x0)
                vnorm2 = 2.0 * xnorm * (xnorm + ax0)
                if vnorm2 >= tiny:
                    phase = complex(x0.real / ax0, x0.imag / ax0) if ax0 > 0.0 else 1.0
                    vnorm = math.sqrt(vnorm2)
                    np.multiply(x, 1.0 / vnorm, out=u)
                    u[0] = phase * ((ax0 + xnorm) / vnorm)
                    col[1] = -phase * xnorm
                p = A[j + 1:, j + 1:] @ u
                if k:
                    pairs = work[j + 1:, mid - k:mid + k]
                    p -= pairs @ (u.conj() @ pairs).conj()[::-1]
                p *= 2.0
                np.multiply(u, -np.vdot(u, p), out=w)
                w += p
                continue
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
            inv = np.divide(1.0, vnorm, out=zeros.copy(), where=keep)
            np.multiply(x, inv[..., np.newaxis], out=u)
            u[..., 0] = phase * np.divide(ax0 + xnorm, vnorm, out=zeros.copy(), where=keep)
            col[..., 1] = np.where(keep, -phase * xnorm, x0)
            p = _mv(A[..., j + 1:, j + 1:], u)
            if k:
                pairs = work[..., j + 1:, mid - k:mid + k]
                p -= _mv(pairs, _vh(u, pairs).conj()[..., ::-1])
            p *= 2.0
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
    Z is a (G, n, m) stack; a lone matrix's reflectors apply to a stack of one.
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


def _sturm_count(d: list, e2: list, first: int, x: float) -> int:
    """How many eigenvalues of the tridiagonal of rows first.. of (d, e2) lie below x.

    dstebz's count: the pivots q_i = d_i - e2_i-1 / q_i-1 - x of T - x I have
    one negative sign per eigenvalue below x.  A pivot no larger than pivmin
    counts as -pivmin, so each e2 / q stays finite.
    """
    pivmin = sys.float_info.min * max(1.0, max(e2))
    count = 0
    q, b = 1.0, 0.0
    for i in range(first, len(d)):
        q = d[i] - b / q - x
        if abs(q) <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
        b = e2[i]
    return count


def _ql_implicit_shift(d: list, e2: list, *, window: float = math.inf, tol: float = 0.0) -> int:
    """Root-free Wilkinson-shifted QL on the tridiagonal (d, e), in place; returns the sweep count.

    The Pal-Walker-Kahan form of LAPACK's dsterf: e2 holds the squares e_i**2
    of the off-diagonal (len(e2) == len(d) - 1), so a sweep takes one square
    root and one hypot for its shift and none per rotation.  The shift sigma
    is carried through the chase rather than subtracted from the diagonal.
    d and e2 are Python float lists: the scalar chain runs faster on them than
    on numpy scalars.  Off-diagonal i is negligible when e2[i] <= eps**2 * t * t
    with t = |d_i| + |d_i+1|, the square of |e_i| <= eps * t; the squares stay
    in range when ||T||_1 is near 1.  A block's end m is found once, when l
    enters the block; each sweep then tests only e2[l], where QL converges.
    A sweep may cross an entry that became negligible during the block's
    sweeps, but never one negligible on entry, so d[i] ends as an eigenvalue
    of the unreduced block that held row i on entry.

    With a finite window, QL stops once no undeflated eigenvalue can be kept.
    When row l deflates above the smallest deflated value plus window (d[0]
    on entry stands in for that value until then), the deflated values are
    sorted and the chain that _window_counts keeps is found among them:
    those up to the smallest plus window, then each next one within tol
    (CLUSTER_RTOL * ||T||_1) of the last.  A Sturm count of rows l + 1.. at
    x, n ulps of ||T||_1 above both the chain's end plus tol and the
    window's end, may certify that none of their eigenvalues lies below x,
    so none can join the chain even after QL's rounding.  Then d is cut to
    rows ..l, a value beyond the chain's end becomes +inf, and QL returns.
    A count of c > 0 is not retried for c deflations, the fewest that can
    bring it to zero, nor with one row left, which is an eigenvalue already.
    """
    n = len(d)
    e2.append(0.0)
    eps = sys.float_info.epsilon
    eps2 = eps * eps
    sweeps = 0
    cap = MAX_SWEEPS_PER_DIM * max(n, 1)
    # the smallest deflated value plus window, made exact only when a deflation
    # lands above it; until then the top entry stands in for that value
    limit = window + (d[0] if d else 0.0)
    retry = 0  # the first row whose deflation may count again
    m = 0
    for l in range(n):
        if m <= l:
            m = l
            while m < n - 1:
                t = abs(d[m]) + abs(d[m + 1])
                if e2[m] <= eps2 * t * t:
                    break
                m += 1
        while m > l:
            top, nxt, top2 = d[l], d[l + 1], e2[l]
            t = abs(top) + abs(nxt)
            if top2 <= eps2 * t * t:
                break
            sweeps += 1
            if sweeps > cap:
                raise ConvergenceError(
                    f"eigensolver exceeded {cap} implicit-shift sweeps on a {n}x{n} matrix"
                )
            rte = math.sqrt(top2)
            g = (nxt - top) / (2.0 * rte)
            r = math.hypot(g, 1.0)
            sigma = top - rte / (g + (r if g >= 0 else -r))
            c, s = 1.0, 0.0
            gamma = d[m] - sigma
            p = gamma * gamma
            # at i = m - 1, s = 0 clears e2[m]; row below = i + 1
            below = m
            for i in range(m - 1, l - 1, -1):
                bb = e2[i]
                r = p + bb
                e2[below] = s * r
                old_c = c
                c = p / r
                s = bb / r
                old_gamma = gamma
                alpha = d[i]
                gamma = c * (alpha - sigma) - s * old_gamma
                d[below] = old_gamma + (alpha - gamma)
                p = gamma * gamma / c if c else old_c * bb
                below = i
            e2[l] = s * p
            d[l] = sigma + gamma
        if d[l] > limit and retry <= l < n - 2:
            kept = sorted(d[:l + 1])
            limit = kept[0] + window
            if d[l] > limit:
                j = bisect.bisect_right(kept, limit) - 1
                while j < l and not kept[j + 1] > kept[j] + tol:
                    j += 1
                end = kept[j]
                x = max(end + tol, limit) + n * eps * tol / CLUSTER_RTOL
                count = _sturm_count(d, e2, l + 1, x)
                if not count:
                    d[:] = [v if v <= end else math.inf for v in d[:l + 1]]
                    return sweeps
                retry = l + count
    return sweeps


def _ql_rows(d: np.ndarray, e: np.ndarray, window: Optional[np.ndarray],
             norm: np.ndarray) -> tuple[np.ndarray, int]:
    """_ql_implicit_shift on each of R tridiagonals (d (R, n), e (R, n - 1)),
    one at a time on Python floats; returns the eigenvalues (R, n) in QL's
    positions, +inf where a window (R,) stopped QL short, and the sweeps.
    Row r stops at window[r] with chains within CLUSTER_RTOL * norm[r]; a
    ConvergenceError names the row as its ``index``.
    """
    R, n = d.shape
    diags = d.tolist()
    windows, tols = repeat(math.inf), repeat(0.0)
    if window is not None:
        windows, tols = window.tolist(), (CLUSTER_RTOL * norm).tolist()
    sweeps = 0
    for r, (diag, squares, w, tol) in enumerate(zip(diags, (e * e).tolist(), windows, tols)):
        try:
            sweeps += _ql_implicit_shift(diag, squares, window=w, tol=tol)
        except ConvergenceError as exc:
            exc.index = r
            raise
        if len(diag) < n:  # the levels QL stopped short of
            diag += [math.inf] * (n - len(diag))
    return np.array(diags).reshape(R, n), sweeps


def _ql_lockstep(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, int]:
    """_ql_implicit_shift's QL, without a window, on R tridiagonals of one size at once.

    d (R, n) and e (R, n - 1) >= 0 are scaled as _ql_implicit_shift's input.
    Returns the eigenvalues (R, n) in QL's positions and the sweeps, one for
    each row that a sweep moves, as _ql_rows counts them.  Every row deflates
    off-diagonal l before any row moves on to l + 1: a sweep works on the rows
    whose e2[l] is not yet negligible, compacted into (n - l, A) arrays, and
    chases each of them from its last row up to l, with no per-row block
    end.  Where the chase crosses an exactly zero coupling, c = 1 and s = 0
    there, so the block above gets the bits of the chase that
    _ql_implicit_shift starts at the block's end, and the block below an
    exact QL step with the upper block's shift, which keeps its eigenvalues.
    Past MAX_SWEEPS_PER_DIM * n sweeps of one row, a ConvergenceError names
    that row as its ``index``.
    """
    R, n = d.shape
    D = d.T.copy()
    # the squares, and below the last row the zero that each chase starts from
    E2 = np.zeros((n, R))
    np.square(e.T, out=E2[:-1])
    eps2 = sys.float_info.epsilon ** 2
    cap = MAX_SWEEPS_PER_DIM * max(n, 1)
    sweeps = np.zeros(R, dtype=np.intp)
    for l in range(n - 1):
        t = np.abs(D[l]) + np.abs(D[l + 1])
        rows = np.flatnonzero(E2[l] > eps2 * t * t)
        dd, ee = D[l:, rows], E2[l:, rows]
        taken = 0  # the sweeps of every row of rows at this l
        room = cap - np.max(sweeps[rows], initial=0)
        while rows.size:
            taken += 1
            if taken > room:
                raise ConvergenceError(
                    f"eigensolver exceeded {cap} implicit-shift sweeps on a {n}x{n} matrix",
                    index=int(rows[np.argmax(sweeps[rows])]),
                )
            rte = np.sqrt(ee[0])
            g = (dd[1] - dd[0]) / (2.0 * rte)
            r = np.hypot(g, 1.0)
            # r if g >= 0 else -r: adding 0.0 turns g = -0.0 into +0.0
            sigma = dd[0] - rte / (g + np.copysign(r, g + 0.0))
            # (c, s) stays (1, 0), no rotation, where r = 0: p = 0 meets a
            # zero coupling
            shifted = dd - sigma
            cs, ss = np.ones(dd.shape), np.zeros(dd.shape)
            c, s = cs[-1], ss[-1]
            gamma = shifted[-1]
            p = gamma * gamma
            for i in range(n - l - 2, -1, -1):
                bb = ee[i]
                r = p + bb
                np.multiply(s, r, out=ee[i + 1])
                old_c = c
                moves = r > 0.0
                c = np.divide(p, r, out=cs[i], where=moves)
                s = np.divide(bb, r, out=ss[i], where=moves)
                old_gamma = gamma
                gamma = c * shifted[i]
                gamma -= s * old_gamma
                np.add(old_gamma, dd[i] - gamma, out=dd[i + 1])
                p = np.divide(gamma * gamma, c, out=old_c * bb, where=c != 0.0)
            np.multiply(s, p, out=ee[0])
            np.add(sigma, gamma, out=dd[0])
            t = np.abs(dd[0]) + np.abs(dd[1])
            done = ee[0] <= eps2 * t * t
            if np.count_nonzero(done):
                D[l:, rows[done]] = dd[:, done]
                E2[l:, rows[done]] = ee[:, done]
                sweeps[rows[done]] += taken
                rows, dd, ee = rows[~done], dd[:, ~done], ee[:, ~done]
                room = cap - np.max(sweeps[rows], initial=0)
    return D.T, int(np.sum(sweeps))


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


def _inverse_iteration(d: np.ndarray, e: np.ndarray, levels: np.ndarray,
                       counts: Optional[np.ndarray]):
    """Eigenvectors of the real symmetric tridiagonals (d, e) by inverse iteration.

    d (G, n) and e (G, n - 1) >= 0 are the stack's tridiagonals, each scaled
    by a power of two near its 1-norm so the tolerances are absolute, and
    levels (G, n) the QL eigenvalues of the scaled tridiagonals in QL's
    positions.  Returns Z (G, n, n) whose column j is the eigenvector of the
    j-th smallest eigenvalue.  Unless counts (G,) is None, only the
    eigenvalues of rank below their matrix's count are shifts: Z is (G, n,
    max(counts)), and column j of matrix g is zero for j >= counts[g].  The
    counts must end between clusters, as _window_counts' do, so every
    cluster is solved whole.

    T splits at its zero off-diagonals, where QL's blocks end, so QL leaves
    the eigenvalues of a split block in its rows; a shift's start
    vector is zero outside its block, which the factorization keeps so.  A
    matrix whose shifts include a group also splits at its couplings under
    GROUP_RTOL * ||T||_1, and QL on that split tridiagonal gives its shifts,
    rank for rank: one factorization across pieces that share an eigenvalue
    amplifies one piece's vector by up to eps**-k for k tiny pivots, and the
    group's other vectors drown in its rounding (residuals up to 1e-2, in
    about 1 of 8,000 random matrices of repeated eigenvalues).  The split
    moves no eigenvalue by more than GROUP_RTOL * ||T||_1, nor a residual by
    more than twice that.  The eigenvalues are sorted by (matrix, block,
    value), and each is its own shift.  Neighbours closer than GROUP_RTOL
    form a group and neighbours closer than CLUSTER_RTOL a cluster.  All
    shifts make INVERSE_SOLVES solves together; after each but the last,
    every group is orthonormalized by one QR factorization, and after the
    last every cluster is, in ascending order of its eigenvalues.
    """
    G, n = d.shape
    if n == 0:
        return np.zeros((G, 0, 0))
    norm = _one_norm(d, e)
    tiny = (e > 0.0) & (e <= GROUP_RTOL * norm[:, np.newaxis])
    ordered = np.sort(levels, axis=1)
    grouped = ordered[:, 1:] <= ordered[:, :-1] + GROUP_RTOL * norm[:, np.newaxis]
    if counts is not None:  # only the shifts to be solved, so a window's stop changes nothing
        grouped &= np.arange(1, n) < counts[:, np.newaxis]
    tiny &= np.any(grouped, axis=1)[:, np.newaxis]
    torn = np.flatnonzero(np.any(tiny, axis=1))
    if torn.size:
        e = np.where(tiny, 0.0, e)
        levels = levels.copy()
        try:
            levels[torn] = _ql_rows(d[torn], e[torn], None, norm[torn])[0]
        except ConvergenceError as exc:
            exc.index = int(torn[exc.index])
            raise
    a, b = d.T, e.T
    block = np.zeros((G, n), dtype=np.intp)
    np.cumsum(e == 0.0, axis=1, out=block[:, 1:])
    rank = np.argsort(np.argsort(levels, axis=1, kind="stable"), axis=1)

    # every shift, sorted by (matrix, block, value) into clusters and groups
    which = np.repeat(np.arange(G), n)
    order = np.lexsort((levels.ravel(), block.ravel(), which))
    m = n
    if counts is not None:
        order = order[rank.ravel()[order] < counts[which[order]]]
        m = int(np.max(counts, initial=0))
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
    Z = np.zeros((G * m, n))
    Z[matrix * m + sj] = Y.T
    return Z.reshape(G, m, n).swapaxes(1, 2)


def _window_counts(values: np.ndarray, norm: np.ndarray, window: np.ndarray) -> np.ndarray:
    """How many of each matrix's ascending eigenvalues (G, n) get eigenvectors.

    Those at or below the smallest plus window (G,) do, and then the chain of
    neighbours closer than CLUSTER_RTOL * ||T||_1 (norm (G,)) that continues
    from the last of them.  Any cluster of _inverse_iteration, whose members
    are neighbours within one block of T, spans a run of such global
    neighbours, so none straddles the count.
    """
    # a comparison rather than a difference, so +inf levels make no inf - inf
    far = values[:, 1:] > values[:, :-1] + CLUSTER_RTOL * norm[:, np.newaxis]
    chain = np.zeros(values.shape, dtype=np.intp)
    np.cumsum(far, axis=1, out=chain[:, 1:])
    within = values <= values[:, :1] + window[:, np.newaxis]
    last = np.max(chain, axis=1, where=within, initial=0)
    return np.count_nonzero(chain <= last[:, np.newaxis], axis=1)


def _solve_tridiagonal(d: np.ndarray, e: np.ndarray, reflectors, window: Optional[np.ndarray],
                       norm: np.ndarray):
    """Ascending eigenvalues (G, n) of the scaled tridiagonals (d, e), whose
    negligible off-diagonals are zero, the eigenvectors (G, n, n) of the
    matrices they came from when reflectors is not None (else None), and the
    QL sweeps.  d is overwritten.  Given a window (G,), scaled as the
    eigenvalues are, a single leaf solves only _window_counts' vectors, its
    chains taken within CLUSTER_RTOL * norm (G,), ||T||_1 before the split:
    they are (G, n, m), m the largest count, with zero columns beyond each
    count; below LOCKSTEP matrices its QL also stops at the window.

    T is halved, the odd row going to the upper half, until no piece has more
    than LEAF rows.  Each tear takes its off-diagonal beta off the two diagonal
    entries beside it, T = diag(pieces) + beta u u^T with u the sum of the
    unit vectors of the two rows.  QL and inverse iteration solve the leaves
    as one stack per size, QL row by row (_ql_rows) or, from LOCKSTEP rows,
    in lockstep (_ql_lockstep), and divide._merge_level merges the pieces
    level by level.  A single leaf solved for values only skips inverse iteration; the
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
        le = np.stack([e[:, lo:hi - 1] for lo, hi in group], axis=1).reshape(rows, max(size - 1, 0))
        vectors = None
        try:
            if rows >= LOCKSTEP:
                levels, spent = _ql_lockstep(ld, le)
            else:
                levels, spent = _ql_rows(ld, le, window if len(tree) == 1 else None, norm)
            values = np.sort(levels, axis=1).reshape(G, len(group), size)
            if reflectors is not None or len(tree) > 1:
                counts = None
                if window is not None and len(tree) == 1:
                    counts = _window_counts(values[:, 0], norm, window)
                vectors = _inverse_iteration(ld, le, levels, counts)
                vectors = vectors.reshape(G, len(group), size, vectors.shape[-1])
        except ConvergenceError as exc:
            exc.index //= len(group)
            raise
        sweeps += spent
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


def eigendecompose(H: np.ndarray, want_vectors: bool = False, *,
                   window: float = math.inf) -> Spectrum:
    """Eigendecompose a dense complex Hermitian matrix, or a (G, d, d) stack of them.

    A finite window >= 0 asks a matrix of at most LEAF rows for the
    eigenvectors of its eigenvalues up to its smallest plus window only, and
    of every eigenvalue in a cluster with one of those; the other columns of
    its eigenvectors are zero, and the array has as many columns as the
    matrix of the stack that keeps the most.  In a stack of fewer than
    LOCKSTEP matrices its QL may stop before it reaches the other
    eigenvalues: each eigenvalue it leaves out is +inf, after the kept ones,
    which have the bits of a solve without a window.  Larger matrices
    ignore the window.

    Raises ParameterError for non-square, non-finite or non-Hermitian input
    or a window that is not >= 0, NumericalError if the tridiagonal stage or
    the eigenvalues leave the float range, and ConvergenceError if the QL
    stage exceeds its sweep cap or a secular equation its iteration cap;
    either names the failing matrix's position in the stack as ``index``.
    """
    if not window >= 0.0:
        raise ParameterError(f"window must be >= 0, got {window}")
    A, peak = _require_hermitian(H)
    single = A.ndim == 2
    if single:
        A = A[np.newaxis]
    G, n = A.shape[:2]
    # the working copy; a matrix solved as one leaf has its basis in ascending
    # order of its diagonal, so the tridiagonal's top holds the low-lying
    # states, which QL deflates first, and a windowed solve stops sooner
    order = None
    if n <= LEAF and G < LOCKSTEP:
        order = np.argsort(A.diagonal(axis1=-2, axis2=-1).real, axis=-1, kind="stable")
        # one flat gather: entry (i, j) of matrix g is A[g, order[g, i], order[g, j]]
        rows = order * n + n * n * np.arange(G)[:, np.newaxis]
        work = A.reshape(-1).take(rows[:, :, np.newaxis] + order[:, np.newaxis, :])
    else:
        work = A.copy()
    del H, A  # an input that the caller does not keep is freed here (Python 3.11+)
    # scale each matrix by the power of two of its largest entry, as LAPACK's
    # zheev does for extreme ones, so the Householder norms neither overflow
    # nor drop columns that underflow; every sum of squares scales by an even
    # power of two and its square root exactly, so a matrix whose squares are
    # normal floats either way keeps the bits of an unscaled solve
    exponent = np.frexp(peak.reshape(G))[1]
    parts = work.view(np.float64)
    np.ldexp(parts, -exponent[:, np.newaxis, np.newaxis], out=parts)
    # a lone matrix goes in without its stack axis, for Householder's scalar route
    d, e, reflectors = _tridiagonalize(work[0] if G == 1 else work, want_vectors)
    d, e = np.atleast_2d(d, e)
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
    # entries is zero from here on, so QL's blocks end where inverse
    # iteration splits T, and a tear there takes nothing off the diagonal
    t = np.abs(d[:, :-1]) + np.abs(d[:, 1:])
    e[e * e <= sys.float_info.epsilon ** 2 * t * t] = 0.0
    with np.errstate(over="ignore"):  # a window beyond the float range keeps every vector
        window = None if window == math.inf else np.ldexp(window, -(exponent + scale))
    values, vectors, sweeps = _solve_tridiagonal(d, e, reflectors, window, np.ldexp(norm, -scale))
    left_out = values == math.inf
    with np.errstate(over="ignore"):
        values = np.ldexp(values, (exponent + scale)[:, np.newaxis])
    bad = np.flatnonzero((~np.isfinite(values) & ~left_out).any(axis=1))
    if bad.size:
        raise NumericalError(f"eigenvalues of a {n}x{n} matrix exceed the float range",
                             index=int(bad[0]))
    if vectors is not None and order is not None:
        # back from the ordered basis: row i of a matrix's vectors is its basis state order[i]
        unordered = np.empty_like(vectors)
        unordered[np.arange(G)[:, np.newaxis], order] = vectors
        vectors = unordered
    if single:
        values = values[0]
        vectors = None if vectors is None else vectors[0]
    return Spectrum(values, vectors, sweeps)


def eigenvalues_only(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues without the eigenvector cost."""
    return eigendecompose(H, want_vectors=False).eigenvalues
