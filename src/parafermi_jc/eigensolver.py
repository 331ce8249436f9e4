"""Dense Hermitian eigensolver, for complex Hermitian or real symmetric input.

Self-contained two-stage reduction, no LAPACK eigenroutine involved.  Every
stage takes a (G, d, d) stack of matrices; a single matrix is a stack of one,
and every matrix is solved in the input's basis.

A real input stays real: the Hermiticity check, both reductions and the
back-transforms then run in float64 on the same lines, the phases below are
signs, and the eigenvectors are real.  The package's blocks reach the solver
in their real form (module ``blocks``): at d = 256, Householder then takes
about two thirds of its complex time, and the back-transform under half.
Each matrix is first scaled by the power of two of its largest entry, and
its eigenvalues scaled back, as LAPACK's zheev does for extreme matrices.

1. Each matrix is brought to a real tridiagonal T with a nonnegative
   off-diagonal.  A matrix of at most LEAF rows, in a stack of fewer than
   LOCKSTEP matrices, is tridiagonalized by Lanczos from q_0 = e_s, s its
   basis state of lowest real diagonal (the first on ties), one pass for the
   whole stack (Golub and Van Loan, 10.3, with complete reorthogonalization):
   each step projects A q_j off every earlier q by two classical
   Gram-Schmidt passes, about a dozen numpy calls, where Householder's stack
   route takes about 38 per column.  A reorthogonalized vector at the
   rounding level, as where a Krylov space turns invariant, splits T, and
   the lowest-diagonal basis state of at most mean weight on that space,
   orthogonalized twice, continues.  The basis Q is kept, so the
   back-transform is one product Q Z, already in the input's basis.  From
   e_s, T's top row is the lowest state, which the window stop of 2. relies
   on.  On the staircase stack (40 real 27 x 27
   matrices) the reduction and its back-transform take 1.1 ms against
   2.1 ms by Householder.  Lanczos lost where Householder stays: its
   BLAS-2 reorthogonalization costs about 6 n**3 flops against 4/3 n**3, and
   on lockstep stacks its restarts left couplings that QL keeps.
   Householder similarity transformations bring every other matrix to
   tridiagonal form, PANEL reflectors at a time as in LAPACK's zhetrd: within
   a panel each column is brought up to date from the panel's reflectors
   when it is reached, and the trailing matrix takes the whole panel as one
   rank-2*PANEL product; no operand of these products is a view of negative
   stride, which would take numpy's matmul off BLAS.  A lone matrix takes
   each column's reflector scalars on Python numbers, as zlarfg (dlarfg for
   real input) does, and a stack on (G,) arrays.  An input with no nonzero
   entry below the subdiagonal, a chain (as every k = 1 block is) or a stack
   of chains, is tridiagonal already and runs no panel.  A diagonal phase
   rotation (a sign for real input) then makes the off-diagonal real and
   nonnegative.
   With eigenvectors requested, the reduction keeps its reflectors, scaled to
   unit norm; once stage 2 is done they are applied to the tridiagonal's
   eigenvectors, one panel per compact-WY product as in zunmtr (the
   back-transform), so the Householder unitary is never formed, and a chain's
   back-transform is the phase rotation alone.  Each panel's triangular
   factor T comes from its Gram matrix by zlarft's recurrence, one run of it
   over the stacked Gram matrices of every panel.
2. Each tridiagonal is scaled by the power of two nearest its 1-norm, and its
   eigenvalues scaled back exactly; every off-diagonal that the split test
   e_i**2 <= eps**2 * (|d_i| + |d_i+1|)**2 calls negligible is then set to
   zero, once.  With eigenvectors requested, T is halved until no piece has
   more than LEAF rows (a single piece up to LEAF rows), each tear taking its
   off-diagonal out of the two diagonal entries beside it; without, T is one
   leaf of any size, as LAPACK's zheevd hands jobz = 'N' to dsterf.  Root-free
   implicit-shift QL (the Pal-Walker-Kahan form of LAPACK's dsterf, Wilkinson
   shift) finds the leaves' eigenvalues: it works on the squares e_i**2,
   computed once, so a sweep takes one square root and one hypot for its shift
   and none per rotation; the scaling keeps the squares in range.  The leaves
   of one size over the whole stack form a group, and QL runs on one of two
   schedules.  A group of fewer than LOCKSTEP leaves goes row by row, one leaf
   at a time on Python floats: a block's end is found once; each sweep then
   tests only the off-diagonal at the block's top, where QL converges, and may
   cross an entry that became negligible during the block's sweeps.  A larger
   group goes in lockstep, with the same arithmetic on numpy rows: every leaf
   deflates row l before any moves on to l + 1, and one sweep serves every
   leaf whose off-diagonal l is not yet negligible, chased from the leaf's
   last row, across any exactly zero coupling (no rotation there).  On the
   semiclassical comparison's 161-point scans (d = 2 to 8, values only) the
   lockstep took 0.2 to 0.5 of the row-by-row QL time.  When eigenvectors are
   requested, every eigenvalue of the leaves of one size is a shift, all at
   once.  Neighbours in one block of T closer than CLUSTER_RTOL * ||T||_1 form
   a cluster, and those closer than GROUP_RTOL * ||T||_1 a group.  Without a
   group, each vector comes from one twisted factorization of T - lambda I
   (LAPACK's dlar1v; Dhillon and Parlett, 2004), whose pivots take five numpy
   calls per row; with one, inverse iteration finds them all, as dsyevr falls
   back from MRRR to dstein: T - lambda I is factored with partial pivoting,
   INVERSE_SOLVES solves from a fixed start follow (about 46 calls per row),
   and QR orthonormalizes each group after every solve but the last.  Either
   way QR then orthonormalizes each cluster, in ascending order.  The twisted
   vectors take 0.55 of inverse iteration's time on the staircase stack, and
   0.38 at d = 256.  Both split T at its zero off-diagonals, where QL's blocks
   end; a matrix with two shifts closer than GROUP_RTOL * ||T||_1 also splits
   at its couplings under that, its shifts then from QL on the split
   tridiagonal, so that each piece solves its own copy of an eigenvalue that
   several pieces share.  Given a window, a matrix solved as a single leaf
   keeps only the vectors of its eigenvalues up to its smallest plus the
   window, and of the chain of neighbours closer than CLUSTER_RTOL * ||T||_1
   that continues from the last of them, so no cluster straddles the cut; the
   other shifts are not solved, and their columns are zero.  On the row-by-row
   schedule the window also stops that leaf's QL, which from Lanczos' lowest
   state deflates the low-lying levels first (the lockstep computes every
   level): once a Sturm count certifies that no undeflated eigenvalue reaches
   the kept chain, QL returns, and every level beyond the chain is +inf.  The
   count is tried as soon as the row just deflated or the next diagonal lies
   past the window.  The finite levels are then the kept ones, with the bits
   of the full solve; on the staircase scan's real stack (d = 27, 40 matrices,
   beta = 1) QL finds 140 of the 1,080 eigenvalues, in 298 sweeps instead of
   1,898 (287 of 1,902 on the complex blocks).  The pieces of a larger matrix
   solved with eigenvectors are then merged back level by level (Cuppen's
   divide and conquer, as LAPACK's dstedc; module ``divide``, imported on
   first use): each merge is a rank-one update of the two pieces' eigenvalues,
   deflated as in dlaed2, its secular equations solved all at once by dlaed4's
   middle way, and its eigenvectors taken from Gu and Eisenstat's weights and
   applied to the pieces' vectors by one product per piece.  Up to LEAF rows
   the values-only path solves the leaf that the vectors path solves, so its
   eigenvalues are those of the vectors path, bit for bit; above, its one QL
   and the merges agree to rounding.

Working set: the input is copied once and, when the caller keeps no reference
to it, freed (from Python 3.11).  The lockstep holds its group's diagonals
and squares, and per sweep a few arrays of the rows it moves.  Lanczos holds
the stack and its basis Q, of the stack's size, and with eigenvectors keeps Q
to the back-transform.  The Householder workspace has 2 * min(PANEL, d - 2)
columns, inverse iteration holds its factors or pivots only through the
solves, and the back-transform holds every panel's nb x nb factor T at once
(8 x 32**2 entries at d = 256), each applied to the nb x m product V^H X; the
root's eigenvectors reach it with no other reference, so it frees them once
phase-rotated.  A merge holds the two pieces' vectors, its own, one d x d
coefficient matrix, and d x d arrays of the secular solver's rows (the
roots' distances to the poles, and while a level has several equations,
their weights), which shrink as roots converge.  With eigenvectors
the traced peak, input aside, is about 4.8 times a complex stack at d = 27
(40 matrices), and 3.3 times at d = 256; a real stack peaks at 4.3 and 3.05
times the bytes of its complex counterpart.  The staircase stack (d = 27, 40
matrices) with the window of beta = 1 keeps 135 of its 1,080 vectors and
peaks at 2.27 times the complex stack, or 1.21 for its real form.

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

#: Hermiticity tolerance for accepting a matrix, relative to max|H|.
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

#: With eigenvectors, tridiagonals are halved until no piece has more rows
#: than this; QL and inverse iteration solve the pieces, which are merged back
#: level by level.  Without them, QL solves each tridiagonal whole.
LEAF = 64

#: A size group of at least this many leaves is solved by QL in lockstep, one
#: numpy sweep serving all of its rows; a smaller one row by row on Python
#: floats.  Solving omega scans of d = 2 to 16 blocks for values or windowed
#: vectors, the lockstep took 0.5 to 1.0 times the row-by-row time at 128
#: matrices, and 0.6 to 1.3 times at 64.
LOCKSTEP = 128

#: After step 0, Lanczos takes a reorthogonalized vector of norm at most
#: ROUNDING * n * eps, on a matrix scaled to entries below 1, for rounding:
#: T splits there and Lanczos restarts.  Where the Krylov spaces of random
#: matrices of 8 to 64 rows with 2 to 5 distinct eigenvalues turned
#: invariant, that norm had a median of 4 to 17 eps.
ROUNDING = 4.0


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (ascending), optionally the unitary of column eigenvectors
    (real orthogonal for a real input), and the number of QL implicit-shift
    sweeps the solve took, those of its leaves.  A lockstep sweep counts once
    for every leaf it moves, so both schedules count the sweeps that each
    leaf took.

    For a (G, d, d) stack, eigenvalues is (G, d), eigenvectors (G, d, d) and
    sweeps the total over the stack.  A solve with a window returns the
    eigenvectors (G, d, m) of the m smallest eigenvalues, m the most that any
    matrix keeps; column j of a matrix that keeps fewer than j + 1 is zero.
    A row of eigenvalues whose QL stopped at the window holds the kept
    levels, ascending, followed by +inf.

    A matrix of at most LEAF rows in a stack of fewer than LOCKSTEP is
    tridiagonalized by Lanczos from its state of lowest diagonal, others by
    Householder; the sweeps count QL on whichever tridiagonal that gave.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray] = None
    sweeps: int = 0

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        if self.eigenvectors is not None:
            self.eigenvectors.flags.writeable = False


def _require_hermitian(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H as a complex array, or a float64 one when H is real, and max|H| per
    matrix, once H is known to be a square matrix or a stack of them, finite
    and Hermitian (for a real H, symmetric).

    The package's one Hermiticity check: block assembly calls it on each
    block, and eigendecompose, the only way into the solver, on its input,
    so a block's matrix is checked again, in its real form, when it is
    solved.  A matrix is rejected when max|H - H^dag| exceeds
    HERMITICITY_RTOL * max|H| (the smallest normal float for a subnormal H,
    as in blocks._real_form), compared in squares a few ulps on the safe
    side, so it rejects every matrix that the comparison of the deviations
    themselves, by hypot, rejects.  Raises ParameterError otherwise.
    """
    A = np.asarray(H, dtype=np.complex128 if np.iscomplexobj(H) else np.float64)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ParameterError(f"matrix must be square, got shape {A.shape}")
    peak = np.abs(A).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(peak).all():
        raise ParameterError("matrix has non-finite entries")
    # |H - H^dag|^2 from the real parts' antisymmetric part and the imaginary
    # parts' symmetric part (a real H has none), in units of the power of two
    # of the scale, where the squares stay in range for any finite H
    scale = np.maximum(peak, sys.float_info.min)
    unit = np.ldexp(1.0, -np.frexp(scale)[1])
    units = unit[..., np.newaxis, np.newaxis]
    with np.errstate(over="ignore"):  # a deviation beyond the float range is inf, and rejected
        dev2 = A.real - A.real.swapaxes(-1, -2)
        dev2 *= units
        dev2 *= dev2
        if A.dtype == np.complex128:
            im = A.imag + A.imag.swapaxes(-1, -2)
            im *= units
            im *= im
            dev2 += im
    # hypot rounds by one ulp, the squares and their sum by a few: the bound's
    # square, 8 ulps smaller, keeps every deviation rejected that hypot would
    bound = HERMITICITY_RTOL * (scale * unit)  # scale * unit exact, never subnormal
    if (dev2.max(axis=(-2, -1), initial=0.0)
            > bound * bound * (1.0 - 8.0 * sys.float_info.epsilon)).any():
        with np.errstate(over="ignore"):
            dev = np.max(np.abs(A - A.conj().swapaxes(-1, -2)))
        raise ParameterError(f"matrix is not Hermitian: max|H - H^dag| = {dev:.3e}")
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
    columns of V over rows r0..  A skipped reflector is a zero column.  An A
    whose every matrix is a chain, with no nonzero entry below the
    subdiagonal, is tridiagonal already and runs no panel: d and |e| are
    read off it, panels is empty, and Q = diag(phases).

    Within a panel the reflectors' rank-2 updates are not applied: each
    column is brought up to date from the panel's (V, W) when it is reached,
    and p = A u - V (W^H u) - W (V^H u) stands in for the updated A u.  The
    trailing matrix takes all of them at once when the panel ends, as one
    rank-2*PANEL product.

    A matrix without a stack axis takes each column's scalars (||x||, x0, the
    keep test, the phase, u[0], alpha) as Python numbers and its products as
    plain 2-D ones, as numpy calls on 0-d arrays cost more than their
    arithmetic; a stack keeps (G,) arrays, whose calls serve all G matrices.
    The work, the reflectors and the phases take A's dtype, so a real A is
    reduced in real arithmetic, its phases signs.
    """
    n = A.shape[-1]
    stack = A.shape[:-2]
    tiny = sys.float_info.min
    # the columns to reduce, none for a chain; the lower diagonals are read
    # one at a time, so any other input stops at its first nonzero one
    columns = 0
    if any(np.diagonal(A, -k, axis1=-2, axis2=-1).any() for k in range(2, n)):
        columns = n - 2
    # reflector k of a panel is stored in column mid-1-k and its w in column
    # mid+k, so the panel's first k pairs fill the contiguous columns
    # [mid-k, mid+k), and reversing those columns pairs each u with its w
    mid = min(PANEL, columns)
    work = np.empty(stack + (n, 2 * mid), dtype=A.dtype)
    zeros = np.zeros(stack)
    panels = [] if want_vectors else None
    for j0 in range(0, columns, PANEL):
        j1 = min(j0 + PANEL, columns)
        work[..., j0:, :] = 0.0
        for k, j in enumerate(range(j0, j1)):
            col = A[..., j:, j]
            if k:
                pairs = work[..., j:, mid - k:mid + k]
                col -= _mv(pairs, np.conjugate(pairs[..., 0, ::-1]))
            x = col[..., 1:]
            u = work[..., j + 1:, mid - 1 - k]
            w = work[..., j + 1:, mid + k]
            if not stack:
                # a lone matrix: the steps below on Python numbers, and a
                # skipped u stays the zero column the panel started with
                xnorm = math.sqrt(np.vdot(x, x).real)
                x0 = x[0].item()
                ax0 = abs(x0)
                vnorm2 = 2.0 * xnorm * (xnorm + ax0)
                if vnorm2 >= tiny:
                    phase = 1.0
                    if ax0 > 0.0:  # x0 / |x0|: a sign for a real matrix
                        phase = (complex(x0.real / ax0, x0.imag / ax0) if isinstance(x0, complex)
                                 else x0 / ax0)
                    vnorm = math.sqrt(vnorm2)
                    np.multiply(x, 1.0 / vnorm, out=u)
                    u[0] = phase * ((ax0 + xnorm) / vnorm)
                    col[1] = -phase * xnorm
                p = A[j + 1:, j + 1:] @ u
                if k:
                    # reversed inside np.conjugate, which copies for either
                    # dtype: a vector of negative stride would take matmul
                    # off BLAS
                    pairs = work[j + 1:, mid - k:mid + k]
                    p -= pairs @ np.conjugate((u.conj() @ pairs)[::-1])
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
                p -= _mv(pairs, np.conjugate(_vh(u, pairs)[..., ::-1]))
            p *= 2.0
            np.multiply(u, -_vh(u, p[..., np.newaxis]), out=w)
            w += p
        nb = j1 - j0
        pairs = work[..., j1:, mid - nb:mid + nb]
        A[..., j1:, j1:] -= pairs @ np.conjugate(pairs[..., ::-1]).swapaxes(-1, -2)
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
    phases = np.concatenate([np.ones(stack + (1,), dtype=A.dtype),
                             np.cumprod(unit, axis=-1)], axis=-1)
    return d, mag, (phases, panels)


def _panel_factors(panels) -> np.ndarray:
    """The triangular factor T of each panel's compact-WY form, as one
    (panels, ..., nb, nb) stack, nb the first panel's width.

    The product of a panel's reflectors H_j = I - tau_j v_j v_j^H is
    I - V T V^H, with the upper triangular T of LAPACK's zlarft (forward,
    columnwise) by its recurrence from S = V^H V and tau_j = 2 / S_jj:
    T_jj = tau_j and T[:j, j] = -tau_j T[:j, :j] S[:j, j].  A skipped
    reflector takes tau_j = 0, which its zero column of V makes irrelevant,
    and so does the zero padding of a narrower last panel: its T is the
    leading block of its entry.  Every panel's S goes into the stack first,
    so one run of the recurrence serves them all, and no panel solves a
    linear system.
    """
    first = panels[0][1]
    nb = first.shape[-1]
    # each S = V^H V, of which T keeps the part above the diagonal
    T = np.zeros((len(panels),) + first.shape[:-2] + (nb, nb), dtype=first.dtype)
    for S, (_, V) in zip(T, panels):
        width = V.shape[-1]
        S[..., :width, :width] = V.conj().swapaxes(-1, -2) @ V
    norms = np.diagonal(T, axis1=-2, axis2=-1).real.copy()
    T *= np.tri(nb, nb, -1, dtype=bool).T
    # column j of T needs S's column j and T's columns before it
    tau = np.divide(2.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    T[..., np.arange(nb), np.arange(nb)] = tau
    for j in range(1, nb):
        T[..., :j, j] = -tau[..., j, np.newaxis] * _mv(T[..., :j, :j], T[..., :j, j])
    return T


def _back_transform(reflectors, Z: np.ndarray) -> np.ndarray:
    """Q Z for the unitary Q = H_0 H_1 ... diag(phases) that _tridiagonalize stored.

    The panels are applied last first, each as X - V (T (V^H X)) with its T
    from _panel_factors, so Q is never formed; without panels, as for a
    chain, Q Z is the phase multiply alone.  Z is a (G, n, m) stack; a lone
    matrix's reflectors apply to a stack of one.
    """
    phases, panels = reflectors
    X = phases[..., :, np.newaxis] * Z
    del Z
    if not panels:
        return X
    for (r0, V), T in zip(reversed(panels), _panel_factors(panels)[::-1]):
        width = V.shape[-1]
        X[..., r0:, :] -= V @ (T[..., :width, :width] @ (V.conj().swapaxes(-1, -2) @ X[..., r0:, :]))
    return X


def _lanczos(A: np.ndarray):
    """Lanczos tridiagonalization of each matrix of the stack A (G, n, n),
    from q_0 = e_s, s its basis state of lowest real diagonal (the first on
    ties).

    Returns (diag, offdiag >= 0, Q) of shapes (G, n), (G, n - 1) and (G, n,
    n), where row j of Q is q_j, so that Q^T takes the tridiagonal's
    eigenvectors back to A's.  Golub and Van Loan's Lanczos with complete
    reorthogonalization: A q_j is projected off every q_i, i <= j, by two
    classical Gram-Schmidt passes, the first of which gives alpha_j, and
    beta_j is the norm of what is left, w.  At step 0 w is A's column s off
    its diagonal, exact: only a zero one splits T, and a small one is
    normalized in units of its largest entry.  At a later step a w of norm
    at most ROUNDING * n * eps is rounding: T splits there (beta_j = 0), and
    _restart gives q_j+1.
    """
    G, n = A.shape[:2]
    d = np.zeros((G, n))
    e = np.zeros((G, max(n - 1, 0)))
    Q = np.zeros_like(A)
    if n == 0:
        return d, e, Q
    diag = A.diagonal(axis1=1, axis2=2).real
    matrices, s = np.arange(G), np.argmin(diag, axis=1)
    Q[matrices, 0, s] = 1.0
    floor = ROUNDING * n * sys.float_info.epsilon
    w = A[matrices, :, s]
    d[:, 0] = w[matrices, s].real
    w[matrices, s] = 0.0
    for j in range(1, n):
        beta = np.sqrt(np.einsum("gi,gi->g", w.conj(), w).real)
        q = Q[:, j]
        low = np.flatnonzero(beta <= floor)
        if low.size:
            # the rows of low are set below
            np.divide(w, np.where(beta > floor, beta, 1.0)[:, np.newaxis], out=q)
            if j == 1:
                beta[low], q[low] = _normalize(w[low])
                low = low[beta[low] == 0.0]
            beta[low] = 0.0
            if low.size:
                q[low] = _restart(Q[low, :j], diag[low])
        else:
            np.divide(w, beta[:, np.newaxis], out=q)
        e[:, j - 1] = beta
        basis = Q[:, :j + 1]
        p = _mv(A, q)
        # the conjugated coefficients q_i^H p, so sum_i (q_i^H p) q_i is
        # _vh of them; conj() of a real array is the array itself
        h = _mv(basis, p.conj())
        d[:, j] = h[:, j].real
        if j == n - 1:
            break
        w = p - _vh(h, basis)
        w -= _vh(_mv(basis, w.conj()), basis)
    return d, e, Q


def _normalize(w: np.ndarray):
    """(||w||, w / ||w||) for each row of the stack w (S, m), in units of the
    row's largest part, so that neither the squares nor the quotients lose
    digits to underflow; a zero row stays zero.  Real and imaginary parts
    are taken as float64 pairs: numpy's complex division overflows when the
    divisor is subnormal."""
    parts = w.view(np.float64)
    peak = np.max(np.abs(parts), axis=1, initial=0.0)
    parts = parts / np.where(peak > 0.0, peak, 1.0)[:, np.newaxis]
    size = np.sqrt(np.einsum("si,si->s", parts, parts))
    parts /= np.where(size > 0.0, size, 1.0)[:, np.newaxis]
    return peak * size, parts.view(w.dtype)


def _restart(Q: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The unit vector that continues Lanczos on each matrix of a stack whose
    q_0..q_j-1 are the rows of Q (S, j, n) and whose real diagonal is diag
    (S, n): of the basis states whose weight sum_i |q_i[k]|**2 is at most
    j / n, the one of lowest diagonal (the first on ties), orthogonalized
    against them twice."""
    S, j, n = Q.shape
    weight = np.einsum("sik,sik->sk", Q.conj(), Q).real
    v = np.zeros((S, n), dtype=Q.dtype)
    v[np.arange(S), np.argmin(np.where(weight <= j / n, diag, np.inf), axis=1)] = 1.0
    for _ in range(2):
        v -= _vh(_mv(Q, v.conj()), Q)
    return _normalize(v)[1]


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
    When row l deflates, and either it or the next diagonal d[l + 1] lies
    above the smallest deflated value plus window (d[0] on entry stands in
    for that value until then), the deflated values are sorted and the chain
    that _window_counts keeps is found among them:
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
    # or the next diagonal lands above it; until then the top entry stands in
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
        if retry <= l < n - 2 and max(d[l], d[l + 1]) > limit:
            kept = sorted(d[:l + 1])
            limit = kept[0] + window
            if max(d[l], d[l + 1]) > limit:
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


def _twisted_vectors(a: np.ndarray, b: np.ndarray, outside: np.ndarray) -> np.ndarray:
    """The unnormalized vector x (n, S) of each column's twisted factorization
    of T - sigma I (dlar1v's), from its diagonal a (n, S) and off-diagonal
    b (n - 1, S) >= 0, zero where T's blocks end; outside (n, S) marks the
    rows off the column's block.  The pivots D+_i = a_i - b_i-1**2 / D+_i-1
    and D-_i = a_i - b_i**2 / D-_i+1 run in one loop, a pivot no larger
    than pivmin counting as -pivmin, as in _sturm_count; the twist r is the
    row of the block with the least |D+_r + D-_r - a_r|, and x_r = 1, x_i =
    -(b_i / D+_i) x_i+1 above r and x_i+1 = -(b_i / D-_i+1) x_i below, one
    cumulative product each, zero past the block's ends."""
    n, S = a.shape
    b2 = b * b
    pivmin = sys.float_info.min * max(1.0, np.max(b2, initial=0.0))
    # the bottom-up pivots are the top-down pivots of the reversed rows
    P = np.concatenate([a, a[::-1]], axis=1)
    E = np.concatenate([b2, b2[::-1]], axis=1)
    for i in range(n):
        pivot = P[i]
        if i:
            pivot -= E[i - 1] / P[i - 1]
        pivot[np.abs(pivot) <= pivmin] = -pivmin
    down, up = P[::-1, S:], P[:, :S]
    gamma = np.abs(up + down - a)
    gamma[outside] = np.inf
    above = np.arange(n - 1)[:, np.newaxis] < np.argmin(gamma, axis=0)
    x = np.ones((n, S))
    x[:-1] = np.cumprod(np.where(above, -b / up[:-1], 1.0)[::-1], axis=0)[::-1]
    x[1:] *= np.cumprod(np.where(above, 1.0, -b / down[1:]), axis=0)
    return x


def _one_norm(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """||T||_1 of each tridiagonal of the stack (d (G, n), e (G, n - 1) >= 0)."""
    row_norm = np.abs(d)
    row_norm[:, 1:] += e
    row_norm[:, :-1] += e
    return np.max(row_norm, axis=1, initial=0.0)


def _inverse_iteration(d: np.ndarray, e: np.ndarray, levels: np.ndarray,
                       counts: Optional[np.ndarray]):
    """Eigenvectors of the real symmetric tridiagonals (d, e), twisted or by inverse iteration.

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
    the eigenvalues of a split block in its rows, and a shift's vector is
    zero outside its block.  A matrix with two shifts closer than
    GROUP_RTOL * ||T||_1 also splits at its couplings under that, and QL on
    the split tridiagonal gives its shifts, rank for rank: one factorization
    across pieces that share an eigenvalue amplifies one piece's vector by
    up to eps**-k for k tiny pivots, and the group's other vectors drown in
    its rounding (residuals up to 1e-2, in about 1 of 8,000 random matrices
    of repeated eigenvalues).  The split moves no eigenvalue by more than
    GROUP_RTOL * ||T||_1, nor a residual by more than twice that.  The
    eigenvalues are sorted by (matrix, block, value), and each is its own
    shift.  Neighbours of one block closer than GROUP_RTOL form a group and
    neighbours closer than CLUSTER_RTOL a cluster.

    Without a group each vector is _twisted_vectors' of its shift (a group's
    members gave parallel vectors, or at distinct twists divided by zero).
    With one, every shift takes INVERSE_SOLVES pivoted solves together, from
    starts zero outside their blocks, and QR orthonormalizes every group
    after each solve but the last.  Either way every cluster is then
    orthonormalized, in ascending order of its eigenvalues.
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
    outside = (rows < lo) | (rows >= hi)
    if groups[0].size == S:  # no group: one twisted factorization per shift
        Y = _twisted_vectors(a[:, matrix] - sv, b[:, matrix], outside)
    else:
        Y = _start_vectors(n)[:, sj]
        Y[outside] = 0.0
        factors = _factor_shifted(a[:, matrix] - sv, b[:, matrix])
        for it in range(INVERSE_SOLVES):
            _solve_shifted(factors, Y, forward=it > 0)
            if it < INVERSE_SOLVES - 1:
                _orthonormalize(Y.T, *groups)
        del factors
    _orthonormalize(Y.T, *clusters)
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


def _solve_tridiagonal(d: np.ndarray, e: np.ndarray, basis, window: Optional[np.ndarray],
                       norm: np.ndarray):
    """Ascending eigenvalues (G, n) of the scaled tridiagonals (d, e), whose
    negligible off-diagonals are zero, the eigenvectors (G, n, n) of the
    matrices they came from when basis is not None (else None), and the QL
    sweeps.  basis is Lanczos' Q (G, n, n), whose rows q_j the eigenvectors
    of a one-leaf solve are taken back through, one product Q^T Z; or
    Householder's reflectors, applied by _back_transform.
    d is overwritten.  Given a window (G,), scaled as the
    eigenvalues are, a single leaf solves only _window_counts' vectors, its
    chains taken within CLUSTER_RTOL * norm (G,), ||T||_1 before the split:
    they are (G, n, m), m the largest count, with zero columns beyond each
    count; below LOCKSTEP matrices its QL also stops at the window.

    Without a basis each tridiagonal is a single leaf, whatever its size,
    and QL alone solves it.  With one, T is halved, the odd row going to the
    upper half, until no piece has more than LEAF rows.  Each tear takes its
    off-diagonal beta off the two diagonal entries beside it, T =
    diag(pieces) + beta u u^T with u the sum of the unit vectors of the two
    rows.  QL and inverse iteration solve the leaves as one stack per size,
    QL row by row (_ql_rows) or, from LOCKSTEP rows, in lockstep
    (_ql_lockstep), and divide._merge_level merges the pieces level by level.
    """
    G, n = d.shape
    tree = [[(0, n)]]
    while basis is not None and max(hi - lo for lo, hi in tree[-1]) > LEAF:
        tree.append([half for lo, hi in tree[-1]
                     for half in ((lo, (lo + hi) // 2), ((lo + hi) // 2, hi))])
        window = None  # the merges need every leaf's vectors
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
                levels, spent = _ql_rows(ld, le, window, norm)
            values = np.sort(levels, axis=1).reshape(G, len(group), size)
            if basis is not None:
                counts = None if window is None else _window_counts(values[:, 0], norm, window)
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
        # imported on first use, so that a process that solves no matrix of
        # more than LEAF rows with eigenvectors does not compile it (as costly
        # as this module where bytecode is not cached)
        from .divide import _merge_level
    for depth in range(len(tree) - 2, -1, -1):
        pieces.update(zip(tree[depth], _merge_level(
            [(pieces.pop((lo, (lo + hi) // 2)), pieces.pop(((lo + hi) // 2, hi)),
              e[:, (lo + hi) // 2 - 1]) for lo, hi in tree[depth]])))
    values = pieces[(0, n)][0]
    if basis is None:
        vectors = None
    elif isinstance(basis, np.ndarray):
        vectors = basis.swapaxes(-1, -2) @ pieces.pop((0, n))[1]
    else:
        # the root's vectors are passed on unnamed, so _back_transform can free them early
        vectors = _back_transform(basis, pieces.pop((0, n))[1])
    return values, vectors, sweeps


def eigendecompose(H: np.ndarray, want_vectors: bool = False, *,
                   window: float = math.inf) -> Spectrum:
    """Eigendecompose a dense complex Hermitian matrix, or a (G, d, d) stack of them.

    A real input is taken as real symmetric and solved in float64 throughout:
    its eigenvectors are real.

    A finite window >= 0 asks a matrix of at most LEAF rows for the
    eigenvectors of its eigenvalues up to its smallest plus window only, and
    of every eigenvalue in a cluster with one of those; the other columns of
    its eigenvectors are zero, and the array has as many columns as the
    matrix of the stack that keeps the most.  Larger matrices solved with
    eigenvectors ignore the window.  Any matrix that does not ignore it, in a
    stack of fewer than LOCKSTEP matrices, may have its QL stop before it
    reaches the other eigenvalues: each eigenvalue it leaves out is +inf,
    after the kept ones, which have the bits of a solve without a window.

    A matrix of at most LEAF rows in a stack of fewer than LOCKSTEP is
    tridiagonalized by Lanczos from its state of lowest diagonal, so T's top
    row is that state, where QL deflates first and the window stops it;
    others by Householder, which is faster above LEAF rows and leaves no
    restart's rounding couplings for the lockstep to sweep through.

    Raises ParameterError for non-square, non-finite or non-Hermitian input
    or a window that is not >= 0, NumericalError if the tridiagonal stage or
    the eigenvalues leave the float range, and ConvergenceError if the QL
    stage exceeds its sweep cap or a secular equation its iteration cap;
    either names the failing matrix's position in the stack as ``index``.
    """
    if not window >= 0.0:
        raise ParameterError(f"window must be >= 0, got {window}")
    A, peak = _require_hermitian(H)
    del H
    single = A.ndim == 2
    if single:
        A = A[np.newaxis]
    G, n = A.shape[:2]
    work = A.copy()
    del A  # an input that the caller does not keep is freed here (Python 3.11+)
    # scale each matrix by the power of two of its largest entry, as LAPACK's
    # zheev does for extreme ones, so the reductions' norms neither overflow
    # nor drop columns that underflow; every sum of squares scales by an even
    # power of two and its square root exactly, so a matrix whose squares are
    # normal floats either way keeps the bits of an unscaled solve
    exponent = np.frexp(peak.reshape(G))[1]
    parts = work.view(np.float64)
    np.ldexp(parts, -exponent[:, np.newaxis, np.newaxis], out=parts)
    if n <= LEAF and G < LOCKSTEP:
        d, e, basis = _lanczos(work)
        route = "Lanczos"
        basis = basis if want_vectors else None
    else:
        # a lone matrix goes in without its stack axis, for Householder's scalar route
        d, e, basis = _tridiagonalize(work[0] if G == 1 else work, want_vectors)
        route = "Householder"
        d, e = np.atleast_2d(d, e)
    del work, parts  # the view parts would keep work alive
    # entries of the tridiagonal are at most about n, so its 1-norm is finite
    # exactly when every entry is
    norm = _one_norm(d, e)
    bad = np.flatnonzero(~np.isfinite(norm))
    if bad.size:
        raise NumericalError(
            f"{route} tridiagonalization of a {n}x{n} matrix left non-finite entries",
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
    values, vectors, sweeps = _solve_tridiagonal(d, e, basis, window, np.ldexp(norm, -scale))
    left_out = values == math.inf
    with np.errstate(over="ignore"):
        values = np.ldexp(values, (exponent + scale)[:, np.newaxis])
    bad = np.flatnonzero((~np.isfinite(values) & ~left_out).any(axis=1))
    if bad.size:
        raise NumericalError(f"eigenvalues of a {n}x{n} matrix exceed the float range",
                             index=int(bad[0]))
    if single:
        values = values[0]
        vectors = None if vectors is None else vectors[0]
    return Spectrum(values, vectors, sweeps)
