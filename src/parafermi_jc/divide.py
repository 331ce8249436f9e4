"""The merge of the eigensolver's divide and conquer (Cuppen's method, as LAPACK's dstedc).

With eigenvectors requested, ``eigensolver`` halves a tridiagonal of more than
LEAF rows into leaves and solves them; this module merges the pieces back, one
level at a time.  A merge is a rank-one update of its two pieces' eigenvalues:
dlaed2's deflation, the secular equations of all merges of a level solved at
once by dlaed4's middle way, and Gu and Eisenstat's eigenvectors, applied to
the pieces' vectors by one product per piece.  ``eigensolver`` imports it on
first use, which a values-only solve never makes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError

#: Secular-equation iterations allowed per eigenvalue of a merge (dlaed4's MAXIT).
MAX_SECULAR_ITERATIONS = 30


def _deflate(p: list, z: list, rho: float):
    """dlaed2's deflation of diag(p) + rho z z^T, p ascending, in place.

    Returns (kept, gone, turns): the positions left to the secular equation,
    those whose p is already an eigenvalue, and the Givens rotations
    (i, j, c, s) to apply, in order, to columns i and j of the eigenvector
    basis.  With tol = 8 eps max(max|p|, max|z|), position j deflates when
    rho |z_j| <= tol; of two kept neighbours whose poles are so close that
    the rotation zeroing z_i leaves an off-diagonal of at most tol, the
    first deflates.
    """
    tol = 8.0 * sys.float_info.epsilon * max(max(map(abs, p)), max(map(abs, z)))
    kept, gone, turns = [], [], []
    i = -1
    for j in range(len(p)):
        if rho * abs(z[j]) <= tol:
            gone.append(j)
            continue
        if i >= 0:
            r = math.hypot(z[i], z[j])
            c, s = z[j] / r, -z[i] / r
            if abs((p[j] - p[i]) * c * s) <= tol:
                z[i], z[j] = 0.0, r
                p[i], p[j] = p[i] * c * c + p[j] * s * s, p[i] * s * s + p[j] * c * c
                turns.append((i, j, c, s))
                gone.append(i)
            else:
                kept.append(i)
        i = j
    if i >= 0:
        kept.append(i)
    return kept, gone, turns


def _secular_sums(delta: np.ndarray, w2: np.ndarray, origin: np.ndarray):
    """Sums over the terms w2_j / delta_j of each row's secular function.

    delta_j = p_j - x, and w2 has one row per row of delta or one for all.
    Returns the sum, the origin's term, its w2_o / delta_o**2, the sum of
    w2_j / delta_j**2, and dlaed4's two error-bound terms: the sums over
    j != origin of |w2_j / delta_j| and of |w2_j / delta_j| * |j - origin|
    (its accumulated partial sums).
    """
    r = np.arange(delta.shape[0])
    U = np.reciprocal(delta)
    total = np.einsum("ij,ij->i", U, w2)
    # a term has the sign of j - origin, so |term| * |j - origin| is term * (j - origin)
    spread = np.einsum("ij,ij,j->i", U, w2, np.arange(delta.shape[1], dtype=np.float64))
    spread -= origin * total
    at = np.broadcast_to(w2, U.shape)[r, origin] * U[r, origin]
    dat = at * U[r, origin]
    np.abs(U, out=U)
    size = np.einsum("ij,ij->i", U, w2) - np.abs(at)
    U *= U
    slope = np.einsum("ij,ij->i", U, w2)
    return total, at, dat, slope, size, spread


def _secular_roots(poles: list, weights: list, rho: np.ndarray, owner: np.ndarray):
    """The roots of the secular equations 1/rho + sum_j w_j**2 / (p_j - x) = 0,
    all at once, by dlaed4's middle way.

    Equation s has the strictly ascending poles poles[s] and the weights
    weights[s], nonzero and of unit norm.  Its root i lies between poles i
    and i + 1, its last root in (p_last, p_last + rho].  A root is carried as
    an offset tau from its origin, the pole of its bracket nearer to it, so
    the differences p_j - x stay exact to rounding (which Gu and Eisenstat's
    eigenvectors need).  Each step solves a model of the equation with two
    poles (the middle way of Li 1994), and stays inside a bracket that
    shrinks on every evaluation.  A root has converged when |f| <= eps times
    dlaed4's bound on the rounding error of f.

    Returns per equation (roots, delta) with delta[i, j] = p_j - root_i.
    A root not converged after MAX_SECULAR_ITERATIONS steps raises
    ConvergenceError carrying owner[s] as ``index``.
    """
    eps = sys.float_info.epsilon
    count = np.array([len(x) for x in poles])
    S, K = count.size, max(int(count.max()), 2)
    # pad the poles above every root, and the weights with zeros
    p = np.repeat((np.array([x[-1] for x in poles]) + 2.0 * rho + 1.0)[:, np.newaxis], K, axis=1)
    w = np.zeros((S, K))
    for s in range(S):
        p[s, :count[s]] = poles[s]
        w[s, :count[s]] = weights[s]
    eq = np.repeat(np.arange(S), count)
    rows = np.arange(eq.size)
    i = rows - np.repeat(np.cumsum(count) - count, count)
    last = i == count[eq] - 1
    rho = rho[eq]
    rinv = 1.0 / rho
    # weights per row, or one row for all when there is one equation
    pr, w2 = p[eq], np.square(w)[eq if S > 1 else [0]]
    # the starting guess solves the equation with every term frozen at the
    # bracket's midpoint but those of two poles (a, a + 1): the bracket's, or
    # the last two for the last root, whose midpoint is p_last + rho / 2
    a = np.maximum(np.where(last, i - 1, i), 0)
    wa2, wb2 = w[eq, a] ** 2, w[eq, a + 1] ** 2
    gap = pr[rows, a + 1] - pr[rows, a]
    mid = np.where(last, 0.5 * rho, 0.5 * gap)
    with np.errstate(divide="ignore", invalid="ignore"):
        # p_j - p_i first: p_i + mid would round mid away when it is tiny
        t = pr - pr[rows, i][:, np.newaxis]
        t -= mid[:, np.newaxis]
        np.divide(w2, t, out=t)
        ta, tb = t[rows, a].copy(), t[rows, a + 1].copy()
        t[rows, a] = t[rows, a + 1] = 0.0
        c = rinv + t.sum(axis=1)
        del t
        f = c + ta + tb
        # a middle root lies left of the midpoint when f is positive there,
        # and is then carried from pole i, else from pole i + 1
        left = f > 0.0
        A = np.where(left, c * gap + wa2 + wb2, c * gap - wa2 - wb2)
        B = np.where(left, wa2, wb2) * gap
        disc = np.sqrt(np.abs(A * A - np.where(left, 4.0, -4.0) * B * c))
        tau = np.where(left, np.where(A > 0.0, 2.0 * B / (A + disc), (A - disc) / (2.0 * c)),
                       np.where(A < 0.0, 2.0 * B / (A - disc), -(A + disc) / (2.0 * c)))
        lo, hi = np.where(left, 0.0, -mid), np.where(left, mid, 0.0)
        # the last root, carried from the last pole
        k = np.flatnonzero(last)
        c, f, g, m, ya, yb, r = c[k], f[k], gap[k], mid[k], wa2[k], wb2[k], rho[k]
        A = ya + yb - c * g
        B = yb * g
        disc = np.sqrt(np.abs(A * A + 4.0 * B * c))
        guess = np.where(A < 0.0, 2.0 * B / (disc - A), (A + disc) / (2.0 * c))
        beyond = f <= 0.0
        tau[k] = np.where(beyond & (c <= ya / (g + r) + yb / r), r, guess)
        lo[k] = np.where(beyond, m, 0.0)
        hi[k] = np.where(beyond, r, m)
    k = k[count == 1]
    tau[k] = rho[k] * w[eq[k], 0] ** 2
    left |= last
    origin = np.where(left, i, i + 1)
    pr -= pr[rows, origin][:, np.newaxis]
    pr -= tau[:, np.newaxis]
    delta, pr = pr, None

    roots = np.empty(eq.size)
    out = np.empty((eq.size, K))
    live = rows  # rows not yet converged; every per-row array below is over them
    for step in range(MAX_SECULAR_ITERATIONS + 1):
        total, at, dat, df, size, spread = _secular_sums(delta, w2, origin)
        f = rinv + total
        bound = (8.0 * size + spread + np.abs(tau) * df
                 + np.where(last, 9.0 * np.abs(at) + rinv, 3.0 * np.abs(at) + 2.0 * rinv))
        done = np.abs(f) <= eps * bound
        if done.any():
            roots[live[done]] = p[eq[live[done]], origin[done]] + tau[done]
            out[live[done]] = delta[done]
            keep = ~done
            live = live[keep]
            if not live.size:
                break
            if w2.shape[0] > 1:
                w2 = w2[keep]
            delta, origin, tau, lo, hi, left, last, rinv, a, wa2, wb2, gap, f, df, dat = (
                x[keep] for x in (delta, origin, tau, lo, hi, left, last, rinv, a, wa2, wb2, gap, f,
                                  df, dat))
        if step == MAX_SECULAR_ITERATIONS:
            s = int(eq[live[0]])
            raise ConvergenceError(
                f"secular equation of a {count[s]}-pole merge exceeded "
                f"{MAX_SECULAR_ITERATIONS} iterations", index=int(owner[s]))
        rising = f > 0.0
        np.minimum(hi, tau, out=hi, where=rising)
        np.maximum(lo, tau, out=lo, where=~rising)
        r = np.arange(live.size)
        da, db = delta[r, a], delta[r, a + 1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the model: a constant and the terms of two poles, the bracket's
            # (or the last two), weighted to match f and df; every pole of a
            # last root but its origin lies below it
            rest = df - dat
            C = np.where(last, np.abs(f - da * rest - db * dat),
                         np.where(left, f - db * df + gap * wa2 / (da * da),
                                  f - da * df - gap * wb2 / (db * db)))
            A = (da + db) * f - da * db * df
            B = da * db * f
            disc = np.sqrt(np.abs(A * A - 4.0 * B * C))
            # the root of C eta**2 - A eta + B = 0 inside the bracket: the
            # smaller for a middle root, the larger for the last
            eta = np.where(last, np.where(A >= 0.0, (A + disc) / (2.0 * C), 2.0 * B / (A - disc)),
                           np.where(A <= 0.0, (A - disc) / (2.0 * C), 2.0 * B / (A + disc)))
            k = np.flatnonzero(C == 0.0)
            if k.size:
                A0 = np.where(left[k], wa2[k] + db[k] ** 2 * rest[k], wb2[k] + da[k] ** 2 * rest[k])
                eta[k] = np.where(last[k], hi[k] - tau[k],
                                  B[k] / np.where(A[k] == 0.0, A0, A[k]))
            # a step of the wrong sign turns into Newton's; one leaving the
            # bracket into bisection of what is left of it
            k = np.flatnonzero(f * eta >= 0.0)
            eta[k] = -f[k] / df[k]
        x = tau + eta
        k = np.flatnonzero((x > hi) | (x < lo))
        eta[k] = np.where(rising[k], lo[k] - tau[k], hi[k] - tau[k]) / 2.0
        delta -= eta[:, np.newaxis]
        tau += eta
    bounds = np.cumsum(count)[:-1]
    return [(x, D[:, :n]) for x, D, n in zip(np.split(roots, bounds), np.split(out, bounds), count)]


def _merge_level(pairs):
    """Merge each pair of solved neighbouring pieces of a level, for every
    tridiagonal of the stack (Cuppen's divide and conquer, as dlaed1).

    Each pair is (lower, upper, beta): lower and upper are the pieces'
    (values (G, m), vectors (G, m, m)), values ascending, and beta (G,) the
    off-diagonal torn between them, 0 where it was negligible.  Their merge
    is diag(lower, upper) + 2 beta z z^T, z the unit vector made of the
    lower vectors' last row and the upper's first row.  Returns the merged
    (values, vectors) per pair.
    """
    merges, poles, weights, rhos, owner = [], [], [], [], []
    for (l1, Q1), (l2, Q2), beta in pairs:
        values = np.concatenate([l1, l2], axis=1)
        order = np.argsort(values, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1)
        z = np.take_along_axis(np.concatenate([Q1[:, -1], Q2[:, 0]], axis=1), order, axis=1)
        z *= math.sqrt(0.5)
        parts = []
        for g in range(values.shape[0]):
            p, w = values[g].tolist(), z[g].tolist()
            rho = 2.0 * float(beta[g])
            kept, gone, turns = _deflate(p, w, rho)
            p, w = np.array(p), np.array(w)[kept]
            if kept:
                norm2 = float(w @ w)
                w /= math.sqrt(norm2)
                poles.append(p[kept])
                weights.append(w)
                rhos.append(rho * norm2)
                owner.append(g)
            parts.append((p, w, kept, gone, turns))
        merges.append((parts, order, Q1, Q2))
    solved = iter(_secular_roots(poles, weights, np.array(rhos), np.array(owner)) if poles else ())
    merged = []
    for parts, order, Q1, Q2 in merges:
        G, n = order.shape
        n1 = Q1.shape[-1]
        values = np.empty((G, n))
        vectors = np.empty((G, n, n))
        for g, (p, w, kept, gone, turns) in enumerate(parts):
            roots, delta = next(solved) if kept else (p[:0], None)
            lam = np.concatenate([roots, p[gone]])
            rank = np.argsort(lam, kind="stable")
            values[g] = lam[rank]
            # the merged vectors are diag(Q1, Q2) Y: Y's rows follow the poles
            # back to their pieces' rows, and its columns are the rank-one
            # problem's vectors, a unit vector for each deflated pair, with
            # the deflating rotations applied last to first
            column = np.empty(n, dtype=np.intp)
            column[rank] = np.arange(n)
            row = order[g]
            Y = np.zeros((n, n))
            Y[row[gone], column[len(kept):]] = 1.0
            if kept:
                # Gu and Eisenstat: the weights for which the computed roots
                # are exact, from products of ratios (dlaed3), give vectors
                # orthogonal to working precision
                pk = p[kept]
                diff = pk[:, np.newaxis] - pk
                np.fill_diagonal(diff, 1.0)
                D = delta.T  # D[i, j] = p_i - root_j
                zhat = np.copysign(np.sqrt(np.abs(np.prod(D / diff, axis=1))), w)
                V = zhat[:, np.newaxis] / D
                V /= np.sqrt(np.einsum("ij,ij->j", V, V))
                Y[np.ix_(row[kept], column[:len(kept)])] = V
            for i, j, c, s in reversed(turns):
                yi, yj = Y[row[i]].copy(), Y[row[j]]
                Y[row[i]] = c * yi - s * yj
                Y[row[j]] = s * yi + c * yj
            np.matmul(Q1[g], Y[:n1], out=vectors[g, :n1])
            np.matmul(Q2[g], Y[n1:], out=vectors[g, n1:])
        merged.append((values, vectors))
    return merged
