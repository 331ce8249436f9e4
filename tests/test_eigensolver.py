import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermi_jc import (
    ConvergenceError,
    Deformation,
    ModelParams,
    NumericalError,
    ParameterError,
    build_block,
    build_higher_spin_block,
    eigendecompose,
    eigenvalues_only,
)
from parafermi_jc import divide, eigensolver
from parafermi_jc.divide import _secular_roots
from parafermi_jc.eigensolver import (
    CLUSTER_RTOL,
    RESIDUAL_RTOL,
    _back_transform,
    _ql_implicit_shift,
    _tridiagonalize,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def residual_bound(H):
    return RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(H))) * H.shape[0])


def max_residual(H, V, w):
    """max_j ||H v_j - w_j v_j||, normed at unit scale: squares of 1e300 would overflow."""
    exponent = math.frexp(float(np.max(np.abs(H))))[1]
    R = H @ V - V * w
    unit = np.ldexp(R.real, -exponent) + 1j * np.ldexp(R.imag, -exponent)
    return math.ldexp(float(np.max(np.linalg.norm(unit, axis=0))), exponent)


class TestBasicCases:
    def test_two_by_two(self):
        spec = eigendecompose(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
        assert spec.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_diagonal_matrix(self):
        spec = eigendecompose(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert spec.eigenvalues == pytest.approx([-1.0, 2.0, 3.0], abs=1e-14)

    def test_one_by_one_and_zero(self):
        assert eigendecompose(np.array([[4.0]])).eigenvalues == pytest.approx([4.0])
        assert eigenvalues_only(np.zeros((3, 3))) == pytest.approx([0.0, 0.0, 0.0])
        one = eigendecompose(np.array([[4.0]]), want_vectors=True)
        assert one.eigenvectors.tolist() == [[1.0]]
        empty = eigendecompose(np.zeros((0, 0)), want_vectors=True)
        assert empty.eigenvalues.shape == (0,) and empty.eigenvectors.shape == (0, 0)
        # an empty stack of 0 x 0 matrices, as the (0, 3, 3) and (2, 0, 0) stacks
        for shape in ((0, 0, 0), (0, 3, 3), (2, 0, 0)):
            assert eigenvalues_only(np.zeros(shape)).shape == shape[:2]
            assert eigendecompose(np.zeros(shape), want_vectors=True).eigenvectors.shape == shape

    def test_ascending_order(self):
        w = eigenvalues_only(random_hermitian(40, 3))
        assert np.all(np.diff(w) >= 0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ParameterError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ParameterError):
            eigendecompose(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        H = np.eye(3, dtype=complex)
        H[1, 1] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            eigendecompose(H)


class TestContracts:
    def test_tiny_reflector_skipped(self):
        # the column below the subdiagonal has norm 1e-160: 2/||v||^2 would overflow
        H = np.array([[0.0, 0.0, 1e-160], [0.0, 1.0, 0.0], [1e-160, 0.0, 2.0]], dtype=complex)
        spec = eigendecompose(H, want_vectors=True)
        V, w = spec.eigenvectors, spec.eigenvalues
        assert w == pytest.approx([0.0, 1.0, 2.0], abs=1e-15)
        assert np.max(np.linalg.norm(H @ V - V * w, axis=0)) <= residual_bound(H)
        assert np.max(np.abs(V.conj().T @ V - np.eye(3))) <= 1e-10

    @pytest.mark.parametrize("n,seed", [(3, 0), (8, 1), (50, 2), (128, 3), (256, 4)])
    def test_residual_and_orthonormality(self, n, seed):
        H = random_hermitian(n, seed)
        spec = eigendecompose(H, want_vectors=True)
        V, w = spec.eigenvectors, spec.eigenvalues
        res = np.max(np.linalg.norm(H @ V - V * w, axis=0))
        assert res <= residual_bound(H)
        orth = np.max(np.abs(V.conj().T @ V - np.eye(n)))
        assert orth <= 1e-10

    @pytest.mark.parametrize("n,seed", [(50, 5), (120, 6)])
    def test_trace_and_frobenius_identities(self, n, seed):
        H = random_hermitian(n, seed)
        w = eigenvalues_only(H)
        assert np.sum(w) == pytest.approx(np.trace(H).real, rel=1e-9, abs=1e-9)
        assert np.sum(w**2) == pytest.approx(np.linalg.norm(H, "fro") ** 2, rel=1e-9)

    @pytest.mark.parametrize("n,seed", [(20, 7), (77, 8), (256, 9)])
    def test_matches_lapack(self, n, seed):
        H = random_hermitian(n, seed)
        w = eigenvalues_only(H)
        ref = np.linalg.eigvalsh(H)
        scale = 1.0 + np.abs(ref)
        assert np.max(np.abs(w - ref) / scale) <= 1e-11

    def test_permutation_phase_invariance(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(30, 10)
        perm = rng.permutation(30)
        phases = np.exp(2j * np.pi * rng.random(30))
        U = np.zeros((30, 30), dtype=complex)
        U[np.arange(30), perm] = phases
        w1 = eigenvalues_only(H)
        w2 = eigenvalues_only(U @ H @ U.conj().T)
        assert np.max(np.abs(w1 - w2) / (1 + np.abs(w1))) <= 1e-9

    def test_degenerate_spectrum(self):
        rng = np.random.default_rng(12)
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        Q, _ = np.linalg.qr(B)
        H = Q @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0, 5.0]) @ Q.conj().T
        spec = eigendecompose(H, want_vectors=True)
        assert spec.eigenvalues == pytest.approx([-1, -1, 2, 2, 2, 5], abs=1e-12)
        res = np.max(np.linalg.norm(H @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues, axis=0))
        assert res <= residual_bound(H)

    @given(st.integers(2, 24), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_small_matrices(self, n, seed):
        H = random_hermitian(n, seed)
        spec = eigendecompose(H, want_vectors=True)
        ref = np.linalg.eigvalsh(H)
        assert np.max(np.abs(spec.eigenvalues - ref) / (1 + np.abs(ref))) <= 1e-11
        res = np.max(np.linalg.norm(H @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues, axis=0))
        assert res <= residual_bound(H)

    def test_spectrum_arrays_frozen(self):
        spec = eigendecompose(random_hermitian(5, 13), want_vectors=True)
        with pytest.raises(ValueError):
            spec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            spec.eigenvectors[0, 0] = 0.0


def reference_ql(d, e):
    """QL with Givens rotations, written out plainly; returns the sweep count.
    The oracle for the root-free QL's eigenvalues and sweep counts."""
    n = len(d)
    e.append(0.0)
    sweeps = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > sys.float_info.epsilon * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return sweeps


def reference_dsterf(d, e):
    """LAPACK dsterf's root-free QL, written out plainly; returns the sweep count.

    As in the eigensolver and unlike dsterf: QL sweeps only (dsterf turns to
    QR when the bottom of a block is smaller), no closed form for 2 x 2
    blocks, no scaling (the caller scales), and the deflation test
    e_i**2 <= eps**2 * (|d_i| + |d_i+1|)**2 everywhere.  As in dsterf and
    unlike the eigensolver, every sweep first scans the block for a split.
    """
    n = len(d)
    e = [x * x for x in e] + [0.0]
    eps2 = sys.float_info.epsilon ** 2
    sweeps = 0
    l = 0
    while l < n:
        m = l
        while m < n - 1:
            t = abs(d[m]) + abs(d[m + 1])
            if e[m] <= eps2 * t * t:
                break
            m += 1
        if m == l:
            l += 1
            continue
        e[m] = 0.0
        sweeps += 1
        rte = math.sqrt(e[l])
        sigma = (d[l + 1] - d[l]) / (2.0 * rte)
        r = math.hypot(sigma, 1.0)
        sigma = d[l] - rte / (sigma + (r if sigma >= 0 else -r))
        c, s = 1.0, 0.0
        gamma = d[m] - sigma
        p = gamma * gamma
        for i in range(m - 1, l - 1, -1):
            bb = e[i]
            r = p + bb
            if i != m - 1:
                e[i + 1] = s * r
            oldc = c
            c = p / r
            s = bb / r
            oldgam = gamma
            alpha = d[i]
            gamma = c * (alpha - sigma) - s * oldgam
            d[i + 1] = oldgam + (alpha - gamma)
            if c != 0.0:
                p = (gamma * gamma) / c
            else:
                p = oldc * bb
        e[l] = s * p
        d[l] = sigma + gamma
    return sweeps


def one_norm(d, e):
    return float(np.max(np.abs(d) + np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0])))


def staircase_tridiagonals():
    """The staircase stack's tridiagonals, scaled to unit 1-norm, as float lists."""
    d, e, _ = _tridiagonalize(staircase_stack(), False)
    scale = np.frexp(eigensolver._one_norm(d, e))[1][:, np.newaxis]
    return list(zip(np.ldexp(d, -scale).tolist(), np.ldexp(e, -scale).tolist()))


def random_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n).tolist(), rng.standard_normal(n - 1).tolist()


QL_CASES = [(2, 0), (3, 1), (27, 2), (40, 3), (80, 4)]


class TestRootFreeQL:
    """The QL stage, root-free as in LAPACK's dsterf."""

    @pytest.mark.parametrize("n,seed", QL_CASES)
    def test_matches_dsterf_reference(self, n, seed):
        # no off-diagonal of these turns negligible inside a block, so the
        # two chains take the same steps, bit for bit
        d, e = random_tridiagonal(n, seed)
        d_ref = list(d)
        sweeps_ref = reference_dsterf(d_ref, e)
        assert _ql_implicit_shift(d, [x * x for x in e]) == sweeps_ref
        assert d == d_ref

    @pytest.mark.parametrize("n,seed", QL_CASES)
    def test_givens_oracle(self, n, seed):
        # the rounding errors of the two chains add up like a random walk: at
        # n = 80 they differ by 10.8 eps * ||T||_1, each within 9.3 of the
        # exact eigenvalues
        d, e = random_tridiagonal(n, seed)
        d_givens = list(d)
        sweeps_givens = reference_ql(d_givens, list(e))
        bound = 4.0 * math.sqrt(n) * sys.float_info.epsilon * one_norm(d, e)
        d_new = list(d)
        sweeps = _ql_implicit_shift(d_new, [x * x for x in e])
        assert np.max(np.abs(np.sort(d_new) - np.sort(d_givens))) <= bound
        assert abs(sweeps - sweeps_givens) <= 0.02 * sweeps_givens

    def test_givens_oracle_on_staircase(self):
        sweeps, sweeps_givens = 0, 0
        for d, e in staircase_tridiagonals():
            d_givens, d_new = list(d), list(d)
            sweeps_givens += reference_ql(d_givens, list(e))
            sweeps += _ql_implicit_shift(d_new, [x * x for x in e])
            bound = 4.0 * math.sqrt(len(d)) * sys.float_info.epsilon * one_norm(d, e)
            assert np.max(np.abs(np.sort(d_new) - np.sort(d_givens))) <= bound
        assert abs(sweeps - sweeps_givens) <= 0.02 * sweeps_givens

    @staticmethod
    def assert_near_dsterf(tridiagonals, walk=False):
        """Eigenvalues within 4 eps ||T||_1 of reference_dsterf's (4 sqrt(n) eps
        ||T||_1 with walk), and total sweeps within 5%: QL tests only the top
        of a block, so it may cross an entry where dsterf's scan before every
        sweep splits, and from there the two chains round differently."""
        sweeps, sweeps_ref = 0, 0
        for d, e in tridiagonals:
            d_ref, d_new = list(d), list(d)
            sweeps_ref += reference_dsterf(d_ref, e)
            sweeps += _ql_implicit_shift(d_new, [x * x for x in e])
            bound = 4.0 * (math.sqrt(len(d)) if walk else 1.0) * sys.float_info.epsilon * one_norm(d, e)
            assert np.max(np.abs(np.sort(d_new) - np.sort(d_ref))) <= bound
        assert abs(sweeps - sweeps_ref) <= 0.05 * sweeps_ref

    def test_dsterf_reference_on_staircase(self):
        self.assert_near_dsterf(staircase_tridiagonals())

    @pytest.mark.parametrize("grading", [0.0, 9.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_dsterf_reference_on_random_tridiagonals(self, seed, grading):
        # the rounding errors add up like a random walk once the chains part,
        # as against the Givens oracle: over 200 seeds the worst difference
        # is 7.3 eps ||T||_1 ungraded and 8.7 graded, 1.3 sqrt(n) eps ||T||_1
        # at most; off-diagonals graded down to 1e-9 turn negligible inside
        # their blocks within a sweep or two
        rng = np.random.default_rng(seed)
        cases = []
        for n in rng.integers(4, 60, size=16).tolist():
            d, e = random_tridiagonal(n, int(rng.integers(1 << 30)))
            cases.append((d, (np.array(e) * 10.0 ** rng.uniform(-grading, 0.0, n - 1)).tolist()))
        self.assert_near_dsterf(cases, walk=True)

    def test_splits_inside_blocks(self):
        # the F = 2, k = 3, d = 8 blocks of the free-energy scan are nearly
        # degenerate, so their off-diagonals turn negligible inside blocks
        # that QL has entered; the eigenvalues still match LAPACK, and the
        # vectors the contracts
        params = ModelParams(2, 3, 1.0, 20.0, 1.0, hbar=1.0)
        omegas = np.logspace(math.log10(0.5), math.log10(80.0), 161)
        stack = np.array([build_block(params.with_omega(w), 6).matrix for w in omegas])
        w = eigenvalues_only(stack)
        ref = np.linalg.eigvalsh(stack)
        assert np.max(np.abs(w - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert_stack_contracts(stack)

    @pytest.mark.parametrize("exponent", [500, -500])
    def test_tridiagonal_scaled_by_power_of_two(self, exponent):
        # squared unscaled, these off-diagonals would overflow or underflow;
        # scaled by the 1-norm first, the eigenvalues scale back exactly
        d, e = random_tridiagonal(27, 5)
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1) + 0j
        H = np.ldexp(T.real, exponent) + 0j
        assert_contracts(H)
        assert np.array_equal(eigenvalues_only(H), np.ldexp(eigenvalues_only(T), exponent))

    def test_subnormal_off_diagonals(self):
        # squares of subnormal off-diagonals beside unit diagonals are 0: every
        # row deflates on entry, in QL and in inverse iteration alike
        d = [1.0, 2.0, 2.0, 1.0, 3.0]
        e = [5e-324, 3e-320, 2e-310, 1e-315]
        assert_contracts(np.diag(d) + np.diag(e, 1) + np.diag(e, -1) + 0j)

    def test_all_subnormal_tridiagonal(self):
        # all entries subnormal: scaled into range before squaring, so the
        # sweeps run (the Givens chain cuts this input short at r == 0)
        e = [3e-323, 8e-323, 2.37e-322, 6.3e-322]
        H = np.diag(e, 1) + np.diag(e, -1) + 0j
        spec = eigendecompose(H, want_vectors=True)
        w, V = spec.eigenvalues, spec.eigenvectors
        assert spec.sweeps > 0 and np.all(np.isfinite(w)) and np.all(np.diff(w) >= 0)
        assert np.max(np.abs(w - np.linalg.eigvalsh(H))) <= 4 * 5e-324
        assert max_residual(H, V, w) <= residual_bound(H)
        assert np.max(np.abs(V.conj().T @ V - np.eye(5))) <= RESIDUAL_RTOL

    @pytest.mark.parametrize("exponent", [0, 500, -500])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_deflation_boundary(self, ulps, exponent):
        # e**2 == eps**2 * (0.5 + 0.25)**2 exactly at e = 0.75 eps: QL deflates
        # there and one ulp below (no sweep), and not one ulp above; inverse
        # iteration splits exactly where QL deflates (diagonal eigenvectors)
        boundary = 0.75 * sys.float_info.epsilon
        e = float(np.nextafter(boundary, np.inf if ulps > 0 else 0.0)) if ulps else boundary
        H = np.ldexp(np.array([[0.5, e], [e, 0.25]]), exponent) + 0j
        spec = eigendecompose(H, want_vectors=True)
        deflated = ulps <= 0
        assert (spec.sweeps == 0) == deflated
        assert (np.count_nonzero(spec.eigenvectors) == 2) == deflated

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_deflation_boundary_between_equal_blocks(self, ulps):
        # two equal blocks coupled at the boundary: split or not, QL and
        # inverse iteration agree, or equal eigenvalues of the two blocks get
        # vectors far from orthonormal
        d = [0.25, 0.125, 0.25, 0.125]
        e = [0.125, 0.25, 0.125]
        boundary = (0.125 + 0.25) * sys.float_info.epsilon
        coupling = float(np.nextafter(boundary, np.inf if ulps > 0 else 0.0)) if ulps else boundary
        off = e + [coupling] + e
        assert_contracts(np.diag(d + d) + np.diag(off, 1) + np.diag(off, -1) + 0j)


def block_diagonal(sizes, seed):
    """Random Hermitian blocks on the diagonal: the reflector of the column just
    before each block boundary has nothing to annihilate and is skipped."""
    H = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    start = 0
    for i, size in enumerate(sizes):
        H[start:start + size, start:start + size] = random_hermitian(size, seed + i)
        start += size
    return H


# boundaries 10, 32 and 64: skipped reflectors 9 (mid-panel), 31 and 63 (the
# last columns of the first two panels)
SKIPPING_SIZES = (10, 22, 32, 6)


def skipping_with_tiny_columns():
    # couplings of 1e-160 from columns 31 and 63 across the boundaries at 32
    # and 64: those reflectors' columns are under 1e-154 and are dropped.  The
    # blocks between are real tridiagonal, so their reflectors only flip the
    # sign of one row and the couplings stay that small.
    H = block_diagonal(SKIPPING_SIZES, 40)
    rng = np.random.default_rng(41)
    for lo, hi in ((10, 32), (32, 64)):
        off = rng.standard_normal(hi - lo - 1)
        H[lo:hi, lo:hi] = np.diag(rng.standard_normal(hi - lo)) + np.diag(off, 1) + np.diag(off, -1)
    for column, row in ((31, 33), (31, 40), (63, 66), (63, 69)):
        H[row, column] = H[column, row] = 1e-160
    return H


#: The two routes of the Householder stage's reflector scalars: Python numbers
#: for a lone matrix, (G,) arrays for a stack.
ROUTES = ["lone", "stack_of_two"]


def on_route(H, route):
    """H alone on the lone route; on the stacked route, the stack of H and
    another matrix of its size, which the test does not look at."""
    H = np.array(H, dtype=complex)
    return H if route == "lone" else np.array([H, random_hermitian(H.shape[0], 99)])


def matrix_reflectors(reflectors, g):
    """The (phases, panels) of matrix g of a stack's reflectors; a lone
    matrix's reflectors are its own."""
    phases, panels = reflectors
    if phases.ndim == 1:
        return reflectors
    return phases[g], [(r0, V[g]) for r0, V in panels]


def stored_reflectors(H, route="lone"):
    """Every reflector u_j that _tridiagonalize keeps for H, as column j over all rows."""
    _, _, reflectors = _tridiagonalize(on_route(H, route), True)
    _, panels = matrix_reflectors(reflectors, 0)
    return np.hstack([np.vstack([np.zeros((r0, V.shape[1])), V]) for r0, V in panels])


def apply_reflectors_one_by_one(reflectors, Z):
    """Q Z for Q = H_0 H_1 ... diag(phases): H_j = I - 2 u_j u_j^H applied in
    turn, last first."""
    phases, panels = reflectors
    X = phases[:, np.newaxis] * Z
    for r0, V in reversed(panels):
        for u in V.T[::-1]:
            X[r0:] -= 2.0 * np.outer(u, u.conj() @ X[r0:])
    return X


def assert_contracts(H):
    """Residual and orthonormality at RESIDUAL_RTOL, ascending eigenvalues that
    match LAPACK to 1e-11, and bit-identical values-only eigenvalues."""
    n = H.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigendecompose(H, want_vectors=True)
        values = eigenvalues_only(H)
    V, w = spec.eigenvectors, spec.eigenvalues
    assert np.array_equal(values, w)
    assert np.all(np.diff(w) >= 0)
    ref = np.linalg.eigvalsh(H)
    assert np.max(np.abs(w - ref)) <= 1e-11 * max(np.max(np.abs(ref)), np.finfo(float).tiny)
    assert max_residual(H, V, w) <= residual_bound(H)
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= RESIDUAL_RTOL


class TestPanels:
    """Matrices large enough that the Householder stage runs more than one panel."""

    # a matrix of size n has n - 2 reflectors: up to size PANEL + 2 they form
    # one panel, and size 2 * PANEL + 2 is the last with two
    @pytest.mark.parametrize("n", [31, 32, 33, 34, 35, 36, 63, 64, 65, 66, 100])
    def test_contracts_across_panels(self, n):
        assert_contracts(random_hermitian(n, 300 + n))

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    @pytest.mark.parametrize("n", [34, 66])
    def test_extreme_scales(self, n, scale):
        assert_contracts(scale * random_hermitian(n, 400 + n))

    @pytest.mark.parametrize("build", [lambda: block_diagonal(SKIPPING_SIZES, 30),
                                       skipping_with_tiny_columns],
                             ids=["block_diagonal", "tiny_columns"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_skipped_reflectors(self, build, route):
        H = build()
        U = stored_reflectors(H, route)
        norms = np.linalg.norm(U, axis=0)
        skipped = [j for j in range(U.shape[1]) if not norms[j]]
        assert skipped == [9, 31, 63]
        assert np.max(np.abs(np.delete(norms, skipped) - 1.0)) <= 1e-14
        if route == "lone":
            assert_contracts(H)
        else:
            assert_stack_contracts(on_route(H, route))

    @pytest.mark.parametrize("build", [lambda: random_hermitian(35, 50),
                                       lambda: random_hermitian(66, 51),
                                       lambda: random_hermitian(100, 52),
                                       lambda: block_diagonal(SKIPPING_SIZES, 53),
                                       skipping_with_tiny_columns],
                             ids=["n35", "n66", "n100", "block_diagonal", "tiny_columns"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_back_transform_matches_reflectors_one_by_one(self, build, route):
        stack = on_route(build(), route)
        n = stack.shape[-1]
        d, e, reflectors = _tridiagonalize(stack.copy(), True)
        # a stack's reflectors take a stack of Z, a lone matrix's a stack of one,
        # as eigendecompose passes them
        stack, d, e = stack.reshape(-1, n, n), d.reshape(-1, n), e.reshape(-1, n - 1)
        Z = np.random.default_rng(n).standard_normal((len(stack), n, n))
        X = _back_transform(reflectors, Z)
        Q = _back_transform(reflectors, np.repeat(np.eye(n)[np.newaxis], len(stack), axis=0))
        for g, H in enumerate(stack):
            expected = apply_reflectors_one_by_one(matrix_reflectors(reflectors, g), Z[g])
            assert np.max(np.abs(X[g] - expected)) <= 1e-12 * n
            # the unitary takes the tridiagonal back to H
            T = np.diag(d[g]) + np.diag(e[g], -1) + np.diag(e[g], 1)
            assert np.max(np.abs(Q[g] @ T @ Q[g].conj().T - H)) <= 1e-13 * n * np.max(np.abs(H))
            assert np.max(np.abs(Q[g].conj().T @ Q[g] - np.eye(n))) <= 1e-13 * n

    def test_subnormal_x0_on_both_routes(self):
        # column 0's x0 is 1e-310 / 8 once scaled by the power of two of the
        # largest entry, beside O(1) entries, and the basis is already in
        # ascending order of the diagonal: the phase x0 / |x0| is taken part
        # by part on both routes, and the two routes' eigenvalues agree
        n = 12
        H = random_hermitian(n, 70) + np.diag(10.0 * np.arange(n))
        H[1, 0] = 1e-310 * (1.0 + 1.0j)
        H[0, 1] = np.conj(H[1, 0])
        peak = np.max(np.abs(H))
        assert np.all(np.diff(H.diagonal().real) > 0)
        assert 0.0 < math.ldexp(abs(H[1, 0]), -math.frexp(peak)[1]) < sys.float_info.min
        assert_contracts(H)
        assert_stack_contracts(on_route(H, "stack_of_two"))

    def test_values_path_stores_nothing(self):
        assert _tridiagonalize(random_hermitian(70, 54), False)[2] is None


STAIRCASE = ModelParams(3, 3, 1.0, 1000.0, 1.0, hbar=1.0, deformation=Deformation.q_exp(1.0))


@pytest.mark.parametrize("H,sweeps", [
    (np.diag([3.0, -1.0, 2.0]), 0),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), 1),
    (random_hermitian(8, 1), 18),
    (random_hermitian(50, 2), 114),
    (build_block(STAIRCASE, 8).matrix, 49),
], ids=["diagonal", "two_by_two", "random_8", "random_50", "staircase_block"])
def test_sweep_count_pinned(H, sweeps):
    assert eigendecompose(H, want_vectors=True).sweeps == sweeps
    assert eigendecompose(H).sweeps == sweeps


def staircase_stack(count=40):
    """The staircase blocks (delta = 1000) over a log grid from 0.2 to 2000."""
    omegas = np.logspace(math.log10(0.2), math.log10(2000.0), count)
    return np.array([build_block(STAIRCASE.with_omega(w), 8).matrix for w in omegas])


def assert_stack_contracts(stack):
    """Every matrix of a stacked solve meets the contracts, and its eigenvalues
    match a solve of that matrix alone to 1e-13 relative."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigendecompose(stack, want_vectors=True)
        values = eigenvalues_only(stack)
    assert np.array_equal(values, spec.eigenvalues)
    n = stack.shape[-1]
    for H, w, V in zip(stack, spec.eigenvalues, spec.eigenvectors):
        alone = eigenvalues_only(H)
        assert np.max(np.abs(w - alone)) <= 1e-13 * np.max(np.abs(alone))
        assert max_residual(H, V, w) <= residual_bound(H)
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= RESIDUAL_RTOL


class TestStacks:
    def test_stack_matches_matrices_one_by_one(self):
        assert_stack_contracts(staircase_stack(8))
        assert_stack_contracts(np.array([random_hermitian(30, seed) for seed in range(6)]))
        # divide and conquer: the stacked route against the lone route at d = 100
        assert_stack_contracts(np.array([random_hermitian(100, seed) for seed in (600, 601)]))

    def test_runs_bit_identical(self):
        stack = staircase_stack(8)
        first, second = (eigendecompose(stack, want_vectors=True) for _ in range(2))
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)
        assert first.sweeps == second.sweeps
        # a stack of one takes the lone matrix's route
        lone, one = (eigendecompose(M, want_vectors=True) for M in (stack[0], stack[:1]))
        assert np.array_equal(lone.eigenvalues, one.eigenvalues[0])
        assert np.array_equal(lone.eigenvectors, one.eigenvectors[0])

    def test_staircase_orthonormality(self):
        # each block's eigenvalues bunch into clusters of up to 7: without the
        # re-orthogonalization inside clusters these vectors reach only ~1e-6
        V = eigendecompose(staircase_stack(), want_vectors=True).eigenvectors
        assert np.max(np.abs(V.conj().swapaxes(1, 2) @ V - np.eye(27))) <= 1e-10

    def test_spin_block_with_large_clusters(self):
        # 213 pairs of eigenvalues equal to rounding and a cluster of 44; at
        # 256 rows the merges deflate most of them by rotation
        assert_contracts(build_higher_spin_block(ModelParams(4, 4, 1.0, 1.0, 1.0), 12).matrix)

    def test_exactly_zero_off_diagonal(self):
        # T splits where the tridiagonal input does; the two equal blocks make
        # every eigenvalue double, one copy in each block
        d = np.array([1.0, -0.5, 2.0, 0.3])
        e = np.array([0.7, 1.1, 0.4])
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        H = np.zeros((9, 9), dtype=complex)
        H[:4, :4] = H[4:8, 4:8] = T
        H[8, 8] = 2.0
        assert np.count_nonzero(_tridiagonalize(H.copy(), False)[1] == 0.0) == 2
        assert_contracts(H)

    @pytest.mark.parametrize("seed", range(40))
    def test_negligible_off_diagonal(self, seed):
        # QL deflates at off-diagonals of 5e-161 between diagonals of 0.5 and 1,
        # so T must split there too: unsplit, equal eigenvalues of different
        # blocks get vectors up to 0.6 from orthonormal (seeds 32 and 33)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 41))
        d = rng.choice([0.5, 1.0], size=n)
        e = rng.uniform(0.1, 1.0, n - 1)
        e[rng.random(n - 1) < 0.3] = 5e-161
        assert_contracts(np.diag(d) + np.diag(e, 1) + np.diag(e, -1) + 0j)

    def test_group_across_tiny_couplings(self):
        # a triple eigenvalue whose copies lie in pieces of T coupled at
        # 0.5 to 1.2 eps * ||T||_1, too much for the split test: one
        # factorization across the pieces left a vector 1.7e-2 from an
        # eigenvector; split there, each piece solves its own copy
        d = np.array([[0.022705838828248528, 0.09861680697982395, 0.20647871445414037,
                       0.0035316558590823693, 0.1677308829507643, 0.15653882145236633,
                       -0.0016886471058590868, -0.10757847298154527, 0.10926712008740436,
                       0.1092671200874043]])
        e = np.array([[0.21698822139923285, 0.22768762424171213, 1.561811199043956e-16,
                       0.2579338749011528, 0.18029847783995168, 1.201476041637533e-16,
                       0.15511372969999626, 9.53699260999922e-17, 6.756519681985222e-17]])
        levels, _ = eigensolver._ql_rows(d, e, None, np.ones(1))
        Z = eigensolver._inverse_iteration(d, e, levels, None)[0]
        w = np.sort(levels[0])
        assert np.count_nonzero(np.abs(w - w[0]) <= 1e-15) == 3
        assert np.max(np.abs(Z.T @ Z - np.eye(10))) <= RESIDUAL_RTOL
        assert np.max(np.linalg.norm(tridiagonal(d[0], e[0]).real @ Z - Z * w, axis=0)) <= 1e-14

    def test_failure_names_its_matrix(self):
        stack = np.array([np.eye(2), np.full((2, 2), 1.7e308)])
        with pytest.raises(NumericalError, match="float range") as caught:
            eigendecompose(stack)
        assert caught.value.index == 1


#: The window of the staircase scans at beta = 1: weights down to 2**-60.
STAIRCASE_WINDOW = 60.0 * math.log(2.0)


def window_count(H, window):
    """The solver's count of kept vectors, from LAPACK's eigenvalues: those up
    to the smallest plus window, then each next one within CLUSTER_RTOL *
    ||T||_1 of the last one kept, T the tridiagonal of H in ascending order of
    its diagonal, as the solver orders it."""
    w = np.linalg.eigvalsh(H)
    order = np.argsort(H.diagonal().real, kind="stable")
    d, e, _ = _tridiagonalize(np.array(H[np.ix_(order, order)], dtype=complex), False)
    count = int(np.count_nonzero(w <= w[0] + window))
    while count < w.size and w[count] - w[count - 1] <= CLUSTER_RTOL * one_norm(d, e):
        count += 1
    return count


def kept_columns(V):
    """The number of nonzero columns of each matrix of eigenvectors, once they
    are known to lead and every later column to be zero."""
    nonzero = np.any(V != 0.0, axis=-2)
    counts = np.count_nonzero(nonzero, axis=-1)
    assert np.array_equal(nonzero, np.arange(V.shape[-1]) < counts[..., np.newaxis])
    return counts


def random_unitary(n, rng):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def with_levels(levels, rng):
    """A Hermitian matrix with the given eigenvalues in a random unitary basis."""
    U = random_unitary(len(levels), rng)
    H = U @ np.diag(levels) @ U.conj().T
    return (H + H.conj().T) / 2


def assert_kept_contracts(stack, window):
    """A windowed solve of a stack: the eigenvalues of the full solve, bit for
    bit, where they are finite and +inf elsewhere, in no more sweeps; the
    counts of window_count, and kept pairs that meet the contracts; returns
    the counts."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigendecompose(stack, want_vectors=True, window=window)
        full = eigendecompose(stack, want_vectors=True)
    computed = np.isfinite(spec.eigenvalues)
    assert np.array_equal(spec.eigenvalues[computed], full.eigenvalues[computed])
    assert np.all(spec.eigenvalues[~computed] == math.inf) and spec.sweeps <= full.sweeps
    counts = kept_columns(spec.eigenvectors)
    assert spec.eigenvectors.shape == stack.shape[:-1] + (np.max(counts),)
    assert counts.tolist() == [window_count(H, window) for H in stack]
    for H, w, V, c in zip(stack, spec.eigenvalues, spec.eigenvectors, counts):
        assert max_residual(H, V[:, :c], w[:c]) <= residual_bound(H)
        assert np.max(np.abs(V[:, :c].conj().T @ V[:, :c] - np.eye(c))) <= RESIDUAL_RTOL
    return counts


class TestWindow:
    """Eigenvectors only up to each matrix's smallest eigenvalue plus a window,
    and through any cluster that the window ends in."""

    def test_staircase_counts(self):
        stack = staircase_stack()
        counts = assert_kept_contracts(stack, STAIRCASE_WINDOW)
        # the window keeps 1 to 9 of 27 vectors, 135 of 1,080 in all
        assert (counts.min(), counts.max(), counts.sum()) == (1, 9, 135)

    def test_staircase_stops_early(self, monkeypatch):
        # with each basis in ascending order of its diagonal, QL reaches the
        # low-lying levels first and stops after 177 of the 1,080 eigenvalues,
        # in 413 of the full solve's 1,906 sweeps; unordered, it would stop
        # after 808 in 1,430
        computed = []
        ql = eigensolver._ql_implicit_shift

        def recorded(d, e2, **kwargs):
            sweeps = ql(d, e2, **kwargs)
            computed.append(len(d))
            return sweeps

        monkeypatch.setattr(eigensolver, "_ql_implicit_shift", recorded)
        spec = eigendecompose(staircase_stack(), want_vectors=True, window=STAIRCASE_WINDOW)
        assert (sum(computed), spec.sweeps) == (177, 413)
        assert np.count_nonzero(np.isfinite(spec.eigenvalues)) == 135
        computed.clear()
        full = eigendecompose(staircase_stack(), want_vectors=True)
        assert (sum(computed), full.sweeps) == (1080, 1906)

    def test_kept_vectors_are_the_full_solves(self):
        # the back-transform of fewer columns rounds differently, by about eps
        stack = staircase_stack()
        V = eigendecompose(stack, want_vectors=True, window=STAIRCASE_WINDOW).eigenvectors
        full = eigendecompose(stack, want_vectors=True).eigenvectors
        assert np.max(np.abs(V - full[..., :V.shape[-1]]) * (V != 0.0)) <= 1e-14

    def test_tiny_beta_keeps_every_vector(self):
        # beta = 1e-300 widens the window beyond every spectrum, and a window
        # that overflows when scaled (matrices of 1e-300) keeps every vector too
        for stack, window in ((staircase_stack(), STAIRCASE_WINDOW / 1e-300),
                              (1e-300 * staircase_stack(4), 1e308)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                spec = eigendecompose(stack, want_vectors=True, window=window)
            full = eigendecompose(stack, want_vectors=True)
            assert np.array_equal(spec.eigenvalues, full.eigenvalues)
            assert np.array_equal(spec.eigenvectors, full.eigenvectors)

    @pytest.mark.parametrize("seed", range(4))
    def test_cluster_across_the_window_kept_whole(self, seed):
        # 1, 1 + 1e-13, 1 + 1e-6 and 1 + 1e-3 are one cluster, whose gaps are
        # under CLUSTER_RTOL * ||T||_1 >= 0.013, and its first two a group; the
        # window ends after the group, so the whole cluster is kept: 6 vectors
        levels = [0.0, 0.3, 1.0, 1.0 + 1e-13, 1.0 + 1e-6, 1.0 + 1e-3, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0]
        rng = np.random.default_rng(720 + seed)
        stack = np.array([with_levels(levels, rng) for _ in range(5)])
        assert assert_kept_contracts(stack, 1.0 + 5e-7).tolist() == [6] * 5

    @pytest.mark.parametrize("seed", range(4))
    def test_split_leaf(self, seed):
        # 30 rows whose eigenvalues come in pairs split by 1e-10, closer than
        # a cluster but not a group; the window ends inside the fourth pair
        rng = np.random.default_rng(730 + seed)
        pairs = np.sort(rng.uniform(-1.0, 1.0, 15))
        levels = np.sort(np.concatenate([pairs, pairs + 1e-10]))
        H = with_levels(levels, rng)
        assert assert_kept_contracts(H[np.newaxis], levels[6] + 5e-11 - levels[0])[0] >= 8

    def test_lone_matrix(self):
        spec = eigendecompose(np.diag([3.0, 1.0, 2.0]), want_vectors=True, window=0.5)
        assert spec.eigenvectors.tolist() == [[0.0], [1.0], [0.0]]
        assert eigendecompose(np.diag([3.0, 1.0]), window=0.5).eigenvectors is None

    def test_tree_ignores_the_window(self):
        # above LEAF rows the merges need every leaf's vectors, so a d = 256
        # solve keeps them all, whatever the window
        H = build_block(ModelParams(4, 4, 1.0, 2.0, 1.0), 12).matrix
        spec = eigendecompose(H, want_vectors=True, window=0.0)
        full = eigendecompose(H, want_vectors=True)
        assert spec.eigenvectors.shape == (256, 256)
        assert np.array_equal(spec.eigenvalues, full.eigenvalues)
        assert np.array_equal(spec.eigenvectors, full.eigenvectors)

    @pytest.mark.parametrize("window", [-1.0, -math.inf, math.nan])
    def test_window_validated(self, window):
        with pytest.raises(ParameterError, match="window must be >= 0"):
            eigendecompose(np.eye(2), want_vectors=True, window=window)


@st.composite
def windowed_stacks(draw, rows=st.integers(1, eigensolver.LEAF), matrices=st.integers(1, 3)):
    """Stacks of one to three matrices (or as many as matrices draws) of 1 to
    LEAF rows (or rows), random, diagonal, block diagonal with exactly zero
    couplings, or of eigenvalues repeated many times, scaled anywhere from
    1e-300 to 1e300, and a window of 0, of 1e-3 to 1e2 times the scale, of
    1e308 or of inf."""
    n = draw(rows)
    kind = draw(st.sampled_from(["random", "diagonal", "blocks", "repeated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-300, 1e300))
    stack = []
    for _ in range(draw(matrices)):
        if kind == "random":
            H = random_hermitian(n, rng)
        elif kind == "diagonal":
            H = np.diag(rng.standard_normal(n)).astype(complex)
        elif kind == "blocks":
            cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 3), replace=False))
            H = block_diagonal(np.diff(np.concatenate([[0], cuts, [n]])), int(rng.integers(2**31)))
        else:
            H = with_levels(rng.choice([-1.0, 0.5, 2.0], size=n), rng)
        stack.append(scale * H)
    window = draw(st.one_of(st.sampled_from([0.0, 1e308, math.inf]),
                            st.floats(1e-3, 1e2).map(lambda w: w * scale)))
    return np.array(stack), window


@given(windowed_stacks())
@settings(max_examples=60, deadline=None)
def test_window_stop_over_full_range(case):
    # the stop leaves the levels it computes, the counts and the kept vectors
    # as they are without it, bit for bit; what it leaves out is beyond the
    # window, by LAPACK's eigenvalues (to rounding)
    stack, window = case
    ql = eigensolver._ql_implicit_shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigendecompose(stack, want_vectors=True, window=window)
        values = eigendecompose(stack, window=window).eigenvalues
        full = eigendecompose(stack, want_vectors=True)
        with mock.patch.object(eigensolver, "_ql_implicit_shift", lambda d, e2, **_: ql(d, e2)):
            unstopped = eigendecompose(stack, want_vectors=True, window=window)
    computed = np.isfinite(spec.eigenvalues)
    assert np.array_equal(values, spec.eigenvalues)
    assert np.array_equal(spec.eigenvalues[computed], full.eigenvalues[computed])
    assert np.all(spec.eigenvalues[~computed] == math.inf)
    assert np.array_equal(unstopped.eigenvalues, full.eigenvalues)
    assert np.array_equal(spec.eigenvectors, unstopped.eigenvectors)
    assert spec.sweeps <= full.sweeps
    ref = np.linalg.eigvalsh(stack)
    slack = 1e-12 * np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all((ref > ref[:, :1] + window - slack)[~computed])


#: The (F, k) of the free-energy scans, n = k(F - 1) + 3: over 161 frequencies
#: their stacks of d = 2 to 8 blocks are solved in lockstep.
FREE_ENERGY_CASES = [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3)]


def free_energy_stack(F, k, points=161):
    """The (F, k) block (delta = 20, g = 1) over a log grid of omega from 0.5 to 80."""
    params = ModelParams(F, k, 1.0, 20.0, 1.0)
    omegas = np.logspace(math.log10(0.5), math.log10(80.0), points)
    return np.array([build_block(params.with_omega(w), k * (F - 1) + 3).matrix for w in omegas])


def row_by_row():
    """Every size group solved row by row, as below the LOCKSTEP threshold."""
    return mock.patch.object(eigensolver, "LOCKSTEP", sys.maxsize)


def lockstep_spy():
    """_ql_lockstep, wrapped to count its calls."""
    return mock.patch.object(eigensolver, "_ql_lockstep", wraps=eigensolver._ql_lockstep)


def assert_schedules_agree(stack):
    """The lockstep solve of a stack at or above LOCKSTEP matrices: eigenvalues
    within 1e-14 * max|lambda| of the row-by-row solve and 1e-13 * max|lambda|
    of eigvalsh, per matrix, with no warning."""
    assert len(stack) >= eigensolver.LOCKSTEP
    with warnings.catch_warnings(), lockstep_spy() as spy:
        warnings.simplefilter("error")
        values = eigenvalues_only(stack)
    assert spy.call_count == 1
    with row_by_row():
        scalar = eigenvalues_only(stack)
    scale = np.max(np.abs(scalar), axis=1)
    assert np.all(np.max(np.abs(values - scalar), axis=1) <= 1e-14 * scale)
    ref = np.linalg.eigvalsh(stack)
    assert np.all(np.max(np.abs(values - ref), axis=1) <= 1e-13 * scale)


def equal_blocks(n, seed):
    """Two copies of one random real tridiagonal block of n rows, so every
    eigenvalue is double and T has an exactly zero coupling between them."""
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(n), rng.uniform(0.1, 1.0, n - 1)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return np.kron(np.eye(2), T) + 0j


class TestLockstep:
    """QL on a size group of at least LOCKSTEP leaves, one numpy sweep serving
    all of its rows."""

    @pytest.mark.parametrize("F,k", FREE_ENERGY_CASES)
    def test_free_energy_stacks(self, F, k):
        assert_schedules_agree(free_energy_stack(F, k))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 27])
    def test_same_arithmetic_as_row_by_row(self, n):
        # without zero couplings both schedules chase every sweep from the
        # last row; only numpy's hypot for the shift may round otherwise
        rng = np.random.default_rng(800 + n)
        d, e = rng.standard_normal((40, n)), rng.uniform(0.1, 1.0, (40, n - 1))
        scale = np.frexp(eigensolver._one_norm(d, e))[1][:, np.newaxis]
        d, e = np.ldexp(d, -scale), np.ldexp(e, -scale)
        levels, sweeps = eigensolver._ql_lockstep(d, e)
        rows, row_sweeps = eigensolver._ql_rows(d, e, None, np.ones(40))
        assert np.max(np.abs(levels - rows)) <= 1e-15 and abs(sweeps - row_sweeps) <= 0.02 * row_sweeps

    @pytest.mark.parametrize("sizes", [(3, 1, 4), (1, 1, 1, 1), (2, 5)])
    def test_block_diagonal_stacks(self, sizes):
        stack = np.array([block_diagonal(sizes, 810 + 10 * g) for g in range(eigensolver.LOCKSTEP)])
        assert_schedules_agree(stack)
        assert_stack_contracts(stack)

    def test_equal_blocks(self):
        # the chase meets the zero coupling with p = 0 where a lower block's
        # shift is exact: no rotation there
        for n in range(1, 6):
            same = np.array([equal_blocks(n, 830 + g) for g in range(eigensolver.LOCKSTEP)])
            assert_schedules_agree(same)
            assert_stack_contracts(same)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, scale):
        stack = scale * np.array([random_hermitian(6, 840 + g) for g in range(eigensolver.LOCKSTEP)])
        assert_schedules_agree(stack)
        assert_stack_contracts(stack)

    def test_one_row_leaves(self, monkeypatch):
        # a stack of 1 x 1 matrices is its diagonal, in no sweeps
        diagonal = np.random.default_rng(850).standard_normal(eigensolver.LOCKSTEP)
        with lockstep_spy() as spy:
            spec = eigendecompose(diagonal[:, np.newaxis, np.newaxis] + 0j, want_vectors=True)
        assert spy.call_count == 1 and spec.sweeps == 0
        assert np.array_equal(spec.eigenvalues[:, 0], diagonal)
        assert np.all(spec.eigenvectors == 1.0)
        # a tree of d = 5 halved down to LEAF = 2: its three 1-row leaves a
        # matrix go in lockstep, its 2-row leaves row by row
        monkeypatch.setattr(eigensolver, "LEAF", 2)
        stack = np.array([random_hermitian(5, 860 + g) for g in range(50)])
        with lockstep_spy() as spy:
            assert_stack_contracts(stack)
        assert {call.args[0].shape for call in spy.call_args_list} == {(150, 1)}

    def test_sweep_cap_names_its_matrix(self, monkeypatch):
        # matrix 77 alone needs sweeps; the diagonal ones around it do not
        stack = np.array([np.diag(np.arange(4.0)) + 0j] * eigensolver.LOCKSTEP)
        stack[77] = random_hermitian(4, 870)
        assert eigendecompose(stack).sweeps > 0
        monkeypatch.setattr(eigensolver, "MAX_SWEEPS_PER_DIM", 0)
        with pytest.raises(ConvergenceError, match="sweeps") as caught:
            eigendecompose(stack)
        assert caught.value.index == 77

    def test_leaf_sweep_cap_names_its_matrix(self, monkeypatch):
        # two leaves a matrix, 128 rows in all: matrix 41's leaves take sweeps
        monkeypatch.setattr(eigensolver, "LEAF", 4)
        stack = np.array([np.diag(np.arange(8.0)) + 0j] * (eigensolver.LOCKSTEP // 2))
        stack[41] = random_hermitian(8, 871)
        monkeypatch.setattr(eigensolver, "MAX_SWEEPS_PER_DIM", 0)
        with pytest.raises(ConvergenceError, match="sweeps") as caught, lockstep_spy() as spy:
            eigendecompose(stack)
        assert spy.call_count == 1 and caught.value.index == 41

    def test_skips_the_ordering(self):
        # the ordering only helps a windowed scalar QL stop early: a lockstep
        # stack is solved in the input's basis, one below the threshold ordered
        # (the tridiagonal's top is the first basis state's diagonal entry, scaled)
        H = np.diag([3.0, 1.0, 2.0]) + 0.1 * random_hermitian(3, 880)
        tridiagonal_tops = []
        solve = eigensolver._solve_tridiagonal

        def recorded(d, *args):
            tridiagonal_tops.append(d[0, 0])
            return solve(d, *args)

        with mock.patch.object(eigensolver, "_solve_tridiagonal", recorded):
            for count in (eigensolver.LOCKSTEP - 1, eigensolver.LOCKSTEP):
                eigendecompose(np.array([H] * count))
        ordered, unordered = tridiagonal_tops
        assert unordered > 2.0 * ordered > 0.0


@given(windowed_stacks(st.integers(1, 16),
                       st.integers(eigensolver.LOCKSTEP, eigensolver.LOCKSTEP + 8)))
@settings(max_examples=25, deadline=None)
def test_lockstep_over_full_range(case):
    # the lockstep ignores the window: every level is computed, with the bits
    # of the full solve, and the window only trims the vectors, whose kept
    # columns meet the contracts
    stack, window = case
    with warnings.catch_warnings(), lockstep_spy() as spy:
        warnings.simplefilter("error")
        spec = eigendecompose(stack, want_vectors=True, window=window)
        values = eigendecompose(stack, window=window).eigenvalues
        full = eigendecompose(stack, want_vectors=True)
    assert spy.call_count == 3
    assert np.array_equal(spec.eigenvalues, full.eigenvalues)
    assert np.array_equal(values, full.eigenvalues)
    assert np.all(np.isfinite(spec.eigenvalues)) and spec.sweeps == full.sweeps
    counts = kept_columns(spec.eigenvectors)
    w = spec.eigenvalues
    assert np.all(counts >= np.count_nonzero(w <= w[:, :1] + window, axis=1))
    for H, w, V, c in zip(stack, spec.eigenvalues, spec.eigenvectors, counts):
        assert max_residual(H, V[:, :c], w[:c]) <= residual_bound(H)
        assert np.max(np.abs(V[:, :c].conj().T @ V[:, :c] - np.eye(c))) <= RESIDUAL_RTOL


def tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1) + 0j


class TestDivideAndConquer:
    """Tridiagonals of more than LEAF rows: halved into leaves that QL and
    inverse iteration solve, and merged back through secular equations."""

    @pytest.fixture
    def halves(self, monkeypatch):
        """Leaves of at most 32 rows: 64 rows are one merge of two halves."""
        monkeypatch.setattr(eigensolver, "LEAF", 32)

    def test_secular_roots_match_lapack(self):
        # one call for equations of 1, 2, 5 and 40 poles, padded to a common width
        rng = np.random.default_rng(60)
        poles, weights = [], []
        for count in (1, 2, 5, 40):
            poles.append(np.sort(rng.uniform(-1.0, 1.0, count)))
            w = rng.standard_normal(count)
            weights.append(w / np.linalg.norm(w))
        rho = np.array([0.3, 1.7, 0.05, 0.9])
        solved = _secular_roots(poles, weights, rho, np.arange(4))
        for p, w, r, (roots, delta) in zip(poles, weights, rho, solved):
            ref = np.linalg.eigvalsh(np.diag(p) + r * np.outer(w, w))
            assert np.max(np.abs(roots - ref)) <= 16 * sys.float_info.epsilon
            assert np.max(np.abs(delta - (p - roots[:, np.newaxis]))) <= 4 * sys.float_info.epsilon

    def test_secular_roots_near_close_poles(self):
        # poles 2.5e-13 and 8.6e-11 apart near 0.5, rho of the same size: the
        # starting midpoint p_i + rho / 2 would round by 1e-3 of rho and
        # bracket the last root on the wrong side, where it cannot converge
        p = np.array([0.5095584034093511, 0.509558403409597, 0.5095584034958706])
        w = np.array([-0.705073256458148, -0.05242076412570525, -0.7071942919141668])
        rho = 6.761830891399223e-14
        [(roots, delta)] = _secular_roots([p], [w / np.linalg.norm(w)], np.array([rho]), np.zeros(1))
        ref = p[0] + np.linalg.eigvalsh(np.diag(p - p[0]) + rho * np.outer(w, w) / (w @ w))
        assert np.max(np.abs(roots - ref)) <= 2 * np.spacing(p[0])
        assert np.all(delta[:, 0] < 0.0) and np.all(np.diff(roots) > 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_clustered_spectrum(self, monkeypatch, seed):
        # eigenvalues 1 + cumulative gaps log-uniform in [1e-16, 1e-2]: merges
        # keep poles so close that only Gu and Eisenstat's weights, not z
        # itself, give orthonormal vectors
        monkeypatch.setattr(eigensolver, "LEAF", 16)
        rng = np.random.default_rng(310 + seed)
        U, _ = np.linalg.qr(rng.standard_normal((72, 72)) + 1j * rng.standard_normal((72, 72)))
        H = U @ np.diag(1.0 + np.cumsum(10.0 ** rng.uniform(-16, -2, 72))) @ U.conj().T
        assert_contracts((H + H.conj().T) / 2)

    @pytest.mark.usefixtures("halves")
    def test_negligible_tear_keeps_the_pieces_bits(self):
        # e = eps beside diagonals of 1 is negligible (e**2 <= eps**2 * 2**2):
        # the tear takes nothing off the diagonal, so the eigenvalues are the
        # halves' own, bit for bit; taking e off would move both by an ulp
        # each half's diagonal ascends, so solved alone it is not reordered
        rng = np.random.default_rng(69)
        d = np.concatenate([np.sort(rng.uniform(-1.0, 1.0, 32)), np.sort(rng.uniform(1.0, 3.0, 32))])
        d[31] = d[32] = 1.0
        e = rng.uniform(0.1, 1.0, 63)
        e[31] = sys.float_info.epsilon
        H = tridiagonal(d, e)
        halves = np.sort(np.concatenate([eigenvalues_only(H[:32, :32]), eigenvalues_only(H[32:, 32:])]))
        assert np.array_equal(eigenvalues_only(H), halves)

    @pytest.mark.parametrize("leaf", [16, 32])
    def test_exactly_zero_off_diagonal_at_tears(self, monkeypatch, leaf):
        # zero at every tear of 64 rows (rows 16, 32 and 48 with leaves of 16):
        # each merge is a sort, and the leaves' vectors pass through unchanged
        monkeypatch.setattr(eigensolver, "LEAF", leaf)
        rng = np.random.default_rng(61)
        e = rng.uniform(0.1, 1.0, 63)
        e[[15, 31, 47]] = 0.0
        assert_contracts(tridiagonal(rng.standard_normal(64), e))

    @pytest.mark.parametrize("seed", range(12))
    def test_negligible_off_diagonal_at_tears(self, monkeypatch, seed):
        # 5e-161 between diagonals of 0.5 and 1 fails QL's split test, so a
        # tear there has rho = 0; the top tear of n rows is at row n // 2
        monkeypatch.setattr(eigensolver, "LEAF", 16)
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(33, 81))
        e = rng.uniform(0.1, 1.0, n - 1)
        e[rng.random(n - 1) < 0.3] = 5e-161
        e[n // 2 - 1] = 5e-161
        assert_contracts(tridiagonal(rng.choice([0.5, 1.0], size=n), e))

    @pytest.mark.usefixtures("halves")
    def test_identical_decoupled_halves(self):
        # every eigenvalue double, one copy from each half: the merge deflates all
        H = block_diagonal((32, 32), 62)
        H[32:, 32:] = H[:32, :32]
        spec = eigendecompose(H, want_vectors=True)
        assert np.max(np.abs(spec.eigenvalues[0::2] - spec.eigenvalues[1::2])) <= 1e-13
        assert_contracts(H)

    @pytest.mark.usefixtures("halves")
    def test_sweeps_are_the_leaves(self):
        # a 64-row block diagonal splits into its two 32-row blocks, so the
        # solve takes the sweeps of the two blocks solved alone
        H = block_diagonal((32, 32), 63)
        # each block's basis in ascending order of its diagonal, as a solve of
        # the block alone orders it; the tree keeps the input's order
        order = np.concatenate([np.argsort(H.diagonal()[:32].real),
                                32 + np.argsort(H.diagonal()[32:].real)])
        H = H[np.ix_(order, order)]
        alone = sum(eigendecompose(H[s, s]).sweeps for s in (slice(0, 32), slice(32, 64)))
        assert eigendecompose(H, want_vectors=True).sweeps == alone
        assert eigendecompose(H).sweeps == alone

    def test_uneven_halving(self, monkeypatch):
        # 243 rows halve into 121 + 122, then into leaves of 60 and 61 rows
        assert_contracts(build_block(ModelParams(3, 5, 1.3, 2.0, 0.7), 10).matrix)
        # 33 rows into 16 + 17, then into leaves of 8 and 9 rows
        monkeypatch.setattr(eigensolver, "LEAF", 8)
        assert_contracts(random_hermitian(33, 64))

    @pytest.mark.usefixtures("halves")
    def test_stack_matches_matrices_one_by_one(self):
        assert_stack_contracts(np.array([random_hermitian(64, 500 + seed) for seed in range(8)]))

    @pytest.mark.usefixtures("halves")
    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_magnitudes(self, scale):
        assert_contracts(scale * random_hermitian(64, 65))

    @pytest.mark.usefixtures("halves")
    @pytest.mark.parametrize("want_vectors", [True, False])
    def test_secular_cap_names_its_matrix(self, monkeypatch, want_vectors):
        # matrix 0 splits exactly at its tear and needs no secular equation;
        # matrix 1's first secular equation does not converge at the cap
        monkeypatch.setattr(divide, "MAX_SECULAR_ITERATIONS", 0)
        stack = np.array([block_diagonal((32, 32), 66), random_hermitian(64, 67)])
        with pytest.raises(ConvergenceError, match="secular") as caught:
            eigendecompose(stack, want_vectors=want_vectors)
        assert caught.value.index == 1

    @pytest.mark.usefixtures("halves")
    def test_leaf_sweep_cap_names_its_matrix(self, monkeypatch):
        # the diagonal matrix 0 takes no sweeps; matrix 1's leaves do
        monkeypatch.setattr(eigensolver, "MAX_SWEEPS_PER_DIM", 0)
        stack = np.array([np.diag(np.arange(64.0)) + 0j, random_hermitian(64, 68)])
        with pytest.raises(ConvergenceError, match="sweeps") as caught:
            eigendecompose(stack)
        assert caught.value.index == 1


class TestExtremeMagnitudes:
    @pytest.mark.parametrize("scale", [1e300, 1e-200, 1e-310])
    @pytest.mark.parametrize("n,seed", [(8, 20), (27, 21)])
    def test_matches_lapack(self, n, seed, scale):
        # unscaled, 1e300 overflows the Householder norms to NaN, and 1e-200
        # drops reflectors whose ||v||^2 underflows, so eigenvalues go wrong
        H = scale * random_hermitian(n, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = eigendecompose(H, want_vectors=True)
        ref = np.linalg.eigvalsh(H)
        assert np.max(np.abs(spec.eigenvalues - ref)) <= 1e-11 * np.max(np.abs(ref))
        assert max_residual(H, spec.eigenvectors, spec.eigenvalues) <= residual_bound(H)

    @pytest.mark.parametrize("exponent", [-300, -60, 7, 300])
    def test_power_of_two_scaling_is_exact(self, exponent):
        # each matrix is scaled by the power of two of its largest entry, so
        # 2**exponent * H has 2**exponent times H's eigenvalues and H's
        # eigenvectors bit for bit, also where the squares of its 1e-160
        # couplings underflow
        H = skipping_with_tiny_columns()
        scaled = np.ldexp(H.real, exponent) + 1j * np.ldexp(H.imag, exponent)
        spec, spec_scaled = (eigendecompose(M, want_vectors=True) for M in (H, scaled))
        assert np.array_equal(np.ldexp(spec.eigenvalues, exponent), spec_scaled.eigenvalues)
        assert np.array_equal(spec.eigenvectors, spec_scaled.eigenvectors)
        assert spec.sweeps == spec_scaled.sweeps

    def test_eigenvalue_beyond_float_range(self):
        H = np.full((2, 2), 1.7e308)
        with pytest.raises(NumericalError, match="float range"):
            eigendecompose(H)

    def test_non_finite_tridiagonal_named(self, monkeypatch):
        def broken(A, want_vectors):
            n = A.shape[-1]
            return np.full(A.shape[:-1], np.nan), np.zeros(A.shape[:-2] + (n - 1,)), None
        monkeypatch.setattr(eigensolver, "_tridiagonalize", broken)
        with pytest.raises(NumericalError, match="tridiagonal"):
            eigendecompose(np.eye(3))


@st.composite
def hermitian_cases(draw):
    """Random, diagonal, repeated-eigenvalue or clustered Hermitian matrices of
    size 0-16, scaled anywhere from 1e-300 to 1e300.  Clustered eigenvalues are
    1 plus cumulative gaps log-uniform in [1e-16, 1e-2], so their clusters
    straddle both GROUP_RTOL and CLUSTER_RTOL."""
    n = draw(st.integers(0, 16))
    kind = draw(st.sampled_from(["random", "diagonal", "repeated", "clustered"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-300, 1e300))
    if kind == "random":
        H = random_hermitian(n, rng)
    elif kind == "diagonal":
        H = np.diag(rng.standard_normal(n)).astype(complex)
    else:
        if kind == "repeated":
            values = rng.choice([-1.0, 0.5, 2.0], size=n)
        else:
            values = 1.0 + np.cumsum(10.0 ** rng.uniform(-16, -2, n))
        U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        H = U @ np.diag(values) @ U.conj().T
        H = (H + H.conj().T) / 2
    return scale * H


@given(hermitian_cases())
@settings(max_examples=60, deadline=None)
def test_contracts_over_full_range(H):
    n = H.shape[0]
    spec = eigendecompose(H, want_vectors=True)
    values = eigenvalues_only(H)
    assert np.array_equal(values, spec.eigenvalues)
    assert spec.eigenvectors.shape == (n, n)
    if n == 0:
        return
    V, w = spec.eigenvectors, spec.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert max_residual(H, V, w) <= residual_bound(H)
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= RESIDUAL_RTOL
