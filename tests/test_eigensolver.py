import contextlib
import inspect
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
)
from parafermi_jc import blocks, divide, eigensolver, thermo
from parafermi_jc.divide import _secular_roots
from parafermi_jc.eigensolver import (
    CLUSTER_RTOL,
    HERMITICITY_RTOL,
    PANEL,
    RESIDUAL_RTOL,
    _back_transform,
    _ql_implicit_shift,
    _require_hermitian,
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
        assert eigendecompose(np.zeros((3, 3))).eigenvalues == pytest.approx([0.0, 0.0, 0.0])
        one = eigendecompose(np.array([[4.0]]), want_vectors=True)
        assert one.eigenvectors.tolist() == [[1.0]]
        empty = eigendecompose(np.zeros((0, 0)), want_vectors=True)
        assert empty.eigenvalues.shape == (0,) and empty.eigenvectors.shape == (0, 0)
        # an empty stack of 0 x 0 matrices, as the (0, 3, 3) and (2, 0, 0) stacks
        for shape in ((0, 0, 0), (0, 3, 3), (2, 0, 0)):
            assert eigendecompose(np.zeros(shape)).eigenvalues.shape == shape[:2]
            assert eigendecompose(np.zeros(shape), want_vectors=True).eigenvectors.shape == shape

    def test_ascending_order(self):
        w = eigendecompose(random_hermitian(40, 3)).eigenvalues
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


def relative_deviations(A):
    """max|H - H^dag| / max|H| of each matrix, by hypot, max|H| floored at the
    smallest normal float.  The deviations are taken in units of the power of
    two of that scale, exactly, so that subnormal ones keep their digits, and
    deviations beyond the float range are inf."""
    scale = np.maximum(np.max(np.abs(A), axis=(-2, -1), initial=0.0), sys.float_info.min)
    unit = np.ldexp(1.0, -np.frexp(scale)[1])[..., np.newaxis, np.newaxis]
    with np.errstate(over="ignore"):
        dev = np.hypot((A.real - A.real.swapaxes(-1, -2)) * unit,
                       (A.imag + A.imag.swapaxes(-1, -2)) * unit)
    return np.max(dev, axis=(-2, -1), initial=0.0) / (scale * unit[..., 0, 0])


def hypot_rejection(A):
    """The message with which the deviations' own comparison, by hypot,
    rejects a finite square matrix or stack, or None if it accepts: the
    reference that the check's comparison in squares must never be looser
    than."""
    if (relative_deviations(A) > HERMITICITY_RTOL).any():
        with np.errstate(over="ignore"):
            dev = np.max(np.hypot(A.real - A.real.swapaxes(-1, -2), A.imag + A.imag.swapaxes(-1, -2)))
        return f"matrix is not Hermitian: max|H - H^dag| = {dev:.3e}"
    return None


def check_rejection(A):
    """The message with which _require_hermitian rejects A, or None if it accepts."""
    try:
        _require_hermitian(A)
    except ParameterError as exc:
        return str(exc)
    return None


def relative_excess(A):
    """max over the matrices of max|H - H^dag| / (HERMITICITY_RTOL * max|H|) - 1, by hypot."""
    return float(np.max(relative_deviations(A))) / HERMITICITY_RTOL - 1.0


@st.composite
def perturbed_hermitian(draw, factors):
    """A Hermitian matrix or stack at a scale from 1e-300 to 1e300, one entry
    of one matrix moved off Hermiticity by factor * the tolerance, the
    factor drawn from factors: an off-diagonal entry replaced by the
    deviation, its partner by zero, or a diagonal entry's imaginary part by
    half of it, so that the deviation is exact."""
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(n, n), (1, n, n), (3, n, n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    A = (A + A.conj().swapaxes(-1, -2)) / 2 * 10.0 ** draw(st.floats(-300, 300))
    g = draw(st.integers(0, A.size // (n * n) - 1))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    matrix = A.reshape(-1, n, n)[g]
    matrix[i, j] = matrix[j, i] = matrix[i, j].real
    tol = HERMITICITY_RTOL * max(float(np.max(np.abs(matrix))), sys.float_info.min)
    size = draw(factors) * tol
    if i == j:
        matrix[i, i] += 0.5j * size
    else:
        matrix[i, j] = size * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        matrix[j, i] = 0.0
    return A


class TestHermiticityCheck:
    """The comparison in squares against the comparison of the deviations by hypot."""

    @given(perturbed_hermitian(st.sampled_from([0.5, 1 - 1e-6, 1 + 1e-6, 2.0])))
    @settings(max_examples=400, deadline=None)
    def test_same_decision_away_from_the_tolerance(self, A):
        assert check_rejection(A) == hypot_rejection(A)

    @given(perturbed_hermitian(st.integers(-32, 32).map(lambda k: 1.0 + k * sys.float_info.epsilon)))
    @settings(max_examples=400, deadline=None)
    def test_never_looser_at_the_tolerance(self, A):
        expected = hypot_rejection(A)
        if expected is not None:
            assert check_rejection(A) == expected
        elif abs(relative_excess(A)) > 1e-14:
            assert check_rejection(A) is None

    def test_never_looser_on_random_trials(self):
        # 2 x 2 matrices whose one deviation lies within an ulp of the
        # tolerance, where the squares round to the other side of it about
        # once in 250 matrices; the tolerance is relative at scales from
        # 1e-3 to 1e3
        rng = np.random.default_rng(2024)
        tighter = 0
        for trial in range(3000):
            a, b = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3)
            tol = HERMITICITY_RTOL * max(abs(a), abs(b))
            ulps = rng.integers(0, 2)
            H = np.array([[a, 0.0], [0.0, b]], dtype=complex)
            H[0, 1] = tol * (1.0 + ulps * sys.float_info.epsilon) * np.exp(1j * rng.uniform(0, 7))
            expected, got = hypot_rejection(H), check_rejection(H)
            assert expected is None or got == expected, trial
            tighter += expected is None and got is not None
        # the margin rejects some matrices at the tolerance that hypot accepts
        assert 0 < tighter < 3000

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1e307])
    def test_message_reports_the_deviation(self, scale):
        A = random_hermitian(5, 7) * scale
        A[1, 3] += 1e-6 * scale
        message = check_rejection(A)
        assert message is not None and message == hypot_rejection(A)
        stack = np.array([random_hermitian(5, 8) * scale, A])
        assert check_rejection(stack) == hypot_rejection(stack)

    def test_opposite_huge_entries(self):
        # H - H^dag overflows to inf: rejected, as by hypot
        A = np.array([[0.0, 1.7e308], [-1.7e308, 0.0]], dtype=complex)
        assert check_rejection(A) == hypot_rejection(A) == (
            "matrix is not Hermitian: max|H - H^dag| = inf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_entries(self, bad, stacked):
        A = np.eye(3, dtype=complex)
        A[0, 2] = bad
        if stacked:
            A = np.array([np.eye(3), A])
        with pytest.raises(ParameterError, match="^matrix has non-finite entries$"):
            _require_hermitian(A)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0), (0, 3, 3)])
    def test_empty_shapes_accepted(self, shape):
        A, peak = _require_hermitian(np.zeros(shape))
        assert A.shape == shape and peak.shape == shape[:-2]

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3), (1, 2, 2, 2), ()])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ParameterError, match="^matrix must be square"):
            _require_hermitian(np.zeros(shape))


class TestContracts:
    def test_tiny_reflector_skipped(self):
        # more than LEAF rows, so Householder reduces it: column 0 below its
        # subdiagonal has norm 1e-160, and 2/||v||^2 would overflow
        n = eigensolver.LEAF + 3
        H = np.diag(np.arange(n, dtype=complex))
        H[0, 2] = H[2, 0] = 1e-160
        _, _, (_, panels) = _tridiagonalize(H.copy(), True)
        assert not np.any(panels[0][1][:, 0])  # reflector 0 skipped
        spec = eigendecompose(H, want_vectors=True)
        V, w = spec.eigenvectors, spec.eigenvalues
        assert w == pytest.approx(np.arange(n), abs=1e-13)
        assert np.max(np.linalg.norm(H @ V - V * w, axis=0)) <= residual_bound(H)
        assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-10

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
        w = eigendecompose(H).eigenvalues
        assert np.sum(w) == pytest.approx(np.trace(H).real, rel=1e-9, abs=1e-9)
        assert np.sum(w**2) == pytest.approx(np.linalg.norm(H, "fro") ** 2, rel=1e-9)

    @pytest.mark.parametrize("n,seed", [(20, 7), (77, 8), (256, 9)])
    def test_matches_lapack(self, n, seed):
        H = random_hermitian(n, seed)
        w = eigendecompose(H).eigenvalues
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
        w1 = eigendecompose(H).eigenvalues
        w2 = eigendecompose(U @ H @ U.conj().T).eigenvalues
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
        w = eigendecompose(stack).eigenvalues
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
        assert np.array_equal(eigendecompose(H).eigenvalues,
                              np.ldexp(eigendecompose(T).eigenvalues, exponent))

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


def panel_factor_alone(V):
    """zlarft's T of one panel, by the recurrence run on that panel alone:
    the reference for the stacked run of eigensolver._panel_factors."""
    nb = V.shape[-1]
    T = V.conj().swapaxes(-1, -2) @ V
    norms = np.diagonal(T, axis1=-2, axis2=-1).real.copy()
    T *= np.tri(nb, nb, -1, dtype=bool).T
    tau = np.divide(2.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    T[..., np.arange(nb), np.arange(nb)] = tau
    for j in range(1, nb):
        T[..., :j, j] = -tau[..., j, np.newaxis] * (T[..., :j, :j] @ T[..., :j, j, np.newaxis])[..., 0]
    return T


def random_chain(n, seed, dtype=complex):
    """A random tridiagonal Hermitian matrix of n rows, real symmetric for a
    real dtype, with one zero coupling: nothing below its subdiagonal for
    Householder to annihilate."""
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(n - 1).astype(dtype)
    if dtype == complex:
        e += 1j * rng.standard_normal(n - 1)
    e[n // 3] = 0.0
    return np.diag(rng.standard_normal(n)).astype(dtype) + np.diag(e, -1) + np.diag(e.conj(), 1)


def real_block_256():
    """The real form of the d = 256 F = 4, k = 4, n = 12 block: 254 reflectors,
    in seven panels of PANEL and a last one of 30."""
    params = ModelParams(4, 4, 1.0, 2.0, 1.0)
    return blocks._real_form(build_block(params, 12), params)[0]


def assert_values_only(values, with_vectors, stack):
    """Values-only eigenvalues of a stack: those of the vectors path, bit for
    bit, up to LEAF rows, where both solve one leaf; above it, one QL on the
    whole tridiagonal, within 1e-11 * max|lambda| of LAPACK per matrix."""
    if stack.shape[-1] <= eigensolver.LEAF:
        assert np.array_equal(values, with_vectors)
        return
    ref = np.linalg.eigvalsh(stack)
    bound = 1e-11 * np.maximum(np.max(np.abs(ref), axis=-1), np.finfo(float).tiny)
    assert np.all(np.max(np.abs(values - ref), axis=-1) <= bound)


def assert_contracts(H):
    """Residual and orthonormality at RESIDUAL_RTOL, ascending eigenvalues that
    match LAPACK to 1e-11, and values-only eigenvalues as assert_values_only
    holds them."""
    n = H.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigendecompose(H, want_vectors=True)
        values = eigendecompose(H).eigenvalues
    V, w = spec.eigenvectors, spec.eigenvalues
    assert_values_only(values, w, H)
    assert np.all(np.diff(w) >= 0)
    ref = np.linalg.eigvalsh(H)
    assert np.max(np.abs(w - ref)) <= 1e-11 * max(np.max(np.abs(ref)), np.finfo(float).tiny)
    assert max_residual(H, V, w) <= residual_bound(H)
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= RESIDUAL_RTOL


class TestPanels:
    """Matrices large enough that the Householder stage runs more than one
    panel.  LEAF is 8 here, so each has more rows and Householder, not
    Lanczos, reduces it, alone or in a stack."""

    @pytest.fixture(autouse=True)
    def householder(self, monkeypatch):
        monkeypatch.setattr(eigensolver, "LEAF", 8)

    # a matrix of size n has n - 2 reflectors: up to size PANEL + 2 they form
    # one panel, and size 2 * PANEL + 2 is the last with two; a real chain of
    # 100 rows runs none
    @pytest.mark.parametrize("n", [31, 32, 33, 34, 35, 36, 63, 64, 65, 66, 100, "real_chain"])
    def test_contracts_across_panels(self, n):
        if n == "real_chain":
            assert_contracts(random_chain(100, 310, float))
        else:
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
                                       skipping_with_tiny_columns,
                                       lambda: random_chain(100, 54)],
                             ids=["n35", "n66", "n100", "block_diagonal", "tiny_columns", "chain"])
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

    @pytest.mark.parametrize("build", [lambda: random_hermitian(34, 55),
                                       lambda: random_hermitian(35, 56),
                                       lambda: random_hermitian(70, 57),
                                       lambda: block_diagonal(SKIPPING_SIZES, 58),
                                       skipping_with_tiny_columns,
                                       lambda: random_chain(70, 59)],
                             ids=["n34", "n35", "n70", "block_diagonal", "tiny_columns", "chain"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_back_transform_is_the_reflector_product(self, build, route):
        # Q = H_0 H_1 ... H_{n-3} diag(phases) formed explicitly, each
        # H_j = I - 2 u_j u_j^H (the identity for a skipped, zero u_j)
        stack = on_route(build(), route)
        n = stack.shape[-1]
        _, _, reflectors = _tridiagonalize(stack.copy(), True)
        G = 1 if stack.ndim == 2 else len(stack)
        Q = _back_transform(reflectors, np.repeat(np.eye(n, dtype=complex)[np.newaxis], G, axis=0))
        for g in range(G):
            phases, panels = matrix_reflectors(reflectors, g)
            expected = np.eye(n, dtype=complex)
            for r0, V in panels:
                for u in V.T:
                    full = np.zeros(n, dtype=complex)
                    full[r0:] = u
                    expected = expected - 2.0 * np.outer(expected @ full, full.conj())
            expected = expected * phases
            assert np.max(np.abs(Q[g] - expected)) <= 1e-14

    @pytest.mark.parametrize("build,widths", [
        (real_block_256, [32] * 7 + [30]),
        (lambda: random_symmetric(100, 62), [32, 32, 32, 2]),
        (lambda: np.array([random_symmetric(100, 63), random_symmetric(100, 64)]), [32, 32, 32, 2]),
    ], ids=["block_256", "random_100", "stack_of_two"])
    def test_stacked_panel_factors_are_each_panels_own(self, build, widths):
        # one run of the recurrence over every panel's Gram matrix, the last
        # panel padded with zero columns, gives each panel's T bit for bit
        _, _, (_, panels) = _tridiagonalize(build(), True)
        assert [V.shape[-1] for _, V in panels] == widths
        T = eigensolver._panel_factors(panels)
        assert T.shape[0] == len(panels) and T.shape[-1] == PANEL
        for factor, (_, V) in zip(T, panels):
            width = V.shape[-1]
            assert factor[..., :width, :width].tobytes() == panel_factor_alone(V).tobytes()

    @pytest.mark.parametrize("route", ROUTES)
    def test_chain_runs_no_panel(self, route):
        # a chain's d and |e| are its own diagonals and its panels none, so
        # its back-transform is the phase rotation; one entry two below the
        # diagonal, in one matrix of a stack, brings back every panel
        H = random_chain(100, 320)
        if route != "lone":
            H = np.array([H, random_chain(100, 321)])
        d, e, (_, panels) = _tridiagonalize(H.copy(), True)
        assert panels == []
        assert d.tobytes() == np.diagonal(H, axis1=-2, axis2=-1).real.tobytes()
        assert e.tobytes() == np.abs(np.diagonal(H, -1, axis1=-2, axis2=-1)).tobytes()
        last = H.reshape(-1, 100, 100)[-1]
        last[5, 3] = last[3, 5] = 1e-3
        _, _, (_, panels) = _tridiagonalize(H.copy(), True)
        assert [V.shape[-1] for _, V in panels] == [32, 32, 32, 2]

    def test_eigensolver_solves_no_linear_system(self):
        # every panel's compact-WY T comes from one run of zlarft's
        # recurrence over all panels, for a lone matrix (one leaf or a tree)
        # as for a stack, so no panel solves or inverts; QR is the one LAPACK
        # call left
        with mock.patch.object(np.linalg, "solve", side_effect=AssertionError("solve called")), \
                mock.patch.object(np.linalg, "inv", side_effect=AssertionError("inv called")):
            assert_contracts(random_hermitian(40, 61))
            assert_contracts(random_hermitian(70, 59))
            assert_stack_contracts(np.array([random_hermitian(40, 60 + g) for g in range(3)]))

    def test_subnormal_x0_on_both_routes(self):
        # column 0's x0 is 1e-310 / 8 once scaled by the power of two of the
        # largest entry, beside O(1) entries, and the basis is already in
        # ascending order of the diagonal, so Lanczos starts at row 0 as well:
        # the phase x0 / |x0| is taken part by part on both routes, and the
        # two routes' eigenvalues agree
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
    """Every matrix of a stacked solve meets the contracts, its eigenvalues
    match a solve of that matrix alone to 1e-13 relative, and the values-only
    eigenvalues are as assert_values_only holds them."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigendecompose(stack, want_vectors=True)
        values = eigendecompose(stack).eigenvalues
    assert_values_only(values, spec.eigenvalues, stack)
    n = stack.shape[-1]
    for H, w, V in zip(stack, spec.eigenvalues, spec.eigenvectors):
        alone = eigendecompose(H).eigenvalues
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
    ||T||_1 of the last one kept, T Householder's tridiagonal of H in
    ascending order of its diagonal, which by the implicit-Q theorem is the
    solver's Lanczos T from H's state of lowest diagonal."""
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
    assert_kept_pairs(stack, spec)
    return counts


def assert_kept_pairs(stack, spec):
    """The nonzero columns of a windowed solve meet the residual and
    orthonormality contracts."""
    for H, w, V, c in zip(stack, spec.eigenvalues, spec.eigenvectors, kept_columns(spec.eigenvectors)):
        assert max_residual(H, V[:, :c], w[:c]) <= residual_bound(H)
        assert np.max(np.abs(V[:, :c].conj().T @ V[:, :c] - np.eye(c))) <= RESIDUAL_RTOL


class TestWindow:
    """Eigenvectors only up to each matrix's smallest eigenvalue plus a window,
    and through any cluster that the window ends in."""

    def test_staircase_counts(self):
        stack = staircase_stack()
        counts = assert_kept_contracts(stack, STAIRCASE_WINDOW)
        # the window keeps 1 to 9 of 27 vectors, 135 of 1,080 in all
        assert (counts.min(), counts.max(), counts.sum()) == (1, 9, 135)

    def test_staircase_stops_early(self, monkeypatch):
        # with each tridiagonal's top at its matrix's state of lowest
        # diagonal, QL reaches the low-lying levels first and stops after 140
        # of the 1,080 eigenvalues, in 287 of the full solve's 1,902 sweeps
        # (1,906 on Householder's tridiagonals of the ascending-diagonal
        # basis): the stop is tried as soon as the next undeflated diagonal
        # lies past the window.  From each row 0, it would stop after 795 in
        # 1,389
        computed = []
        ql = eigensolver._ql_implicit_shift

        def recorded(d, e2, **kwargs):
            sweeps = ql(d, e2, **kwargs)
            computed.append(len(d))
            return sweeps

        monkeypatch.setattr(eigensolver, "_ql_implicit_shift", recorded)
        spec = eigendecompose(staircase_stack(), want_vectors=True, window=STAIRCASE_WINDOW)
        assert (sum(computed), spec.sweeps) == (140, 287)
        assert np.count_nonzero(np.isfinite(spec.eigenvalues)) == 135
        computed.clear()
        full = eigendecompose(staircase_stack(), want_vectors=True)
        assert (sum(computed), full.sweeps) == (1080, 1902)

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

    def test_values_only_stops_above_leaf(self):
        # a values-only solve of 243 rows is one leaf, so its QL stops at the
        # window: with the basis already in ascending order of its diagonal,
        # after 15 levels in 30 of the full solve's 490 sweeps
        params = ModelParams(3, 5, 1.0, 1000.0, 1.0, hbar=1.0, deformation=Deformation.q_exp(1.0))
        H = build_block(params, 10).matrix
        order = np.argsort(H.diagonal().real, kind="stable")
        H = H[np.ix_(order, order)]
        spec = eigendecompose(H, window=STAIRCASE_WINDOW)
        full = eigendecompose(H)
        computed = np.isfinite(spec.eigenvalues)
        assert (np.count_nonzero(computed), spec.sweeps, full.sweeps) == (15, 30, 490)
        assert np.array_equal(spec.eigenvalues[computed], full.eigenvalues[:15])
        ref = np.linalg.eigvalsh(H)
        assert ref[15] > ref[0] + STAIRCASE_WINDOW

    @pytest.mark.parametrize("e0,counts", [(0.0, [1, 0]), (0.1, [0])])
    def test_stop_refused_while_a_level_remains(self, monkeypatch, e0, counts):
        # eigenvalues near 0, 1, 19, 50 and 60, window 5.  Split off by e0 = 0,
        # row 0 deflates at once, and the next diagonal, 10, lies past the
        # window while rows 1.. still hold the level near 1: the Sturm count
        # refuses the stop.  At e0 = 0.1 the sweeps of row 0 bring d[1] near
        # 1 first.  Either way QL keeps both levels in the window, with the
        # bits of the unwindowed QL, and leaves out the other three.
        d, e = [0.0, 10.0, 10.0, 50.0, 60.0], [e0, 9.0, 0.5, 0.5]
        full = d.copy()
        eigensolver._ql_implicit_shift(full, [x * x for x in e])
        recorded = []
        sturm = eigensolver._sturm_count

        def recorded_count(*args):
            recorded.append(sturm(*args))
            return recorded[-1]

        monkeypatch.setattr(eigensolver, "_sturm_count", recorded_count)
        eigensolver._ql_implicit_shift(d, [x * x for x in e], window=5.0)
        assert recorded == counts
        assert d == full[:2] and max(d) < d[0] + 5.0 < min(full[2:])

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


@given(windowed_stacks(st.integers(1, 2 * eigensolver.LEAF)))
@settings(max_examples=60, deadline=None)
def test_window_stop_over_full_range(case):
    # the stop leaves the levels it computes, the counts and the kept vectors
    # as they are without it, bit for bit; what it leaves out is beyond the
    # window, by LAPACK's eigenvalues (to rounding).  Above LEAF rows only a
    # values-only solve is one leaf, and only its QL stops at the window.
    stack, window = case
    ql = eigensolver._ql_implicit_shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = eigendecompose(stack, window=window).eigenvalues
        unwindowed = eigendecompose(stack).eigenvalues
    computed = np.isfinite(values)
    assert np.array_equal(values[computed], unwindowed[computed])
    assert np.all(values[~computed] == math.inf)
    ref = np.linalg.eigvalsh(stack)
    slack = 1e-12 * np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all((ref > ref[:, :1] + window - slack)[~computed])
    if stack.shape[-1] > eigensolver.LEAF:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = eigendecompose(stack, want_vectors=True, window=window)
        full = eigendecompose(stack, want_vectors=True)
        with mock.patch.object(eigensolver, "_ql_implicit_shift", lambda d, e2, **_: ql(d, e2)):
            unstopped = eigendecompose(stack, want_vectors=True, window=window)
    assert np.array_equal(values, spec.eigenvalues)
    assert np.array_equal(spec.eigenvalues[computed], full.eigenvalues[computed])
    assert np.array_equal(unstopped.eigenvalues, full.eigenvalues)
    assert np.array_equal(spec.eigenvectors, unstopped.eigenvectors)
    assert spec.sweeps <= full.sweeps


@pytest.fixture
def pivoted_factorizations(monkeypatch):
    """The shift counts of every call of _factor_shifted, the pivoted inverse
    iteration kept for shifts within GROUP_RTOL * ||T||_1 of each other in
    one block of T."""
    calls = []
    factor = eigensolver._factor_shifted

    def recorded(a, b):
        calls.append(a.shape[1])
        return factor(a, b)

    monkeypatch.setattr(eigensolver, "_factor_shifted", recorded)
    return calls


class TestTwistedVectors:
    """A call of _inverse_iteration whose shifts hold no group takes each
    vector from one twisted factorization; a group takes the pivoted
    solves."""

    def test_workload_solves_take_the_twisted_kernel(self, pivoted_factorizations):
        stack = staircase_stack()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            windowed = eigendecompose(stack, want_vectors=True, window=STAIRCASE_WINDOW)
            H = build_block(ModelParams(4, 4, 1.0, 2.0, 1.0), 12).matrix
            assert H.shape == (256, 256)
            spec = eigendecompose(H, want_vectors=True)
        assert pivoted_factorizations == []
        assert_kept_pairs(stack, windowed)
        assert max_residual(H, spec.eigenvectors, spec.eigenvalues) <= residual_bound(H)
        assert np.max(np.abs(spec.eigenvectors.conj().T @ spec.eigenvectors - np.eye(256))) <= RESIDUAL_RTOL

    def test_scan_takes_both_paths(self, pivoted_factorizations):
        # the 160-point F = 2, k = 4, n = 7 scan solves chunks of 128 and 32
        # d = 16 blocks: the first, by Householder, holds eigenvalues equal
        # within a block of T and takes the pivoted solves; the second, by
        # Lanczos, the twisted kernel
        params = ModelParams(2, 4, 1.0, 20.0, 1.0)
        omegas = np.linspace(0.5, 80.0, 160)
        thermo.omega_scan(params, 7, omegas)
        assert len(pivoted_factorizations) == 1
        H, ops = thermo._real_block(params.with_omega(0.0), 7)
        window = -math.log(thermo.NEGLIGIBLE_WEIGHT) / params.beta
        assert thermo.SCAN_CHUNK_ENTRIES // H.shape[0] ** 2 == 128
        for chunk, pivoted in ((omegas[:128], True), (omegas[128:], False)):
            stack = thermo._diagonal_stack(H, ops[:, 2], chunk)
            before = len(pivoted_factorizations)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert_kept_pairs(stack, eigendecompose(stack, want_vectors=True, window=window))
            assert (len(pivoted_factorizations) > before) == pivoted

    def test_zero_pivot(self, pivoted_factorizations):
        # at lambda = 1 the top-down pivot D+_0 of T - I is exactly 0, and
        # counts as -pivmin
        d, e = np.array([[1.0, 1.0, 1.0]]), np.array([[1.0, 1.0]])
        levels = np.array([[1.0 - math.sqrt(2.0), 1.0, 1.0 + math.sqrt(2.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = eigensolver._inverse_iteration(d, e, levels, None)[0]
        assert pivoted_factorizations == []
        v = Z[:, 1] * np.sign(Z[0, 1])
        assert np.max(np.abs(v - np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0))) <= 1e-15
        assert np.max(np.abs(Z.T @ Z - np.eye(3))) <= 1e-15

    @pytest.mark.parametrize("seed", range(4))
    def test_clusters_without_groups(self, seed, pivoted_factorizations):
        # five clusters of four eigenvalues each, with relative gaps of 1e-11
        # to 1e-4 inside them: every vector comes from the twisted kernel, and
        # each cluster's QR orthonormalizes it
        rng = np.random.default_rng(seed)
        gaps = 10.0 ** np.array([-11.0, -9.0, -7.0, -5.0, -4.0])
        levels = (np.linspace(-1.0, 1.0, 5)[:, np.newaxis] + gaps[:, np.newaxis] * np.arange(4)).ravel()
        assert_stack_contracts(np.array([with_levels(rng.permutation(levels), rng) for _ in range(3)]))
        assert pivoted_factorizations == []


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
        values = eigendecompose(stack).eigenvalues
    assert spy.call_count == 1
    with row_by_row():
        scalar = eigendecompose(stack).eigenvalues
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
        # two leaves a matrix, 128 rows in all: matrix 41's leaves take sweeps;
        # only the vectors path halves its tridiagonals into leaves
        monkeypatch.setattr(eigensolver, "LEAF", 4)
        stack = np.array([np.diag(np.arange(8.0)) + 0j] * (eigensolver.LOCKSTEP // 2))
        stack[41] = random_hermitian(8, 871)
        monkeypatch.setattr(eigensolver, "MAX_SWEEPS_PER_DIM", 0)
        with pytest.raises(ConvergenceError, match="sweeps") as caught, lockstep_spy() as spy:
            eigendecompose(stack, want_vectors=True)
        assert spy.call_count == 1 and caught.value.index == 41

    def test_only_lanczos_starts_at_the_lowest_state(self):
        # below the threshold Lanczos starts from the state of lowest
        # diagonal, which helps a windowed scalar QL stop early; a lockstep
        # stack takes Householder, whose tridiagonal starts at row 0's entry
        # (each top scaled by powers of two, which keep the mantissa)
        H = np.diag([3.0, 1.0, 2.0]) + 0.1 * random_hermitian(3, 880)
        assert np.argmin(H.diagonal().real) == 1
        tridiagonal_tops = []
        solve = eigensolver._solve_tridiagonal

        def recorded(d, *args):
            tridiagonal_tops.append(d[0, 0])
            return solve(d, *args)

        with mock.patch.object(eigensolver, "_solve_tridiagonal", recorded):
            for count in (eigensolver.LOCKSTEP - 1, eigensolver.LOCKSTEP):
                eigendecompose(np.array([H] * count))
        lanczos, householder = tridiagonal_tops
        assert math.frexp(lanczos)[0] == math.frexp(H[1, 1].real)[0]
        assert math.frexp(householder)[0] == math.frexp(H[0, 0].real)[0]


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
    """Tridiagonals of more than LEAF rows, solved with eigenvectors: halved
    into leaves that QL and inverse iteration solve, and merged back through
    secular equations.  Without eigenvectors, one QL solves the whole
    tridiagonal."""

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
        # the tear at row 32 takes nothing off the diagonal, so the eigenvalues
        # are the halves' own, bit for bit; taking e off would move both by an
        # ulp.  The 64 rows take Householder, and each half, LEAF rows, takes
        # Lanczos; either keeps a real tridiagonal's bits (Lanczos' complex
        # products round some entries by an ulp).  Each half's diagonal
        # ascends, so solved alone its Lanczos starts at row 0, as Householder
        rng = np.random.default_rng(69)
        d = np.concatenate([np.sort(rng.uniform(-1.0, 1.0, 32)), np.sort(rng.uniform(1.0, 3.0, 32))])
        d[31] = d[32] = 1.0
        e = rng.uniform(0.1, 1.0, 63)
        e[31] = sys.float_info.epsilon
        H = tridiagonal(d, e).real
        halves = np.sort(np.concatenate([eigendecompose(H[:32, :32]).eigenvalues,
                                         eigendecompose(H[32:, 32:]).eigenvalues]))
        assert np.array_equal(eigendecompose(H, want_vectors=True).eigenvalues, halves)
        # the values-only solve's one QL splits at the zeroed coupling as well
        assert np.array_equal(eigendecompose(H).eigenvalues, halves)

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
        # solve takes the sweeps of the two blocks solved alone; so does the
        # values-only solve, whose one QL ends a block at the zero coupling
        H = block_diagonal((32, 32), 63)
        # each block's basis in ascending order of its diagonal, so that
        # Householder on the whole starts each block at its lowest state, as
        # Lanczos does on the block alone
        order = np.concatenate([np.argsort(H.diagonal()[:32].real),
                                32 + np.argsort(H.diagonal()[32:].real)])
        H = H[np.ix_(order, order)]
        alone = sum(eigendecompose(H[s, s]).sweeps for s in (slice(0, 32), slice(32, 64)))
        assert eigendecompose(H, want_vectors=True).sweeps == alone
        assert eigendecompose(H).sweeps == alone

    def test_split_leaf_orthonormality(self, monkeypatch):
        # 60 rows of three eigenvalues, each repeated about 20 times, halve
        # into two leaves of 30 rows whose own eigenvalues nearly coincide;
        # the vectors measure 1.4e-14 from orthonormal (3.1e-14 at worst over
        # 21 seeds), inside the contract that assert_contracts checks
        monkeypatch.setattr(eigensolver, "LEAF", 48)
        rng = np.random.default_rng(13)
        U, _ = np.linalg.qr(rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60)))
        H = U @ np.diag(rng.choice([-1.0, 0.5, 2.0], size=60)) @ U.conj().T
        assert_contracts((H + H.conj().T) / 2)

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
    def test_secular_cap_names_its_matrix(self, monkeypatch):
        # matrix 0 splits exactly at its tear and needs no secular equation;
        # matrix 1's first secular equation does not converge at the cap (a
        # values-only solve has no secular equation)
        monkeypatch.setattr(divide, "MAX_SECULAR_ITERATIONS", 0)
        stack = np.array([block_diagonal((32, 32), 66), random_hermitian(64, 67)])
        with pytest.raises(ConvergenceError, match="secular") as caught:
            eigendecompose(stack, want_vectors=True)
        assert caught.value.index == 1

    @pytest.mark.usefixtures("halves")
    @pytest.mark.parametrize("want_vectors", [True, False])
    def test_leaf_sweep_cap_names_its_matrix(self, monkeypatch, want_vectors):
        # the diagonal matrix 0 takes no sweeps; matrix 1's leaves do, and so
        # does its whole tridiagonal without eigenvectors
        monkeypatch.setattr(eigensolver, "MAX_SWEEPS_PER_DIM", 0)
        stack = np.array([np.diag(np.arange(64.0)) + 0j, random_hermitian(64, 68)])
        with pytest.raises(ConvergenceError, match="sweeps") as caught:
            eigendecompose(stack, want_vectors=want_vectors)
        assert caught.value.index == 1

    @pytest.mark.parametrize("build", [lambda: random_hermitian(100, 69),
                                       lambda: build_block(ModelParams(3, 5, 1.3, 2.0, 0.7), 10).matrix,
                                       lambda: build_block(ModelParams(4, 4, 1.0, 2.0, 1.0), 12).matrix],
                             ids=["d100", "d243", "d256"])
    def test_values_only_is_one_leaf(self, build):
        # without eigenvectors no size is halved: no leaf takes inverse
        # iteration, and no level is merged
        H = build()
        assert H.shape[0] > eigensolver.LEAF
        forbidden = mock.Mock(side_effect=AssertionError("the values-only path reached the tree"))
        with mock.patch.object(eigensolver, "_inverse_iteration", forbidden), \
                mock.patch.object(divide, "_merge_level", forbidden):
            values = eigendecompose(H).eigenvalues
        ref = np.linalg.eigvalsh(H)
        assert np.max(np.abs(values - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_contracts_at_729_rows(self):
        # F = 3, k = 6, n = 12: with eigenvectors, 729 rows halve four times
        # into leaves of 45 and 46 rows, merged back over four levels; values
        # only, one QL on all 729 rows
        H = build_block(ModelParams(3, 6, 1.3, 2.0, 0.7), 12).matrix
        assert H.shape == (729, 729)
        with mock.patch.object(divide, "_merge_level", wraps=divide._merge_level) as spy:
            assert_contracts(H)
        assert spy.call_count == 4


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
        # more than LEAF rows: Householder
        def broken(A, want_vectors):
            n = A.shape[-1]
            return np.full(A.shape[:-1], np.nan), np.zeros(A.shape[:-2] + (n - 1,)), None
        monkeypatch.setattr(eigensolver, "_tridiagonalize", broken)
        with pytest.raises(NumericalError, match="Householder tridiagonalization"):
            eigendecompose(np.eye(eigensolver.LEAF + 1))

    def test_non_finite_lanczos_named(self, monkeypatch):
        # up to LEAF rows: Lanczos, which names the matrix of the stack
        def broken(A):
            G, n = A.shape[:2]
            d = np.zeros((G, n))
            d[1] = np.nan
            return d, np.zeros((G, n - 1)), np.zeros_like(A)
        monkeypatch.setattr(eigensolver, "_lanczos", broken)
        with pytest.raises(NumericalError, match="Lanczos tridiagonalization") as info:
            eigendecompose(np.array([np.eye(3)] * 3), want_vectors=True)
        assert info.value.index == 1


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
    values = eigendecompose(H).eigenvalues
    assert np.array_equal(values, spec.eigenvalues)
    assert spec.eigenvectors.shape == (n, n)
    if n == 0:
        return
    V, w = spec.eigenvectors, spec.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert max_residual(H, V, w) <= residual_bound(H)
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= RESIDUAL_RTOL


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class TestRealInput:
    """A real matrix or stack is taken as real symmetric, solved in float64
    throughout, and gets real eigenvectors."""

    @pytest.mark.parametrize("window", [math.inf, 1.5], ids=["full", "window"])
    @pytest.mark.parametrize("shape", [(5,), (eigensolver.LEAF,), (eigensolver.LEAF + 37,),
                                       (3, 12), (2, eigensolver.LEAF + 9)],
                             ids=["lone", "lone_leaf", "lone_tree", "stack", "stack_tree"])
    def test_contracts(self, shape, window):
        *stacked, n = shape
        H = np.array([random_symmetric(n, 940 + g) for g in range(stacked[0] if stacked else 1)])
        spec = eigendecompose(H if stacked else H[0], want_vectors=True, window=window)
        assert spec.eigenvectors.dtype == np.float64
        values = np.atleast_2d(spec.eigenvalues)
        vectors = spec.eigenvectors if stacked else spec.eigenvectors[np.newaxis]
        for M, w, V, c in zip(H, values, vectors, kept_columns(vectors)):
            if window == math.inf or n > eigensolver.LEAF:
                assert c == n  # a tree ignores the window
            assert max_residual(M, V[:, :c], w[:c]) <= residual_bound(M)
            assert np.max(np.abs(V[:, :c].T @ V[:, :c] - np.eye(c))) <= RESIDUAL_RTOL
            finite = np.isfinite(w)
            assert np.max(np.abs(w[finite] - np.linalg.eigvalsh(M)[finite])) <= 1e-12 * n

    def test_matches_the_complex_solve(self):
        # the same matrix as complex input: the same levels to rounding, and
        # the same vectors up to each one's sign
        H = random_symmetric(40, 950)
        real = eigendecompose(H, want_vectors=True)
        complex_ = eigendecompose(H.astype(complex), want_vectors=True)
        assert complex_.eigenvectors.dtype == np.complex128
        assert np.max(np.abs(real.eigenvalues - complex_.eigenvalues)) <= 1e-13
        overlap = np.abs(np.sum(real.eigenvectors * complex_.eigenvectors.conj(), axis=0))
        assert np.max(np.abs(overlap - 1.0)) <= 1e-10

    def test_integer_input_is_float64(self):
        spec = eigendecompose(np.array([[2, 1], [1, 2]]), want_vectors=True)
        assert spec.eigenvalues.tolist() == pytest.approx([1.0, 3.0], abs=1e-15)
        assert spec.eigenvectors.dtype == np.float64

    def test_non_symmetric_refused(self):
        H = random_symmetric(6, 951)
        H[4, 1] += 1e-6
        with pytest.raises(ParameterError, match="not Hermitian"):
            eigendecompose(H)
        with pytest.raises(ParameterError, match="not Hermitian"):
            eigendecompose(np.stack([random_symmetric(6, 952), H]), want_vectors=True)

    def test_no_complex_work(self, monkeypatch):
        # Householder's workspace, its phases and the back-transform stay
        # real, and so do Lanczos' basis and its product
        dtypes = []
        tridiagonalize, back_transform = eigensolver._tridiagonalize, eigensolver._back_transform

        def reduce(A, want_vectors):
            d, e, reflectors = tridiagonalize(A, want_vectors)
            dtypes.extend([A.dtype, reflectors[0].dtype] + [V.dtype for _, V in reflectors[1]])
            return d, e, reflectors

        def transform(reflectors, Z):
            X = back_transform(reflectors, Z)
            dtypes.append(X.dtype)
            return X

        def lanczos(A):
            d, e, Q = lanczos_(A)
            dtypes.extend([A.dtype, Q.dtype])
            return d, e, Q

        lanczos_ = eigensolver._lanczos
        monkeypatch.setattr(eigensolver, "_tridiagonalize", reduce)
        monkeypatch.setattr(eigensolver, "_back_transform", transform)
        monkeypatch.setattr(eigensolver, "_lanczos", lanczos)
        eigendecompose(random_symmetric(eigensolver.LEAF + 37, 953), want_vectors=True)
        eigendecompose(np.array([random_symmetric(eigensolver.LEAF + 9, 954)] * 2), want_vectors=True)
        eigendecompose(np.array([random_symmetric(40, 955)] * 2), want_vectors=True)
        assert len(dtypes) > 6 and set(dtypes) == {np.dtype(np.float64)}
        spec = eigendecompose(random_symmetric(40, 956), want_vectors=True)
        assert spec.eigenvectors.dtype == np.float64


@given(hermitian_cases())
@settings(max_examples=40, deadline=None)
def test_real_contracts_over_full_range(H):
    # the real part of a Hermitian matrix is real symmetric
    H = H.real
    n = H.shape[0]
    spec = eigendecompose(H, want_vectors=True)
    assert np.array_equal(eigendecompose(H).eigenvalues, spec.eigenvalues)
    assert spec.eigenvectors.shape == (n, n) and spec.eigenvectors.dtype == np.float64
    if n == 0:
        return
    V, w = spec.eigenvectors, spec.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert max_residual(H, V, w) <= residual_bound(H)
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= RESIDUAL_RTOL


def lanczos_factors(stack):
    """(A, T, U) for each matrix of a stack: A scaled by the power of two of
    its largest entry, as eigendecompose scales it, and the tridiagonal T and
    basis U (q_j as column j) of eigensolver._lanczos on that stack."""
    stack = np.asarray(stack)
    scale = np.ldexp(1.0, -np.frexp(np.max(np.abs(stack), axis=(-2, -1)))[1])
    A = stack * scale[:, np.newaxis, np.newaxis]
    d, e, Q = eigensolver._lanczos(A.copy())
    T = np.zeros(A.shape)
    n = A.shape[-1]
    T[:, np.arange(n), np.arange(n)] = d
    T[:, np.arange(1, n), np.arange(n - 1)] = T[:, np.arange(n - 1), np.arange(1, n)] = e
    return A, T, Q.swapaxes(-1, -2)


def assert_lanczos_contracts(stack):
    """U is orthonormal within 4 n eps, and ||A U - U T|| within a few n eps of
    max|A| (below 1 once scaled): a restart drops a w of at most
    ROUNDING * n * eps."""
    A, T, U = lanczos_factors(stack)
    n = A.shape[-1]
    eps = sys.float_info.epsilon
    assert np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(n)), initial=0.0) <= 4 * n * eps
    assert np.max(np.abs(A @ U - U @ T), initial=0.0) <= 2 * eigensolver.ROUNDING * n * eps


def assert_one_is_alone(stack):
    """Each matrix solved as a stack of one has the bits of its lone solve,
    and its values-only eigenvalues those of the vectors path."""
    for H in stack:
        lone = eigendecompose(H, want_vectors=True)
        one = eigendecompose(H[np.newaxis], want_vectors=True)
        assert np.array_equal(one.eigenvalues[0], lone.eigenvalues)
        assert np.array_equal(one.eigenvectors[0], lone.eigenvectors)
        assert np.array_equal(eigendecompose(H).eigenvalues, lone.eigenvalues)


@pytest.fixture
def restarts(monkeypatch):
    """A list that counts the matrices of each Lanczos restart."""
    counted = []
    restart = eigensolver._restart

    def counting(Q, diag):
        counted.append(len(Q))
        return restart(Q, diag)

    monkeypatch.setattr(eigensolver, "_restart", counting)
    return counted


OMEGAS = np.logspace(-1.0, 2.0, 12)


def diagonal_stack():
    return np.array([np.diag(np.random.default_rng(g).permutation(9) - 4.5 + g) for g in range(3)])


def zero_coupling_stack():
    # two random blocks, each with states at both diagonal levels: the
    # Krylov space from the lowest state is invariant in that state's block,
    # its w rounding inside the block and exactly zero outside
    return np.array([block_diagonal((6, 6), seed).real + np.diag(np.arange(12) % 2 * 40.0)
                     for seed in (990, 992)])


#: Stacks whose Krylov spaces from the lowest state turn invariant before they span the basis.
INVARIANT_STACKS = {
    "f2_k3": lambda: np.array([build_block(ModelParams(2, 3, w, 20.0, 1.0), 6).matrix
                               for w in OMEGAS]),
    "f2_k3_real": lambda: np.array([build_block(ModelParams(2, 3, w, 20.0, 1.0), 6).matrix.real
                                    for w in OMEGAS]),
    "spin": lambda: np.array([build_higher_spin_block(ModelParams(3, 3, w, 3.0, 1.0), 4).matrix
                              for w in OMEGAS]),
    "diagonal": diagonal_stack,
    "zero_coupling": zero_coupling_stack,
}


def tiny_coupling(c, row):
    """A 4 x 4 matrix in ascending order whose row 3 couples to row `row` alone, by c."""
    H = np.diag([0.0, 1.0, 2.0, 3.0])
    H[0, 1] = H[1, 0] = 0.3 if row else 0.0
    H[1, 2] = H[2, 1] = 0.5
    H[3, row] = H[row, 3] = c
    return H


class TestLanczos:
    """Matrices of at most LEAF rows in stacks of fewer than LOCKSTEP are
    tridiagonalized by Lanczos from their basis state of lowest diagonal."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 27, eigensolver.LEAF])
    def test_basis_and_tridiagonal(self, n, dtype):
        stack = np.array([random_hermitian(n, 970 + g) for g in range(3)])
        assert_lanczos_contracts(stack.real if dtype == np.float64 else stack)

    @pytest.mark.parametrize("name", INVARIANT_STACKS)
    def test_restarts_on_invariant_subspaces(self, name, restarts):
        stack = INVARIANT_STACKS[name]()
        assert_lanczos_contracts(stack)
        assert sum(restarts) >= len(stack)
        assert_stack_contracts(stack)
        assert_one_is_alone(stack[:3])

    def test_diagonal_is_exact(self, restarts):
        # every w is exactly zero: each step restarts at the unvisited basis
        # state of lowest diagonal, the first of the two at 2.0, so T is the
        # sorted diagonal, U the permutation that sorts it, and QL takes no
        # sweep
        H = np.diag([3.0, -1.0, 2.0, 0.5, 2.0])
        order = [1, 3, 2, 4, 0]
        A, T, U = lanczos_factors(H[np.newaxis])
        assert np.array_equal(T[0], A[0][np.ix_(order, order)])
        assert np.array_equal(U[0], np.eye(5)[:, order])
        assert sum(restarts) == 4
        spec = eigendecompose(H, want_vectors=True)
        assert spec.sweeps == 0 and spec.eigenvalues.tolist() == [-1.0, 0.5, 2.0, 2.0, 3.0]

    @pytest.mark.parametrize("c", [5e-161, 1e-310])
    def test_tiny_coupling_at_step_zero_is_kept(self, c):
        # step 0's w is the column of A's lowest state, row 0 here, exact: a
        # coupling whose square underflows is normalized in units of its
        # largest entry, so q_1 has unit norm and T keeps the coupling (scaled
        # by 2**-2) for QL's split
        H = tiny_coupling(c, 0)
        A, T, U = lanczos_factors(H[np.newaxis])
        assert T[0, 1, 0] == A[0, 3, 0] > 0.0
        assert abs(np.linalg.norm(U[0, :, 1]) - 1.0) <= sys.float_info.epsilon
        assert_lanczos_contracts(H[np.newaxis])
        assert_contracts(H)
        assert_contracts(H + 0j)

    @pytest.mark.parametrize("c", [5e-161, 1e-310])
    def test_tiny_coupling_later_restarts(self, c, restarts):
        # at step 1 the same coupling is below the rounding floor: T splits
        H = tiny_coupling(c, 1)
        _, T, _ = lanczos_factors(H[np.newaxis])
        assert sum(restarts) == 1 and np.count_nonzero(np.diag(T[0], -1)) == 2
        assert_lanczos_contracts(H[np.newaxis])
        assert_contracts(H)

    @pytest.mark.parametrize("g", [1e-160, 1e-310])
    def test_blocks_at_tiny_coupling(self, g):
        # blocks whose hops are far below their diagonal: every step-0
        # coupling is tiny, and its q_1 must keep unit norm
        stack = np.array([build_block(ModelParams(3, 2, w, 20.0, g), 4).matrix for w in OMEGAS])
        assert_lanczos_contracts(stack)
        assert_stack_contracts(stack)
        assert_stack_contracts(stack.real)
        for H, w in zip(stack, eigendecompose(stack).eigenvalues):
            ref = np.linalg.eigvalsh(H)
            assert np.max(np.abs(w - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_step_zero_leaves_the_split_to_ql(self, ulps):
        # the 2 x 2 of TestRootFreeQL.test_deflation_boundary: Lanczos keeps
        # its coupling whether or not QL's split test drops it
        boundary = 0.75 * sys.float_info.epsilon
        e = float(np.nextafter(boundary, np.inf if ulps > 0 else 0.0)) if ulps else boundary
        _, T, _ = lanczos_factors(np.array([[[0.5, e], [e, 0.25]]]))
        assert T[0, 1, 0] == e

    def test_calls_no_linalg(self):
        stacks = [np.array([random_hermitian(n, 980 + n)] * 2) for n in (1, 5, 30)]
        stacks += [build() for build in INVARIANT_STACKS.values()]
        with contextlib.ExitStack() as patches:
            for name in dir(np.linalg):
                if not name.startswith("_") and inspect.isfunction(getattr(np.linalg, name)):
                    patches.enter_context(mock.patch.object(
                        np.linalg, name, side_effect=AssertionError(f"np.linalg.{name} called")))
            for stack in stacks:
                eigensolver._lanczos(stack.copy())
