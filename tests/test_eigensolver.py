import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermi_jc import ParameterError, cluster_eigenvalues, eigendecompose, eigenvalues_only
from parafermi_jc.eigensolver import RESIDUAL_RTOL


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2


def residual_bound(H):
    return RESIDUAL_RTOL * (1.0 + float(np.max(np.abs(H))) * H.shape[0])


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


class TestClustering:
    def test_exact_groups(self):
        values = np.array([1.0, 1.0 + 1e-12, 2.0, 5.0, 5.0, 5.0 + 1e-10])
        clusters = cluster_eigenvalues(values)
        assert [m for _, m in clusters] == [2, 1, 3]

    def test_scale_aware_threshold(self):
        # gap 5e-7 at magnitude 1e2 is below 1e-8*(1+|v|) ~ 1e-6: one cluster
        values = np.array([100.0, 100.0 + 5e-7])
        assert [m for _, m in cluster_eigenvalues(values)] == [2]
        # the same gap at magnitude 1e-2 is resolved as two clusters
        values = np.array([0.01, 0.01 + 5e-7])
        assert [m for _, m in cluster_eigenvalues(values)] == [1, 1]

    def test_empty(self):
        assert cluster_eigenvalues(np.array([])) == []
