import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermi_jc import (
    BlockHamiltonian,
    Deformation,
    DeformationError,
    ModelParams,
    NumericalError,
    ParameterError,
    build_block,
    build_higher_spin_block,
    build_mode_matrix,
    eigendecompose,
    enumerate_block_basis,
    weight,
)
from parafermi_jc import blocks
from parafermi_jc.algebra import root_of_unity_power
from parafermi_jc.blocks import build_full_truncated
from parafermi_jc.deformations import evaluate


def params(F=2, k=1, omega=1.0, delta=1.0, g=1.0, **kw):
    return ModelParams(F, k, omega, delta, g, **kw)


def hermiticity_defect(H):
    return float(np.max(np.abs(H - H.conj().T)))


def reference_block(p, n, spin=False):
    """The block H_n by a loop over the basis states and their hops, with the
    same finiteness check: the reference for the index-array assembly's bits,
    and for the first argument of phi that fails."""
    basis = enumerate_block_basis(p.F, p.k, n)
    index = {cfg: i for i, cfg in enumerate(basis)}
    H = np.zeros((len(basis), len(basis)), dtype=np.complex128)
    for cfg, col in index.items():
        W = weight(cfg)
        H[col, col] = p.omega * evaluate(p.deformation, n - W) + p.delta * W
        hop_modes = [l for l in range(p.k) if cfg[l] > 0]
        if not hop_modes:
            continue
        amp_base = p.g * math.sqrt(evaluate(p.deformation, n + 1 - W))
        for l in hop_modes:
            row = index[cfg[:l] + (cfg[l] - 1,) + cfg[l + 1:]]
            factor = (math.sqrt(cfg[l] * (p.F - cfg[l])) if spin
                      else root_of_unity_power(p.F, -sum(cfg[l + 1:])))
            H[row, col] += amp_base * factor
            H[col, row] += amp_base * factor.conjugate()
    bad = ~np.isfinite(H)
    if bad.any():
        relation = ("diagonal omega * phi(n - W) + delta * W" if bad.diagonal().any()
                    else "hop g * sqrt(phi(n + 1 - W))")
        raise NumericalError(f"the block's {relation} leaves the float range "
                             f"(F={p.F}, k={p.k}, n={n})")
    return tuple(basis), H


def outcome(build, *args):
    """(basis, matrix bytes) of a build, or (exception type, message) if it raises."""
    try:
        result = build(*args)
    except (NumericalError, DeformationError) as exc:
        return type(exc), str(exc)
    if isinstance(result, BlockHamiltonian):
        return result.basis, result.matrix.tobytes()
    return result[0], result[1].tobytes()


DEFORMATIONS = {
    "undeformed": Deformation.undeformed(),
    "linear": Deformation.linear(0.7),
    "qexp": Deformation.q_exp(0.3),
    "qsym": Deformation.q_sym(1.7),
    # negative past x = 6, so the larger blocks raise DeformationError
    "parafermionic": Deformation.parafermionic(6),
    "custom": Deformation.custom(lambda x: math.log1p(x) * (1.0 - 0.3 * x)),
}


class TestAssemblyMatchesLoop:
    """The index-array assembly against the per-hop loop: the same bytes, and
    the same exception naming the same x."""

    @pytest.mark.parametrize("spin", [False, True], ids=["parafermion", "higher_spin"])
    @pytest.mark.parametrize("kind", sorted(DEFORMATIONS))
    def test_bytes_match_the_loop(self, kind, spin):
        build = build_higher_spin_block if spin else build_block
        raised = 0
        for F in range(2, 6):
            for k in range(1, 5):
                p = params(F=F, k=k, omega=1.3, delta=-0.7, g=1.1,
                           deformation=DEFORMATIONS[kind])
                for n in range(k * (F - 1) + 2):
                    expected = outcome(reference_block, p, n, spin)
                    assert outcome(build, p, n) == expected, (F, k, n)
                    raised += isinstance(expected[0], type)
        # only the deformations that go negative raise
        assert (raised > 0) == (kind in ("parafermionic", "custom"))

    @pytest.mark.parametrize("spin", [False, True], ids=["parafermion", "higher_spin"])
    def test_signed_zeros_match_the_loop(self, spin):
        # g = -0.0 and phi = 0 make zero hops of either sign
        build = build_higher_spin_block if spin else build_block
        for g in (0.0, -0.0):
            for omega, delta in ((0.0, -0.0), (-0.0, 0.0), (-1.0, 2.0)):
                p = params(F=3, k=3, omega=omega, delta=delta, g=g)
                for n in (0, 1, 4, 7):
                    assert outcome(build, p, n) == outcome(reference_block, p, n, spin)

    def test_modes_past_int64_codes(self):
        # 3**45 > 2**62: the codes are Python ints
        p = params(F=3, k=45, g=0.9, deformation=Deformation.q_exp(0.2))
        assert outcome(build_block, p, 2) == outcome(reference_block, p, 2)

    @pytest.mark.parametrize("F,k,n,phi,error", [
        # sinh(700 x) overflows at x = 2 and 3; the loop meets phi(n) = phi(3) first
        (2, 1, 3, Deformation.q_exp(700.0), NumericalError),
        (3, 2, 3, Deformation.q_exp(700.0), NumericalError),
        (4, 3, 5, Deformation.q_exp(300.0), NumericalError),
        # phi(x) = x (3 - x) is negative from x = 4 on
        (3, 1, 5, Deformation.parafermionic(3), DeformationError),
        (2, 3, 6, Deformation.parafermionic(3), DeformationError),
        # phi(n - W) leaves the float range on the diagonal, then in a hop
        (2, 1, 5, Deformation.linear(1e308), NumericalError),
        (3, 2, 4, Deformation.linear(1e300), NumericalError),
    ])
    @pytest.mark.parametrize("spin", [False, True], ids=["parafermion", "higher_spin"])
    def test_same_error_as_the_loop(self, F, k, n, phi, error, spin):
        p = params(F=F, k=k, omega=10.0, g=1e308, deformation=phi)
        expected = outcome(reference_block, p, n, spin)
        assert expected[0] is error
        assert outcome(build_higher_spin_block if spin else build_block, p, n) == expected

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_phi_of_n_plus_one_never_evaluated(self, n):
        # phi(n + 1) would raise, but no hop leaves the state of weight 0
        def phi(x):
            if x > n:
                raise OverflowError
            return x
        p = params(F=3, k=2, deformation=Deformation.custom(phi))
        assert outcome(reference_block, p, n)[0] == tuple(enumerate_block_basis(3, 2, n))
        assert outcome(build_block, p, n) == outcome(reference_block, p, n)
        assert outcome(build_higher_spin_block, p, n) == outcome(reference_block, p, n, True)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ModelParams(1, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            ModelParams(2, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            ModelParams(2, 1, 1.0, 1.0, 1.0, hbar=0.0)
        with pytest.raises(ParameterError):
            ModelParams(2, 1, 1.0, 1.0, 1.0, beta=-1.0)
        with pytest.raises(ParameterError, match="finite"):
            ModelParams(2, 1, 1.0, 1.0, 1.0, hbar=math.inf)
        with pytest.raises(ParameterError):
            ModelParams(2, 1, 1.0, 1.0, 1.0, deformation="qexp")
        for F, k in ((3.5, 2), (3, 1.5), (1.0, 1), (3, 0.0), (math.inf, 2), (3, math.nan),
                     (-math.inf, 1), (3, math.inf)):
            with pytest.raises(ParameterError, match="must be an integer"):
                ModelParams(F, k, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("F,k", [(3.0, 2), (3, 2.0), (np.float64(3.0), np.int64(2))])
    def test_integral_float_order_and_modes_stored_as_int(self, F, k):
        # an integral F or k is stored and used as an int, as an integral n already is
        p = ModelParams(F, k, 1.0, 1.0, 1.0)
        assert type(p.F) is int and type(p.k) is int and (p.F, p.k) == (3, 2)
        block, reference = build_block(p, 3), build_block(ModelParams(3, 2, 1.0, 1.0, 1.0), 3)
        assert block.basis == reference.basis
        assert np.array_equal(block.matrix, reference.matrix)

    def test_with_omega(self):
        p = params().with_omega(7.0)
        assert p.omega == 7.0 and p.delta == 1.0


class TestBuildBlock:
    def test_hand_checked_two_by_two(self):
        block = build_block(params(), 1)
        assert block.basis == ((0,), (1,))
        assert np.allclose(block.matrix, [[1, 1], [1, 1]], atol=1e-14)
        assert eigendecompose(block.matrix).eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_interaction_off_is_diagonal(self):
        p = params(F=3, k=2, omega=1.3, delta=0.4, g=0.0)
        block = build_block(p, 3)
        off = block.matrix - np.diag(np.diag(block.matrix))
        assert np.max(np.abs(off)) == 0.0
        for i, cfg in enumerate(block.basis):
            W = weight(cfg)
            assert block.matrix[i, i].real == pytest.approx(1.3 * (3 - W) + 0.4 * W, abs=1e-14)

    def test_f4_k3_n5_is_44_dimensional(self):
        block = build_block(params(F=4, k=3), 5)
        assert block.dim == 44
        assert block.matrix.shape == (44, 44)

    def test_saturated_blocks_share_dimension(self):
        p = params(F=3, k=2)
        cap = 2 * 2
        assert build_block(p, cap).dim == build_block(p, cap + 1).dim == 9

    def test_linear_hbar_one_equals_undeformed(self):
        p1 = params(F=3, k=2, deformation=Deformation.undeformed())
        p2 = params(F=3, k=2, deformation=Deformation.linear(1.0))
        assert np.array_equal(build_block(p1, 3).matrix, build_block(p2, 3).matrix)

    def test_single_mode_blocks_are_real_symmetric(self):
        for F in (2, 3, 4):
            block = build_block(params(F=F, omega=0.7, delta=2.0, g=1.1), F)
            assert np.max(np.abs(block.matrix.imag)) == 0.0
            assert np.all(np.diag(block.matrix, -1).real >= 0)

    def test_non_hermitian_matrix_rejected(self):
        basis = tuple(enumerate_block_basis(2, 1, 1))
        with pytest.raises(ParameterError, match="not Hermitian"):
            BlockHamiltonian(1, basis, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_matrix_immutable(self):
        block = build_block(params(), 1)
        with pytest.raises(ValueError):
            block.matrix[0, 0] = 9.0

    def test_view_taken_before_construction_cannot_change_the_block(self):
        # the block keeps a copy of its own, so a writeable view of the
        # caller's array leaves the checked matrix Hermitian
        H = np.eye(2, dtype=complex)
        view = H[:]
        block = BlockHamiltonian(0, ((0,), (1,)), H)
        view[0, 1] = 5.0
        assert np.array_equal(block.matrix, np.eye(2))
        assert not block.matrix.flags.writeable and block.matrix.dtype == np.complex128

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda b: pickle.loads(pickle.dumps(b))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_duplicated_block_keeps_a_read_only_matrix(self, duplicate):
        # pickle restores arrays writeable; a duplicate is built by the
        # constructor instead, so its matrix is its own, read-only and checked
        block = build_block(params(), 2)
        twin = duplicate(block)
        assert np.array_equal(twin.matrix, block.matrix) and twin.n == block.n
        assert twin.basis == block.basis and not twin.matrix.flags.writeable
        with pytest.raises(ValueError):
            twin.matrix[0, 0] = 9.0

    def test_row_limit_admits_the_limit_and_refuses_a_row_more(self, monkeypatch):
        # F=2, k=2 has d = 3 at n = 1 and d = 4 at n = 2; the cache is cleared
        # so that both blocks meet the patched limit
        monkeypatch.setattr(blocks, "MAX_BLOCK_ROWS", 3)
        blocks._hops.cache_clear()
        assert build_block(params(k=2), 1).dim == 3
        with pytest.raises(ParameterError,
                           match=r"^block \(F=2, k=2, n=2\) has 4 rows, above the limit of 3$"):
            build_block(params(k=2), 2)
        with pytest.raises(ParameterError, match="above the limit"):
            build_higher_spin_block(params(k=2), 2)

    def test_deformation_contract_error_propagates(self):
        # boson occupation exceeds the support of the parafermionic-oscillator
        # structure function, whose values then go negative
        p = params(F=3, k=1, deformation=Deformation.parafermionic(3))
        with pytest.raises(DeformationError):
            build_block(p, 5)

    @pytest.mark.parametrize("p,relation", [
        (params(omega=10.0, deformation=Deformation.linear(1e308)), "diagonal"),
        (params(F=3, g=1e308, deformation=Deformation.linear(1e300)), "hop"),
    ], ids=["diagonal", "hop"])
    def test_entry_beyond_float_range_named(self, p, relation):
        # phi(n - W) = 5e308 and 3e300 * g overflow to inf; the relation is
        # named instead of a generic non-finite matrix
        with pytest.raises(NumericalError, match=rf"block's {relation} .* \(F={p.F}, k=1, n=5\)"):
            build_block(p, 5)

    @given(
        st.integers(2, 4), st.integers(1, 3), st.integers(0, 8),
        st.floats(0.1, 8.0), st.floats(0.0, 8.0), st.floats(0.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_hermitian_by_assembly(self, F, k, n, omega, delta, g):
        block = build_block(ModelParams(F, k, omega, delta, g), n)
        assert hermiticity_defect(block.matrix) <= 1e-12 * max(1.0, np.max(np.abs(block.matrix)))
        assert block.dim == len(enumerate_block_basis(F, k, n))


class TestHigherSpinBlock:
    def test_f2_k1_same_matrix_as_parafermion(self):
        # single-mode F=2: the parafermion ladder and the spin-1/2 ladder are
        # the same matrix (the equivalence is k=1 only; for k >= 2 the
        # parafermion hops carry sign phases with gauge-invariant content)
        for n in (1, 2, 4):
            p = params(F=2, k=1, omega=0.9, delta=1.7, g=0.8)
            assert np.allclose(
                build_higher_spin_block(p, n).matrix, build_block(p, n).matrix, atol=1e-14
            )

    def test_f3_hops_scale_by_sqrt2(self):
        p = params(F=3, k=1, omega=1.1, delta=2.3, g=0.7)
        spin = build_higher_spin_block(p, 4).matrix
        para = build_block(p, 4).matrix
        assert np.allclose(np.diag(spin), np.diag(para), atol=1e-14)
        off = np.diag(para, -1)
        assert np.allclose(np.diag(spin, -1), math.sqrt(2) * off, atol=1e-13)

    def test_real_symmetric(self):
        block = build_higher_spin_block(params(F=4, k=2, g=1.3), 5)
        assert np.max(np.abs(block.matrix.imag)) == 0.0
        assert hermiticity_defect(block.matrix) == 0.0

    def test_g_zero_diagonal_matches(self):
        p = params(F=4, k=2, g=0.0)
        assert np.array_equal(build_higher_spin_block(p, 3).matrix, build_block(p, 3).matrix)


class TestFullTruncated:
    @pytest.mark.parametrize("F,k", [(2, 2), (3, 2)])
    def test_blocks_embedded_in_full_spectrum(self, F, k):
        p = params(F=F, k=k, omega=0.8, delta=1.9, g=0.6)
        n_max = k * (F - 1) + 4
        H, labels = build_full_truncated(p, n_max)
        full = np.sort(eigendecompose(H).eigenvalues)
        remaining = list(full)
        for n in range(0, n_max):
            for value in eigendecompose(build_block(p, n).matrix).eigenvalues:
                idx = int(np.argmin(np.abs(np.array(remaining) - value)))
                assert abs(remaining[idx] - value) <= 1e-9 * (1 + abs(value))
                remaining.pop(idx)

    def test_commutes_with_total_number(self):
        p = params(F=2, k=2, omega=0.8, delta=1.9, g=0.6)
        n_max = 6
        H, labels = build_full_truncated(p, n_max)
        ntot = np.diag([occ + weight(cfg) for occ, cfg in labels]).astype(complex)
        comm = H @ ntot - ntot @ H
        assert np.max(np.abs(comm)) <= 1e-12 * max(1.0, np.max(np.abs(H)))

    def test_g_zero_full_matrix_diagonal(self):
        p = params(F=2, k=2, g=0.0)
        H, _ = build_full_truncated(p, 4)
        assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0.0

    def test_labels_and_dimensions(self):
        p = params(F=2, k=2)
        H, labels = build_full_truncated(p, 3)
        assert H.shape == (16, 16)
        assert labels[0] == (0, (0, 0))
        assert len(labels) == 16

    def test_n_max_lower_bound(self):
        with pytest.raises(ParameterError):
            build_full_truncated(params(F=3, k=2), 3)

    def test_block_of_full_matches_block_builder(self):
        # states with total number n <= n_max appear with identical couplings
        p = params(F=2, k=2, omega=0.7, delta=1.2, g=0.9)
        n_max, n = 6, 3
        H, labels = build_full_truncated(p, n_max)
        pick = [i for i, (occ, cfg) in enumerate(labels) if occ + weight(cfg) == n]
        sub = H[np.ix_(pick, pick)]
        sub_labels = [labels[i][1] for i in pick]
        block = build_block(p, n)
        order = [sub_labels.index(cfg) for cfg in block.basis]
        assert np.allclose(sub[np.ix_(order, order)], block.matrix, atol=1e-13)


def test_mode_matrix_consistency_with_block_couplings():
    # interaction assembled from explicit mode matrices must reproduce the
    # block hops, tying the two construction paths together
    F, k, n = 3, 2, 2
    p = params(F=F, k=k, omega=0.0, delta=0.0, g=1.0)
    block = build_block(p, n)
    basis_full = enumerate_block_basis(F, k, k * (F - 1))
    index_full = {cfg: i for i, cfg in enumerate(basis_full)}
    thetas = [build_mode_matrix(F, k, m) for m in range(1, k + 1)]
    expected = np.zeros_like(block.matrix)
    for a, bra in enumerate(block.basis):
        for b, ket in enumerate(block.basis):
            total = 0.0 + 0.0j
            for m, theta in enumerate(thetas, start=1):
                element = theta[index_full[bra], index_full[ket]]
                if element != 0:
                    total += math.sqrt(n + 1 - weight(ket)) * element
            expected[a, b] += total
            expected[b, a] += np.conj(total)
    assert np.allclose(block.matrix, expected, atol=1e-13)


@pytest.mark.parametrize("F,k,n", [(2, 1, 0), (2, 4, 3), (3, 3, 8), (4, 3, 5), (5, 2, 9)])
def test_reversal_data(F, k, n):
    # each state's mirror is the row of its occupations reversed, and e2 = sum_{s<t} i_s i_t
    hops = blocks._hops(F, k, n)
    for P, mirror, e2 in zip(hops.basis, hops.mirror.tolist(), hops.e2.tolist()):
        assert hops.basis[mirror] == P[::-1]
        assert e2 == sum(P[s] * P[t] for t in range(k) for s in range(t))
    assert not hops.mirror.flags.writeable and not hops.e2.flags.writeable
