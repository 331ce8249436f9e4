import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermi_jc import (
    Deformation,
    DeformationError,
    ParameterError,
    block_dimension,
    block_dimension_closed_form,
    build_mode_matrix,
    clifford_mode,
    clifford_triple,
    destruction_phase_exponent,
    enumerate_block_basis,
    number_operator_matrix,
    weight,
)
from parafermi_jc.algebra import root_of_unity_power

TOL = 1e-12


def maxabs(M):
    return float(np.max(np.abs(M))) if M.size else 0.0


class TestEnumeration:
    def test_vacuum_only(self):
        assert enumerate_block_basis(2, 1, 0) == [(0,)]

    def test_full_two_level(self):
        assert enumerate_block_basis(2, 1, 1) == [(0,), (1,)]

    def test_f4_k3_n2_count(self):
        assert len(enumerate_block_basis(4, 3, 2)) == 10

    def test_lexicographic_order(self):
        basis = enumerate_block_basis(3, 2, 4)
        assert basis == sorted(basis)
        assert basis[0] == (0, 0)

    def test_weight_cap(self):
        assert all(weight(p) <= 3 for p in enumerate_block_basis(4, 2, 3))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            enumerate_block_basis(1, 1, 0)
        with pytest.raises(ParameterError):
            enumerate_block_basis(2, 0, 0)
        with pytest.raises(ParameterError):
            enumerate_block_basis(2, 1, -1)

    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 14))
    @settings(max_examples=60, deadline=None)
    def test_length_matches_dimension(self, F, k, n):
        assert len(enumerate_block_basis(F, k, n)) == block_dimension(F, k, n)


class TestBlockDimension:
    def test_f4_k3_sequence(self):
        expected = [1, 4, 10, 20, 32, 44, 54, 60, 63, 64, 64]
        assert [block_dimension(4, 3, n) for n in range(11)] == expected

    def test_spot_values(self):
        assert block_dimension(4, 3, 5) == 44
        assert block_dimension(4, 3, 10) == 64
        assert block_dimension(3, 2, 0) == 1
        assert block_dimension(2, 1, 3) == 2

    def test_saturation_at_full_weight(self):
        for F, k in ((2, 3), (3, 2), (4, 2), (5, 4)):
            cap = k * (F - 1)
            for n in (*range(cap, cap + 4), 10**18):
                assert block_dimension(F, k, n) == F ** k

    def test_closed_form_agrees_with_convolution(self):
        for F in range(2, 6):
            for k in range(1, 5):
                for n in range(0, 3 * k * (F - 1) + 1):
                    assert block_dimension_closed_form(F, k, n) == block_dimension(F, k, n)


def destruction_phase(bra, m, ket, F):
    """Matrix element <bra| theta_m |ket> as a complex number; None when it vanishes."""
    exponent = destruction_phase_exponent(bra, m, ket, F)
    return None if exponent is None else root_of_unity_power(F, exponent)


class TestDestructionPhase:
    def test_single_mode_trivial_phase(self):
        assert destruction_phase_exponent((0,), 1, (1,), 2) == 0
        assert destruction_phase((0,), 1, (1,), 2) == pytest.approx(1.0)

    def test_two_mode_phase_from_reordering(self):
        # moving theta_1 left through theta_2^dag costs one conjugate q factor,
        # then the unit ladder annihilates against theta_1^dag: phase q^{-1}
        assert destruction_phase_exponent((0, 1), 1, (1, 1), 3) == 2
        value = destruction_phase((0, 1), 1, (1, 1), 3)
        assert value == pytest.approx(cmath.exp(-2j * cmath.pi / 3), abs=TOL)

    def test_wrong_entry_raised_is_absent(self):
        assert destruction_phase((1, 1), 1, (1, 2), 3) is None

    def test_same_config_is_absent(self):
        assert destruction_phase((1, 0), 1, (1, 0), 3) is None

    def test_invalid_mode_index(self):
        with pytest.raises(ParameterError):
            destruction_phase((0, 0), 3, (0, 1), 2)

    def test_invalid_occupation_rejected(self):
        with pytest.raises(ParameterError):
            destruction_phase((0,), 1, (2,), 2)

    @given(st.integers(2, 5), st.integers(2, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_phase_exponent_counts_trailing_occupation(self, F, k, data):
        ket = tuple(data.draw(st.integers(0, F - 1)) for _ in range(k))
        raised = [m for m in range(1, k + 1) if ket[m - 1] >= 1]
        if not raised:
            return
        m = data.draw(st.sampled_from(raised))
        bra = list(ket)
        bra[m - 1] -= 1
        value = destruction_phase(tuple(bra), m, ket, F)
        expected = cmath.exp(-2j * cmath.pi * sum(ket[m:]) / F)
        assert value == pytest.approx(expected, abs=TOL)


class TestModeMatrices:
    def test_f2_single_mode(self):
        theta = build_mode_matrix(2, 1, 1)
        expected = np.array([[0, 1], [0, 0]], dtype=complex)
        assert maxabs(theta - expected) <= TOL

    def test_nilpotency_order_three(self):
        theta = build_mode_matrix(3, 1, 1)
        assert maxabs(np.linalg.matrix_power(theta, 2)) > 0.5
        assert maxabs(np.linalg.matrix_power(theta, 3)) <= TOL

    @pytest.mark.parametrize("F,k", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_q_commutation(self, F, k):
        q = root_of_unity_power(F, 1)
        thetas = [build_mode_matrix(F, k, m) for m in range(1, k + 1)]
        for i, j in itertools.combinations(range(k), 2):
            assert maxabs(thetas[i] @ thetas[j] - q * thetas[j] @ thetas[i]) <= TOL

    @pytest.mark.parametrize("F,k", [(2, 2), (3, 2), (4, 3)])
    def test_nilpotency_every_mode(self, F, k):
        for m in range(1, k + 1):
            theta = build_mode_matrix(F, k, m)
            assert maxabs(np.linalg.matrix_power(theta, F)) <= TOL

    def test_mode_index_validated(self):
        with pytest.raises(ParameterError):
            build_mode_matrix(3, 2, 0)
        with pytest.raises(ParameterError):
            build_mode_matrix(3, 2, 3)


class TestNumberOperators:
    def test_diagonal_values(self):
        assert maxabs(number_operator_matrix(2, 1, 1) - np.diag([0, 1])) <= TOL
        assert maxabs(number_operator_matrix(3, 1, 1) - np.diag([0, 1, 2])) <= TOL

    @pytest.mark.parametrize("F,k", [(3, 2), (4, 2)])
    def test_summed_power_form(self, F, k):
        for i in range(1, k + 1):
            theta = build_mode_matrix(F, k, i)
            summed = sum(
                np.linalg.matrix_power(theta.conj().T, s) @ np.linalg.matrix_power(theta, s)
                for s in range(1, F)
            )
            assert maxabs(summed - number_operator_matrix(F, k, i)) <= TOL

    @pytest.mark.parametrize("F,k", [(3, 2), (2, 3)])
    def test_commutators(self, F, k):
        thetas = [build_mode_matrix(F, k, m) for m in range(1, k + 1)]
        numbers = [number_operator_matrix(F, k, i) for i in range(1, k + 1)]
        for i in range(k):
            for j in range(k):
                d_ij = 1.0 if i == j else 0.0
                comm = numbers[i] @ thetas[j] - thetas[j] @ numbers[i]
                assert maxabs(comm + d_ij * thetas[j]) <= TOL
                dag = thetas[j].conj().T
                comm = numbers[i] @ dag - dag @ numbers[i]
                assert maxabs(comm - d_ij * dag) <= TOL

    def test_total_number_diagonal_is_weight(self):
        F, k = 4, 2
        basis = enumerate_block_basis(F, k, k * (F - 1))
        total = sum(number_operator_matrix(F, k, i) for i in range(1, k + 1))
        diag = np.diag(total).real
        assert np.array_equal(diag, np.array([weight(p) for p in basis], dtype=float))


class TestClifford:
    def test_phase_root(self):
        q = root_of_unity_power(5, 1)
        assert abs(q - cmath.exp(2j * cmath.pi / 5)) <= TOL
        assert abs(q ** 5 - 1) <= TOL
        assert root_of_unity_power(5, -1) == pytest.approx(q.conjugate(), abs=TOL)

    @pytest.mark.parametrize("F", [2, 3, 4, 5])
    def test_triple_relations(self, F):
        t = clifford_triple(F)
        q = root_of_unity_power(F, 1)
        eye = np.eye(F)
        assert maxabs(np.linalg.matrix_power(t.sigma1, F) - eye) <= TOL
        assert maxabs(np.linalg.matrix_power(t.sigma3, F) - eye) <= TOL
        assert maxabs(t.sigma1 @ t.sigma3 - q * t.sigma3 @ t.sigma1) <= TOL
        assert maxabs(t.sigma2 - t.sigma3 @ t.sigma1) <= TOL

    def test_spin_half_lowering(self):
        a = clifford_mode(2, Deformation.parafermionic(2))
        assert maxabs(a - np.array([[0, 1], [0, 0]])) <= TOL

    def test_f3_parafermionic_amplitudes(self):
        a = clifford_mode(3, Deformation.parafermionic(3))
        assert a[0, 1] == pytest.approx(math.sqrt(2), abs=TOL)
        assert a[1, 2] == pytest.approx(math.sqrt(2), abs=TOL)

    @pytest.mark.parametrize("F", [2, 3, 4])
    def test_mode_contracts(self, F):
        phi = Deformation.parafermionic(F)
        a = clifford_mode(F, phi)
        assert maxabs(np.linalg.matrix_power(a, F)) <= TOL
        target = np.diag([phi(float(j)) for j in range(F)])
        assert maxabs(a.conj().T @ a - target) <= TOL

    def test_prefactor_form_matches_on_regular_rows(self):
        # a = diag(sqrt(phi(j+1))/(1 - q^(j+1))) (sigma1 - q sigma2); the last
        # diagonal entry multiplies an all-zero row, so set it to zero
        F = 4
        phi = Deformation.parafermionic(F)
        t = clifford_triple(F)
        q = root_of_unity_power(F, 1)
        pref = np.zeros(F, dtype=complex)
        for j in range(F - 1):
            pref[j] = math.sqrt(phi(j + 1.0)) / (1 - root_of_unity_power(F, j + 1))
        explicit = np.diag(pref) @ (t.sigma1 - q * t.sigma2)
        assert maxabs(explicit - clifford_mode(F, phi)) <= TOL

    def test_requires_vanishing_at_order(self):
        with pytest.raises(DeformationError):
            clifford_mode(3, Deformation.undeformed())
