import cmath
import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parafermi_jc import blocks, thermo
from parafermi_jc import (
    Deformation,
    ModelParams,
    NumericalError,
    ParameterError,
    ThermoObservables,
    build_block,
    build_higher_spin_block,
    detect_plateaus,
    eigendecompose,
    log_sum_exp,
    n_via_mu_derivative,
    omega_scan,
    phi_n_via_omega_derivative,
    thermo_from_block,
)
from parafermi_jc.deformations import evaluate
from parafermi_jc.thermo import log_partition_scan


def obs_stub(n_expect):
    return ThermoObservables(z=1.0, log_z=0.0, free_energy=0.0,
                             phi_n_expect=n_expect, n_expect=n_expect, w_expect=0.0,
                             conservation_error=0.0)


class TestLogSumExp:
    def test_matches_direct_sum(self):
        x = np.array([-1.0, 0.5, 2.0])
        assert log_sum_exp(x) == pytest.approx(math.log(np.sum(np.exp(x))), rel=1e-14)

    def test_extreme_magnitudes(self):
        assert log_sum_exp(np.array([-2000.0, -2000.0])) == pytest.approx(-2000.0 + math.log(2.0))
        assert log_sum_exp(np.array([1000.0, 990.0])) == pytest.approx(1000.0 + math.log1p(math.exp(-10.0)))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            log_sum_exp(np.array([]))

    def test_scale(self):
        x = np.array([-1.0, 0.5, 2.0])
        assert log_sum_exp(x, -2.0) == log_sum_exp(-2.0 * x)

    def test_inf_level_is_a_zero_term(self):
        # a level a windowed solve left out: exp(-beta * inf) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_sum_exp(np.array([1.0, 2.0, math.inf]), -0.5) == log_sum_exp(np.array([1.0, 2.0]), -0.5)
            stacked = log_sum_exp(np.array([[1.0, math.inf, math.inf], [1.0, 2.0, 3.0]]), -1.0)
        assert stacked.tolist() == [-1.0, log_sum_exp(np.array([1.0, 2.0, 3.0]), -1.0)]

    @pytest.mark.parametrize("values,scale", [([1.0, math.inf], 1.0), ([1.0, -math.inf], 1.0),
                                              ([1.0, math.nan], 1.0), ([1.0, 1e300], -1e300),
                                              ([1.0, -math.inf], -1.0), ([1.0, math.inf], 0.0),
                                              ([math.inf, math.inf], -1.0)],
                             ids=["inf", "minus_inf", "nan", "overflowing_term",
                                  "minus_inf_negative_scale", "inf_zero_scale", "every_term_zero"])
    def test_non_finite_term_rejected(self, values, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="float range"):
                log_sum_exp(np.array(values), scale)


    def test_stack_reduces_each_row(self):
        # a row alone gets the bits it gets in the stack; in the second stack
        # the largest term is 0, so the result is the log of a sum in (1, 1.01)
        rng = np.random.default_rng(4)
        for x in (np.array([[-1.0, 0.5, 2.0], [3.0, -4.0, 0.0]]),
                  np.column_stack([np.zeros(200), rng.uniform(7.0, 30.0, 200)])):
            stacked = log_sum_exp(x, -0.7)
            assert stacked.tolist() == [log_sum_exp(row, -0.7) for row in x]

    def test_stack_error_names_its_row(self):
        with pytest.raises(NumericalError, match="float range") as caught:
            log_sum_exp(np.array([[1.0, 2.0], [1.0, 1e300]]), -1e300)
        assert caught.value.index == 1


def loop_operators(block, params):
    """N = n - W, W and phi(n - W) for each basis state, as a loop over the basis gives them."""
    n, phi = block.n, params.deformation
    return np.array([[n - sum(p), sum(p), evaluate(phi, n - sum(p))] for p in block.basis],
                    dtype=np.float64)


def reversal_basis(block):
    """(order, U): the states behind the real basis that the mode reversal
    fixes, as documented, and that basis as U's columns: e_P for each
    palindrome P, then (e_P + e_pi P) / sqrt(2) for each other pair, P the
    lower row, then i (e_P - e_pi P) / sqrt(2) for each pair."""
    row = {state: i for i, state in enumerate(block.basis)}
    mirror = [row[state[::-1]] for state in block.basis]
    palindromes = [i for i, j in enumerate(mirror) if i == j]
    pairs = [i for i, j in enumerate(mirror) if i < j]
    U = np.zeros((block.dim, block.dim), dtype=np.complex128)
    U[palindromes, range(len(palindromes))] = 1.0
    plus = np.arange(len(palindromes), len(palindromes) + len(pairs))
    U[pairs, plus] = U[[mirror[i] for i in pairs], plus] = 1.0 / math.sqrt(2.0)
    U[pairs, plus + len(pairs)] = 1j / math.sqrt(2.0)
    U[[mirror[i] for i in pairs], plus + len(pairs)] = -1j / math.sqrt(2.0)
    return palindromes + pairs + [mirror[i] for i in pairs], U


def reference_real_form(block, F):
    """Re(U^H C* H C U), dense, with c_P = q^(e2(P) / 2), e2(P) = sum_{s<t} i_s i_t."""
    order, U = reversal_basis(block)
    e2 = [sum(p[s] * p[t] for t in range(len(p)) for s in range(t)) for p in block.basis]
    C = np.diag([cmath.exp(1j * math.pi * e / F) for e in e2])
    G = U.conj().T @ C.conj() @ block.matrix @ C @ U
    assert np.max(np.abs(G.imag)) <= 1e-14 * np.max(np.abs(block.matrix))
    return order, G.real


def assert_matches_lapack(obs, block, params, rel=1e-10):
    """obs against the reduction of LAPACK's eigenpairs of the complex block,
    to rel of max(1, |x|)."""
    w, V = np.linalg.eigh(block.matrix)
    ops = loop_operators(block, params)
    weights = np.exp(-params.beta * (w - w[0]))
    weights /= weights.sum()
    n_expect, w_expect, phi_expect = weights @ (np.abs(V) ** 2).T @ ops
    log_z = -params.beta * w[0] + math.log(np.sum(np.exp(-params.beta * (w - w[0]))))
    for value, expected in ((obs.log_z, log_z), (obs.n_expect, n_expect),
                            (obs.w_expect, w_expect), (obs.phi_n_expect, phi_expect)):
        assert abs(value - expected) <= rel * max(1.0, abs(expected))


class TestThermoFromSpectrum:
    def test_conservation_error_on_staircase_block(self):
        # the F=3, k=3, n=8 qexp staircase of acceptance criterion 07 (d = 27)
        for omega in np.logspace(math.log10(0.2), math.log10(2000.0), 12):
            params = ModelParams(3, 3, float(omega), 1000.0, 1.0, hbar=1.0,
                                 deformation=Deformation.q_exp(1.0))
            obs = thermo_from_block(build_block(params, 8), params)
            assert obs.conservation_error == abs(obs.n_expect + obs.w_expect - 8)
            assert obs.conservation_error <= 1e-9

    def test_two_degenerate_levels(self):
        # g = 0 block at n = 1: both states at energy 1, symmetric occupations
        params = ModelParams(2, 1, 1.0, 1.0, 0.0)
        obs = thermo_from_block(build_block(params, 1), params)
        assert obs.z == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert obs.n_expect == pytest.approx(0.5, abs=1e-12)
        assert obs.w_expect == pytest.approx(0.5, abs=1e-12)
        assert obs.free_energy == pytest.approx(-math.log(2.0 * math.exp(-1.0)), rel=1e-12)

    def test_ground_state_projection_at_low_temperature(self):
        # beta = 50 proxy for the zero-temperature limit, small omega:
        # the boson count sits on the upper plateau value n
        params = ModelParams(2, 1, 0.5, 20.0, 1.0, beta=50.0)
        obs = thermo_from_block(build_block(params, 3), params)
        assert obs.n_expect == pytest.approx(3.0, abs=0.02)

    def test_edited_matrix_refused(self):
        # numpy lets a caller lift the read-only flag; the solve checks again
        params = ModelParams(3, 2, 1.0, 1.0, 1.0)
        block = build_block(params, 3)
        block.matrix.setflags(write=True)
        block.matrix[1, 0] += 1.0
        with pytest.raises(ParameterError, match="not Hermitian"):
            thermo_from_block(block, params)

    def test_reversal_breaking_edit_refused(self):
        # a Hermitian edit that the mode reversal does not carry to the mirror entry
        params = ModelParams(3, 2, 1.0, 1.0, 1.0)
        block = build_block(params, 3)
        block.matrix.setflags(write=True)
        block.matrix[1, 0] += 0.5
        block.matrix[0, 1] += 0.5
        with pytest.raises(ParameterError, match=r"^matrix breaks the mode-reversal symmetry of "
                                                 r"block \(F=3, k=2, n=3\) by 5\.000e-01$"):
            thermo_from_block(block, params)

    def test_reversal_breaking_edit_refused_below_scale_one(self):
        # the same edit, relative to the entries, on a block of 1e-13: the
        # symmetry is checked against max|H|, not against max(1, max|H|)
        params = ModelParams(3, 2, 1e-13, 1e-13, 1e-13, beta=1e13)
        block = build_block(params, 3)
        block.matrix.setflags(write=True)
        block.matrix[1, 0] += 0.5e-13
        block.matrix[0, 1] += 0.5e-13
        with pytest.raises(ParameterError, match=r"^matrix breaks the mode-reversal symmetry of "
                                                 r"block \(F=3, k=2, n=3\) by 5\.000e-14$"):
            thermo_from_block(block, params)

    def test_non_hermitian_edit_refused_below_scale_one(self):
        # half an entry added to H[1, 0] alone of an F = 2 block of 1e-13,
        # whose real part is solved with no symmetry check: Hermiticity is
        # checked against max|H|, not against max(1, max|H|), which accepted
        # it and gave <N> = 1.2137
        params = ModelParams(2, 2, 1e-13, 1e-13, 1e-13, beta=1e13)
        block = build_block(params, 2)
        matrix = block.matrix.copy()
        matrix[1, 0] += 0.5e-13
        refused = r"^matrix is not Hermitian: max\|H - H\^dag\| = 5\.000e-14$"
        with pytest.raises(ParameterError, match=refused):
            dataclasses.replace(block, matrix=matrix)
        block.matrix.setflags(write=True)
        block.matrix[1, 0] += 0.5e-13
        with pytest.raises(ParameterError, match=refused):
            thermo_from_block(block, params)

    @pytest.mark.parametrize("scale", [1e-300, 1e-315])
    def test_tiny_blocks_accepted(self, scale):
        # at beta = 1 every level of a block of 1e-300 weighs the same; below
        # the normal floats rounding is absolute, and the symmetry check takes
        # max|H| as the smallest normal float there
        params = ModelParams(3, 2, 1.3 * scale, 0.7 * scale, 0.9 * scale)
        obs = thermo_from_block(build_block(params, 3), params)
        assert obs.log_z == pytest.approx(math.log(8.0), rel=1e-15)

    def test_real_form_overflow_named(self):
        # hops near the float limit: the real form adds two of them
        params = ModelParams(3, 2, 0.0, 0.0, 1.2e308)
        with pytest.raises(NumericalError, match=r"^the real form of block \(F=3, k=2, n=2\) "
                                                 r"leaves the float range$"):
            thermo_from_block(build_block(params, 2), params)

    def test_entry_beyond_the_float_range_keeps_its_imaginary_part(self):
        # a Hermitian edit whose |entry| overflows: no scale makes its
        # imaginary part negligible, so the real form takes the gauge and fails
        params = ModelParams(2, 2, 1.0, 1.0, 1.0)
        block = build_block(params, 2)
        block.matrix.setflags(write=True)
        block.matrix[0, 1] = 1.5e308 + 1.5e308j
        block.matrix[1, 0] = 1.5e308 - 1.5e308j
        with pytest.raises(NumericalError, match=r"^the real form of block \(F=2, k=2, n=2\) "
                                                 r"leaves the float range$"):
            thermo_from_block(block, params)

    def test_spin_block_matches_lapack(self):
        # a spin block has no imaginary part, so it is solved as it is
        params = ModelParams(3, 2, 1.3, 0.7, 0.9, beta=0.8)
        block = build_higher_spin_block(params, 3)
        assert blocks._real_form(block, params)[0].tobytes() == block.matrix.real.tobytes()
        assert_matches_lapack(thermo_from_block(block, params), block, params)

    def test_one_public_solve(self, monkeypatch):
        # the solve goes through the module's eigendecompose, where a tracer wraps it
        calls = []
        solve = thermo.eigensolver.eigendecompose

        def spy(*args, **kwargs):
            calls.append((args[1:], kwargs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(thermo.eigensolver, "eigendecompose", spy)
        params = ModelParams(3, 2, 1.0, 1.0, 1.0, beta=0.7)
        thermo_from_block(build_block(params, 3), params)
        assert calls == [((True,), {"window": pytest.approx(60.0 * math.log(2.0) / 0.7, rel=1e-15)})]

    @pytest.mark.parametrize("block_fk,params_fk,named", [
        ((3, 2), (2, 2), r"params \(F=2, k=2\) do not fit block n=3, whose basis reads as \(F=3, k=2\)"),
        # both have d = 8 at n = 3: the bases differ, not the dimensions
        ((2, 3), (3, 2), r"params \(F=3, k=2\) do not fit block n=3, whose basis reads as \(F=2, k=3\)"),
        ((5, 2), (3, 2), r"params \(F=3, k=2\) do not fit block n=3, whose basis reads as \(F>3, k=2\)"),
    ], ids=["other_F", "same_dimension", "F_above_n"])
    def test_params_of_another_block_refused(self, block_fk, params_fk, named):
        block = build_block(ModelParams(*block_fk, 1.0, 1.0, 1.0), 3)
        with pytest.raises(ParameterError, match=named):
            thermo_from_block(block, ModelParams(*params_fk, 1.0, 1.0, 1.0))

    def test_deep_suppression_underflows_z_but_not_logz(self):
        params = ModelParams(4, 1, 700.0, 1000.0, 1.0, deformation=Deformation.q_exp(1.0))
        obs = thermo_from_block(build_block(params, 5), params)
        assert obs.z == 0.0  # exp(log_z) underflows; log path stays finite
        assert np.isfinite(obs.log_z) and np.isfinite(obs.free_energy)
        # omega = 700 sits past the last crossover: boson count n - k(F-1) = 2
        assert obs.n_expect == pytest.approx(2.0, abs=1e-2)

    @given(
        st.integers(2, 4), st.integers(1, 3), st.integers(0, 6),
        st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.0, 2.0),
        st.floats(0.3, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_and_ranges(self, F, k, n, omega, delta, g, beta):
        params = ModelParams(F, k, omega, delta, g, beta=beta)
        obs = thermo_from_block(build_block(params, n), params)
        assert obs.n_expect + obs.w_expect == pytest.approx(n, abs=1e-8)
        assert max(0, n - k * (F - 1)) - 1e-9 <= obs.n_expect <= n + 1e-9
        assert -1e-9 <= obs.w_expect <= min(n, k * (F - 1)) + 1e-9
        assert obs.free_energy == pytest.approx(-obs.log_z / beta, rel=1e-12)

    @pytest.mark.parametrize("g", [5e-324, 1e-310])
    @pytest.mark.parametrize("F,k,n", [(2, 1, 1), (3, 2, 3), (4, 3, 5)])
    def test_subnormal_coupling(self, F, k, n, g):
        # a subnormal off-diagonal must not overflow the tridiagonal phase step
        params = ModelParams(F, k, 1.3, 0.7, g)
        spectrum = eigendecompose(build_block(params, n).matrix, want_vectors=True)
        assert np.all(np.isfinite(spectrum.eigenvectors))
        obs = thermo_from_block(build_block(params, n), params)
        assert abs(obs.n_expect + obs.w_expect - n) <= 1e-9


class TestDerivativeRoutes:
    def test_g_zero_derivative_equals_boltzmann_average(self):
        params = ModelParams(3, 1, 0.9, 1.4, 0.0)
        obs = thermo_from_block(build_block(params, 2), params)
        fd = phi_n_via_omega_derivative(params, 2, 1e-5)
        assert fd == pytest.approx(obs.phi_n_expect, abs=1e-8)

    def test_omega_route_matches_trace(self):
        params = ModelParams(3, 2, 1.3, 0.8, 0.9, beta=0.7,
                             deformation=Deformation.q_exp(0.2))
        obs = thermo_from_block(build_block(params, 4), params)
        assert phi_n_via_omega_derivative(params, 4, 1e-4) == pytest.approx(obs.phi_n_expect, abs=1e-6)

    def test_mu_route_matches_trace(self):
        params = ModelParams(4, 2, 0.6, 1.9, 1.1, beta=0.9,
                             deformation=Deformation.linear(0.8))
        obs = thermo_from_block(build_block(params, 5), params)
        assert n_via_mu_derivative(params, 5, 1e-4) == pytest.approx(obs.n_expect, abs=1e-6)

    def test_mu_route_g_zero_boltzmann_average(self):
        params = ModelParams(3, 2, 1.1, 0.7, 0.0, beta=0.8)
        obs = thermo_from_block(build_block(params, 3), params)
        assert n_via_mu_derivative(params, 3, 1e-5) == pytest.approx(obs.n_expect, abs=1e-8)

    def test_mid_plateau_boson_count_is_integer(self):
        params = ModelParams(4, 1, 8.0, 1000.0, 1.0, deformation=Deformation.q_exp(1.0))
        assert n_via_mu_derivative(params, 5, 1e-4) == pytest.approx(5.0, abs=1e-2)

    def test_superradiant_occupation_from_omega_derivative(self):
        # small omega, large splitting: <a^dag a> sits at hbar * n on the
        # upper plateau (k(F-1) = 1 here, so n = n + 1 - k(F-1))
        params = ModelParams(2, 1, 2.0, 20.0, 1.0)
        value = phi_n_via_omega_derivative(params, 4, 1e-4)
        assert value == pytest.approx(4.0, abs=0.05)

    def test_step_below_omega_resolution_rejected(self):
        # 1e13 -+ 1e-4 both round to 1e13, so the difference quotient would
        # read 0 where the trace gives 2.27
        params = ModelParams(2, 1, 1e13, 1.0, 1.0, beta=1e-13)
        with pytest.raises(ParameterError, match=r"step 0\.0001 .* omega=10000000000000\.0"):
            phi_n_via_omega_derivative(params, 3, 1e-4)

    def test_mu_step_lost_against_diagonal_rejected(self):
        # delta * W = 1e13 swallows step * N, so H + step*N and H - step*N
        # share those entries and the quotient would read -0.0 where the
        # trace gives 2.5
        params = ModelParams(2, 1, 1e13, 1e13, 1.0, beta=1e-13)
        assert thermo_from_block(build_block(params, 3), params).n_expect == pytest.approx(2.5)
        with pytest.raises(ParameterError, match=r"step 0\.0001 .*\(F=2, k=1, n=3\)"):
            n_via_mu_derivative(params, 3, 1e-4)

    @pytest.mark.parametrize("route", [n_via_mu_derivative, phi_n_via_omega_derivative])
    def test_step_lost_in_some_entries_rejected(self, route):
        # omega = 1: the W = 0 entries keep the step and the W = 1 entries at
        # 1e13 lose it, so both routes would read 2.776 where the trace gives 2.731
        params = ModelParams(2, 1, 1.0, 1e13, 1.0, beta=1e-13)
        assert thermo_from_block(build_block(params, 3), params).n_expect == pytest.approx(2.731, abs=1e-3)
        with pytest.raises(ParameterError, match=r"step 0\.0001 .*\(F=2, k=1, n=3\)"):
            route(params, 3, 1e-4)

    @pytest.mark.parametrize("route,point", [(n_via_mu_derivative, "mu=-0.0001"),
                                             (phi_n_via_omega_derivative, "omega=0.9999")])
    def test_solve_failure_names_point(self, route, point):
        # beta * |lambda| leaves the float range in log Z at the lower point
        with pytest.raises(NumericalError) as info:
            route(ModelParams(2, 1, 1.0, 1.0, 1.0, beta=1e308), 2, 1e-4)
        assert str(info.value).endswith(f" at {point} (F=2, k=1, n=2)")

    @pytest.mark.parametrize("route", [n_via_mu_derivative, phi_n_via_omega_derivative])
    def test_route_assembles_block_once(self, monkeypatch, route):
        calls = []

        def counted(*args):
            calls.append(args)
            return build_block(*args)

        monkeypatch.setattr(thermo, "build_block", counted)
        route(ModelParams(3, 2, 1.1, 0.7, 0.9), 3, 1e-4)
        assert len(calls) == 1

    def test_step_validation(self):
        params = ModelParams(2, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            phi_n_via_omega_derivative(params, 1, 0.0)
        with pytest.raises(ParameterError):
            n_via_mu_derivative(params, 1, -1e-4)

    @pytest.mark.parametrize("route", [n_via_mu_derivative, phi_n_via_omega_derivative])
    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_non_finite_step_rejected(self, route, step):
        with pytest.raises(ParameterError, match="step must be positive and finite"):
            route(ModelParams(2, 1, 1.0, 1.0, 1.0), 2, step)

    def test_mu_step_beyond_float_range_named(self):
        # 1e308 * N overflows the perturbed diagonal: no numpy warning, and
        # the error names the step, not a non-finite matrix
        with pytest.raises(ParameterError, match=r"step 1e\+308 .*\(F=2, k=1, n=2\)"):
            n_via_mu_derivative(ModelParams(2, 1, 1.0, 1.0, 1.0), 2, 1e308)

    def test_omega_step_beyond_float_range_named(self):
        # omega -+ 1e308 are finite, but (omega - 1e308) * phi(N) is not: the
        # error names the step before any scan, not a grid point -1e308
        with pytest.raises(ParameterError, match=r"step 1e\+308 .*\(F=2, k=1, n=2\)"):
            phi_n_via_omega_derivative(ModelParams(2, 1, 1.0, 1.0, 1.0), 2, 1e308)


class TestOmegaScan:
    def test_trivial_block_constant(self):
        # n = 0 leaves a single-state block: N stays 0 = n across the grid
        params = ModelParams(3, 2, 1.0, 0.0, 0.0)
        scan = omega_scan(params, 0, np.linspace(0.5, 5.0, 7))
        assert all(obs.n_expect == pytest.approx(0.0, abs=1e-12) for _, obs in scan)

    def test_deterministic_and_ordered(self):
        params = ModelParams(2, 2, 1.0, 5.0, 0.7)
        grid = np.logspace(0, 1, 11)
        first = omega_scan(params, 3, grid)
        second = omega_scan(params, 3, grid)
        assert [w for w, _ in first] == list(grid)
        assert first == second

    def test_chunked_scan_matches_single_blocks(self, monkeypatch):
        # chunks of 3 points: the grid of 7 crosses two chunk boundaries
        params = ModelParams(3, 2, 1.0, 20.0, 0.8, beta=0.9, deformation=Deformation.q_exp(0.4))
        grid = np.logspace(-1, 2, 7)
        monkeypatch.setattr(thermo, "SCAN_CHUNK_ENTRIES", 3 * build_block(params, 4).dim ** 2)
        for omega, obs in omega_scan(params, 4, grid):
            point = params.with_omega(omega)
            alone = thermo_from_block(build_block(point, 4), point)
            for field in ("log_z", "free_energy", "phi_n_expect", "n_expect", "w_expect"):
                assert getattr(obs, field) == pytest.approx(getattr(alone, field), rel=1e-12, abs=1e-12)
        scan = log_partition_scan(params, 4, grid)
        assert [w for w, _ in scan] == grid.tolist()
        for omega, log_z in scan:
            block = build_block(params.with_omega(omega), 4)
            assert log_z == pytest.approx(
                log_sum_exp(eigendecompose(block.matrix).eigenvalues, -params.beta), rel=1e-12)

    def test_grid_validation(self):
        params = ModelParams(2, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            omega_scan(params, 1, [])
        with pytest.raises(ParameterError):
            omega_scan(params, 1, [2.0, 1.0])

    @pytest.mark.parametrize("scan", [omega_scan, log_partition_scan])
    @pytest.mark.parametrize("grid", [[1.0, math.inf], [math.nan, 1.0], [-math.inf, 0.0],
                                      [0.5, math.nan, 2.0]])
    def test_non_finite_grid_point_named(self, scan, grid):
        # n = 0: inf * phi(0) would be nan
        bad = next(w for w in grid if not math.isfinite(w))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"omega grid point {bad!r} is not finite"):
                scan(ModelParams(2, 1, 1.0, 1.0, 1.0), 0, grid)

    @pytest.mark.parametrize("scan", [omega_scan, log_partition_scan])
    @pytest.mark.parametrize("grid,named", [([1.0, 1e308], 1e308),
                                            ([1.0, 6e307, 1e308], 6e307),
                                            ([-1e308, 1.0], -1e308)])
    @pytest.mark.parametrize("chunk_points", [1, None])
    def test_overflowing_diagonal_named(self, monkeypatch, scan, grid, named, chunk_points):
        # phi(n - W) reaches 3 at n = 3, so omega * phi leaves the float range
        # from omega = 6e307 on, whether the grid is one stack or many
        if chunk_points:
            monkeypatch.setattr(thermo, "SCAN_CHUNK_ENTRIES", chunk_points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as info:
                scan(ModelParams(2, 1, 1.0, 1.0, 1.0), 3, grid)
        assert str(info.value).endswith(f" at omega={named!r} (F=2, k=1, n=3)")


STAIRCASE = ModelParams(3, 3, 1.0, 1000.0, 1.0, hbar=1.0, deformation=Deformation.q_exp(1.0))
STAIRCASE_GRID = np.logspace(math.log10(0.2), math.log10(2000.0), 40)

#: Traced peak of a one-stack scan over the bytes of its stack as a complex
#: (G, d, d) one.  The 40-point dim-27 staircase grid, solved in its real
#: form, measures 1.23 (numpy 2.4, Python 3.11; 1.56 with the basis
#: reordered by its diagonal, 2.03 by Householder), and 4.31 with every
#: eigenvector solved (beta = 1e-300); solved complex by Householder it read
#: 3.94 and 5.48, and before the eigensolver's working set was trimmed 7.2.
PEAK_PER_STACK = 6.0


class TestScanStack:
    """The staircase scan of a dim-27 block over 40 points, solved as one stack."""

    def test_one_stack_peak_memory(self):
        assert thermo.SCAN_CHUNK_ENTRIES // 27 ** 2 >= STAIRCASE_GRID.size
        stack_bytes = STAIRCASE_GRID.size * 27 ** 2 * 16
        limit = PEAK_PER_STACK
        if sys.version_info < (3, 11):
            # a Python 3.10 caller keeps its call's arguments until the call
            # returns: the stack through the solve (1x) and the real
            # eigenvectors through the back-transform (0.5x)
            limit += 1.5
        omega_scan(STAIRCASE, 8, STAIRCASE_GRID)  # first-call allocations
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            omega_scan(STAIRCASE, 8, STAIRCASE_GRID)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < limit * stack_bytes

    def test_default_cap_matches_one_point_per_chunk(self, monkeypatch):
        # stack size moves bits at about 1e-13 (BLAS blocking), so not exact
        stacked = omega_scan(STAIRCASE, 8, STAIRCASE_GRID)
        monkeypatch.setattr(thermo, "SCAN_CHUNK_ENTRIES", 1)
        alone = omega_scan(STAIRCASE, 8, STAIRCASE_GRID)
        assert [w for w, _ in stacked] == [w for w, _ in alone] == STAIRCASE_GRID.tolist()
        for (_, a), (_, b) in zip(stacked, alone):
            for field in dataclasses.fields(ThermoObservables):
                # conservation_error is itself rounding error, so its scale is absolute
                floor = 1e-12 if field.name == "conservation_error" else 0.0
                assert getattr(a, field.name) == pytest.approx(getattr(b, field.name),
                                                               rel=1e-12, abs=floor)


class TestWindow:
    """Scans solve only the eigenvectors of weight above NEGLIGIBLE_WEIGHT."""

    @staticmethod
    def full_reduction(params, n, grid):
        """The observables of a scan's stack, the real form's, from every eigenvector."""
        H, ops = blocks._real_form(build_block(params.with_omega(0.0), n), params)
        spec = eigendecompose(thermo._diagonal_stack(H, ops[:, 2], grid), want_vectors=True)
        return thermo._observables(spec.eigenvalues, spec.eigenvectors, ops, params.beta, n)

    def test_staircase_matches_full_reduction(self, monkeypatch):
        # the scan calls the solver through the module, where a tracer wraps it,
        # and keeps 1 to 9 of the 27 vectors of each block
        shapes = []
        solve = thermo.eigensolver.eigendecompose

        def recorded(*args, **kwargs):
            spectrum = solve(*args, **kwargs)
            shapes.append(spectrum.eigenvectors.shape)
            return spectrum

        monkeypatch.setattr(thermo.eigensolver, "eigendecompose", recorded)
        scan = omega_scan(STAIRCASE, 8, STAIRCASE_GRID)
        assert shapes == [(40, 27, 9)]
        for (_, a), b in zip(scan, self.full_reduction(STAIRCASE, 8, STAIRCASE_GRID)):
            for field in dataclasses.fields(ThermoObservables):
                # conservation_error is itself rounding error, so its scale is absolute
                floor = 1e-14 if field.name == "conservation_error" else 0.0
                assert getattr(a, field.name) == pytest.approx(getattr(b, field.name),
                                                               rel=1e-14, abs=floor)

    def test_block_matches_full_reduction(self):
        for omega in (0.5, 68.0, 1500.0):
            params = STAIRCASE.with_omega(omega)
            block = build_block(params, 8)
            R, ops = blocks._real_form(block, params)
            spec = eigendecompose(R, want_vectors=True)
            [full] = thermo._observables(spec.eigenvalues[np.newaxis], spec.eigenvectors[np.newaxis],
                                         ops, 1.0, 8)
            obs = thermo.thermo_from_block(block, params)
            for field in ("n_expect", "w_expect", "phi_n_expect"):
                assert getattr(obs, field) == pytest.approx(getattr(full, field), rel=1e-14)
            assert obs.log_z == full.log_z

    def test_tiny_beta_is_the_full_reduction(self):
        # every weight is above 2**-60, so every vector is solved, bit for bit
        params = dataclasses.replace(STAIRCASE, beta=1e-300)
        scan = omega_scan(params, 8, STAIRCASE_GRID)
        assert [obs for _, obs in scan] == self.full_reduction(params, 8, STAIRCASE_GRID)


@st.composite
def scan_cases(draw):
    """Small omega grids of small blocks, with couplings from subnormal to 1e300,
    delta up to +-1e300 and beta near the float limits."""
    F, k, n = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 6))
    g = draw(st.one_of(st.floats(0.0, 2.0), st.sampled_from([5e-324, 1e-310, 1e-160]),
                       st.floats(1e150, 1e300)))
    delta = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e300, 1e300)))
    beta = draw(st.one_of(st.floats(0.3, 2.0), st.sampled_from([5e-324, 1e-308, 1e308, 1.7e308]),
                          st.floats(1e-300, 1e300)))
    deformation = draw(st.sampled_from([Deformation.undeformed(), Deformation.q_exp(0.5)]))
    low = draw(st.floats(1e-3, 1e3))
    grid = low * np.logspace(0.0, draw(st.floats(0.1, 3.0)), draw(st.integers(1, 5)))
    return ModelParams(F, k, 1.0, delta, g, beta=beta, deformation=deformation), n, grid


@given(scan_cases())
# a free energy -log Z / beta beyond the float range, Boltzmann weights whose
# sum drifts from 1 by eps * beta * |lambda| ~ 1e-9, and terms -beta * lambda
# whose differences overflow
@example((ModelParams(2, 1, 1.0, 0.0, 0.0, beta=5e-324), 1, np.array([1.0])))
@example((ModelParams(2, 3, 1.0, 1.0, 0.0, beta=4194305.0), 2, np.array([1.0])))
@example((ModelParams(2, 1, 1.0, 0.0, 1.0, beta=1e308), 1, np.array([1.0])))
@settings(max_examples=60, deadline=None)
def test_scan_over_full_range(case):
    params, n, grid = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            scan = omega_scan(params, n, grid)
        except (ParameterError, NumericalError):
            return
    for _, obs in scan:
        assert all(math.isfinite(getattr(obs, field)) for field in
                   ("z", "log_z", "free_energy", "phi_n_expect", "n_expect", "w_expect"))
        assert obs.conservation_error <= 1e-9


@st.composite
def block_cases(draw):
    """Blocks of F = 2 to 5 and k = 1 to 3 (d up to 125), below, at and
    above k(F - 1), of every deformation kind."""
    F, k = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    n = draw(st.integers(0, k * (F - 1) + 2))
    deformation = draw(st.sampled_from([Deformation.undeformed(), Deformation.q_exp(0.3),
                                        Deformation.linear(0.7)]))
    omega, delta, g = (draw(st.floats(0.05, 3.0)) for _ in range(3))
    return ModelParams(F, k, omega, delta, g, beta=draw(st.floats(0.1, 5.0)),
                       deformation=deformation), n


@given(block_cases())
@settings(max_examples=60, deadline=None)
def test_block_matches_lapack(case):
    params, n = case
    block = build_block(params, n)
    assert_matches_lapack(thermo_from_block(block, params), block, params)


class TestRealForm:
    """The block in the basis of its mode-reversal symmetry."""

    # the F=3, k=2 block at scale 1e-13: its imaginary part, though below
    # 1e-12, is no rounding error against its entries, so it takes the gauge
    @pytest.mark.parametrize("F,k,n,scale", [(3, 2, 3, 1.0), (3, 2, 3, 1e-13), (3, 3, 8, 1.0),
                                             (4, 4, 12, 1.0), (5, 2, 9, 1.0)])
    def test_real_symmetric_with_the_block_spectrum(self, F, k, n, scale):
        params = ModelParams(F, k, 1.3 * scale, 0.7 * scale, 0.9 * scale,
                             deformation=Deformation.q_exp(0.3))
        block = build_block(params, n)
        R, ops = blocks._real_form(block, params)
        assert R.dtype == np.float64 and R.flags.c_contiguous
        assert np.max(np.abs(R - R.T)) <= 1e-15 * np.max(np.abs(R))
        # the documented basis, whose diagonal and operators are the block's, bit for bit
        order, expected = reference_real_form(block, F)
        assert np.max(np.abs(R - expected)) <= 1e-14 * np.max(np.abs(block.matrix))
        assert R.diagonal().tobytes() == block.matrix.diagonal().real[order].tobytes()
        assert ops.tobytes() == loop_operators(block, params)[order].tobytes()
        w = np.linalg.eigvalsh(block.matrix)
        assert np.max(np.abs(np.linalg.eigvalsh(R) - w)) <= 1e-13 * np.max(np.abs(w))

    def test_palindromes_lead_then_the_pairs(self):
        # F=3, k=2, n=3: palindromes (0,0) and (1,1), then the pairs' lower
        # states (0,1), (0,2), (1,2) and their mirrors (1,0), (2,0), (2,1)
        params = ModelParams(3, 2, 1.0, 1.0, 1.0)
        block = build_block(params, 3)
        order, expected = reference_real_form(block, 3)
        assert [block.basis[i] for i in order] == [(0, 0), (1, 1), (0, 1), (0, 2), (1, 2),
                                                    (1, 0), (2, 0), (2, 1)]
        R, _ = blocks._real_form(block, params)
        assert np.max(np.abs(R - expected)) <= 1e-14 * np.max(np.abs(block.matrix))

    # at g = 1e5 the rounding of an F = 2 block's phases passes 1e-12, but not
    # 1e-12 of its largest entry
    @pytest.mark.parametrize("F,k,n,g", [(4, 1, 5, 1.0), (2, 3, 2, 1.0), (2, 3, 2, 1e5)],
                             ids=["chain", "F2", "F2_strong"])
    def test_negligible_imaginary_part_dropped(self, F, k, n, g):
        # k = 1 chains carry no phase at all, F = 2 blocks only the rounding
        # of q = -1; their real form is their real part, in the block's order
        params = ModelParams(F, k, 1.0, 1.0, g)
        block = build_block(params, n)
        imag = np.max(np.abs(block.matrix.imag))
        assert 0.0 < imag <= 1e-15 * g if k > 1 else imag == 0.0
        R, ops = blocks._real_form(block, params)
        assert ops.tobytes() == loop_operators(block, params).tobytes()
        assert R.tobytes() == block.matrix.real.tobytes()

    def test_once_per_scan(self, monkeypatch):
        calls = []
        form = thermo._real_form

        def spy(*args):
            calls.append(args[0].n)
            return form(*args)

        monkeypatch.setattr(thermo, "_real_form", spy)
        monkeypatch.setattr(thermo, "SCAN_CHUNK_ENTRIES", 1)  # a stack per point
        omega_scan(STAIRCASE, 8, STAIRCASE_GRID[:5])
        log_partition_scan(STAIRCASE, 8, STAIRCASE_GRID[:5])
        phi_n_via_omega_derivative(STAIRCASE, 8, 1e-3)
        assert calls == [8, 8, 8]


class TestScaleCovariance:
    """H -> s H with beta -> beta / s leaves every observable unchanged: a
    block's imaginary part is negligible only against its own entries, so a
    complex block keeps its q-phases at any scale."""

    SCALES = [1e-100, 1e-20, 1e-16, 1e-14, 1e-13, 1e-6, 1e6, 1e100]

    @staticmethod
    def assert_unchanged(scaled, base):
        for field in ("log_z", "n_expect", "w_expect", "phi_n_expect"):
            assert getattr(scaled, field) == pytest.approx(getattr(base, field),
                                                           rel=1e-12, abs=1e-12), field

    @pytest.mark.parametrize("scale", SCALES)
    def test_block(self, scale):
        def observe(s):
            params = ModelParams(3, 2, 1.3 * s, 0.7 * s, 0.9 * s, beta=1.0 / s)
            return thermo_from_block(build_block(params, 3), params)
        self.assert_unchanged(observe(scale), observe(1.0))

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("F,k,n,phi", [(3, 2, 3, Deformation.undeformed()),
                                           (3, 3, 8, Deformation.q_exp(1.0)),
                                           (4, 2, 5, Deformation.linear(0.5)),
                                           (2, 3, 4, Deformation.undeformed())],
                             ids=["F3", "staircase", "F4_linear", "F2"])
    def test_scans(self, F, k, n, phi, scale):
        def scans(s):
            params = ModelParams(F, k, 1.3 * s, 0.7 * s, 0.9 * s, beta=1.0 / s, deformation=phi)
            grid = [s * omega for omega in (0.3, 1.1, 2.5)]
            return omega_scan(params, n, grid), log_partition_scan(params, n, grid)
        (observed, log_z), (base, base_log_z) = scans(scale), scans(1.0)
        for (_, a), (_, b) in zip(observed, base):
            self.assert_unchanged(a, b)
        assert [z for _, z in log_z] == pytest.approx([z for _, z in base_log_z],
                                                      rel=1e-12, abs=1e-12)


class TestDetectPlateaus:
    def test_synthetic_staircase(self):
        omegas = [1, 2, 3, 4, 5, 6, 7, 8]
        values = [3.01, 2.98, 2.6, 2.05, 1.97, 1.5, 1.02, 0.99]
        scan = [(float(w), obs_stub(v)) for w, v in zip(omegas, values)]
        report = detect_plateaus(scan)
        assert [p[2] for p in report.plateaus] == [3, 2, 1]
        assert report.plateaus[0][:2] == (1.0, 2.0)
        assert report.crossover_points == (pytest.approx(3.0), pytest.approx(6.0))

    def test_adjacent_runs_split_on_level_change(self):
        scan = [(1.0, obs_stub(2.02)), (2.0, obs_stub(1.98)), (3.0, obs_stub(1.04)), (4.0, obs_stub(0.97))]
        report = detect_plateaus(scan)
        assert [p[2] for p in report.plateaus] == [2, 1]

    def test_no_plateau_is_valid(self):
        scan = [(1.0, obs_stub(0.5)), (2.0, obs_stub(1.5))]
        report = detect_plateaus(scan)
        assert report.plateaus == ()
        assert report.crossover_points == ()

    def test_non_finite_value_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match=r"not finite at omega=2\.5"):
                detect_plateaus([(1.0, obs_stub(1.0)), (2.5, obs_stub(value))])

    def test_tolerance_is_a_tenth(self):
        scan = [(1.0, obs_stub(2.0999)), (2.0, obs_stub(2.0 - 0.1)), (3.0, obs_stub(1.0999))]
        assert detect_plateaus(scan).plateaus == ((1.0, 1.0, 2), (3.0, 3.0, 1))


class TestStaircasePhysics:
    def test_undeformed_two_plateaus(self):
        params = ModelParams(2, 1, 1.0, 20.0, 1.0)
        grid = np.logspace(math.log10(2.0), math.log10(200.0), 400)
        report = detect_plateaus(omega_scan(params, 4, grid))
        assert [p[2] for p in report.plateaus] == [4, 3]
        assert len(report.crossover_points) == 1
        assert abs(report.crossover_points[0] - 20.0) <= 4.0

    @pytest.mark.parametrize("hbar", [0.5, 0.3])
    def test_linear_deformation_keeps_integer_levels(self, hbar):
        # <N> is a count whatever phi(x) = hbar * x: its levels stay 3 and 2
        params = ModelParams(2, 1, 1.0, 20.0, 1.0, deformation=Deformation.linear(hbar))
        grid = np.logspace(math.log10(2.0 / hbar), math.log10(200.0 / hbar), 800)
        report = detect_plateaus(omega_scan(params, 3, grid))
        assert [p[2] for p in report.plateaus] == [3, 2]

    def test_deformed_staircase_small(self):
        params = ModelParams(4, 1, 1.0, 1000.0, 1.0, deformation=Deformation.q_exp(1.0))
        grid = np.logspace(math.log10(2.0), math.log10(2000.0), 600)
        report = detect_plateaus(omega_scan(params, 5, grid))
        assert [p[2] for p in report.plateaus] == [5, 4, 3, 2]

    def test_plateau_collapse_as_hbar_shrinks(self):
        # the q-deformed staircase squeezes into the single undeformed
        # crossover as hbar -> 0: inner plateaus narrow and then vanish
        F, k, n, delta = 3, 2, 6, 1000.0
        grid = np.logspace(math.log10(2.0), math.log10(3000.0), 900)
        counts, inner_widths = {}, {}
        for hbar in (1.0, 0.3, 0.1, 0.01):
            params = ModelParams(F, k, 1.0, delta, 1.0, hbar=hbar,
                                 deformation=Deformation.q_exp(hbar))
            report = detect_plateaus(omega_scan(params, n, grid))
            counts[hbar] = len(report.plateaus)
            inner = report.plateaus[1:-1]
            inner_widths[hbar] = sum(math.log10(hi / lo) for lo, hi, _ in inner)
        assert counts[1.0] == k * (F - 1) + 1 == 5
        assert counts[0.3] == counts[0.1] == 5
        assert inner_widths[0.3] > inner_widths[0.1]  # regimes shrinking
        assert counts[0.01] == 2  # fully collapsed to the undeformed pair


@pytest.mark.parametrize("phi", [Deformation.undeformed(), Deformation.q_exp(0.4),
                                 Deformation.parafermionic(9)], ids=["undeformed", "qexp", "parafermionic"])
@pytest.mark.parametrize("F,k,n", [(2, 1, 0), (2, 3, 6), (3, 3, 8), (4, 2, 9)])
def test_diagonal_operators_match_the_per_state_loop(F, k, n, phi):
    # in the real form's order: the documented basis for a complex block,
    # the block's own for F = 2 and k = 1, whose real form is its real part
    params = ModelParams(F, k, 1.0, 1.0, 1.0, deformation=phi)
    block = build_block(params, n)
    order = reversal_basis(block)[0] if F > 2 and k > 1 else list(range(block.dim))
    expected = loop_operators(block, params)[order]
    assert blocks._real_form(block, params)[1].tobytes() == expected.tobytes()
