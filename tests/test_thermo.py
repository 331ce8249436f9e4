import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parafermi_jc import thermo
from parafermi_jc import (
    Deformation,
    ModelParams,
    NumericalError,
    ParameterError,
    ThermoObservables,
    build_block,
    detect_plateaus,
    eigendecompose,
    log_sum_exp,
    n_via_mu_derivative,
    omega_scan,
    phi_n_via_omega_derivative,
    thermo_from_spectrum,
)
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

    @pytest.mark.parametrize("values,scale", [([1.0, math.inf], 1.0), ([1.0, -math.inf], 1.0),
                                              ([1.0, math.nan], 1.0), ([1.0, 1e300], -1e300)],
                             ids=["inf", "minus_inf", "nan", "overflowing_term"])
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


class TestThermoFromSpectrum:
    def test_conservation_error_on_staircase_block(self):
        # the F=3, k=3, n=8 qexp staircase of acceptance criterion 07 (d = 27)
        for omega in np.logspace(math.log10(0.2), math.log10(2000.0), 12):
            params = ModelParams(3, 3, float(omega), 1000.0, 1.0, hbar=1.0,
                                 deformation=Deformation.q_exp(1.0))
            obs = thermo_from_spectrum(params, 8)
            assert obs.conservation_error == abs(obs.n_expect + obs.w_expect - 8)
            assert obs.conservation_error <= 1e-9

    def test_two_degenerate_levels(self):
        # g = 0 block at n = 1: both states at energy 1, symmetric occupations
        obs = thermo_from_spectrum(ModelParams(2, 1, 1.0, 1.0, 0.0), 1)
        assert obs.z == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        assert obs.n_expect == pytest.approx(0.5, abs=1e-12)
        assert obs.w_expect == pytest.approx(0.5, abs=1e-12)
        assert obs.free_energy == pytest.approx(-math.log(2.0 * math.exp(-1.0)), rel=1e-12)

    def test_ground_state_projection_at_low_temperature(self):
        # beta = 50 proxy for the zero-temperature limit, small omega:
        # the boson count sits on the upper plateau value n
        obs = thermo_from_spectrum(ModelParams(2, 1, 0.5, 20.0, 1.0, beta=50.0), 3)
        assert obs.n_expect == pytest.approx(3.0, abs=0.02)

    def test_deep_suppression_underflows_z_but_not_logz(self):
        obs = thermo_from_spectrum(
            ModelParams(4, 1, 700.0, 1000.0, 1.0, deformation=Deformation.q_exp(1.0)), 5
        )
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
        obs = thermo_from_spectrum(params, n)
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
        obs = thermo_from_spectrum(params, n)
        assert abs(obs.n_expect + obs.w_expect - n) <= 1e-9


class TestDerivativeRoutes:
    def test_g_zero_derivative_equals_boltzmann_average(self):
        params = ModelParams(3, 1, 0.9, 1.4, 0.0)
        obs = thermo_from_spectrum(params, 2)
        fd = phi_n_via_omega_derivative(params, 2, 1e-5)
        assert fd == pytest.approx(obs.phi_n_expect, abs=1e-8)

    def test_omega_route_matches_trace(self):
        params = ModelParams(3, 2, 1.3, 0.8, 0.9, beta=0.7,
                             deformation=Deformation.q_exp(0.2))
        obs = thermo_from_spectrum(params, 4)
        assert phi_n_via_omega_derivative(params, 4, 1e-4) == pytest.approx(obs.phi_n_expect, abs=1e-6)

    def test_mu_route_matches_trace(self):
        params = ModelParams(4, 2, 0.6, 1.9, 1.1, beta=0.9,
                             deformation=Deformation.linear(0.8))
        obs = thermo_from_spectrum(params, 5)
        assert n_via_mu_derivative(params, 5, 1e-4) == pytest.approx(obs.n_expect, abs=1e-6)

    def test_mu_route_g_zero_boltzmann_average(self):
        params = ModelParams(3, 2, 1.1, 0.7, 0.0, beta=0.8)
        obs = thermo_from_spectrum(params, 3)
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
        assert thermo_from_spectrum(params, 3).n_expect == pytest.approx(2.5)
        with pytest.raises(ParameterError, match=r"step 0\.0001 .*\(F=2, k=1, n=3\)"):
            n_via_mu_derivative(params, 3, 1e-4)

    @pytest.mark.parametrize("route", [n_via_mu_derivative, phi_n_via_omega_derivative])
    def test_step_lost_in_some_entries_rejected(self, route):
        # omega = 1: the W = 0 entries keep the step and the W = 1 entries at
        # 1e13 lose it, so both routes would read 2.776 where the trace gives 2.731
        params = ModelParams(2, 1, 1.0, 1e13, 1.0, beta=1e-13)
        assert thermo_from_spectrum(params, 3).n_expect == pytest.approx(2.731, abs=1e-3)
        with pytest.raises(ParameterError, match=r"step 0\.0001 .*\(F=2, k=1, n=3\)"):
            route(params, 3, 1e-4)

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
            alone = thermo_from_spectrum(params.with_omega(omega), 4)
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

#: Traced peak of a one-stack scan over the bytes of its complex (G, d, d)
#: stack.  The 40-point dim-27 staircase grid measures 5.34 (numpy 2.4,
#: Python 3.11); before the eigensolver's working set was trimmed it was 7.2.
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


class TestDetectPlateaus:
    def test_synthetic_staircase(self):
        omegas = [1, 2, 3, 4, 5, 6, 7, 8]
        values = [3.01, 2.98, 2.6, 2.05, 1.97, 1.5, 1.02, 0.99]
        scan = [(float(w), obs_stub(v)) for w, v in zip(omegas, values)]
        report = detect_plateaus(scan, tol=0.1)
        assert [p[2] for p in report.plateaus] == [3, 2, 1]
        assert report.plateaus[0][:2] == (1.0, 2.0)
        assert report.crossover_points == (pytest.approx(3.0), pytest.approx(6.0))

    def test_adjacent_runs_split_on_level_change(self):
        scan = [(1.0, obs_stub(2.02)), (2.0, obs_stub(1.98)), (3.0, obs_stub(1.04)), (4.0, obs_stub(0.97))]
        report = detect_plateaus(scan, tol=0.1)
        assert [p[2] for p in report.plateaus] == [2, 1]

    def test_no_plateau_is_valid(self):
        scan = [(1.0, obs_stub(0.5)), (2.0, obs_stub(1.5))]
        report = detect_plateaus(scan, tol=0.1)
        assert report.plateaus == ()
        assert report.crossover_points == ()

    def test_hbar_rescaling(self):
        scan = [(1.0, obs_stub(1.5)), (2.0, obs_stub(1.5))]
        assert detect_plateaus(scan, hbar=0.5, tol=0.1).plateaus[0][2] == 3

    def test_tolerance_validated(self):
        with pytest.raises(ParameterError):
            detect_plateaus([(1.0, obs_stub(1.0))], tol=0.6)
        with pytest.raises(ParameterError):
            detect_plateaus([(1.0, obs_stub(1.0))], hbar=0.0)


class TestStaircasePhysics:
    def test_undeformed_two_plateaus(self):
        params = ModelParams(2, 1, 1.0, 20.0, 1.0)
        grid = np.logspace(math.log10(2.0), math.log10(200.0), 400)
        report = detect_plateaus(omega_scan(params, 4, grid))
        assert [p[2] for p in report.plateaus] == [4, 3]
        assert len(report.crossover_points) == 1
        assert abs(report.crossover_points[0] - 20.0) <= 4.0

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
