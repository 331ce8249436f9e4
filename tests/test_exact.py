import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parafermi_jc import (
    Deformation,
    ModelParams,
    NumericalError,
    OutOfRegimeError,
    ParameterError,
    build_block,
    eigenvalues_only,
    exact_f2_deformed,
    exact_f2_undeformed,
    exact_f3_k1,
    semiclassical_level_table,
    semiclassical_z_f2_closed_form,
    log_sum_exp,
)
from parafermi_jc.exact import _linearized_f2, _linearized_k1

COUPLING_GRID = (0.1, 1.0, 10.0)


def linearized_z(F, k, n, hbar, omega, delta, g, beta=1.0):
    """Partition sum of the linearized levels at one omega: a one-point table
    reduced by log_sum_exp."""
    levels = semiclassical_level_table(F, k, n, hbar, [omega], delta, g)
    return math.exp(log_sum_exp(levels[0], -beta))


def numeric_spectrum(F, k, n, omega, delta, g, deformation=None):
    p = ModelParams(F, k, omega, delta, g,
                    deformation=deformation or Deformation.undeformed())
    return eigenvalues_only(build_block(p, n).matrix)


def assert_levels_match_eigvalsh(closed_form, deformation=None):
    """closed_form(k, n, omega, delta, g) against eigvalsh level by level,
    relative to each level, for delta from 1e-3 to 1e300: the pair's smaller
    level, about n omega beside delta, survives any delta."""
    for k, n in ((1, 1), (1, 3), (2, 4), (3, 3), (3, 5)):
        for delta in np.logspace(-3, 300, 31):
            for omega, g in ((1.3, 0.5), (0.7, 2.0)):
                params = ModelParams(2, k, omega, float(delta), g,
                                     deformation=deformation or Deformation.undeformed())
                exact = closed_form(k, n, omega, float(delta), g).values()
                ref = np.linalg.eigvalsh(build_block(params, n).matrix)
                assert np.max(np.abs(exact - ref) / np.abs(ref)) <= 1e-13, (k, n, delta, omega, g)


class TestF2Undeformed:
    def test_hand_diagonalized_case(self):
        spec = exact_f2_undeformed(1, 1, 1.0, 1.0, 1.0)
        assert spec.values() == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_degeneracy_row(self):
        spec = exact_f2_undeformed(3, 4, 1.0, 2.0, 0.5)
        assert sorted(d for _, d in spec.levels) == [1, 1, 1, 1, 2, 2]
        assert sum(d for _, d in spec.levels) == 8

    def test_g_zero_collapses_to_diagonal(self):
        k, n, omega, delta = 2, 3, 0.9, 2.1
        exact = exact_f2_undeformed(k, n, omega, delta, 0.0).values()
        numeric = numeric_spectrum(2, k, n, omega, delta, 0.0)
        assert exact == pytest.approx(list(numeric), abs=1e-12)

    def test_multiset_matches_numerics_on_grid(self):
        for k in (1, 2, 3):
            for n in (k, k + 2):
                for omega, delta, g in itertools.product(COUPLING_GRID, repeat=3):
                    exact = exact_f2_undeformed(k, n, omega, delta, g).values()
                    numeric = numeric_spectrum(2, k, n, omega, delta, g)
                    assert np.max(np.abs(exact - numeric) / (1 + np.abs(numeric))) <= 1e-9

    def test_trace_identity(self):
        for k, n in ((2, 3), (4, 6)):
            spec = exact_f2_undeformed(k, n, 1.3, 0.7, 2.0)
            trace = np.trace(build_block(ModelParams(2, k, 1.3, 0.7, 2.0), n).matrix).real
            assert sum(spec.values()) == pytest.approx(trace, rel=1e-9)

    def test_out_of_regime(self):
        with pytest.raises(OutOfRegimeError):
            exact_f2_undeformed(1, 0, 1.0, 1.0, 1.0)
        with pytest.raises(OutOfRegimeError):
            exact_f2_undeformed(3, 2, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("k,n,omega,delta,g", [(1, 3, 1.0, 1.0, 1e155), (2, 4, 1.0, 1e300, 1.0),
                                                   (3, 5, -1e300, 1.0, 1e-3)])
    def test_huge_couplings_stay_finite(self, k, n, omega, delta, g):
        # 4 k g^2 (n - l) or (delta - omega)^2 would leave the float range; the
        # levels do not
        exact = exact_f2_undeformed(k, n, omega, delta, g).values()
        numeric = np.linalg.eigvalsh(build_block(ModelParams(2, k, omega, delta, g), n).matrix)
        assert np.max(np.abs(exact - numeric)) <= 1e-13 * np.max(np.abs(numeric))

    def test_levels_match_eigvalsh_over_delta(self):
        assert_levels_match_eigvalsh(exact_f2_undeformed)

    def test_overflowing_level_named(self):
        with pytest.raises(NumericalError) as caught:
            exact_f2_undeformed(1, 3, 1.0, 1.7e308, 1.0)
        assert str(caught.value) == ("float overflow in the F=2 level formula "
                                     "(k=1, n=3, l=0, omega=1.0, delta=1.7e+308, g=1.0)")


class TestF2Deformed:
    def test_undeformed_structure_function_reduces(self):
        spec = exact_f2_deformed(1, 1, 1.0, 1.0, 1.0, Deformation.undeformed())
        assert spec.values() == pytest.approx([0.0, 2.0], abs=1e-12)
        for k, n in ((2, 3), (3, 5)):
            direct = exact_f2_undeformed(k, n, 1.1, 2.3, 0.8).values()
            via_phi = exact_f2_deformed(k, n, 1.1, 2.3, 0.8, Deformation.undeformed()).values()
            assert via_phi == pytest.approx(list(direct), abs=1e-10)

    def test_matches_numerics_qexp(self):
        phi = Deformation.q_exp(1.0)
        exact = exact_f2_deformed(2, 3, 1.0, 2.0, 0.5, phi).values()
        numeric = numeric_spectrum(2, 2, 3, 1.0, 2.0, 0.5, phi)
        assert np.max(np.abs(exact - numeric)) <= 1e-9

    def test_matches_numerics_on_grid(self):
        phi = Deformation.q_exp(1.0)
        for k in (1, 2):
            for n in (k, k + 3):
                for omega, delta, g in itertools.product(COUPLING_GRID, repeat=3):
                    exact = exact_f2_deformed(k, n, omega, delta, g, phi).values()
                    numeric = numeric_spectrum(2, k, n, omega, delta, g, phi)
                    assert np.max(np.abs(exact - numeric) / (1 + np.abs(numeric))) <= 1e-9

    def test_g_zero_matches_diagonal(self):
        phi = Deformation.linear(1.0)
        exact = exact_f2_deformed(2, 4, 1.7, 0.6, 0.0, phi).values()
        numeric = numeric_spectrum(2, 2, 4, 1.7, 0.6, 0.0, phi)
        assert exact == pytest.approx(list(numeric), abs=1e-12)

    def test_regime_guard(self):
        with pytest.raises(OutOfRegimeError):
            exact_f2_deformed(3, 2, 1.0, 1.0, 1.0, Deformation.undeformed())

    @pytest.mark.parametrize("k,n,omega,delta,g,phi", [
        (1, 3, 1.0, 1.0, 1e155, Deformation.undeformed()),
        (2, 4, 1.0, 1.0, 1e155, Deformation.q_exp(1.0)),
        (2, 4, 1.0, 1e300, 1.0, Deformation.linear(0.5)),
        (3, 5, -1e300, 1.0, 1e-3, Deformation.undeformed()),
    ])
    def test_huge_couplings_stay_finite(self, k, n, omega, delta, g, phi):
        # 4 k g^2 or (delta + omega phi)^2 would leave the float range; the
        # levels do not
        exact = exact_f2_deformed(k, n, omega, delta, g, phi).values()
        numeric = numeric_spectrum(2, k, n, omega, delta, g, phi)
        assert np.max(np.abs(exact - numeric)) <= 1e-13 * np.max(np.abs(numeric))

    @pytest.mark.parametrize("phi", [Deformation.undeformed(), Deformation.q_exp(1.0),
                                     Deformation.linear(0.5)], ids=["undeformed", "qexp", "linear"])
    def test_levels_match_eigvalsh_over_delta(self, phi):
        assert_levels_match_eigvalsh(
            lambda k, n, omega, delta, g: exact_f2_deformed(k, n, omega, delta, g, phi), phi)

    def test_overflowing_level_named(self):
        with pytest.raises(NumericalError) as caught:
            exact_f2_deformed(3, 6, 1.0, 1.7e308, 1.0, Deformation.undeformed())
        assert str(caught.value) == ("float overflow in the deformed F=2 level formula "
                                     "(k=3, n=6, l=0, omega=1.0, delta=1.7e+308, g=1.0)")


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


@st.composite
def f3_couplings(draw):
    """(n, omega, delta, g) for F=3, k=1: n in 3..40, omega and delta in
    1e-3..1e3 and g in 1e-6..1e2, log-uniform, with delta within 1e-12..1e-3
    of omega one time in five."""
    n, omega, g = draw(st.integers(3, 40)), draw(log_uniform(1e-3, 1e3)), draw(log_uniform(1e-6, 1e2))
    if draw(st.integers(0, 4)):
        return n, omega, draw(log_uniform(1e-3, 1e3)), g
    return n, omega, omega + draw(st.sampled_from((-1.0, 1.0))) * draw(log_uniform(1e-12, 1e-3)), g


#: Each closed form at n, with the least n of its regime: k(F-1) for the F=2
#: spectra, k(F-1) + 1 for the rest.
REGIMES = {
    "exact_f2_undeformed": (lambda n: exact_f2_undeformed(3, n, 1.0, 2.0, 0.5).values(), 3),
    "exact_f2_deformed": (lambda n: exact_f2_deformed(3, n, 1.0, 2.0, 0.5, Deformation.q_exp(0.5)).values(), 3),
    "exact_f3_k1": (lambda n: exact_f3_k1(n, 1.0, 2.0, 1.0).values(), 3),
    "semiclassical_level_table_f2": (lambda n: semiclassical_level_table(2, 3, n, 1.0, [1.0], 20.0, 1.0), 4),
    "semiclassical_level_table_k1": (lambda n: semiclassical_level_table(4, 1, n, 1.0, [1.0], 20.0, 1.0), 4),
    "semiclassical_z_f2_closed_form": (lambda n: semiclassical_z_f2_closed_form(3, n, 1.0, 1.0, 20.0, 1.0), 4),
}


@pytest.mark.parametrize("entry", sorted(REGIMES))
def test_regime_boundary(entry):
    closed_form, least = REGIMES[entry]
    with pytest.raises(OutOfRegimeError):
        closed_form(least - 1)
    assert np.all(np.isfinite(closed_form(least)))


class TestF3Cubic:
    def test_matches_numerics_point(self):
        exact = exact_f3_k1(3, 1.0, 2.0, 1.0).values()
        numeric = numeric_spectrum(3, 1, 3, 1.0, 2.0, 1.0)
        assert np.max(np.abs(exact - numeric)) <= 1e-8

    def test_matches_numerics_on_grid(self):
        for n in range(3, 9):
            for omega, delta, g in itertools.product(COUPLING_GRID, repeat=3):
                exact = exact_f3_k1(n, omega, delta, g).values()
                numeric = numeric_spectrum(3, 1, n, omega, delta, g)
                assert np.max(np.abs(exact - numeric) / (1 + np.abs(numeric))) <= 1e-8

    def test_small_g_approaches_diagonal(self):
        n, omega = 3, 1.0
        exact = exact_f3_k1(n, omega, omega, 1e-6).values()
        numeric = numeric_spectrum(3, 1, n, omega, omega, 1e-6)
        assert exact == pytest.approx(list(numeric), abs=1e-10)

    def test_degenerate_inner_root_fallback(self):
        # g = 0 with omega = delta collapses the depressed cubic to x^3 = 0: r = 0
        exact = exact_f3_k1(4, 1.0, 1.0, 0.0).values()
        assert exact == pytest.approx([4.0, 4.0, 4.0], abs=1e-12)

    @pytest.mark.parametrize("g", [0.0, 1e-12])
    def test_vanishing_w_matches_numerics(self, g):
        # delta = omega with g <= 1e-12 makes the radical form's W^3 vanish;
        # the trigonometric method needs no W
        exact = exact_f3_k1(3, 1.0, 1.0, g).values()
        numeric = numeric_spectrum(3, 1, 3, 1.0, 1.0, g)
        assert np.max(np.abs(exact - numeric)) <= 1e-8

    def test_trace_identity(self):
        # the root phases sum to zero, leaving 3*(delta + (n-1)*omega)
        for n in (3, 6):
            spec = exact_f3_k1(n, 1.2, 3.4, 0.9)
            trace = np.trace(build_block(ModelParams(3, 1, 1.2, 3.4, 0.9), n).matrix).real
            assert sum(spec.values()) == pytest.approx(trace, rel=1e-9)
            assert sum(spec.values()) == pytest.approx(3 * (3.4 + (n - 1) * 1.2), rel=1e-9)

    def test_regime_guard(self):
        with pytest.raises(OutOfRegimeError):
            exact_f3_k1(2, 1.0, 1.0, 1.0)

    def test_overflowing_level_named(self):
        with pytest.raises(NumericalError) as caught:
            exact_f3_k1(3, 1.0, 1.0, 1e308)
        assert str(caught.value) == ("float overflow in the F=3, k=1 level formula "
                                     "(n=3, omega=1.0, delta=1.0, g=1e+308)")

    def test_trigonometric_fallback_helper(self):
        # x^3 - 7x + 6 = (x - 1)(x - 2)(x + 3), as x^3 - r^2 x + u r^3 with r^2 = 7
        from parafermi_jc.exact import _trigonometric_roots

        roots = _trigonometric_roots(math.sqrt(7.0), 6.0 / 7.0 ** 1.5)
        assert roots == pytest.approx([-3.0, 1.0, 2.0], abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(case=f3_couplings())
    @example(case=(3, 1.0, 2.0, 1e155))
    @example(case=(5, 1.0, 1e200, 1.0))
    @example(case=(4, 1.0, 1.0, 0.0))
    @example(case=(3, 1.0, 1.0, 1e-12))
    def test_matches_eigvalsh(self, case):
        n, omega, delta, g = case
        exact = exact_f3_k1(n, omega, delta, g).values()
        numeric = np.linalg.eigvalsh(build_block(ModelParams(3, 1, omega, delta, g), n).matrix)
        assert np.max(np.abs(exact - numeric)) <= 1e-13 * np.max(np.abs(numeric))


class TestSemiclassicalLevels:
    def test_hbar_zero_limit(self):
        values = sorted(set(semiclassical_level_table(2, 2, 4, 0.0, [1.0], 3.0, 1.0)[0]))
        expected = sorted(set(3.0 * (2 * 2 - 2 * l + s - 1) / 2 for l in range(2) for s in (1, -1)))
        assert values == pytest.approx(expected, abs=1e-12)

    def test_degeneracy_sum(self):
        for k in (1, 2, 3, 4):
            _, degeneracies = _linearized_f2(k, k + 2, 1.0, [1.0], 20.0, 1.0)
            assert sum(degeneracies) == 2 ** k
            assert semiclassical_level_table(2, k, k + 2, 1.0, [1.0], 20.0, 1.0).shape == (1, 2 ** k)

    def test_close_to_exact_for_large_delta(self):
        # linearization drops O(hbar^2) pieces; at delta = 20 they are small
        exact = exact_f2_undeformed(1, 2, 1.0, 20.0, 1.0).values()
        linear = semiclassical_level_table(2, 1, 2, 1.0, [1.0], 20.0, 1.0)[0]
        assert np.max(np.abs(exact - linear)) <= 0.05

    def test_delta_zero_rejected(self):
        with pytest.raises(ParameterError):
            semiclassical_level_table(2, 1, 2, 1.0, [1.0], 0.0, 1.0)
        with pytest.raises(ParameterError):
            semiclassical_level_table(3, 1, 3, 1.0, [1.0], 0.0, 1.0)

    @pytest.mark.parametrize("hbar,omega,delta,g", [(1.0, 1.0, 20.0, 1.0), (0.3, 37.1, -2.5, 0.7),
                                                    (2.5, 1e-3, 1e-3, 5.0), (0.0, 3.0, 7.0, 0.0)])
    def test_levels_match_python_float_reference(self, hbar, omega, delta, g):
        # the formulas evaluated on Python floats one level at a time, in the
        # documented order: the array evaluation gives the same bits
        for k in (1, 2, 3):
            n = k + 2
            expected = [
                ((2.0 * g * g * k * s * hbar * (l + n - k + 1)
                  + delta * delta * (2 * k - 2 * l + s - 1)
                  + delta * omega * hbar * (2 * l + 2 * n - 2 * k - s + 1)) / (2.0 * delta),
                 math.comb(k - 1, l))
                for l in range(k) for s in (+1, -1)]
            values, degeneracies = _linearized_f2(k, n, hbar, [omega], delta, g)
            assert list(zip(values[0].tolist(), degeneracies)) == expected
        for F in (2, 3, 5):
            n = F + 1
            expected = [
                hbar * n * (delta * omega - g * g) / delta,
                delta * (F - 1) + g * g * (n - F + 2) * hbar / delta + (n + 1 - F) * omega * hbar,
                *(omega * hbar * (n - s) + g * g * hbar / delta + delta * s for s in range(1, F - 1)),
            ]
            values, degeneracies = _linearized_k1(F, n, hbar, [omega], delta, g)
            assert values[0].tolist() == expected and degeneracies == [1] * F

    @pytest.mark.parametrize("F,k,n", [(2, 1, 2), (2, 2, 5), (2, 3, 7), (2, 1, 4), (3, 1, 5),
                                       (4, 1, 6), (5, 1, 7)])
    def test_table_rows_are_one_point_values(self, F, k, n):
        # each row of a grid's table is the one-point table of its omega, bit for bit
        omegas = [-3.0, 0.0, 0.5, 1.7, 80.0, 2.5e5]
        for hbar, delta, g in [(1.0, 20.0, 1.0), (0.01, -3.0, 2.5), (0.0, 1e-3, 0.0)]:
            table = semiclassical_level_table(F, k, n, hbar, omegas, delta, g)
            rows = [semiclassical_level_table(F, k, n, hbar, [w], delta, g)[0] for w in omegas]
            assert np.array_equal(table, np.array(rows))

    def test_table_names_first_overflowing_omega(self):
        omegas = [1.0, 1e299, 1e300, 2e300]
        with pytest.raises(NumericalError) as caught:
            semiclassical_level_table(2, 2, 4, 1.0, omegas, 1e10, 1.0)
        assert caught.value.index == 1
        with pytest.raises(NumericalError) as alone:
            semiclassical_level_table(2, 2, 4, 1.0, [1e299], 1e10, 1.0)
        assert alone.value.index == 0
        assert str(caught.value) == str(alone.value)
        assert "omega=1e+299" in str(alone.value)

    def test_integral_float_order_and_modes(self):
        # the shared rule of algebra: an integral float is its int
        assert exact_f2_undeformed(2.0, 4, 1.0, 2.0, 0.5) == exact_f2_undeformed(2, 4, 1.0, 2.0, 0.5)
        assert (exact_f2_deformed(2.0, 4, 1.0, 2.0, 0.5, Deformation.q_exp(0.5))
                == exact_f2_deformed(2, 4, 1.0, 2.0, 0.5, Deformation.q_exp(0.5)))
        for F, k in ((2, 2.0), (3.0, 1), (2.0, 1.0)):
            assert np.array_equal(semiclassical_level_table(F, k, 5, 1.0, [1.0, 3.0], 20.0, 1.0),
                                  semiclassical_level_table(int(F), int(k), 5, 1.0, [1.0, 3.0],
                                                            20.0, 1.0))
        assert (semiclassical_z_f2_closed_form(2.0, 4, 1.0, 1.0, 20.0, 1.0)
                == semiclassical_z_f2_closed_form(2, 4, 1.0, 1.0, 20.0, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.5, 0])
    def test_order_and_modes_rejected_by_the_shared_rule(self, bad):
        named = "must be an integer >= "
        with pytest.raises(ParameterError, match=f"mode count k {named}1"):
            exact_f2_undeformed(bad, 4, 1.0, 2.0, 0.5)
        with pytest.raises(ParameterError, match=f"mode count k {named}1"):
            exact_f2_deformed(bad, 4, 1.0, 2.0, 0.5, Deformation.q_exp(0.5))
        with pytest.raises(ParameterError, match=f"mode count k {named}1"):
            semiclassical_level_table(2, bad, 5, 1.0, [1.0], 20.0, 1.0)
        with pytest.raises(ParameterError, match=f"mode count k {named}1"):
            semiclassical_z_f2_closed_form(bad, 4, 1.0, 1.0, 20.0, 1.0)
        with pytest.raises(ParameterError, match=f"nilpotency order F {named}2"):
            semiclassical_level_table(bad, 1, 5, 1.0, [1.0], 20.0, 1.0)

    def test_table_regime_checks(self):
        with pytest.raises(ParameterError, match="closed forms"):
            semiclassical_level_table(3, 2, 6, 1.0, [1.0], 20.0, 1.0)
        with pytest.raises(OutOfRegimeError):
            semiclassical_level_table(2, 2, 2, 1.0, [1.0], 20.0, 1.0)
        with pytest.raises(OutOfRegimeError):
            semiclassical_level_table(4, 1, 3, 1.0, [1.0], 20.0, 1.0)


class TestSemiclassicalPartition:
    def test_sum_equals_closed_form(self):
        for (k, n, hbar, omega, delta, g) in [
            (1, 2, 1.0, 1.0, 20.0, 1.0),
            (2, 4, 1.0, 5.0, 20.0, 1.0),
            (3, 6, 0.5, 2.0, 7.0, 0.8),
            (4, 8, 0.2, 1.5, 5.0, 1.2),
        ]:
            z_sum = linearized_z(2, k, n, hbar, omega, delta, g)
            z_closed = semiclassical_z_f2_closed_form(k, n, hbar, omega, delta, g)
            assert abs(z_sum - z_closed) / z_closed <= 1e-10

    def test_boltzmann_reduction_at_g0_h0(self):
        k, n, delta, beta = 3, 5, 2.0, 1.0
        z = linearized_z(2, k, n, 0.0, 1.0, delta, 0.0, beta)
        expected = sum(
            math.comb(k - 1, l) * (math.exp(-beta * delta * (k - l)) + math.exp(-beta * delta * (k - l - 1)))
            for l in range(k)
        )
        assert z == pytest.approx(expected, rel=1e-12)

    def test_within_five_percent_of_numeric(self):
        k, n, delta, hbar, omega, g, beta = 2, 4, 20.0, 1.0, 5.0, 1.0, 1.0
        p = ModelParams(2, k, omega, delta, g, hbar=hbar, beta=beta,
                        deformation=Deformation.linear(hbar))
        log_z_num = log_sum_exp(-beta * eigenvalues_only(build_block(p, n).matrix))
        z_sc = linearized_z(2, k, n, hbar, omega, delta, g, beta)
        assert abs(math.log(z_sc) - log_z_num) / abs(log_z_num) <= 0.05

    def test_single_mode_consistent_with_f2(self):
        for (n, hbar, omega, delta, g) in [(2, 1.0, 1.0, 20.0, 1.0), (5, 0.3, 4.0, 10.0, 0.5)]:
            # the table sends F = 2, k = 1 to the F = 2 formula: compare the formulas
            z_f, z_k = (math.exp(log_sum_exp(np.sort(values[0]), -1.0)) for values, _ in
                        (_linearized_k1(2, n, hbar, [omega], delta, g),
                         _linearized_f2(1, n, hbar, [omega], delta, g)))
            assert abs(z_f - z_k) / z_k <= 1e-10

    def test_single_mode_boltzmann_ladder(self):
        # g = 0, omega = 0, beta = 1: 1 + e^{-delta (F-1)} + sum_s e^{-delta s}
        F, n, delta = 4, 5, 1.7
        z = linearized_z(F, 1, n, 1.0, 0.0, delta, 0.0)
        expected = 1.0 + math.exp(-delta * (F - 1)) + sum(math.exp(-delta * s) for s in range(1, F - 1))
        assert z == pytest.approx(expected, rel=1e-12)

    def test_single_mode_within_five_percent_of_numeric(self):
        F, n, hbar, delta, omega, g, beta = 3, 5, 1.0, 20.0, 2.0, 1.0, 1.0
        p = ModelParams(F, 1, omega, delta, g, hbar=hbar, beta=beta,
                        deformation=Deformation.linear(hbar))
        log_z_num = log_sum_exp(-beta * eigenvalues_only(build_block(p, n).matrix))
        z_sc = linearized_z(F, 1, n, hbar, omega, delta, g, beta)
        assert abs(math.log(z_sc) - log_z_num) / abs(log_z_num) <= 0.05

    def test_semiclassical_error_vanishes_with_hbar(self):
        k, n, omega, delta, g = 2, 4, 2.0, 5.0, 1.0
        errors = {}
        for hbar in (0.1, 0.01):
            p = ModelParams(2, k, omega, delta, g, hbar=hbar,
                            deformation=Deformation.linear(hbar))
            log_z_num = log_sum_exp(-eigenvalues_only(build_block(p, n).matrix))
            errors[hbar] = abs(math.log(linearized_z(2, k, n, hbar, omega, delta, g)) - log_z_num)
        assert errors[0.01] <= errors[0.1] / 20.0
        assert errors[0.01] <= 1e-4

    def test_regime_guards(self):
        with pytest.raises(OutOfRegimeError):
            linearized_z(2, 2, 2, 1.0, 1.0, 20.0, 1.0)
        with pytest.raises(OutOfRegimeError):
            linearized_z(4, 1, 3, 1.0, 1.0, 20.0, 1.0)

    def test_closed_form_overflow_reported(self):
        from parafermi_jc import NumericalError

        with pytest.raises(NumericalError):
            semiclassical_z_f2_closed_form(2, 4, 1.0, 1.0, 2000.0, 1.0)
        # the summed form survives the same parameters
        assert linearized_z(2, 2, 4, 1.0, 1.0, 2000.0, 1.0) > 0.0
