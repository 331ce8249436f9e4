import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermi_jc import Deformation, DeformationError, NumericalError, ParameterError, evaluate

ALL_VARIANTS = [
    Deformation.undeformed(),
    Deformation.linear(2.0),
    Deformation.q_exp(1.0),
    Deformation.parafermionic(4),
    Deformation.custom(lambda x: x * x),
]


@pytest.mark.parametrize("phi", ALL_VARIANTS, ids=lambda d: d.kind)
def test_vanishes_at_zero(phi):
    assert evaluate(phi, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_point_values():
    assert evaluate(Deformation.undeformed(), 5) == 5.0
    assert evaluate(Deformation.q_exp(1.0), 1) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(Deformation.parafermionic(4), 2) == pytest.approx(4.0, abs=1e-12)
    assert evaluate(Deformation.linear(2.0), 3) == pytest.approx(6.0, abs=1e-12)


def test_ladder_amplitudes():
    # a|n> = sqrt(phi(n))|n-1> and a^dag|n> = sqrt(phi(n+1))|n+1>, read off evaluate
    def amplitudes(phi, n):
        return math.sqrt(evaluate(phi, n)), math.sqrt(evaluate(phi, n + 1))

    assert amplitudes(Deformation.undeformed(), 0) == (0.0, 1.0)
    lo, hi = amplitudes(Deformation.linear(2.0), 3)
    assert (lo, hi) == (pytest.approx(math.sqrt(6)), pytest.approx(math.sqrt(8)))
    lo, hi = amplitudes(Deformation.q_exp(1.0), 2)
    assert lo == pytest.approx(math.sqrt(math.sinh(2) / math.sinh(1)))
    assert hi == pytest.approx(math.sqrt(math.sinh(3) / math.sinh(1)))
    with pytest.raises(ParameterError):
        evaluate(Deformation.undeformed(), -1)


@pytest.mark.parametrize(
    "phi",
    [Deformation.undeformed(), Deformation.linear(0.7), Deformation.q_exp(0.9)],
    ids=lambda d: d.kind,
)
def test_monotone_on_integers(phi):
    values = [evaluate(phi, x) for x in range(0, 12)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_parafermionic_zeros_and_values():
    phi = Deformation.parafermionic(5)
    assert phi(0.0) == 0.0
    assert phi(5.0) == 0.0
    for j in range(6):
        assert phi(float(j)) == j * (5 - j)


@given(st.integers(0, 10), st.sampled_from([1e-2, 1e-3]))
@settings(max_examples=40, deadline=None)
def test_qexp_small_hbar_limit(n, hbar):
    # sinh(h n)/sinh(h) = n (1 + h^2 (n^2-1)/6 + ...), so the deviation from n
    # is bounded by C(n) h^2 with C(n) = n(n^2-1)/4 (slack over the 1/6)
    phi = Deformation.q_exp(hbar)
    bound = max(n * (n * n - 1) / 4.0, 1.0) * hbar * hbar
    assert abs(phi(n) - n) <= bound


def test_q_numbers_accurate_at_tiny_hbar():
    # the difference form (e^{2h} - e^{-2h}) / (e^h - e^-h) gave 3.0 here
    assert Deformation.q_exp(5.6e-17)(2) == pytest.approx(2.0, rel=1e-15)


def test_negative_value_rejected():
    phi = Deformation.custom(lambda x: -x)
    with pytest.raises(DeformationError):
        evaluate(phi, 1.0)


def test_overflow_named():
    # sinh(2100) overflows math.sinh; a custom function's OverflowError alike
    with pytest.raises(NumericalError, match=r"kind='qexp', param=700\.0\) overflows at x=3"):
        evaluate(Deformation.q_exp(700.0), 3)
    with pytest.raises(NumericalError, match=r"kind='custom', param=None\) overflows at x=2"):
        evaluate(Deformation.custom(lambda x: math.expm1(1000.0 * x)), 2)


def test_custom_must_vanish_at_zero():
    with pytest.raises(DeformationError):
        Deformation.custom(lambda x: x + 1.0)


def test_qexp_accepts_every_hbar_with_a_normal_sinh():
    # e^-hbar rounds to 1 here, but sinh(hbar) is a normal float
    assert Deformation.q_exp(1e-17)(2) == 2.0
    with pytest.raises(ParameterError):
        Deformation.q_exp(800.0)  # sinh(hbar) overflows


def test_constructor_validation():
    with pytest.raises(ParameterError):
        Deformation.linear(0.0)
    with pytest.raises(ParameterError):
        Deformation.q_exp(-1.0)
    with pytest.raises(ParameterError):
        Deformation.q_exp(-1000.0)
    with pytest.raises(ParameterError):
        Deformation.q_exp(1e-310)  # e^h - e^-h rounds to 0
    with pytest.raises(ParameterError):
        Deformation.parafermionic(math.nan)
    with pytest.raises(ParameterError):
        Deformation("qsym", 2.0)  # the q form of the q-number is qexp with hbar = ln q
    with pytest.raises(ParameterError):
        Deformation.parafermionic(1)
    with pytest.raises(ParameterError):
        Deformation("nonsense")


def test_dict_round_trip():
    for phi in ALL_VARIANTS[:-1]:
        again = Deformation.from_dict(phi.to_dict())
        assert again == phi
    assert [phi.to_dict() for phi in ALL_VARIANTS[:-1]] == [
        {"type": "undeformed"}, {"type": "linear", "hbar": 2.0}, {"type": "qexp", "hbar": 1.0},
        {"type": "parafermionic", "F": 4}]
    assert Deformation.from_dict({"type": "qexp", "hbar": 1.0}) == Deformation.q_exp(1.0)
    with pytest.raises(ParameterError):
        Deformation.from_dict({"type": "qexp", "hbar": 1.0, "bogus": 2})
    with pytest.raises(ParameterError):
        Deformation.from_dict({"hbar": 1.0})
    with pytest.raises(ParameterError, match="^custom deformations are not serializable$"):
        Deformation.custom(lambda x: x).to_dict()


@pytest.mark.parametrize("record,message", [
    ({"type": "custom"}, "unknown deformation type 'custom'"),
    ({"type": "qsym", "q": 2.0}, "unknown deformation type 'qsym'"),
    ({"type": ["qexp"], "hbar": 1.0}, "unknown deformation type ['qexp']"),
    ({"type": "qexp"}, "qexp deformation record needs a 'hbar' entry"),
    ({"type": "parafermionic", "hbar": 1.0}, "parafermionic deformation record needs a 'F' entry"),
    ({"type": "qexp", "hbar": "a"}, "qexp deformation needs a number for 'hbar', got 'a'"),
    ({"type": "linear", "hbar": 1.0, "x": 1}, "unknown deformation keys: ['x']"),
    ({"type": "parafermionic", "F": 2.5}, "parafermionic deformation needs integer order >= 2"),
], ids=["custom", "qsym", "unhashable", "missing_hbar", "missing_F", "not_a_number", "extra_key",
        "bad_order"])
def test_dict_record_refusals_named(record, message):
    with pytest.raises(ParameterError) as info:
        Deformation.from_dict(record)
    assert str(info.value) == message
