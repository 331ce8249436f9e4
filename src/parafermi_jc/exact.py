"""Closed-form spectra and semiclassical partition functions.

These expressions solve special instances of the coupled parafermion-oscillator
model and serve as independent oracles for the numerical pipeline:

* F = 2, generic k: a Fourier-mode argument reduces each block to k decoupled
  two-level problems, giving 2k levels E(s, l) with binomial degeneracies
  C(k-1, l); a deformed-oscillator generalization holds in the saturated
  regime n >= k.
* F = 3, k = 1: the 3x3 block reduces to a depressed cubic; the paper's
  radical solution is evaluated by the trigonometric method, which needs no
  complex arithmetic and never squares an input.
* Linearizing the spectrum in a small parameter hbar (structure function
  hbar*x) yields closed-form partition sums accurate away from the crossover
  at omega ~ delta/hbar.  The linearized levels are affine in omega, so
  ``semiclassical_level_table`` evaluates them over a whole omega grid as one
  (points, levels) array; ``log_sum_exp`` of its rows is the linearized log Z,
  the one way to get it, and ``semiclassical_z_f2_closed_form`` is its oracle.

Each function refuses inputs outside its regime of validity instead of
extrapolating; the one rule is ``_check_regime``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _check_integer, _check_order_and_modes
from .deformations import Deformation, evaluate
from .errors import NumericalError, OutOfRegimeError, ParameterError


@dataclass(frozen=True)
class LabeledSpectrum:
    """Energy levels with multiplicities, as (value, degeneracy) pairs."""

    levels: tuple[tuple[float, int], ...]

    def values(self) -> np.ndarray:
        """Eigenvalues expanded by multiplicity, ascending."""
        out = []
        for value, degeneracy in self.levels:
            out.extend([value] * degeneracy)
        return np.sort(np.asarray(out, dtype=np.float64))


def _check_regime(form: str, F, k, n, e: int = 1, delta: float | None = None) -> tuple[int, int, int]:
    """(F, k, n) as ints, once the closed form named by form holds for them:
    n >= k(F-1) + e, with e = 0 for the F=2 spectra and 1 for the rest, and,
    for the forms expanded in hbar (those given a delta), delta != 0."""
    F, k = _check_order_and_modes(F, k)
    n = _check_integer(n, 0, "total excitation number n")
    least = k * (F - 1) + e
    if n < least:
        raise OutOfRegimeError(f"{form} needs n >= {least}, got n={n} (F={F}, k={k})")
    if delta == 0.0:
        raise ParameterError(f"{form} expands about delta != 0")
    return F, k, n


def _level_error(formula: str, index: int | None = None, **params) -> NumericalError:
    """The NumericalError naming the level formula that overflowed and its parameters."""
    named = ", ".join(f"{key}={value}" for key, value in params.items())
    return NumericalError(f"float overflow in the {formula} level formula ({named})", index=index)


def exact_f2_undeformed(k: int, n: int, omega: float, delta: float, g: float) -> LabeledSpectrum:
    """Spectrum of the F=2 block with an ordinary oscillator, n >= k.

    E(s, l) = [(2l+1) delta + (2(n-l)-1) omega
               + s * sqrt(4 k g^2 (n-l) + (delta-omega)^2)] / 2
    for l = 0..k-1, s = +-1, each with degeneracy C(k-1, l).  The root is
    taken as hypot(2 g sqrt(k(n-l)), delta - omega), which squares nothing.
    """
    _, k, n = _check_regime("F=2 closed form", 2, k, n, e=0)
    levels = []
    for l in range(k):
        root = math.hypot(2.0 * g * math.sqrt(k * (n - l)), delta - omega)
        base = (2 * l + 1) * delta + (2 * (n - l) - 1) * omega
        degeneracy = math.comb(k - 1, l)
        upper, lower = 0.5 * (base + root), 0.5 * (base - root)
        if not (math.isfinite(upper) and math.isfinite(lower)):
            raise _level_error("F=2", k=k, n=n, l=l, omega=omega, delta=delta, g=g)
        levels += [(upper, degeneracy), (lower, degeneracy)]
    return LabeledSpectrum(tuple(levels))


def exact_f2_deformed(
    k: int, n: int, omega: float, delta: float, g: float, phi: Deformation
) -> LabeledSpectrum:
    """Spectrum of the F=2 block with a deformed oscillator, n >= k.

    E(s, l) = [(2(k-l)-1) delta + s * R(l)
               + (phi(n-k+l) + phi(n-k+l+1)) omega] / 2,
    R(l)^2 = (delta + omega phi(n-k+l))^2
             + phi(n-k+l+1) (4 k g^2 - 2 omega delta
                             - 2 omega^2 phi(n-k+l) + omega^2 phi(n-k+l+1)).
    Degeneracy C(k-1, l); reduces to the undeformed multiset for phi(x) = x.
    R(l) is taken as hypot(delta - omega (phi(n-k+l+1) - phi(n-k+l)),
    2 g sqrt(k phi(n-k+l+1))), the same sum of squares, which squares nothing.
    """
    _, k, n = _check_regime("F=2 closed form", 2, k, n, e=0)
    levels = []
    for l in range(k):
        lo = evaluate(phi, n - k + l)
        hi = evaluate(phi, n - k + l + 1)
        root = math.hypot(delta - omega * (hi - lo), 2.0 * g * math.sqrt(k * hi))
        base = (2 * (k - l) - 1) * delta + (lo + hi) * omega
        upper, lower = 0.5 * (base + root), 0.5 * (base - root)
        if not (math.isfinite(upper) and math.isfinite(lower)):
            raise _level_error("deformed F=2", k=k, n=n, l=l, omega=omega, delta=delta, g=g)
        degeneracy = math.comb(k - 1, l)
        levels += [(upper, degeneracy), (lower, degeneracy)]
    return LabeledSpectrum(tuple(levels))


def _trigonometric_roots(r: float, u: float) -> list[float]:
    """The three real roots of x^3 - r^2 x + u r^3 = 0, ascending, for r > 0
    and |u| <= 2 / (3 sqrt 3): 2 r / sqrt 3 * cos((acos(-3 sqrt(3) u / 2) - 2 pi j) / 3)."""
    phase = math.acos(-1.5 * math.sqrt(3.0) * u)
    return sorted(2.0 * r / math.sqrt(3.0) * math.cos((phase - 2.0 * math.pi * j) / 3.0)
                  for j in range(3))


def exact_f3_k1(n: int, omega: float, delta: float, g: float) -> LabeledSpectrum:
    """Spectrum of the 3x3 block for F=3, k=1 in the saturated regime n >= 3.

    The levels are delta + (n-1) omega plus the roots of the depressed cubic
    x^3 - c x + g^2 (delta - omega) with c = g^2 (2n - 1) + (delta - omega)^2.
    The paper writes them in radicals, with principal branches,

        E(l) = delta + (n-1) omega + e^{-2 pi i l / 3} W / (3 * 2^(1/3))
               + e^{+2 pi i l / 3} 2^(1/3) c / W,
        W^3 = sqrt(-108 c^3 + 729 g^4 (delta-omega)^2) + 27 g^2 (omega - delta).

    Here they are evaluated by the trigonometric method, from c = r^2 with
    r = hypot(g sqrt(2n - 1), delta - omega) and the ratios g/r and
    (delta - omega)/r, so no input is squared or cubed.  For n >= 3 the
    acos argument stays within [-0.2, 0.2], away from a double root.  At
    r = 0 (g = 0 with delta = omega) the cubic x^3 has the triple root 0.
    """
    n = _check_regime("F=3, k=1 closed form", 3, 1, n)[2]
    shift = delta + (n - 1) * omega
    r = math.hypot(g * math.sqrt(2 * n - 1), delta - omega)
    roots = _trigonometric_roots(r, (g / r) ** 2 * ((delta - omega) / r)) if r else [0.0] * 3
    levels = tuple((shift + x, 1) for x in roots)
    if not all(math.isfinite(value) for value, _ in levels):
        raise _level_error("F=3, k=1", n=n, omega=omega, delta=delta, g=g)
    return LabeledSpectrum(levels)


def _require_finite(values: np.ndarray, formula: str, **params) -> None:
    """If a level of the (points, levels) values left the float range, a
    NumericalError names the formula and its parameters at the first such
    omega, and that omega's position as ``index``."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        row = int(bad[0])
        params["omega"] = params["omega"][row]
        raise _level_error(formula, index=row, **params)


def _coefficients(labels, term) -> np.ndarray:
    """term(*label) for each label, as floats converted exactly as Python converts an int."""
    return np.array([term(*label) for label in labels], dtype=np.float64)


def _linearized_f2(k: int, n: int, hbar: float, omegas, delta: float, g: float):
    """The linearized F=2 levels at each omega, as a (points, 2k) array in (l, s)
    order, and their degeneracies C(k-1, l), n > k:
    E(s, l) = [2 g^2 k s hbar (l+n-k+1) + delta^2 (2k - 2l + s - 1)
               + delta omega hbar (2l + 2n - 2k - s + 1)] / (2 delta)."""
    _, k, n = _check_regime("linearized F=2 form", 2, k, n, delta=delta)
    labels = [(l, s) for l in range(k) for s in (+1, -1)]
    omega = np.asarray(omegas, dtype=np.float64)[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite level is named below
        values = (
            2.0 * g * g * k * _coefficients(labels, lambda l, s: s) * hbar
            * _coefficients(labels, lambda l, s: l + n - k + 1)
            + delta * delta * _coefficients(labels, lambda l, s: 2 * k - 2 * l + s - 1)
            + delta * omega * hbar * _coefficients(labels, lambda l, s: 2 * l + 2 * n - 2 * k - s + 1)
        ) / (2.0 * delta)
    _require_finite(values, "linearized F=2", k=k, n=n, hbar=hbar, omega=omegas, delta=delta, g=g)
    return values, [math.comb(k - 1, l) for l, _ in labels]


def _linearized_k1(F: int, n: int, hbar: float, omegas, delta: float, g: float):
    """The single-mode linearized levels at each omega, as a (points, F) array:
    the weight-0 branch, the fully occupied branch, then the ladder s = 1..F-2."""
    F, _, n = _check_regime("single-mode linearized form", F, 1, n, delta=delta)
    ladder = [(s,) for s in range(1, F - 1)]
    omega = np.asarray(omegas, dtype=np.float64)[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite level is named below
        values = np.concatenate([
            hbar * n * (delta * omega - g * g) / delta,
            delta * (F - 1) + g * g * (n - F + 2) * hbar / delta + float(n + 1 - F) * omega * hbar,
            omega * hbar * _coefficients(ladder, lambda s: n - s) + g * g * hbar / delta
            + delta * _coefficients(ladder, lambda s: s),
        ], axis=1)
    _require_finite(values, "single-mode linearized",
                    F=F, n=n, hbar=hbar, omega=omegas, delta=delta, g=g)
    return values, [1] * F


def semiclassical_level_table(F: int, k: int, n: int, hbar: float, omegas,
                              delta: float, g: float) -> np.ndarray:
    """The levels linearized in hbar (structure function hbar*x) at every omega
    of a grid, as one (points, levels) array: F = 2 (any k) or k = 1 (any F).

    Each row holds the levels at one omega, expanded by degeneracy and
    ascending, the bits of a one-point grid.  The regime checks run once; a
    level beyond the float range raises a NumericalError naming the first
    such omega, with its position as ``index``.
    """
    if F == 2:
        values, degeneracies = _linearized_f2(k, n, hbar, omegas, delta, g)
    elif k == 1:
        values, degeneracies = _linearized_k1(F, n, hbar, omegas, delta, g)
    else:
        raise ParameterError("closed forms exist for F=2 (any k) or k=1 (any F)")
    return np.sort(np.repeat(values, degeneracies, axis=1), axis=1)


def semiclassical_z_f2_closed_form(
    k: int, n: int, hbar: float, omega: float, delta: float, g: float
) -> float:
    """Explicit two-term evaluation of the linearized F=2 partition sum (beta = 1)."""
    _, k, n = _check_regime("closed-form Z", 2, k, n, delta=delta)
    e = math.exp
    gk = g * g * k
    try:
        term_minus = (
            (e(delta - gk * hbar / delta - omega * hbar) + 1.0) ** k
            / (e(delta) + e(hbar * (gk / delta + omega)))
            * e(hbar * (delta * omega + (k - n) * (delta * omega + gk)) / delta - delta * k)
        )
        term_plus = (
            (e(delta + gk * hbar / delta - omega * hbar) + 1.0) ** k
            / (e(delta + gk * hbar / delta) + e(omega * hbar))
            * e(delta + gk * hbar * (-k + n + 1) / delta - delta * k + omega * hbar * (k - n))
        )
    except OverflowError as exc:
        # unshifted exponentials; the summed form stays finite much longer
        raise NumericalError(
            f"closed-form partition overflow (k={k}, n={n}, hbar={hbar}, "
            f"omega={omega}, delta={delta}, g={g}); use semiclassical_level_table"
        ) from exc
    return term_minus + term_plus
