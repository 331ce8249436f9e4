"""Closed-form spectra and semiclassical partition functions.

These expressions solve special instances of the coupled parafermion-oscillator
model and serve as independent oracles for the numerical pipeline:

* F = 2, generic k: a Fourier-mode argument reduces each block to k decoupled
  two-level problems, giving 2k levels E(s, l) with binomial degeneracies
  C(k-1, l); a deformed-oscillator generalization holds in the saturated
  regime n >= k.
* F = 3, k = 1: the 3x3 block reduces to a depressed cubic with an explicit
  radical solution.
* Linearizing the spectrum in a small parameter hbar (structure function
  hbar*x) yields closed-form partition sums accurate away from the crossover
  at omega ~ delta/hbar.  The linearized levels are affine in omega, so
  ``semiclassical_level_table`` evaluates them over a whole omega grid as one
  (points, levels) array; ``log_sum_exp`` of its rows is the linearized log Z,
  the one way to get it, and ``semiclassical_z_f2_closed_form`` is its oracle.

Each function refuses inputs outside its regime of validity instead of
extrapolating.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import _check_integer, _check_order_and_modes
from .deformations import Deformation, evaluate
from .errors import NumericalError, OutOfRegimeError, ParameterError

logger = logging.getLogger(__name__)

#: Imaginary parts below this (relative) threshold are rounding noise.
_REALNESS_TOL = 1e-9


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


def _check_f2_regime(k: int, n: int) -> tuple[int, int]:
    """(k, n) as ints, once the F=2 closed forms hold for them."""
    k = _check_order_and_modes(2, k)[1]
    n = _check_integer(n, 0, "total excitation number n")
    if n < k:
        raise OutOfRegimeError(
            f"F=2 closed form needs the saturated regime n >= k, got n={n}, k={k}"
        )
    return k, n


def exact_f2_undeformed(k: int, n: int, omega: float, delta: float, g: float) -> LabeledSpectrum:
    """Spectrum of the F=2 block with an ordinary oscillator, n >= k.

    E(s, l) = [(2l+1) delta + (2(n-l)-1) omega
               + s * sqrt(4 k g^2 (n-l) + (delta-omega)^2)] / 2
    for l = 0..k-1, s = +-1, each with degeneracy C(k-1, l).
    """
    k, n = _check_f2_regime(k, n)
    levels = []
    for l in range(k):
        root = math.sqrt(4.0 * k * g * g * (n - l) + (delta - omega) ** 2)
        base = (2 * l + 1) * delta + (2 * (n - l) - 1) * omega
        degeneracy = math.comb(k - 1, l)
        levels.append((0.5 * (base + root), degeneracy))
        levels.append((0.5 * (base - root), degeneracy))
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
    """
    k, n = _check_f2_regime(k, n)
    levels = []
    for l in range(k):
        lo = evaluate(phi, n - k + l)
        hi = evaluate(phi, n - k + l + 1)
        try:
            radicand = (delta + omega * lo) ** 2 + hi * (
                4.0 * k * g * g - 2.0 * omega * delta - 2.0 * omega * omega * lo + omega * omega * hi
            )
        except OverflowError:
            radicand = math.inf
        base = (2 * (k - l) - 1) * delta + (lo + hi) * omega
        if not (math.isfinite(radicand + base) and radicand >= 0.0):
            problem = "negative radicand" if math.isfinite(radicand + base) else "float overflow"
            raise NumericalError(
                f"{problem} in the deformed F=2 level formula "
                f"(k={k}, n={n}, l={l}, omega={omega}, delta={delta}, g={g})"
            )
        root = math.sqrt(radicand)
        degeneracy = math.comb(k - 1, l)
        levels.append((0.5 * (base + root), degeneracy))
        levels.append((0.5 * (base - root), degeneracy))
    return LabeledSpectrum(tuple(levels))


def _depressed_cubic_roots_real(c: float, q0: float) -> list[float]:
    """Real roots of x^3 - c x + q0 = 0 by the trigonometric method (requires c > 0)."""
    p = -c
    amp = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q0 / (2.0 * p) * math.sqrt(-3.0 / p)
    arg = min(1.0, max(-1.0, arg))
    phase = math.acos(arg)
    return [amp * math.cos((phase - 2.0 * math.pi * j) / 3.0) for j in range(3)]


def exact_f3_k1(n: int, omega: float, delta: float, g: float) -> LabeledSpectrum:
    """Spectrum of the 3x3 block for F=3, k=1 in the saturated regime n >= 3.

    The levels are delta + (n-1) omega plus the roots of the depressed cubic
    x^3 - c x + g^2 (delta - omega) with c = g^2 (2n - 1) + (delta - omega)^2.
    The radical form evaluates

        E(l) = delta + (n-1) omega + e^{-2 pi i l / 3} W / (3 * 2^(1/3))
               + e^{+2 pi i l / 3} 2^(1/3) c / W,
        W^3 = sqrt(-108 c^3 + 729 g^4 (delta-omega)^2) + 27 g^2 (omega - delta)

    with principal branches; when all three real eigenvalues are distinct the
    inner square root is imaginary and the principal-branch combination is
    automatically real.  If residual imaginary parts exceed tolerance the
    trigonometric real-root solver takes over; it also handles a vanishing W,
    except at c = 0 (g = 0 with delta = omega), where the cubic x^3 has the
    triple root 0.
    """
    n = _check_integer(n, 0, "total excitation number n")
    if n < 3:
        raise OutOfRegimeError(f"F=3, k=1 closed form needs n >= 3, got n={n}")
    shift = delta + (n - 1) * omega
    c = g * g * (2 * n - 1) + (delta - omega) ** 2
    q0 = g * g * (delta - omega)
    inner = complex(-108.0 * c ** 3 + 729.0 * g ** 4 * (delta - omega) ** 2)
    w_cubed = cmath.sqrt(inner) + 27.0 * g * g * (omega - delta)
    scale = 1.0 + abs(shift) + math.sqrt(c)
    if abs(w_cubed) < 1e-30:
        logger.info("cubic solver: W = 0, using trigonometric roots")
        values = sorted(_depressed_cubic_roots_real(c, q0)) if c > 0 else [0.0, 0.0, 0.0]
    else:
        w = w_cubed ** (1.0 / 3.0)
        candidates = []
        for l in range(3):
            term = (
                cmath.exp(-2j * cmath.pi * l / 3) * w / (3.0 * 2.0 ** (1.0 / 3.0))
                + cmath.exp(2j * cmath.pi * l / 3) * 2.0 ** (1.0 / 3.0) * c / w
            )
            candidates.append(term)
        if max(abs(t.imag) for t in candidates) <= _REALNESS_TOL * scale:
            values = sorted(t.real for t in candidates)
        else:
            logger.info("cubic solver: principal branch left imaginary residue, using trigonometric roots")
            values = sorted(_depressed_cubic_roots_real(c, q0))
    return LabeledSpectrum(tuple((shift + v, 1) for v in values))


def _require_finite(values: np.ndarray, formula: str, **params) -> None:
    """If a level of the (points, levels) values left the float range, a
    NumericalError names the formula and its parameters at the first such
    omega, and that omega's position as ``index``."""
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        row = int(bad[0])
        params["omega"] = params["omega"][row]
        named = ", ".join(f"{key}={value}" for key, value in params.items())
        raise NumericalError(f"float overflow in the {formula} level formula ({named})", index=row)


def _coefficients(labels, term) -> np.ndarray:
    """term(*label) for each label, as floats converted exactly as Python converts an int."""
    return np.array([term(*label) for label in labels], dtype=np.float64)


def _linearized_f2(k: int, n: int, hbar: float, omegas, delta: float, g: float):
    """The linearized F=2 levels at each omega, as a (points, 2k) array in (l, s)
    order, and their degeneracies C(k-1, l), n > k:
    E(s, l) = [2 g^2 k s hbar (l+n-k+1) + delta^2 (2k - 2l + s - 1)
               + delta omega hbar (2l + 2n - 2k - s + 1)] / (2 delta)."""
    k = _check_order_and_modes(2, k)[1]
    n = _check_integer(n, 0, "total excitation number n")
    if n <= k:
        raise OutOfRegimeError(f"linearized F=2 levels need n > k, got n={n}, k={k}")
    if delta == 0.0:
        raise ParameterError("linearized levels expand about delta != 0")
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
    F = _check_order_and_modes(F, 1)[0]
    n = _check_integer(n, 0, "total excitation number n")
    if delta == 0.0:
        raise ParameterError("linearized levels expand about delta != 0")
    if n <= F - 1:
        raise OutOfRegimeError(f"single-mode linearized levels need n > F-1, got n={n}, F={F}")
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
    k = _check_order_and_modes(2, k)[1]
    n = _check_integer(n, 0, "total excitation number n")
    if n <= k:
        raise OutOfRegimeError(f"closed-form Z needs n > k, got n={n}, k={k}")
    if delta == 0.0:
        raise ParameterError("closed-form Z expands about delta != 0")
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
