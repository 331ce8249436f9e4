"""Fock-parafermion modes, their occupation basis, and generalized Clifford matrices.

A Fock parafermion mode theta of order F is nilpotent, theta^F = 0, and
distinct modes q-commute: theta_i theta_j = q theta_j theta_i for i < j with
q = exp(2*pi*i/F).  States of k modes are labelled by occupation tuples
P = (i_1, ..., i_k), 0 <= i_m <= F-1, created by applying the daggered modes
to the vacuum in standard order (mode k leftmost).  Moving a destruction
operator through that monomial picks up one factor of q per unit of occupation
it crosses, which is the whole content of the destruction matrix element

    <P| theta_m |P'> = q^(-sum_{s>m} i_s(P)) delta_{P + e_m, P'}

where P + e_m is P with its m-th entry raised by one.  Phases are tracked as
integer exponents of q and converted to complex numbers only when a matrix is
assembled, so no phase error accumulates.

Basis ordering convention: occupation tuples are enumerated in ascending
lexicographic order with i_1 most significant, e.g. for F=2, k=2:
(0,0), (0,1), (1,0), (1,1).  All matrix layouts in the package rely on it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .deformations import Deformation, evaluate
from .errors import DeformationError, ParameterError

#: Occupation tuple (i_1, ..., i_k); plain tuples keep enumeration cheap.
OccupationConfig = tuple[int, ...]


def weight(config: Sequence[int]) -> int:
    """Total parafermion occupation W(P) = sum_m i_m."""
    return sum(config)


def _check_order_and_modes(F: int, k: int) -> None:
    if int(F) != F or F < 2:
        raise ParameterError(f"nilpotency order F must be an integer >= 2, got {F}")
    if int(k) != k or k < 1:
        raise ParameterError(f"mode count k must be an integer >= 1, got {k}")


def validate_config(config: Sequence[int], F: int, k: int) -> None:
    """Raise ParameterError unless config is a valid occupation tuple for (F, k)."""
    _check_order_and_modes(F, k)
    if len(config) != k:
        raise ParameterError(f"occupation tuple has length {len(config)}, expected k={k}")
    for m, occ in enumerate(config, start=1):
        if int(occ) != occ or not 0 <= occ <= F - 1:
            raise ParameterError(f"occupation i_{m}={occ} outside 0..{F - 1}")


def enumerate_block_basis(F: int, k: int, n: int) -> list[OccupationConfig]:
    """All occupation tuples with weight <= n, in lexicographic order.

    These label the eigenspace where boson number plus parafermion weight
    equals n; the boson occupation of basis state P is n - W(P).
    """
    _check_order_and_modes(F, k)
    if int(n) != n or n < 0:
        raise ParameterError(f"total excitation number n must be an integer >= 0, got {n}")
    return [p for p in itertools.product(range(F), repeat=k) if sum(p) <= n]


def block_dimension(F: int, k: int, n: int) -> int:
    """Dimension d_n(k) of the fixed-total-excitation block.

    Coefficient of x^n in (1 - x^F)^k / (1 - x)^(k+1), computed by exact
    integer polynomial convolution: expand (1 - x^F)^k, then apply the
    prefix-sum operator (multiplication by 1/(1-x)) k+1 times.  Saturates at
    F^k once n >= k*(F-1), so n is clamped there.
    """
    _check_order_and_modes(F, k)
    if int(n) != n or n < 0:
        raise ParameterError(f"total excitation number n must be an integer >= 0, got {n}")
    n = min(n, k * (F - 1))
    coeffs = [0] * (n + 1)
    for s in range(0, min(k, n // F) + 1):
        coeffs[F * s] = (-1) ** s * math.comb(k, s)
    for _ in range(k + 1):
        acc = 0
        for j in range(n + 1):
            acc += coeffs[j]
            coeffs[j] = acc
    return coeffs[n]


def _signed_binomial(a: int, j: int) -> int:
    """C(a, j) for integer a of either sign: product form, exact integers."""
    if j < 0:
        return 0
    num = 1
    for t in range(j):
        num *= a - t
    return num // math.factorial(j)


def block_dimension_closed_form(F: int, k: int, n: int) -> int:
    """Alternating-sum form of d_n(k) with a negative-upper-index binomial.

    Cross-check only; ``block_dimension`` (integer convolution) is normative
    because generalized binomials invite sign mistakes.
    """
    _check_order_and_modes(F, k)
    if int(n) != n or n < 0:
        raise ParameterError(f"total excitation number n must be an integer >= 0, got {n}")
    total = 0
    for s in range(0, min(k, n // F) + 1):
        total += (-1) ** (n - s * (F - 1)) * math.comb(k, s) * _signed_binomial(-k - 1, n - s * F)
    return total


def destruction_phase_exponent(
    bra: Sequence[int], m: int, ket: Sequence[int], F: int
) -> Optional[int]:
    """Exponent e with <bra| theta_m |ket> = q^e, or None when the element vanishes.

    Nonzero only when ket equals bra with entry m (1-based) raised by one;
    then e = -sum_{s>m} i_s(bra) reduced mod F.  Raising past F-1 cannot
    occur: such a ket is rejected as an invalid occupation tuple.
    """
    k = len(bra)
    validate_config(bra, F, k)
    validate_config(ket, F, k)
    if not 1 <= m <= k:
        raise ParameterError(f"mode index m={m} outside 1..{k}")
    i = m - 1
    if ket[i] != bra[i] + 1:
        return None
    if any(ket[s] != bra[s] for s in range(k) if s != i):
        return None
    return (-sum(bra[m:])) % F


def root_of_unity_power(F: int, exponent: int) -> complex:
    """q^exponent with q = exp(2*pi*i/F), evaluated in a single call."""
    return cmath.exp(2j * cmath.pi * (exponent % F) / F)


def build_mode_matrix(F: int, k: int, m: int) -> np.ndarray:
    """Destruction operator theta_m on the full F^k-dimensional Fock space.

    Lexicographic basis; element (bra, ket) nonzero when ket raises bra at
    mode m, carrying the q-phase of ``destruction_phase_exponent``.
    """
    _check_order_and_modes(F, k)
    if not 1 <= m <= k:
        raise ParameterError(f"mode index m={m} outside 1..{k}")
    basis = enumerate_block_basis(F, k, k * (F - 1))
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)
    theta = np.zeros((dim, dim), dtype=np.complex128)
    i = m - 1
    for ket in basis:
        if ket[i] == 0:
            continue
        bra = ket[:i] + (ket[i] - 1,) + ket[i + 1:]
        exponent = destruction_phase_exponent(bra, m, ket, F)
        theta[index[bra], index[ket]] = root_of_unity_power(F, exponent)
    return theta


def number_operator_matrix(F: int, k: int, i: int) -> np.ndarray:
    """Number operator of mode i: diagonal with entry i_i(P) at basis state P.

    Equal to sum_{s=1}^{F-1} (theta_i^dag)^s theta_i^s; the summed-power form
    is exercised by the test suite, the diagonal form is normative.
    """
    _check_order_and_modes(F, k)
    if not 1 <= i <= k:
        raise ParameterError(f"mode index i={i} outside 1..{k}")
    basis = enumerate_block_basis(F, k, k * (F - 1))
    return np.diag(np.array([p[i - 1] for p in basis], dtype=np.complex128))


@dataclass(frozen=True)
class CliffordTriple:
    """Generalized Clifford matrices of order F.

    sigma1 is the cyclic shift (ones on the superdiagonal, wrap-around in the
    bottom-left corner), sigma3 = diag(q^j), sigma2 = sigma3 @ sigma1.  They
    satisfy sigma1^F = sigma3^F = 1 and sigma1 sigma3 = q sigma3 sigma1.
    """

    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma3: np.ndarray


def clifford_triple(F: int) -> CliffordTriple:
    _check_order_and_modes(F, 1)
    sigma1 = np.zeros((F, F), dtype=np.complex128)
    for j in range(F - 1):
        sigma1[j, j + 1] = 1.0
    sigma1[F - 1, 0] = 1.0
    sigma3 = np.diag([root_of_unity_power(F, j) for j in range(F)])
    return CliffordTriple(sigma1, sigma3 @ sigma1, sigma3)


def clifford_mode(F: int, phi: Deformation) -> np.ndarray:
    """Single deformed annihilator a built from the Clifford matrices.

    The defining combination is a diagonal prefactor sqrt(phi(N+1))/(1-q^(N+1))
    times sigma1 - q*sigma2.  Since sigma2 = sigma3 sigma1, the second factor
    is (1 - q*sigma3) sigma1, whose rows carry exactly (1 - q^(j+1)); the
    division cancels algebraically, leaving sqrt(phi(j+1)) on the
    superdiagonal.  The wrap-around entry would carry sqrt(phi(F)), so the
    construction demands phi(F) = 0 (which also forces a^F = 0).
    """
    _check_order_and_modes(F, 1)
    if abs(phi(0.0)) > 1e-12:
        raise DeformationError("structure function must vanish at 0")
    if abs(phi(float(F))) > 1e-12:
        raise DeformationError(
            f"structure function must vanish at the nilpotency order: phi({F})={phi(float(F))}"
        )
    a = np.zeros((F, F), dtype=np.complex128)
    for j in range(F - 1):
        a[j, j + 1] = math.sqrt(evaluate(phi, j + 1))
    return a
