"""Thermal observables of single blocks and scans over the oscillator frequency.

Within the block of total excitation number n, the canonical partition
function is Z = sum_j exp(-beta lambda_j), evaluated through log-sum-exp so
deep Boltzmann suppression (for example delta ~ 1000 at beta = 1) cannot
underflow intermediate results; Z itself may still round to 0.0 as a float,
in which case log_z and free_energy remain exact.  A log Z beyond the float
range of Z raises NumericalError instead.

Diagonal observables come from the eigenvector trace: for the diagonal
operator O(P), <O> = sum_j w_j sum_P |v_P(j)|^2 O(P) with Boltzmann weights
w_j.  Two finite-difference routes cross-check the trace values:
d(log Z)/d(omega) recovers <phi(N)> and the mu-perturbation H + mu*N recovers
the boson number <N>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import BlockHamiltonian, ModelParams, add_mu_number_term, build_block
from .deformations import evaluate
from .eigensolver import eigendecompose, eigenvalues_only
from .errors import NumericalError, ParameterError


def log_sum_exp(values: np.ndarray, scale: float = 1.0) -> float:
    """log(sum(exp(scale * values))), shifted by the largest term so nothing overflows.

    The terms scale * values are formed here, after |scale| * max|values|
    bounds them, so a term beyond the float range raises NumericalError (its
    shift would be inf - inf) instead of a numpy warning; an empty sequence
    raises ParameterError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ParameterError("log_sum_exp of an empty sequence")
    bound = abs(scale) * float(np.max(np.abs(values)))
    if not math.isfinite(bound):
        raise NumericalError(
            f"log_sum_exp: a term scale * value leaves the float range (scale={scale!r})"
        )
    terms = scale * values
    shift = float(np.max(terms))
    return shift + math.log(float(np.sum(np.exp(terms - shift))))


@dataclass(frozen=True)
class ThermoObservables:
    """Partition data of one block: Z, log Z, free energy, diagonal averages,
    and the number-conservation error of the averages."""

    z: float
    log_z: float
    free_energy: float
    phi_n_expect: float
    n_expect: float
    w_expect: float
    #: |<N> + <W> - n|: N + W = n on the whole block, so this is rounding error.
    conservation_error: float


@dataclass(frozen=True)
class PlateauReport:
    """Integer staircase structure of a frequency scan.

    plateaus: (omega_lo, omega_hi, level) spans where the observable sits
    within tolerance of an integer level; crossover_points: midpoints between
    consecutive plateau edges.
    """

    plateaus: tuple[tuple[float, float, int], ...]
    crossover_points: tuple[float, ...]


def _boltzmann_weights(eigenvalues: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    log_z = log_sum_exp(eigenvalues, -beta)
    return np.exp(-beta * eigenvalues - log_z), log_z


def thermo_from_block(block: BlockHamiltonian, params: ModelParams) -> ThermoObservables:
    """Observables of an already-assembled block (shared by scans and tests)."""
    spectrum = eigendecompose(block.matrix, want_vectors=True)
    weights, log_z = _boltzmann_weights(spectrum.eigenvalues, params.beta)
    w_vals = np.array([sum(p) for p in block.basis], dtype=np.float64)
    boson_vals = block.n - w_vals
    phi_vals = np.array([evaluate(params.deformation, v) for v in boson_vals])
    occupancy = np.abs(spectrum.eigenvectors) ** 2  # column j: |<P|v_j>|^2
    per_state = occupancy.T  # row j over basis states P
    n_expect = float(weights @ (per_state @ boson_vals))
    w_expect = float(weights @ (per_state @ w_vals))
    phi_expect = float(weights @ (per_state @ phi_vals))
    try:
        z = math.exp(log_z) if log_z > -745.0 else 0.0  # exp underflows below ~-745
    except OverflowError:
        raise NumericalError(
            f"partition function exceeds the float range: log Z = {log_z!r} (n={block.n})"
        ) from None
    return ThermoObservables(
        z=z,
        log_z=log_z,
        free_energy=-log_z / params.beta,
        phi_n_expect=phi_expect,
        n_expect=n_expect,
        w_expect=w_expect,
        conservation_error=abs(n_expect + w_expect - block.n),
    )


def thermo_from_spectrum(params: ModelParams, n: int) -> ThermoObservables:
    """Build block n, diagonalize it, and evaluate the thermal observables."""
    return thermo_from_block(build_block(params, n), params)


def log_partition(block: BlockHamiltonian, beta: float) -> float:
    """log Z of a block from eigenvalues alone (no eigenvector cost)."""
    return log_sum_exp(eigenvalues_only(block.matrix), -beta)


def phi_n_via_omega_derivative(params: ModelParams, n: int, step: float) -> float:
    """<phi(N)> as the central frequency derivative -(1/beta) d(log Z)/d(omega)."""
    if not step > 0:
        raise ParameterError(f"step must be positive, got {step}")
    log_hi = log_partition(build_block(params.with_omega(params.omega + step), n), params.beta)
    log_lo = log_partition(build_block(params.with_omega(params.omega - step), n), params.beta)
    return -(log_hi - log_lo) / (2.0 * step * params.beta)


def n_via_mu_derivative(params: ModelParams, n: int, step: float) -> float:
    """<N> from the mu-perturbation H + mu*N, differentiated at mu = 0."""
    if not step > 0:
        raise ParameterError(f"step must be positive, got {step}")
    block = build_block(params, n)
    log_hi = log_partition(add_mu_number_term(block, step), params.beta)
    log_lo = log_partition(add_mu_number_term(block, -step), params.beta)
    return -(log_hi - log_lo) / (2.0 * step * params.beta)


def omega_scan(
    params: ModelParams,
    n: int,
    omega_grid: Sequence[float],
) -> list[tuple[float, ThermoObservables]]:
    """Thermal observables of block n at each frequency of an ascending grid."""
    grid = [float(w) for w in omega_grid]
    if not grid:
        raise ParameterError("omega grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("omega grid must be strictly ascending")
    return [(w, thermo_from_spectrum(params.with_omega(w), n)) for w in grid]


def detect_plateaus(
    scan: Sequence[tuple[float, ThermoObservables]],
    hbar: float = 1.0,
    tol: float = 0.1,
) -> PlateauReport:
    """Detect integer plateaus of the boson-number staircase n_expect / hbar.

    A plateau is a maximal run of consecutive grid points whose value stays
    within tol of one integer; neighbouring runs with different integers stay
    distinct even without an out-of-tolerance gap.  An empty report is a valid
    outcome on coarse grids.
    """
    if not 0.0 < tol < 0.5:
        raise ParameterError(f"tol must lie in (0, 0.5), got {tol}")
    if not hbar > 0:
        raise ParameterError(f"hbar must be positive, got {hbar}")
    runs: list[tuple[float, float, int]] = []
    current: tuple[float, float, int] | None = None
    for omega, obs in scan:
        value = obs.n_expect / hbar
        level = round(value)
        inside = abs(value - level) < tol
        if inside and current is not None and current[2] == level:
            current = (current[0], omega, level)
        elif inside:
            if current is not None:
                runs.append(current)
            current = (omega, omega, level)
        else:
            if current is not None:
                runs.append(current)
            current = None
    if current is not None:
        runs.append(current)
    crossovers = tuple(
        0.5 * (runs[i][1] + runs[i + 1][0]) for i in range(len(runs) - 1)
    )
    return PlateauReport(tuple(runs), crossovers)
