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

Scans run as stacks: every point of an omega grid has the same block, and
H(omega) = H0 + omega * diag(phi(n - W)), so H0 and the phi diagonal are
assembled once and each chunk of the grid goes through the eigensolver and
the reduction as one (G, d, d) stack.  A single block is a stack of one.  A
grid point must be finite, and a point whose diagonal H0 + omega * phi
leaves the float range, or any other NumericalError at one point of a scan,
names its omega and (F, k, n).

A chunk holds SCAN_CHUNK_ENTRIES = 2**15 matrix entries, a 512 KiB complex
stack: 512 matrices at d = 8, 44 at d = 27, and one at d = 256 (a lone
matrix may exceed the cap).  The solve's traced peak is at most about 5.7
times its complex stack with eigenvectors (5.3 at d = 27, 4.6 at d = 256)
and 2.3 (d = 256) to 3.3 (d = 8) times without, so a full chunk peaks near
3 MB.  The solver gets the only reference to the stack and frees it once
copied (from Python 3.11; on 3.10 the calling frame keeps it until the solve
returns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import eigensolver
from .blocks import BlockHamiltonian, ModelParams, build_block
from .deformations import evaluate
from .eigensolver import Spectrum
from .errors import NumericalError, ParameterError

#: Matrix entries per stacked solve of a scan: a chunk of the grid holds at most
#: this many (and at least one matrix), which bounds a scan's memory whatever
#: the block dimension.  2**15 entries are 512 matrices at d = 8, 44 at d = 27
#: and one at d = 256; the solve's traced peak is at most about 5.7 times the
#: chunk's complex stack.  Past 2**15 the per-stack call overhead is mostly
#: paid off: 2**16 saves a few percent more per point and doubles the peak.
SCAN_CHUNK_ENTRIES = 2**15


def log_sum_exp(values: np.ndarray, scale: float = 1.0):
    """log(sum(exp(scale * values))) over the last axis, shifted by the largest term so nothing overflows.

    A float for one sequence, an array for a stack of them; a sequence gets
    the bits it would get as a row of a stack.  The terms scale * values are
    formed here, after |scale| * max|values| bounds them, so a term beyond the
    float range raises NumericalError (its shift would be inf - inf) instead
    of a numpy warning; for a stack the error's ``index`` is the row.  An
    empty sequence raises ParameterError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ParameterError("log_sum_exp of an empty sequence")
    peaks = np.max(np.abs(values), axis=-1)
    for row, peak in enumerate(np.ravel(peaks).tolist()):
        if not math.isfinite(abs(scale) * peak):
            raise NumericalError(
                f"log_sum_exp: a term scale * value leaves the float range (scale={scale!r})",
                index=row if values.ndim > 1 else None,
            )
    terms = scale * values
    shift = np.max(terms, axis=-1)
    with np.errstate(over="ignore"):  # a difference beyond -max float only makes exp 0
        total = np.sum(np.exp(terms - shift[..., np.newaxis]), axis=-1)
    result = shift + np.log(total)
    return float(result) if values.ndim == 1 else result


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


def _diagonal_operators(block: BlockHamiltonian, params: ModelParams) -> np.ndarray:
    """The diagonal operators N = n - W, W and phi(n - W) as the columns of a (dim, 3) array."""
    boson = [block.n - sum(p) for p in block.basis]
    return np.array([[m, block.n - m, evaluate(params.deformation, m)] for m in boson],
                    dtype=np.float64)


def _observables(values: np.ndarray, vectors: np.ndarray, ops: np.ndarray, beta: float,
                 n: int) -> list[ThermoObservables]:
    """Observables of every block of a stack, from its (G, d) eigenvalues and
    (G, d, d) eigenvectors; a failure names the block's position as ``index``."""
    log_z = log_sum_exp(values, -beta)
    # normalized explicitly: exp(-beta * lambda - log Z) sums to 1 only to
    # about eps * beta * |lambda|, and <N> + <W> = n needs the sum exact
    terms = -beta * values
    with np.errstate(over="ignore"):
        weights = np.exp(terms - np.max(terms, axis=1, keepdims=True))
    weights /= np.sum(weights, axis=1, keepdims=True)
    occupancy = np.abs(vectors) ** 2  # column j: |<P|v_j>|^2
    per_state = occupancy.swapaxes(1, 2) @ ops  # row j: <v_j|O|v_j> for each operator
    expect = (weights[:, np.newaxis, :] @ per_state)[:, 0, :]
    observables = []
    for index, (lz, (n_expect, w_expect, phi_expect)) in enumerate(zip(log_z.tolist(), expect.tolist())):
        try:
            z = math.exp(lz) if lz > -745.0 else 0.0  # exp underflows below ~-745
        except OverflowError:
            raise NumericalError(
                f"partition function exceeds the float range: log Z = {lz!r}", index=index
            ) from None
        free_energy = -lz / beta
        if not math.isfinite(free_energy):
            raise NumericalError(
                f"free_energy = -log Z / beta exceeds the float range: log Z = {lz!r}, "
                f"beta = {beta!r}", index=index
            )
        observables.append(ThermoObservables(
            z=z,
            log_z=lz,
            free_energy=free_energy,
            phi_n_expect=phi_expect,
            n_expect=n_expect,
            w_expect=w_expect,
            conservation_error=abs(n_expect + w_expect - n),
        ))
    return observables


def thermo_from_block(block: BlockHamiltonian, params: ModelParams) -> ThermoObservables:
    """Observables of an already-assembled block: the reduction of a scan, on a stack of one."""
    spectrum = eigensolver.eigendecompose(block.matrix, want_vectors=True)
    return _observables(spectrum.eigenvalues[np.newaxis], spectrum.eigenvectors[np.newaxis],
                        _diagonal_operators(block, params), params.beta, block.n)[0]


def thermo_from_spectrum(params: ModelParams, n: int) -> ThermoObservables:
    """Build block n, diagonalize it, and evaluate the thermal observables."""
    return thermo_from_block(build_block(params, n), params)


def _require_step(lower: np.ndarray, upper: np.ndarray, op: np.ndarray, step: float,
                  params: ModelParams, n: int) -> None:
    """Raise ParameterError when the step is lost against the diagonal: an entry
    where the perturbing operator op is nonzero is equal in the lower and upper
    perturbed diagonals, so the difference quotient would miss its term."""
    if np.any((lower == upper) & (op != 0.0)):
        raise ParameterError(f"step {step!r} vanishes against a diagonal entry of H "
                             f"(F={params.F}, k={params.k}, n={n})")


def phi_n_via_omega_derivative(params: ModelParams, n: int, step: float) -> float:
    """<phi(N)> as the central frequency derivative -(1/beta) d(log Z)/d(omega),
    from one values-only scan of [omega - step, omega + step]."""
    if not 0 < step < math.inf:
        raise ParameterError(f"step must be positive and finite, got {step}")
    lo, hi = params.omega - step, params.omega + step
    if not lo < hi:
        raise ParameterError(f"step {step!r} vanishes against omega={params.omega!r}")
    (_, log_lo), (_, log_hi) = log_partition_scan(params, n, [lo, hi])
    # the diagonals the scan solved, H0 + omega * phi(N), known to be finite
    base = build_block(params.with_omega(0.0), n)
    phi = _diagonal_operators(base, params)[:, 2]
    h0 = base.matrix.diagonal().real
    _require_step(h0 + lo * phi, h0 + hi * phi, phi, step, params, n)
    return -(log_hi - log_lo) / (2.0 * step * params.beta)


def n_via_mu_derivative(params: ModelParams, n: int, step: float) -> float:
    """<N> from the mu-perturbation H + mu*N, differentiated at mu = 0, with
    H + step*N and H - step*N solved, values only, as one stack."""
    if not 0 < step < math.inf:
        raise ParameterError(f"step must be positive and finite, got {step}")
    block = build_block(params, n)
    boson = _diagonal_operators(block, params)[:, 0]
    with np.errstate(over="ignore"):  # checked below
        stack = np.stack([block.matrix + mu * np.diag(boson) for mu in (step, -step)])
    diagonals = np.diagonal(stack, axis1=1, axis2=2).real
    if not np.isfinite(diagonals).all():
        raise ParameterError(f"step {step!r} takes a diagonal entry of H + step * N beyond the "
                             f"float range (F={params.F}, k={params.k}, n={n})")
    _require_step(diagonals[1], diagonals[0], boson, step, params, n)
    log_hi, log_lo = log_sum_exp(eigensolver.eigenvalues_only(stack), -params.beta).tolist()
    return -(log_hi - log_lo) / (2.0 * step * params.beta)


def _omega_stack(H0: np.ndarray, phi: np.ndarray, omegas: Sequence[float]) -> np.ndarray:
    """H0 + omega * diag(phi) for each omega, as a (G, d, d) stack.

    A diagonal that leaves the float range raises NumericalError with the
    first such omega's position as ``index``.
    """
    omegas = np.array(omegas)
    stack = np.repeat(H0[np.newaxis], omegas.size, axis=0)
    diagonal = np.arange(H0.shape[0])
    with np.errstate(over="ignore"):  # checked below
        stack[:, diagonal, diagonal] += omegas[:, np.newaxis] * phi
    bad = np.flatnonzero(~np.isfinite(stack[:, diagonal, diagonal]).all(axis=1))
    if bad.size:
        raise NumericalError("the diagonal H0 + omega * phi(n - W) leaves the float range",
                             index=int(bad[0]))
    return stack


def _scan(params: ModelParams, n: int, omega_grid: Sequence[float], want_vectors: bool,
          reduce: Callable[[Spectrum, np.ndarray], list]) -> list[tuple[float, object]]:
    """(omega, reduce's value) at each frequency of a finite, ascending grid.

    H(omega) = H0 + omega * diag(phi(n - W)): H0 and the phi diagonal are
    assembled once, and each chunk of the grid is solved as one stack and
    reduced by reduce(spectrum, diagonal operators).  A failure that names a
    matrix of the stack is raised again naming its omega and (F, k, n).
    """
    grid = [float(w) for w in omega_grid]
    if not grid:
        raise ParameterError("omega grid must not be empty")
    for w in grid:
        if not math.isfinite(w):
            raise ParameterError(f"omega grid point {w!r} is not finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ParameterError("omega grid must be strictly ascending")
    base = build_block(params.with_omega(0.0), n)
    ops = _diagonal_operators(base, params)
    chunk = max(1, SCAN_CHUNK_ENTRIES // base.dim ** 2)
    values = []
    for start in range(0, len(grid), chunk):
        try:
            # the stack is not kept here: the solver frees it once copied
            values += reduce(eigensolver.eigendecompose(
                _omega_stack(base.matrix, ops[:, 2], grid[start:start + chunk]), want_vectors), ops)
        except NumericalError as exc:
            if exc.index is None:
                raise
            raise type(exc)(f"{exc} at omega={grid[start + exc.index]!r} "
                            f"(F={params.F}, k={params.k}, n={n})") from None
    return list(zip(grid, values))


def omega_scan(
    params: ModelParams,
    n: int,
    omega_grid: Sequence[float],
) -> list[tuple[float, ThermoObservables]]:
    """Thermal observables of block n at each frequency of an ascending grid."""
    return _scan(params, n, omega_grid, True,
                 lambda spectrum, ops: _observables(spectrum.eigenvalues, spectrum.eigenvectors,
                                                    ops, params.beta, n))


def log_partition_scan(params: ModelParams, n: int,
                       omega_grid: Sequence[float]) -> list[tuple[float, float]]:
    """log Z of block n at each frequency of an ascending grid, from eigenvalues alone."""
    return _scan(params, n, omega_grid, False,
                 lambda spectrum, ops: log_sum_exp(spectrum.eigenvalues, -params.beta).tolist())


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
