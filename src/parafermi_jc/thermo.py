"""Thermal observables of single blocks and scans over the oscillator frequency.

Within the block of total excitation number n, the canonical partition
function is Z = sum_j exp(-beta lambda_j), evaluated through log-sum-exp so
deep Boltzmann suppression (for example delta ~ 1000 at beta = 1) cannot
underflow intermediate results; Z itself may still round to 0.0 as a float,
in which case log_z and free_energy remain exact.  A log Z beyond the float
range of Z raises NumericalError instead.

Diagonal observables come from the eigenvector trace: for the diagonal
operator O(P), <O> = sum_j w_j sum_P |v_P(j)|^2 O(P) with Boltzmann weights
w_j.  The solver returns the eigenvectors only of the states whose weight,
relative to the ground state's, is above NEGLIGIBLE_WEIGHT = 2**-60 (and of
any state clustered with one of them), and may stop computing eigenvalues
there too: a level it leaves out is +inf, a zero term of every sum.  The
sums run over the levels and kept columns it returns, so the states left
out move Z by at most d * 2**-60 relative, and an average <O> over d states
by at most d * 2**-60 * max|O|.

One scan solves every stack: for an assembled block H and a diagonal
operator op, it solves H + x * diag(op) at each point x of a finite,
ascending sequence, each chunk of the points as one (G, d, d) stack, and
reduces each chunk.  The omega scans run it along x = omega on H0 with
op = phi(n - W), for the observables or for log Z alone.  One central
difference of log Z over the two points x -+ step cross-checks the trace
values: x = omega on H0 with op = phi(N) recovers <phi(N)>, and x = mu = 0 on
H(omega) with op = N recovers <N>.  A NumericalError at one matrix of a stack
names its omega (or mu) and (F, k, n); a step that takes a diagonal beyond
the float range is a ParameterError.

The Hermiticity check runs once per matrix: thermo_from_block solves the
block's matrix, checked when the block was built, without checking it
again, while a scan's stack H + x * diag(op), a new array, goes through
eigendecompose and its check.

A chunk holds SCAN_CHUNK_ENTRIES = 2**15 matrix entries, a 512 KiB complex
stack: 512 matrices at d = 8, 44 at d = 27, and one at d = 256 (a lone
matrix may exceed the cap).  A scan's traced peak is at most about 5.9
times its complex stack with eigenvectors, reached when every vector is kept
(5.9 at d = 8, 4.9 at d = 27, 4.3 at d = 256, which keeps them all
anyway); the staircase grid (d = 27, delta = 1000, beta = 1) keeps 12% of
them and peaks at 3.9.  Without eigenvectors the peak is 3.2 to 3.3 times
the stack, so a full chunk peaks near 3 MB.  The solver gets the only
reference to the stack and frees it once copied (from Python 3.11; on 3.10
the calling frame keeps it until the solve returns).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import eigensolver
from .blocks import BlockHamiltonian, ModelParams, _hops, _structure_values, build_block
from .eigensolver import Spectrum
from .errors import NumericalError, ParameterError

#: Matrix entries per stacked solve of a scan: a chunk of the grid holds at most
#: this many (and at least one matrix), which bounds a scan's memory whatever
#: the block dimension.  2**15 entries are 512 matrices at d = 8, 44 at d = 27
#: and one at d = 256; the solve's traced peak is at most about 5.9 times the
#: chunk's complex stack.  Past 2**15 the per-stack call overhead is mostly
#: paid off: 2**16 saves a few percent more per point and doubles the peak.
SCAN_CHUNK_ENTRIES = 2**15

#: Boltzmann weight, relative to the ground state's, below which a state's
#: eigenvector, and possibly its level, is not computed: scans and
#: thermo_from_block give the solver the window -log(NEGLIGIBLE_WEIGHT) / beta
#: above each block's lowest level.  The levels left out move Z by at most
#: d * 2**-60 relative.
NEGLIGIBLE_WEIGHT = 2.0**-60


def log_sum_exp(values: np.ndarray, scale: float = 1.0):
    """log(sum(exp(scale * values))) over the last axis, shifted by the largest term so nothing overflows.

    A float for one sequence, an array for a stack of them; a sequence gets
    the bits it would get as a row of a stack.  A value of +inf under a
    negative scale is a zero term, the limit of its exp: a windowed solve
    leaves such levels out.  Any other term scale * value beyond the float
    range, and a row whose every term is zero, raises NumericalError (its
    shift would be inf - inf) instead of a numpy warning; for a stack the
    error's ``index`` is the row.  An empty sequence raises ParameterError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ParameterError("log_sum_exp of an empty sequence")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        terms = scale * values
    shift = np.max(terms, axis=-1)
    # a term that overflowed or came from -inf; +inf under a scale >= 0 leaves no finite shift
    overflow = np.isinf(terms) & (values != math.inf)
    bad = np.flatnonzero(~np.isfinite(shift) | np.any(overflow, axis=-1))
    if bad.size:
        raise NumericalError(
            f"log_sum_exp: a term scale * value leaves the float range (scale={scale!r})",
            index=int(bad[0]) if values.ndim > 1 else None,
        )
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
    hops = _hops(params.F, params.k, block.n)
    W = hops.weights
    phi = _structure_values(params.deformation, block.n, hops.top)
    return np.column_stack([block.n - W, W, phi[W]])


def _observables(values: np.ndarray, vectors: np.ndarray, ops: np.ndarray, beta: float,
                 n: int) -> list[ThermoObservables]:
    """Observables of every block of a stack, from its (G, d) eigenvalues and
    (G, d, m) eigenvectors, the first m of each block's states; a zero column
    (a state the solver left out) adds nothing.  A failure names the block's
    position as ``index``."""
    log_z = log_sum_exp(values, -beta)
    # normalized explicitly: exp(-beta * lambda - log Z) sums to 1 only to
    # about eps * beta * |lambda|, and <N> + <W> = n needs the sum exact
    terms = -beta * values
    with np.errstate(over="ignore"):
        weights = np.exp(terms - np.max(terms, axis=1, keepdims=True))
    weights /= np.sum(weights, axis=1, keepdims=True)
    occupancy = np.abs(vectors) ** 2  # column j: |<P|v_j>|^2
    per_state = occupancy.swapaxes(1, 2) @ ops  # row j: <v_j|O|v_j> for each operator
    expect = (weights[:, np.newaxis, :vectors.shape[-1]] @ per_state)[:, 0, :]
    observables = []
    for index, (lz, (n_expect, w_expect, phi_expect)) in enumerate(zip(log_z.tolist(), expect.tolist())):
        try:
            z = math.exp(lz) if lz > -745.0 else 0.0  # exp underflows below ~-745
        except OverflowError:
            raise NumericalError(
                f"partition function exceeds the float range: log Z = {lz!r}", index=index
            ) from None
        free_energy = -lz / beta + 0.0  # + 0.0: a zero is 0.0, not -0.0
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
    """Observables of an already-assembled block: the reduction of a scan, on a stack of one.

    The block's matrix passed the Hermiticity check when the block was built,
    so the solve skips it.
    """
    H = block.matrix
    spectrum = eigensolver._solve(H, np.abs(H).max(axis=(-2, -1), initial=0.0), True,
                                  -math.log(NEGLIGIBLE_WEIGHT) / params.beta)
    return _observables(spectrum.eigenvalues[np.newaxis], spectrum.eigenvectors[np.newaxis],
                        _diagonal_operators(block, params), params.beta, block.n)[0]


def _diagonal_stack(H: np.ndarray, op: np.ndarray, xs: Sequence[float]) -> np.ndarray:
    """H + x * diag(op) for each x of xs, as a (G, d, d) stack.

    A diagonal that leaves the float range raises NumericalError with the
    first such x's position as ``index``.
    """
    xs = np.array(xs)
    stack = np.repeat(H[np.newaxis], xs.size, axis=0)
    diagonal = np.arange(H.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        stack[:, diagonal, diagonal] += xs[:, np.newaxis] * op
    bad = np.flatnonzero(~np.isfinite(stack[:, diagonal, diagonal]).all(axis=1))
    if bad.size:
        raise NumericalError("the diagonal leaves the float range", index=int(bad[0]))
    return stack


def _scan(block: BlockHamiltonian, op: np.ndarray, points: Sequence[float], label: str,
          want_vectors: bool, reduce: Callable[[Spectrum], list],
          params: ModelParams) -> list[tuple[float, object]]:
    """(x, reduce's value) at each x of a finite, ascending sequence of points,
    from the spectra of H + x * diag(op), H the block's matrix.

    Each chunk of the points is solved as one stack and reduced by
    reduce(spectrum).  A failure that names a matrix of the stack is raised
    again naming its label=x and (F, k, n).
    """
    points = [float(x) for x in points]
    if not points:
        raise ParameterError(f"{label} grid must not be empty")
    for x in points:
        if not math.isfinite(x):
            raise ParameterError(f"{label} grid point {x!r} is not finite")
    if any(b <= a for a, b in zip(points, points[1:])):
        raise ParameterError(f"{label} grid must be strictly ascending")
    chunk = max(1, SCAN_CHUNK_ENTRIES // block.dim ** 2)
    window = -math.log(NEGLIGIBLE_WEIGHT) / params.beta
    values = []
    for start in range(0, len(points), chunk):
        try:
            # the stack is not kept here: the solver frees it once copied
            values += reduce(eigensolver.eigendecompose(
                _diagonal_stack(block.matrix, op, points[start:start + chunk]), want_vectors,
                window=window))
        except NumericalError as exc:
            if exc.index is None:
                raise
            raise type(exc)(f"{exc} at {label}={points[start + exc.index]!r} "
                            f"(F={params.F}, k={params.k}, n={block.n})") from None
    return list(zip(points, values))


def _central_difference(block: BlockHamiltonian, op: np.ndarray, x: float, step: float,
                        label: str, params: ModelParams) -> float:
    """-(log Z(x + step) - log Z(x - step)) / (2 step beta), Z(x) the partition
    function of H + x * diag(op), H the block's matrix, from a values-only
    scan of the two points.

    A step that is not positive and finite, that takes a diagonal entry
    beyond the float range, or that leaves one where op is nonzero unchanged
    (the quotient would miss its term) raises ParameterError.
    """
    if not 0 < step < math.inf:
        raise ParameterError(f"step must be positive and finite, got {step}")
    points = [x - step, x + step]
    if not points[0] < points[1]:
        raise ParameterError(f"step {step!r} vanishes against {label}={x!r}")
    where = f"(F={params.F}, k={params.k}, n={block.n})"
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        lower, upper = (block.matrix.diagonal().real + point * op for point in points)
    for point, entries in zip(points, (lower, upper)):
        if not np.isfinite(entries).all():
            raise ParameterError(f"step {step!r} takes a diagonal entry beyond the float range "
                                 f"at {label}={point!r} {where}")
    if np.any((lower == upper) & (op != 0.0)):
        raise ParameterError(f"step {step!r} vanishes against a diagonal entry of H {where}")
    (_, log_lo), (_, log_hi) = _scan(
        block, op, points, label, False,
        lambda spectrum: log_sum_exp(spectrum.eigenvalues, -params.beta).tolist(), params)
    return -(log_hi - log_lo) / (2.0 * step * params.beta)


def phi_n_via_omega_derivative(params: ModelParams, n: int, step: float) -> float:
    """<phi(N)> as the central frequency derivative -(1/beta) d(log Z)/d(omega)
    of H0 + omega * diag(phi(N))."""
    base = build_block(params.with_omega(0.0), n)
    return _central_difference(base, _diagonal_operators(base, params)[:, 2],
                               params.omega, step, "omega", params)


def n_via_mu_derivative(params: ModelParams, n: int, step: float) -> float:
    """<N> from the mu-perturbation H + mu * diag(N), differentiated at mu = 0."""
    block = build_block(params, n)
    return _central_difference(block, _diagonal_operators(block, params)[:, 0],
                               0.0, step, "mu", params)


def omega_scan(
    params: ModelParams,
    n: int,
    omega_grid: Sequence[float],
) -> list[tuple[float, ThermoObservables]]:
    """Thermal observables of block n at each frequency of an ascending grid."""
    base = build_block(params.with_omega(0.0), n)
    ops = _diagonal_operators(base, params)
    return _scan(base, ops[:, 2], omega_grid, "omega", True,
                 lambda spectrum: _observables(spectrum.eigenvalues, spectrum.eigenvectors,
                                               ops, params.beta, n), params)


def log_partition_scan(params: ModelParams, n: int,
                       omega_grid: Sequence[float]) -> list[tuple[float, float]]:
    """log Z of block n at each frequency of an ascending grid, from eigenvalues alone."""
    base = build_block(params.with_omega(0.0), n)
    return _scan(base, _diagonal_operators(base, params)[:, 2], omega_grid, "omega", False,
                 lambda spectrum: log_sum_exp(spectrum.eigenvalues, -params.beta).tolist(), params)


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

    def level(point: tuple[float, ThermoObservables]) -> int | None:
        """The integer the point's value lies within tol of, if any."""
        value = point[1].n_expect / hbar
        nearest = round(value)
        return nearest if abs(value - nearest) < tol else None

    runs = []
    for nearest, group in itertools.groupby(scan, level):
        if nearest is not None:
            omegas = [omega for omega, _ in group]
            runs.append((omegas[0], omegas[-1], nearest))
    crossovers = tuple(
        0.5 * (runs[i][1] + runs[i + 1][0]) for i in range(len(runs) - 1)
    )
    return PlateauReport(tuple(runs), crossovers)
