"""Block Hamiltonians for k parafermion modes linearly coupled to one oscillator.

The model couples k Fock parafermions of order F to a single (possibly
deformed) oscillator mode:

    H = omega * phi-number term + delta * parafermion weight
        + g * sum_m (a theta_m^dag + a^dag theta_m)

Total excitation number (boson occupation plus parafermion weight) is
conserved, so H splits into finite blocks labelled by n.  In the block basis
of occupation tuples P (boson occupation n - W(P)) the matrix elements are

    diagonal: omega * phi(n - W(P)) + delta * W(P)
    hopping:  g * sqrt(phi(n + 1 - W(P))) * q^(-sum_{s>l} i_s(P))
              between P and P lowered at mode l

with the exact q-phase exponents of the algebra module.  Hermiticity is
asserted once, when the block is built, and never symmetrized, so a
transcription error fails loudly.

A block is assembled from index arrays, not a loop over its states: the
basis's mixed-radix codes ascend in its lexicographic order, so a sorted
search finds each lowered state's row, and phi, the q-phases and the spin
factors are each evaluated once per distinct argument.  The entries are bit
for bit those of a loop over the states and their hops (the tests keep one
as the reference), and phi is evaluated at that loop's arguments in its
order, phi(n) first, so a failure names the same x.  The index arrays of the
last 64 (F, k, n) are cached.

Every solve is of a block's real form.  Reversing the order of the modes,
conjugating and multiplying state P by q^e2(P), e2(P) = sum_{s<t} i_s i_t,
is an antiunitary symmetry of every block whose square is 1, so each block
is real symmetric in a basis that the symmetry fixes (Dyson's threefold
way), with the same diagonal and the same diagonal operators N, W and
phi(N).  _real_form takes it there by a few block-wise passes over the
block's matrix, and refuses a matrix that breaks the symmetry; a matrix
whose imaginary part is negligible against its largest entry is taken as
its real part.  The solver then works in float64 alone.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    OccupationConfig,
    _check_integer,
    _check_order_and_modes,
    block_dimension,
    build_mode_matrix,
    enumerate_block_basis,
    root_of_unity_power,
    weight,
)
from .deformations import Deformation, evaluate
from .eigensolver import HERMITICITY_RTOL, _require_hermitian
from .errors import NumericalError, ParameterError

#: The most rows a block may have: a 256 MiB complex matrix, whose solve with
#: eigenvectors peaks at about three times that.  A larger block is refused
#: before its basis is enumerated.
MAX_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings plus the structural choices (F, k, deformation)."""

    F: int
    k: int
    omega: float
    delta: float
    g: float
    #: Validated and stored, but nothing in the model reads it: each
    #: Deformation carries its own hbar.  Removing the field waits for a
    #: change to the benchmark, whose oracle (bench/oracle.py) passes it.
    hbar: float = 1.0
    beta: float = 1.0
    deformation: Deformation = Deformation.undeformed()

    def __post_init__(self):
        F, k = _check_order_and_modes(self.F, self.k)
        object.__setattr__(self, "F", F)  # frozen: an integral float is stored as its int
        object.__setattr__(self, "k", k)
        for name in ("omega", "delta", "g", "hbar", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.hbar > 0:
            raise ParameterError(f"hbar must be positive, got {self.hbar}")
        if not self.beta > 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if not isinstance(self.deformation, Deformation):
            raise ParameterError("deformation must be a Deformation instance")

    def with_omega(self, omega: float) -> "ModelParams":
        return replace(self, omega=float(omega))


@dataclass(frozen=True)
class BlockHamiltonian:
    """One conserved-number block: its label n, basis, and dense Hermitian matrix.

    The block keeps a read-only complex copy of the matrix it is given, so no
    view of the caller's array can change it once checked; its real form
    (``_real_form``) and the solver check it again all the same, as numpy
    lets any caller make it writeable.
    """

    n: int
    basis: tuple[OccupationConfig, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.array(self.matrix, dtype=np.complex128))  # frozen
        self._check()

    @classmethod
    def _taking(cls, n: int, basis: tuple[OccupationConfig, ...], matrix: np.ndarray):
        """The block of a fresh complex array that no one else holds, without
        the copy: at d = 256 the copy's new pages cost about as much as the
        Hermiticity check."""
        block = cls.__new__(cls)
        for name, value in (("n", n), ("basis", basis), ("matrix", matrix)):
            object.__setattr__(block, name, value)
        block._check()
        return block

    def __reduce__(self):
        # a copy or an unpickled block goes through the constructor, so it
        # too owns a read-only, checked matrix
        return type(self), (self.n, self.basis, self.matrix)

    def _check(self):
        if self.matrix.shape != (len(self.basis), len(self.basis)):
            raise ParameterError("matrix dimension does not match basis length")
        _require_hermitian(self.matrix)
        self.matrix.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.basis)


class _Hops(NamedTuple):
    """Block (F, k, n) as read-only index arrays: its basis, each state's
    weight W, the largest weight, and the two entries of each hop.  Hop h
    takes state P of weight W, lowered at mode l, to state P': its entries
    (P', P) and (P, P') are at index[h] and index[h + hops] of the flattened
    matrix.  Both take phi(n + 1 - W) = phi(n - (W - 1)) from raised = W - 1
    and carry P's occupation occ = i_l; tail = sum_{s>l} i_s indexes the
    q-phases at the first entry and, offset by top + 1, their conjugates at
    the second.  The mode-reversal data: mirror[i] is the row of state i's
    occupations in reverse order, and e2[i] = sum_{s<t} i_s i_t, the same
    for both."""

    basis: tuple[OccupationConfig, ...]
    weights: np.ndarray
    top: int
    index: np.ndarray
    raised: np.ndarray
    occ: np.ndarray
    tail: np.ndarray
    mirror: np.ndarray
    e2: np.ndarray


@functools.lru_cache(maxsize=64)
def _hops(F: int, k: int, n: int) -> _Hops:
    """The hops of block (F, k, n), cached: a scan and each of its derivative
    checks build the same block, and tiny blocks would otherwise pay numpy's
    call overhead once per request."""
    dim = block_dimension(F, k, n)
    if dim > MAX_BLOCK_ROWS:
        raise ParameterError(f"block (F={F}, k={k}, n={n}) has {dim} rows, "
                             f"above the limit of {MAX_BLOCK_ROWS}")
    basis = tuple(enumerate_block_basis(F, k, n))
    occupations = np.array(basis, dtype=np.int64).reshape(dim, k)
    # mixed-radix codes, no digit above n, ascend in the basis's lexicographic
    # order; Python ints once the codes could pass int64
    radix = min(F, n + 1)
    place = np.array([radix ** (k - 1 - l) for l in range(k)],
                     dtype=np.int64 if radix ** k < 2 ** 62 else object)
    codes = occupations @ place
    cols, modes = np.nonzero(occupations)
    rows = np.searchsorted(codes, codes[cols] - place[modes])
    weights = occupations.sum(axis=1)
    top = int(weights.max())
    tail = (np.cumsum(occupations[:, ::-1], axis=1)[:, ::-1] - occupations)[cols, modes]
    hops = _Hops(basis, weights, top, np.concatenate([rows * dim + cols, cols * dim + rows]),
                 np.tile(weights[cols] - 1, 2), np.tile(occupations[cols, modes], 2),
                 np.concatenate([tail, tail + top + 1]),
                 np.searchsorted(codes, occupations @ place[::-1]),
                 (weights * weights - np.sum(occupations * occupations, axis=1)) // 2)
    for array in hops:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return hops


def _structure_values(phi: Deformation, n: int, top: int) -> np.ndarray:
    """phi(n - W) for W = 0..top, evaluated in that order: descending from
    phi(n), as a loop over the basis states first meets them, so the first
    failure names the x that such a loop would."""
    return np.array([evaluate(phi, n - W) for W in range(top + 1)], dtype=np.float64)


def _assemble(
    params: ModelParams, n: int, hop_factors: Callable[[_Hops], np.ndarray]
) -> BlockHamiltonian:
    """Block H_n whose hops' entries carry the factors hop_factors(hops).

    The entries are those of a loop over the basis states and their hops,
    bit for bit: phi at the same arguments, the same products, and each
    off-diagonal entry added to a zero.  An entry beyond the float range
    raises NumericalError naming its relation and (F, k, n).
    """
    hops = _hops(params.F, params.k, n)
    W = hops.weights
    phi = _structure_values(params.deformation, n, hops.top)
    factors = hop_factors(hops)
    H = np.zeros((W.size, W.size), dtype=np.complex128)
    entries = H.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        entries[::W.size + 1] = params.omega * phi[W] + params.delta * W
        # a hop lowers a mode and raises the boson
        entries[hops.index] += params.g * np.sqrt(phi[hops.raised]) * factors
    if not np.isfinite(H).all():
        relation = ("diagonal omega * phi(n - W) + delta * W"
                    if not np.isfinite(H.diagonal()).all() else "hop g * sqrt(phi(n + 1 - W))")
        raise NumericalError(f"the block's {relation} leaves the float range "
                             f"(F={params.F}, k={params.k}, n={n})")
    return BlockHamiltonian._taking(n, hops.basis, H)


def build_block(params: ModelParams, n: int) -> BlockHamiltonian:
    """Assemble the dense block H_n of the parafermion-oscillator Hamiltonian."""
    def phases(hops: _Hops) -> np.ndarray:
        # q^(-t) for each tail t <= top, then the conjugates
        table = [root_of_unity_power(params.F, -t) for t in range(hops.top + 1)]
        return np.array(table + [z.conjugate() for z in table])[hops.tail]
    return _assemble(params, n, phases)


def build_higher_spin_block(params: ModelParams, n: int) -> BlockHamiltonian:
    """Block of the spin-(F-1)/2 variant: q-phases replaced by SU(2) ladder factors.

    Same diagonal as ``build_block``; the hop between P and P lowered at mode l
    carries sqrt(i_l * (F - i_l)) instead of a root-of-unity phase, so the
    matrix is real symmetric.
    """
    return _assemble(params, n, lambda hops: np.array(
        [math.sqrt(i * (params.F - i)) for i in range(min(params.F, hops.top + 1))])[hops.occ])


def _real_form(block: BlockHamiltonian, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(R, ops): the block's matrix as a real symmetric one, and the diagonal
    operators N = n - W, W and phi(n - W) of R's rows as the columns of a
    (dim, 3) array.

    Raises ParameterError if the block's basis is not that of params' (F, k)
    at its n, naming the (F, k) that its basis reads as: the largest
    occupation plus one for F, or F > n when every F above n has that basis.

    R is the matrix's real part, in the block's order, when its imaginary
    part is at most HERMITICITY_RTOL * max|H|: spin blocks and k = 1 chains
    have none, and F = 2 blocks only the rounding of their phases +-1.
    Otherwise R is in the basis that the mode-reversal symmetry fixes: e_P
    for each palindrome P; then (e_P + e_pi P) / sqrt(2) for each other pair
    (P, pi P), pi the reversal and P the lower row; then i (e_P - e_pi P) /
    sqrt(2) for each pair.  Both vectors of a pair have P's weight, so their
    operators are P's.

    With c_P = q^(e2(P) / 2), the same for P and pi P, G = C* H C has
    G[pi P, pi Q] = conj(G[P, Q]).  R is taken from the rows of the
    palindromes and of the pairs' lower states, by a few block-wise passes;
    what that drops is at most the largest defect
    |G[pi P, pi Q] - conj(G[P, Q])|.  A defect above HERMITICITY_RTOL *
    max|H|, relative at any scale as the test of the imaginary part is (but
    for subnormal entries, whose rounding is absolute: there max|H| counts
    as the smallest normal float), raises ParameterError naming the reversal
    symmetry and (F, k, n), or the eigensolver's "not Hermitian" when H is
    not Hermitian.
    No hop joins P and pi P, so the diagonal is H's, bit for bit.
    """
    hops = _hops(params.F, params.k, block.n)
    if hops.basis != tuple(block.basis):
        k = len(block.basis[0]) if block.basis else 0
        top = max((i for state in block.basis for i in state), default=0)
        F = f"F={top + 1}" if top < block.n else f"F>{block.n}"
        raise ParameterError(f"params (F={params.F}, k={params.k}) do not fit block n={block.n}, "
                             f"whose basis reads as ({F}, k={k})")
    W = hops.weights
    phi = _structure_values(params.deformation, block.n, hops.top)
    ops = np.column_stack([block.n - W, W, phi[W]])
    H = block.matrix
    scale = np.abs(H).max(initial=0.0)  # inf only for an edited matrix, which takes the gauge
    if np.abs(H.imag).max(initial=0.0) <= HERMITICITY_RTOL * scale < math.inf:
        return H.real.copy(), ops
    rows = np.arange(block.dim)
    pairs = np.flatnonzero(rows < hops.mirror)
    order = np.concatenate([np.flatnonzero(rows == hops.mirror), pairs, hops.mirror[pairs]])
    d, m = block.dim, pairs.size
    P, A, B = slice(0, d - 2 * m), slice(d - 2 * m, d - m), slice(d - m, d)
    table = np.array([root_of_unity_power(2 * params.F, e) for e in range(2 * params.F)])
    c = table[hops.e2[order] % (2 * params.F)]
    G = H[np.ix_(order, order)]
    G *= c.conj()[:, np.newaxis]
    G *= c
    G.reshape(-1)[::d + 1] = H.diagonal()[order]  # c* c, exactly 1
    Gr, Gi = G.real, G.imag
    R = np.empty((d, d))
    root2 = math.sqrt(2.0)
    where = f"block (F={params.F}, k={params.k}, n={block.n})"
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        R[P, P] = Gr[P, P]
        np.multiply(Gr[P, A], root2, out=R[P, A])
        np.multiply(Gi[P, A], -root2, out=R[P, B])
        np.multiply(Gr[A, P], root2, out=R[A, P])
        np.multiply(Gi[A, P], root2, out=R[B, P])
        np.add(Gr[A, A], Gr[A, B], out=R[A, A])
        np.subtract(Gi[A, B], Gi[A, A], out=R[A, B])
        np.add(Gi[A, A], Gi[A, B], out=R[B, A])
        np.subtract(Gr[A, A], Gr[A, B], out=R[B, B])
        defect = max(np.abs(Gi[P, P]).max(initial=0.0),
                     *(np.abs(G[X, Y] - G[U, V].conj()).max(initial=0.0)
                       for X, Y, U, V in ((P, B, P, A), (B, P, A, P), (B, B, A, A), (B, A, A, B))))
    if not defect <= HERMITICITY_RTOL * max(scale, sys.float_info.min):
        _require_hermitian(H)
        raise ParameterError(f"matrix breaks the mode-reversal symmetry of {where} by {defect:.3e}")
    if not np.isfinite(R).all():  # entries of up to twice max|H|
        raise NumericalError(f"the real form of {where} leaves the float range")
    return R, ops[order]


def build_full_truncated(
    params: ModelParams, n_max: int
) -> tuple[np.ndarray, list[tuple[int, OccupationConfig]]]:
    """Hamiltonian on the product space with boson occupation capped at n_max.

    Used to confirm the conserved-number block structure: the truncation only
    removes couplings, so the commutator with the total number operator
    vanishes on the whole truncated space, and every block with n <= n_max is
    embedded intact.  Basis labels are (boson occupation, occupation tuple),
    boson index slowest.
    """
    n_max = _check_integer(n_max, params.k * (params.F - 1), "n_max")
    phi = params.deformation
    nb = n_max + 1
    lowering = np.zeros((nb, nb), dtype=np.complex128)
    for occ in range(1, nb):
        lowering[occ - 1, occ] = math.sqrt(evaluate(phi, occ))
    raising = lowering.conj().T
    phi_diag = np.diag([evaluate(phi, occ) for occ in range(nb)]).astype(np.complex128)

    pf_basis = enumerate_block_basis(params.F, params.k, params.k * (params.F - 1))
    pf_dim = len(pf_basis)
    weight_diag = np.diag([float(weight(p)) for p in pf_basis]).astype(np.complex128)

    H = params.omega * np.kron(phi_diag, np.eye(pf_dim)) \
        + params.delta * np.kron(np.eye(nb), weight_diag)
    for m in range(1, params.k + 1):
        theta = build_mode_matrix(params.F, params.k, m)
        H += params.g * (np.kron(lowering, theta.conj().T) + np.kron(raising, theta))
    _require_hermitian(H)
    labels = [(occ, p) for occ in range(nb) for p in pf_basis]
    return H, labels
