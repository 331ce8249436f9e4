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
asserted, never symmetrized, so a transcription error fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .algebra import (
    OccupationConfig,
    _check_integer,
    _check_order_and_modes,
    build_mode_matrix,
    enumerate_block_basis,
    root_of_unity_power,
    weight,
)
from .deformations import Deformation, evaluate
from .eigensolver import _require_hermitian
from .errors import NumericalError, ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Physical couplings plus the structural choices (F, k, deformation)."""

    F: int
    k: int
    omega: float
    delta: float
    g: float
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
    """One conserved-number block: its label n, basis, and dense Hermitian matrix."""

    n: int
    basis: tuple[OccupationConfig, ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (len(self.basis), len(self.basis)):
            raise ParameterError("matrix dimension does not match basis length")
        _require_hermitian(self.matrix)
        self.matrix.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.basis)


def _lowered(p: OccupationConfig, l: int) -> OccupationConfig:
    return p[:l] + (p[l] - 1,) + p[l + 1:]


def _assemble(
    params: ModelParams, n: int, hop_factor: Callable[[OccupationConfig, int], complex]
) -> BlockHamiltonian:
    """Block H_n whose hop from P to P lowered at mode l carries hop_factor(P, l).

    An entry beyond the float range raises NumericalError naming its relation
    and (F, k, n).
    """
    basis = enumerate_block_basis(params.F, params.k, n)
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis)
    phi = params.deformation
    H = np.zeros((dim, dim), dtype=np.complex128)
    for p, col in index.items():
        W = weight(p)
        H[col, col] = params.omega * evaluate(phi, n - W) + params.delta * W
        hop_modes = [l for l in range(params.k) if p[l] > 0]
        if not hop_modes:
            continue
        # hopping to the config with mode l lowered: boson gains one quantum
        amp_base = params.g * math.sqrt(evaluate(phi, n + 1 - W))
        for l in hop_modes:
            row = index[_lowered(p, l)]
            factor = hop_factor(p, l)
            H[row, col] += amp_base * factor
            H[col, row] += amp_base * factor.conjugate()
    bad = ~np.isfinite(H)
    if bad.any():
        relation = ("diagonal omega * phi(n - W) + delta * W" if bad.diagonal().any()
                    else "hop g * sqrt(phi(n + 1 - W))")
        raise NumericalError(f"the block's {relation} leaves the float range "
                             f"(F={params.F}, k={params.k}, n={n})")
    return BlockHamiltonian(n, tuple(basis), H)


def build_block(params: ModelParams, n: int) -> BlockHamiltonian:
    """Assemble the dense block H_n of the parafermion-oscillator Hamiltonian."""
    return _assemble(params, n, lambda p, l: root_of_unity_power(params.F, -sum(p[l + 1:])))


def build_higher_spin_block(params: ModelParams, n: int) -> BlockHamiltonian:
    """Block of the spin-(F-1)/2 variant: q-phases replaced by SU(2) ladder factors.

    Same diagonal as ``build_block``; the hop between P and P lowered at mode l
    carries sqrt(i_l * (F - i_l)) instead of a root-of-unity phase, so the
    matrix is real symmetric.
    """
    return _assemble(params, n, lambda p, l: math.sqrt(p[l] * (params.F - p[l])))


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
