"""Exact diagonalization and thermodynamics of Fock parafermions coupled to a
(possibly deformed) oscillator mode, block by conserved total excitation number."""

from .algebra import (
    CliffordTriple,
    OccupationConfig,
    block_dimension,
    block_dimension_closed_form,
    build_mode_matrix,
    clifford_mode,
    clifford_triple,
    enumerate_block_basis,
    number_operator_matrix,
    weight,
)
from .blocks import (
    BlockHamiltonian,
    ModelParams,
    build_block,
    build_higher_spin_block,
)
from .deformations import Deformation, evaluate
from .eigensolver import Spectrum, eigendecompose
from .errors import (
    ConvergenceError,
    DeformationError,
    NumericalError,
    OutOfRegimeError,
    ParameterError,
)
from .exact import (
    LabeledSpectrum,
    exact_f2_deformed,
    exact_f2_undeformed,
    exact_f3_k1,
    semiclassical_level_table,
    semiclassical_z_f2_closed_form,
)
from .thermo import (
    PlateauReport,
    ThermoObservables,
    detect_plateaus,
    log_sum_exp,
    n_via_mu_derivative,
    omega_scan,
    phi_n_via_omega_derivative,
    thermo_from_block,
)

__version__ = "0.1.0"

__all__ = [
    "BlockHamiltonian",
    "CliffordTriple",
    "ConvergenceError",
    "Deformation",
    "DeformationError",
    "LabeledSpectrum",
    "ModelParams",
    "NumericalError",
    "OccupationConfig",
    "OutOfRegimeError",
    "ParameterError",
    "PlateauReport",
    "Spectrum",
    "ThermoObservables",
    "block_dimension",
    "block_dimension_closed_form",
    "build_block",
    "build_higher_spin_block",
    "build_mode_matrix",
    "clifford_mode",
    "clifford_triple",
    "detect_plateaus",
    "eigendecompose",
    "enumerate_block_basis",
    "evaluate",
    "exact_f2_deformed",
    "exact_f2_undeformed",
    "exact_f3_k1",
    "log_sum_exp",
    "n_via_mu_derivative",
    "number_operator_matrix",
    "omega_scan",
    "phi_n_via_omega_derivative",
    "semiclassical_level_table",
    "semiclassical_z_f2_closed_form",
    "thermo_from_block",
    "weight",
]
