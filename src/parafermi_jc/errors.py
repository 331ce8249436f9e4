"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ParameterError (and subclasses) -> 1,
NumericalError -> 2, verification failures -> 3.
"""


class ParameterError(ValueError):
    """Invalid input: bad F/k/n, non-finite value, malformed grid, non-Hermitian matrix, ..."""


class DeformationError(ParameterError):
    """A structure function violated its contract (Phi(0) != 0, negative value...)."""


class OutOfRegimeError(ParameterError):
    """A closed-form expression was requested outside its regime of validity."""


class NumericalError(RuntimeError):
    """Numerical failure: negative radicand, a partition function beyond the float range, ..."""


class ConvergenceError(NumericalError):
    """Iterative eigensolver exceeded its sweep cap."""
