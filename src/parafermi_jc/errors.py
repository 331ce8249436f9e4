"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ParameterError (and subclasses) -> 1,
NumericalError -> 2, verification failures -> 3.
"""

from __future__ import annotations

from typing import Optional


class ParameterError(ValueError):
    """Invalid input: bad F/k/n, non-finite value, malformed grid, non-Hermitian matrix, ..."""


class DeformationError(ParameterError):
    """A structure function violated its contract (Phi(0) != 0, negative value...)."""


class OutOfRegimeError(ParameterError):
    """A closed-form expression was requested outside its regime of validity."""


class NumericalError(RuntimeError):
    """Numerical failure: a level or a partition function beyond the float range, ...

    ``index`` is the position of the failing matrix when the failure hit one
    matrix of a stack, so a caller that built the stack can name its point.
    """

    def __init__(self, message: str, index: Optional[int] = None):
        super().__init__(message)
        self.index = index


class ConvergenceError(NumericalError):
    """Iterative eigensolver exceeded its sweep cap."""
