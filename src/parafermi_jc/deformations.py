"""Structure functions for deformed oscillator algebras.

A deformed oscillator is fixed by a structure function phi with
``a^dag a = phi(N)`` and ``a a^dag = phi(N+1)``, so the ladder amplitudes are
``a|n> = sqrt(phi(n))|n-1>`` and ``a^dag|n> = sqrt(phi(n+1))|n+1>``.  Any
admissible phi must satisfy phi(0) = 0 (the vacuum is annihilated) and must be
nonnegative at the integer points where it is evaluated, since those values
sit under square roots.

Named variants:

* ``undeformed``      phi(x) = x, the ordinary boson.
* ``linear``          phi(x) = hbar*x, a dimensionful boson used for the
                      semiclassical expansion in hbar.
* ``qexp``            phi(x) = (e^{hbar x} - e^{-hbar x})/(e^hbar - e^{-hbar}),
                      the q-number with real q = e^hbar, evaluated as
                      sinh(hbar x)/sinh(hbar).
* ``parafermionic``   phi(x) = x*(F - x); realizes spin-(F-1)/2 ladder
                      operators, vanishing at x = 0 and x = F.
* ``custom``          any user callable with phi(0) = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DeformationError, NumericalError, ParameterError

#: kind -> the key of its parameter in a tagged record (None: no parameter)
_KINDS = {"undeformed": None, "linear": "hbar", "qexp": "hbar", "parafermionic": "F",
          "custom": None}

# |phi(0)| and negative-value slack before declaring a contract violation
_CONTRACT_TOL = 1e-12


def _normal_sinh(hbar: float) -> bool:
    """Whether sinh(hbar) (hbar > 0), the denominator of the q-number, is a normal float."""
    try:
        return math.sinh(hbar) >= sys.float_info.min
    except OverflowError:
        return False


@dataclass(frozen=True)
class Deformation:
    """Tagged structure function; build instances through the classmethods."""

    kind: str
    param: Optional[float] = None
    fn: Optional[Callable[[float], float]] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown deformation kind {self.kind!r}")
        if _KINDS[self.kind] and self.param is None:
            raise ParameterError(f"{self.kind} deformation needs a parameter")
        if self.param is not None and not math.isfinite(self.param):
            raise ParameterError(f"{self.kind} deformation needs a finite parameter, got {self.param}")
        if self.kind == "linear" and not self.param > 0:
            raise ParameterError("linear deformation needs hbar > 0")
        if self.kind == "qexp" and not (self.param > 0 and _normal_sinh(self.param)):
            raise ParameterError(
                f"qexp deformation needs hbar > 0 with sinh(hbar) a normal float, got {self.param}"
            )
        if self.kind == "parafermionic" and (int(self.param) != self.param or self.param < 2):
            raise ParameterError("parafermionic deformation needs integer order >= 2")
        if self.kind == "custom":
            if self.fn is None:
                raise ParameterError("custom deformation needs a callable")
            if abs(self.fn(0.0)) > _CONTRACT_TOL:
                raise DeformationError("custom structure function must vanish at 0")

    @classmethod
    def undeformed(cls) -> "Deformation":
        return cls("undeformed")

    @classmethod
    def linear(cls, hbar: float) -> "Deformation":
        return cls("linear", float(hbar))

    @classmethod
    def q_exp(cls, hbar: float) -> "Deformation":
        return cls("qexp", float(hbar))

    @classmethod
    def parafermionic(cls, order: int) -> "Deformation":
        return cls("parafermionic", float(order))

    @classmethod
    def custom(cls, fn: Callable[[float], float]) -> "Deformation":
        return cls("custom", None, fn)

    def __call__(self, x: float) -> float:
        if self.kind == "undeformed":
            return float(x)
        if self.kind == "linear":
            return self.param * x
        if self.kind == "qexp":
            # the sinh form keeps full relative accuracy for small hbar, where
            # the differences of exponentials cancel
            return math.sinh(self.param * x) / math.sinh(self.param)
        if self.kind == "parafermionic":
            return x * (self.param - x)
        return float(self.fn(x))

    def to_dict(self) -> dict:
        """Tagged-record form used by CLI config files."""
        if self.kind == "custom":
            raise ParameterError("custom deformations are not serializable")
        key = _KINDS[self.kind]
        if key is None:
            return {"type": self.kind}
        return {"type": self.kind, key: int(self.param) if key == "F" else self.param}

    @classmethod
    def from_dict(cls, record: dict) -> "Deformation":
        if not isinstance(record, dict) or "type" not in record:
            raise ParameterError(f"deformation record must be a dict with a 'type' key, got {record!r}")
        kind = record["type"]
        if not isinstance(kind, str) or kind not in _KINDS or kind == "custom":
            raise ParameterError(f"unknown deformation type {kind!r}")
        extra = set(record) - {"type", *filter(None, _KINDS.values())}
        if extra:
            raise ParameterError(f"unknown deformation keys: {sorted(extra)}")
        key = _KINDS[kind]
        if key is None:
            return cls(kind)
        if key not in record:
            raise ParameterError(f"{kind} deformation record needs a {key!r} entry")
        try:
            value = float(record[key])
        except (TypeError, ValueError):
            raise ParameterError(
                f"{kind} deformation needs a number for {key!r}, got {record[key]!r}"
            ) from None
        return cls(kind, value)


def evaluate(phi: Deformation, x: float) -> float:
    """Evaluate phi(x), enforcing nonnegativity (the value feeds square roots).

    A phi(x) beyond the float range that raises OverflowError (as math.sinh
    does) raises NumericalError naming the deformation and x.
    """
    try:
        value = phi(x)
    except OverflowError:
        raise NumericalError(f"structure function {phi!r} overflows at x={x}") from None
    if value < 0.0:
        if value > -_CONTRACT_TOL:
            return 0.0
        raise DeformationError(f"structure function is negative at x={x}: phi(x)={value}")
    return value
