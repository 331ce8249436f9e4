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
* ``qsym``            phi(x) = (q^{-x} - q^x)/(q^{-1} - q) for real q > 0.
                      Identical to ``qexp`` with hbar = ln q (both numerator
                      and denominator flip sign together), and evaluated so.
* ``parafermionic``   phi(x) = x*(F - x); realizes spin-(F-1)/2 ladder
                      operators, vanishing at x = 0 and x = F.
* ``custom``          any user callable with phi(0) = 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DeformationError, ParameterError

_KINDS = ("undeformed", "linear", "qexp", "qsym", "parafermionic", "custom")

# |phi(0)| and negative-value slack before declaring a contract violation
_CONTRACT_TOL = 1e-12


def _normal_sinh(hbar: float) -> bool:
    """Whether sinh(hbar) (hbar > 0), the denominator of the q-numbers, is a normal float."""
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
        if self.kind in ("linear", "qexp", "qsym", "parafermionic") and self.param is None:
            raise ParameterError(f"{self.kind} deformation needs a parameter")
        if self.param is not None and not math.isfinite(self.param):
            raise ParameterError(f"{self.kind} deformation needs a finite parameter, got {self.param}")
        if self.kind == "linear" and not self.param > 0:
            raise ParameterError("linear deformation needs hbar > 0")
        if self.kind == "qexp" and not (self.param > 0 and _normal_sinh(self.param)):
            raise ParameterError(
                f"qexp deformation needs hbar > 0 with sinh(hbar) a normal float, got {self.param}"
            )
        if self.kind == "qsym":
            if not (self.param > 0) or self.param == 1.0:
                raise ParameterError("qsym deformation needs real q > 0, q != 1")
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
    def q_sym(cls, q: float) -> "Deformation":
        return cls("qsym", float(q))

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
        if self.kind in ("qexp", "qsym"):
            # the sinh form keeps full relative accuracy for small hbar, where
            # the differences of exponentials cancel
            h = self.param if self.kind == "qexp" else math.log(self.param)
            return math.sinh(h * x) / math.sinh(h)
        if self.kind == "parafermionic":
            return x * (self.param - x)
        return float(self.fn(x))

    def to_dict(self) -> dict:
        """Tagged-record form used by CLI config files."""
        if self.kind == "undeformed":
            return {"type": "undeformed"}
        if self.kind in ("linear", "qexp"):
            return {"type": self.kind, "hbar": self.param}
        if self.kind == "qsym":
            return {"type": "qsym", "q": self.param}
        if self.kind == "parafermionic":
            return {"type": "parafermionic", "F": int(self.param)}
        raise ParameterError("custom deformations are not serializable")

    @classmethod
    def from_dict(cls, record: dict) -> "Deformation":
        if not isinstance(record, dict) or "type" not in record:
            raise ParameterError(f"deformation record must be a dict with a 'type' key, got {record!r}")
        kind = record["type"]
        extra = set(record) - {"type", "hbar", "q", "F"}
        if extra:
            raise ParameterError(f"unknown deformation keys: {sorted(extra)}")
        needs = {"undeformed": None, "linear": "hbar", "qexp": "hbar", "qsym": "q", "parafermionic": "F"}
        if kind not in needs:
            raise ParameterError(f"unknown deformation type {kind!r}")
        key = needs[kind]
        if key is None:
            return cls.undeformed()
        if key not in record:
            raise ParameterError(f"{kind} deformation record needs a {key!r} entry")
        try:
            value = float(record[key])
        except (TypeError, ValueError):
            raise ParameterError(
                f"{kind} deformation needs a number for {key!r}, got {record[key]!r}"
            ) from None
        constructor = {"linear": cls.linear, "qexp": cls.q_exp, "qsym": cls.q_sym,
                       "parafermionic": cls.parafermionic}[kind]
        return constructor(value)


def evaluate(phi: Deformation, x: float) -> float:
    """Evaluate phi(x), enforcing nonnegativity (the value feeds square roots)."""
    value = phi(x)
    if value < 0.0:
        if value > -_CONTRACT_TOL:
            return 0.0
        raise DeformationError(f"structure function is negative at x={x}: phi(x)={value}")
    return value
