"""Self-check suites behind the ``verify`` CLI command.

Three scopes: ``algebra`` (operator relations and counting identities),
``oracles`` (closed forms against the numerical eigensolver), ``thermo``
(expectation-value consistency).  Each check returns a named pass/fail record
so a fault injected anywhere in the pipeline surfaces with a pointer to the
relation it broke.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .blocks import (
    ModelParams,
    _real_form,
    build_block,
    build_full_truncated,
    build_higher_spin_block,
)
from .deformations import Deformation
from .eigensolver import eigendecompose
from .errors import ParameterError
from .exact import (
    _linearized_f2,
    _linearized_k1,
    exact_f2_deformed,
    exact_f2_undeformed,
    exact_f3_k1,
    semiclassical_level_table,
    semiclassical_z_f2_closed_form,
)
from .thermo import (
    log_sum_exp,
    n_via_mu_derivative,
    phi_n_via_omega_derivative,
    thermo_from_block,
)

SCOPES = ("algebra", "oracles", "thermo")

ALGEBRA_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, deviation: float, tol: float) -> CheckResult:
    return CheckResult(name, deviation <= tol, f"max deviation {deviation:.3e} (tol {tol:.1e})")


def _maxabs(M: np.ndarray) -> float:
    return float(np.max(np.abs(M))) if M.size else 0.0


def algebra_checks() -> list[CheckResult]:
    results = []
    # pairwise q-commutation theta_i theta_j = q theta_j theta_i (i < j)
    worst = 0.0
    for F, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
        q = algebra.root_of_unity_power(F, 1)
        thetas = [algebra.build_mode_matrix(F, k, m) for m in range(1, k + 1)]
        for i, j in itertools.combinations(range(k), 2):
            dev = _maxabs(thetas[i] @ thetas[j] - q * thetas[j] @ thetas[i])
            worst = max(worst, dev)
    results.append(_result("q_commutation", worst, ALGEBRA_TOL))

    worst = 0.0
    for F, k in ((2, 1), (3, 2), (4, 3), (5, 2)):
        for m in range(1, k + 1):
            theta = algebra.build_mode_matrix(F, k, m)
            worst = max(worst, _maxabs(np.linalg.matrix_power(theta, F)))
    results.append(_result("nilpotency", worst, ALGEBRA_TOL))

    worst = 0.0
    for F, k in ((3, 2), (4, 2)):
        thetas = [algebra.build_mode_matrix(F, k, m) for m in range(1, k + 1)]
        numbers = [algebra.number_operator_matrix(F, k, i) for i in range(1, k + 1)]
        for i in range(k):
            for j in range(k):
                delta_ij = 1.0 if i == j else 0.0
                comm = numbers[i] @ thetas[j] - thetas[j] @ numbers[i]
                worst = max(worst, _maxabs(comm + delta_ij * thetas[j]))
                dag = thetas[j].conj().T
                comm = numbers[i] @ dag - dag @ numbers[i]
                worst = max(worst, _maxabs(comm - delta_ij * dag))
    results.append(_result("number_commutators", worst, ALGEBRA_TOL))

    worst = 0.0
    for F, k in ((3, 2), (4, 3)):
        numbers = sum(algebra.number_operator_matrix(F, k, i) for i in range(1, k + 1))
        basis = algebra.enumerate_block_basis(F, k, k * (F - 1))
        expected = np.array([algebra.weight(p) for p in basis], dtype=float)
        worst = max(worst, float(np.max(np.abs(np.diag(numbers).real - expected))))
    results.append(_result("total_number_diagonal", worst, 0.0))

    counting_ok = True
    for F in range(2, 6):
        for k in range(1, 5):
            for n in range(0, 3 * k * (F - 1) + 1):
                if algebra.block_dimension(F, k, n) != algebra.block_dimension_closed_form(F, k, n):
                    counting_ok = False
            for n in range(0, k * (F - 1) + 2):
                if len(algebra.enumerate_block_basis(F, k, n)) != algebra.block_dimension(F, k, n):
                    counting_ok = False
    results.append(CheckResult("dimension_counting", counting_ok,
                               "convolution vs alternating sum vs enumeration"))

    worst = 0.0
    for F in (2, 3, 4, 5):
        triple = algebra.clifford_triple(F)
        q = algebra.root_of_unity_power(F, 1)
        eye = np.eye(F)
        worst = max(worst, _maxabs(np.linalg.matrix_power(triple.sigma1, F) - eye))
        worst = max(worst, _maxabs(np.linalg.matrix_power(triple.sigma3, F) - eye))
        worst = max(worst, _maxabs(triple.sigma1 @ triple.sigma3 - q * triple.sigma3 @ triple.sigma1))
        worst = max(worst, _maxabs(triple.sigma2 - triple.sigma3 @ triple.sigma1))
    results.append(_result("clifford_relations", worst, ALGEBRA_TOL))

    worst = 0.0
    for F in (2, 3, 4):
        for phi in (Deformation.parafermionic(F), Deformation.custom(lambda x, F=F: math.sin(math.pi * x / F))):
            a = algebra.clifford_mode(F, phi)
            worst = max(worst, _maxabs(np.linalg.matrix_power(a, F)))
            target = np.diag([phi(float(j)) for j in range(F)])
            worst = max(worst, _maxabs(a.conj().T @ a - target))
    results.append(_result("clifford_mode_contract", worst, ALGEBRA_TOL))
    return results


def _closed_form_deviation(shapes, couplings, phi: Deformation, exact) -> float:
    """Largest |numeric - exact| / (1 + |numeric|) over the (F, k, n) shapes and the
    (omega, delta, g) couplings, the closed form being exact(k, n, omega, delta, g);
    the couplings of one shape are solved as one stack."""
    worst = 0.0
    for F, k, n in shapes:
        stack = np.stack([build_block(ModelParams(F, k, *c, deformation=phi), n).matrix
                          for c in couplings])
        numeric = eigendecompose(stack).eigenvalues
        closed = np.array([exact(k, n, *c).values() for c in couplings])
        worst = max(worst, float(np.max(np.abs(numeric - closed) / (1 + np.abs(numeric)))))
    return worst


def spin_equivalence() -> CheckResult:
    """k = 1 Fock parafermions of order F <= 3 are spins s = (F - 1)/2: the
    spectrum of build_block at coupling g equals that of build_higher_spin_block
    at g / sqrt(F - 1) for F = 2, 3 and n = 1..4, to 1e-10.  F = 4 is the
    negative control: from n = 2 on, its spectra differ by more than 1e-2.

    A case's two blocks have the same size, min(n, F - 1) + 1, so each pair
    is solved as one stack of two, with nothing padded.
    """
    omega, delta, g = 1.3, 0.7, 0.9
    cases = [(F, n) for F in (2, 3) for n in range(1, 5)] + [(4, n) for n in range(2, 6)]
    equal, apart, failures = 0.0, math.inf, []
    for F, n in cases:
        spin = ModelParams(F, 1, omega, delta, g / math.sqrt(F - 1))
        values = eigendecompose(np.stack([
            build_block(ModelParams(F, 1, omega, delta, g), n).matrix,
            build_higher_spin_block(spin, n).matrix])).eigenvalues
        dev = float(np.max(np.abs(values[0] - values[1])))
        if F <= 3:
            equal = max(equal, dev)
            if not dev <= 1e-10:
                failures.append(f"F={F}, n={n}: deviation {dev:.3e} (tol 1e-10)")
        else:
            apart = min(apart, dev)
            if not dev > 1e-2:
                failures.append(f"F={F}, n={n}: deviation {dev:.3e} (must exceed 1e-2)")
    detail = "; ".join(failures) or (f"max deviation {equal:.3e} for F <= 3 (tol 1e-10); "
                                     f"F=4 apart by at least {apart:.3e} (> 1e-2)")
    return CheckResult("spin_equivalence", not failures, detail)


def block_structure() -> CheckResult:
    """N_total = boson occupation + W is conserved: on the truncated space of
    ``build_full_truncated`` for (F, k) = (2, 2), (3, 2), |[H, N_total]| <=
    1e-12 * max(1, max|H|), and each block n <= n_max is H restricted to the
    states with occupation + W = n, to 1e-12."""
    deviations = {}
    for F, k in ((2, 2), (3, 2)):
        params = ModelParams(F, k, 1.3, 0.7, 0.9, deformation=Deformation.q_exp(0.3))
        n_max = k * (F - 1) + 2
        H, labels = build_full_truncated(params, n_max)
        total = np.array([occ + algebra.weight(p) for occ, p in labels], dtype=np.float64)
        # [H, N_total] has entries H_ij (N_j - N_i)
        deviations[f"F={F}, k={k}: |[H, N_total]| / max(1, max|H|)"] = (
            _maxabs(H * (total - total[:, np.newaxis])) / max(1.0, _maxabs(H)))
        index = {label: i for i, label in enumerate(labels)}
        for n in range(n_max + 1):
            block = build_block(params, n)
            rows = [index[(n - algebra.weight(p), p)] for p in block.basis]
            deviations[f"F={F}, k={k}, n={n}: block deviation"] = _maxabs(
                H[np.ix_(rows, rows)] - block.matrix)
    failures = [f"{name} {dev:.3e} (tol 1e-12)" for name, dev in deviations.items()
                if not dev <= 1e-12]
    return CheckResult("block_structure", not failures, "; ".join(failures) or (
        f"max deviation {max(deviations.values()):.3e} (tol 1e-12; "
        "commutator over max(1, max|H|))"))


def reversal_symmetry() -> CheckResult:
    """Every block is real symmetric in the basis of its mode-reversal
    symmetry: for F = 2..5, k = 1..4 with F^k <= 256, at n = k(F - 1) - 1
    and k(F - 1) + 1, the deformations taken in turn, the block's real form
    is built, which checks that the symmetry holds within HERMITICITY_RTOL *
    max|H| (or that the imaginary part is negligible against max|H|), and
    its eigenvalues, by the package solver, match the complex block's within
    1e-12 * max(1, max|lambda|).  A failure names its case."""
    deformations = (Deformation.undeformed(), Deformation.q_exp(0.3), Deformation.linear(0.7))
    cases = [(F, k, n) for F in range(2, 6) for k in range(1, 5) if F ** k <= 256
             for n in (k * (F - 1) - 1, k * (F - 1) + 1)]
    worst, failures = 0.0, []
    for index, (F, k, n) in enumerate(cases):
        phi = deformations[index % len(deformations)]
        params = ModelParams(F, k, 1.3, 0.7, 0.9, deformation=phi)
        case = f"F={F}, k={k}, n={n}, {phi.kind}"
        block = build_block(params, n)
        try:
            real, _ = _real_form(block, params)
        except ParameterError as exc:
            failures.append(f"{case}: {exc}")
            continue
        values = eigendecompose(block.matrix).eigenvalues
        dev = _maxabs(eigendecompose(real).eigenvalues - values) / max(1.0, _maxabs(values))
        worst = max(worst, dev)
        if not dev <= 1e-12:
            failures.append(f"{case}: eigenvalues apart by {dev:.3e} (tol 1e-12)")
    return CheckResult("reversal_symmetry", not failures, "; ".join(failures) or (
        f"max deviation {worst:.3e} over {len(cases)} blocks (tol 1e-12, relative to "
        "max(1, max|lambda|))"))


def oracle_checks() -> list[CheckResult]:
    results = []
    grid = (0.5, 2.0)
    couplings = list(itertools.product(grid, grid, grid))
    f2_shapes = [(2, k, n) for k in (1, 2) for n in (k, k + 2)]
    undeformed, phi = Deformation.undeformed(), Deformation.q_exp(1.0)
    results.append(_result("f2_undeformed_vs_numeric", _closed_form_deviation(
        f2_shapes, couplings, undeformed, exact_f2_undeformed), 1e-9))
    results.append(_result("f2_deformed_vs_numeric", _closed_form_deviation(
        f2_shapes, couplings, phi, lambda k, n, *c: exact_f2_deformed(k, n, *c, phi)), 1e-9))
    results.append(_result("f3_cubic_vs_numeric", _closed_form_deviation(
        [(3, 1, 3), (3, 1, 5)], couplings, undeformed, lambda k, n, *c: exact_f3_k1(n, *c)), 1e-8))

    worst = 0.0
    for k, n in ((1, 3), (2, 4), (3, 5)):
        levels = semiclassical_level_table(2, k, n, 1.0, grid, 20.0, 1.0)
        for omega, log_z in zip(grid, log_sum_exp(levels, -1.0).tolist()):
            z_closed = semiclassical_z_f2_closed_form(k, n, 1.0, omega, 20.0, 1.0)
            worst = max(worst, abs(math.exp(log_z) - z_closed) / z_closed)
    results.append(_result("semiclassical_sum_vs_closed_form", worst, 1e-10))

    # the table sends F = 2, k = 1 to the F = 2 formula, so the two formulas
    # are compared directly
    worst = 0.0
    for n in (2, 4):
        z_f = np.exp(log_sum_exp(np.sort(_linearized_k1(2, n, 1.0, grid, 20.0, 1.0)[0]), -1.0))
        z_k = np.exp(log_sum_exp(np.sort(_linearized_f2(1, n, 1.0, grid, 20.0, 1.0)[0]), -1.0))
        worst = max(worst, float(np.max(np.abs(z_f - z_k) / z_k)))
    results.append(_result("single_mode_vs_f2_partition", worst, 1e-10))

    worst = 0.0
    for F, k, n, exact in ((2, 1, 3, exact_f2_undeformed(1, 3, 1.0, 2.0, 0.5)),
                           (2, 2, 4, exact_f2_undeformed(2, 4, 1.0, 2.0, 0.5)),
                           (3, 1, 4, exact_f3_k1(4, 1.0, 2.0, 0.5))):
        trace = float(np.trace(build_block(ModelParams(F, k, 1.0, 2.0, 0.5), n).matrix).real)
        worst = max(worst, abs(sum(exact.values().tolist()) - trace) / (1 + abs(trace)))
    results.append(_result("closed_form_trace_identity", worst, 1e-9))
    results.append(spin_equivalence())
    results.append(block_structure())
    results.append(reversal_symmetry())
    return results


def thermo_checks(step: float = 1e-4) -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(20260810)
    worst_omega, worst_mu, worst_cons = 0.0, 0.0, 0.0
    for _ in range(10):
        F = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(0, k * (F - 1) + 3))
        omega, delta, g = (float(x) for x in rng.uniform(0.1, 2.5, size=3))
        beta = float(rng.uniform(0.3, 1.0))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            phi = Deformation.undeformed()
        elif kind == 1:
            phi = Deformation.linear(float(rng.uniform(0.3, 1.5)))
        else:
            phi = Deformation.q_exp(float(rng.uniform(0.05, 0.3)))
        params = ModelParams(F, k, omega, delta, g, beta=beta, deformation=phi)
        obs = thermo_from_block(build_block(params, n), params)
        worst_cons = max(worst_cons, obs.conservation_error)
        worst_omega = max(worst_omega, abs(phi_n_via_omega_derivative(params, n, step) - obs.phi_n_expect))
        worst_mu = max(worst_mu, abs(n_via_mu_derivative(params, n, step) - obs.n_expect))
    results.append(_result("phi_n_trace_vs_omega_derivative", worst_omega, 1e-6))
    results.append(_result("n_trace_vs_mu_derivative", worst_mu, 1e-6))
    results.append(_result("number_conservation", worst_cons, 1e-8))
    return results


def run_checks(scope: str = "all", step: float = 1e-4) -> dict:
    """Run the requested suites; returns a JSON-ready summary dict."""
    if scope not in SCOPES and scope != "all":
        raise ParameterError(f"unknown verify scope {scope!r}; choose from {SCOPES + ('all',)}")
    suites = {
        "algebra": algebra_checks,
        "oracles": oracle_checks,
        "thermo": lambda: thermo_checks(step),
    }
    selected = SCOPES if scope == "all" else (scope,)
    checks = []
    for name in selected:
        for result in suites[name]():
            checks.append({"suite": name, "name": result.name,
                           "passed": result.passed, "detail": result.detail})
    return {
        "scope": scope,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
