"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import itertools
import math

import numpy as np

from parafermi_jc import (
    Deformation,
    ModelParams,
    build_block,
    build_higher_spin_block,
    build_mode_matrix,
    clifford_mode,
    clifford_triple,
    detect_plateaus,
    eigendecompose,
    exact_f2_deformed,
    exact_f2_undeformed,
    exact_f3_k1,
    log_sum_exp,
    n_via_mu_derivative,
    number_operator_matrix,
    omega_scan,
    phi_n_via_omega_derivative,
    semiclassical_level_table,
    thermo_from_block,
)
from parafermi_jc.algebra import root_of_unity_power
from parafermi_jc.blocks import build_full_truncated
from parafermi_jc.cli import main as cli_main

COUPLING_GRID = (0.1, 1.0, 10.0)


def report(capsys, number, description, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}]: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_dimension_sequence(capsys):
    code = cli_main(["dims", "--F", "4", "--k", "3", "--n-max", "10"])
    out = capsys.readouterr().out
    dims = [int(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    ok = code == 0 and dims == [1, 4, 10, 20, 32, 44, 54, 60, 63, 64, 64]
    report(capsys, 1, "dims(F=4, k=3) emits 1,4,10,20,32,44,54,60,63,64,64 exactly", ok)


def cluster_eigenvalues(values, scale_tol=1e-8):
    """(mean value, multiplicity) of each run of an ascending sequence whose
    neighbours lie within scale_tol * (1 + |value|) of each other."""
    clusters, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > scale_tol * (1.0 + abs(values[i])):
            clusters.append((float(np.mean(values[start:i])), i - start))
            start = i
    return clusters


def _clusters_match(numeric, exact_spectrum):
    expected = cluster_eigenvalues(exact_spectrum.values())
    observed = cluster_eigenvalues(numeric)
    if len(expected) != len(observed):
        return False
    return all(
        mult_o == mult_e and abs(val_o - val_e) <= 1e-8 * (1 + abs(val_e))
        for (val_e, mult_e), (val_o, mult_o) in zip(expected, observed)
    )


def test_criterion_02_f2_exact_vs_numeric(capsys):
    ok = True
    deformations = (Deformation.undeformed(), Deformation.q_exp(1.0))
    for k in (1, 2, 3, 4):
        for n in range(k, k + 6):
            for omega, delta, g in itertools.product(COUPLING_GRID, repeat=3):
                for phi in deformations:
                    params = ModelParams(2, k, omega, delta, g, deformation=phi)
                    numeric = eigendecompose(build_block(params, n).matrix).eigenvalues
                    if phi.kind == "undeformed":
                        exact = exact_f2_undeformed(k, n, omega, delta, g)
                    else:
                        exact = exact_f2_deformed(k, n, omega, delta, g, phi)
                    dev = np.max(np.abs(numeric - exact.values()) / (1 + np.abs(numeric)))
                    ok = ok and dev <= 1e-9
                    ok = ok and sorted(d for _, d in exact.levels) \
                        == sorted(math.comb(k - 1, l) for l in range(k) for _ in (0, 1))
                    ok = ok and _clusters_match(numeric, exact)
    report(capsys, 2, "F=2 closed form matches numerics to 1e-9 with C(k-1,l) degeneracies "
              "(k=1..4, n=k..k+5, 27 couplings, undeformed and qexp)", ok)


def test_criterion_03_f3_cubic(capsys):
    ok = True
    for n in range(3, 9):
        for omega, delta, g in itertools.product(COUPLING_GRID, repeat=3):
            block = build_block(ModelParams(3, 1, omega, delta, g), n)
            numeric = eigendecompose(block.matrix).eigenvalues
            exact = exact_f3_k1(n, omega, delta, g).values()
            ok = ok and np.max(np.abs(numeric - exact) / (1 + np.abs(numeric))) <= 1e-8
    report(capsys, 3, "F=3, k=1 cubic formula matches numerics to 1e-8 (n=3..8, 27 couplings)", ok)


def test_criterion_04_spin_equivalence(capsys):
    # F=2, k=1: parafermion and spin-1/2 blocks are the same matrix at the
    # same coupling; F=3, k=1: the printed matrix elements make every spin
    # hop sqrt(2) times the parafermion hop, so the spectra coincide under
    # g -> sqrt(2) g (the constant-ratio property itself fails at F=4).
    ok = True
    deformations = (Deformation.undeformed(), Deformation.q_exp(1.0), Deformation.linear(0.7))
    for phi in deformations:
        for n in (1, 2, 4, 6):
            for omega, delta, g in ((1.0, 1.0, 1.0), (0.5, 2.0, 1.3), (2.0, 0.3, 0.7)):
                p2 = ModelParams(2, 1, omega, delta, g, deformation=phi)
                spin = eigendecompose(build_higher_spin_block(p2, n).matrix).eigenvalues
                para = eigendecompose(build_block(p2, n).matrix).eigenvalues
                ok = ok and np.max(np.abs(spin - para) / (1 + np.abs(spin))) <= 1e-10

                p3 = ModelParams(3, 1, omega, delta, g, deformation=phi)
                p3_scaled = ModelParams(3, 1, omega, delta, math.sqrt(2.0) * g, deformation=phi)
                spin = eigendecompose(build_higher_spin_block(p3, n).matrix).eigenvalues
                para = eigendecompose(build_block(p3_scaled, n).matrix).eigenvalues
                ok = ok and np.max(np.abs(spin - para) / (1 + np.abs(spin))) <= 1e-10
    # hop-ratio structure: constant for F in {2, 3}, non-constant for F=4
    for F, constant in ((2, True), (3, True), (4, False)):
        p = ModelParams(F, 1, 0.0, 0.0, 1.0)
        n = F
        spin = np.diag(build_higher_spin_block(p, n).matrix, -1).real
        para = np.diag(build_block(p, n).matrix, -1).real
        ratios = spin / para
        is_constant = np.max(np.abs(ratios - ratios[0])) <= 1e-12
        ok = ok and (is_constant == constant)
        if F == 3:
            ok = ok and abs(ratios[0] - math.sqrt(2.0)) <= 1e-12
    report(capsys, 4, "k=1 spin blocks: F=2 identical spectra; F=3 identical under the "
              "sqrt(2) coupling map implied by the matrix elements", ok)


def test_criterion_05_semiclassical_agreement(capsys):
    delta, g, beta = 20.0, 1.0, 1.0
    grid = np.logspace(math.log10(0.5), math.log10(80.0), 61)
    ok = True
    for F, k in ((2, 1), (3, 1), (2, 2), (2, 3)):
        n = k * (F - 1) + 3
        for hbar, tol, everywhere in ((1.0, 0.05, False), (0.01, 1e-3, True)):
            params = ModelParams(F, k, 1.0, delta, g, hbar=hbar, beta=beta,
                                 deformation=Deformation.linear(hbar))
            levels = semiclassical_level_table(F, k, n, hbar, grid, delta, g)
            for omega, log_z in zip(grid, log_sum_exp(levels, -beta)):
                block = build_block(params.with_omega(float(omega)), n)
                f_num = -log_sum_exp(-beta * eigendecompose(block.matrix).eigenvalues) / beta
                rel = abs(f_num - (-log_z / beta)) / abs(f_num)
                in_crossover = 0.5 * delta / hbar < omega < 2.0 * delta / hbar
                if everywhere or not in_crossover:
                    ok = ok and rel <= tol
    report(capsys, 5, "linearized free energy within 5% outside the crossover window at "
              "hbar=1 and within 1e-3 everywhere at hbar=0.01 (delta=20)", ok)


def test_criterion_06_undeformed_crossover(capsys):
    delta, hbar = 20.0, 1.0
    grid = np.logspace(math.log10(2.0), math.log10(200.0), 800)
    ok = True
    for n in (3, 4, 6):
        params = ModelParams(2, 1, 1.0, delta, 1.0, hbar=hbar)
        report_ = detect_plateaus(omega_scan(params, n, grid))
        levels = [level for _, _, level in report_.plateaus]
        ok = ok and levels == [n + 1 - 1, n - 1]  # k(F-1) = 1
        ok = ok and len(report_.crossover_points) == 1
        crossover = report_.crossover_points[0] if report_.crossover_points else float("nan")
        ok = ok and abs(crossover - delta / hbar) <= 0.2 * delta / hbar
    report(capsys, 6, "undeformed scans show exactly 2 plateaus at n+1-k(F-1), n-k(F-1) "
              "with the crossover within 20% of delta/hbar (k=1, F=2)", ok)


def test_criterion_07_deformed_staircase(capsys):
    delta = 1000.0
    cases = [
        (4, 1, 5, 2.0, 2000.0, [5, 4, 3, 2]),     # saturated: k(F-1)+1 = 4 steps
        (3, 3, 8, 0.2, 2000.0, [8, 7, 6, 5, 4, 3, 2]),  # saturated: 7 steps
        (4, 1, 2, 2.0, 5000.0, [2, 1, 0]),        # non-saturated: down to zero
    ]
    ok = True
    for F, k, n, lo, hi, expected in cases:
        params = ModelParams(F, k, 1.0, delta, 1.0, deformation=Deformation.q_exp(1.0))
        count = int(400 * math.log10(hi / lo)) + 1
        grid = np.logspace(math.log10(lo), math.log10(hi), count)
        plateau_report = detect_plateaus(omega_scan(params, n, grid))
        levels = [level for _, _, level in plateau_report.plateaus]
        ok = ok and levels == expected
    report(capsys, 7, "qexp staircases (delta=1000): levels 5..2, 8..2 and 2..0 as the "
              "k(F-1)+1-step law requires", ok)


def test_criterion_08_consistency_triangle(capsys):
    rng = np.random.default_rng(20260810)
    step = 1e-4
    ok = True
    worst = 0.0
    for _ in range(50):
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
        omega_route = phi_n_via_omega_derivative(params, n, step)
        mu_route = n_via_mu_derivative(params, n, step)
        worst = max(worst, abs(omega_route - obs.phi_n_expect), abs(mu_route - obs.n_expect))
        ok = ok and abs(omega_route - obs.phi_n_expect) <= 1e-6
        ok = ok and abs(mu_route - obs.n_expect) <= 1e-6
        ok = ok and abs(obs.n_expect + obs.w_expect - n) <= 1e-8
    report(capsys, 8, f"trace, omega-derivative and mu-derivative expectations agree to 1e-6 "
              f"on 50 random parameter sets (worst {worst:.2e}); N+W=n to 1e-8", ok)


def test_criterion_09_algebra_suite(capsys):
    tol = 1e-12
    worst = 0.0

    def track(dev):
        nonlocal worst
        worst = max(worst, float(dev))

    for F, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
        q = root_of_unity_power(F, 1)
        thetas = [build_mode_matrix(F, k, m) for m in range(1, k + 1)]
        for i, j in itertools.combinations(range(k), 2):
            track(np.max(np.abs(thetas[i] @ thetas[j] - q * thetas[j] @ thetas[i])))
        for theta in thetas:
            track(np.max(np.abs(np.linalg.matrix_power(theta, F))))
        numbers = [number_operator_matrix(F, k, i) for i in range(1, k + 1)]
        for i in range(k):
            for j in range(k):
                d_ij = 1.0 if i == j else 0.0
                track(np.max(np.abs(numbers[i] @ thetas[j] - thetas[j] @ numbers[i] + d_ij * thetas[j])))
                dag = thetas[j].conj().T
                track(np.max(np.abs(numbers[i] @ dag - dag @ numbers[i] - d_ij * dag)))
    for F in (2, 3, 4):
        t = clifford_triple(F)
        q = root_of_unity_power(F, 1)
        track(np.max(np.abs(np.linalg.matrix_power(t.sigma1, F) - np.eye(F))))
        track(np.max(np.abs(np.linalg.matrix_power(t.sigma3, F) - np.eye(F))))
        track(np.max(np.abs(t.sigma1 @ t.sigma3 - q * t.sigma3 @ t.sigma1)))
        phi = Deformation.parafermionic(F)
        a = clifford_mode(F, phi)
        track(np.max(np.abs(np.linalg.matrix_power(a, F))))
        track(np.max(np.abs(a.conj().T @ a - np.diag([phi(float(j)) for j in range(F)]))))
    ok = worst <= tol
    report(capsys, 9, f"q-commutation, nilpotency, number commutators, Clifford relations and "
              f"deformed-mode contracts hold to 1e-12 up to (F,k)=(4,3) (worst {worst:.2e})", ok)


def test_criterion_10_block_full_equivalence(capsys):
    ok = True
    for F, k in ((2, 2), (3, 2)):
        params = ModelParams(F, k, 0.8, 1.9, 0.6)
        n_max = k * (F - 1) + 4
        H, _ = build_full_truncated(params, n_max)
        remaining = list(eigendecompose(H).eigenvalues)
        for n in range(0, n_max):
            for value in eigendecompose(build_block(params, n).matrix).eigenvalues:
                gaps = np.abs(np.asarray(remaining) - value)
                idx = int(np.argmin(gaps))
                ok = ok and gaps[idx] <= 1e-9 * (1 + abs(value))
                remaining.pop(idx)
    report(capsys, 10, "every block eigenvalue with n <= n_max-1 appears in the truncated "
               "full-space spectrum to 1e-9 for (F,k) in {(2,2),(3,2)}", ok)
