"""Oracle gate: every request's output checked against LAPACK, outside the timed region.

The library never calls a LAPACK eigenroutine; here ``numpy.linalg.eigh``
(``eigvalsh`` where the request only needs eigenvalues) recomputes each block
that the library assembled, and the gate checks:

* free energy and log Z (the eigenvalues' Boltzmann sum), <N>, <W> and
  <phi(N)> within 1e-8 relative to max(1, |reference|);
* |<N> + <W> - n| <= 1e-9 on every row;
* every CSV cell parses as a finite float, and the grid has the requested
  points, ascending, between the requested ends;
* a ``staircase`` scan shows the boson-number plateaus n, n-1, ..., n-k(F-1),
  i.e. 8, 7, ..., 2.

``check`` returns a ``Verdict``: the problems found (none for a passed
request) and the seconds LAPACK spent on the request's blocks, the yardstick
of the ``lapack_x`` metric.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from parafermi_jc import Deformation, ModelParams, build_block
from parafermi_jc.deformations import evaluate

from workloads import FREE_ENERGY, STAIRCASE, Request

TOL = 1e-8
CONSERVATION_TOL = 1e-9
PLATEAU_TOL = 0.1
GRID_RTOL = 1e-12
_MAX_PROBLEMS = 3
#: The yardstick is the fastest of a few back-to-back LAPACK calls, which drops
#: one-off stalls such as a cold cache after assembly.
LAPACK_REPEATS = 3


@dataclass
class Verdict:
    """Gate outcome of one request."""

    problems: list[str] = field(default_factory=list)
    lapack_s: float = 0.0  # eigh/eigvalsh time on the request's blocks


def close(value: float, ref: float, tol: float = TOL) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def lapack(H: np.ndarray, vectors: bool):
    """(seconds, result) of ``eigh`` (or ``eigvalsh``) on H; the best of LAPACK_REPEATS calls."""
    routine = np.linalg.eigh if vectors else np.linalg.eigvalsh
    best = float("inf")
    for _ in range(LAPACK_REPEATS):
        start = time.perf_counter()
        result = routine(H)
        best = min(best, time.perf_counter() - start)
    return best, result


def reference(block, deformation: Deformation, beta: float, vectors: bool) -> dict:
    """LAPACK thermal reference of an assembled block, with its LAPACK seconds."""
    lapack_s, result = lapack(np.asarray(block.matrix), vectors)
    values, vecs = result if vectors else (result, None)
    exponents = -beta * values
    shift = float(np.max(exponents))
    log_z = shift + math.log(float(np.sum(np.exp(exponents - shift))))
    ref = {"log_z": log_z, "free_energy": -log_z / beta, "lapack_s": lapack_s}
    if vectors:
        # probability of basis state P: sum_j p_j |<P|v_j>|^2
        state_prob = (np.abs(vecs) ** 2) @ np.exp(exponents - log_z)
        w_vals = np.array([sum(p) for p in block.basis], dtype=np.float64)
        boson = block.n - w_vals
        phi_vals = np.array([evaluate(deformation, x) for x in boson])
        ref.update(n_expect=float(state_prob @ boson), w_expect=float(state_prob @ w_vals),
                   phi_n_expect=float(state_prob @ phi_vals))
    return ref


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _read_csv(path: str, header: list[str], problems: list[str]) -> list[list[float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "" or lines[0].split(",") != header:
        problems.append(f"CSV header or line ending differs from {header}")
        return []
    rows = []
    for number, line in enumerate(lines[1:-1], start=1):
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            problems.append(f"row {number}: unparseable cell in {line!r}")
            continue
        if len(row) != len(header) or not all(math.isfinite(x) for x in row):
            problems.append(f"row {number}: wrong width or non-finite cell in {line!r}")
            continue
        rows.append(row)
    return rows


def _check_grid(argv, omegas: list[float], problems: list[str]) -> None:
    lo, hi = float(_flag(argv, "--omega-min")), float(_flag(argv, "--omega-max"))
    count = int(_flag(argv, "--omega-count"))
    if len(omegas) != count:
        problems.append(f"{len(omegas)} rows, expected {count}")
    elif not (close(omegas[0], lo, GRID_RTOL) and close(omegas[-1], hi, GRID_RTOL)
              and all(b > a for a, b in zip(omegas, omegas[1:]))):
        problems.append("omega column is not the requested ascending grid")


def plateau_levels(n_column: list[float]) -> list[int]:
    """Integer levels that <N> sits on (within PLATEAU_TOL), in scan order, repeats merged."""
    levels: list[int] = []
    for value in n_column:
        level = round(value)
        if abs(value - level) < PLATEAU_TOL and (not levels or levels[-1] != level):
            levels.append(level)
    return levels


def _check_thermo(label: str, got: dict, ref: dict, n: int, problems: list[str]) -> None:
    for key, value in got.items():
        if not close(value, ref[key]):
            problems.append(f"{label}: {key}={value!r}, LAPACK gives {ref[key]!r}")
    conservation = abs(got["n_expect"] + got["w_expect"] - n)
    if conservation > CONSERVATION_TOL:
        problems.append(f"{label}: |N + W - n| = {conservation:.3e}")


def _check_staircase(request: Request, path: str, verdict: Verdict) -> None:
    s = STAIRCASE
    problems = verdict.problems
    rows = _read_csv(path, ["omega", "Z", "free_energy", "phi_N", "N", "W"], problems)
    if problems:
        return
    _check_grid(request.argv, [row[0] for row in rows], problems)
    deformation = Deformation.q_exp(s["hbar"])
    for omega, _z, free_energy, phi_n, n_expect, w_expect in rows:
        params = ModelParams(s["F"], s["k"], omega, s["delta"], 1.0, hbar=s["hbar"],
                             deformation=deformation)
        ref = reference(build_block(params, s["n"]), deformation, params.beta, vectors=True)
        verdict.lapack_s += ref["lapack_s"]
        got = {"free_energy": free_energy, "phi_n_expect": phi_n,
               "n_expect": n_expect, "w_expect": w_expect}
        _check_thermo(f"omega={omega!r}", got, ref, s["n"], problems)
    expected = list(range(s["n"], s["n"] - s["k"] * (s["F"] - 1) - 1, -1))
    levels = plateau_levels([row[4] for row in rows])
    if levels != expected:
        problems.append(f"plateau levels {levels}, expected {expected}")


def _check_free_energy(request: Request, path: str, verdict: Verdict) -> None:
    fe = FREE_ENERGY
    problems = verdict.problems
    rows = _read_csv(path, ["omega", "F_numeric", "F_semiclassical", "rel_err"], problems)
    if problems:
        return
    argv = request.argv
    _check_grid(argv, [row[0] for row in rows], problems)
    F, k, n = (int(_flag(argv, name)) for name in ("--F", "--k", "--n"))
    deformation = Deformation.linear(fe["hbar"])
    for omega, f_numeric, f_semiclassical, rel_err in rows:
        params = ModelParams(F, k, omega, fe["delta"], fe["g"], hbar=fe["hbar"],
                             deformation=deformation)
        ref = reference(build_block(params, n), deformation, params.beta, vectors=False)
        verdict.lapack_s += ref["lapack_s"]
        if not close(f_numeric, ref["free_energy"]):
            problems.append(f"omega={omega!r}: F_numeric={f_numeric!r}, "
                            f"LAPACK gives {ref['free_energy']!r}")
        expected_rel = abs(f_numeric - f_semiclassical) / max(abs(f_numeric), 1e-300)
        if not close(rel_err, expected_rel):
            problems.append(f"omega={omega!r}: rel_err={rel_err!r}, expected {expected_rel!r}")


def _check_big_block(request: Request, result, verdict: Verdict) -> None:
    b = request.block
    problems = verdict.problems
    block, obs = result
    if block.dim != b["F"] ** b["k"]:
        problems.append(f"block dimension {block.dim}, expected {b['F'] ** b['k']}")
        return
    got = {"log_z": obs.log_z, "free_energy": obs.free_energy, "phi_n_expect": obs.phi_n_expect,
           "n_expect": obs.n_expect, "w_expect": obs.w_expect}
    if not all(math.isfinite(x) for x in (obs.z, *got.values())):
        problems.append(f"non-finite observable in {obs!r}")
        return
    ref = reference(block, Deformation.undeformed(), 1.0, vectors=True)
    verdict.lapack_s += ref["lapack_s"]
    _check_thermo(f"block {b}", got, ref, b["n"], problems)


def check(request: Request, result, out_path: str) -> Verdict:
    """Gate one request's output; it passed when ``problems`` is empty."""
    verdict = Verdict()
    if request.workload == "big_block":
        _check_big_block(request, result, verdict)
    elif result != 0:
        verdict.problems.append(f"exit code {result}")
    elif request.workload == "staircase":
        _check_staircase(request, out_path, verdict)
    else:
        _check_free_energy(request, out_path, verdict)
    del verdict.problems[_MAX_PROBLEMS:]
    return verdict
