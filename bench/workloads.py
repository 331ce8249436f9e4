"""Seeded requests of the three benchmark workloads, and how one request runs.

Standard library only: the set-up probe builds its request here before it
imports numpy or the package, so that its clock covers both imports.

A request is one unit a user waits for:

* ``staircase``: one ``thermo-scan`` of the q-deformed (F=3, k=3, n=8,
  delta=1000) block over a log grid from 0.2 to 2000, through ``cli.main``
  with CSV written to a file.
* ``big_block``: ``build_block`` + ``thermo_from_block`` on one undeformed
  block, alternating d=256 (F=4, k=4, n=12) and d=243 (F=3, k=5, n=10).
* ``free_energy``: one ``semiclassical-compare`` CLI run over a log grid from
  0.5 to 80, cycling through the five cases of ``scripts/free_energy_scan.py``.

The seed moves both ends of a grid inward by up to half a log cell, so every
grid point moves inside its own cell, and draws ``big_block``'s omega and g
uniformly from [0.5, 2].  Request ``index`` is a pure function of
(workload, seed, index); index 0 is the untimed warm-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("staircase", "big_block", "free_energy")

STAIRCASE = {"F": 3, "k": 3, "n": 8, "delta": 1000.0, "hbar": 1.0,
             "omega_min": 0.2, "omega_max": 2000.0, "points": 40}
BIG_BLOCK_SHAPES = ((4, 4, 12), (3, 5, 10))  # (F, k, n): d = 256, 243
BIG_BLOCK_DELTA = 2.0
FREE_ENERGY_CASES = ((2, 1), (3, 1), (4, 1), (2, 2), (2, 3))  # (F, k); n = k(F-1)+3
FREE_ENERGY = {"delta": 20.0, "g": 1.0, "hbar": 1.0,
               "omega_min": 0.5, "omega_max": 80.0, "points": 161}

#: Requests per cycle.  The closed loop only runs whole cycles, so every
#: request shape is timed equally often and the median does not depend on
#: where the time budget happened to end.
CYCLE = {"staircase": 1, "big_block": len(BIG_BLOCK_SHAPES),
         "free_energy": len(FREE_ENERGY_CASES)}


@dataclass(frozen=True)
class Request:
    """One request: CLI argv (without ``--out``) or the big_block parameters."""

    workload: str
    seed: int
    index: int
    points: int
    argv: Optional[tuple[str, ...]] = None
    block: Optional[dict] = None


def _jittered_ends(rng: random.Random, lo: float, hi: float, points: int) -> tuple[float, float]:
    cell = (math.log10(hi) - math.log10(lo)) / (points - 1)
    return (lo * 10.0 ** (rng.uniform(0.0, 0.5) * cell),
            hi * 10.0 ** (-rng.uniform(0.0, 0.5) * cell))


def _grid_flags(lo: float, hi: float, points: int) -> tuple[str, ...]:
    return ("--omega-min", repr(lo), "--omega-max", repr(hi),
            "--omega-count", str(points), "--omega-scale", "log")


def make_request(workload: str, seed: int, index: int) -> Request:
    """The request number ``index`` of a workload; the same arguments give the same request."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "staircase":
        s = STAIRCASE
        lo, hi = _jittered_ends(rng, s["omega_min"], s["omega_max"], s["points"])
        argv = ("thermo-scan", "--F", str(s["F"]), "--k", str(s["k"]), "--n", str(s["n"]),
                "--delta", repr(s["delta"]), "--deformation", "qexp", "--hbar", repr(s["hbar"]),
                *_grid_flags(lo, hi, s["points"]))
        return Request(workload, seed, index, s["points"], argv=argv)
    if workload == "big_block":
        F, k, n = BIG_BLOCK_SHAPES[index % len(BIG_BLOCK_SHAPES)]
        block = {"F": F, "k": k, "n": n, "delta": BIG_BLOCK_DELTA,
                 "omega": rng.uniform(0.5, 2.0), "g": rng.uniform(0.5, 2.0)}
        return Request(workload, seed, index, 1, block=block)
    F, k = FREE_ENERGY_CASES[index % len(FREE_ENERGY_CASES)]
    fe = FREE_ENERGY
    lo, hi = _jittered_ends(rng, fe["omega_min"], fe["omega_max"], fe["points"])
    argv = ("semiclassical-compare", "--F", str(F), "--k", str(k), "--n", str(k * (F - 1) + 3),
            "--delta", repr(fe["delta"]), "--g", repr(fe["g"]), "--hbar", repr(fe["hbar"]),
            *_grid_flags(lo, hi, fe["points"]))
    return Request(workload, seed, index, fe["points"], argv=argv)


def execute(request: Request, out_path: str):
    """Run one request through the public API; this call is the timed region.

    Functions are looked up on the package modules at call time, so a traced
    run sees the wrapped versions.  Returns the CLI exit code, or the
    (block, observables) pair for ``big_block``.
    """
    if request.argv is not None:
        from parafermi_jc import cli

        return cli.main([*request.argv, "--out", out_path])
    import parafermi_jc

    b = request.block
    params = parafermi_jc.ModelParams(b["F"], b["k"], b["omega"], b["delta"], b["g"])
    block = parafermi_jc.build_block(params, b["n"])
    return block, parafermi_jc.thermo_from_block(block, params)
