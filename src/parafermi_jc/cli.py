"""Batch command-line interface with deterministic CSV/JSON output.

Commands: ``dims``, ``spectrum``, ``thermo-scan``, ``semiclassical-compare``,
``verify``.  Exit codes: 0 success, 1 parameter error, 2 numerical error,
3 verification failure.

Values may come from ``--config`` (one flat JSON object, underscore keys);
explicit flags override the file.  Floats are printed with ``repr``, the
shortest decimal that round-trips (at most 17 significant digits), so equal
configurations produce byte-identical output.  Scans run serially;
``PARAFERMI_JC_THREADS`` is ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .blocks import ModelParams, build_block
from .deformations import Deformation
from .eigensolver import eigenvalues_only
from .errors import NumericalError, ParameterError
from .exact import exact_f2_deformed, exact_f3_k1, semiclassical_z_f2, semiclassical_z_k1
from .thermo import log_sum_exp, omega_scan
from .verify import run_checks

#: |numeric - exact| beyond which the spectrum command reports a failure.
SPECTRUM_MATCH_TOL = 1e-8

EXIT_OK = 0
EXIT_PARAMETER = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


@dataclass
class RunConfig:
    """Merged flag/config values for one command; validated before any computation."""

    command: str
    F: Optional[int] = None
    k: Optional[int] = None
    n: Optional[int] = None
    n_max: Optional[int] = None
    omega: Optional[float] = None
    omega_min: Optional[float] = None
    omega_max: Optional[float] = None
    omega_count: Optional[int] = None
    omega_scale: Optional[str] = None
    delta: Optional[float] = None
    g: Optional[float] = None
    hbar: Optional[float] = None
    beta: Optional[float] = None
    deformation: object = None
    mu_step: Optional[float] = None
    scope: Optional[str] = None
    out: str = "-"
    format: str = "csv"


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold one flat JSON object")
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            setattr(cfg, key, value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    # defaults shared by the physics commands
    if cfg.delta is None:
        cfg.delta = 1.0
    if cfg.g is None:
        cfg.g = 1.0
    if cfg.hbar is None:
        cfg.hbar = 1.0
    if cfg.beta is None:
        cfg.beta = 1.0
    if cfg.omega is None:
        cfg.omega = 1.0
    if cfg.omega_scale is None:
        cfg.omega_scale = "log"
    if cfg.mu_step is None:
        cfg.mu_step = 1e-4
    if cfg.deformation is None:
        cfg.deformation = "undeformed"
    if cfg.format not in ("csv", "json"):
        raise ParameterError(f"format must be csv or json, got {cfg.format!r}")
    return cfg


def _resolve_deformation(cfg: RunConfig) -> Deformation:
    choice = cfg.deformation
    if isinstance(choice, Deformation):
        return choice
    if isinstance(choice, dict):
        return Deformation.from_dict(choice)
    if choice == "undeformed":
        return Deformation.undeformed()
    if choice == "linear":
        return Deformation.linear(cfg.hbar)
    if choice == "qexp":
        return Deformation.q_exp(cfg.hbar)
    if choice == "parafermionic":
        return Deformation.parafermionic(cfg.F)
    raise ParameterError(
        f"unknown deformation {choice!r}; use undeformed|linear|qexp|parafermionic "
        "or a tagged record such as {\"type\": \"qexp\", \"hbar\": 1.0}"
    )


def _model_params(cfg: RunConfig) -> ModelParams:
    for name in ("F", "k"):
        if getattr(cfg, name) is None:
            raise ParameterError(f"--{name} is required for {cfg.command}")
    return ModelParams(
        F=cfg.F, k=cfg.k, omega=float(cfg.omega), delta=float(cfg.delta), g=float(cfg.g),
        hbar=float(cfg.hbar), beta=float(cfg.beta), deformation=_resolve_deformation(cfg),
    )


def _omega_grid(cfg: RunConfig) -> np.ndarray:
    for name in ("omega_min", "omega_max", "omega_count"):
        if getattr(cfg, name) is None:
            raise ParameterError(f"--{name.replace('_', '-')} is required for {cfg.command}")
    if cfg.omega_count < 1:
        raise ParameterError("omega count must be >= 1")
    if not cfg.omega_max > cfg.omega_min:
        raise ParameterError("omega-max must exceed omega-min")
    if cfg.omega_scale == "linear":
        return np.linspace(cfg.omega_min, cfg.omega_max, cfg.omega_count)
    if cfg.omega_scale == "log":
        if cfg.omega_min <= 0:
            raise ParameterError("log-scaled grids need omega-min > 0")
        return np.logspace(math.log10(cfg.omega_min), math.log10(cfg.omega_max), cfg.omega_count)
    raise ParameterError(f"omega-scale must be linear or log, got {cfg.omega_scale!r}")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _emit(cfg: RunConfig, params_record: dict, header: list[str], rows: list[list]) -> None:
    if cfg.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "params": params_record,
            "rows": [
                {key: (None if cell is None else (int(cell) if isinstance(cell, (int, np.integer)) else float(cell)))
                 for key, cell in zip(header, row)}
                for row in rows
            ],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write_text(cfg.out, text)


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output file: {exc}") from exc


def cmd_dims(cfg: RunConfig) -> int:
    from .algebra import block_dimension

    if cfg.F is None or cfg.k is None or cfg.n_max is None:
        raise ParameterError("dims needs --F, --k and --n-max")
    rows = [[n, block_dimension(cfg.F, cfg.k, n)] for n in range(cfg.n_max + 1)]
    _emit(cfg, {"command": "dims", "F": cfg.F, "k": cfg.k, "n_max": cfg.n_max},
          ["n", "dim"], rows)
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    if cfg.n is None:
        raise ParameterError("spectrum needs --n")
    numeric = eigenvalues_only(build_block(params, cfg.n).matrix)
    exact_values = None
    if params.F == 2 and cfg.n >= params.k:
        exact_values = exact_f2_deformed(
            params.k, cfg.n, params.omega, params.delta, params.g, params.deformation
        ).values()
    elif params.F == 3 and params.k == 1 and cfg.n >= 3 and params.deformation.kind == "undeformed":
        exact_values = exact_f3_k1(cfg.n, params.omega, params.delta, params.g).values()
    rows = []
    mismatch = False
    for j, value in enumerate(numeric):
        if exact_values is None:
            rows.append([j, value, None, None])
        else:
            diff = abs(value - exact_values[j])
            mismatch = mismatch or diff > SPECTRUM_MATCH_TOL
            rows.append([j, value, exact_values[j], diff])
    record = {"command": "spectrum", "F": params.F, "k": params.k, "n": cfg.n,
              "omega": params.omega, "delta": params.delta, "g": params.g,
              "hbar": params.hbar, "beta": params.beta,
              "deformation": params.deformation.to_dict()}
    _emit(cfg, record, ["index", "eigenvalue", "exact_value", "abs_diff"], rows)
    return EXIT_VERIFICATION if mismatch else EXIT_OK


def cmd_thermo_scan(cfg: RunConfig) -> int:
    params = _model_params(cfg)
    if cfg.n is None:
        raise ParameterError("thermo-scan needs --n")
    grid = _omega_grid(cfg)
    scan = omega_scan(params, cfg.n, grid)
    rows = [
        [omega, obs.z, obs.free_energy, obs.phi_n_expect, obs.n_expect, obs.w_expect]
        for omega, obs in scan
    ]
    record = {"command": "thermo-scan", "F": params.F, "k": params.k, "n": cfg.n,
              "omega_min": cfg.omega_min, "omega_max": cfg.omega_max,
              "omega_count": cfg.omega_count, "omega_scale": cfg.omega_scale,
              "delta": params.delta, "g": params.g, "hbar": params.hbar,
              "beta": params.beta, "deformation": params.deformation.to_dict()}
    _emit(cfg, record, ["omega", "Z", "free_energy", "phi_N", "N", "W"], rows)
    return EXIT_OK


def cmd_semiclassical_compare(cfg: RunConfig) -> int:
    if cfg.F is None or cfg.k is None or cfg.n is None:
        raise ParameterError("semiclassical-compare needs --F, --k and --n")
    if cfg.F != 2 and cfg.k != 1:
        raise ParameterError("closed forms exist for F=2 (any k) or k=1 (any F)")
    hbar = float(cfg.hbar)
    beta = float(cfg.beta)
    params = ModelParams(cfg.F, cfg.k, 1.0, float(cfg.delta), float(cfg.g),
                         hbar=hbar, beta=beta, deformation=Deformation.linear(hbar))
    grid = _omega_grid(cfg)
    rows = []
    for omega in grid:
        eigenvalues = eigenvalues_only(build_block(params.with_omega(omega), cfg.n).matrix)
        f_numeric = -log_sum_exp(-beta * eigenvalues) / beta
        if cfg.F == 2:
            z_sc = semiclassical_z_f2(cfg.k, cfg.n, hbar, omega, params.delta, params.g, beta)
        else:
            z_sc = semiclassical_z_k1(cfg.F, cfg.n, hbar, omega, params.delta, params.g, beta)
        f_semiclassical = -math.log(z_sc) / beta
        rel_err = abs(f_numeric - f_semiclassical) / max(abs(f_numeric), 1e-300)
        rows.append([float(omega), f_numeric, f_semiclassical, rel_err])
    record = {"command": "semiclassical-compare", "F": cfg.F, "k": cfg.k, "n": cfg.n,
              "omega_min": cfg.omega_min, "omega_max": cfg.omega_max,
              "omega_count": cfg.omega_count, "omega_scale": cfg.omega_scale,
              "delta": params.delta, "g": params.g, "hbar": hbar, "beta": beta}
    _emit(cfg, record, ["omega", "F_numeric", "F_semiclassical", "rel_err"], rows)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    scope = cfg.scope or "all"
    summary = run_checks(scope, step=float(cfg.mu_step))
    _write_text(cfg.out, json.dumps(summary, indent=2) + "\n")
    return EXIT_OK if summary["passed"] else EXIT_VERIFICATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parafermi-jc",
        description="Block diagonalization and thermodynamics of parafermion"
                    " modes coupled to a (deformed) oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, grid=False, single_omega=False):
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.add_argument("--F", type=int, help="nilpotency order (>= 2)")
        p.add_argument("--k", type=int, help="number of parafermion modes (>= 1)")
        p.add_argument("--delta", type=float, help="level splitting (default 1)")
        p.add_argument("--g", type=float, help="coupling strength (default 1)")
        p.add_argument("--hbar", type=float, help="deformation scale (default 1)")
        p.add_argument("--beta", type=float, help="inverse temperature (default 1)")
        p.add_argument("--deformation",
                       help="undeformed|linear|qexp|parafermionic (default undeformed)")
        p.add_argument("--out", default=None, help="output path, '-' for stdout")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        if single_omega:
            p.add_argument("--omega", type=float, help="oscillator frequency (default 1)")
        if grid:
            p.add_argument("--omega-min", dest="omega_min", type=float)
            p.add_argument("--omega-max", dest="omega_max", type=float)
            p.add_argument("--omega-count", dest="omega_count", type=int)
            p.add_argument("--omega-scale", dest="omega_scale", choices=("linear", "log"))

    p = sub.add_parser("dims", help="block dimensions d_n for n = 0..n_max")
    add_common(p)
    p.add_argument("--n-max", dest="n_max", type=int)

    p = sub.add_parser("spectrum", help="eigenvalues of one block, with exact columns in regime")
    add_common(p, single_omega=True)
    p.add_argument("--n", type=int, help="total excitation number")

    p = sub.add_parser("thermo-scan", help="thermal observables over a frequency grid")
    add_common(p, grid=True)
    p.add_argument("--n", type=int, help="total excitation number")

    p = sub.add_parser("semiclassical-compare",
                       help="free energy: numerical vs linearized closed form")
    add_common(p, grid=True)
    p.add_argument("--n", type=int, help="total excitation number")

    p = sub.add_parser("verify", help="run self-check suites, emit JSON summary")
    add_common(p)
    p.add_argument("--scope", choices=("all", "algebra", "oracles", "thermo"))
    p.add_argument("--mu-step", dest="mu_step", type=float)
    return parser


_COMMANDS = {
    "dims": cmd_dims,
    "spectrum": cmd_spectrum,
    "thermo-scan": cmd_thermo_scan,
    "semiclassical-compare": cmd_semiclassical_compare,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _COMMANDS[args.command](cfg)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
