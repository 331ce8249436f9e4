"""Batch command-line interface with deterministic CSV/JSON output.

Commands: ``dims``, ``spectrum``, ``thermo-scan``, ``semiclassical-compare``,
``verify``.  Exit codes: 0 success, 1 parameter error (usage errors
included), 2 numerical error, 3 verification failure.

Each input is declared once in ``_INPUTS``.  ``_COMMANDS`` lists the inputs
each command reads: its flags, its config keys, its required inputs and its
JSON ``params`` record.  Values may also come from ``--config`` (one flat JSON
object, underscore keys): a config value is read as the same text typed after
its flag would be, ``null`` means "not given", a key that the command does
not take is rejected as its flag would be, and explicit flags override the file.
Floats are printed with ``repr``, the shortest decimal that round-trips (at
most 17 significant digits), so equal configurations produce byte-identical
output; a non-finite cell is a numerical error, never written.
The argument parser is built once per process.

``semiclassical-compare`` evaluates the whole omega grid at once: the
numerical log Z from the stacked ``log_partition_scan``, and the linearized
levels as one ``semiclassical_level_table`` reduced by one ``log_sum_exp``.
It compares at phi(x) = hbar*x, so it takes no ``--deformation``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from .algebra import _block_dimensions
from .blocks import ModelParams, build_block
from .deformations import Deformation
from .eigensolver import eigendecompose
from .errors import NumericalError, OutOfRegimeError, ParameterError
from .exact import exact_f2_deformed, exact_f3_k1, semiclassical_level_table
from .thermo import log_partition_scan, log_sum_exp, omega_scan
from .verify import SCOPES, run_checks

#: |numeric - exact| / (1 + max|numeric|) beyond which the spectrum command
#: reports a failure: both sides round relative to the spectrum's scale, which
#: neither an absolute bound nor one relative to each level follows.
SPECTRUM_MATCH_TOL = 1e-8

#: Most output rows (omega grid points, or dims' n = 0..n_max): each row is held
#: in memory until written, and each grid point costs one eigendecomposition.
MAX_ROWS = 10**6

EXIT_OK = 0
EXIT_PARAMETER = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


#: The names ``--deformation`` takes; each kind's tagged record takes its
#: parameter from ``--hbar`` or ``--F``.
_NAMED_DEFORMATIONS = ("undeformed", "linear", "qexp", "parafermionic")

#: Every input, declared once: key -> (type or choices, default, help).  The
#: flag is ``--`` plus the key with ``-`` for ``_``.  A ``--config`` value is
#: read as the same text typed after the flag would be, and ``null`` means
#: "not given"; ``deformation`` may also be a tagged record.  A default of
#: None marks an input that the commands using it require.
_INPUTS = {
    "F": (int, None, "nilpotency order (>= 2)"),
    "k": (int, None, "number of parafermion modes (>= 1)"),
    "n": (int, None, "total excitation number"),
    "n_max": (int, None, None),
    "omega": (float, 1.0, "oscillator frequency (default 1)"),
    "omega_min": (float, None, None),
    "omega_max": (float, None, None),
    "omega_count": (int, None, None),
    "omega_scale": (("linear", "log"), "log", None),
    "delta": (float, 1.0, "level splitting (default 1)"),
    "g": (float, 1.0, "coupling strength (default 1)"),
    "hbar": (float, 1.0, "deformation scale (default 1)"),
    "beta": (float, 1.0, "inverse temperature (default 1)"),
    "deformation": (str, "undeformed", f"{'|'.join(_NAMED_DEFORMATIONS)} (default undeformed)"),
    "mu_step": (float, 1e-4, None),
    "scope": (("all", *SCOPES), "all", None),
    "out": (str, "-", "output path, '-' for stdout"),
    "format": (("csv", "json"), "csv", None),
}

_GRID = ("omega_min", "omega_max", "omega_count", "omega_scale")
_OUTPUT = ("out", "format")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ParameterError("config file must hold one flat JSON object")
    unknown = set(loaded) - set(_INPUTS)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return loaded


def _config_value(key: str, value):
    """A config value converted exactly as its flag's text would be."""
    if key == "deformation" and isinstance(value, dict):
        return value
    kind = _INPUTS[key][0]
    text = value if isinstance(value, str) else json.dumps(value)
    if isinstance(kind, tuple):
        if text in kind:
            return text
    else:
        try:
            return kind(text)
        except ValueError:
            pass
    raise ParameterError(f"config value {key}={value!r} is not valid for {_flag(key)}")


def _inputs(args: argparse.Namespace) -> argparse.Namespace:
    """Every input: the flag if given, else the config value, else the default.

    A config key that the command does not take is rejected, as its flag
    would be, unless its value is null, and so is a missing required input.
    """
    config = _read_config(args.config) if args.config else {}
    taken = _COMMANDS[args.command][2]
    unused = sorted(key for key, value in config.items() if value is not None and key not in taken)
    if unused:
        raise ParameterError(f"{args.command} does not take config keys {unused}")
    cfg = argparse.Namespace(command=args.command)
    for key, (_, default, _) in _INPUTS.items():
        value = getattr(args, key, None)
        if value is None and config.get(key) is not None:
            value = _config_value(key, config[key])
        setattr(cfg, key, default if value is None else value)
    missing = [_flag(key) for key in taken if getattr(cfg, key) is None]
    if missing:
        raise ParameterError(f"{args.command} needs {', '.join(missing)}")
    return cfg


def _deformation(cfg: argparse.Namespace) -> Deformation:
    choice = cfg.deformation
    if isinstance(choice, str):
        if choice not in _NAMED_DEFORMATIONS:
            raise ParameterError(
                f"unknown deformation {choice!r}; use {'|'.join(_NAMED_DEFORMATIONS)} "
                "or a tagged record such as {\"type\": \"qexp\", \"hbar\": 1.0}"
            )
        choice = {"type": choice, "hbar": cfg.hbar, "F": cfg.F}
    return Deformation.from_dict(choice)


def _model_params(cfg: argparse.Namespace) -> ModelParams:
    return ModelParams(F=cfg.F, k=cfg.k, omega=cfg.omega, delta=cfg.delta, g=cfg.g,
                       hbar=cfg.hbar, beta=cfg.beta, deformation=_deformation(cfg))


def _omega_grid(cfg: argparse.Namespace) -> np.ndarray:
    if not 1 <= cfg.omega_count <= MAX_ROWS:
        raise ParameterError(
            f"omega count must be between 1 and {MAX_ROWS}, got {cfg.omega_count}"
        )
    if not cfg.omega_max > cfg.omega_min:
        raise ParameterError("omega-max must exceed omega-min")
    if not math.isfinite(cfg.omega_max - cfg.omega_min):
        raise ParameterError(
            f"omega-max - omega-min must be finite, got {cfg.omega_max} - {cfg.omega_min}"
        )
    if cfg.omega_scale == "linear":
        return np.linspace(cfg.omega_min, cfg.omega_max, cfg.omega_count)
    if cfg.omega_min <= 0:
        raise ParameterError("log-scaled grids need omega-min > 0")
    return np.geomspace(cfg.omega_min, cfg.omega_max, cfg.omega_count)


def _format_cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _emit(cfg: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    columns = list(zip(*rows))
    for column in columns:
        cells = [cell for cell in column if cell is not None] if None in column else column
        if not all(map(math.isfinite, cells)):
            # name the first non-finite cell in row order
            key, cell = next((key, cell) for row in rows for key, cell in zip(header, row)
                             if cell is not None and not math.isfinite(cell))
            raise NumericalError(f"{cfg.command} computed a non-finite {key}: {cell!r}")
    if cfg.format == "csv":
        cells = zip(*(map(_format_cell, column) for column in columns))
        text = "\n".join([",".join(header), *map(",".join, cells)]) + "\n"
    else:
        keys = [key for key in _COMMANDS[cfg.command][2] if key not in _OUTPUT]
        record = {"command": cfg.command, **{key: getattr(cfg, key) for key in keys}}
        if "deformation" in record:
            record["deformation"] = _deformation(cfg).to_dict()
        payload = {
            "params": record,
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
        if sys.stdout is None:  # the process started with its stdout closed
            raise ParameterError("cannot write output: standard output is closed")
        try:  # a full or broken stdout raises here or on the flush
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise ParameterError(f"cannot write output: {exc}") from exc
        return
    # rewritten in place, then cut to length: truncating a file to zero makes
    # ext4 (auto_da_alloc) free its blocks, allocate new ones and start their
    # writeback on close, which the next rewrite of the file can wait on
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            written = 0
            try:
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:  # a failed write leaves no old byte after the ones it wrote
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise ParameterError(f"cannot write output file: {exc}") from exc


def cmd_dims(cfg: argparse.Namespace) -> int:
    if not 0 <= cfg.n_max < MAX_ROWS:
        raise ParameterError(f"n-max must be between 0 and {MAX_ROWS - 1}, got {cfg.n_max}")
    # one convolution up to n = k(F-1), from where the dimension stays F**k
    dims = _block_dimensions(cfg.F, cfg.k, cfg.n_max)
    rows = [[n, dims[min(n, len(dims) - 1)]] for n in range(cfg.n_max + 1)]
    _emit(cfg, ["n", "dim"], rows)
    return EXIT_OK


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    params = _model_params(cfg)
    numeric = eigendecompose(build_block(params, cfg.n).matrix).eigenvalues
    exact_values = None
    try:  # the closed forms' own regime rules decide where the columns are filled
        if params.F == 2:
            exact_values = exact_f2_deformed(
                params.k, cfg.n, params.omega, params.delta, params.g, params.deformation
            ).values()
        elif params.F == 3 and params.k == 1 and params.deformation.kind == "undeformed":
            exact_values = exact_f3_k1(cfg.n, params.omega, params.delta, params.g).values()
    except OutOfRegimeError:
        pass
    rows = []
    mismatch = False
    tol = SPECTRUM_MATCH_TOL * (1.0 + float(np.max(np.abs(numeric), initial=0.0)))
    for j, value in enumerate(numeric):
        if exact_values is None:
            rows.append([j, value, None, None])
        else:
            diff = abs(value - exact_values[j])
            mismatch = mismatch or diff > tol
            rows.append([j, value, exact_values[j], diff])
    _emit(cfg, ["index", "eigenvalue", "exact_value", "abs_diff"], rows)
    return EXIT_VERIFICATION if mismatch else EXIT_OK


def cmd_thermo_scan(cfg: argparse.Namespace) -> int:
    params = _model_params(cfg)
    grid = _omega_grid(cfg)
    scan = omega_scan(params, cfg.n, grid)
    rows = [
        [omega, obs.z, obs.free_energy, obs.phi_n_expect, obs.n_expect, obs.w_expect]
        for omega, obs in scan
    ]
    _emit(cfg, ["omega", "Z", "free_energy", "phi_N", "N", "W"], rows)
    return EXIT_OK


def cmd_semiclassical_compare(cfg: argparse.Namespace) -> int:
    # the closed form's regime checks come first, so a grid is solved only in regime
    omegas = _omega_grid(cfg)
    levels = semiclassical_level_table(cfg.F, cfg.k, cfg.n, cfg.hbar, omegas, cfg.delta, cfg.g)
    params = ModelParams(cfg.F, cfg.k, 1.0, cfg.delta, cfg.g, hbar=cfg.hbar, beta=cfg.beta,
                         deformation=Deformation.linear(cfg.hbar))
    grid, log_z = zip(*log_partition_scan(params, cfg.n, omegas))
    log_z_semiclassical = log_sum_exp(levels, -cfg.beta)
    with np.errstate(over="ignore", invalid="ignore"):  # _emit names a non-finite cell
        # + 0.0: a zero free energy is 0.0, not -0.0
        f_numeric = -np.array(log_z) / cfg.beta + 0.0
        f_semiclassical = -log_z_semiclassical / cfg.beta + 0.0
        rel_err = np.abs(f_numeric - f_semiclassical) / np.maximum(np.abs(f_numeric), 1e-300)
    rows = np.column_stack([grid, f_numeric, f_semiclassical, rel_err]).tolist()
    _emit(cfg, ["omega", "F_numeric", "F_semiclassical", "rel_err"], rows)
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    summary = run_checks(cfg.scope, step=cfg.mu_step)
    _write_text(cfg.out, json.dumps(summary, indent=2) + "\n")
    return EXIT_OK if summary["passed"] else EXIT_VERIFICATION


#: command -> (handler, help, inputs): the inputs the handler reads, in the order
#: of its JSON params record, then the output ones.  They are its flags in --help
#: order and its config keys; every command also takes --config.
_COMMANDS = {
    "dims": (cmd_dims, "block dimensions d_n for n = 0..n_max", ("F", "k", "n_max", *_OUTPUT)),
    "spectrum": (cmd_spectrum, "eigenvalues of one block, with exact columns in regime",
                 ("F", "k", "n", "omega", "delta", "g", "hbar", "deformation", *_OUTPUT)),
    "thermo-scan": (cmd_thermo_scan, "thermal observables over a frequency grid",
                    ("F", "k", "n", *_GRID, "delta", "g", "hbar", "beta", "deformation", *_OUTPUT)),
    "semiclassical-compare": (cmd_semiclassical_compare,
                              "free energy: numerical vs linearized closed form",
                              ("F", "k", "n", *_GRID, "delta", "g", "hbar", "beta", *_OUTPUT)),
    "verify": (cmd_verify, "run self-check suites, emit JSON summary", ("scope", "mu_step", "out")),
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ParameterError (exit 1) instead of exiting 2."""

    def error(self, message):
        raise ParameterError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parafermi-jc",
        description="Block diagonalization and thermodynamics of parafermion"
                    " modes coupled to a (deformed) oscillator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        # any negative number is a flag's value: argparse's own pattern takes -1e3 for an option
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--config", help="flat JSON config file; flags override it")
        for key in keys:
            kind, _, key_help = _INPUTS[key]
            convert = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(_flag(key), dest=key, help=key_help, **convert)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_inputs(args))
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except (NumericalError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    code = main()
    # the interpreter flushes stdout again at exit, and a failure there prints
    # "Exception ignored" and exits 120: bytes a failed write may have left in
    # stdout's buffer are sent to the null device instead
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
