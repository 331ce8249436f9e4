"""In-memory spans around the package's public functions, from outside the package.

``Tracer`` replaces every public function defined in the six traced modules
(algebra, blocks, eigensolver, thermo, exact, cli) by a wrapper, under every
name a caller looks it up by: ``blocks.build_block``, ``thermo.build_block``,
``cli.build_block`` and ``parafermi_jc.build_block`` all become one wrapper.
Private functions and dispatch tables (such as ``cli._COMMANDS``) are left
alone.  Each call records a span (name, start, end, parent, request); the
originals are restored on exit, so outputs are unchanged.

``layer_metrics`` folds spans into the per-layer metrics.  A span's layer is
fixed by its function (table below); a function not in the table inherits
the layer of its nearest enclosing span from the same module, else it falls
into ``<module>.other``.  A layer's ``busy_s`` and ``calls`` count its
outermost spans (no enclosing span of the same layer); its ``self_s`` is the
span time not covered by child spans, summed over the layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass

import numpy as np

import oracle

TRACED_MODULES = ("algebra", "blocks", "eigensolver", "thermo", "exact", "cli")

LAYERS = {
    "eigensolver.eigenvalues_only": "eigensolver.val",
    "blocks.build_block": "blocks.build",
    "blocks.build_higher_spin_block": "blocks.build",
    "algebra.enumerate_block_basis": "algebra.enumerate",
    "thermo.thermo_from_block": "thermo.reduce",
    "thermo.omega_scan": "thermo.scan",
    "exact.semiclassical_levels_f2": "exact.semiclassical",
    "exact.semiclassical_z_f2": "exact.semiclassical",
    "exact.semiclassical_z_f2_closed_form": "exact.semiclassical",
    "exact.semiclassical_z_k1": "exact.semiclassical",
    "cli.main": "cli",
}

#: Matrices kept for the eigh comparison stop here, to bound memory.
MAX_KEPT_BYTES = 64 * 2**20


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    request: int
    start: float = 0.0
    end: float = 0.0
    dim: int = 0
    vectors: bool = False


class Tracer:
    """Context manager that wraps the public functions while it is active."""

    def __init__(self, keep_matrices: bool = False):
        self.spans: list[Span] = []
        self.request = -1
        self.keep_matrices = keep_matrices
        self.kept: list[tuple[int, np.ndarray]] = []  # (span index, matrix)
        self._kept_bytes = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        import parafermi_jc

        package = parafermi_jc.__name__
        modules = [importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES]
        defining = {module.__name__: short for module, short in zip(modules, TRACED_MODULES)}
        wrappers: dict[int, object] = {}
        for module in (parafermi_jc, *modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                short = defining.get(fn.__module__)
                if short is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{short}.{fn.__name__}", fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        is_eig = name.startswith("eigensolver.eigen")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1, tracer.request)
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer._note(index, span, args, kwargs, result, is_eig)

        return traced

    def _note(self, index: int, span: Span, args, kwargs, result, is_eig: bool) -> None:
        if is_eig:
            H = args[0] if args else kwargs["H"]
            span.dim = int(np.shape(H)[0])
            if span.name == "eigensolver.eigendecompose":
                span.vectors = bool(args[1] if len(args) > 1 else kwargs.get("want_vectors", False))
            outermost = span.parent < 0 or not self.spans[span.parent].name.startswith("eigensolver.eigen")
            if self.keep_matrices and outermost and self._kept_bytes < MAX_KEPT_BYTES:
                matrix = np.array(H)
                self.kept.append((index, matrix))
                self._kept_bytes += matrix.nbytes
        elif span.name.startswith("blocks.build") and result is not None:
            span.dim = result.dim


def _layers(spans: list[Span]) -> list[str]:
    layers: list[str] = []
    for span in spans:
        if span.name == "eigensolver.eigendecompose":
            layer = "eigensolver.vec" if span.vectors else "eigensolver.val"
        else:
            layer = LAYERS.get(span.name)
        if layer is None:
            module = span.name.split(".")[0]
            parent = span.parent
            while parent >= 0 and spans[parent].name.split(".")[0] != module:
                parent = spans[parent].parent
            layer = layers[parent] if parent >= 0 else f"{module}.other"
        layers.append(layer)
    return layers


def _outermost(spans: list[Span], layers: list[str], index: int) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if layers[parent] == layers[index]:
            return False
        parent = spans[parent].parent
    return True


def layer_metrics(tracer: Tracer, wall_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass whose requests took ``wall_s``, and each
    layer's self time as a share of ``wall_s``."""
    spans = tracer.spans
    layers = _layers(spans)
    durations = [span.end - span.start for span in spans]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    dim3 = {"eigensolver.vec": 0, "eigensolver.val": 0}
    elems = 0
    covered = 0.0
    exclusive = list(durations)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            exclusive[span.parent] -= durations[i]
        else:
            covered += durations[i]
    for i, layer in enumerate(layers):
        self_s[layer] = self_s.get(layer, 0.0) + exclusive[i]
        if _outermost(spans, layers, i):
            calls[layer] = calls.get(layer, 0) + 1
            busy[layer] = busy.get(layer, 0.0) + durations[i]
            if layer in dim3:
                dim3[layer] += spans[i].dim ** 3
            elif layer == "blocks.build":
                elems += spans[i].dim ** 2

    metrics: dict[str, float] = {}
    for layer in ("eigensolver.vec", "eigensolver.val"):
        kept = [(i, m) for i, m in tracer.kept if layers[i] == layer]
        lapack = sum(oracle.lapack(m, layer == "eigensolver.vec")[0] for _, m in kept)
        ours = sum(durations[i] for i, _ in kept)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        metrics[f"{layer}.dim3"] = dim3[layer]
        metrics[f"{layer}.eigh_ratio"] = ours / lapack if lapack > 0 else 0.0
    metrics["blocks.build.calls"] = calls.get("blocks.build", 0)
    metrics["blocks.build.busy_s"] = busy.get("blocks.build", 0.0)
    metrics["blocks.build.elems"] = elems
    metrics["algebra.enumerate.calls"] = calls.get("algebra.enumerate", 0)
    metrics["algebra.enumerate.busy_s"] = busy.get("algebra.enumerate", 0.0)
    metrics["thermo.reduce.calls"] = calls.get("thermo.reduce", 0)
    metrics["thermo.reduce.self_s"] = self_s.get("thermo.reduce", 0.0)
    metrics["thermo.scan.self_s"] = self_s.get("thermo.scan", 0.0)
    metrics["exact.semiclassical.calls"] = calls.get("exact.semiclassical", 0)
    metrics["exact.semiclassical.busy_s"] = busy.get("exact.semiclassical", 0.0)
    metrics["cli.self_s"] = self_s.get("cli", 0.0)
    metrics["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    shares = {layer: t / wall_s for layer, t in sorted(self_s.items())} if wall_s > 0 else {}
    return metrics, shares
