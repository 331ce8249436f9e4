"""Static guards: the library solves its own eigenproblems and runs serially,
the solver's products take no operand reversed after conj(), only the blocks
module reads a block's hop arrays, every public name has a caller outside
the tests, every module-level function and class is referenced, and no two
modules import each other, directly or around a ring.  One run-time guard patches numpy's eigenroutines to raise and runs
every solver route and the commands built on them.

LAPACK eigenroutines and polynomial root finders (which call them) belong to
the test suite as oracles; the package itself must not reference them, nor
scipy, nor thread pools.  Comments and string literals are skipped, so prose
may still name what the code must not use.
"""

import ast
import collections
import math
import pathlib
import re
import tokenize

import numpy as np
import pytest

import parafermi_jc
from parafermi_jc import (
    ModelParams,
    build_block,
    eigendecompose,
    omega_scan,
    thermo_from_block,
)
from parafermi_jc.cli import main
from parafermi_jc.thermo import log_partition_scan

PACKAGE = pathlib.Path(parafermi_jc.__file__).parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

FORBIDDEN = re.compile(
    r"\b(linalg\.eig\w*|eigh|eigvals\w*|np\.roots|numpy\.roots"
    r"|scipy|concurrent\.futures|threading)\b"
)


def code_text(path):
    """Names and operators of a module, dotted names rejoined, one line per source line."""
    lines = {}
    with open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type in (tokenize.NAME, tokenize.OP):
                lines.setdefault(tok.start[0], []).append(tok.string)
    return {row: re.sub(r"\s*\.\s*", ".", " ".join(parts)) for row, parts in lines.items()}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_lapack_eigenroutines_scipy_or_threads(path):
    hits = [f"{path.name}:{row}: {text}" for row, text in code_text(path).items()
            if FORBIDDEN.search(text)]
    assert not hits, "forbidden references:\n" + "\n".join(hits)


def test_guard_sees_code_but_not_prose(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('"""np.roots in a docstring"""\n# eigh in a comment\n'
                      "roots = np . roots([1.0, 0.0])\nweight = 1\n")
    assert [row for row, text in code_text(sample).items() if FORBIDDEN.search(text)] == [3]


#: x.conj()[::-1] and x.conj()[..., ::-1]: the copy that conj() makes, viewed
#: with a negative stride, which takes matmul off BLAS; and x[::-1].conj(),
#: x[..., ::-1].conj() or any subscript whose last index is ::-1, before
#: conj(), which stay that view for a real x, as conj() returns a real array
#: itself.  np.conjugate(x[::-1]) copies for either dtype.
REVERSED_AFTER_CONJ = re.compile(r"\.conj\(\)\[([^\[\]]*,)?::-1\]|\[([^\[\]]*,)?::-1\]\.conj\(\)")


def compact_code(path):
    """Names, operators and numbers of a module, without spaces, one line per source line."""
    lines = {}
    with open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER):
                lines.setdefault(tok.start[0], []).append(tok.string)
    return {row: "".join(parts) for row, parts in lines.items()}


@pytest.mark.parametrize("name", ["eigensolver.py", "divide.py"])
def test_no_operand_reversed_after_conj(name):
    hits = [f"{name}:{row}: {text}" for row, text in compact_code(PACKAGE / name).items()
            if REVERSED_AFTER_CONJ.search(text)]
    assert not hits, ("reverse inside np.conjugate, so products stay on BLAS:\n"
                      + "\n".join(hits))


def test_reversal_guard_sees_code_but_not_prose(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('"""u.conj()[::-1] in a docstring"""\n# v.conj()[..., ::-1] in a comment\n'
                      "p = M @ u.conj() [::-1]\nq = _mv(M, v.conj()[..., ::-1])\n"
                      "r = M @ np.conjugate(u[::-1]) + _vh(np.conjugate(v[..., ::-1]), M)\n")
    assert [row for row, text in compact_code(sample).items()
            if REVERSED_AFTER_CONJ.search(text)] == [3, 4]


def test_reversal_guard_sees_conj_after_the_reversal(tmp_path):
    # a real array's conj() is the array itself, so the reversed view stays
    sample = tmp_path / "sample.py"
    sample.write_text('"""u[::-1].conj() in a docstring"""\n# v[..., ::-1].conj() in a comment\n'
                      "p = M @ u [::-1] . conj()\nq = _mv(M, v[..., ::-1].conj())\n"
                      "r = pairs @ pairs[..., ::-1].conj().swapaxes(-1, -2)\n"
                      "c = _mv(pairs, pairs[..., 0, ::-1].conj())\n"
                      "s = u[::-1].conjugate() + v[::2].conj() + w[::-1][0].conj()\n")
    assert [row for row, text in compact_code(sample).items()
            if REVERSED_AFTER_CONJ.search(text)] == [3, 4, 5, 6]


def test_no_solve_reaches_a_lapack_eigenroutine(monkeypatch, capsys):
    # the README's promise at run time: with numpy's eigenroutines patched to
    # raise, a lone matrix, a stack, a tree of more than LEAF rows, the
    # thermal reductions and the spectrum command all still solve
    def forbidden(*args, **kwargs):
        raise AssertionError("a LAPACK eigenroutine was called")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    rng = np.random.default_rng(11)

    def hermitian(n):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return A + A.conj().T

    tree = hermitian(parafermi_jc.eigensolver.LEAF + 20)
    for H in (hermitian(12), np.array([hermitian(12) for _ in range(3)]), tree):
        assert np.isfinite(eigendecompose(H, want_vectors=True).eigenvalues).all()
    assert np.isfinite(eigendecompose(tree).eigenvalues).all()
    params = ModelParams(3, 2, 1.0, 2.0, 0.7)
    assert math.isfinite(thermo_from_block(build_block(params, 4), params).log_z)
    assert len(omega_scan(params, 4, [0.5, 1.0])) == len(log_partition_scan(params, 4, [0.5, 1.0])) == 2
    assert main(["spectrum", "--F", "2", "--k", "2", "--n", "3"]) == 0
    assert capsys.readouterr().out


HOP_ARRAYS = re.compile(r"\b(_hops|_Hops|_structure_values)\b")


def test_hop_arrays_stay_in_blocks():
    # a block's index arrays are the blocks module's own: the rest of the
    # package takes a block's real form and diagonal operators from _real_form
    hits = [f"{path.name}:{row}: {text}" for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "blocks.py"
            for row, text in code_text(path).items() if HOP_ARRAYS.search(text)]
    assert not hits, "hop arrays read outside blocks.py:\n" + "\n".join(hits)


def test_every_export_has_a_caller_outside_the_tests():
    # a name's own def or class is one appearance, so a second one is a use
    # in the package modules (not __init__.py) or the scripts
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(SCRIPTS.glob("*.py"))
    counts = collections.Counter(token for path in paths for text in code_text(path).values()
                                 for token in re.findall(r"\w+", text))
    unused = sorted(name for name in parafermi_jc.__all__ if counts[name] < 2)
    assert not unused, f"exported but used only by the tests: {unused}"


def unreferenced(paths):
    """Module-level functions and classes of paths that no token of paths
    names besides their own def or class."""
    counts = collections.Counter(token for path in paths for text in code_text(path).values()
                                 for token in re.findall(r"\w+", text))
    return sorted(node.name for path in paths
                  for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and counts[node.name] < 2)


def test_every_function_and_class_is_referenced():
    # an orphaned helper left behind by a refactor shows up here
    orphans = unreferenced(sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")))
    assert not orphans, f"defined but never referenced: {orphans}"


def test_orphan_guard_sees_an_unreferenced_helper(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('"""_orphan in a docstring"""\nLIMIT = 1\n\n\n'
                      "def _orphan():\n    return _used()  # _orphan\n\n\n"
                      "def _used():\n    return LIMIT\n\n\nclass Unused:\n    pass\n")
    assert unreferenced([sample]) == ["Unused", "_orphan"]


def unused_imports(path):
    """Names that path binds by an import, at module level or inside
    functions, and that no name in its code reads; __future__ binds none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # an import left behind by a deleted code path shows up here
    assert not unused_imports(path), f"{path.name} imports but never uses {unused_imports(path)}"


def test_import_guard_sees_an_unused_binding(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text('from __future__ import annotations\nimport cmath\nimport math as m\n'
                      'import os.path\nfrom json import dumps, loads\n\n\n'
                      'def f():\n    """loads and cmath in a docstring"""\n    import logging\n'
                      '    return m.pi, os.sep, dumps  # logging\n')
    assert unused_imports(sample) == ["cmath", "loads", "logging"]


def package_imports(path):
    """Names of the package modules that path imports, at module level or
    inside functions, in any of the relative or absolute forms."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("parafermi_jc."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "parafermi_jc":
                continue
            parts = module.split(".")[1 if node.level == 0 else 0:]
            if parts and parts[0]:
                names.add(parts[0])
            else:  # from . import x, from parafermi_jc import x
                names.update(alias.name for alias in node.names)
    return names


def find_cycle(graph):
    """Modules that import each other around a ring, first repeated last, or None."""
    state = {}

    def visit(path):
        state[path[-1]] = "open"
        for name in sorted(graph[path[-1]]):
            if state.get(name) == "open":
                return path[path.index(name):] + [name]
            found = None if name in state else visit(path + [name])
            if found:
                return found
        state[path[-1]] = "done"
        return None

    for name in sorted(graph):
        found = None if name in state else visit([name])
        if found:
            return found
    return None


def test_no_import_cycles():
    modules = {p.stem: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    graph = {name: package_imports(path) & modules.keys() for name, path in modules.items()}
    assert find_cycle(graph) is None, "import cycle: " + " -> ".join(find_cycle(graph))


def test_cycle_guard_sees_every_import_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import numpy\nfrom .errors import NumericalError\n"
                      "def f():\n    from . import divide\n    import parafermi_jc.thermo\n"
                      "    from parafermi_jc.cli import main\n    from parafermi_jc import exact\n")
    assert package_imports(sample) == {"errors", "divide", "thermo", "cli", "exact"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
