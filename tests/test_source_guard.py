"""Static guards: the library solves its own eigenproblems and runs serially,
every public name has a caller outside the tests, and no two modules import
each other, directly or around a ring.

LAPACK eigenroutines and polynomial root finders (which call them) belong to
the test suite as oracles; the package itself must not reference them, nor
scipy, nor thread pools.  Comments and string literals are skipped, so prose
may still name what the code must not use.
"""

import ast
import collections
import pathlib
import re
import tokenize

import pytest

import parafermi_jc

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


def test_every_export_has_a_caller_outside_the_tests():
    # a name's own def or class is one appearance, so a second one is a use
    # in the package modules (not __init__.py) or the scripts
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(SCRIPTS.glob("*.py"))
    counts = collections.Counter(token for path in paths for text in code_text(path).values()
                                 for token in re.findall(r"\w+", text))
    unused = sorted(name for name in parafermi_jc.__all__ if counts[name] < 2)
    assert not unused, f"exported but used only by the tests: {unused}"


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
