"""Every imported name is used, and every public name has one import path
and a caller outside the tests.

An AST scan stands in for a linter: a name bound by an import statement must
be read somewhere in the same file, in code or inside a string annotation.
`__future__` imports are exempt.  The package namespace imports nothing, so
each name is imported from the module that defines it.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfermat"
FILES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used
    )
    assert not unused, f"{path.relative_to(ROOT)}: unused imports {unused}"


def test_the_scan_sees_string_annotations_and_misses_unused_names():
    tree = ast.parse(
        "from a import Used, Unused, Quoted\n"
        "import os.path\n"
        "def f(x: 'Quoted') -> Used:\n"
        "    return os.path\n"
    )
    assert set(_imported(tree)) - _used(tree) == {"Unused"}


def test_the_package_namespace_imports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports, f"qfermat/__init__.py imports on lines {imports}"


def test_importing_a_submodule_binds_the_module():
    import qfermat.hilb1 as m

    assert isinstance(m, ModuleType)


def _lines(node: ast.stmt) -> set[int]:
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    return set(range(first, node.end_lineno + 1))


def _public_names(tree: ast.Module) -> list[tuple[str, set[int]]]:
    """(name, lines to skip) for each name in __all__ and for each public
    method of a class in __all__.  A name skips the __all__ statement and its
    own definition, a method its own definition."""
    names, all_lines, defined, methods = [], set(), {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = _lines(node)
        if isinstance(node, ast.ClassDef):
            methods[node.name] = [
                (m.name, _lines(m))
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(t, ast.Name) and t.id == "__all__":
                    names, all_lines = ast.literal_eval(node.value), _lines(node)
                elif isinstance(t, ast.Name):
                    defined[t.id] = _lines(node)
    public = [(name, all_lines | defined.get(name, set())) for name in names]
    return public + [m for name in names for m in methods.get(name, [])]


def test_every_public_name_has_a_caller_outside_the_tests():
    """A name in a module's __all__, or a public method of a class in it,
    must appear as a word outside its own definition and the __all__ list:
    elsewhere in its module, in another package module, in README.md, in
    bench/*.py or in the acceptance tests.  A `def` of the same name
    elsewhere does not count."""
    shared = [
        (ROOT / "README.md").read_text(encoding="utf-8"),
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
        *(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))),
    ]
    orphans = []
    for path in MODULES:
        text = path.read_text(encoding="utf-8")
        others = [p.read_text(encoding="utf-8") for p in MODULES if p != path]
        for name, skip in _public_names(ast.parse(text)):
            own = "\n".join(
                line for k, line in enumerate(text.splitlines(), 1) if k not in skip
            )
            word = re.compile(rf"(?<!def )\b{re.escape(name)}\b")
            if not any(word.search(t) for t in [own, *others, *shared]):
                orphans.append(f"{path.name}:{name}")
    assert not orphans, f"public names with no caller outside the tests: {orphans}"
