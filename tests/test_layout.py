"""The package holds only what its own code or the benchmark runs.

Every top-level function and class of a `src/nhtrack` module must be
named in the package's code outside its own definition, or in the text
of `perfbench/`. Docstrings and comments do not count: a name that only
the tests call belongs in the tests (`tests/oracles.py` holds such
models).

Every name that a `src/nhtrack` module imports must be used by a code
token of that module, outside its import statements.

The modules are the API: `import nhtrack` loads none of them.
"""

import ast
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nhtrack"
PERFBENCH = ROOT / "perfbench"

# imported but not used by their module: perfbench/spans.py rebinds
# tracking.integrate and checks.integrate to time the generic integrator
REBOUND_IMPORTS = {"tracking.integrate", "checks.integrate"}


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _definitions(tree):
    """(name, first line, last line) of each top-level def and class,
    decorators included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _unreferenced():
    """module.name of every top-level definition that no code token of
    another place in the package and no perfbench file names."""
    sources = {path: path.read_text() for path in _modules()}
    definitions = {path: list(_definitions(ast.parse(text))) for path, text in sources.items()}
    uses = {}  # name -> [(path, line)] of every NAME token
    for path, text in sources.items():
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NAME:
                uses.setdefault(tok.string, []).append((path, tok.start[0]))
    bench = "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py")))

    missing = []
    for path, defs in definitions.items():
        for name, first, last in defs:
            used = any(p != path or not first <= line <= last for p, line in uses.get(name, []))
            if not used and not re.search(rf"\b{re.escape(name)}\b", bench):
                missing.append(f"{path.stem}.{name}")
    return missing


def test_every_top_level_definition_has_a_caller_outside_the_tests():
    assert _unreferenced() == []


def _unused_imports():
    """module.name of every name a module imports and none of its code
    tokens outside the import statements uses; `from __future__` aside."""
    unused = []
    for path in _modules():
        text = path.read_text()
        imports = [
            node
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        ]
        inside = {line for node in imports for line in range(node.lineno, node.end_lineno + 1)}
        used = {
            tok.string
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.NAME and tok.start[0] not in inside
        }
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.stem}.{name}")
    return unused


def test_every_import_is_used_by_its_module():
    assert [name for name in _unused_imports() if name not in REBOUND_IMPORTS] == []


def test_importing_the_package_loads_no_module_and_no_numpy():
    """A fresh interpreter's `import nhtrack` leaves no nhtrack.* submodule
    and no numpy in sys.modules."""
    code = (
        "import sys, nhtrack; "
        "print(sorted(m for m in sys.modules if m.startswith(('nhtrack.', 'numpy'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
