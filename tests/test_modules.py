"""The module graph of hhext, and the functions the benchmark's tracer names.

The verifier's three independent ways are three modules, none importing
another: ``formulas`` (closed forms), ``resolution`` (the minimal
resolution and its complexes) and ``complexes`` (the oracles).  So no
oracle can reach the resolution's bases, weights or orbit shortcut, and
a new oracle is covered by living in ``complexes``.  Each module's
source is read with ``ast``, so imports inside functions count, and
``importlib`` and ``__import__`` are refused.
"""

import ast
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import hhext.cli  # noqa: F401  (loads every hhext module)
from hhext import complexes

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hhext"

# Per module of src/hhext (``__init__`` is the package), the other hhext
# modules that its import statements name.
IMPORTS = {
    "__init__": set(),
    "exactla": set(),
    "exterior": set(),
    "formulas": set(),
    "resolution": {"exactla", "exterior"},
    "complexes": {"exactla", "exterior"},
    "ring": {"exactla", "exterior", "formulas", "resolution"},
    "cli": {"__init__", "exactla", "formulas", "complexes", "resolution",
            "ring"},
}
WAYS = {"formulas", "resolution", "complexes"}


def _stem(dotted):
    """The module of src/hhext that the dotted name lies in, or None for
    a name outside hhext."""
    package, _, rest = dotted.partition(".")
    if package != "hhext":
        return None
    name = rest.partition(".")[0]
    return name if (SRC / f"{name}.py").exists() else "__init__"


def hhext_imports(source):
    """The modules of src/hhext that the import statements of ``source``,
    a module of the package, name anywhere in it.  Raises ValueError on
    an import of importlib, a use of __import__, or a relative import
    that leaves the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and "__import__" in (
                getattr(node, "id", None), getattr(node, "attr", None)):
            raise ValueError("__import__ is refused")
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 1:
                raise ValueError("a relative import leaves the package")
            base = ".".join(filter(None, ["hhext" if node.level else None,
                                          node.module]))
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.partition(".")[0] == "importlib" for name in dotted):
            raise ValueError("importlib is refused")
        names |= {_stem(name) for name in dotted} - {None}
    return names


def _source(stem):
    return (SRC / f"{stem}.py").read_text()


def test_the_table_covers_every_module_and_keeps_the_ways_apart():
    assert set(IMPORTS) == {path.stem for path in SRC.glob("*.py")}
    for way in WAYS:
        assert IMPORTS[way].isdisjoint(WAYS), way


@pytest.mark.parametrize("stem", sorted(IMPORTS))
def test_every_module_imports_its_row_of_the_table(stem):
    assert hhext_imports(_source(stem)) - {stem} == IMPORTS[stem]


PLANTED = {
    "oracle-reads-the-resolution": (
        "complexes", "\n\ndef _planted(n, m):\n"
        "    from .resolution import exponent_vectors\n"
        "    return exponent_vectors(n, m)\n", {"resolution"}),
    "resolution-reads-an-oracle": (
        "resolution", "\nfrom .complexes import bar_oracle_dims\n",
        {"complexes"}),
    "package-submodule": (
        "complexes", "\nfrom . import resolution\n", {"resolution"}),
}


@pytest.mark.parametrize("mutant", sorted(PLANTED))
def test_a_planted_import_leaves_the_table(mutant):
    stem, text, extra = PLANTED[mutant]
    got = hhext_imports(_source(stem) + text) - {stem}
    assert got - IMPORTS[stem] == extra


@pytest.mark.parametrize("text", [
    "\nimport importlib\n",
    "\nfrom importlib import import_module\n",
    "\ndef _planted():\n    return __import__('hhext.resolution')\n",
    "\nimport builtins\n_planted = builtins.__import__\n",
], ids=["import-importlib", "from-importlib", "call", "attribute"])
def test_a_dynamic_import_is_refused(text):
    with pytest.raises(ValueError):
        hhext_imports(_source("complexes") + text)


def _closure(stem):
    """The modules that importing ``stem`` loads by the table, itself and
    the package included."""
    todo, seen = [stem], {"__init__"}
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += IMPORTS[name]
    return seen


def test_a_fresh_import_loads_only_what_the_table_names():
    """In a fresh interpreter each module loads exactly the modules its
    rows of the table reach: ``hhext.complexes`` loads no
    ``hhext.resolution``, and the resolution no oracle."""
    for stem in sorted(IMPORTS):
        name = "hhext" if stem == "__init__" else f"hhext.{stem}"
        run = subprocess.run(
            [sys.executable, "-c", f"import sys, {name}; print(' '.join("
             "m for m in sys.modules if m.partition('.')[0] == 'hhext'))"],
            capture_output=True, text=True, check=True)
        assert {_stem(m) for m in run.stdout.split()} == _closure(stem), stem
    assert "resolution" not in _closure("complexes")
    assert "complexes" not in _closure("resolution")


# The entries of perfbench/tracing.py that name no function: functions
# that refactors removed, left for the tracer's own repair to repoint.
UNTRACED = {
    ("hhext.complexes", "chain_matrix"),
    ("hhext.complexes", "cochain_matrix"),
    ("hhext.complexes", "bar_chain_matrix"),
    ("hhext.complexes", "bar_cochain_matrix"),
    ("hhext.exactla", "SparseMatrix.matmul"),
    ("hhext.exactla", "SpanBasis.insert"),
    ("hhext.ring", "_image_span"),
    ("hhext.exterior", "signed_append"),
}


def _unresolved():
    """The (module, name) entries of the tracer's SPANS and COUNTERS that
    resolve to no function or method of hhext.  The tracer is loaded from
    its file and not registered as a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = set()
    for module, name, _ in tracing.SPANS + tracing.COUNTERS:
        obj = sys.modules.get(module)
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if not inspect.isfunction(obj):
            out.add((module, name))
    return out


def test_every_traced_layer_names_a_function():
    assert _unresolved() - UNTRACED == set()


def test_a_removed_traced_function_is_caught(monkeypatch):
    monkeypatch.delattr(complexes, "bar_oracle_dims")
    assert _unresolved() - UNTRACED == {("hhext.complexes", "bar_oracle_dims")}
