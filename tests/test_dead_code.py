"""Every private function or method of the package is used somewhere.

A stdlib stand-in for an unused-code linter: a `_name` defined in
`cremona_lab` must be referenced (as a name or an attribute) outside its
own body, or it is dead and should be deleted.  A reference from inside a
dead function does not count, so helpers only dead code calls are found too.
A public function or method must be named somewhere in the package, the
tests or the benchmark (`perfbench/`), outside its own body, and a public
module-level function that only the tests name must be exported from
`__init__`.

A second scan keeps the raw readers of Groebner bases (`hilbert_from_basis`,
`Reducer`, `normal_form`) inside `ideals` and `groebner`, so that every
other module reads those facts through `IdealHandle`.  A third finds no
`budget` parameter outside `groebner` but `cli.analysis_report` (the
Groebner limits are a scoped setting, `groebner.limits`), and a fourth keeps
`quotient` and `intersect` out of the analysis modules.
"""

import ast
from pathlib import Path

import cremona_lab

PKG = Path(cremona_lab.__file__).parent
TESTS = Path(__file__).parent
PERFBENCH = TESTS.parent / "perfbench"


def _private_defs_and_refs():
    defs = []  # (module, name, node)
    refs = []  # (name, node)
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defs.append((path.stem, name, node))
            elif isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
    return defs, refs


def test_no_unreferenced_private_functions():
    defs, refs = _private_defs_and_refs()
    assert defs, "the scan found no private functions at all"
    body = {id(node): {id(n) for n in ast.walk(node)} for _, _, node in defs}
    dead = {}
    while True:
        ignored = set().union(*(body[id(node)] for node in dead.values()))
        found = {f"{module}.{name}": node for module, name, node in defs
                 if not any(r == name and id(n) not in body[id(node)] and id(n) not in ignored
                            for r, n in refs)}
        if found.keys() == dead.keys():
            break
        dead = found
    assert sorted(dead) == [], "private functions nothing live references"


def _names(tree) -> list:
    """(name, node) for every name, attribute and imported name in `tree`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node))
        elif isinstance(node, ast.alias):
            out.append((node.name.rsplit(".", 1)[-1], node))
    return out


def test_every_public_function_is_named_somewhere():
    defs = []  # (module, name, node)
    refs = []
    for path in sorted(PKG.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        refs += _names(tree)
        if path.parent == PKG:
            defs += [(path.stem, node.name, node) for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not node.name.startswith("_")]
    assert defs, "the scan found no public functions at all"
    unnamed = []
    for module, name, node in defs:
        body = {id(n) for n in ast.walk(node)}
        if not any(r == name and id(n) not in body for r, n in refs):
            unnamed.append(f"{module}.{name}")
    assert sorted(unnamed) == [], "public functions nothing names"


def test_functions_only_tests_name_are_exported():
    """A module-level public function that nothing in the package (outside
    `__init__`) or the benchmark names is used by the tests alone; it is
    library API, so `__init__` exports it."""
    defs = []  # (module, name, node)
    refs = []
    exported = set()
    for path in sorted(PKG.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path == PKG / "__init__.py":
            exported = {name for name, node in _names(tree) if isinstance(node, ast.alias)}
            continue
        refs += _names(tree)
        if path.parent == PKG:
            defs += [(path.stem, node.name, node) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not node.name.startswith("_")]
    assert defs and exported, "the scan found no public functions or exports"
    test_only = []
    for module, name, node in defs:
        body = {id(n) for n in ast.walk(node)}
        if not any(r == name and id(n) not in body for r, n in refs) and name not in exported:
            test_only.append(f"{module}.{name}")
    assert sorted(test_only) == [], "functions only tests name: export them or delete them"


RAW_READERS = {"hilbert_from_basis", "Reducer", "normal_form"}
RAW_READER_HOMES = {"ideals", "groebner"}


def test_raw_basis_readers_stay_in_ideals_and_groebner():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in RAW_READER_HOMES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias) and path.stem != "__init__":
                name = node.name  # __init__ may re-export them
            else:
                continue
            if name in RAW_READERS:
                found.append(f"{path.stem}:{node.lineno}: {name}")
    assert found == [], "read Hilbert data and normal forms through IdealHandle"


# the one function outside `groebner` that takes the Groebner limits: it
# runs its analysis inside `groebner.limits(budget)`
BUDGET_TAKERS = {"cli.analysis_report"}


def test_only_groebner_takes_a_budget():
    """The Groebner limits are a scoped setting that `groebner` reads, so
    no function elsewhere has a `budget` parameter to pass on."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem == "groebner":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                if any(a.arg == "budget" for a in args.posonlyargs + args.args + args.kwonlyargs):
                    found.append(f"{path.stem}.{node.name}")
    assert sorted(found) == sorted(BUDGET_TAKERS)


def test_the_analysis_imports_no_quotient_or_intersection():
    """The liaison residual is a saturation, so the analysis modules need
    neither `quotient` nor `intersect`."""
    found = []
    for stem in ("cremona", "hudson"):
        tree = ast.parse((PKG / f"{stem}.py").read_text(encoding="utf-8"))
        found += [f"{stem}:{node.lineno}: {alias.name}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name in ("quotient", "intersect")]
    assert found == []
