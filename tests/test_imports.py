"""Source hygiene: every imported name is used, every module-level
private name in ``src/`` is referenced there, ``src/`` integrates grids
only through ``numerics.trapezoid_weights``, and it tests numbers only
through ``errors.as_number`` and ``errors.as_index`` (no linter is
installed)."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cvteleport"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    where = path.relative_to(ROOT)
    return [f"{where}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports names only to re-export them
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in sorted(files) for entry in _unused_imports(path)]
    assert not unused, unused


def _private_definitions(tree, where):
    # module-level functions, classes and assignments named _x (not __x__)
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = f"{where}:{node.lineno}"
    return names


def _references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_unreferenced_private_names():
    trees = {
        path.relative_to(ROOT): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    defined = {}
    for where, tree in trees.items():
        defined.update(_private_definitions(tree, where))
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    dead = sorted(f"{where}: {name}" for name, where in defined.items() if name not in referenced)
    assert not dead, dead


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


# numpy's and scipy's trapezoid routines, under their current and old names
_TRAPEZOID_ROUTINES = {"trapezoid", "trapz", "cumulative_trapezoid", "cumtrapz"}


def test_one_trapezoid_rule():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _called_name(node)
            elif isinstance(node, ast.ImportFrom):
                name = next((a.name for a in node.names if a.name in _TRAPEZOID_ROUTINES), None)
            else:
                continue
            if name in _TRAPEZOID_ROUTINES:
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not calls, calls


# math's, cmath's and numpy's finiteness tests, under any import
_FINITENESS_TESTS = {"isfinite", "isnan"}


def _tests_np_integer(call):
    # isinstance(x, ...) whose type argument names np.integer (or numpy.integer)
    return _called_name(call) == "isinstance" and len(call.args) == 2 and any(
        isinstance(n, ast.Attribute) and n.attr == "integer" for n in ast.walk(call.args[1])
    )


def test_one_number_rule():
    # outside errors.py, no module tests finiteness or integer types itself
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                _called_name(node) in _FINITENESS_TESTS or _tests_np_integer(node)
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}")
    assert not found, found
