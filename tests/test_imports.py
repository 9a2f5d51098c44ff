"""Source hygiene: every imported name is used, every module-level
private name in ``src/`` is referenced there, ``src/`` calls no numpy or
scipy trapezoid routine and integrates grids only through
``phase_space._contract``, only ``phase_space`` reads a grid's cached axis
factors and only ``teleport`` its cached side sums, ``src/`` tests numbers
only through ``errors.as_number``, ``errors.as_array`` and
``errors.as_index``, ``src/`` imports scipy only inside functions and never
``scipy.interpolate``, and builds a Gauss-Hermite rule only inside
``numerics.gauss_hermite``, never at import (no linter is installed)."""

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


# the one grid integral; only it contracts a grid's values with weight rows
_CONTRACTION_HELPER = ("phase_space.py", "_contract")
_CONTRACTIONS = {"matmul", "dot", "einsum"}


def _contraction_operands(node):
    # the operands of an @, @= or matmul/dot/einsum call (a method's receiver too)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return [node.left, node.right]
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
        return [node.target, node.value]
    if isinstance(node, ast.Call) and _called_name(node) in _CONTRACTIONS:
        receiver = [node.func.value] if isinstance(node.func, ast.Attribute) else []
        return receiver + list(node.args)
    return []


def _grid_integrals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    helper = set()
    if path.name == _CONTRACTION_HELPER[0]:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == _CONTRACTION_HELPER[1]:
                helper.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if id(node) in helper:
            continue
        where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call) and _called_name(node) == "trapezoid_weights":
            found.append(f"{where}: calls trapezoid_weights")
        if any(
            isinstance(n, ast.Attribute) and n.attr == "values"
            for op in _contraction_operands(node) for n in ast.walk(op)
        ):
            found.append(f"{where}: contracts .values")
    return list(dict.fromkeys(found))  # a chained a @ b @ c is two products on one line


def test_one_grid_integral():
    # every trapezoid contraction of a grid goes through phase_space._contract
    found = [entry for path in sorted(SRC.glob("*.py")) for entry in _grid_integrals(path)]
    assert not found, found


def _cache_reads(path, names):
    # a grid caches in its __dict__ under private names, read or written as
    # g.__dict__.get(name), getattr(g, name) or object.__setattr__(g, name, ...)
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(ROOT)}:{node.lineno}: reads {name}"
        for node in ast.walk(tree) for name in sorted(names)
        if (isinstance(node, ast.Constant) and node.value == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    ]


def test_axis_factors_stay_in_phase_space():
    # the factored route of every grid integral and smoothing is in one module
    found = [
        entry for path in sorted(SRC.glob("*.py")) if path.name != "phase_space.py"
        for entry in _cache_reads(path, {"_axis_factors"})
    ]
    assert not found, found


def test_side_sums_stay_in_teleport():
    # the cached quadrature side sums of a grid belong to the oracle and the density
    found = [
        entry for path in sorted(SRC.glob("*.py")) if path.name != "teleport.py"
        for entry in _cache_reads(path, {"_x_sums", "_y_sums"})
    ]
    assert not found, found


def _scipy_imports(path):
    # (line, module, at import time) for each import of scipy or a submodule;
    # ``from scipy import x`` imports the module scipy.x
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, deferred):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name, not deferred) for a in node.names
                         if a.name.partition(".")[0] == "scipy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "scipy":
            names = [node.module] if node.module != "scipy" else [
                f"scipy.{a.name}" for a in node.names]
            found.extend((node.lineno, name, not deferred) for name in names)
        deferred = deferred or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, deferred)

    visit(tree, False)
    return [(f"{path.relative_to(ROOT)}:{line}", name, eager) for line, name, eager in found]


def test_scipy_is_imported_lazily():
    # importing cvteleport loads no scipy module: set-up time is mostly imports
    found = [
        f"{where}: {name}" for path in sorted(SRC.glob("*.py"))
        for where, name, eager in _scipy_imports(path) if eager
    ]
    assert not found, found


def test_no_scipy_interpolate():
    # the spline is fitted by two banded solves; scipy.interpolate alone
    # costs about 23 MB of resident memory over scipy.linalg
    found = [
        f"{where}: {name}" for path in sorted(SRC.glob("*.py"))
        for where, name, _ in _scipy_imports(path)
        if name == "scipy.interpolate" or name.startswith("scipy.interpolate.")
    ]
    assert not found, found


_RULE_BUILDERS = {"gauss_hermite", "hermgauss"}


def _rule_builds(path):
    # (where, name, innermost enclosing function or None at import time) for
    # each call of a rule builder; a def's decorators and defaults run at import
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, function):
        if isinstance(node, ast.Call) and _called_name(node) in _RULE_BUILDERS:
            found.append((f"{path.relative_to(ROOT)}:{node.lineno}", _called_name(node), function))
        body, name = (), function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body, name = node.body, node.name
        elif isinstance(node, ast.Lambda):
            body, name = [node.body], "<lambda>"
        for child in ast.iter_child_nodes(node):
            visit(child, name if any(child is b for b in body) else function)

    visit(tree, None)
    return found


def test_no_rule_is_built_at_import():
    # importing cvteleport runs no eigen-solve: rules are built on first use
    found = [
        f"{where}: {name}" for path in sorted(SRC.glob("*.py"))
        for where, name, function in _rule_builds(path) if function is None
    ]
    assert not found, found


def test_hermgauss_only_in_gauss_hermite():
    # one place builds a rule, so each order is built once and shared
    found = [
        f"{where}: hermgauss in {function}" for path in sorted(SRC.glob("*.py"))
        for where, name, function in _rule_builds(path)
        if name == "hermgauss" and (path.name, function) != ("numerics.py", "gauss_hermite")
    ]
    assert not found, found
