"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "polydisc"


def _private_definitions(tree):
    """(name, node) for each module-level _private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(tree) -> Counter:
    """How often each name is read, taken as an attribute or imported in tree."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_helper_is_used():
    # a module-level _private name that nothing else in the package reads is
    # dead code: delete it, or make it public if tests need it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    orphans = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if refs[name] == _references(node)[name]  # read only inside its own definition
    ]
    assert orphans == []


def _exported(tree) -> list[str]:
    """The names in a module's __all__."""
    return [
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    ]


def _definition(tree, name):
    """The module-level node that defines name."""
    for node in tree.body:
        if getattr(node, "name", None) == name:
            return node
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == name for t in targets):
            return node
    raise AssertionError(f"{name} is exported but not defined")


# kept public with no product caller: the necessary Schwarz bound for G_n
# (Costara's sup against |lambda0|), which no other public name states
_PUBLIC_WITHOUT_CALLER = {"gn_schwarz_bound"}


def test_every_public_name_is_run_by_the_product():
    # a public name that only tests call is a second copy of a fact the
    # product runs elsewhere: delete it, so each fact keeps the one function
    # the product runs.  A name counts as run where the package (outside its
    # own definition, __all__ and __init__), a script or the benchmark reads it
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    for path in sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]):
        refs += _references(ast.parse(path.read_text()))
    unrun = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _exported(tree)
        if refs[name] == _references(_definition(tree, name))[name] and name not in _PUBLIC_WITHOUT_CALLER
    ]
    assert unrun == []


def _unread_parameters(tree):
    """(function, parameter) for each parameter, self and cls aside, that
    the function's body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for a in params:
            if a.arg not in ("self", "cls") and a.arg not in read:
                yield f"{name}({a.arg})"


def test_every_parameter_is_read():
    # a parameter the body never reads is a setting that does nothing:
    # drop it, or read it
    unread = [
        f"{path.name}:{item}"
        for path in sorted(SRC.glob("*.py"))
        for item in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert unread == []


def test_pole_messages_are_formatted_only_when_raised():
    # _check_poles builds its message from a template and fields when it
    # raises, and the disc automorphism _mobius passes its template through;
    # an f-string or .format() argument would be formatted on every call,
    # and some callers run once per lambda of a disc evaluation
    calls, eager = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) not in ("_check_poles", "_mobius"):
                continue
            calls += 1
            for arg in [*node.args, *(k.value for k in node.keywords)]:
                for n in ast.walk(arg):
                    if isinstance(n, ast.FormattedValue) or getattr(
                        getattr(n, "func", None), "attr", None
                    ) == "format":
                        eager.append(f"{path.name}:{node.lineno}")
    assert calls >= 5  # the pole sites are still found under these names
    assert eager == []


def test_no_boolean_switch_parameters():
    # a parameter defaulting to True or False is a switch its callers flip:
    # decide from the data instead (dataclass fields are not parameters)
    switches = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += zip(args.kwonlyargs, args.kw_defaults)  # None where no default
            switches += [
                f"{path.name}:{getattr(node, 'name', '<lambda>')}({a.arg})"
                for a, d in pairs
                if isinstance(d, ast.Constant) and isinstance(d.value, bool)
            ]
    assert switches == []


def test_no_blas_products_on_construction_paths():
    # the 2x2 algebra runs on clinalg's entry tuples: a numpy matrix product
    # (@) or an np.linalg call would bring BLAS/LAPACK back, and a BLAS call
    # can slow the process's later float code; identity_regressions keeps
    # its numpy determinants as the independent side of its regressions
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "identity_regressions"
            for n in ast.walk(f)
        }
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            matmul = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            linalg = isinstance(node, ast.Attribute) and node.attr == "linalg"
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mod = getattr(node, "module", None)
                dotted = [f"{mod}.{a.name}" if mod else a.name for a in node.names]
                linalg = any(d.startswith("numpy.linalg") for d in dotted)
            if matmul or linalg:
                found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []


def test_no_unused_imports():
    # a name a module imports and never reads is a dead dependency; the
    # package __init__ imports to re-export, and __future__ imports are
    # compiler directives
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{name}" for name in names if name not in read]
    assert unused == []


def test_only_circle_checks_a_grid():
    # mobius.circle is the one grid check and every grid oracle calls it
    # first; a comparison on a name `grid` anywhere else is a second check
    # that can disagree with it (`grid < 8` let a grid of 8.5 through, and
    # the oracle sampled an arc of the circle)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = {
            id(n)
            for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (path.name, f.name) == ("mobius.py", "circle")
            for n in ast.walk(f)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in exempt
            and any(isinstance(n, ast.Name) and n.id == "grid" for n in ast.walk(node))
        ]
    assert found == []
