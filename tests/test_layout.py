"""Source layout rules that no behavioural test would notice."""

import ast
import os

import gradedlie

SRC = os.path.dirname(gradedlie.__file__)


def _function_imports(path):
    """(function name, imported module) for every import inside a function
    body, nested functions included, in source order."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif function and isinstance(child, ast.ImportFrom):
                found.append((function, "." * child.level + (child.module or "")))
            elif function and isinstance(child, ast.Import):
                found.extend((function, alias.name) for alias in child.names)
            else:
                visit(child, function)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()), None)
    return found


def test_imports_at_module_top():
    # the linalg <-> cohomology cycle is a module-level import read at call time
    found = {name: _function_imports(os.path.join(SRC, name))
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    assert {name: imports for name, imports in found.items() if imports} == {}


def _grid_reads(path):
    """Line numbers of every `.rows` attribute outside class ConnectionMatrix."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "ConnectionMatrix":
                continue
            if isinstance(child, ast.Attribute) and child.attr == "rows":
                found.append(child.lineno)
            visit(child)

    with open(path, encoding="utf-8") as fh:
        visit(ast.parse(fh.read()))
    return found


def test_connection_grid_read_only_by_its_class():
    # connection matrices store their a(i, j) entries; the (n+1)^2 grid is
    # for rendering, so the modules that compute with them never walk it
    found = {name: _grid_reads(os.path.join(SRC, name))
             for name in ("massey.py", "representations.py", "checks.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


BRACKET_TABLE = ("brackets", "bracket_terms")


def test_bracket_table_read_only_by_the_algebra():
    # GradedLieAlgebra owns its structure constants; the other modules read
    # them as generator_differentials or through algebra.py's functions
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "algebra.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines = [node.lineno for node in ast.walk(ast.parse(fh.read()))
                         if isinstance(node, ast.Attribute) and node.attr in BRACKET_TABLE]
            if lines:
                found[name] = lines
    assert found == {}


def _is_reduction(node):
    """A Reduction(...) call or a .reduction attribute."""
    return (isinstance(node, ast.Call) and _name_of(node) == "Reduction"
            or isinstance(node, ast.Attribute) and node.attr == "reduction")


def _reduction_image_calls(path):
    """Line numbers of every .image( call on a Reduction outside class
    Reduction: on a Reduction(...) call or a .reduction attribute, or on a
    name bound to one of these in the same function (tuple unpacking
    included)."""
    found = []
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and child.name == "Reduction":
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child)
            else:
                visit(child)

    def scan(function):
        nodes = list(ast.walk(function))
        bound = set()
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs = zip(target.elts, node.value.elts)
                    else:
                        pairs = [(target, node.value)]
                    bound.update(t.id for t, v in pairs
                                 if isinstance(t, ast.Name) and _is_reduction(v))
        found.extend(node.lineno for node in nodes
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "image"
                     and (_is_reduction(node.func.value)
                          or isinstance(node.func.value, ast.Name)
                          and node.func.value.id in bound))

    visit(tree)
    return sorted(set(found))


def test_reduction_read_only_by_the_slice():
    # a slice's (h, p) contraction is the one code path that reads E v off a
    # Reduction; the other modules solve and classify through it, and a
    # Reduction elsewhere is read through its own solve
    found = {name: _reduction_image_calls(os.path.join(SRC, name))
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    assert found.pop("cohomology.py"), "the rule no longer sees the slice's reads"
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_assert_statements():
    # python -O strips asserts, so the checks behind a certificate are
    # internal_check calls or raised errors instead
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines = [node.lineno for node in ast.walk(ast.parse(fh.read()))
                         if isinstance(node, ast.Assert)]
            if lines:
                found[name] = lines
    assert found == {}


SOLVERS = ("solve", "coboundary_preimage")


def _is_solver_call(node):
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id in SOLVERS
            or isinstance(func, ast.Attribute) and func.attr in SOLVERS)


def _truthy_solver_tests(path):
    """Line numbers where a solver result, the call itself or a name bound
    from it in the same function, is tested for truthiness: as an if, while
    or conditional-expression test (also inside and/or), under not, in
    bool(), or as internal_check's first argument."""
    found = []
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(function))
        bound = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and _is_solver_call(node.value):
                bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.NamedExpr) and _is_solver_call(node.value):
                bound.add(node.target.id)

        def check(expr):
            if isinstance(expr, ast.BoolOp):
                for value in expr.values:
                    check(value)
            elif _is_solver_call(expr) or isinstance(expr, ast.Name) and expr.id in bound:
                found.append(expr.lineno)

        for node in nodes:
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                check(node.test)
            elif isinstance(node, ast.comprehension):
                for cond in node.ifs:
                    check(cond)
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                check(node.operand)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("bool", "internal_check") and node.args):
                check(node.args[0])
    return sorted(set(found))


def test_no_cached_property():
    # functools.cached_property writes the instance __dict__ after
    # construction, and CPython then reads every field of that object more
    # slowly; a part built later is a slot or a field set at construction
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines = [node.lineno for node in ast.walk(ast.parse(fh.read()))
                         if isinstance(node, ast.alias) and node.name == "cached_property"
                         or isinstance(node, (ast.Name, ast.Attribute))
                         and _name_of(node) == "cached_property"]
            if lines:
                found[name] = lines
    assert found == {}


def test_solver_results_compared_with_none():
    # solve and coboundary_preimage return a particular solution or None, and
    # [] (no unknowns) is a falsy solution, so callers write `is None`
    found = {name: _truthy_solver_tests(os.path.join(SRC, name))
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


CACHE_DECORATORS = ("lru_cache", "cache")
MUTABLE_CALLS = ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter",
                 "WeakKeyDictionary", "WeakValueDictionary")


def _name_of(node):
    """The called or referenced name of a decorator or call target."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_the_m0_truncation_test_has_one_owner():
    # algebra.is_m0 decides where omega is defined; the slice build and the
    # m0 operators read it instead of rebuilding it from is_m0_like
    found = {}
    for name in ("cohomology.py", "mzero.py"):
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and any(alias.name == "is_m0_like" for alias in node.names)
                 or isinstance(node, ast.Attribute) and node.attr in ("is_m0_like", "_m0_like")]
        if lines:
            found[name] = lines
    assert found == {}


def _module_caches(path):
    """Names that hold state shared by every caller: functions (methods
    included) under an lru_cache or cache decorator, and module-level names
    bound to a mutable container."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(_name_of(d) in CACHE_DECORATORS for d in node.decorator_list)]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if (isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                   ast.SetComp))
                    or isinstance(value, ast.Call) and _name_of(value) in MUTABLE_CALLS):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [t.id for t in targets if isinstance(t, ast.Name)]
    return sorted(found)


def test_module_level_caches_are_the_known_ones():
    # each algebra's caches have these owners; per-slice data such as the
    # cup-product tables lives on the cached CohomologySlice instead
    found = {name: _module_caches(os.path.join(SRC, name))
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    assert {name: caches for name, caches in found.items() if caches} == {
        "cohomology.py": ["_slice_basis_cached", "cohomology_slice", "morse_matching",
                          "partition_count"],
        "linalg.py": ["d_matrix"]}


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python_files():
    for folder in (SRC, os.path.join(ROOT, "tests"), os.path.join(ROOT, "bench")):
        yield from (os.path.join(folder, name) for name in sorted(os.listdir(folder))
                    if name.endswith(".py"))


def _public_definitions(tree):
    """(name, first line, last line) of each public top-level function,
    class and assigned name of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno, node.end_lineno)
                    for name in names if not name.startswith("_"))


def test_every_public_name_is_used():
    # public API that nothing calls and no test exercises is dead weight; a
    # re-export in __init__ is an import, not a use
    definitions, uses = [], {}
    for path in _python_files():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        if os.path.dirname(path) == SRC:
            definitions += [(path, *d) for d in _public_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    unused = [f"{os.path.basename(path)}:{name}" for path, name, first, last in definitions
              if not any(p != path or not first <= line <= last
                         for p, line in uses.get(name, ()))]
    assert unused == []


MATRIX_OPERATIONS = ("mmul", "mbar", "msub", "mdiff")


def test_bianchi_route_shares_no_code_with_the_residual():
    # the identity suites compose dA - bar(A).A from checks.py's own matrix
    # operations, so they check massey's residual by an independent route
    private, defined = [], {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            if name == "checks.py":
                private = [alias.name for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom) and node.module == "massey"
                           for alias in node.names if alias.name.startswith("_")]
            if names := [node.name for node in tree.body
                         if isinstance(node, ast.FunctionDef) and node.name in MATRIX_OPERATIONS]:
                defined[name] = sorted(names)
    assert private == []
    assert defined == {"checks.py": sorted(MATRIX_OPERATIONS)}


def test_massey_products_go_through_the_window_sum():
    # massey.py neither imports nor calls wedge, so every product of
    # connection entries is a window sum of _window_sum
    with open(os.path.join(SRC, "massey.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(a.name == "wedge" for a in node.names)
            or isinstance(node, ast.Name) and node.id == "wedge"
            or isinstance(node, ast.Attribute) and node.attr == "wedge"]
    assert uses == []


def _float_sources(path):
    """Line numbers of every true division (/ or /=) and float constant."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                   or isinstance(node, ast.Constant) and isinstance(node.value, float)})


def test_no_true_division_or_float_literal_in_src():
    # integral coefficients are Python ints, and int / int is a float; exact
    # quotients are written Fraction(a, b)
    found = {name: _float_sources(os.path.join(SRC, name))
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
