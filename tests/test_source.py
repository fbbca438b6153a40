"""Static checks on the package source."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: every module of the package source tree, whichever copy is imported
SOURCES = sorted((REPO / "src" / "neumannlab").rglob("*.py"))


def test_no_assert_statements():
    # checks must survive python -O: raise a typed NeumannLabError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


#: files whose references make a package name used: the package modules
#: (re-exports in __init__ do not count), the benchmark, and the acceptance
#: gate, which takes no fixture from conftest; the unit tests and their
#: fixtures do not count
CALLER_FILES = (
    [path for path in SOURCES if path.name != "__init__.py"]
    + sorted((REPO / "perfbench").glob("*.py"))
    + [REPO / "tests" / "test_acceptance.py"]
)


def _stored(targets):
    """(name, line) of each variable that the assignment targets bind."""
    for target in targets:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                yield node.id, node.lineno


def _public_names(tree):
    """(name, line, member) of the top-level functions, classes and constants
    (member False), and of the methods, dataclass fields and instance
    attributes (``self.name = ...``) of those classes (member True); private
    names included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, False
        elif isinstance(node, ast.Assign):
            yield from ((*name, False) for name in _stored(node.targets))
        elif isinstance(node, ast.AnnAssign):
            yield from ((*name, False) for name in _stored([node.target]))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno, True
                    yield from (
                        (sub.attr, sub.lineno, True)
                        for sub in ast.walk(item)
                        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and getattr(sub.value, "id", None) == "self"
                    )
                elif isinstance(item, ast.AnnAssign):
                    yield from ((*name, True) for name in _stored([item.target]))


def _referenced(tree):
    """Names read (not assigned) as a variable or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _member_uses(tree):
    """Names read as an attribute or passed as a keyword: the uses of a
    method, field or attribute.  A variable of the same name is not one."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
    return names


def test_public_names_have_callers():
    # a public function, class, method, constant, field or attribute that only
    # its own unit tests use is surface to delete, not to keep
    used, members = set(), set()
    for path in CALLER_FILES:
        tree = ast.parse(path.read_text())
        used |= _referenced(tree)
        members |= _member_uses(tree)
    unused = [
        f"{path.name}:{lineno} {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name, lineno, member in _public_names(ast.parse(path.read_text()))
        if not name.startswith("_") and name not in (members if member else used)
    ]
    assert not unused, unused


#: parameters that describe an operator, which a NeumannSolver already fixes
_OPERATOR_SPEC = ("mesh", "fld", "config")


def test_solver_or_its_spec_never_both():
    # a function given both a solver and what it was built from would have to
    # check that they agree; a run's solver is its operator
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if "solver" in names and names & set(_OPERATOR_SPEC):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert SOURCES and not found, found


def _defaulted_params(tree):
    """(function, parameter, position or None) of each defaulted parameter of a
    public module-level function; keyword-only parameters have no position."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            for i in range(len(positional) - len(args.defaults), len(positional)):
                yield node.name, positional[i].arg, i
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _passed_arguments():
    """function -> [largest positional count, keywords] over the calls in
    CALLER_FILES.  ``from ... import f as g`` makes a call of g a call of f; a
    call with *args passes every position, and one with **kwargs (keyword
    None) every keyword."""
    passed = {}
    for path in CALLER_FILES:
        tree = ast.parse(path.read_text())
        alias = {
            a.asname: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                entry = passed.setdefault(alias.get(name, name), [0, set()])
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                entry[0] = max(entry[0], float("inf") if starred else len(node.args))
                entry[1] |= {kw.arg for kw in node.keywords}
    return passed


def test_defaulted_parameters_have_callers():
    # a default that no caller overrides is an option nothing exercises; the
    # command-line entry point's argv is passed by the interpreter
    passed = _passed_arguments()
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for func, param, pos in _defaulted_params(ast.parse(path.read_text())):
            count, keywords = passed.get(func, (0, set()))
            if (path.name, func) == ("cli.py", "main") or keywords & {param, None}:
                continue
            if pos is None or count <= pos:
                unused.append(f"{path.name} {func}({param})")
    assert not unused, unused


def test_no_dense_lu_solves():
    # scipy.linalg.lu_solve (LAPACK getrs) returned wrong columns when worker
    # threads solved on one shared factor, as the kernel set's workers do
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        imported = {a.name.rsplit(".", 1)[-1] for a in ast.walk(tree) if isinstance(a, ast.alias)}
        found += [f"{path.name} {name}" for name in ("lu_factor", "lu_solve")
                  if name in _referenced(tree) | imported]
    assert SOURCES and not found, found


def _einsum_is_scalar(subscripts):
    """Whether an einsum's output has no index: nothing after "->", or in
    implicit mode no index that appears once and no broadcast "..."."""
    if "->" in subscripts:
        return not subscripts.split("->")[1].strip()
    letters = subscripts.replace(",", "").replace(" ", "")
    return "..." not in letters and all(letters.count(c) > 1 for c in letters)


def test_no_einsum_reduces_to_a_scalar():
    # np.einsum sums in its operands' memory order, so a scalar einsum's bits
    # follow a layout; a reduction goes through discretize.ordered_sum instead
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"):
                continue
            spec = node.args[0] if node.args else None
            if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)):
                found.append(f"{path.name}:{node.lineno} subscripts not a string literal")
            elif _einsum_is_scalar(spec.value):
                found.append(f"{path.name}:{node.lineno} {spec.value!r}")
    assert SOURCES and not found, found


#: the Krylov solvers of scipy.sparse.linalg
KRYLOV = ("bicg", "bicgstab", "cg", "cgs", "gcrotmk", "gmres", "lgmres", "lsmr", "lsqr", "minres",
          "qmr", "tfqmr")


def test_one_krylov_driver():
    # perfbench's tracer wraps spla.cg to report solve.krylov_s and
    # solve.krylov_iterations; a Krylov loop of the package's own (ROADMAP
    # item 4) must port that trace first, or CG drops out of it
    drivers, found = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] in KRYLOV:
                found.append(f"{path.name} imports {node.name}")
            elif isinstance(node, ast.Attribute) and node.attr in KRYLOV:
                is_driver = (path.name, node.attr, getattr(node.value, "id", None)) == (
                    "solve.py", "cg", "spla") and id(node) in called
                (drivers if is_driver else found).append(f"{path.name}:{node.lineno} {node.attr}")
    assert len(drivers) == 1 and not found, (
        f"solve.py must reach scipy's Krylov code through one spla.cg call, which "
        f"perfbench's tracer wraps; ROADMAP item 4 must port that trace first: {drivers + found}"
    )
