"""The import layering of `tauforge`, read from the source with `ast`.

Module-level imports between `tauforge` modules form no cycle.  A
function-level import may point back up that graph, to a module that
imports the caller's module, only where it is listed in `UPWARD`: each one
is an import at call time that a module-level import would turn into a
cycle.  Any other function-level `tauforge` import is listed in `LAZY` with
its reason; the rest belong at module level.

Every module-level memo is listed in `MEMOS` with what it holds, so a new
global cache shows up here.  Every underscore name that one module imports
from another is listed in `PRIVATE_IMPORTS` with its reason, so a new
reach-in past a module's public names shows up here too.

The monomial representation has one home: no module but `polyring` reads
the keys of `Poly.nums`, builds a `Poly` from raw storage or touches the
packed key layout.  Other modules build keys with `VariableTable.encode`
and polynomials from them with `Poly.from_numerators`.

The point-field mode rules have one home too: only `wick` defines or
reads `field_mode`, `point_power` and `_falling`.  So has the letter
format: `fock.Letter` is the one letter type, its terms (coeff, kind, at)
with `at` an int mode or a (point, order) pair, so no module defines
another letter or term type, and no tuple is tagged "mode", "field" or
"letter".

The benchmark harness under `perfbench/` calls `tauforge` by name, and its
tracer wraps named entry points in their home modules; every such name must
still exist, so a deletion the benchmark needs fails here.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "tauforge"
PERFBENCH = ROOT / "perfbench"

# (importing module, imported module) for each import at call time that
# points back up the module-level graph
UPWARD = {
    ("polyring", "schur"),  # TimeFamily.h builds its generators with the Schur builder
    ("schur", "fock"),  # the Schur builder reads its functions off a bra raised by the current tree
}

# every module-level memo, "module.name", with what it holds: a name bound to
# an empty dict, set or list, or a function under `cache` or `lru_cache`
MEMOS = {
    "schur._schur_cache": "every Schur-family polynomial, filled a raised bra at a time",
    "partitions._enumerate_cached": "the partitions enumerated at each weight and bounds",
    "cli._parser": "the argument parser, built once per process",
    "polyring._families": "every standard time family, built once per set of arguments",
}

# (importing module, imported module) for each import at call time that a
# module-level import would not turn into a cycle, with the reason it waits
LAZY = {
    ("cli", "models"): "only `model` needs it: `expand` and `verify` never load `models`",
}

# (importing module, imported module, name) for each underscore name that
# one module imports from another, with the reason it crosses the boundary
_SUM = "a running sum of polynomials added in place"
PRIVATE_IMPORTS = {
    ("boson", "fock", "_add_into"): "the current series adds into the tree's per-level sums",
    ("boson", "fock", "_current_tree"): "the current series walks the current exponential's tree",
    ("boson", "fock", "_weight"): "the current expansion sizes its budget by shape weights",
    ("fock", "polyring", "_Sum"): _SUM,
    ("fock", "schur", "_schur_poly"): "skew Schur functions at a rational scale",
    ("grouplike", "fock", "_check_bits_window"): "an ordered diagonal checks each state's window",
    ("grouplike", "fock", "_occupied"): "diagonal multipliers and the minor screen read one bit",
    ("grouplike", "fock", "_outside_window"): "the exchange check reads every mode when g|V> spills",
    ("grouplike", "fock", "_words_into"): "each minor's mode word runs on a state group's bits",
    ("models", "polyring", "_Sum"): _SUM,
    ("models", "wick", "_field_field_kernel"): "the soliton kernel entry is the two-point kernel",
    ("polyring", "schur", "_schur_poly"): "TimeFamily.h is the one-row Schur function at a sign",
    ("schur", "fock", "_state_of_bits"): "the raised bra's bit states name their shapes",
    ("tau", "fock", "_check_state_window"): "a one-shape read checks its shape against the window",
    ("tau", "fock", "_state_of_bits"): "a ket's bit states name their shapes",
    ("wick", "polyring", "_Sum"): _SUM,
}


# attributes that reach into a `Poly`'s storage or the packed key layout,
# and the name of the tuple key type
STORAGE_ATTRIBUTES = {
    "nums", "_reduced", "_set", "_buckets", "_buckets_by", "_sorted_nums", "_derive",
    "units", "shifts", "guards", "grading_shifts", "_bounds", "_fields", "_name_chunks",
}
STORAGE_NAMES = {"MonomialKey", "_merge_cutoffs"}

# the mode rules of a point field psi(z) = sum_k psi_k z^k, kept in `wick`
POINT_FIELD_RULES = {"field_mode", "point_power", "_falling"}


def imported(node):
    """The `tauforge` modules an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return set()
    return {n.split(".")[1] for n in names if n.startswith("tauforge.") and n.count(".") == 1}


def import_graphs():
    """(module-level graph, function-level graph) over the package's modules,
    each {module: {modules it imports}}."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    top, inner = {m: set() for m in modules}, {m: set() for m in modules}
    for m in modules:
        tree = ast.parse((PACKAGE / f"{m}.py").read_text())
        for node in tree.body:
            top[m] |= imported(node) & modules
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(node):
                    inner[m] |= imported(sub) & modules
    return top, inner


def reaches(graph, start, goal):
    seen, todo = set(), [start]
    while todo:
        m = todo.pop()
        if m == goal:
            return True
        if m not in seen:
            seen.add(m)
            todo.extend(graph[m])
    return False


def test_module_level_imports_form_no_cycle():
    top, _ = import_graphs()
    for m, targets in top.items():
        for t in targets:
            assert not reaches(top, t, m), f"module-level cycle through {m} -> {t}"


def test_only_listed_imports_point_back_up():
    top, inner = import_graphs()
    upward = {(m, t) for m, targets in inner.items() for t in targets if reaches(top, t, m)}
    assert upward == UPWARD


def test_function_level_imports_are_listed():
    _, inner = import_graphs()
    found = {(m, t) for m, targets in inner.items() for t in targets}
    assert found == UPWARD | LAZY.keys()


def test_private_imports_are_listed():
    found = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                source = node.module.removeprefix("tauforge.")
                if source != node.module and "." not in source:
                    found |= {
                        (path.stem, source, a.name) for a in node.names if a.name.startswith("_")
                    }
    assert found == PRIVATE_IMPORTS.keys()


def test_schur_imports_on_its_own():
    """A fresh interpreter that imports only `tauforge.schur` can build a
    Schur function: the import at call time finds `fock` loadable."""
    code = (
        "import tauforge.schur as s\n"
        "from tauforge.partitions import Partition\n"
        "from tauforge.polyring import standard_single_family\n"
        "print(s.schur_jt(standard_single_family(3), Partition([2, 1])).terms[((0, 3),)])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1/3"


def test_only_polyring_touches_monomial_storage():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "polyring":
            continue
        found = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRIBUTES:
                found.add(f"line {node.lineno}: .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in STORAGE_NAMES:
                found.add(f"line {node.lineno}: {node.id}")
            elif isinstance(node, ast.alias) and node.name in STORAGE_NAMES:
                found.add(f"import of {node.name}")
        assert not found, f"{path.stem} reaches into Poly storage: {sorted(found)}"


def test_point_field_mode_rules_live_in_wick():
    """How a point field acts on the modes has one home: `field_mode`,
    `point_power` and `_falling` are defined in `wick` and imported by no
    other module, so no second route can cut psi(z) to a window."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name in POINT_FIELD_RULES:
                found.add(f"{path.stem} defines {node.name}")
            elif isinstance(node, ast.alias) and node.name in POINT_FIELD_RULES:
                found.add(f"{path.stem} imports {node.name}")
    assert found == {f"wick defines {name}" for name in POINT_FIELD_RULES}


def test_one_letter_format():
    """Mode and field letters share `fock.Letter`: no module but `fock`
    defines a name ending in Letter or Term at module level, and no tuple
    literal in the package starts with a "mode", "field" or "letter" tag."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.AnnAssign, ast.ClassDef)):
                names = [getattr(node, "name", None) or ast.unparse(node.target)]
            else:
                names = []
            found |= {
                f"{path.stem} defines {name}" for name in names if name.endswith(("Letter", "Term"))
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.Tuple) and node.elts:
                head = node.elts[0]
                if isinstance(head, ast.Constant) and head.value in ("mode", "field", "letter"):
                    found.add(f"{path.stem} line {node.lineno}: a {head.value!r} tuple")
    assert found == {"fock defines Letter"}


def empty_container(value) -> bool:
    """Whether an expression is an empty dict, set or list: a literal or a
    bare constructor call."""
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "set", "list")
        and not value.args
        and not value.keywords
    )


def module_memos(path):
    """The module-level memos of a module, as "module.name": names bound to
    an empty container, and functions decorated with `cache` or `lru_cache`."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and empty_container(node.value):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and node.value and empty_container(node.value):
            names = [node.target.id] if isinstance(node.target, ast.Name) else []
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            cached = any(ast.unparse(d).split(".")[-1] in ("cache", "lru_cache") for d in decorators)
            names = [node.name] if cached else []
        else:
            names = []
        found |= {f"{path.stem}.{name}" for name in names}
    return found


def test_module_level_memos_are_listed():
    found = set().union(*(module_memos(path) for path in PACKAGE.glob("*.py")))
    assert found == MEMOS.keys()


def perfbench_reads(path) -> set[tuple[str, str]]:
    """(module, attribute) for every `tauforge` module attribute a script
    reads: `module.name` or `self.module.name` on a module it imports with
    `from tauforge import ...`."""
    tree = ast.parse(path.read_text())
    modules = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tauforge"
        for a in node.names
    }
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name):
            module = owner.id
        elif isinstance(owner, ast.Attribute) and ast.unparse(owner.value) == "self":
            module = owner.attr
        else:
            continue
        if module in modules:
            found.add((module, node.attr))
    return found


def test_names_the_benchmark_needs_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises on a planned name missing from its home module
        assert tracer._patched
    finally:
        tracer.uninstall()
    assert not tracer._patched
    reads = perfbench_reads(PERFBENCH / "worker.py") | perfbench_reads(PERFBENCH / "references.py")
    assert len(reads) >= 20  # the scripts' reads were found at all
    missing = [
        f"{m}.{name}"
        for m, name in sorted(reads)
        if not hasattr(importlib.import_module(f"tauforge.{m}"), name)
    ]
    assert not missing, f"perfbench reads names tauforge no longer has: {missing}"
