"""The import layering of `tauforge`, read from the source with `ast`.

Module-level imports between `tauforge` modules form no cycle.  A
function-level import may point back up that graph, to a module that
imports the caller's module, only where it is listed in `UPWARD`: each one
is an import at call time that a module-level import would turn into a
cycle.

The monomial representation has one home: no module but `polyring` reads
the keys of `Poly.nums`, builds a `Poly` from raw storage or touches the
packed key layout.  Other modules build keys with `VariableTable.encode`
and polynomials from them with `Poly.from_numerators`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "tauforge"

# (importing module, imported module) for each import at call time that
# points back up the module-level graph
UPWARD = {
    ("polyring", "schur"),  # TimeFamily.h builds its generators with the Schur builder
    ("schur", "fock"),  # the Schur builder reads its characters from the current tree
}


# attributes that reach into a `Poly`'s storage or the packed key layout,
# and the name of the tuple key type
STORAGE_ATTRIBUTES = {
    "nums", "_reduced", "_set", "_buckets", "_buckets_by", "_sorted_nums", "_derive",
    "units", "shifts", "guards", "grading_shifts", "_bounds", "_fields", "_name_fields",
}
STORAGE_NAMES = {"MonomialKey", "_merge_cutoffs"}


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
