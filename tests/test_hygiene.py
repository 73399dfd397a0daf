"""Source hygiene scans (stdlib ast and re only).

No module in src/, tests/, scripts/ or bench/ imports a name it never
reads: an import counts as used when its bound name appears as a name
anywhere in the module or is listed in the module's __all__.

No public name is kept for the tests alone: every name in a package module's
__all__ must be referenced somewhere in src/, scripts/ or bench/ outside its
own definition and outside the __all__ lists.  The package __init__ only
re-exports, so its imports are not references.

No private leftover: every module-level private name in src/ (a _foo
function, class or constant) must be read somewhere in src/, scripts/ or
bench/ outside its own definition.

No module in src/ imports any part of scipy, at module level or inside a
function, outside the two reference routes listed in ODE_EXEMPT.

No program file reads a numpy name that numpy 2.0 added (np.vecdot, ...)
while pyproject.toml promises an older numpy.

Every name the benchmark binds resolves: bench/tracing.py wraps its TARGETS
by name, and the workloads call a few private functions directly.  Its hooks
read: with the tracer installed, one call of each package function it counts
gives every one of that layer's counters a nonzero reading.  The names it
binds that no program code reads are exactly those listed in BENCH_ONLY.
The benchmark's own smoke test lives under bench/, outside the tier-1 suite.
"""

import ast
import importlib
import importlib.util
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))
PROGRAM = sorted(p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py"))

# a string constant that spells a dotted name refers to it (bench/tracing.py
# binds its targets as "module", "Class.method")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _is_all(node) -> bool:
    return (isinstance(node, ast.Assign)
            and "__all__" in [getattr(t, "id", "") for t in node.targets])


def unused_imports(source: str) -> list[tuple[int, str]]:
    imported, used = [], set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", "") != "__future__"):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif _is_all(node):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = ("import math\nimport json as j\nfrom os import path, sep\n"
              "__all__ = ['sep']\nj.dumps(path)\n")
    assert unused_imports(source) == [(1, "math")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def exported(source: str) -> list[str]:
    return [name for node in ast.parse(source).body if _is_all(node)
            for name in ast.literal_eval(node.value)]


def references(source, imports: bool = True) -> set[str]:
    """Names a module (source text) or a node reads: loaded names, attributes,
    imported names (unless imports is False) and dotted-name string constants.
    Docstrings and __all__ do not count, nor does a function's or class's
    mention of its own name."""
    tree = ast.parse(source) if isinstance(source, str) else source
    docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
                  and n.body and isinstance(n.body[0], ast.Expr)
                  and isinstance(n.body[0].value, ast.Constant)}
    refs: set[str] = set()

    def visit(node, owners):
        if _is_all(node):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        names = []
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias) and imports:
            names = node.name.split(".")
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings and _DOTTED.fullmatch(node.value)):
            names = node.value.split(".")
        refs.update(n for n in names if n not in owners)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return refs


def unreferenced_exports(sources: list[str], reexports: list[str] = ()) -> list[str]:
    """Exported names of sources and reexports that no module references; the
    imports of reexports (a package __init__) do not count."""
    refs = set().union(*(references(s) for s in sources),
                       *(references(s, imports=False) for s in reexports))
    return sorted({name for s in [*sources, *reexports] for name in exported(s)} - refs)


def test_scan_finds_an_unreferenced_export():
    # the module docstring spells the unreferenced name; that is no reference
    lib = ('"""helper"""\n__all__ = ["used", "helper", "traced", "Box"]\n'
           "def used(): pass\n"
           "def helper():\n    return helper\n"
           "def traced(): pass\n"
           "class Box:\n    def method(self):\n        return Box\n")
    user = "from lib import used\nTARGET = ('lib', 'traced')\nbox = lib.Box\n"
    assert unreferenced_exports([lib, user]) == ["helper"]
    assert unreferenced_exports([lib]) == ["Box", "helper", "traced", "used"]
    # re-exporting a name is not using it
    facade = "from lib import helper, used\n__all__ = ['helper', 'used']\n"
    assert unreferenced_exports([lib, user], [facade]) == ["helper"]
    assert unreferenced_exports([lib, user, facade]) == []


def test_every_export_has_a_program_reference():
    found = unreferenced_exports([p.read_text() for p in PROGRAM if p.name != "__init__.py"],
                                 [p.read_text() for p in PROGRAM if p.name == "__init__.py"])
    assert found == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(source: str) -> list[str]:
    """Module-level private functions, classes and assigned constants."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if _is_private(name)]


def unread_privates(defining: list[str], readers: list[str]) -> list[str]:
    refs = set().union(*(references(s) for s in readers))
    return sorted({name for s in defining for name in private_definitions(s)} - refs)


def test_scan_finds_an_unread_private_name():
    lib = ("_USED = 1\n_LEFT: float = 2.0\n__version__ = '1'\n"
           "def _helper():\n    return _helper\n"
           "class _Box:\n    pass\n"
           "def public():\n    return _USED + _cached()\n"
           "def _cached():\n    pass\n")
    user = "from lib import _Box\n"
    assert unread_privates([lib], [lib, user]) == ["_LEFT", "_helper"]


def test_every_private_name_is_read_by_the_program():
    src = sorted((ROOT / "src").rglob("*.py"))
    assert unread_privates([p.read_text() for p in src],
                           [p.read_text() for p in PROGRAM]) == []


# Functions of src/ that may import any part of scipy, each with its reason;
# the DOP853 engine, the root polish, the Gauss-Legendre rule and the
# closed form's AGM need none of it.
ODE_EXEMPT = {
    "oracle.solve_ivp": "scipy's solve_ivp itself, with no caller in src/: kept only "
                        "because bench/tracing.py binds it by name",
    "abelian.transport_table": "the dense solve_ivp transport that the tests compare "
                               "continue_paths with",
}

_ODE_MODULES = ("scipy",)


def ode_imports(source: str) -> list[tuple[str, str]]:
    """(enclosing def, imported name) for each import, at module level or in a
    function, of one of _ODE_MODULES or anything inside them."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        found.extend((scope, name) for name in names
                     if any(name == m or name.startswith(m + ".") for m in _ODE_MODULES))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_an_ode_import():
    source = ("import scipy\nimport scipy.integrate\nfrom scipy import optimize, special\n"
              "from scipy.special import elliprf\nfrom . import integrate\n"
              "def f():\n    from scipy.integrate._ivp import rk\n    import numpy\n"
              "class C:\n    def g(self):\n        import scipy.optimize as so\n")
    assert ode_imports(source) == [("<module>", "scipy"),
                                   ("<module>", "scipy.integrate"),
                                   ("<module>", "scipy.optimize"),
                                   ("<module>", "scipy.special"),
                                   ("<module>", "scipy.special.elliprf"),
                                   ("f", "scipy.integrate._ivp.rk"),
                                   ("C.g", "scipy.optimize")]


def test_only_the_reference_routes_import_scipy_integrate_or_optimize():
    found = {f"{path.stem}.{scope}" for path in sorted((ROOT / "src").rglob("*.py"))
             for scope, _ in ode_imports(path.read_text())}
    assert sorted(found - set(ODE_EXEMPT)) == []
    # an exemption whose import has gone is stale
    assert set(ODE_EXEMPT) <= found


# numpy 2.0's new names: the array-API aliases and functions, and np.linalg's
NUMPY_2_NAMES = {"acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype",
                 "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
                 "concat", "cumulative_prod", "cumulative_sum", "isdtype", "matrix_norm",
                 "matrix_transpose", "matvec", "permute_dims", "pow", "trapezoid", "unstack",
                 "vecdot", "vecmat", "vector_norm"}


def numpy_2_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each np.<name> or np.linalg.<name> in NUMPY_2_NAMES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in NUMPY_2_NAMES:
            base = node.value
            base = base.value if isinstance(base, ast.Attribute) and base.attr == "linalg" else base
            if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
                found.append((node.lineno, node.attr))
    return found


def test_scan_finds_a_numpy_2_name():
    source = ("import numpy as np\nnp.vecdot(a, b)\nnp.linalg.vector_norm(a)\n"
              "np.dot(a, b)\nx.astype(float)\n")
    assert numpy_2_names(source) == [(2, "vecdot"), (3, "vector_norm")]


def test_the_program_reads_no_numpy_2_name_below_its_numpy_floor():
    # the tests too: they run against the same numpy floor
    floor = re.search(r'"numpy>=(\d+)', (ROOT / "pyproject.toml").read_text()).group(1)
    found = [f"{path.relative_to(ROOT)}:{line} np.{name}" for path in FILES
             for line, name in numpy_2_names(path.read_text())]
    assert int(floor) >= 2 or found == []


# names bench/workloads.py calls directly, besides the tracer's TARGETS
_BENCH_CALLS = (("zeros", "_real_table"), ("abelian", "_base_values"),
                ("oracle", "displacement_sign"))


def _bench_tracing(monkeypatch):
    """bench/tracing.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
    return tracing


def test_every_name_the_benchmark_binds_resolves(monkeypatch):
    tracing = _bench_tracing(monkeypatch)
    bound = [(t.module, t.attr) for t in tracing.TARGETS] + list(_BENCH_CALLS)
    missing = []
    for module, attr in bound:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_the_benchmark_tracer_hooks_read_what_they_count(monkeypatch):
    # the hooks read arguments (f, s, h, fn, n_scan) and result fields
    # (n_samples, annulus, contour, solutions, s_init) of the functions they wrap
    import numpy as np

    from duffing_melnikov import abelian, quadrature, zeros
    from duffing_melnikov.geometry import Annulus
    from duffing_melnikov.melnikov import MelnikovForm, PerturbationParams

    tracing = _bench_tracing(monkeypatch)
    importlib.import_module(f"{tracing.PACKAGE}.cli")  # install patches every module it binds
    exterior = Annulus.EXTERIOR
    lam, gam = [0.0] * 10, [0.0] * 10
    lam[1], gam[6] = -2.0, 1.0  # M1 = I_2 - 2 I_0, with one real zero near h = 9.1
    params = PerturbationParams(tuple(lam), tuple(gam), (0.0,) * 10, (0.0,) * 10)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the zero at h = -10 sits on the circle, so refinement adds samples
        zeros.winding_count(MelnikovForm(1, Annulus.INTERIOR_RIGHT, (10.0, 1.0), (), ()))
        ((root, _),) = zeros.certify(params, 1, exterior).real_roots
        with np.errstate(divide="ignore", invalid="ignore"):
            zeros.certify(params, 1, exterior, R=root)  # the same on a circle through the root
        zeros.real_zeros(lambda h: h - 0.3, (0.0, 1.0))
        quadrature.integrate_endpoint_sqrt(lambda x, t: np.sqrt(t), 0.0, 1.0)
        quadrature.integrate_smooth(np.cos, 0.0, 1.0)
        quadrature.integrate_path(np.exp, [0.0, 1.0j])
        abelian.transport_table([0.5, 0.5 + 0.2j], exterior).values_at([0.0, 0.5])
        abelian.RealPeriodTable(exterior).values([0.5, 1.0])
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    layers = ("quadrature.integrate_endpoint_sqrt", "quadrature.integrate_smooth",
              "quadrature.integrate_path", "abelian.transport_table",
              "abelian.PathTable.values_at", "abelian.RealPeriodTable.values",
              "zeros.contour_table", "zeros.winding_count", "zeros.certify", "zeros.real_zeros")
    counted = {t.layer: ("calls",) + t.counters for t in tracing.TARGETS if t.layer in layers}
    assert sorted(counted) == sorted(layers)
    assert [f"{layer}.{key}" for layer, keys in counted.items() for key in keys
            if not metrics[f"{layer}.{key}"] > 0] == []


def test_the_real_scan_evaluates_only_the_grid_where_nothing_is_small(monkeypatch):
    # h + 2.0 has no small grid sample and no sign change: the scan reads its
    # 512-point grid and nothing more, not the 2045 levels of the 4x grid
    from duffing_melnikov import zeros

    tracing = _bench_tracing(monkeypatch)
    importlib.import_module(f"{tracing.PACKAGE}.cli")  # install patches every module it binds
    sizes = []
    tracer = tracing.Tracer()
    tracer.install()
    try:
        roots = zeros.real_zeros(lambda h: sizes.append(h.size) or h + 2.0, (0.0, 1.0), n_scan=512)
    finally:
        tracer.uninstall()
    assert roots == [] and sum(sizes) == 512
    metrics = tracer.layer_metrics()
    assert metrics["zeros.real_zeros.samples"] == 512
    assert metrics["zeros.real_zeros.refine_samples"] == 0


# Names the benchmark binds that no top-level definition in src/ outside this
# set reads, each with its reason; they go when the benchmark stops binding
# them, and this set empties.
BENCH_ONLY = {
    "quadrature.integrate_endpoint_sqrt": "one-interval rule; the oval rows run _doubling",
    "quadrature.integrate_smooth": "one-interval rule; the oval rows run _doubling",
    "quadrature.integrate_path": "polyline rule; nothing integrates along a complex path",
    "abelian.oval_integral": "one level of oval_integrals, the quadrature check",
    "abelian._base_values": "the workloads' set-up warms it; i1_slope is exact",
    "abelian.transport_table": "the dense solve_ivp transport the tests compare with",
    "abelian.PathTable": "the record transport_table returns",
    "abelian.RealPeriodTable": "a range-checked closed_form; the root scans read closed_form",
    "oracle.solve_ivp": "scipy's solve_ivp; the flows step the lock-step DOP853",
    "oracle.displacement": "one displacement; melnikov_fit steps its whole ladder in one flow",
    "zeros.winding_count": "a block of one; certificates come from _certify_block",
    "zeros.real_zeros": "the scan of one function; certificates scan in _certify_block",
    "zeros._real_table": "builds a RealPeriodTable",
}

# the command's entry point is read by the console script, not by src/
_ENTRY_POINTS = ("cli.main",)


def bench_only(bound, sources: dict, entry=()) -> set[str]:
    """The "module.name" of each bound "module.attr" (name the first part of
    attr) that no top-level definition of sources ({module: text}) reads,
    imports and __all__ aside, unless that definition is in the result
    itself; entry points are never in it."""
    readers = []  # (defined "module.name" entries, names read), one per statement
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = [getattr(t, "id", "") for t in getattr(node, "targets", [])]
            readers.append(({f"{module}.{n}" for n in names}, references(node)))
    found = {f"{m}.{a.split('.')[0]}" for m, a in (b.split(".", 1) for b in bound)} - set(entry)
    while True:
        read = set().union(*(refs for defined, refs in readers if not defined & found))
        kept = {name for name in found if name.split(".", 1)[1] not in read}
        if kept == found:
            return found
        found = kept


def test_scan_finds_names_only_the_benchmark_reaches():
    lib = ('"""traced and helper"""\n__all__ = ["run", "traced"]\n'
           "import os\n"
           "def run():\n    return helper()\n"
           "def helper():\n    return os.sep\n"
           "def traced():\n    return Table().values()\n"
           "class Table:\n    def values(self):\n        return Table\n"
           "def main():\n    return run()\n"
           "LIMIT = 2\n")
    user = "from lib import traced\nSCALE = 2 * LIMIT\n"
    bound = ["lib.run", "lib.helper", "lib.traced", "lib.Table.values", "lib.main", "lib.LIMIT"]
    # run is read by the entry point, helper only by run: neither is in;
    # Table is read only by traced, which is, and traced only by an import
    assert bench_only(bound, {"lib": lib, "user": user}, ["lib.main"]) == {
        "lib.traced", "lib.Table"}
    assert bench_only(bound, {"lib": lib}, ["lib.main"]) == {"lib.traced", "lib.Table",
                                                             "lib.LIMIT"}
    assert bench_only(bound, {"lib": lib}) == set(bound) - {"lib.Table.values"} | {"lib.Table"}


def test_the_names_only_the_benchmark_reaches_are_listed(monkeypatch):
    tracing = _bench_tracing(monkeypatch)
    bound = [f"{t.module}.{t.attr}" for t in tracing.TARGETS] + [
        f"{module}.{attr}" for module, attr in _BENCH_CALLS]
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}
    assert bench_only(bound, sources, _ENTRY_POINTS) == set(BENCH_ONLY)
