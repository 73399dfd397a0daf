"""Source hygiene scans (stdlib ast and re only).

No module in src/ or tests/ imports a name it never reads: an import counts
as used when its bound name appears as a name anywhere in the module or is
listed in the module's __all__.

No public name is kept for the tests alone: every name in a package module's
__all__ must be referenced somewhere in src/, scripts/ or bench/ outside its
own definition and outside the __all__ lists.  The package __init__ only
re-exports, so its imports are not references.

No private leftover: every module-level private name in src/ (a _foo
function, class or constant) must be read somewhere in src/, scripts/ or
bench/ outside its own definition.

No module in src/ imports scipy.integrate or scipy.optimize, at module level
or inside a function, outside the two reference routes listed in ODE_EXEMPT.

Every name the benchmark binds resolves: bench/tracing.py wraps its TARGETS
by name, and the workloads call a few private functions directly.  Its hooks
read: with the tracer installed, one call of each package function it counts
gives every one of that layer's counters a nonzero reading.  The benchmark's
own smoke test lives under bench/, outside the tier-1 suite.
"""

import ast
import importlib
import importlib.util
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
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


def references(source: str, imports: bool = True) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names (unless
    imports is False) and dotted-name string constants.  Docstrings and
    __all__ do not count, nor does a function's or class's mention of its own
    name."""
    tree = ast.parse(source)
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


# Functions of src/ that may import scipy.integrate, scipy.optimize,
# scipy.special or scipy.linalg, each with its reason; the DOP853 engine, the
# root polish and the Gauss-Legendre rule need none of them.
ODE_EXEMPT = {
    "oracle.solve_ivp": "scipy's solve_ivp itself, with no caller in src/: kept only "
                        "because bench/tracing.py binds it by name",
    "abelian.transport_table": "the dense solve_ivp transport that the tests compare "
                               "continue_paths with",
    "abelian.closed_form": "Carlson's R_F and R_D, the one use of scipy.special",
}

_ODE_MODULES = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg")


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
    source = ("import scipy.integrate\nfrom scipy import optimize, special\n"
              "from scipy.special import elliprf\nfrom . import integrate\n"
              "def f():\n    from scipy.integrate._ivp import rk\n    import numpy\n"
              "class C:\n    def g(self):\n        import scipy.optimize as so\n")
    assert ode_imports(source) == [("<module>", "scipy.integrate"),
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


# names bench/workloads.py calls directly, besides the tracer's TARGETS
_BENCH_CALLS = (("zeros", "_real_table"), ("abelian", "_base_values"),
                ("oracle", "displacement_sign"))


def test_every_name_the_benchmark_binds_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
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

    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look their module up
    spec.loader.exec_module(tracing)
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
