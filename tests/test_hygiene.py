"""Source hygiene: no module in the package or the tests imports a name it
never uses, imports inside a function from a module it already imports
from at the top, or defines a function (test or fixture included) taking a
parameter it never reads, and the package defines nothing, class fields
included, that the package, the tests and the benchmark never read, nor a
keyword or dataclass field default that all their calls set to one value.
A stdlib `ast` scan, so no linter is needed.  The package imports none of
scipy's optimize, interpolate, integrate and special subpackages at module
level, imports scipy.interpolate only in `make_profile`'s tabulated branch,
and a fresh process that runs both fixtures loads none of them.  A fresh
process that imports rtspect, makes a Pipeline and runs the Evans oracle
loads no scipy at all, and every exported name resolves where it is
defined, the lazily bound ones included."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import rtspect
from rtspect import pipeline

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def _unused_parameters(path):
    """(line, function, parameter) for every parameter its body never reads;
    `self`, `cls` and `_`-prefixed names are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        used = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found += [(node.lineno, getattr(node, "name", "<lambda>"), p.arg)
                  for p in params
                  if p.arg not in used and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return sorted(found)


def _modules():
    for top in (ROOT / "src" / "rtspect", ROOT / "tests"):
        for path in sorted(top.glob("*.py")):
            if path.name != "__init__.py":    # re-exports
                yield path


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in _modules() for line, name in _unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_scan_flags_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from __future__ import annotations\n"
                   "import os\nimport numpy as np\nfrom math import pi, tau\n"
                   "x = np.linalg.norm(pi)\n")
    assert _unused_imports(src) == [(2, "os"), (4, "tau")]


def test_no_unused_parameters():
    found = [f"{path.relative_to(ROOT)}:{line}: {func}({name})"
             for path in _modules()
             for line, func, name in _unused_parameters(path)]
    assert not found, "unused parameters:\n" + "\n".join(found)


def test_scan_flags_an_unused_parameter(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("class C:\n"
                   "    def f(self, a, b, _c, *args, d=1, **kw):\n"
                   "        return a + kw['x']\n"
                   "    @classmethod\n"
                   "    def g(cls, e):\n"
                   "        def h(y=e):\n"
                   "            return y\n"
                   "        return h\n"
                   "key = lambda u, v: u\n")
    assert _unused_parameters(src) == [
        (2, "f", "args"), (2, "f", "b"), (2, "f", "d"), (9, "<lambda>", "v")]


def _redundant_local_imports(path):
    """(line, module) of every relative import inside a function from a
    module that the file already imports from at module level."""
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {(n.level, n.module) for n in tree.body
           if isinstance(n, ast.ImportFrom) and n.level}
    return sorted({(n.lineno, "." * n.level + (n.module or ""))
                   for f in ast.walk(tree)
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for n in ast.walk(f) if isinstance(n, ast.ImportFrom)
                   and (n.level, n.module) in top})


def test_no_redundant_local_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {module}"
             for path in _modules()
             for line, module in _redundant_local_imports(path)]
    assert not found, "local imports of modules imported at the top:\n" + \
        "\n".join(found)


def test_scan_flags_a_redundant_local_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nfrom .a import x\n\n\n"
                   "def f():\n    from .a import y\n    from .b import z\n"
                   "    import os.path\n\n"
                   "    def g():\n        from .a import w\n"
                   "        return w\n"
                   "    return x, y, z, os.path, g\n")
    assert _redundant_local_imports(src) == [(6, ".a"), (11, ".a")]


def _span_tables():
    """perfbench/spans.py's FUNCTIONS and METHODS, read with `ast`, so
    nothing under perfbench/ runs."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            and node.targets[0].id in ("FUNCTIONS", "METHODS")}


def test_benchmark_hooks_resolve():
    # the traced benchmark run wraps these names from outside the package;
    # a refactor that moves one would otherwise break that run silently
    tables = _span_tables()
    assert tables["FUNCTIONS"] and tables["METHODS"]
    missing = [f"{mod}.{attr}" for mod, attr, _ in tables["FUNCTIONS"]
               if not hasattr(importlib.import_module(mod), attr)]
    missing += [f"{mod}.{cls}.{meth}" for mod, cls, meth in tables["METHODS"]
                if meth not in vars(getattr(importlib.import_module(mod), cls))]
    # a function is wrapped at the attribute its callers look up, so the
    # module it is wrapped in must read that name as a variable, or the
    # span never opens
    missing += [f"{mod}.{attr} (not read there)"
                for mod, attr, _ in tables["FUNCTIONS"]
                if attr not in _reads(pathlib.Path(
                    importlib.import_module(mod).__file__))[0]]
    assert not missing, "benchmark hooks that do not resolve:\n" + \
        "\n".join(missing)


def _definitions(path):
    """(line, name, member) of every module-level function, class and
    constant (member False) and every method and annotated field (a
    dataclass field) of its classes (member True); dunder names are
    exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found += [(t.lineno, t.id, False) for t in targets
                      if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(f.lineno, f.name, True) for f in node.body
                      if isinstance(f, ast.FunctionDef)]
            found += [(f.lineno, f.target.id, True) for f in node.body
                      if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name)]
    return [d for d in found
            if not (d[1].startswith("__") and d[1].endswith("__"))]


def _reads(path):
    """The names a module reads as variables, and those it reads as
    attributes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)},
            {n.attr for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)})


def _unread_definitions(sources, readers):
    """Definitions that no reader reads; a class member counts as read only
    when it is read as an attribute, so a local variable of the same name
    does not hide it."""
    names, attrs = (set().union(*s) for s in zip(*map(_reads, readers)))
    return sorted((path, line, name) for path in sources
                  for line, name, member in _definitions(path)
                  if name not in (attrs if member else names | attrs))


def test_every_definition_is_read():
    # a name defined in the package and read nowhere in the package, the
    # tests or the benchmark is a leftover; the re-exports in __init__.py
    # are imports, not reads
    readers = [path for top in ("src/rtspect", "tests", "perfbench")
               for path in sorted((ROOT / top).glob("*.py"))]
    sources = [path for path in _modules() if path.parent.name == "rtspect"]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path, line, name in _unread_definitions(sources, readers)]
    assert not found, "definitions nothing reads:\n" + "\n".join(found)


def test_scan_flags_an_unread_definition(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("LIMIT = 3\nUNUSED = 4\n\n\n"
                   "def used():\n    return LIMIT\n\n\n"
                   "def unused():\n    pass\n\n\n"
                   "class C:\n    def __init__(self):\n        self.x = 1\n\n"
                   "    def run(self):\n        return used()\n\n"
                   "    def idle(self):\n        pass\n\n\n"
                   "class D:\n    read: int\n    unread: float = 0.0\n"
                   "    hidden: float = 1.0\n")
    user = tmp_path / "t.py"
    user.write_text("import m\nm.C().run()\nprint(m.D(1).read)\n"
                    "hidden = 2.0\nprint(hidden)\n")
    assert _unread_definitions([src], [src, user]) == [
        (src, 2, "UNUSED"), (src, 9, "unused"), (src, 20, "idle"),
        (src, 26, "unread"), (src, 27, "hidden")]


_VARIES = object()      # an argument that is not a literal


def _literal(node):
    """The literal an expression is, as its repr, or _VARIES."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return _VARIES


def _signature(fn, skip):
    """(positional [(name, default)], keyword-only [(name, default)],
    takes **kwargs) of a function without its first `skip` parameters;
    a default is None when there is none."""
    a = fn.args
    positional = a.posonlyargs + a.args
    defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
    return ([(p.arg, d) for p, d in zip(positional, defaults)][skip:],
            [(p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)],
            a.kwarg is not None)


def _keyword_definitions(path):
    """(line, name, positional, keyword-only, takes **kwargs, is fields) of
    every module-level function, method and class of a module: a dataclass
    by its fields, another class by its __init__; a method's first
    parameter is its instance."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found.append((node.lineno, node.name, *_signature(node, 0), False))
        if not isinstance(node, ast.ClassDef):
            continue
        if any(ast.unparse(getattr(d, "func", d)).endswith("dataclass")
               for d in node.decorator_list):
            fields = [(f.target.id, f.value) for f in node.body
                      if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name)]
            found.append((node.lineno, node.name, fields, [], False, True))
        for f in node.body:
            if not isinstance(f, ast.FunctionDef):
                continue
            if f.name == "__init__":
                found.append((node.lineno, node.name, *_signature(f, 1),
                              False))
            elif not (f.name.startswith("__") and f.name.endswith("__")):
                found.append((f.lineno, f.name, *_signature(f, 1), False))
    return found


def _given(call, positional, keyword_only, kwargs):
    """{parameter: argument} of a call bound to a signature, or None when
    the call forwards *args or **kwargs or does not fit it (a call of
    another function of the same name)."""
    names = [p for p, _ in positional]
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)
            or len(call.args) > len(names)):
        return None
    given = dict(zip(names, call.args))
    known = set(names) | {p for p, _ in keyword_only}
    for k in call.keywords:
        if (k.arg not in known and not kwargs) or k.arg in given:
            return None
        given[k.arg] = k.value
    return given


def _one_value_keywords(sources, callers):
    """(path, line, name, parameter, literal) of every keyword parameter,
    and every dataclass field with a default, of the sources' functions
    and classes that all calls in the callers, and at least one, give the
    same literal; a call that omits it gives its default.  Calls match by
    name, and a call that forwards *args or **kwargs tells nothing.  A
    field that the callers assign as an attribute varies."""
    calls, stores = {}, set()
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", ""))
                calls.setdefault(name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                stores |= {t.attr for t in targets
                           if isinstance(t, ast.Attribute)}
    found = []
    for path in sources:
        for line, name, positional, keyword_only, kwargs, fields in \
                _keyword_definitions(path):
            defaults = {p: d for p, d in positional + keyword_only
                        if d is not None}
            bound = [g for g in (_given(call, positional, keyword_only,
                                        kwargs)
                                 for call in calls.get(name, ()))
                     if g is not None]
            for param, default in defaults.items():
                values = {_literal(g.get(param, default)) for g in bound}
                if fields and param in stores:
                    values.add(_VARIES)
                if len(values) == 1 and _VARIES not in values:
                    found.append((path, line, name, param, *values))
    return sorted(found)


def test_no_one_value_keywords():
    # a keyword that every call in the package, the tests and the
    # benchmark sets to one value is a knob that nothing turns
    sources = [path for path in _modules() if path.parent.name == "rtspect"]
    callers = [path for top in ("src/rtspect", "tests", "perfbench")
               for path in sorted((ROOT / top).glob("*.py"))]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}({param}={value})"
             for path, line, name, param, value in
             _one_value_keywords(sources, callers)]
    assert not found, "keywords that every call gives one value:\n" + \
        "\n".join(found)


def test_scan_flags_a_one_value_keyword(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(textwrap.dedent("""\
        from dataclasses import dataclass, field


        def f(x, mode="a", tol=1e-3, *, flag=False):
            return x


        def idle(x, mode="a"):
            return x


        def g(x, mode=None, **kw):
            return x, kw


        class C:
            def __init__(self, size=2):
                self.size = size

            def run(self, step=1.0):
                return step


        @dataclass
        class D:
            n: int = 4
            m: int = 2
            k: int = 1
            xs: list = field(default_factory=list)


        f(1)
        f(2, "a", flag=False)
        f(3, tol=1e-6)
        f(*[4], tol=1.0)
        g(1, mode=-1.0)
        g(2, mode=-1.0, extra=3)
        C(size=2).run(step=0.5)
        C().run(step=len([]))
        D(m=3)
        d = D()
        d.k = 5
        """))
    assert [found[1:] for found in _one_value_keywords([src], [src])] == [
        (4, "f", "flag", "False"), (4, "f", "mode", "'a'"),
        (12, "g", "mode", "-1.0"), (16, "C", "size", "2"), (25, "D", "n", "4")]


# scipy subpackages the solve path does without; importing any of them
# costs about 0.2 s and 23 MiB at start-up
_UNUSED_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.integrate",
                 "scipy.special")


def _scipy_imports(path):
    """(line, package, function, branch) of every import of an
    `_UNUSED_SCIPY` package in the module, at any depth: the innermost
    enclosing function ("" outside any) and the test of the innermost `if`
    branch that holds it ("" in none, "not <test>" in an else branch)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()

    def visit(nodes, func, branch):
        for node in nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                names = []
            found.update((node.lineno, pkg, func, branch) for name in names
                         for pkg in _UNUSED_SCIPY
                         if name == pkg or name.startswith(pkg + "."))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, node.name, "")
            elif isinstance(node, ast.If):
                visit(node.body, func, ast.unparse(node.test))
                visit(node.orelse, func, f"not {ast.unparse(node.test)}")
            else:
                visit(ast.iter_child_nodes(node), func, branch)

    visit(tree.body, "", "")
    return sorted(found)


def _module_level_scipy_imports(path):
    """(line, package) of every import of an `_UNUSED_SCIPY` package that
    runs when the module is imported: any outside a function body."""
    return [(line, pkg) for line, pkg, func, _ in _scipy_imports(path)
            if not func]


def test_no_module_level_import_of_unused_scipy():
    found = [f"{path.relative_to(ROOT)}:{line}: {pkg}"
             for path in sorted((ROOT / "src" / "rtspect").glob("*.py"))
             for line, pkg in _module_level_scipy_imports(path)]
    assert not found, "module-level imports of " + ", ".join(_UNUSED_SCIPY) \
        + ":\n" + "\n".join(found)


def test_scan_flags_a_module_level_scipy_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import scipy.optimize\nfrom scipy import integrate\n"
                   "from scipy.interpolate import CubicSpline\n"
                   "from scipy.linalg import eigh\n"
                   "import scipy.special as sp\n"
                   "def f():\n    from scipy.optimize import brentq\n"
                   "    return brentq\n"
                   "class C:\n    from scipy.special import gamma\n")
    assert _module_level_scipy_imports(src) == [
        (1, "scipy.optimize"), (2, "scipy.integrate"),
        (3, "scipy.interpolate"), (5, "scipy.special"), (10, "scipy.special")]


def test_scipy_interpolate_only_for_tabulated_profiles():
    # the PCHIP interpolant of a tabulated profile is the one use; modes,
    # tails and envelopes share the package's Hermite evaluator
    found = {(path.name, func, branch)
             for path in (ROOT / "src" / "rtspect").glob("*.py")
             for _, pkg, func, branch in _scipy_imports(path)
             if pkg == "scipy.interpolate"}
    assert found <= {("profiles.py", "make_profile",
                      "family == 'tabulated'")}, found


def test_scan_names_function_and_branch_of_a_scipy_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import scipy.interpolate\n"
                   "def make_profile(family):\n"
                   "    if family == 'tabulated':\n"
                   "        from scipy.interpolate import PchipInterpolator\n"
                   "    else:\n"
                   "        from scipy import interpolate\n"
                   "    try:\n"
                   "        import scipy.interpolate as si\n"
                   "    finally:\n"
                   "        from scipy.linalg import eigh\n"
                   "class C:\n"
                   "    def envelopes(self):\n"
                   "        from scipy.interpolate import CubicSpline\n")
    interp = "scipy.interpolate"
    assert _scipy_imports(src) == [
        (1, interp, "", ""),
        (4, interp, "make_profile", "family == 'tabulated'"),
        (6, interp, "make_profile", "not family == 'tabulated'"),
        (8, interp, "make_profile", ""), (13, interp, "envelopes", "")]


def test_fixture_runs_load_no_unused_scipy():
    # both fixture pipelines solve a root and glue its mode (the tanh tail
    # reads the Hermite interpolant), the tanh fixture's printed envelopes
    # are read between their samples, and the Evans oracle scans both
    code = f"""
        import sys
        import numpy as np
        from rtspect import (Pipeline, PhysicalParams, SolverOptions,
                             decay_envelopes, find_roots, make_profile)
        params = PhysicalParams(g=1.0, mu=1.0, k=1.0)
        for profile in (make_profile("tanh", rho_minus=1.0, rho_plus=3.0,
                                     ell=1.0),
                        make_profile("bump", rho_minus=1.0, rho_plus=3.0,
                                     a=1.0)):
            pipe = Pipeline(profile, params,
                            SolverOptions(n_elements=64)).build()
            point, = pipe.solve_mode_index(1)
            pipe.mode(point)
            if profile.family == "tanh":
                decay_envelopes(profile, params, pipe.setup, pipe.gbounds
                                ).at("right", pipe.setup.x_tilde_plus + 0.1)
            find_roots(profile, params, np.linspace(
                pipe.eps_star, pipe.bounds.lambda_max, 16))
        print(" ".join(m for m in {_UNUSED_SCIPY!r} if m in sys.modules))
        """
    assert _run_fresh(code) == [""]


def _run_fresh(code):
    """The output lines of `code` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_oracle_path_loads_no_scipy():
    # import, a Pipeline never built and the Evans oracle on the tanh
    # fixture's 64-point grid need numpy only; the first build loads the
    # Galerkin path's scipy.linalg and ARPACK
    before, after = _run_fresh("""
        import sys
        import numpy as np
        import rtspect
        profile = rtspect.make_profile("tanh", rho_minus=1.0, rho_plus=3.0,
                                       ell=1.0)
        params = rtspect.PhysicalParams(g=1.0, mu=1.0, k=1.0)
        pipe = rtspect.Pipeline(profile, params)
        rtspect.find_roots(profile, params, np.linspace(
            pipe.eps_star, pipe.bounds.lambda_max, 64))
        print(" ".join(m for m in sys.modules
                       if m == "scipy" or m.startswith("scipy.")))
        pipe.build()
        print(" ".join(m for m in ("scipy.linalg", "scipy.sparse.linalg")
                       if m in sys.modules))
        """)
    assert before == ""
    assert after == "scipy.linalg scipy.sparse.linalg"


# the names `import rtspect` exports, by the module that defines each
_EXPORTS = {
    "assembly": ("DiscreteForms", "HermiteSpace", "KFreeForms", "Mesh",
                 "VolumeForms", "assemble_forms", "assemble_k_free",
                 "assemble_volume", "build_mesh", "coercivity_check",
                 "whole_line_identity_check"),
    "errors": ("BracketError", "CoercivityError", "CoercivitySearchError",
               "ConfigError", "DegenerateBasisError", "ExtrapolationError",
               "GluingError", "ProfileError", "RankError", "SolverError",
               "StepSizeError", "StiffnessError", "TruncationError"),
    "evans": ("EvansSample", "evans_function", "find_roots"),
    "modes": ("GlobalMode", "PerturbationField", "glue_mode", "gluing_jumps",
              "ode_residual", "raw_trace_defects", "reconstruct_fields"),
    "outer_general": ("BoundaryFit", "DecayingPair", "GammaBounds",
                      "OuterSolutions", "PicardSetup", "SystemMatrices",
                      "coercive_window", "decay_envelopes", "gamma_bounds",
                      "system_matrices", "truncation_points"),
    "pipeline": ("KGridWork", "Pipeline", "SolverOptions", "k_grid_work"),
    "profiles": ("COMPACT", "INCREASING", "DensityProfile", "PhysicalParams",
                 "ProfileBounds", "make_profile", "profile_bounds",
                 "validate"),
    "spectrum": ("CompactTails", "DispersionPoint", "ExponentialPair",
                 "ModeCount", "SliceBuilder", "SpectrumSlice",
                 "compact_outer_basis", "gamma_derivative_check",
                 "gamma_spectrum", "mode_count", "solve_dispersion"),
}


def test_public_names_resolve_where_defined():
    # in a fresh process every exported name, loaded eagerly or on first
    # use, is the object of its defining module, and `import *` binds them
    listed, misplaced, starred = _run_fresh(f"""
        import importlib
        import rtspect
        print(" ".join(sorted(rtspect.__all__)))
        print(" ".join(name for module, names in {_EXPORTS!r}.items()
                       for name in names if getattr(rtspect, name) is not
                       getattr(importlib.import_module("rtspect." + module),
                               name)))
        space = {{}}
        exec("from rtspect import *", space)
        print(" ".join(sorted(set(space) - {{"__builtins__"}})))
        """)
    exported = " ".join(sorted(n for names in _EXPORTS.values()
                               for n in names))
    assert listed == exported
    assert misplaced == ""
    assert starred == exported
    with pytest.raises(AttributeError, match="no_such_name"):
        rtspect.no_such_name


def test_pipeline_hooks_resolve_before_a_build():
    # the tracer wraps these names on a fresh `import rtspect.pipeline`,
    # before any Pipeline is built
    targets = [attr for mod, attr, _ in _span_tables()["FUNCTIONS"]
               if mod == "rtspect.pipeline"]
    missing, = _run_fresh(f"""
        import rtspect.pipeline
        print(" ".join(a for a in {targets!r}
                       if not hasattr(rtspect.pipeline, a)))
        """)
    assert targets and missing == ""


def test_patch_before_the_first_build_is_kept(tanh_profile, params,
                                              count_calls):
    # build binds the Galerkin names it reads only where none is set, so a
    # wrapper set before it is the one the search calls
    pipe = pipeline.Pipeline(tanh_profile, params,
                             pipeline.SolverOptions(n_elements=64))
    calls = count_calls(pipeline, "solve_dispersion")
    pipe.solve_mode_index(1)
    assert calls and calls[0][0] is pipe.builder
