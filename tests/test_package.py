"""The package's import contract: `import shotr` loads its submodules, and
numpy, only on first use, and the command line starts numpy with one BLAS
thread unless the user chose a thread count or numpy was loaded first.
Also the optional parameters and init fields of every public function and
record of every submodule, exported or not, listed in full, and the
modules' syntax against the oldest supported Python."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shotr

from .conftest import random_track

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(*args: str, **preset: str) -> str:
    """stdout of a fresh interpreter on the package in this checkout, with
    no BLAS thread variable set but those in preset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


BLAS_ENV = "print(json.dumps({v: os.environ.get(v) for v in %r}))" % (BLAS_VARS,)


def test_import_loads_no_submodule_and_leaves_the_environment():
    out = run_python("-c", "import os, sys; before = dict(os.environ); import shotr; "
                           "print('numpy' in sys.modules, dict(os.environ) == before)")
    assert out.split() == ["False", "True"]


def test_every_export_is_its_submodules_object():
    for name in shotr.__all__:
        module = importlib.import_module(f"shotr.{shotr._EXPORTS[name]}")
        assert getattr(shotr, name) is getattr(module, name), name


def test_dir_and_star_import_cover_every_export():
    assert set(shotr.__all__) <= set(dir(shotr))
    namespace = {}
    exec("from shotr import *", namespace)
    assert set(shotr.__all__) <= namespace.keys()


def _public_callables() -> dict:
    """Every public function and class defined in a shotr submodule, keyed
    module.name, whether the package exports it or not."""
    found = {}
    for path in sorted((ROOT / "src" / "shotr").glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"shotr.{path.stem}")
        found |= {f"{path.stem}.{name}": obj for name, obj in vars(module).items()
                  if not name.startswith("_") and callable(obj)
                  and getattr(obj, "__module__", None) == module.__name__}
    return found


# Every parameter with a default of every public callable of every
# submodule; for a dataclass, every init field with a default. A new option
# is an edit to this list.
OPTIONAL_PARAMETERS = {
    "cli.main": ["argv"],
    "recon.reconstruct_track": ["limiter", "cweno_config"],
    "recon.reconstruct_tracks": ["limiter"],
    "trajdata.parse_tracks": ["fmt"],
    "geometry.trajectory_length": ["geom_degree"],
    "kinematics.summarize": ["geom_degree"],
    "validate.run_convergence": ["mesh_cells", "limiter"],
    "validate.compare_spt": ["mesh_points"],
    "validate.backtrace": ["order", "limiter", "reference"],
}


def _optional_parameters(obj) -> list[str]:
    if dataclasses.is_dataclass(obj):
        return [f.name for f in dataclasses.fields(obj) if f.init and (
            f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING)]
    try:
        params = inspect.signature(obj).parameters.values()
    except ValueError:  # no signature to read
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def test_optional_parameters_are_the_listed_ones():
    found = {name: _optional_parameters(obj) for name, obj in _public_callables().items()}
    assert {name: params for name, params in found.items() if params} == OPTIONAL_PARAMETERS


# The init fields of every dataclass a submodule defines: each holds what
# cannot be derived from the others (a track's dimension is its coords'
# column count, a mesh's widths and barycenters come from its interfaces, a
# cell's degree from its coefficient count, a comparison row's method from
# its degree, a summary's v_l from its length and duration). A new field is
# an edit to this dict.
INIT_FIELDS = {
    "trajdata.TrackSeries": ["track_id", "times", "coords"],
    "trajdata.TrackSet": ["tracks"],
    "mesh.StaggeredMesh": ["interfaces"],
    "recon.CellPoly": ["coeffs", "basis"],
    "recon.PiecewisePoly": ["mesh", "coeffs"],
    "recon.TaylorBasis": ["center", "width"],
    "kinematics.KinematicSample": ["t", "position", "velocity", "acceleration"],
    "kinematics.VelocitySummary": ["v_d", "v_m", "length", "duration"],
    "validate.BacktraceResult": ["endpoint_error", "taus", "path", "combined"],
    "validate.ComparisonRow": ["case", "degree", "n_points", "axis", "position", "velocity"],
    "validate.ConvergenceRow": ["case", "degree", "n_cells", "dt", "errors", "orders"],
    "validate.ErrorNorms": ["l1", "l2", "linf"],
    "validate.SyntheticCase": ["name", "position_fns", "velocity_fns", "domain"],
}


def test_records_init_fields_are_the_listed_ones():
    found = {name: [f.name for f in dataclasses.fields(obj) if f.init]
             for name, obj in _public_callables().items() if dataclasses.is_dataclass(obj)}
    assert found == INIT_FIELDS


def test_every_module_parses_as_the_oldest_supported_python():
    """pyproject.toml declares requires-python >= 3.10; only the syntax can
    be checked without running an interpreter of that version."""
    modules = sorted((ROOT / "src" / "shotr").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# The evaluator's core, and the second path and the Horner helper that it
# replaced: no module but recon may name the core, and none the others.
_EVALUATION_HELPERS = {"_evaluate_taylor", "_taylor_eval", "_horner"}


class _Scan(ast.NodeVisitor):
    """The functions of a module that call locate_cells, those whose for
    loops take a Horner step, ``acc = acc * u + c`` (in either order), those
    that divide by a slice of _FACT, and the evaluation helpers the module
    defines, names or imports."""

    def __init__(self, module: str):
        self.scope = [module]
        self.lookups, self.horner, self.fact_divisions, self.helpers = [], [], [], set()

    def visit_Name(self, node):
        if node.id in _EVALUATION_HELPERS:
            self.helpers.add(node.id)

    def visit_Attribute(self, node):
        if node.attr in _EVALUATION_HELPERS:
            self.helpers.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self.helpers.update(alias.name for alias in node.names
                            if alias.name in _EVALUATION_HELPERS)

    def visit_FunctionDef(self, node):
        if node.name in _EVALUATION_HELPERS:
            self.helpers.add(node.name)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name == "locate_cells":
            self.lookups.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Div) and _is_fact_slice(node.right):
            self.fact_divisions.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.Div) and _is_fact_slice(node.value):
            self.fact_divisions.append(".".join(self.scope))
        self.generic_visit(node)

    def visit_For(self, node):
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and _is_horner_step(
                    getattr(stmt.targets[0], "id", None), stmt.value):
                self.horner.append(".".join(self.scope))
        self.generic_visit(node)


def _is_horner_step(target, value) -> bool:
    if target is None or not (isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add)):
        return False
    for term in (value.left, value.right):
        if isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult):
            if target in (getattr(term.left, "id", None), getattr(term.right, "id", None)):
                return True
    return False


def _is_fact_slice(node) -> bool:
    """node is _FACT indexed by a slice, such as _FACT[: n - order] or _FACT[:n, None]."""
    if not (isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "_FACT"):
        return False
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(i, ast.Slice) for i in index)


def test_one_cell_lookup_and_one_horner_loop():
    """One Taylor-basis evaluator: the package looks cells up in one place,
    recon.evaluate, and scales by the factorials and writes the Horner loop
    once, in the core recon._evaluate_taylor, which CellPoly calls too. No
    module but recon names the core (geometry.cell_lengths names its cells
    to recon._evaluate instead), and no module defines, names or calls the
    second path _taylor_eval or the helper _horner."""
    lookups, horner, fact_divisions, helpers = [], [], [], {}
    for path in sorted((ROOT / "src" / "shotr").glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(encoding="utf-8")))
        lookups += scan.lookups
        horner += scan.horner
        fact_divisions += scan.fact_divisions
        if scan.helpers:
            helpers[path.stem] = sorted(scan.helpers)
    assert lookups == ["recon.evaluate"]
    assert horner == ["recon._evaluate_taylor"]
    assert fact_divisions == ["recon._evaluate_taylor"]
    assert helpers == {"recon": ["_evaluate_taylor"]}


def test_the_limiter_and_the_summary_read_the_fits_cells():
    """Cell centers and widths are derived from times once, by the mesh:
    cweno and kinematics read no .times attribute. The check that one-axis
    tracks are the ones a fit was made from is written once, in
    recon._fitted_samples, through which both read their samples."""
    times_reads, pairing_checks = {}, []
    for path in sorted((ROOT / "src" / "shotr").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        times_reads[path.stem] = [node.lineno for node in ast.walk(tree)
                                  if isinstance(node, ast.Attribute) and node.attr == "times"]
        pairing_checks += [f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
                           if isinstance(fn, ast.FunctionDef) and any(
                               isinstance(node, ast.Constant) and "reconstruction's mesh"
                               in str(node.value) for node in ast.walk(fn))]
    assert times_reads["cweno"] == [] and times_reads["kinematics"] == []
    assert pairing_checks == ["recon._fitted_samples"]


def test_every_call_of_error_norms_passes_mesh_by_keyword():
    """perfbench's tracer counts an error_norms call's cells from its mesh,
    read by keyword before position, and the position it reads is stale:
    a positional mesh would fail inside the traced wrapper."""
    calls = [(module, node.lineno, any(k.arg == "mesh" for k in node.keywords))
             for module, tree in _modules().items() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "error_norms" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls
    assert [(module, line) for module, line, keyword in calls if not keyword] == []


def _einsum_operands(call: ast.Call) -> float:
    """Operands of an np.einsum call: those after the subscripts string, or
    half the arguments in the interleaved form; a starred argument counts as
    any number."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return float("inf")
    if call.args and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str):
        return len(call.args) - 1
    return len(call.args) // 2


def test_no_einsum_of_more_than_two_operands():
    """np.einsum with three or more operands runs numpy's generic loop, one
    scalar step per term of every output; the package contracts such
    products with matrix products (cweno.oscillation_indicators)."""
    calls = [f"{module}:{node.lineno}" for module, tree in _modules().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and "einsum" in (
                 getattr(node.func, "id", None), getattr(node.func, "attr", None))
             and _einsum_operands(node) > 2]
    assert calls == []


def _names_numpy_polynomial(node) -> bool:
    """node is np.polynomial or numpy.polynomial, or imports it or from it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "polynomial" and getattr(node.value, "id", None) in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.polynomial") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.polynomial") or (
            node.module == "numpy" and any(alias.name == "polynomial" for alias in node.names))
    return False


def test_only_quadrature_names_numpy_polynomial():
    """One polynomial basis: a fit is Taylor coefficients, evaluated by
    recon, and numpy's polynomial package serves only the Gauss rules. A
    second basis, such as a Lagrange cell geometry, would name it again."""
    found = sorted({module for module, tree in _modules().items()
                    for node in ast.walk(tree) if _names_numpy_polynomial(node)})
    assert found == ["quadrature"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        shotr.no_such_name


def test_cli_starts_numpy_with_one_blas_thread():
    out = run_python("-c", "import json, os, shotr.cli, numpy; " + BLAS_ENV)
    assert json.loads(out) == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                               "OMP_NUM_THREADS": None}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_cli_process_runs_without_a_blas_worker_thread():
    out = run_python("-c", "import os, shotr.cli, numpy; "
                           "print(len(os.listdir('/proc/self/task')), "
                           "numpy.__config__.CONFIG['Build Dependencies']['blas']['name'])")
    threads, blas = out.split()
    if "openblas" not in blas:
        pytest.skip(f"numpy is built on {blas}")
    assert threads == "1"


@pytest.mark.parametrize("var", BLAS_VARS)
def test_cli_keeps_a_thread_count_the_user_set(var):
    out = run_python("-c", "import json, os, shotr.cli; " + BLAS_ENV, **{var: "3"})
    assert json.loads(out) == {v: "3" if v == var else None for v in BLAS_VARS}


def test_cli_leaves_the_environment_when_numpy_is_loaded():
    out = run_python("-c", "import os; before = dict(os.environ); import numpy, shotr.cli; "
                           "print(dict(os.environ) == before)")
    assert out.split() == ["True"]


@pytest.mark.parametrize("command", ["reconstruct", "kinematics", "length", "summary"])
def test_cli_output_does_not_depend_on_the_blas_thread_count(tmp_path, rng, command):
    path = tmp_path / "tracks.csv"
    lines = ["track,t,x,y,z"]
    for k, n in enumerate([2, 3, 7, 40, 600]):
        track = random_track(rng, n, dim=3, track_id=f"t{k}")
        lines += [",".join([track.track_id, repr(t), *map(repr, c)])
                  for t, c in zip(track.times.tolist(), track.coords.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["-m", "shotr.cli", command, "--input", str(path)]
    assert run_python(*argv) == run_python(*argv, OPENBLAS_NUM_THREADS="2")


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "shotr").glob("*.py"))}


def _message(node) -> str:
    """The text of a raised message: an f-string's literal parts with {}
    for each field, else the argument's source."""
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return ast.unparse(node)


class _Raises(ast.NodeVisitor):
    """message -> the functions of a module that raise an exception built
    from it; a message held in a variable names no text and is skipped."""

    def __init__(self, module: str):
        self.scope, self.found = [module], {}

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Raise(self, node):
        exc = node.exc
        if isinstance(exc, ast.Call) and exc.args and not isinstance(exc.args[0], ast.Name):
            self.found.setdefault(_message(exc.args[0]), set()).add(".".join(self.scope))
        self.generic_visit(node)


def test_no_message_is_raised_by_two_functions():
    """Each error is raised by one owner: a rule whose message two functions
    raise is a rule written twice. TrackSeries alone rejects repeated
    frame times, and cli fails a --check through one helper."""
    raisers = {}
    for module, tree in _modules().items():
        scan = _Raises(module)
        scan.visit(tree)
        for message, functions in scan.found.items():
            raisers.setdefault(message, set()).update(functions)
    assert {message: sorted(functions) for message, functions in raisers.items()
            if len(functions) > 1} == {}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_cli_names_no_private_attribute_of_another_module():
    """The command line reaches the library through its public names, so a
    private helper can change without the CLI noticing."""
    tree = _modules()["cli"]
    modules = {alias.asname or alias.name.partition(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module is None
                for alias in node.names}
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and _private(node.attr)]
    found += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names if _private(alias.name)]
    assert found == []


def test_no_module_imports_a_name_it_does_not_use():
    """An unused import is a leftover of a deletion. A name counts as used
    where the module reads it, or lists it in __all__."""
    unused = {}
    for module, tree in _modules().items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(importlib.import_module(f"shotr.{module}".removesuffix(".__init__")),
                            "__all__", ()))
        if imported - used:
            unused[module] = sorted(imported - used)
    assert unused == {}
