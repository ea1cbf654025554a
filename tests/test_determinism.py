"""Config and seed determine every output, at any allowed-CPU count.

The whole simulate -> analyze -> report session runs in subprocesses on
one CPU, on two, and on two with OpenBLAS given two threads; the three
output trees must be byte-identical.  The fits get there by summing
without BLAS, whose multithreaded products split their sums by thread
count, so no module may call one.  Importing optomech holds OpenBLAS to
one thread unless the environment sets OPENBLAS_NUM_THREADS, so the third
run is the one that still loads a threaded BLAS.
"""

import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import optomech

_SRC = pathlib.Path(optomech.__file__).resolve().parent
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the 400 s Brownian CSV (about 7.3 MB) is read a 1 MiB range at a time
# (io._RANGE_BYTES), all in the calling process
_CONFIG = {
    "synth": {
        "brownian": {"duration_s": 400.0},
        "ringdown_mech": {"duration_s": 20.0, "sample_rate_hz": 25e3},
        "sweep": {"f_min_hz": 300.0, "f_max_hz": 40e3,
                  "points_per_decade": 10},
    }
}

_SESSION = [
    ["simulate", "brownian"],
    ["simulate", "ringdown-optical"],
    ["simulate", "ringdown-mech"],
    ["simulate", "sweep"],
    ["analyze", "q", "brownian.csv"],
    ["analyze", "psd", "brownian.csv"],
    ["simulate", "brownian", "--format", "bin"],
    ["analyze", "q", "brownian.bin"],
    ["analyze", "finesse", "ringdown_optical.csv"],
    ["analyze", "mech-q", "ringdown_mech_envelope.csv"],
    ["analyze", "transfer", "simulate_sweep_manifest.json"],
    ["report"],
]


def _env(openblas_threads=None):
    """This environment with the thread variables removed, optomech on the
    path, and OPENBLAS_NUM_THREADS set if openblas_threads is given."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    return env


def _session(tmp_path, cpus, openblas_threads=None):
    """Run the session in a fresh tmp_path/out, restricted to cpus; return
    the output tree and each command's stdout."""
    out = tmp_path / "out"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_CONFIG))
    env = _env(openblas_threads)
    runs = []
    for argv in _SESSION:
        proc = subprocess.run(
            [sys.executable, "-m", "optomech.cli", "--config", str(cfg),
             "--out", str(out)] + argv,
            cwd=out, env=env, capture_output=True, timeout=300,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        assert proc.returncode == 0, (argv, proc.stderr.decode())
        runs.append((argv, proc.stdout))
    tree = {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}
    return tree, runs


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two allowed CPUs")
def test_outputs_identical_at_one_and_two_cpus(tmp_path):
    allowed = sorted(os.sched_getaffinity(0))
    one, two = {allowed[0]}, set(allowed[:2])
    ref_tree, ref_runs = _session(tmp_path, one)
    assert "report.json" in ref_tree and "analyze_q_result.json" in ref_tree
    for name, cpus, threads in (("two CPUs", two, None),
                                ("two CPUs, two BLAS threads", two, 2)):
        tree, runs = _session(tmp_path, cpus, threads)
        assert sorted(tree) == sorted(ref_tree), name
        changed = [f for f in ref_tree if tree[f] != ref_tree[f]]
        assert not changed, (name, changed)
        assert runs == ref_runs, name


_THREADS_AFTER_IMPORT = """\
import os
import optomech.cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task")
      else "")
"""


def _import_cli(openblas_threads=None):
    """(OPENBLAS_NUM_THREADS, thread count or "") after a fresh process
    imports optomech.cli."""
    proc = subprocess.run([sys.executable, "-c", _THREADS_AFTER_IMPORT],
                          env=_env(openblas_threads), capture_output=True,
                          text=True, timeout=60, check=True)
    return tuple(proc.stdout.splitlines())


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
def test_import_starts_no_blas_threads():
    assert _import_cli() == ("1", "1")


def test_user_blas_thread_count_is_kept():
    assert _import_cli(2)[0] == "2"


_BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot"}


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_blas_products(path):
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            fn = node.func
            name = (fn.attr if isinstance(fn, ast.Attribute)
                    else fn.id if isinstance(fn, ast.Name) else None)
            if name in _BLAS_CALLS:
                found.append((node.lineno, name))
    assert not found, found


# numpy's text readers, a second CSV parser with rules of its own
_TEXT_READERS = {"loadtxt", "genfromtxt"}


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_csv_parser(path):
    # every CSV body is read by _parse.parse_rows, whose rules are the
    # package's own; no module names another text reader
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in _TEXT_READERS:
            found.append((node.lineno, name))
    assert not found, found


_PROCESS_MODULES = {"multiprocessing", "concurrent", "threading",
                    "subprocess"}
# nothing may start a process, or size its work by the CPUs it may use
_OS_CALLS = {"os.fork", "os.sched_getaffinity", "os.cpu_count",
             "os.process_cpu_count"}


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_processes_or_threads(path):
    # every command runs in one process and one Python thread and never
    # reads the CPU count, so its outputs cannot depend on how many CPUs
    # it may use
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names += [f"os.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            names = [f"os.{node.attr}"]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in _PROCESS_MODULES
                  or name in _OS_CALLS]
    assert not found, found


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    # a test dependency such as scipy is installed where the tests run, so
    # only this check keeps it out of the package
    allowed = sys.stdlib_module_names | {"numpy"}
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in allowed]
    assert not found, found


# Every public name and parameter serves a command.  These exports wait on
# work that will use them: fringe_slope on the lock verdict's linear
# prediction (ROADMAP item 12), the cooling functions on design-check's
# quantum-regime budget (item 14), and linewidth and ringdown_tau are read
# by acceptance criterion 3.  thermal_psd is the spectrum that the Brownian
# recursion samples; no command evaluates it, and acceptance criterion 9
# and test_mech.py test it.
_EXPORTS_NO_COMMAND_USES = {"constants", "fringe_slope", "optical_damping_rate",
                            "effective_temperature", "linewidth",
                            "ringdown_tau",
                            "thermal_psd"}    # acceptance criterion 9
# defaulted parameters that only callers outside the package pass
_DEFAULTS_PASSED_OUTSIDE = {("main", "argv"),             # console script
                            ("__call__", "option_string")}  # argparse
# dataclass fields that no command reads yet: the fit's stopping test
# waits on ROADMAP item 7
_FIELDS_NO_COMMAND_READS = {("LMResult", "grad_cosine")}


def _modules():
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(_SRC.glob("*.py"))}


def _references(tree, skip):
    """The names that tree reads, as a name or an attribute, outside any
    definition named skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == skip):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_export_is_used_in_the_package():
    # the exports, and every public module-level function and class
    modules = _modules()
    init = modules.pop("__init__")
    public = {alias.asname or alias.name for node in init.body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    public |= {node.name for tree in modules.values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    unused = {name for name in public
              if not any(name in _references(tree, name)
                         for tree in modules.values())}
    assert unused == _EXPORTS_NO_COMMAND_USES


def test_every_import_is_read_in_its_module():
    # __init__.py imports to export; every other module reads what it imports
    unread = []
    for stem, tree in _modules().items():
        if stem == "__init__":
            continue
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        unread += [(stem, name) for name in sorted(imported - read)]
    assert not unread, unread


def _defaulted_parameters(tree):
    """(function name, positional index or None, parameter name) of each
    defaulted parameter of the module-level functions and the methods of
    tree that are not private; the index leaves out a method's self, and
    is None for a keyword-only parameter."""
    for node in tree.body:
        method = isinstance(node, ast.ClassDef)
        for fn in node.body if method else [node]:
            if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("_") and not fn.name.endswith("__")):
                continue
            args = fn.args
            pos = (args.posonlyargs + args.args)[int(method):]
            first = len(pos) - len(args.defaults)
            for i, arg in enumerate(pos[first:], first):
                yield fn.name, i, arg.arg
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, None, arg.arg


def _passes(call, index, name):
    """Whether call passes the parameter at position index named name: by
    keyword, by position, or possibly through a *args."""
    if any(k.arg == name for k in call.keywords):
        return True
    return index is not None and (
        index < len(call.args)
        or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_is_passed_in_the_package():
    # a parameter that no call in the package passes is a constant
    modules = _modules()
    calls = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = (fn.attr if isinstance(fn, ast.Attribute)
                        else getattr(fn, "id", None))
                calls.setdefault(name, []).append(node)
    unpassed = [(stem, fn, name) for stem, tree in modules.items()
                for fn, index, name in _defaulted_parameters(tree)
                if (fn, name) not in _DEFAULTS_PASSED_OUTSIDE
                and not any(_passes(call, index, name)
                            for call in calls.get(fn, []))]
    assert not unpassed, unpassed


def _is_dataclass(node):
    """Whether a class definition is decorated with @dataclass, called or
    not."""
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read_in_the_package():
    """Every field of every @dataclass in the package is read as an
    attribute somewhere in the package, except those waiting on work that
    will read them (_FIELDS_NO_COMMAND_READS).

    Reads are matched by attribute name, not by class, so a field passes
    when a field of the same name in another class is read: FitResult.n_iter,
    which also waits on ROADMAP item 7, passes because LMResult.n_iter is
    read.
    """
    modules = _modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = {(cls.name, stmt.target.id)
              for tree in modules.values() for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read}
    assert unread == _FIELDS_NO_COMMAND_READS
