"""The package imports only the standard library, NumPy and itself, its
CLI does not pull in the standard library's hashing or thread-pool modules,
only its worker pool starts threads, it builds no table on first use, its
modules share no new private names, and every function the benchmark's
tracer wraps exists under its name."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psqkd"


def imported_modules(path):
    """Top-level names of every absolute import in a file, function-local
    ones included; package-relative imports are skipped."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    foreign = {f"{path.relative_to(PACKAGE)}: {name}"
               for path in files for name in imported_modules(path)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not foreign, sorted(foreign)


def modules_loaded_by_cli_import(names):
    """Those of names that importing psqkd.cli leaves in sys.modules."""
    code = f"import sys, psqkd.cli; print(sorted({set(names)!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_cli_import_loads_no_hashing_modules():
    # the auto seed comes from os.urandom: secrets would load hashlib and
    # OpenSSL's _hashlib, a few ms of every CLI start
    assert modules_loaded_by_cli_import({"secrets", "hashlib", "_hashlib"}) == "[]"


def test_cli_import_loads_no_thread_pool():
    # the worker pool (psqkd._pool) starts plain threads when it runs; an
    # executor would add concurrent.futures to every CLI start
    assert modules_loaded_by_cli_import({"concurrent.futures"}) == "[]"


def thread_constructions(path):
    """The line of each threading.Thread a file names, as an attribute or an
    import."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr == "Thread"
                and isinstance(node.value, ast.Name) and node.value.id == "threading"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            yield from (node.lineno for alias in node.names if alias.name == "Thread")


def test_only_the_pool_starts_threads():
    # every caller runs its work through psqkd._pool.ordered, with buffers
    # it allocates once, rather than a thread layer of its own
    found = {f"{path.relative_to(PACKAGE)}:{line}" for path in sorted(PACKAGE.rglob("*.py"))
             for line in thread_constructions(path)}
    assert found, "the pool starts no thread"
    outside = sorted(key for key in found if not key.startswith("_pool.py:"))
    assert not outside, f"start threads through psqkd._pool instead: {outside}"


def test_no_first_use_caches():
    # a table built on first use during a run lands above that run's arrays
    # in the heap and keeps them resident once they are freed, so tables
    # are module constants built at import
    import psqkd
    for info in pkgutil.walk_packages(psqkd.__path__, "psqkd."):
        importlib.import_module(info.name)
    cached = sorted(f"{key}.{name}" for key, module in list(sys.modules.items())
                    if module is not None and key.split(".")[0] == "psqkd"
                    for name, value in vars(module).items()
                    if callable(getattr(value, "cache_clear", None)))
    assert not cached, ("first-use caches keep a run's freed arrays resident; "
                        f"build these at import: {cached}")


# The private names one package module imports from another.  This set may
# only shrink: a module that needs another's helper makes it public instead.
ALLOWED_PRIVATE_IMPORTS = {
    ("psqkd.gaussian", "_first"),
    ("psqkd.gaussian", "_plain"),
    ("psqkd.gaussian", "_xlogy"),
    ("psqkd.subtraction", "_filter_coefficient"),
    ("psqkd.subtraction", "_filter_into"),
}


def private_imports(path):
    """(module, name) for each underscore name a package file imports from
    another package module, function-local imports included."""
    package = ("psqkd",) + path.relative_to(PACKAGE).with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            base = package[:len(package) - node.level + 1]
            module = ".".join(base + ((node.module,) if node.module else ()))
            yield from ((module, alias.name) for alias in node.names
                        if alias.name.startswith("_"))


def test_private_names_stay_in_their_module():
    found = {f"{path.relative_to(PACKAGE)}: {module}.{name}": (module, name)
             for path in sorted(PACKAGE.rglob("*.py")) for module, name in private_imports(path)}
    sealed = ("psqkd.montecarlo", "psqkd.records", "psqkd._pool")
    leaked = sorted(key for key, (module, _) in found.items() if module in sealed)
    assert not leaked, f"import the public names of these modules instead: {leaked}"
    new = sorted(key for key, pair in found.items() if pair not in ALLOWED_PRIVATE_IMPORTS)
    assert not new, f"new cross-module private imports: {new}"
    gone = ALLOWED_PRIVATE_IMPORTS - set(found.values())
    assert not gone, f"no longer imported; drop from ALLOWED_PRIVATE_IMPORTS: {sorted(gone)}"


def test_benchmark_tracer_names_resolve():
    # perfbench/tracer.py wraps each LAYERS function by (module, name), so a
    # function that moves must stay importable under that name (montecarlo
    # re-exports the record codec's export_records and load_records)
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, name, *_ in tracer.LAYERS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, missing
