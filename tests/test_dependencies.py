"""The package imports only the standard library, NumPy and itself, its
CLI does not pull in the standard library's hashing or thread-pool modules,
and it builds no table on first use."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "psqkd"


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
    # the streaming sampler starts plain threads inside run_experiment; an
    # executor would add concurrent.futures to every CLI start
    assert modules_loaded_by_cli_import({"concurrent.futures"}) == "[]"


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
