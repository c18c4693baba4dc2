"""Import hygiene: what importing the package loads, and what each file
imports but never uses.

Every `kpz-tails` command and every benchmark set-up pays for the
package import, so no module of the package imports scipy at module
level.  scipy.special alone costs about 0.2 s and 26 MB of a cold start,
because scipy's array-API shim loads numpy.f2py, numpy.testing and
numpy.ma; scipy.stats costs more still.  Each function that calls a scipy
routine imports it in its body, so the solver, `simulate` and `bounds`
never load scipy, and the commands that need it pay for it once, in
their first call.  The GUE sampler resolves its LAPACK dstebz pointer
before it starts its worker threads, so no worker thread imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_fresh(code: str, *args: str) -> list:
    """Run `code` in a fresh interpreter that imports the checkout's
    kpztails; return its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return proc.stdout.splitlines()


# prints the scipy modules loaded so far
SCIPY_LOADED = ("print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")


def test_package_import_does_not_load_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, kpztails, kpztails.cli; "
            "print(kpztails.__file__); "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy.stats' or m.startswith('scipy.stats.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    path, loaded = proc.stdout.splitlines()
    assert Path(path).resolve().parent == SRC / "kpztails"
    assert loaded == "[]", loaded


def test_package_import_does_not_load_scipy():
    path, loaded = run_fresh("import sys, kpztails, kpztails.cli; "
                             "print(kpztails.__file__); " + SCIPY_LOADED)
    assert Path(path).resolve().parent == SRC / "kpztails"
    assert loaded == "[]", loaded


def test_solver_simulate_and_bounds_do_not_load_scipy(tmp_path):
    code = f"""
import sys
from kpztails import experiment, she
from kpztails.initial_data import NarrowWedge

she.solve_she_ensemble(
    NarrowWedge(), 0.5, she.SolverConfig(dx=0.1, dt=2.5e-3, extent=3.0),
    seed=0, n_replicas=8, probe_times=(0.5,), probe_x=(0.0,))
cfg = experiment.ExperimentConfig(n_samples=20, s_grid=(1.0,), dx=0.1,
                                  dt=2.5e-3, extent=3.0)
experiment.run_simulate(cfg, 0, sys.argv[1])
experiment.run_bounds(cfg, 0, sys.argv[1])
{SCIPY_LOADED}
"""
    [loaded] = run_fresh(code, str(tmp_path))
    assert (tmp_path / "bounds.csv").is_file()
    assert loaded == "[]", loaded


def test_gue_sampler_loads_dstebz_on_the_main_thread():
    # the sampler is the process's first scipy user and runs two worker
    # threads; its top eigenvalues keep eigh_tridiagonal's bits
    code = f"""
import builtins, math, sys, threading
import numpy as np
from kpztails import airy, she

{SCIPY_LOADED}
importers = set()
real_import = builtins.__import__

def spy(name, *args, **kwargs):
    if name == "scipy" or name.startswith("scipy."):
        importers.add(threading.current_thread().name)
    return real_import(name, *args, **kwargs)

builtins.__import__ = spy
she.usable_cores = lambda: 2
N, K, n = 128, 5, 6
got = airy.sample_gue_edge_many(N, K, seed=3, n_samples=n)
builtins.__import__ = real_import
print(sorted(importers))

from scipy.linalg import eigh_tridiagonal

for i in range(n):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((3, i))))
    diag = rng.standard_normal(N)
    off = np.sqrt(rng.chisquare(2.0 * (N - np.arange(1, N)))) / math.sqrt(2.0)
    lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                           select_range=(N - K, N - 1))
    want = N**(1.0 / 6.0) * (lam[::-1] - 2.0 * math.sqrt(N))
    assert got[i].tobytes() == want.tobytes(), i
print("bitwise")
"""
    before, importers, result = run_fresh(code)
    assert before == "[]", before
    assert importers == "['MainThread']", importers
    assert result == "bitwise"


def unused_imports(path: Path) -> list:
    """Names that `path` imports (anywhere in the file) and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports():
    files = sorted((SRC / "kpztails").glob("*.py"))
    files += sorted((ROOT / "tests").glob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p) for p in files}
    found = {path: names for path, names in found.items() if names}
    assert not found, f"imported but never used (line, name): {found}"
