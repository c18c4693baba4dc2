"""Import hygiene: what importing the package loads, and what each file
imports but never uses.

Every `kpz-tails` command and every benchmark set-up pays for the
package import, so heavy scipy subpackages stay out of it unless a
module-level name needs them.  scipy.stats alone costs about half of the
import's time and 40 MB of its memory; the two functions it served come
from scipy.special, and the one function that needs it,
she.stationarity_report, imports it in its body.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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
