"""Every module of the package, the tests and the tools uses what it
imports, and importing the package loads no scipy.

Stdlib-only checks (ast, subprocess), so they run where no linter is
installed.  The package's __init__ is left out of the unused-import check:
its imports are the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "klab"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "tools").glob("*.py")))


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def module_level_scipy_imports(path):
    """Import statements of scipy outside any function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend(a.name for a in child.names
                             if a.name.split(".")[0] == "scipy")
            elif isinstance(child, ast.ImportFrom) and child.level == 0 \
                    and child.module.split(".")[0] == "scipy":
                found.append(child.module)
            visit(child)

    visit(ast.parse(path.read_text()))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert module_level_scipy_imports(path) == []


# Import klab, run the wavelet route (both projections, the square
# function) and one level batch of partition-of-unity pieces, then list the
# scipy modules loaded.
WAVELET_AND_PIECES = """
import sys
import numpy as np
import klab
from klab.geometry import ModelDomain, PartitionOfUnity, whitney_cover
from klab.norms import kondratiev_piece_power
from klab.testfns import make_test_function
from klab.wavelets import (build_wavelet_system, f_sequence_norm,
                           wavelet_coefficients)

system = build_wavelet_system(1)
gauss = lambda x: np.exp(-4.0 * np.sum(x ** 2, axis=0))
grid = wavelet_coefficients(gauss, system, 4, ((-1.0, -1.0), (1.0, 1.0)))
f_sequence_norm(grid, s=1.0, tau=0.9)
wavelet_coefficients(gauss, system, 3, ((-1.0,), (1.0,)), projection="table")
dom = ModelDomain(2, 0)
cover = whitney_cover(dom, ((-1, -1), (1, 1)), 2)
u = make_test_function(1.2, 0.0, 1.0, dom)
j, keys = max(cover.levels.items(), key=lambda item: len(item[1]))
kondratiev_piece_power(u, PartitionOfUnity(cover), j, keys, 1, 0.5, 2.0, 2)
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
"""


def test_wavelet_route_and_pieces_load_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", WAVELET_AND_PIECES], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
