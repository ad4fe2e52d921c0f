"""numpy and scipy each bundle their own OpenBLAS; a sampler iteration that
calls into both makes the two thread pools take turns, which was 8x slower
than either alone.  These checks keep scipy.linalg out of the modules the
sampler loop runs and out of the per-call Gaussian log-prior.  Importing
scipy also took most of the package's import time, so no module imports it
at module level and a plain fit never loads it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poisbayes"
HOT_MODULES = ["proposal.py", "samplers.py", "tuning.py"]
ALL_MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _scipy_linalg_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("scipy.linalg") or (
                    module == "scipy" and any(a.name == "linalg" for a in node.names)):
                yield module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.linalg"):
                    yield alias.name


@pytest.mark.parametrize("module", HOT_MODULES)
def test_hot_modules_do_not_import_scipy_linalg(module):
    tree = ast.parse((PACKAGE / module).read_text())
    assert list(_scipy_linalg_imports(tree)) == [], f"{module} imports from scipy.linalg"


def test_log_gaussian_prior_calls_no_scipy():
    tree = ast.parse((PACKAGE / "model.py").read_text())
    scipy_names = {"scipy"}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            scipy_names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            scipy_names.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                               if alias.name.split(".")[0] == "scipy")
    (func,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "log_gaussian_prior"]
    used = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    assert used & scipy_names == set()


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_module_level_scipy_import(module):
    tree = ast.parse((PACKAGE / module).read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


_FIT_WITHOUT_SCIPY = """
import sys
import numpy as np
import poisbayes as pb

rng = np.random.default_rng(3)
X = np.column_stack([np.ones(40), rng.standard_normal(40)])
data = pb.Dataset(y=rng.poisson(np.exp(X @ [0.5, 0.3])), X=X, column_names=("b0", "b1"))
prior = pb.FixedGaussianPrior(pb.GaussianPriorParams(np.zeros(2), 2.0 * np.eye(2)))
config = pb.MHConfig(iterations=300, burnin=100, seed=1)
chain = pb.mh_run(data, prior, config)
pb.is_run(data, prior, config)
pb.cpo(chain.draws, data)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_diagonal_prior_fit_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", _FIT_WITHOUT_SCIPY], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
