"""numpy and scipy each bundle their own OpenBLAS; a sampler iteration that
calls into both makes the two thread pools take turns, which was 8x slower
than either alone.  These checks keep scipy.linalg out of the modules the
sampler loop runs and out of the per-call Gaussian log-prior."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "poisbayes"
HOT_MODULES = ["proposal.py", "samplers.py", "tuning.py"]


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
