"""The benchmark under perfbench/ calls the package from outside; these
checks fail when a cleanup removes a name or field it relies on."""

import ast
import dataclasses
import importlib
import types
from pathlib import Path

import pytest

from poisbayes import ChainOutput, ISOutput, ProposalDensity, TuningDiagnostics

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def _package_imports(tree):
    """(module, name) for every ``from poisbayes... import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "poisbayes":
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def test_perfbench_scripts_found():
    assert {"run.py", "layers.py", "checks.py", "findings.py"} <= {s.name for s in SCRIPTS}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_imported_names_resolve(script):
    tree = ast.parse(script.read_text())
    module_aliases = {}
    for module, name, bound in _package_imports(tree):
        value = getattr(importlib.import_module(module), name, None)
        assert value is not None, f"{script.name}: {module} has no {name}"
        if isinstance(value, types.ModuleType):
            module_aliases[bound] = value
    # attributes read off an imported submodule, e.g. diagnostics.summarize
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases):
            module = module_aliases[node.value.id]
            assert hasattr(module, node.attr), f"{script.name}: {module.__name__} has no {node.attr}"


@pytest.mark.parametrize("cls, fields", [
    (ProposalDensity, {"m", "L", "log_det_V"}),
    (TuningDiagnostics, {"solves", "closed_form_fallbacks"}),
    (ChainOutput, {"draws", "accepted", "acceptance_rate", "prior_trace", "seed",
                   "proposal_failures", "tuning_fallbacks"}),
    (ISOutput, {"draws", "log_weights", "seed", "proposal_failures", "tuning_fallbacks"}),
], ids=["ProposalDensity", "TuningDiagnostics", "ChainOutput", "ISOutput"])
def test_fields_read_by_perfbench(cls, fields):
    assert fields <= {f.name for f in dataclasses.fields(cls)}
