"""The package's public names, and the packaging the tests need."""

import ast
import re
import sys
from dataclasses import fields
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

import ecsched
from ecsched import _kernels

ROOT = Path(__file__).resolve().parent.parent

# the public API; adding or dropping an export changes this list
PUBLIC_NAMES = [
    "AllocationScheme", "BACKEND", "BudgetExceededError", "DemandTensor",
    "FeasibilityReport", "FlowSummary", "FormatError", "GenConfig", "Instance",
    "IntegrityError", "InvalidTopologyError", "OptionTable", "SamplingNetwork",
    "SoftAllocation", "Topology", "TrainConfig", "TrainingDiverged",
    "best_of_detailed", "brute_force", "build_option_table", "check_feasibility",
    "compute_flows", "create_network", "forward_alpha", "generate_instance",
    "linearize", "load_model", "percentile_exempt_count", "preprocess",
    "read_instance", "read_scheme", "read_solution", "rsn_best_of_detailed",
    "sample_demands", "sample_gumbel", "sample_static", "save_model", "soft_loss",
    "total_cost", "train", "write_instance", "write_lp", "write_scheme",
    "write_warmstart",
]


# the billing record's fields; adding a flat or positional field is a
# change of this list
FLOW_SUMMARY_FIELDS = ["edge", "isp", "cost_total"]
LINK_TIER_FIELDS = ["flow_in", "flow_out", "z", "inbound", "peak_in", "peak_out",
                    "rate", "cap_basic", "cap_billable", "cap_phys"]


def test_every_export_resolves_once():
    names = ecsched.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    assert [name for name in names if not hasattr(ecsched, name)] == []


def test_public_names_are_pinned():
    assert sorted(ecsched.__all__) == PUBLIC_NAMES


def test_billing_record_fields_are_pinned():
    assert [f.name for f in fields(ecsched.FlowSummary)] == FLOW_SUMMARY_FIELDS
    assert [f.name for f in fields(_kernels.LinkTier)] == LINK_TIER_FIELDS


def normalized(name):
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_third_party_test_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {normalized(re.match(r"[A-Za-z0-9._-]+", req).group())
                for req in project["dependencies"] + project["optional-dependencies"]["test"]}
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"ecsched"}
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"hypothesis", "numpy", "pytest", "scipy"} <= third_party
    distributions = packages_distributions()
    undeclared = {module: distributions.get(module) for module in third_party
                  if not {normalized(d) for d in distributions.get(module, [])} & declared}
    assert undeclared == {}
