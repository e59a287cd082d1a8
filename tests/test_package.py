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
LINK_TIER_FIELDS = ["flows", "z", "inbound", "peak",
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


def test_every_package_function_has_a_caller_in_the_package():
    # code only the tests call belongs in tests/: every module-level
    # function or class, and every non-dunder method, defined in the
    # package is named somewhere in it, as a Name, an Attribute or an
    # import alias (which covers every __all__ export)
    defined, referenced = set(), set()
    for path in sorted((ROOT / "src" / "ecsched").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined |= {(path.name, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    assert sorted(f"{module}:{name}" for module, name in defined
                  if name.rpartition(".")[2] not in referenced) == []


def test_slot_flows_are_ordered_in_one_place():
    # every billed level and peak is read from _top_slots' one sort, and
    # the gradient's billed slot and the warm start's exempt slots are
    # ranked against a level it gives (ranked_slots), with no second sort;
    # read_solution's str.partition splits a text line, not slot flows
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in {"sort", "argsort", "partition", "argpartition"}:
                found.append(f"{where}:{name}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "ecsched").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == ["_kernels._top_slots:sort", "milp.read_solution:partition"]


def test_milp_export_formats_no_element_at_a_time():
    # linearize names columns and rows from patterns and write_lp joins one
    # token grid; a lambda or an np.ndindex walk in linearize, or any loop
    # in write_lp, would format element by element again.  Each function
    # is checked together with the milp functions it calls.
    tree = ast.parse((ROOT / "src" / "ecsched" / "milp.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def nodes(name):
        # the AST nodes of a function and of every milp function it calls
        done, todo = set(), [name]
        while todo:
            name = todo.pop()
            if name in done:
                continue
            done.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
                    todo.append(node.func.id)
                yield node

    def lines(name, found):
        return [f"{type(node).__name__} at line {node.lineno}" for node in nodes(name)
                if found(node)]

    assert lines("linearize", lambda node: isinstance(node, ast.Lambda)
                 or isinstance(node, ast.Attribute) and node.attr == "ndindex") == []
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    assert lines("write_lp", lambda node: isinstance(node, loops)) == []


def test_hard_pricing_is_one_call_per_best_of():
    # each sampler prices its whole draw block in one evaluate_hard call;
    # a call inside a loop or a comprehension would price draw by draw
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    calls = []

    def visit(node, where, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "evaluate_hard":
                calls.append((where, looped))
        looped = looped or isinstance(node, loops)
        for child in ast.iter_child_nodes(node):
            visit(child, where, looped)

    for path in sorted((ROOT / "src" / "ecsched").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, False)
    assert sorted(calls) == [("baselines.rsn_best_of_detailed", False),
                             ("sampler.best_of_detailed", False)]


def test_training_steps_run_once_over_their_blocks():
    # the concrete transform computes only valid entries: no masked logit
    # constant and no where/copyto over the full block; Adam runs its
    # moment arithmetic once on the flat buffers, so no loop or
    # comprehension in adam_step reads a moment; the names perfbench's
    # tracer patches stay
    from ecsched import gumbel, nn, sampler

    source = {name: ast.parse((ROOT / "src" / "ecsched" / f"{name}.py").read_text())
              for name in ("gumbel", "nn")}
    names = {node.id for node in ast.walk(source["gumbel"]) if isinstance(node, ast.Name)}
    assert "MASK_LOGIT" not in names and not hasattr(gumbel, "MASK_LOGIT")

    def function(module, name):
        return next(node for node in source[module].body
                    if isinstance(node, ast.FunctionDef) and node.name == name)

    calls = {node.func.attr for node in ast.walk(function("gumbel", "concrete_rows_given"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not calls & {"where", "copyto"}

    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    moments = {"m", "v", "moments"}
    looped = [f"line {node.lineno}" for node in ast.walk(function("nn", "adam_step"))
              if isinstance(node, loops)
              and any(getattr(inner, "id", getattr(inner, "attr", None)) in moments
                      for inner in ast.walk(node))]
    assert looped == []

    assert callable(gumbel.sample_gumbel) and callable(gumbel.concrete_rows_given)
    assert sampler.adam_step is nn.adam_step
