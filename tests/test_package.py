"""The package's public names."""

import ecsched

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


def test_every_export_resolves_once():
    names = ecsched.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    assert [name for name in names if not hasattr(ecsched, name)] == []


def test_public_names_are_pinned():
    assert sorted(ecsched.__all__) == PUBLIC_NAMES
