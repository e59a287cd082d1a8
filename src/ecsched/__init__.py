"""Edge-cloud traffic scheduling under 95th-percentile billing."""

from ._kernels import BACKEND
from .baselines import BudgetExceededError, brute_force, rsn_best_of_detailed
from .generate import GenConfig, generate_instance, sample_demands, sample_static
from .gumbel import sample_gumbel
from .io import FormatError, read_instance, read_scheme, write_instance, write_scheme
from .milp import linearize, read_solution, write_lp, write_warmstart
from .model import (AllocationScheme, DemandTensor, FeasibilityReport, FlowSummary,
                    Instance, InvalidTopologyError, OptionTable, SoftAllocation,
                    Topology, build_option_table, check_feasibility, compute_flows,
                    percentile_exempt_count, soft_loss, total_cost)
from .sampler import (IntegrityError, SamplingNetwork, TrainConfig, TrainingDiverged,
                      best_of_detailed, create_network, forward_alpha, load_model,
                      preprocess, save_model, train)

__version__ = "0.1.0"

__all__ = [
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
