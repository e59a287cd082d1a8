"""Edge-cloud traffic scheduling under 95th-percentile billing."""

from ._kernels import BACKEND
from .baselines import (BudgetExceededError, SearchBudget, brute_force,
                        rsn_best_of, rsn_sample)
from .generate import GenConfig, generate_instance, generate_instances, sample_demands, sample_static
from .gumbel import categorical_sample, concrete_sample, round_onehot, sample_gumbel
from .io import FormatError, read_instance, read_scheme, write_instance, write_scheme
from .milp import linearize, read_solution, write_lp, write_warmstart
from .model import (AllocationScheme, DemandTensor, FeasibilityReport, FlowSummary,
                    Instance, InvalidTopologyError, OptionTable, SoftAllocation,
                    Topology, build_option_table, check_feasibility, compute_flows,
                    g95, percentile_exempt_count, soft_loss, total_cost)
from .sampler import (IntegrityError, SamplingNetwork, TrainConfig, TrainingDiverged,
                      best_of, create_network, draw_hard, draw_soft, forward_alpha,
                      gssn_grad_check, load_model, preprocess, save_model, train)

__version__ = "0.1.0"

__all__ = [
    "AllocationScheme", "BACKEND", "BudgetExceededError", "DemandTensor",
    "FeasibilityReport", "FlowSummary", "FormatError", "GenConfig", "Instance",
    "IntegrityError", "InvalidTopologyError", "OptionTable", "SamplingNetwork",
    "SearchBudget", "SoftAllocation", "Topology", "TrainConfig", "TrainingDiverged",
    "best_of", "brute_force", "build_option_table", "categorical_sample",
    "check_feasibility", "compute_flows", "concrete_sample", "create_network",
    "draw_hard", "draw_soft", "forward_alpha", "g95",
    "gssn_grad_check",
    "generate_instance", "generate_instances", "linearize", "load_model",
    "percentile_exempt_count", "preprocess", "read_instance", "read_scheme",
    "read_solution", "round_onehot", "rsn_best_of", "rsn_sample", "sample_demands",
    "sample_gumbel", "sample_static", "save_model", "soft_loss", "total_cost",
    "train", "write_instance", "write_lp", "write_scheme", "write_warmstart",
]
