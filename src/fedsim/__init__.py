"""Virtual-time federated learning simulator with straggler offloading.

`__all__` is the package's API; everything else is imported from its module.
"""

from .config import ConfigError, load_config, parse_config
from .engine import (
    ClientPlan,
    DeadlineDrop,
    ExperimentResult,
    ExperimentSummary,
    FedAvg,
    FedNova,
    FedProx,
    FreezeOffload,
    RoundPlan,
    RoundTrace,
    Tifl,
    run_experiment,
    run_experiments,
)
from .model import PartitionedModel
from .scheduling import OffloadAssignment, OffloadSchedule

__version__ = "0.1.0"

__all__ = [
    "parse_config",
    "load_config",
    "ConfigError",
    "run_experiment",
    "run_experiments",
    "FedAvg",
    "FedProx",
    "FedNova",
    "Tifl",
    "DeadlineDrop",
    "FreezeOffload",
    "ExperimentResult",
    "ExperimentSummary",
    "RoundTrace",
    "RoundPlan",
    "ClientPlan",
    "OffloadSchedule",
    "OffloadAssignment",
    "PartitionedModel",
]
