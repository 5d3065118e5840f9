"""Verlet flows: continuous normalizing flows on an augmented (q, p) space
with exact-likelihood Taylor-Verlet integrators and an importance-sampling
harness for partition-constant estimation."""

from .autodiff import Mlp
from .couplings import CouplingLayer, apply_coupling, as_verlet_steps
from .densities import Gmm, UnnormalizedDensity, default_trimodal
from .flow import CoefficientNet, PhaseState, VerletFlow
from .importance import WeightReport, estimate_logZ, log_weights
from .integrators import (
    IntegrationResult,
    IntegratorConfig,
    integrate,
    rk4_integrate,
    verlet_integrate,
)
from .operators import OperatorStep, apply_step, invert_step
from .persist import Config, load_checkpoint, save_checkpoint
from .training import TrainConfig, TrainReport, nll_batch, train

__version__ = "0.1.0"

__all__ = [
    "CoefficientNet",
    "Config",
    "CouplingLayer",
    "Gmm",
    "IntegrationResult",
    "IntegratorConfig",
    "Mlp",
    "OperatorStep",
    "PhaseState",
    "TrainConfig",
    "TrainReport",
    "UnnormalizedDensity",
    "VerletFlow",
    "WeightReport",
    "apply_coupling",
    "apply_step",
    "as_verlet_steps",
    "default_trimodal",
    "estimate_logZ",
    "integrate",
    "invert_step",
    "load_checkpoint",
    "log_weights",
    "nll_batch",
    "rk4_integrate",
    "save_checkpoint",
    "train",
    "verlet_integrate",
]
