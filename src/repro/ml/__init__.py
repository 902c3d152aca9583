"""Machine-learning substrate: NumPy MLP, descriptors, MLXC training."""

from .descriptors import (
    descriptors_from_spin_density,
    feature_map,
    network_inputs,
    network_inputs_with_partials,
    phi_spin_factor,
    reduced_gradient,
    reduced_laplacian,
)
from .nn import MLP, Adam, elu, elu_prime
from .training import MLXCLaplacianTrainer, MLXCTrainer, TrainingSample, assemble_sample

__all__ = [
    "MLP",
    "MLXCLaplacianTrainer",
    "MLXCTrainer",
    "TrainingSample",
    "Adam",
    "descriptors_from_spin_density",
    "elu",
    "elu_prime",
    "feature_map",
    "assemble_sample",
    "network_inputs",
    "network_inputs_with_partials",
    "phi_spin_factor",
    "reduced_gradient",
    "reduced_laplacian",
]
