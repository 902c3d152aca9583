"""Machine-learning substrate: NumPy MLP, descriptors, MLXC training."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {
        "descriptors": (
            "descriptors_from_spin_density", "feature_map", "network_inputs",
            "network_inputs_with_partials", "phi_spin_factor", "reduced_gradient",
        ),
        "nn": ("Adam", "MLP", "elu", "elu_prime"),
        "training": ("MLXCTrainer", "TrainingSample", "assemble_sample"),
    },
)
