from .autodiff import ComputationGraph, Tensor
from .layers import (ActivationFault, Conv2d, Flatten, Linear, Model, Relu, build_cnn,
                     build_mlp, check_site, faults_active, load_checkpoint, model_checksum,
                     save_checkpoint, site_error)
from .training import (Adam, Sgd, evaluate, evaluate_detailed, make_optimizer, train,
                       train_lockstep)

__all__ = [
    "ActivationFault", "Adam", "ComputationGraph", "Conv2d", "Flatten",
    "Linear", "Model", "Relu", "Sgd", "Tensor", "build_cnn", "build_mlp", "check_site",
    "evaluate", "evaluate_detailed", "faults_active", "load_checkpoint", "make_optimizer",
    "model_checksum", "save_checkpoint", "site_error", "train", "train_lockstep",
]
