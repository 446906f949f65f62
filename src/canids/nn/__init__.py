from .tensor import Parameter, Tensor, no_grad, seeded_init
from .ops import (add, astype, bce_loss, dense_stack, dropout, gcn_conv, global_mean_pool, gru_cell,
                  gru_stack, linear, matmul, mse_loss, mul, relu, sigmoid, sub, take_step, tanh)
from .optim import adam_step, clip_global_norm, fit
from .checkpoint import (CheckpointError, atomic_path, load_checkpoint, read_csv, restore_parameters,
                         save_checkpoint, write_atomic, write_csv)
from .module import Module

__all__ = [
    "Tensor", "Parameter", "Module", "no_grad", "seeded_init",
    "add", "sub", "mul", "matmul", "linear", "relu", "sigmoid", "tanh", "dropout",
    "dense_stack", "gcn_conv", "global_mean_pool", "gru_cell", "gru_stack", "take_step",
    "astype",     "mse_loss", "bce_loss",
    "adam_step", "clip_global_norm", "fit",
    "save_checkpoint", "load_checkpoint", "restore_parameters", "write_atomic", "atomic_path",
    "write_csv", "read_csv", "CheckpointError",
]
