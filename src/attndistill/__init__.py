"""Sparse distillation of convolutional teachers into local-attention students."""

import os
# One BLAS thread unless the caller chose otherwise, because `tensor._halves`'
# worker thread owns the second core (a no-grad forward's batch halves, a
# recorded pass's large ops); numpy reads these variables only when it loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import TrainConfig
from .distill import DistillConfig
from .errors import (
    AttnDistillError,
    ConfigError,
    ContractError,
    FormatError,
    NumericError,
    ShapeError,
    TrainingDiverged,
)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "TrainConfig",
    "DistillConfig",
    "Tensor",
    "AttnDistillError",
    "ConfigError",
    "ContractError",
    "FormatError",
    "NumericError",
    "ShapeError",
    "TrainingDiverged",
    "__version__",
]
