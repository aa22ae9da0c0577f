"""seqattn: sequential feature-wise and token-wise attention re-weighting
over padded token-embedding batches, with a training/ablation harness."""

__version__ = "0.1.0"

from .tensor import Mask, Tensor
from .sam import SamConfig, init_sam_params, sam_forward

__all__ = ["Mask", "SamConfig", "Tensor", "init_sam_params", "sam_forward", "__version__"]
