"""seqattn: sequential feature-wise and token-wise attention re-weighting
over padded token-embedding batches, with a training/ablation harness."""

__version__ = "0.1.0"

from .tensor import Mask, Tensor, backward, masked_avgpool, masked_maxpool, masked_softmax, matmul, no_grad, sigmoid
from .gradcheck import finite_diff_check
from .sam import (
    FfnParams,
    Order,
    SamConfig,
    SamParams,
    SamTrace,
    af_fam_apply,
    fam_map,
    ffn_forward,
    init_ffn,
    init_sam_params,
    sam_forward,
    tam_apply,
    tam_map,
)

__all__ = [
    "Mask",
    "Tensor",
    "backward",
    "masked_avgpool",
    "masked_maxpool",
    "masked_softmax",
    "matmul",
    "no_grad",
    "sigmoid",
    "finite_diff_check",
    "FfnParams",
    "Order",
    "SamConfig",
    "SamParams",
    "SamTrace",
    "af_fam_apply",
    "fam_map",
    "ffn_forward",
    "init_ffn",
    "init_sam_params",
    "sam_forward",
    "tam_apply",
    "tam_map",
    "__version__",
]
