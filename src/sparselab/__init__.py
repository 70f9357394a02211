"""Desk-scale sparse neural network training laboratory."""

from sparselab.autodiff import (
    Tensor,
    backward,
    finite_diff_grad,
    hvp_complex_step,
    hvp_finite_diff,
)
from sparselab.datasets import Dataset, load_idx_images, make_synthetic
from sparselab.diagnostics import (
    ProbeConfig,
    activation_sparsity,
    avg_gradient_flow,
    eigvec_perturb_scan,
    landscape_slice,
    top_hessian_eigs,
)
from sparselab.ghost import GhostConfig, alpha_at, beta_at
from sparselab.layers import Model, build_model
from sparselab.masks import (
    Mask,
    apply_mask,
    grasp_mask,
    imp_lth,
    layer_collapse_check,
    magnitude_mask,
    random_mask,
    snip_mask,
    synflow_mask,
)
from sparselab.rescale import LRsIConfig, ScaleSet, apply_scales, learn_scales
from sparselab.training import (
    RunRecord,
    TrainConfig,
    TrainResult,
    lr_at,
    sgd_step,
    train,
)

__all__ = [
    "Tensor", "backward", "finite_diff_grad", "hvp_finite_diff",
    "hvp_complex_step",
    "Dataset", "make_synthetic", "load_idx_images",
    "ProbeConfig", "activation_sparsity", "avg_gradient_flow", "top_hessian_eigs",
    "eigvec_perturb_scan", "landscape_slice",
    "GhostConfig", "beta_at", "alpha_at",
    "Model", "build_model",
    "Mask", "random_mask", "magnitude_mask", "snip_mask", "grasp_mask", "synflow_mask",
    "imp_lth", "apply_mask", "layer_collapse_check",
    "LRsIConfig", "ScaleSet", "learn_scales", "apply_scales",
    "TrainConfig", "TrainResult", "RunRecord", "train", "sgd_step", "lr_at",
]

__version__ = "0.1.0"
