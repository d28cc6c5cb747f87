"""Spectral analysis of biased representations and a self-supervised
debiasing pipeline built on rank-regularized contrastive pretraining and
error-set upweighting."""

__version__ = "0.1.0"

from .spectral import (
    auto_correlation,
    cluster_reorder,
    effective_rank,
    normalized_spectrum,
    rank_loss,
    rank_loss_grad,
    svd_values,
)
from .losses import UpweightSpec, cross_entropy, debias_loss, nt_xent, stage1_loss
from .data import (
    BiasedDataset,
    GenConfig,
    cmnist_from_idx,
    gen_colorpoints,
    label_fraction_split,
    make_unbiased_testset,
    split,
)
from .nn import DenseNet, cosine_lr, load_checkpoint, save_checkpoint
from .pipeline import (
    ErrorSet,
    ExperimentConfig,
    MetricsReport,
    Model,
    TrainingDiverged,
    bias_metric,
    debiased_linear_eval,
    erm_train,
    error_set_quality,
    evaluate,
    finetune_semisup,
    identify_error_set,
    pretrain_biased,
    pretrain_main,
    stream,
)
from .manifest import RunManifest, hash_path, write_manifest

__all__ = [
    "auto_correlation",
    "cluster_reorder",
    "effective_rank",
    "normalized_spectrum",
    "rank_loss",
    "rank_loss_grad",
    "svd_values",
    "UpweightSpec",
    "cross_entropy",
    "debias_loss",
    "nt_xent",
    "stage1_loss",
    "BiasedDataset",
    "GenConfig",
    "cmnist_from_idx",
    "gen_colorpoints",
    "label_fraction_split",
    "make_unbiased_testset",
    "split",
    "DenseNet",
    "cosine_lr",
    "load_checkpoint",
    "save_checkpoint",
    "ErrorSet",
    "ExperimentConfig",
    "MetricsReport",
    "Model",
    "TrainingDiverged",
    "bias_metric",
    "debiased_linear_eval",
    "erm_train",
    "error_set_quality",
    "evaluate",
    "finetune_semisup",
    "identify_error_set",
    "pretrain_biased",
    "pretrain_main",
    "stream",
    "RunManifest",
    "hash_path",
    "write_manifest",
    "__version__",
]
