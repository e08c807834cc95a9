"""Robust multi-view learning for feature sets and dissimilarity matrices.

Feature sets are fused into a shared latent space by half-quadratic
alternating solvers with bounded correntropy-type losses (plus L2 and Cauchy
baselines); dissimilarity matrices are fused by robust Euclidean embedding
with L1 or correntropy costs on the PSD cone.  Synthetic noise generators
and evaluation utilities round out an experiment harness driven by the
``robustmv`` command-line tool.
"""

from .losses import CauchyScale, GgdParams, cauchy_loss, correntropy_kernel, gc_loss
from .trace import NumericalError, SolverTrace
from .features import (
    CmvConfig,
    IntactSpaceModel,
    MultiViewFeatureSet,
    cauchymv_fit,
    cemv_fit,
    cmv_fit,
    instance_weight_profile,
    l2mv_fit,
    normalize_views,
)
from .embedding import (
    DissimilarityViews,
    EmbedConfig,
    EmbeddingResult,
    b_to_d,
    cmds,
    cmvree_gradient,
    double_center,
    f0_objective,
    f_objective,
    hadamard_combine,
    median_kernel_size,
    mvree_subgradient,
    psd_project,
    ree_fit,
)
from .datagen import (
    NoiseSpec,
    corrupt_instances,
    corrupt_pixels,
    gen_cluster_retrieval_views,
    gen_labeled_multiview,
    gen_planted_multiview,
    gen_point_set_views,
)
from .evaluation import (
    LabeledSplit,
    RetrievalScore,
    confusion_matrix,
    knn_classify,
    procrustes_align,
    procrustes_rmse,
    retrieval_topk,
    seeded_split,
)

__version__ = "0.1.0"
