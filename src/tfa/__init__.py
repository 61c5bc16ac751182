"""Training feature attribution for small numpy models.

The package answers two questions about a trained model's prediction on a
test example: which training examples were responsible (gradient-cosine,
gradient-effect, influence-function and RelatIF rankings), and which pixels
of those training examples carried the responsibility (saliency maps taken
by differentiating the attribution score through the training input, with
SmoothGrad denoising). Closed-form ridge oracles pin down the semantics on
a problem where every quantity is exact, and two evaluation harnesses
(paired insertion, planted shortcut patches) measure whether the maps mean
anything. Everything runs on a from-scratch reverse-mode autodiff that
supports differentiating through its own backward pass.
"""

__version__ = "0.1.0"

from .autodiff import Graph, Node, backward, grad, kink_margin
from .datasets import FormatError, SyntheticShapesSpec, generate_synthetic, load_cifar10_binary
from .harness import (
    InterventionConfig,
    MisclassificationReport,
    PairedResult,
    PatchSpec,
    PatchSweepRow,
    apply_patch,
    explain_misclassification,
    make_patched_dataset,
    mask_insert,
    paired_insertion_experiment,
    patch_attribution_fraction,
    patch_sweep,
)
from .models import (
    ArchitectureSpec,
    Conv2d,
    Dataset,
    Dense,
    Flatten,
    LabeledExample,
    MaxPool,
    Model,
    ParamVector,
    Relu,
    TrainConfig,
    TrainHistory,
    init_params,
    sgd_step,
    tiny_cnn,
    train,
)
from .outputs import read_key_value, render_pgm_bytes, write_csv, write_grid_artifacts, write_manifest
from .ridge import (
    RidgeProblem,
    ToySetup,
    feature_contributions,
    leave_one_out_delta,
    representer_coefficients,
    ridge_fit,
)
from .rng import child_seed, stream
from .saliency import (
    SaliencyMap,
    channel_aggregate,
    smoothgrad_saliency,
    tfa_saliency,
)
from .tda import (
    AttributionRecord,
    DampedHessian,
    DegenerateGradientError,
    RankingResult,
    attribution_scores,
    dense_hessian,
    grad_cos,
    grad_effect,
    query_gradient,
    rank_training_set,
)
