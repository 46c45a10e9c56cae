"""Self-supervised representation learning by smoothed ranking.

Trains an encoder so that each view of an image ranks the other views
of the same image above views of different images, by directly
optimizing a sigmoid-smoothed average precision over every query in a
multi-view batch.  Ships with an exact-AP oracle, analytic gradients,
an InfoNCE baseline, synthetic cluster datasets, a linear-probe and
retrieval evaluation harness, and a CLI for experiments.
"""

from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    render_config,
    with_overrides,
)
from .contrastive import ContrastiveConfig, ContrastiveResult, info_nce_loss
from .data import (
    LabeledDataset,
    SyntheticSpec,
    generate_synthetic,
    load_binary_images,
    save_binary_images,
    split,
)
from .encoder import (
    DivergenceError,
    EncoderConfig,
    EncoderParams,
    OptimizerConfig,
    adam_step,
    backward,
    extract_features,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .experiment import (
    MetricsRecord,
    RunResult,
    compare_losses,
    run_ablation_grid,
    run_experiment,
)
from .probe import ProbeConfig, ProbeResult, train_linear_probe
from .ranking import (
    ApResult,
    SmoothingConfig,
    batch_smooth_ap_loss,
    exact_ap,
    retrieval_map,
    smooth_ap,
    smooth_ap_grad,
)
from .similarity import DegenerateInputError, backprop_similarity, cosine_similarity_matrix, normalize
from .views import (
    AugmentationPolicy,
    augment_image,
    augment_vector,
    eval_view_dataset,
    sample_batch,
)

__version__ = "0.1.0"

__all__ = [
    "ApResult",
    "AugmentationPolicy",
    "ConfigError",
    "ContrastiveConfig",
    "ContrastiveResult",
    "DegenerateInputError",
    "DivergenceError",
    "EncoderConfig",
    "EncoderParams",
    "ExperimentConfig",
    "LabeledDataset",
    "MetricsRecord",
    "OptimizerConfig",
    "ProbeConfig",
    "ProbeResult",
    "RunResult",
    "SmoothingConfig",
    "SyntheticSpec",
    "adam_step",
    "augment_image",
    "augment_vector",
    "backprop_similarity",
    "backward",
    "batch_smooth_ap_loss",
    "compare_losses",
    "cosine_similarity_matrix",
    "eval_view_dataset",
    "exact_ap",
    "extract_features",
    "forward",
    "generate_synthetic",
    "info_nce_loss",
    "init_params",
    "load_binary_images",
    "load_checkpoint",
    "load_config",
    "normalize",
    "parse_config",
    "render_config",
    "retrieval_map",
    "run_ablation_grid",
    "run_experiment",
    "sample_batch",
    "save_binary_images",
    "save_checkpoint",
    "smooth_ap",
    "smooth_ap_grad",
    "split",
    "train_linear_probe",
    "with_overrides",
    "__version__",
]
