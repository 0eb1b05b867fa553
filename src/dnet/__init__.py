"""Dilated multi-scale segmentation toolkit.

A self-contained implementation of an encoder/decoder vessel-segmentation
network and all of its numeric building blocks: a small reverse-mode
autodiff engine over 4-D tensors, the convolution operator family
(dilated, depthwise, transposed, pooling, pooled-map upsampling),
receptive-field and sampling-coverage analysis, the training objective and
optimizer, evaluation metrics with ROC/PR curves, and a CLI for desk-scale
experiments on synthetic data.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DnetError,
    GraphError,
    ManifestError,
    PnmError,
    ShapeError,
)
from .tensor import (
    Graph,
    Tensor,
    backward,
    concat_channels,
    default_dtype,
    recording,
    using_dtype,
)
from .convops import (
    ConvKernel,
    bilinear_upsample,
    conv2d,
    depthwise_conv2d,
    deterministic_mode,
    dilated_kernel_extent,
    global_avg_pool,
    max_pool,
    same_pads,
    transposed_conv,
    using_deterministic,
)
from .receptive import (
    CoverageReport,
    LayerSpec,
    RFReport,
    coverage_map,
    rf_single,
    rf_stack,
)
from .losses import total_loss
from .metrics import ConfusionCounts, CurveReport, MetricsReport, confusion, metrics, roc_pr_curves
from .model import (
    DNet,
    DNetConfig,
    Decoder,
    Encoder,
    MSIF,
    ResidualBottleneck,
    encoder_layer_specs,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    poly_lr,
    predict_probs,
    synth_vessels,
    train,
)

__version__ = "0.1.0"
