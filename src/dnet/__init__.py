"""Dilated multi-scale segmentation toolkit.

A self-contained implementation of an encoder/decoder vessel-segmentation
network and all of its numeric building blocks: a small reverse-mode
autodiff engine over 4-D tensors, the convolution operator family
(dilated, depthwise, transposed, pooling; a pooled map is upsampled as a
broadcast part of a convolution's input), receptive-field and
sampling-coverage analysis, the training objective and optimizer,
evaluation metrics with ROC/PR curves, and a CLI for desk-scale experiments
on synthetic data.

Each public name lives in its module (``dnet.tensor``, ``dnet.metrics``,
...); the package itself binds only ``__version__``.
"""

__version__ = "0.1.0"
