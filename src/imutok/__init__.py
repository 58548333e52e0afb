"""Jitter-reduced tokenization of inertial motion signals.

Pipeline: synthesize virtual IMU data from skeletal motion, learn discrete
motion and IMU codebooks (stage 1: motion autoencoder with a quantized
bottleneck; stage 2: IMU tokenizer matched to the frozen motion latent
space), then reconstruct motion from token streams. Quantization absorbs
sensor noise and drift that a continuous regressor passes through.
"""

__version__ = "0.1.0"

# ``cli`` is left out: importing it here would load it before
# ``python -m imutok.cli`` runs it as __main__, and runpy warns about that
from . import (checkpoint, evalbench, fileio, geom, gradnet, imusim, models, motion,
               skeleton, stream, trainer, vqcodec)

__all__ = [
    "checkpoint", "evalbench", "fileio", "geom", "gradnet", "imusim", "models",
    "motion", "skeleton", "stream", "trainer", "vqcodec", "__version__",
]
