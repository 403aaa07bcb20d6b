"""Desk-scale comparison of occlusion-based and standard causal pretraining.

The package covers the full pipeline: byte-level BPE (`bpe`), corpus
preparation (`corpus`), a small reverse-mode tensor engine (`tensor`), a
decoder-only transformer (`model`), AdamW training with occlusion and
gradual unfreezing (`train`), perplexity/BLEU evaluation (`metrics`),
random hyperparameter sweeps (`sweep`), and the `occlm` CLI (`cli`).
"""

import os

# One OpenBLAS thread unless the environment says otherwise. Set before
# numpy loads: at this package's shapes a second BLAS thread only costs, and
# large training steps use the second core through row shards instead.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from . import errors  # noqa: F401  (import order: errors first, no deps)
from . import bpe, corpus, demo, metrics, model, sweep, tensor, train  # noqa: F401
