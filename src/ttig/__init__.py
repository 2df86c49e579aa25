"""Desk-scale two-stage text-to-image pipeline on a numpy autodiff core.

Subpackage map:
    tensor       reverse-mode tape over numpy with a fixed op catalog
    textproc     byte-level BPE tokenizer
    scenes       synthetic captioned-shapes dataset, renderer, prompt file loader
    vq           discrete image tokenizer (patch transformer + codebook)
    optim        adafactor-style optimizer with factored second moments
    seq2seq      text-to-image-token encoder/decoder transformer
    sampling     classifier-free-guided ancestral sampling and reranking
    contrastive  dual-encoder scorer, exact top-k image retrieval
    metrics      frechet distance, caption alignment oracle
    cli          subcommand front end
"""

import os

# One BLAS thread unless the caller set its own count: two processes with
# default BLAS threading on a 2-vCPU host ran 3.3x slower per training step.
# Set here, before any submodule imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
