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

__version__ = "0.1.0"
