"""How much does classifier-free guidance help alignment?

Loads the checkpoints a quickstart.sh run leaves behind, samples a handful
of held-out prompts at several guidance strengths, and scores each image
against its prompt with the rendering-aware oracle. Expect the mean score
to climb from lambda=0 (unconditional mixing) toward lambda around 1-1.5,
then flatten or dip as extrapolation starts to distort token statistics.
"""

import sys
from pathlib import Path

import numpy as np

from ttig import checkpoint, metrics, sampling, scenes, textproc

OUT = Path(__file__).parent / "demo_out"
LAMBDAS = (0.0, 0.5, 1.0, 1.5, 2.0)
N_PROMPTS = 12
N_SAMPLES = 4


def main():
    if not (OUT / "model").exists():
        sys.exit("run demos/quickstart.sh first to train the checkpoints")
    model = checkpoint.load_model(OUT / "model")
    tok = checkpoint.load_tokenizer(OUT / "tok")
    vocab = textproc.load_vocab(OUT / "model" / "vocab.json")

    _, held = scenes.split_captions()
    rng = np.random.default_rng(0)
    prompts = list(rng.choice(held, size=N_PROMPTS, replace=False))

    print(f"{N_PROMPTS} held-out prompts, {N_SAMPLES} samples each")
    print(f"{'lambda':>7} {'mean alignment':>15}")
    for lam in LAMBDAS:
        cfg = sampling.SamplerConfig(guidance=lam, n_samples=N_SAMPLES, seed=11)
        scores = []
        for prompt in prompts:
            out = sampling.generate(model, vocab, tok, prompt, cfg)
            scores += metrics.caption_fidelities(out.images, prompt).tolist()
        print(f"{lam:>7.1f} {np.mean(scores):>15.3f}")


if __name__ == "__main__":
    main()
