#!/usr/bin/env python3
"""End-to-end toy experiment: corpus -> stats -> train -> synth.

Reproduces the desk-scale pipeline in one command.  With the default
settings this takes a minute or two on a laptop CPU and leaves the corpus,
mel stats, checkpoint, loss log and a synthesized WAV in the work
directory.  It scores nothing: a CER needs ASR transcripts of the
synthesized audio, and the corpus transcripts scored against themselves
read 0 whatever the model does.
"""

import argparse
import os
import sys
from pathlib import Path

from difftts import cli, toydata

TOY_CONFIG = """\
audio.hop_length=512
model.d_model=128
model.n_enc_blocks=2
model.n_heads=2
model.d_spk=16
model.dec_channels=32
train.batch_size=1
train.epochs={epochs}
train.seed={seed}
train.checkpoint_every=100
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("work_dir", help="directory for corpus and artifacts")
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--gamma", type=float, default=1.0)
    args = ap.parse_args()

    # relative paths throughout: the checkpoint then stores its stats path
    # relative to itself, the same wherever the work directory lies
    work = Path(os.path.relpath(args.work_dir))
    corpus = work / "corpus"
    work.mkdir(parents=True, exist_ok=True)
    toydata.make_corpus(corpus, n_speakers=2, utts_per_speaker=4, seconds=5.0, seed=0)
    cfg_path = work / "toy.cfg"
    cfg_path.write_text(TOY_CONFIG.format(epochs=args.epochs, seed=args.seed),
                        encoding="utf-8")

    ckpt = work / "model.ckpt"
    steps = [
        ["stats", "--corpus", corpus, "--config", cfg_path, "--out", work / "melstats.bin"],
        ["train", "--corpus", corpus, "--config", cfg_path, "--out", ckpt,
         "--stats", work / "melstats.bin", "--log", work / "losses.csv"],
        ["synth", "--checkpoint", ckpt, "--text", "abda cefg ba",
         "--ref", corpus / "spk1_u0.wav", "--out", work / "synth.wav",
         "--gamma", str(args.gamma), "--steps", "50", "--seed", "7"],
    ]
    for argv in steps:
        print("+ difftts " + " ".join(str(a) for a in argv))
        code = cli.main([str(a) for a in argv])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
