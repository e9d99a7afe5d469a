#!/usr/bin/env python3
"""End-to-end toy experiment: corpus -> stats -> train -> synth -> eval.

Reproduces the desk-scale pipeline in one command.  With the default
settings this takes a minute or two on a laptop CPU and leaves the corpus,
checkpoint, loss log, a synthesized WAV, and a CER table in the work
directory.
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

    # score the transcripts of the corpus against themselves as a demo of the
    # metric path (real use feeds ASR transcripts of synthesized audio)
    manifest = work / "manifest.tsv"
    rows = ["id\tdataset\tlanguage\treference\thypothesis\tsim_o"]
    for txt in sorted(corpus.glob("*.txt")):
        text = txt.read_text(encoding="utf-8").strip()
        rows.append(f"{txt.stem}\ttoy\ttonelang\t{text}\t{text}\t")
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return cli.main(["eval", "--manifest", str(manifest), "--mode", "cer"])


if __name__ == "__main__":
    sys.exit(main())
