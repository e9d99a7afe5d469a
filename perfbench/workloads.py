"""The three closed-loop workloads: one client, one operation at a time.

Each workload builds its state in ``setup`` (timed by the caller, several
times over), then ``run`` repeats its operation until the time is up and
checks every output.  With a tracer, ``run`` alternates traced and
untraced operations so that the tracing overhead is measured in the same
run as the per-layer numbers.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

from difftts import audio, corpus, evalkit, pipeline, textfront

import inputs
import oracle
from spans import Span, Tracer, outermost

# `difftts synth` defaults: guidance scale, sampler steps, sampler seed
GAMMA = 1.0
STEPS = 50
SYNTH_SEED = 0


def _report_failure(what: str) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class Call(NamedTuple):
    seconds: float
    audio_s: float
    frames: int
    text: str
    traced: bool


class Pass(NamedTuple):
    seconds: float
    cer_s: float
    wer_s: float
    traced: bool


def _toy_corpus(seed: int, work: Path):
    """Generate and load the toy corpus and write its mel stats, as `difftts stats` does."""
    cfg = inputs.toy_config(seed)
    inputs.make_corpus(work / "corpus", seed)
    utts = corpus.load_corpus(work / "corpus", cfg)
    stats_path = work / "melstats.bin"
    audio.save_mel_stats(stats_path, audio.mean_mel([u.mel for u in utts], cfg.audio))
    vocab = textfront.build_vocab([u.text for u in utts], cfg.token_mode)
    return cfg, utts, vocab, stats_path


class Workload:
    name = ""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def setup(self, seed: int, work: Path) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class TrainToy(Workload):
    """One `train_epochs` call over the toy corpus, checkpointing at the config's cadence."""

    name = "train-toy"
    min_epochs = 4

    def setup(self, seed, work):
        cfg, utts, vocab, self.stats_path = _toy_corpus(seed, work)
        trainer = pipeline.new_trainer(cfg, vocab)
        self.ckpt = work / "model.ckpt"
        # the first epoch is the warm-up: `difftts train --epochs 1`, then a
        # resume from its checkpoint as `difftts train --resume` does
        start = perf_counter()
        pipeline.train_epochs(trainer, utts, 1, checkpoint_path=self.ckpt,
                              stats_path=str(self.stats_path))
        self.warmup_s = perf_counter() - start
        self.trainer, _ = pipeline.load_trainer(self.ckpt, cfg)
        self.utts = utts
        self.steps_per_epoch = math.ceil(len(utts) / min(cfg.train.batch_size, len(utts)))
        self.chars = sum(len(u.text) for u in utts)
        self.words = sum(len(u.text.split()) for u in utts)

    def run(self, seconds, tracer):
        trainer = self.trainer
        # the epoch count that fills the time, judged from the warm-up epoch
        n = max(self.min_epochs, round(seconds / self.warmup_s))
        first = trainer.epoch
        stamps: list[float] = []

        def on_epoch(k: int) -> None:
            stamps.append(perf_counter())
            if k == 1:
                self.digests["params_epoch_%d" % (first + 1)] = self.params_digest()
            if tracer is not None:
                # even epochs are traced, and so is the checkpoint written
                # after the last one
                tracer.enabled = (k + 1) % 2 == 0 or k == n

        # the epoch clock reads the loss-log lines as train_epochs appends
        # them, so the loop runs exactly as `difftts train` runs it
        class EpochLog(list):
            def append(self, line):
                super().append(line)
                on_epoch(len(self))

        lines = EpochLog()
        t0 = perf_counter()
        try:
            pipeline.train_epochs(trainer, self.utts, n, log_lines=lines,
                                  checkpoint_path=self.ckpt, stats_path=str(self.stats_path))
        except Exception:
            _report_failure("train_epochs")
        self.total_s = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        for k in range(n):
            self.record(k < len(lines) and self._line_ok(lines[k], first + k + 1))
        self.digests["params_epoch_%d" % trainer.epoch] = self.params_digest()
        bounds = [t0] + stamps
        self.epochs = [(bounds[k], bounds[k + 1]) for k in range(len(stamps))]
        self.rounds = [(b - a, tracer is not None and (k + 1) % 2 == 0)
                       for k, (a, b) in enumerate(self.epochs)]
        self.op_seconds = [s for s, _ in self.rounds]

    @staticmethod
    def _line_ok(line: str, epoch: int) -> bool:
        fields = line.split(",")
        if len(fields) != 5 or fields[0] != str(epoch):
            return False
        try:
            return all(math.isfinite(float(v)) for v in fields[1:])
        except ValueError:
            return False

    def params_digest(self) -> str:
        return _digest(p.value.tobytes() for _, p in self.trainer.model.store.items())

    def end_to_end(self) -> dict[str, float]:
        done = len(self.epochs)
        return {"chars_per_s": self.chars * done / self.total_s,
                "words_per_s": self.words * done / self.total_s}

    def summary(self) -> dict[str, tuple[float, str]]:
        times = self.op_seconds
        return {"train_epoch_s.p50": (float(np.percentile(times, 50)), "s"),
                "train_epoch_s.p90": (float(np.percentile(times, 90)), "s"),
                "train_utts_per_s": (len(self.utts) * len(times) / self.total_s, "1/s")}

    @property
    def units(self) -> int:
        return self.steps_per_epoch * sum(1 for _, on in self.rounds if on)

    def own_layers(self, spans: list[Span]) -> dict[str, float]:
        """The training loop's self time: traced epochs less their top-level spans."""
        traced = [iv for iv, (_, on) in zip(self.epochs, self.rounds) if on]
        top = [s for s in spans if s.parent < 0]
        covered = sum(s.seconds for a, b in traced for s in top if a <= s.start and s.end <= b)
        own = sum(b - a for a, b in traced) - covered
        return {"pipeline.train_self_ms": 1e3 * own / self.units}


class SynthGuided(Workload):
    """Rounds of `synthesize` calls over texts of 1 s to 8 s, reference WAVs rotating."""

    name = "synth-guided"

    def setup(self, seed, work):
        cfg, utts, vocab, stats_path = _toy_corpus(seed, work)
        trainer = pipeline.new_trainer(cfg, vocab, utts)
        inputs.flatten_durations(trainer.model)
        ckpt = work / "model.ckpt"
        pipeline.save_trainer(ckpt, trainer, str(stats_path))
        # as `difftts synth`: config, vocabulary and stats path from the checkpoint
        trainer, stats_ref = pipeline.load_trainer(ckpt)
        self.model = trainer.model
        self.hop = trainer.model.cfg.audio.hop_length
        self.stats = audio.load_mel_stats(stats_ref)
        self.refs = [audio.load_wav(work / "corpus" / f"{u.utterance_id}.wav") for u in utts]
        self.texts = inputs.synth_texts(seed)
        self.synth(0)  # warm-up: the first call pays one-time costs

    def synth(self, i: int):
        return pipeline.synthesize(self.model, self.stats, self.texts[i % len(self.texts)],
                                   self.refs[i % len(self.refs)], gamma=GAMMA, steps=STEPS,
                                   seed=SYNTH_SEED)

    def _ok(self, result) -> bool:
        frames = result.durations.total()
        n = result.wave.samples.size
        return (result.mel.frames == frames and abs(n - frames * self.hop) <= self.hop
                and bool(np.isfinite(result.wave.samples).all()))

    def run(self, seconds, tracer):
        self.calls: list[Call] = []
        self.rounds = []
        waves = []
        start = perf_counter()
        while len(self.rounds) < 2 or perf_counter() - start < seconds:
            traced = tracer is not None and len(self.rounds) % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            round_s = 0.0
            for i in range(len(self.texts)):
                t0 = perf_counter()
                try:
                    result = self.synth(i)
                except Exception:
                    _report_failure("synthesize")
                    self.record(False)
                    continue
                dt = perf_counter() - t0
                round_s += dt
                self.record(self._ok(result))
                self.calls.append(Call(dt, result.wave.duration(), result.durations.total(),
                                       self.texts[i], traced))
                if not self.rounds:
                    waves.append(result.wave.samples.tobytes())
            # rounds, not calls, alternate, so traced and untraced rounds hold the same texts
            self.rounds.append((round_s, traced))
        if tracer is not None:
            tracer.enabled = False
        self.op_seconds = [c.seconds for c in self.calls]
        self.digests["waves_round_0"] = _digest(waves)

    def end_to_end(self):
        secs = sum(self.op_seconds)
        return {"chars_per_s": sum(len(c.text) for c in self.calls) / secs,
                "words_per_s": sum(len(c.text.split()) for c in self.calls) / secs}

    def summary(self):
        times = [1e3 * s for s in self.op_seconds]
        return {"synth_latency_ms.p50": (float(np.percentile(times, 50)), "ms"),
                "synth_latency_ms.p90": (float(np.percentile(times, 90)), "ms"),
                "synth_rtf": (sum(self.op_seconds) / sum(c.audio_s for c in self.calls), "s/s")}

    @property
    def units(self) -> int:
        return sum(1 for c in self.calls if c.traced)

    def own_layers(self, spans):
        traced = [c for c in self.calls if c.traced]
        calls = outermost(spans, "pipeline.synthesize")
        return {"synth.frames": sum(c.frames for c in traced) / len(traced),
                "synth.rtf": sum(s.seconds for s in calls) / sum(c.audio_s for c in traced)}


class EvalManifest(Workload):
    """Read a manifest, score it in CER and in WER mode, render both tables."""

    name = "eval-manifest"
    sample_every = 5

    def setup(self, seed, work):
        self.path = work / "manifest.tsv"
        inputs.write_manifest(self.path, seed)
        records = evalkit.read_manifest(self.path)
        self.chars = sum(len(oracle.normalize(r.reference)) for r in records)
        self.words = sum(len(oracle.normalize(r.reference).split()) for r in records)
        self.cells = {}
        for r in records:
            key = (r.dataset, r.language)
            self.cells[key] = self.cells.get(key, 0) + 1
        self.n_records = len(records)
        # warm-up on the eight shortest records
        short = sorted(records, key=lambda r: len(r.reference))[:8]
        for mode in ("cer", "wer"):
            evalkit.render_table(evalkit.aggregate(short, mode))
        longest = max(range(len(records)), key=lambda i: len(records[i].reference))
        self.sample = sorted(set(range(0, len(records), self.sample_every)) | {longest})

    def _table_ok(self, table) -> bool:
        return (table.skipped == 0 and set(table.cells) == set(self.cells)
                and all(table.cells[k][1] == n for k, n in self.cells.items())
                and all(math.isfinite(v) and v >= 0 for v, _ in table.cells.values()))

    def run(self, seconds, tracer):
        self.passes: list[Pass] = []
        start = perf_counter()
        k = 0
        records = None
        while k < 2 or perf_counter() - start < seconds:
            traced = tracer is not None and k % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            k += 1
            try:
                t0 = perf_counter()
                records = evalkit.read_manifest(self.path)
                t1 = perf_counter()
                cer_table = evalkit.aggregate(records, "cer")
                t2 = perf_counter()
                wer_table = evalkit.aggregate(records, "wer")
                t3 = perf_counter()
                rendered = (evalkit.render_table(cer_table, "tsv")
                            + evalkit.render_table(wer_table, "markdown"))
                t4 = perf_counter()
            except Exception:
                _report_failure("manifest pass")
                self.record(False)
                continue
            n_lines = 2 * (len(cer_table.datasets) + 1) + 1
            self.record(len(records) == self.n_records and self._table_ok(cer_table)
                        and self._table_ok(wer_table) and rendered.count("\n") == n_lines)
            self.passes.append(Pass(t4 - t0, t2 - t1, t3 - t2, traced))
            if len(self.passes) == 1:
                self.digests["tables_pass_0"] = _digest([rendered.encode("utf-8")])
        if tracer is not None:
            tracer.enabled = False
        self.rounds = [(p.seconds, p.traced) for p in self.passes]
        self.op_seconds = [p.seconds for p in self.passes]
        if records is None:
            records = evalkit.read_manifest(self.path)
        self._check_sample(records)

    def _check_sample(self, records) -> None:
        """Rescore a fixed sample with the benchmark's own DP; scores must match exactly."""
        for i in self.sample:
            r = records[i]
            for mode in ("cer", "wer"):
                want = oracle.score(r.reference, r.hypothesis, mode)
                try:
                    got = evalkit.aggregate([r], mode).cells[(r.dataset, r.language)][0]
                except Exception:
                    _report_failure("sample rescoring")
                    got = None
                if got != want:
                    print(f"{r.utterance_id} {mode}: library {got!r} != oracle {want!r}",
                          file=sys.stderr)
                self.record(got == want)

    def end_to_end(self):
        n = len(self.passes)
        return {"chars_per_s": self.chars * n / sum(p.cer_s for p in self.passes),
                "words_per_s": self.words * n / sum(p.wer_s for p in self.passes)}

    def summary(self):
        e2e = self.end_to_end()
        return {"eval_cer_chars_per_s": (e2e["chars_per_s"], "1/s"),
                "eval_wer_words_per_s": (e2e["words_per_s"], "1/s")}

    @property
    def units(self) -> int:
        return sum(1 for p in self.passes if p.traced)

    def own_layers(self, spans):
        return {}


WORKLOADS = {w.name: w for w in (TrainToy, SynthGuided, EvalManifest)}
