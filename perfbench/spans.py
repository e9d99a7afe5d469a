"""Spans recorded from the benchmark around calls into difftts modules.

Each traced function is replaced at the name its caller looks up: a module
global that another module reads at call time (``diffusion.score_net`` is
reached from ``cfg_score`` and ``diffusion_loss`` that way), a name that
``pipeline`` bound with ``from ... import`` (``pipeline.wav_to_mel``), or a
method on its class (``Tensor.backward``).  Nothing inside ``src`` changes.

A wrapper costs one attribute test while the tracer is disabled, so a run
can switch tracing on and off between operations and compare the two.
"""

from __future__ import annotations

import functools
import inspect
import os
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the tracer's span list, -1 at top level
    value: float = 0.0   # per-span count: frames, cells, bytes or iterations

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if measure is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if measure is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.value = float(measure(bound.arguments))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the eleven layers."""
    from difftts import (aligner, checkpoint, corpus, diffusion, durpred, encoder,
                         evalkit, pipeline, speaker)
    from difftts import numcore as nc

    w = tracer.wrap
    w(nc.Tensor, "backward", "numcore.backward")
    w(nc.Adam, "step", "numcore.adam_step")
    w(encoder, "encode", "encoder.encode")
    w(encoder, "expand_mu", "encoder.expand_mu")
    w(encoder, "encoder_prior_loss", "encoder.prior_loss")
    w(aligner, "gaussian_log_prior", "aligner.log_prior")
    w(aligner, "mas", "aligner.mas")
    w(durpred, "crop_reference", "durpred.crop_reference")
    w(durpred, "crop_window", "durpred.crop_window")
    w(durpred, "cross_attend", "durpred.cross_attend")
    w(durpred, "predict_log_durations", "durpred.predict_log_durations")
    w(durpred, "durations_to_frames", "durpred.durations_to_frames")
    w(durpred, "duration_loss", "durpred.duration_loss")
    # embed_baseline reaches embed_tensor through the module global, so one
    # name covers both; only the outermost span of a name is counted
    w(speaker, "embed_tensor", "speaker.embed")
    w(speaker, "embed_baseline", "speaker.embed")
    w(diffusion, "diffusion_loss", "diffusion.loss")
    w(diffusion, "score_net", "diffusion.score_net",
      measure=lambda a: a["x_t"].shape[0])
    w(diffusion, "cfg_score", "diffusion.cfg_score")
    w(diffusion, "reverse_sample", "diffusion.reverse_sample")
    w(pipeline, "wav_to_mel", "audio.wav_to_mel")
    w(pipeline, "broadcast_mean", "audio.broadcast_mean")
    w(pipeline, "griffin_lim", "audio.griffin_lim",
      measure=lambda a: a["iterations"])
    w(corpus, "load_corpus", "corpus.load_corpus")
    w(checkpoint, "save_checkpoint", "checkpoint.save",
      measure=lambda a: os.path.getsize(a["path"]))
    w(checkpoint, "load_checkpoint", "checkpoint.load")
    w(evalkit, "read_manifest", "evalkit.read_manifest")
    w(evalkit, "aggregate", "evalkit.aggregate")
    w(evalkit, "cer", "evalkit.cer")
    w(evalkit, "wer", "evalkit.wer")
    w(evalkit, "edit_distance", "evalkit.edit_distance",
      measure=lambda a: len(a["ref"]) * len(a["hyp"]))
    w(evalkit, "render_table", "evalkit.render_table")
    w(pipeline, "save_trainer", "pipeline.save_trainer")
    w(pipeline, "load_trainer", "pipeline.load_trainer")
    w(pipeline, "synthesize", "pipeline.synthesize")


_SETUP = {"corpus.load_corpus", "pipeline.load_trainer", "pipeline.save_trainer",
          "checkpoint.save", "checkpoint.load"}

# The spans each workload must fire; every other span is a predicted bypass
# and must fire zero times.  Training never samples, runs Griffin-Lim or
# scores text; synthesis never aligns, backpropagates or steps Adam; scoring
# never touches the model.
EXPECTED = {
    "train-toy": _SETUP | {
        "numcore.backward", "numcore.adam_step",
        "encoder.encode", "encoder.expand_mu", "encoder.prior_loss",
        "aligner.log_prior", "aligner.mas",
        "durpred.crop_reference", "durpred.crop_window", "durpred.cross_attend",
        "durpred.predict_log_durations", "durpred.duration_loss",
        "speaker.embed", "diffusion.loss", "diffusion.score_net",
    },
    "synth-guided": _SETUP | {
        "pipeline.synthesize", "audio.wav_to_mel", "encoder.encode", "encoder.expand_mu",
        "durpred.crop_window", "durpred.cross_attend", "durpred.predict_log_durations",
        "durpred.durations_to_frames", "speaker.embed", "audio.broadcast_mean",
        "diffusion.reverse_sample", "diffusion.cfg_score", "diffusion.score_net",
        "audio.griffin_lim",
    },
    "eval-manifest": {
        "evalkit.read_manifest", "evalkit.aggregate", "evalkit.cer", "evalkit.wer",
        "evalkit.edit_distance", "evalkit.render_table",
    },
}


def coverage_errors(workload: str, spans: list[Span]) -> list[str]:
    fired = {s.name for s in spans}
    expected = EXPECTED[workload]
    errors = [f"expected span {n} never fired" for n in sorted(expected - fired)]
    errors += [f"bypass span {n} fired" for n in sorted(fired - expected)]
    return errors


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans of one name, leaving out those nested inside another of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def total_seconds(spans: list[Span], name: str) -> float:
    return sum(s.seconds for s in outermost(spans, name))


def children_seconds(spans: list[Span], index: int) -> float:
    return sum(s.seconds for s in spans if s.parent == index)


# per-layer metrics in milliseconds per unit of work, from the spans they sum
PER_UNIT_MS = {
    "numcore.backward_ms": ("numcore.backward",),
    "numcore.adam_step_ms": ("numcore.adam_step",),
    "encoder.encode_ms": ("encoder.encode",),
    "aligner.log_prior_ms": ("aligner.log_prior",),
    "aligner.mas_ms": ("aligner.mas",),
    "durpred.forward_ms": ("durpred.cross_attend", "durpred.predict_log_durations"),
    "speaker.embed_ms": ("speaker.embed",),
    "diffusion.loss_ms": ("diffusion.loss",),
    "diffusion.reverse_sample_ms": ("diffusion.reverse_sample",),
    "diffusion.score_net_ms": ("diffusion.score_net",),
    "audio.wav_to_mel_ms": ("audio.wav_to_mel",),
    "audio.griffin_lim_ms": ("audio.griffin_lim",),
    "evalkit.read_manifest_ms": ("evalkit.read_manifest",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], units: int) -> dict[str, float]:
    """Metrics every workload derives the same way from its traced spans.

    ``units`` is the number of traced units of work: training steps,
    synthesize calls or manifest passes.  A layer the workload bypasses
    reads 0.
    """
    out = {name: 1e3 * _ratio(sum(total_seconds(spans, n) for n in names), units)
           for name, names in PER_UNIT_MS.items()}
    saves = outermost(spans, "checkpoint.save")
    out["checkpoint.save_ms"] = 1e3 * _ratio(sum(s.seconds for s in saves), len(saves))
    out["checkpoint.save_bytes"] = _ratio(sum(s.value for s in saves), len(saves))
    score = outermost(spans, "diffusion.score_net")
    out["diffusion.score_net_calls"] = _ratio(len(score), units)
    out["diffusion.score_net_us_per_frame"] = 1e6 * _ratio(sum(s.seconds for s in score),
                                                           sum(s.value for s in score))
    gl = outermost(spans, "audio.griffin_lim")
    out["audio.gl_iter_ms"] = 1e3 * _ratio(sum(s.seconds for s in gl), sum(s.value for s in gl))
    index = {id(s): i for i, s in enumerate(spans)}
    calls = outermost(spans, "pipeline.synthesize")
    out["pipeline.synth_self_ms"] = 1e3 * _ratio(
        sum(s.seconds - children_seconds(spans, index[id(s)]) for s in calls), len(calls))
    dist = outermost(spans, "evalkit.edit_distance")
    for mode in ("cer", "wer"):
        parents = {index[id(s)] for s in outermost(spans, f"evalkit.{mode}")}
        mine = [s for s in dist if s.parent in parents]
        out[f"evalkit.edit_distance_ms.{mode}"] = 1e3 * _ratio(sum(s.seconds for s in mine), units)
        out[f"evalkit.edit_distance_calls.{mode}"] = _ratio(len(mine), units)
    out["evalkit.edit_distance.cells_per_s"] = _ratio(sum(s.value for s in dist),
                                                      sum(s.seconds for s in dist))
    return out


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-call time of the set-up steps every model workload shares."""
    out = {}
    for name in ("corpus.load_corpus", "pipeline.load_trainer"):
        calls = outermost(spans, name)
        out[f"{name}_ms"] = 1e3 * _ratio(sum(s.seconds for s in calls), len(calls))
    return out
