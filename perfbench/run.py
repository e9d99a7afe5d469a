#!/usr/bin/env python3
"""Benchmark for difftts: set up one workload, run it for a fixed time, check it.

    python3 perfbench/run.py --workload synth-guided --seed 3 --seconds 20 --trace 0

Workloads are ``train-toy``, ``synth-guided`` and ``eval-manifest`` (see
BENCHMARK.json).  Every input is generated from ``--seed``.  Set-up runs
several times and its median is ``setup_s``; the timed run then repeats
the workload's operation, one at a time, for ``--seconds``.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` spans are recorded around calls into each difftts module,
the result holds the per-layer metrics, and every span a workload should
fire (and none it should bypass) must have fired.

Environment, summary and output digests go to standard output first; the
last line is the JSON result.  Exits 2 without a result when difftts
cannot be imported, and 1 when set-up fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# one BLAS thread on both sides of every comparison: the matrices are small,
# and a fixed count keeps timings and float results repeatable
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# numpy is imported inside functions: it must load after the BLAS thread
# variables are set in main()


def environment() -> dict:
    import numpy as np
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def overhead_pct(rounds: list[tuple[float, bool]]) -> float:
    """Median traced round over median untraced round, as a percentage above 1."""
    on = [s for s, traced in rounds if traced]
    off = [s for s, traced in rounds if not traced]
    return 100.0 * (median(on) / median(off) - 1.0)


def measure(args, work: Path, spec: dict) -> dict:
    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.enabled = True
    setup_times = []
    for r in range(SETUP_REPEATS):
        wl = workloads.WORKLOADS[args.workload]()
        where = work / f"setup{r}"
        where.mkdir()
        start = perf_counter()
        wl.setup(args.seed, where)
        setup_times.append(perf_counter() - start)
    correct = True
    if tracer is None:
        wl.run(args.seconds, None)
        values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "op_ms.p50": 1e3 * percentile(wl.op_seconds, 50),
            "op_ms.p90": 1e3 * percentile(wl.op_seconds, 90),
            **wl.end_to_end(),
        }
        section = spec["end_to_end"]
    else:
        setup_spans = tracer.take()
        tracer.enabled = False
        wl.run(args.seconds, tracer)
        run_spans = tracer.take()
        tracer.uninstall()
        errors = spans.coverage_errors(wl.name, setup_spans + run_spans)
        for e in errors:
            print(f"coverage: {e}", file=sys.stderr)
        correct = not errors
        values = {**spans.layer_metrics(run_spans, wl.units), **spans.setup_metrics(setup_spans),
                  **wl.own_layers(run_spans), "trace.overhead_pct": overhead_pct(wl.rounds)}
        section = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in section}
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if tracer is None and set(values) != set(units):
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(set(units) - set(values))}")

    summary = {name: {"value": v, "unit": u} for name, (v, u) in wl.summary().items()}
    summary["setup_s"] = {"value": median(setup_times), "unit": "s"}
    summary["setup_s.first"] = {"value": setup_times[0], "unit": "s"}
    summary["error_rate"] = {"value": wl.failed / max(wl.attempted, 1), "unit": "ratio"}
    summary["samples"] = {"value": len(wl.op_seconds), "unit": "count"}
    print("env " + json.dumps(environment()))
    print("summary " + json.dumps(summary))
    print("digests " + json.dumps(wl.digests))
    return {
        "correct": correct and wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        # a layer the workload never reaches reads 0
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train-toy", "synth-guided", "eval-manifest"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import difftts  # noqa: F401
    except ImportError as exc:
        print(f"error: difftts is not importable from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        result = measure(args, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
