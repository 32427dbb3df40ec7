"""One batch of one workload in a fresh process.

``run.py`` starts this script once per batch.  It sets up the workload from
the seed, runs the batch's operations one after another (timed), reads the
process's peak RSS, then checks every result against its reference
(untimed) and prints one JSON object as its last line.  With ``--trace 1``
the batch runs under :class:`spans.Tracer`, which is removed before the
checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    import mpmath
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def run_once(workload: str, seed: int, rep: int, trace: bool, small: bool, workdir: Path, t_spawn=None, spans_path=None) -> dict:
    """Set up, run and check one batch; returns the batch's record."""
    if t_spawn is None:
        t_spawn = time.monotonic()
    rng = np.random.default_rng([seed, rep])
    tracer = spans.Tracer() if trace else None
    outcomes = []
    with tracer or contextlib.nullcontext():
        batch = workloads.build(workload, rng, small, workdir)
        t_first = time.monotonic()
        if tracer:
            tracer.phase = "run"
        for i, op in enumerate(batch.ops):
            if tracer:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            outcomes.append((result, time.perf_counter() - t0, error))
        wall_s = time.monotonic() - t_first
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = []
    accuracy: dict[str, float] = {}
    for op, (result, _, error) in zip(batch.ops, outcomes):
        if error is None:
            try:
                ok, acc = op.check(result)
            except Exception:
                ok, acc, error = False, {}, traceback.format_exc(limit=3)
            for key, val in acc.items():
                accuracy[key] = max(accuracy.get(key, 0.0), float(val))
            if not ok and error is None:
                error = "result missed its reference check"
        if error is not None:
            failures.append(f"{op.name}: {error.strip().splitlines()[-1]}")
    record = {
        "setup_s": t_first - t_spawn,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "attempted": len(batch.ops),
        "failed": len(failures),
        "failures": failures,
        "ops": [[op.name, dt] for op, (_, dt, _) in zip(batch.ops, outcomes)],
        "accuracy": accuracy,
        "counters": dict(batch.counters),
    }
    if tracer:
        kinds = [op.kind for op in batch.ops]
        record["layers"], record["samples"] = spans.layer_metrics(tracer.spans, kinds, batch.counters["cold_shells"])
        if spans_path is not None:
            tracer.dump(spans_path)
    batch.cleanup()
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="file for the spans of a traced batch")
    args = ap.parse_args()
    record = run_once(
        args.workload,
        args.seed,
        args.rep,
        bool(args.trace),
        args.small,
        Path(args.workdir),
        t_spawn=args.t0,
        spans_path=args.spans,
    )
    if args.rep == 0:
        record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
