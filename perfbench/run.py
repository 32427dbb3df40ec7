#!/usr/bin/env python3
"""nlops benchmark: one workload, closed loop, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload dense_multiplier --seed 1 --seconds 55 --trace 0

One caller runs batches back to back, each in a fresh process
(``worker.py``), and starts the next one when the previous one has returned,
until ``--seconds`` is used up.  Every batch is checked against independent
references after its timed region.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` traced and untraced batches alternate
and it holds the per-layer metrics.  Earlier lines describe the run
environment and the per-operation timings; a copy of everything goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

import spans  # noqa: E402  (perfbench/ is this script's directory)

WORKLOADS = ("dense_multiplier", "direct_oracle", "measure_sweep", "cli_experiments")

#: BLAS and OpenMP pools pinned to one thread in every benchmark process.
#: nlops' own ``--threads`` is ignored today, so this is also the
#: single-threaded baseline.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: A batch that has not returned by then is killed and the run fails.
BATCH_TIMEOUT_S = 170.0

#: Accuracy metrics of the traced run: the largest error any check saw.
ACCURACY = (
    "weights.mu_hat.max_ref_err",
    "fields.route_rel_err.spherical",
    "fields.route_rel_err.radial",
    "measures.closed_form_err",
    "measures.ball2d_const_err",
)

NO_WAITING = (
    "nlops is single-threaded and never waits on another thread, a queue or I/O, "
    "and no layer retries: no waiting-time or retry metrics are reported."
)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_batch(args, rep: int, trace: bool, tag: str) -> dict:
    """Run one batch in a fresh worker process and return its record."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--rep", str(rep),
        "--trace", str(int(trace)),
        "--workdir", str(OUT / "work" / f"{tag}-{rep}"),
    ]
    if trace:
        cmd += ["--spans", str(OUT / "spans" / f"{tag}-{rep}.jsonl")]
    if args.small:
        cmd.append("--small")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=BATCH_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"batch {rep} exited with status {proc.returncode}:\n{proc.stderr[-4000:]}")
    record = json.loads(lines[-1])
    record["batch_s"] = time.monotonic() - t0
    return record


def run_loop(args, tag: str) -> tuple[list[dict], list[dict]]:
    """Closed loop over batches until the time budget is spent.

    Returns (untraced, traced) records.  A new batch starts only while the
    median batch so far still fits in the budget; each kind runs at least
    once.
    """
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    rep = 0
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        (traced if trace else plain).append(run_batch(args, rep, trace, tag))
        rep += 1
        elapsed = time.monotonic() - start
        typical = statistics.median(r["batch_s"] for r in plain + traced)
        if plain and (traced or not args.trace) and elapsed + typical > args.seconds:
            return plain, traced


def list_time(records: list[dict]) -> float:
    """Wall time of the workload's operation list: the sum over its
    operations of each one's median time across the batches.

    Every batch runs the same list on inputs of the same sizes, so operation
    i is comparable across batches, and a burst of load from other processes
    that hits a few operations of a batch does not move the medians.
    """
    per_op = zip(*([dt for _, dt in r["ops"]] for r in records))
    return sum(statistics.median(times) for times in per_op)


def middle(values: list):
    """Median; for counts the lower middle value, so a count stays a count."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def op_table(records: list[dict]) -> list[dict]:
    """Per-operation timing in ms: sample count, median, and the highest of
    p90/p99/p99.9 that has at least ten samples beyond it."""
    by_name: dict[str, list[float]] = {}
    for rec in records:
        for name, dt in rec["ops"]:
            by_name.setdefault(name.split(" ")[0], []).append(dt * 1e3)
    rows = []
    for name, vals in by_name.items():
        row = {"op": name, "count": len(vals), "p50_ms": statistics.median(vals)}
        tail = [q for q in (90.0, 99.0, 99.9) if len(vals) * (100.0 - q) / 100.0 >= 10]
        if tail:
            row[f"p{tail[-1]:g}_ms"] = spans.percentile(vals, tail[-1])
        rows.append(row)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = ap.parse_args()
    # a terminated run still stops and waits for its batch process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "nlops" / "__init__.py").is_file():
        print("nlops sources not found under src/; run from the repository root", file=sys.stderr)
        return 1
    for sub in ("work", "spans", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        plain, traced = run_loop(args, tag)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    everything = plain + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    wall = list_time(plain)
    if args.trace:
        values = {key: middle([r["layers"][key] for r in traced]) for key in traced[0]["layers"]}
        values.update(spans.pooled([r["samples"] for r in traced]))
        values["cli.csv_bytes"] = middle([r["counters"]["cli.csv_bytes"] for r in traced])
        for key in ACCURACY:
            values[key] = max((r["accuracy"].get(key, 0.0) for r in everything), default=0.0)
        values["trace.overhead_frac"] = list_time(traced) / wall - 1.0
        specs = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "pass_frac": (attempted - failed) / attempted,
        }
        specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    environment = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **plain[0].get("env", {}),
        "pinned_threads": PINNED_THREADS,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "batches": {"untraced": len(plain), "traced": len(traced)},
    }
    failures = [f for r in everything for f in r["failures"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = {
        "environment": environment,
        "batches": [
            {key: r[key] for key in ("setup_s", "wall_s", "rss_mb", "batch_s")}
            | {"traced": traced_, "op_s": [dt for _, dt in r["ops"]]}
            for traced_, group in ((False, plain), (True, traced))
            for r in group
        ],
        "operations": op_table(plain),
        "failures": failures,
        "note": NO_WAITING,
        "result": result,
    }
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("environment " + json.dumps(environment))
    for row in report["operations"]:
        print("operation " + json.dumps(row))
    for line in failures[:20]:
        print("FAILED " + line)
    print(NO_WAITING)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
