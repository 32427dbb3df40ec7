"""The benchmark's own tests: metric names and units, tracer restoration,
failure accounting and repeatable counts, on reduced sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import nlops  # noqa: E402
import nlops.fields  # noqa: E402
import nlops.weights  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_emits_every_metric_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in specs)


def _bindings():
    mods = [getattr(nlops, layer) for layer in spans.LAYERS]
    snap = {(mod.__name__, attr): val for mod in mods for attr, val in vars(mod).items()}
    snap["RadialWeight.__post_init__"] = nlops.weights.RadialWeight.__dict__["__post_init__"]
    snap["fftn"], snap["ifftn"] = np.fft.fftn, np.fft.ifftn
    return snap


def test_tracer_restores_every_wrapped_name():
    import nlops.cli  # noqa: F401  (the tracer wraps nlops.cli.main too)

    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert nlops.fields.mu_hat is not before[("nlops.fields", "mu_hat")]
        assert nlops.weights.bessel_j is not before[("nlops.weights", "bessel_j")]
        assert np.fft.ifftn is not before["ifftn"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    recorded = len(tracer.spans)
    w = nlops.weights.normalize(nlops.weights.bump(1))
    nlops.weights.mu_hat(w, 2.0)
    assert len(tracer.spans) == recorded


def test_wrong_reference_counts_as_failure(monkeypatch, tmp_path):
    clean = worker.run_once("measure_sweep", 4, 0, False, True, tmp_path)
    assert clean["failed"] == 0
    monkeypatch.setattr(workloads, "atom_area_reference", lambda s: np.sqrt(4 * s**2 + 1) + 2 - 2 * s + 1e-6)
    broken = worker.run_once("measure_sweep", 4, 0, False, True, tmp_path)
    assert broken["attempted"] == clean["attempted"]
    assert broken["failed"] == 1
    assert broken["failures"][0].startswith("area_convergence_table")


def test_same_seed_gives_same_inputs(tmp_path):
    def fields_of(seed):
        batch = workloads.build("direct_oracle", np.random.default_rng([seed, 0]), True, tmp_path)
        return [op.name for op in batch.ops], [op.run().values for op in batch.ops[:1]]

    names_a, out_a = fields_of(7)
    names_b, out_b = fields_of(7)
    names_c, out_c = fields_of(8)
    assert names_a == names_b and np.array_equal(out_a[0], out_b[0])
    assert not np.array_equal(out_a[0], out_c[0])


def test_fft_count_is_exact_and_repeats(tmp_path):
    counts = [
        worker.run_once("direct_oracle", seed, 0, True, True, tmp_path)["layers"]["fields.fft.calls"]
        for seed in (1, 2)
    ]
    # one forward FFT per application plus one inverse FFT per sphere node:
    # curl3d with order 16 (16 x 32 nodes), twice; two gradient2d fields,
    # each with three applications on the 64-node circle
    assert counts == [2 * (1 + 16 * 32) + 2 * 3 * (1 + 64)] * 2
