"""Span recording around the public functions of each nlops module.

A :class:`Tracer` is a context manager.  On entry it replaces each traced
function, in every nlops module that binds it (``nlops.fields.mu_hat`` and
``nlops.weights.mu_hat`` are the same object), with a wrapper that records a
span; on exit it puts every original back.  ``numpy.fft.fftn``/``ifftn`` are
wrapped too, but record only while a ``fields`` span is open.  Spans live in
memory as ``[id, parent, name, start, end, op, phase, points]`` lists.

Nothing here is imported by nlops itself: spans sit at the module
boundaries, seen from the benchmark's side.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

import numpy as np

#: Traced public functions, by layer (the package's modules).
LAYERS = {
    "bessel": ("bessel_j", "ball_transform", "bessel_zero"),
    "quadrature": ("sphere_quadrature", "panel_rule"),
    "weights": (
        "mu_hat",
        "mu_hat_scan",
        "mu_hat_highprec",
        "positivity_scan",
        "truncation_radius",
        "superposition_measure",
        "normalize",
    ),
    "operators": ("symbol", "wave_rank"),
    "fields": (
        "apply_local",
        "apply_spherical_spectral",
        "apply_spherical_direct",
        "apply_radial_spectral",
        "apply_radial_direct",
        "localization_table",
        "kernel_check_torus",
        "kernel_witness",
        "random_trig_field",
        "trig_field_from_coeffs",
    ),
    "measures": (
        "radial_of_measure",
        "spherical_of_measure",
        "linf_gap",
        "scenario_smooth_localization",
        "scenario_atom_spread",
        "area_convergence_table",
        "area_vs_l1",
        "atomic_divergence_demo",
        "gauss_green_check",
    ),
    "cli": ("main",),
}

INIT_SPAN = "weights.RadialWeight.init"
FFT_SPAN = "fields.fft"


def _points_first(args, kwargs):
    return int(np.size(args[0])) if args else 0


def _points_second(args, kwargs):
    if len(args) > 1:
        return int(np.size(args[1]))
    return int(np.size(kwargs.get("t", 0)))


_POINTS = {"bessel.bessel_j": _points_second}


class Tracer:
    """Records spans around nlops' public functions while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.phase = "setup"
        self._stack: list[int] = []
        self._fields_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, points=None, gated=False):
        tracer = self
        is_fields = name.startswith("fields.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if gated and tracer._fields_depth == 0:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            size = points(args, kwargs) if points else 0
            rec = [sid, parent, name, 0.0, 0.0, tracer.op, tracer.phase, size]
            tracer.spans.append(rec)
            tracer._stack.append(sid)
            tracer._fields_depth += is_fields
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                tracer._fields_depth -= is_fields
                tracer._stack.pop()

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        import nlops.bessel
        import nlops.cli
        import nlops.fields
        import nlops.measures
        import nlops.operators
        import nlops.quadrature
        import nlops.weights

        modules = [getattr(nlops, layer) for layer in LAYERS]
        for layer, names in LAYERS.items():
            for fname in names:
                original = getattr(getattr(nlops, layer), fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, _POINTS.get(name))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, attr, wrapper)
        rw = nlops.weights.RadialWeight
        self._patch(rw, "__post_init__", self._wrap(INIT_SPAN, rw.__post_init__))
        for attr in ("fftn", "ifftn"):
            fn = getattr(np.fft, attr)
            self._patch(np.fft, attr, self._wrap(FFT_SPAN, fn, _points_first, gated=True))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        keys = ("id", "parent", "name", "start", "end", "op", "phase", "points")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def summarize(spans: list[list], phase: str = "run") -> dict:
    """Per-name totals over the spans of one phase.

    Returns ``{name: {"calls", "points", "total_s", "self_s", "durations",
    "ops"}}``; self time is a span's duration minus its children's.
    """
    child = [0.0] * len(spans)
    for sid, parent, _, start, end, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for sid, parent, name, start, end, op, ph, points in spans:
        if ph != phase:
            continue
        row = out.setdefault(
            name, {"calls": 0, "points": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "ops": []}
        )
        dur = end - start
        row["calls"] += 1
        row["points"] += points
        row["total_s"] += dur
        row["self_s"] += dur - child[sid]
        row["durations"].append(dur)
        row["ops"].append(op)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


#: (metric, span name, key) read straight off the per-name totals.
_TOTALS = (
    ("weights.mu_hat.calls", "weights.mu_hat", "calls"),
    ("weights.mu_hat.self_s", "weights.mu_hat", "self_s"),
    ("bessel.bessel_j.calls", "bessel.bessel_j", "calls"),
    ("bessel.bessel_j.points", "bessel.bessel_j", "points"),
    ("bessel.bessel_j.self_s", "bessel.bessel_j", "self_s"),
    ("bessel.ball_transform.calls", "bessel.ball_transform", "calls"),
    ("bessel.ball_transform.self_s", "bessel.ball_transform", "self_s"),
    ("weights.truncation_radius.calls", "weights.truncation_radius", "calls"),
    ("weights.truncation_radius.self_s", "weights.truncation_radius", "self_s"),
    ("weights.superposition_measure.calls", "weights.superposition_measure", "calls"),
    ("weights.superposition_measure.self_s", "weights.superposition_measure", "self_s"),
    ("weights.mu_hat_scan.self_s", "weights.mu_hat_scan", "self_s"),
    ("weights.mu_hat_highprec.calls", "weights.mu_hat_highprec", "calls"),
    ("weights.mu_hat_highprec.self_s", "weights.mu_hat_highprec", "self_s"),
    ("fields.apply_radial_spectral.self_s", "fields.apply_radial_spectral", "self_s"),
    ("fields.fft.calls", FFT_SPAN, "calls"),
    ("fields.fft.points", FFT_SPAN, "points"),
    ("fields.fft.self_s", FFT_SPAN, "self_s"),
    ("fields.apply_spherical_direct.self_s", "fields.apply_spherical_direct", "self_s"),
    ("fields.apply_radial_direct.self_s", "fields.apply_radial_direct", "self_s"),
    ("quadrature.sphere_quadrature.calls", "quadrature.sphere_quadrature", "calls"),
    ("quadrature.sphere_quadrature.self_s", "quadrature.sphere_quadrature", "self_s"),
    ("quadrature.panel_rule.calls", "quadrature.panel_rule", "calls"),
    ("quadrature.panel_rule.self_s", "quadrature.panel_rule", "self_s"),
    ("operators.wave_rank.calls", "operators.wave_rank", "calls"),
    ("operators.wave_rank.self_s", "operators.wave_rank", "self_s"),
    ("operators.symbol.calls", "operators.symbol", "calls"),
    ("measures.radial_of_measure.calls", "measures.radial_of_measure", "calls"),
    ("measures.radial_of_measure.self_s", "measures.radial_of_measure", "self_s"),
    ("measures.spherical_of_measure.calls", "measures.spherical_of_measure", "calls"),
    ("measures.spherical_of_measure.self_s", "measures.spherical_of_measure", "self_s"),
    ("measures.scenario_smooth_localization.s", "measures.scenario_smooth_localization", "total_s"),
    ("cli.self_s", "cli.main", "self_s"),
)

#: (metric, span name, op kind or None for any, scale) pooled as samples
#: across traced batches; the percentile is in the metric's suffix.
_SAMPLED = (
    ("weights.mu_hat.p50_us", "weights.mu_hat", None, 1e6),
    ("fields.apply_radial_spectral.cold_p50_ms", "fields.apply_radial_spectral", "cold", 1e3),
    ("fields.apply_radial_spectral.cold_p90_ms", "fields.apply_radial_spectral", "cold", 1e3),
    ("fields.apply_radial_spectral.warm_p50_ms", "fields.apply_radial_spectral", "warm", 1e3),
    ("fields.apply_spherical_direct.p50_ms", "fields.apply_spherical_direct", None, 1e3),
    ("fields.apply_radial_direct.p50_ms", "fields.apply_radial_direct", None, 1e3),
    ("fields.kernel_check_torus.p50_ms", "fields.kernel_check_torus", None, 1e3),
    ("fields.apply_local.p50_ms", "fields.apply_local", None, 1e3),
    ("fields.apply_spherical_spectral.p50_ms", "fields.apply_spherical_spectral", None, 1e3),
    ("fields.localization_table.p50_ms", "fields.localization_table", None, 1e3),
    ("measures.radial_of_measure.p50_ms", "measures.radial_of_measure", None, 1e3),
    ("measures.linf_gap.p50_ms", "measures.linf_gap", None, 1e3),
    ("measures.area_convergence_table.p50_ms", "measures.area_convergence_table", None, 1e3),
)

#: Subcommands the cli_experiments workload runs with their defaults, each
#: with a ``cli.<subcommand>.s`` metric: all but ``bench``, whose CSV holds
#: wall-clock timings and cannot be checked.
CLI_SUBCOMMANDS = (
    "bessel",
    "zeros",
    "multiplier",
    "localize",
    "kernel-check",
    "witness",
    "counterexample-linf",
    "gauss-green",
    "area",
    "atomic-demo",
)


def layer_metrics(spans: list[list], op_kinds: list[str], cold_shells: int) -> tuple[dict, dict]:
    """Per-layer values of one traced batch, and duration samples to pool.

    ``op_kinds[i]`` labels operation i (``cold``/``warm`` for multiplier
    applications, ``cli:<subcommand>`` for CLI runs); ``cold_shells`` is the
    number of distinct active |m| over the batch's cold applications.
    """
    run = summarize(spans, "run")
    values = {}
    for metric, name, key in _TOTALS:
        values[metric] = run.get(name, {}).get(key, 0 if key in ("calls", "points") else 0.0)
    mu_cold = sum(1 for op in run.get("weights.mu_hat", {}).get("ops", ()) if op_kinds[op] == "cold")
    values["weights.mu_hat.calls_per_shell"] = mu_cold / cold_shells if cold_shells else 0.0
    values["weights.RadialWeight.init_s"] = sum(
        end - start for _, _, name, start, end, *_ in spans if name == INIT_SPAN
    )
    main = run.get("cli.main", {"durations": [], "ops": []})
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.s"] = sum(
            d for d, op in zip(main["durations"], main["ops"]) if op_kinds[op] == f"cli:{sub}"
        )
    samples = {}
    for metric, name, kind, scale in _SAMPLED:
        row = run.get(name, {"durations": [], "ops": []})
        samples[metric] = [
            d * scale for d, op in zip(row["durations"], row["ops"]) if kind is None or op_kinds[op] == kind
        ]
    return values, samples


def pooled(samples_per_batch: list[dict]) -> dict:
    """Percentiles of the pooled duration samples, named by their suffix."""
    out = {}
    for metric, *_ in _SAMPLED:
        pool = [v for batch in samples_per_batch for v in batch[metric]]
        q = 90.0 if "_p90_" in metric else 50.0
        out[metric] = percentile(pool, q)
    return out
