"""The benchmark's four workloads and their reference checks.

Each ``build_<workload>(rng, small)`` makes every input from ``rng`` (set-up,
untimed) and returns a :class:`Batch`: the fixed list of operations the timed
loop runs, in order, one after another.  Each :class:`Op` has a ``check``
that compares its result with a reference that shares no code path with the
route under test; checks run after the timed region.  ``small`` shrinks
every size for the benchmark's own tests.

Operations call nlops through module attributes (``fields.apply_...``) at
call time, so a traced run sees the wrapped functions and an untraced run
the originals.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, field
from math import pi, sqrt
from pathlib import Path
from typing import Callable

import numpy as np

import nlops.cli as cli
import nlops.fields as fields
import nlops.measures as measures
import nlops.operators as operators
import nlops.weights as weights
import spans

#: Tolerance of a multiplier value against the scipy quadrature reference,
#: for unit-mass weights.  The neglected Gaussian tail is below 1e-10.
MU_TOL = 1e-9

#: Dual-route tolerances of acceptance criterion 4 (relative to ||Au||_2,
#: times the weight mass for the radial route).
SPHERICAL_ROUTE_TOL = 1e-6
RADIAL_ROUTE_TOL = 1e-4

#: Closed forms of the measure side (criterion 11 uses 1e-10 for the atom).
CLOSED_FORM_TOL = 1e-10

#: Norm bound of the averaged operators (criterion 5).
NORM_SLACK = 1.0 + 1e-8


@dataclass
class Op:
    """One timed operation and the check of its result.

    ``check(result)`` returns ``(ok, accuracy)`` where ``accuracy`` maps
    accuracy-metric names to the error this result showed.
    """

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, dict]]


@dataclass
class Batch:
    ops: list[Op]
    #: Deterministic facts gathered by the checks: CSV bytes written, and
    #: the distinct active |m| summed over the cold multiplier applications
    #: (computed from the benchmark's own inputs).
    counters: dict = field(default_factory=lambda: {"cli.csv_bytes": 0, "cold_shells": 0})
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# Independent references


def grid_frequencies(n: int, N: int) -> np.ndarray:
    """Integer frequencies in FFT order, shape (N,)*n + (n,)."""
    f = np.fft.fftfreq(N, d=1.0 / N)
    return np.stack(np.meshgrid(*(f for _ in range(n)), indexing="ij"), axis=-1)


def local_spectrum(op, u) -> np.ndarray:
    """2 pi i A(m) uhat(m) with the Nyquist rows zeroed, assembled here."""
    axes = tuple(range(u.n))
    uhat = np.fft.fftn(u.values, axes=axes)
    m = grid_frequencies(u.n, u.N)
    out = np.zeros(uhat.shape[:-1] + (op.dim_w,), dtype=complex)
    for i, a in enumerate(op.coeffs):
        out += m[..., i : i + 1] * np.einsum("...v,wv->...w", uhat, a)
    out *= 2j * pi
    out[np.any(np.abs(m) == u.N // 2, axis=-1)] = 0.0
    return out


def l2(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum(np.abs(values) ** 2, axis=-1))))


def reference_radius(w) -> float:
    """Outer radius for the reference integrals: the support, or 12 sigma
    for the Gaussian family (its profile is below e^-70 beyond)."""
    if w.support_radius is not None:
        return float(w.support_radius)
    return 12.0 * float(w.params["sigma"])


def mu_hat_reference(w, xi: float) -> float:
    """mu_hat by scipy.integrate.quad with scipy.special.jv, one piece per
    quarter period of the Bessel factor."""
    from scipy import integrate, special

    half = w.n / 2.0
    R = reference_radius(w)

    def f(r):
        return w.n * r ** (half - 1.0) * float(w.profile(np.array([r]))[0]) * special.jv(half, 2 * pi * r * xi)

    edges = np.linspace(0.0, R, max(2, int(np.ceil(4.0 * R * xi))) + 1)
    parts = [integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0] for a, b in zip(edges[:-1], edges[1:])]
    return math.fsum(parts) / xi**half


def white_noise(rng, n: int, N: int, dim_v: int):
    return fields.TorusField(n=n, N=N, values=rng.standard_normal((N,) * n + (dim_v,)))


# ---------------------------------------------------------------------------
# dense_multiplier


class _ShellCheck:
    """Checks a multiplier output on sampled shells against mu_hat_reference.

    The multiplier at shell |m| = xi is read off the output spectrum by least
    squares against the local spectrum, so the check does not depend on how
    the program stores its table.  Shells are drawn from ``seed`` when the
    first check runs, outside the timed region; the largest is always kept.
    """

    def __init__(self, w, n: int, N: int, seed: int, count: int):
        self.w, self.n, self.N, self.seed, self.count = w, n, N, seed, count
        self.masks = None

    def _prepare(self):
        m = grid_frequencies(self.n, self.N)
        norms = np.sqrt(np.sum(m**2, axis=-1))
        usable = (norms > 0) & ~np.any(np.abs(m) == self.N // 2, axis=-1)
        shells = np.unique(norms[usable])
        rng = np.random.default_rng(self.seed)
        picked = rng.choice(shells[:-1], size=min(self.count, shells.size) - 1, replace=False)
        picked = np.append(picked, shells[-1])
        self.masks = [usable & (norms == xi) for xi in picked]
        self.reference = np.array([mu_hat_reference(self.w, float(xi)) for xi in picked])

    def __call__(self, op, u, out) -> tuple[bool, dict]:
        if self.masks is None:
            self._prepare()
        axes = tuple(range(u.n))
        loc = local_spectrum(op, u)
        out_hat = np.fft.fftn(out.values, axes=axes)
        err = 0.0
        for mask, want in zip(self.masks, self.reference):
            a, b = loc[mask], out_hat[mask]
            got = float(np.real(np.vdot(a, b)) / np.real(np.vdot(a, a)))
            err = max(err, abs(got - want))
        bounded = l2(out.values) <= NORM_SLACK * self.w.mass * l2(np.fft.ifftn(loc, axes=axes).real)
        return (err <= MU_TOL and bounded), {"weights.mu_hat.max_ref_err": err}


def active_shells(op, u) -> int:
    """Distinct |m| carrying spectrum in the local operator's output."""
    loc = local_spectrum(op, u)
    norms = np.sqrt(np.sum(grid_frequencies(u.n, u.N) ** 2, axis=-1))
    return int(np.unique(norms[np.max(np.abs(loc), axis=-1) > 0]).size)


def build_dense_multiplier(rng, small: bool) -> Batch:
    """White-noise fields, so every frequency shell is active."""
    n2, n3, warm, sampled = (16, 8, 2, 3) if small else (128, 32, 6, 6)
    cases = [
        (operators.gradient(2), n2, weights.normalize(weights.bump(2, 0.3))),
        (operators.gradient(2), n2, weights.normalize(weights.gaussian_modification(2, 0.05))),
        (operators.curl3(), n3, weights.normalize(weights.bump(3, 0.15))),
        (operators.curl3(), n3, weights.normalize(weights.gaussian_modification(3, 0.1))),
    ]
    batch = Batch([])
    for op, N, w in cases:
        label = f"{op.name}/N{N}/{w.name}@{w.params}"
        table: dict = {}
        us = [white_noise(rng, op.n, N, op.dim_v) for _ in range(1 + warm)]
        shell_check = _ShellCheck(w, op.n, N, int(rng.integers(2**32)), sampled)

        def run(u, op=op, w=w, table=table):
            return fields.apply_radial_spectral(op, u, w, table)

        def check_cold(out, op=op, u=us[0], w=w, table=table, sc=shell_check):
            batch.counters["cold_shells"] += active_shells(op, u)
            ok, acc = sc(op, u, out)
            again = fields.apply_radial_spectral(op, u, w, table)
            return ok and np.array_equal(again.values, out.values), acc

        batch.ops.append(Op(f"cold {label}", "cold", lambda run=run, u=us[0]: run(u), check_cold))
        for u in us[1:]:
            batch.ops.append(
                Op(
                    f"warm {label}",
                    "warm",
                    lambda run=run, u=u: run(u),
                    lambda out, op=op, u=u, sc=shell_check: sc(op, u, out),
                )
            )
    return batch


# ---------------------------------------------------------------------------
# direct_oracle


def _route_check(op, u, direct_out, spectral, tol, metric, scale=1.0):
    ref = spectral()
    err = l2(ref.values - direct_out.values) / (scale * l2(fields.apply_local(op, u).values))
    return err < tol, {metric: err}


def build_direct_oracle(rng, small: bool) -> Batch:
    """Band-limited random fields; the spectral routes are the references."""
    n3, order3, n2, count2 = (8, 16, 16, 2) if small else (16, 32, 64, 10)
    ops = []
    curl = operators.curl3()
    u3 = fields.random_trig_field(3, n3, 3, rng, max_degree=3)
    s3 = float(rng.uniform(0.1, 0.3))
    wg = weights.normalize(weights.gaussian_modification(3, 0.1))
    ops.append(
        Op(
            f"spherical_direct curl3d/N{n3}/order{order3}/s{s3:.4f}",
            "spherical_direct",
            lambda: fields.apply_spherical_direct(curl, u3, s3, order3),
            lambda out: _route_check(
                curl, u3, out, lambda: fields.apply_spherical_spectral(curl, u3, s3),
                SPHERICAL_ROUTE_TOL, "fields.route_rel_err.spherical",
            ),
        )
    )
    ops.append(
        Op(
            f"radial_direct curl3d/N{n3}/order{order3}/gaussian",
            "radial_direct",
            lambda: fields.apply_radial_direct(curl, u3, wg, order3),
            lambda out: _route_check(
                curl, u3, out, lambda: fields.apply_radial_spectral(curl, u3, wg, {}),
                RADIAL_ROUTE_TOL, "fields.route_rel_err.radial", wg.mass,
            ),
        )
    )
    grad = operators.gradient(2)
    wb = weights.normalize(weights.bump(2))
    for _ in range(count2):
        u = fields.random_trig_field(2, n2, 1, rng, max_degree=3)
        for s in (0.3, 0.1):
            ops.append(
                Op(
                    f"spherical_direct gradient2d/N{n2}/s{s}",
                    "spherical_direct",
                    lambda u=u, s=s: fields.apply_spherical_direct(grad, u, s),
                    lambda out, u=u, s=s: _route_check(
                        grad, u, out, lambda: fields.apply_spherical_spectral(grad, u, s),
                        SPHERICAL_ROUTE_TOL, "fields.route_rel_err.spherical",
                    ),
                )
            )
        ops.append(
            Op(
                f"radial_direct gradient2d/N{n2}/bump",
                "radial_direct",
                lambda u=u: fields.apply_radial_direct(grad, u, wb),
                lambda out, u=u: _route_check(
                    grad, u, out, lambda: fields.apply_radial_spectral(grad, u, wb, {}),
                    RADIAL_ROUTE_TOL, "fields.route_rel_err.radial", wb.mass,
                ),
            )
        )
    return Batch(ops)


# ---------------------------------------------------------------------------
# measure_sweep


def linf_gap_reference(eps: float, probe_count: int = 400) -> float:
    """Sup over linf_gap's documented probes of the closed-form gap."""
    probes = -1.0 + (np.arange(probe_count) + 0.5) * (2.0 / probe_count)
    return max(abs(measures.linf_gap_closed_form(eps, float(t)) - np.sign(t)) for t in probes)


def atom_area_reference(s: float) -> float:
    """Area functional of the ball-averaged unit atom on (-1, 1)."""
    return sqrt(4.0 * s**2 + 1.0) + 2.0 - 2.0 * s


def cell_model_bound(r: float, h: float, delta: float) -> float:
    """Bound on |ball average - 1| for unit density counted by cell centres.

    Only cells cut by the circle of radius r are miscounted; each lies within
    sqrt(2) h of it.  Below the distance delta from the probe to the nearest
    cell centre, no centre is counted and the error is exactly 1.
    """
    if r <= delta:
        return 1.0
    d = sqrt(2.0) * h
    return ((r + d) ** 2 - max(r - d, 0.0) ** 2) / r**2


def _off_grid(x: float, h: float) -> bool:
    """At least h/20 from every cell edge and centre line."""
    frac = ((x + 1.0) / (0.5 * h)) % 1.0
    return 0.1 <= frac <= 0.9


def build_measure_sweep(rng, small: bool) -> Batch:
    """Measure-side sweeps: no FFT and no Bessel function."""
    ops = []
    eps_list = sorted(rng.uniform(0.02, 0.24, size=2 if small else 4), reverse=True)
    for eps in eps_list:
        eps = float(eps)
        ops.append(
            Op(
                f"linf_gap eps={eps:.4f}",
                "linf_gap",
                lambda eps=eps: measures.linf_gap(eps),
                lambda gap, eps=eps: _closed_form(gap, linf_gap_reference(eps)),
            )
        )
    ops.append(
        Op(
            "scenario_smooth_localization",
            "scenario",
            lambda: measures.area_vs_l1(*measures.scenario_smooth_localization(cells=100 if small else 400)),
            lambda rep: (rep["verdict"] == "PASS" and rep["l1_tends_to_zero"], {}),
        )
    )
    ops.append(
        Op(
            "scenario_atom_spread",
            "scenario",
            lambda: measures.area_vs_l1(*measures.scenario_atom_spread()),
            lambda rep: (rep["verdict"] == "PASS" and not rep["l1_tends_to_zero"], {}),
        )
    )
    cells_1d = 800
    h1 = 2.0 / cells_1d
    ks = sorted(rng.choice(np.arange(8, 121), size=3, replace=False), reverse=True)
    s_list = [float(k) * h1 for k in ks]
    atom = measures.dirac((-1.0, 1.0), 0.0, 1.0)
    ops.append(
        Op(
            f"area_convergence_table s={','.join(f'{s:g}' for s in s_list)}",
            "area",
            lambda: measures.area_convergence_table(atom, measures.area_integrand(), s_list, cells=cells_1d),
            lambda rows: _closed_form(max(abs(v - atom_area_reference(s)) for s, v, _ in rows), 0.0),
        )
    )

    # 2D: unit density on [-1, 1]^2 plus one atom, probes off the cell grid
    cells = 200
    h = 2.0 / cells
    a_loc = tuple(float(c) for c in rng.uniform(-0.5, 0.5, size=2))
    a_w = float(rng.uniform(0.5, 2.0))
    mu2 = measures.MeasureField(
        n=2, window=[[-1.0, 1.0], [-1.0, 1.0]], density=np.ones((cells, cells, 1)), atoms=((a_loc, (a_w,)),)
    )
    radii = (0.2, 0.1, 0.05)

    def probe(half_width, avoid):
        while True:
            x = rng.uniform(-half_width, half_width, size=2)
            d = float(np.hypot(*(x - a_loc)))
            if _off_grid(x[0], h) and _off_grid(x[1], h) and all(abs(d - r) > 1e-6 for r in avoid):
                return x, d

    for _ in range(4 if small else 40):
        x, d = probe(0.7, radii)
        for s in radii:
            want = 1.0 + (a_w / (pi * s**2) if d < s else 0.0)
            ops.append(
                Op(
                    f"spherical_of_measure 2d s={s}",
                    "spherical_2d",
                    lambda x=x, s=s: measures.spherical_of_measure(mu2, s, x),
                    lambda got, want=want, s=s: _cell_model(
                        float(got[0]), want, cell_model_bound(s, h, 0.0), "measures.ball2d_const_err"
                    ),
                )
            )
    w2 = weights.normalize(weights.bump(2, 0.3))
    R = reference_radius(w2)
    for _ in range(2 if small else 12):
        x, d = probe(0.6, ())
        centre = -1.0 + (np.floor((x + 1.0) / h) + 0.5) * h
        delta = float(np.hypot(*(x - centre)))
        ops.append(
            Op(
                "radial_of_measure 2d",
                "radial_2d",
                lambda x=x: measures.radial_of_measure(mu2, w2, x),
                lambda got, d=d, delta=delta: _cell_model(
                    float(got[0]), _radial_2d_reference(w2, R, d, a_w), _radial_2d_bound(w2, R, h, delta), None
                ),
            )
        )
    return Batch(ops)


def _closed_form(got: float, want: float) -> tuple[bool, dict]:
    err = abs(got - want)
    return err < CLOSED_FORM_TOL, {"measures.closed_form_err": err}


def _cell_model(got: float, want: float, bound: float, metric) -> tuple[bool, dict]:
    """Pass within the cell-centre model's own error bound.

    2D ball averages count whole cells by their centres, so on a constant
    density they miss the exact value.  The ball-average error is reported
    (``metric``) as measures.ball2d_const_err; the bound still catches a
    misplaced atom or a wrong normalisation.
    """
    err = abs(got - want)
    return err <= bound, ({metric: err} if metric else {})


def _profile(w, r: float) -> float:
    return float(w.profile(np.array([r]))[0])


def _radial_2d_reference(w, R: float, d: float, a_w: float) -> float:
    """Radial operator of unit density plus an atom at distance d, in 2D:
    int 2 pi r rho dr + a_w int_d^R 2 rho(r)/r dr."""
    from scipy import integrate

    dens = integrate.quad(lambda r: 2 * pi * r * _profile(w, r), 0.0, R, epsabs=1e-14, limit=200)[0]
    atom = 0.0
    if d < R:
        atom = a_w * integrate.quad(lambda r: 2.0 * _profile(w, r) / r, d, R, epsabs=1e-14, limit=200)[0]
    return dens + atom


def _radial_2d_bound(w, R: float, h: float, delta: float) -> float:
    from scipy import integrate

    f = lambda r: 2 * pi * r * _profile(w, r) * cell_model_bound(r, h, delta)
    pts = [p for p in (delta, sqrt(2.0) * h) if 0.0 < p < R]
    return integrate.quad(f, 0.0, R, points=pts or None, limit=400)[0]


# ---------------------------------------------------------------------------
# cli_experiments


def _sized_configs(small: bool) -> dict[str, str]:
    """Sized cases; fixed scales keep the work the same for every seed (the
    cost of a Bessel evaluation depends on its argument)."""
    return {
        "localize": (
            f"[run]\nn_grid = {16 if small else 64}\n"
            "[operator]\npreset = gradient\nn = 2\n"
            "[weight]\npreset = bump\n"
            "[field]\nkind = random\nnum_terms = 6\nmax_degree = 3\n"
        ),
        "kernel-check": f"[operator]\npreset = curl\nn = 3\n[kernel]\nmax_degree = {3 if small else 8}\n",
        "multiplier": f"[weight]\npreset = gaussian\n[multiplier]\nxi_count = {21 if small else 101}\n",
    }


def build_cli_experiments(rng, small: bool, workdir: Path) -> Batch:
    """Every subcommand but ``bench`` through nlops.cli.main, in-process."""
    workdir.mkdir(parents=True, exist_ok=True)
    runs = [(sub, None) for sub in spans.CLI_SUBCOMMANDS]
    for sub, text in _sized_configs(small).items():
        path = workdir / f"{sub}.ini"
        path.write_text(text)
        runs.append((sub, str(path)))
    batch = Batch([], cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))
    for i, (sub, cfg) in enumerate(runs):
        seed = int(rng.integers(0, 2**31))
        argv = [sub, "--seed", str(seed)] + (["--config", cfg] if cfg else [])

        def invoke(out_dir, threads, argv=argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv + ["--out", str(out_dir), "--threads", str(threads)])
            return status, buf.getvalue()

        first = workdir / "threads1" / str(i)
        second = workdir / "threads2" / str(i)

        def check(result, invoke=invoke, first=first, second=second):
            status, verdict = result
            again, _ = invoke(second, 2)
            a, b = _csv_bytes(first), _csv_bytes(second)
            batch.counters["cli.csv_bytes"] += sum(len(v) for v in a.values())
            return status == 0 and again == 0 and verdict.startswith("PASS") and a == b and bool(a), {}

        name = f"cli {sub}" + (" (sized)" if cfg else "")
        batch.ops.append(Op(name, f"cli:{sub}", lambda invoke=invoke, first=first: invoke(first, 1), check))
    return batch


def _csv_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


WORKLOADS = ("dense_multiplier", "direct_oracle", "measure_sweep", "cli_experiments")


def build(name: str, rng, small: bool, workdir: Path) -> Batch:
    if name == "dense_multiplier":
        return build_dense_multiplier(rng, small)
    if name == "direct_oracle":
        return build_direct_oracle(rng, small)
    if name == "measure_sweep":
        return build_measure_sweep(rng, small)
    if name == "cli_experiments":
        return build_cli_experiments(rng, small, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
