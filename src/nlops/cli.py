"""Command-line front end: reproducible experiments with CSV artifacts.

Each subcommand reads an optional INI config (flat key = value entries under
section headers), runs one experiment, writes a CSV table prefixed by a
metadata comment block, prints a one-line verdict, and exits 0 on PASS,
1 on a violated invariant or numerical failure, 2 on config errors.
Identical config and version produce byte-identical CSV output.  The
``--threads`` flag is only a hint: sweeps run in order on one thread, and
the output never depends on it.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field
from math import isfinite, log, pi
from pathlib import Path
from typing import Optional

import numpy as np

import nlops.fields as fields
import nlops.measures as measures
import nlops.operators as operators
import nlops.weights as weights
from nlops import __version__
from nlops.bessel import bessel_j, bessel_zero


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (exit status 2)."""


@dataclass
class ExperimentConfig:
    """Validated experiment description assembled from an INI file.

    Core fields cover the common plumbing; ``sections`` retains the raw
    key-value pairs for subcommand-specific lookups.
    """

    operator: dict = field(default_factory=dict)
    weight: dict = field(default_factory=dict)
    field_section: dict = field(default_factory=dict)
    N: int = 64
    p: str = "2"
    s_list: tuple = (0.3, 0.1)
    eps_list: tuple = (0.2, 0.1, 0.05, 0.025)
    tolerances: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)
    echo: tuple = ()

    @staticmethod
    def from_ini(path: Optional[str]) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        if path is None:
            cfg.echo = (("config", "<defaults>"),)
            return cfg
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}")
        cfg.sections = {name: dict(parser.items(name)) for name in parser.sections()}
        run = cfg.sections.get("run", {})
        try:
            cfg.N = int(run.get("n_grid", cfg.N))
            cfg.p = run.get("p", cfg.p)
            if "s_list" in run:
                cfg.s_list = _parse_floats(run["s_list"])
            if "eps_list" in run:
                cfg.eps_list = _parse_floats(run["eps_list"])
        except ValueError as exc:
            raise ConfigError(f"bad [run] entry: {exc}")
        cfg.operator = cfg.sections.get("operator", {})
        cfg.weight = cfg.sections.get("weight", {})
        cfg.field_section = cfg.sections.get("field", {})
        for key in cfg.sections.get("tolerance", {}):
            if key not in TOLERANCES:
                raise ConfigError(f"[tolerance] {key} is not a tolerance; known: {', '.join(TOLERANCES)}")
            cfg.tolerances[key] = _setting(cfg, "tolerance", key, None)
        cfg.validate()
        cfg.echo = tuple(
            (f"{sec}.{k}", v) for sec in sorted(cfg.sections) for k, v in sorted(cfg.sections[sec].items())
        )
        return cfg

    def validate(self):
        if self.N < 4 or self.N % 2:
            raise ConfigError(f"grid size N must be even and >= 4, got {self.N}")
        if self.p not in ("1", "2", "inf") and not _is_float(self.p):
            raise ConfigError(f"exponent p must be a number >= 1 or 'inf', got {self.p!r}")
        for name, lst in (("s_list", self.s_list), ("eps_list", self.eps_list)):
            if len(lst) == 0:
                raise ConfigError(f"{name} must be nonempty")
            if any(b >= a for a, b in zip(lst, lst[1:])):
                raise ConfigError(f"{name} must be strictly decreasing, got {lst}")
            if not all(isfinite(x) and x > 0 for x in lst):
                raise ConfigError(f"{name} entries must be finite and positive, got {lst}")
        preset = self.operator.get("preset")
        if preset is not None and preset not in operators.PRESETS:
            raise ConfigError(
                f"unknown operator preset {preset!r}; available: {sorted(operators.PRESETS)}"
            )
        wpreset = self.weight.get("preset")
        if wpreset is not None and wpreset not in weights.WEIGHT_PRESETS:
            raise ConfigError(
                f"unknown weight preset {wpreset!r}; available: {sorted(weights.WEIGHT_PRESETS)}"
            )

    def tolerance(self, key: str) -> float:
        """The ``[tolerance]`` override of ``key``, or its TOLERANCES default."""
        return self.tolerances.get(key, TOLERANCES[key])

    def p_value(self):
        return np.inf if self.p == "inf" else float(self.p)


def _is_float(text: str) -> bool:
    try:
        return float(text) >= 1
    except ValueError:
        return False


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"cannot parse float list from {text!r}")


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"cannot parse integer list from {text!r}")


#: (convert, check, description) of the value kinds that _setting reads.
NUMBER = (float, isfinite, "a finite number")
NONNEGATIVE = (float, lambda v: isfinite(v) and v >= 0, "a finite number >= 0")
POSITIVE = (float, lambda v: isfinite(v) and v > 0, "a finite positive number")
COUNT = (int, lambda k: k >= 1, "an integer >= 1")
SWITCH = (str.lower, lambda v: v in ("yes", "no", "true", "false", "1", "0"), "one of yes/no/true/false/1/0")

#: Default of every ``[tolerance]`` key; an INI may override these and no
#: others, and only the overrides are echoed into the CSV.
TOLERANCES = {
    "bessel_half": 1e-9,
    "multiplier_bound": 1e-6,
    "localize_monotone_slack": 0.05,
    "witness_sup": 1e-8,
    "linf_gap": 1e-9,
    "gauss_green_jump": 1e-10,
    "gauss_green_smooth": 1e-8,
}

#: Operator dimensions with sphere rules (``quadrature.sphere_quadrature``).
DIMENSIONS = (1, 2, 3)


def _setting(cfg: ExperimentConfig, section: str, key: str, default, kind=NUMBER):
    """``[section] key`` (or ``default``), converted and range-checked by ``kind``.

    Raises ConfigError naming the section and the key when the value does
    not convert or fails the check.
    """
    convert, check, rule = kind
    raw = cfg.sections.get(section, {}).get(key, default)
    try:
        value = convert(raw)
        if check(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"[{section}] {key} must be {rule}, got {raw!r}")


def build_operator(cfg: ExperimentConfig) -> operators.FirstOrderOperator:
    section = cfg.operator
    if "file" in section:
        try:
            op = operators.from_text_file(section["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read operator file: {exc}")
    else:
        name = section.get("preset", "derivative")
        n = _setting(cfg, "operator", "n", 1, COUNT)
        try:
            op = operators.preset(name, n)
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc))
    if op.n not in DIMENSIONS:
        raise ConfigError(f"operator dimension n must be one of {DIMENSIONS}, got {op.n}")
    return op


def build_weight(cfg: ExperimentConfig) -> weights.RadialWeight:
    section = dict(cfg.weight)
    name = section.pop("preset", "gaussian")
    section.pop("normalize", None)
    normalize = _setting(cfg, "weight", "normalize", "yes", SWITCH) in ("yes", "true", "1")
    kwargs = {key: _setting(cfg, "weight", key, None, COUNT if key == "n" else NUMBER) for key in section}
    try:
        w = weights.WEIGHT_PRESETS[name](**kwargs)
    except KeyError:
        raise ConfigError(f"unknown weight preset {name!r}")
    except TypeError as exc:
        raise ConfigError(f"bad parameters for weight preset {name!r}: {exc}")
    except weights.WeightError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[weight] preset {name!r}: {exc}")
    return weights.normalize(w) if normalize else w


def parse_terms(text: str, n: int, dim_v: int) -> list:
    """Parse 'm1 m2 | c1 c2; ...' into (frequency, coefficient) pairs.

    Coefficients use Python complex syntax (e.g. ``0.5-0.25j``).
    """
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            mpart, cpart = chunk.split("|")
            mvec = tuple(int(tok) for tok in mpart.split())
            cvec = [complex(tok) for tok in cpart.split()]
        except ValueError:
            raise ConfigError(f"cannot parse field term {chunk!r} (want 'm1 .. mn | c1 .. cd')")
        if len(mvec) != n or len(cvec) != dim_v:
            raise ConfigError(f"field term {chunk!r} does not match n={n}, dim_v={dim_v}")
        terms.append((mvec, cvec))
    if not terms:
        raise ConfigError("field term list is empty")
    return terms


def build_field(cfg: ExperimentConfig, op: operators.FirstOrderOperator, rng) -> fields.TorusField:
    section = cfg.field_section
    if "terms" in section:
        terms = parse_terms(section["terms"], op.n, op.dim_v)
        return fields.trig_field_from_coeffs(op.n, cfg.N, op.dim_v, terms)
    kind = section.get("kind", "default")
    if kind == "random":
        below_nyquist = (int, lambda k: 1 <= k < cfg.N // 2, f"an integer in [1, {cfg.N // 2 - 1}]")
        deg = _setting(cfg, "field", "max_degree", 3, below_nyquist)
        num = _setting(cfg, "field", "num_terms", 6, COUNT)
        return fields.random_trig_field(op.n, cfg.N, op.dim_v, rng, max_degree=deg, num_terms=num)
    if kind != "default":
        raise ConfigError(f"unknown field kind {kind!r}")
    # default: v sin(2 pi x_1) with v = e_1
    coeff = np.zeros(op.dim_v, dtype=complex)
    coeff[0] = -0.5j
    mvec = (1,) + (0,) * (op.n - 1)
    return fields.trig_field_from_coeffs(op.n, cfg.N, op.dim_v, [(mvec, coeff)])


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.16e}"


def write_csv(path: Path, subcommand: str, cfg: ExperimentConfig, header, rows, extra_meta=()):
    lines = [f"# tool: nlops {__version__}", f"# subcommand: {subcommand}"]
    for key, val in cfg.echo or (("config", "<defaults>"),):
        lines.append(f"# config {key} = {val}")
    for key, val in extra_meta:
        lines.append(f"# {key} = {val}")
    for key, val in sorted(cfg.tolerances.items()):
        lines.append(f"# tolerance {key} = {val}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands (each returns (exit_status, verdict_line))


def cmd_bessel(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    alpha = _setting(cfg, "bessel", "alpha", 0.5, NONNEGATIVE)
    t_lo = _setting(cfg, "bessel", "t_min", 0.1, NONNEGATIVE)
    t_hi = _setting(cfg, "bessel", "t_max", 50.0)
    step = _setting(cfg, "bessel", "t_step", 0.01, POSITIVE)
    if t_lo > t_hi:
        raise ConfigError(f"bessel t_min must not exceed t_max, got {t_lo:g} > {t_hi:g}")
    t = np.arange(t_lo, t_hi + 0.5 * step, step)
    vals = bessel_j(alpha, t)
    rows = list(zip(t, vals))
    write_csv(out / "bessel.csv", "bessel", cfg, ["t", "j_alpha"], rows, [("alpha", alpha)])
    if alpha == 0.5:
        closed = np.sqrt(2.0 / (pi * t)) * np.sin(t)
        worst = float(np.max(np.abs(vals - closed)))
        ok = worst < cfg.tolerance("bessel_half")
        return (0 if ok else 1), (
            f"{'PASS' if ok else 'FAIL'} bessel: max deviation from the half-order "
            f"closed form {worst:.3e}"
        )
    return 0, f"PASS bessel: {len(rows)} values of J_{alpha:g} written"


def cmd_zeros(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    alpha = _setting(cfg, "zeros", "alpha", 0.5, NONNEGATIVE)
    count = _setting(cfg, "zeros", "count", 5, COUNT)
    rows = []
    worst = 0.0
    for k in range(1, count + 1):
        z = bessel_zero(alpha, k)
        resid = abs(float(bessel_j(alpha, z)))
        worst = max(worst, resid)
        rows.append((k, z, resid))
    write_csv(out / "zeros.csv", "zeros", cfg, ["k", "zero", "residual"], rows, [("alpha", alpha)])
    ok = worst < 1e-10
    return (0 if ok else 1), f"{'PASS' if ok else 'FAIL'} zeros: worst residual {worst:.3e}"


def cmd_multiplier(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    w = build_weight(cfg)
    if "xi_list" in cfg.sections.get("multiplier", {}):
        ascending = lambda xs: 0 < len(xs) and all(map(isfinite, xs)) and 0 <= xs[0] and list(xs) == sorted(xs)
        kind = (_parse_floats, ascending, "an ascending list of finite numbers >= 0")
        grid = np.asarray(_setting(cfg, "multiplier", "xi_list", "", kind))
    else:
        # default window chosen so the default (gaussian) multiplier stays
        # above double-precision resolution over the whole grid
        lo = _setting(cfg, "multiplier", "xi_min", 0.0, NONNEGATIVE)
        above_lo = (float, lambda x: isfinite(x) and x >= lo, "a finite number >= xi_min")
        hi = _setting(cfg, "multiplier", "xi_max", 1.2, above_lo)
        count = _setting(cfg, "multiplier", "xi_count", 51, COUNT)
        grid = np.linspace(lo, hi, count)
    vals, errs = weights.mu_hat_scan(w, grid)
    report = weights.positivity_report(grid, vals)
    rows = list(zip(grid, vals, errs))
    write_csv(
        out / "multiplier.csv",
        "multiplier",
        cfg,
        ["xi", "mu_hat", "est_error"],
        rows,
        [("weight", w.name), ("mass", _fmt(w.mass)), ("positivity", report.verdict)],
    )
    bound = w.mass + cfg.tolerance("multiplier_bound")
    ok = float(np.max(np.abs(vals))) <= bound
    status = 0 if ok else 1
    line = (
        f"{'PASS' if ok else 'FAIL'} multiplier: {report.verdict}; "
        f"min {report.min_value:.6e} at xi={report.argmin_xi:g}; sup |mu_hat| "
        f"{float(np.max(np.abs(vals))):.6e} vs mass {w.mass:.6e}"
    )
    return status, line


def cmd_localize(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    op = build_operator(cfg)
    u = build_field(cfg, op, rng)
    fam = weights.annulus_family()
    if cfg.weight.get("preset", "annulus") == "bump":
        fam = weights.rescaled_family(weights.bump(op.n))
    if op.n != fam(cfg.eps_list[0]).n:
        raise ConfigError("localization family dimension does not match the operator")
    table = fields.localization_table(op, u, fam, cfg.p_value(), cfg.eps_list)
    write_csv(out / "localize.csv", "localize", cfg, ["eps", "lp_error"], table, [("family", fam.name), ("p", cfg.p)])
    slack = 1.0 + cfg.tolerance("localize_monotone_slack")
    ok = all(b <= slack * a for (_, a), (_, b) in zip(table, table[1:]))
    last = table[-1][1]
    return (0 if ok else 1), (
        f"{'PASS' if ok else 'FAIL'} localize: error decreases along eps "
        f"(final {last:.6e} at eps={table[-1][0]:g})"
    )


def cmd_kernel_check(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    op = build_operator(cfg)
    s = _setting(cfg, "kernel", "s", 0.5, POSITIVE)
    max_degree = _setting(cfg, "kernel", "max_degree", 4, COUNT)
    scan = fields.kernel_check_torus(op, s, max_degree)
    rows = [
        (" ".join(str(x) for x in line.m), line.m_norm, line.symbol_rank, line.j_value, line.j_error, line.flag)
        for line in scan.lines
    ]
    write_csv(
        out / "kernel_check.csv",
        "kernel-check",
        cfg,
        ["m", "m_norm", "symbol_rank", "j_value", "j_error", "flag"],
        rows,
        [("s", s), ("max_degree", max_degree)],
    )
    flagged = ", ".join("(" + " ".join(str(x) for x in m) + ")" for m in scan.flagged[:8])
    more = "" if len(scan.flagged) <= 8 else f" and {len(scan.flagged) - 8} more"
    return 0, f"PASS kernel-check: {scan.verdict}" + (f"; flagged {flagged}{more}" if flagged else "")


def cmd_witness(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    op = build_operator(cfg)
    s = _setting(cfg, "witness", "s", 0.5, POSITIVE)
    below_nyquist = lambda m: any(m) and max(map(abs, m)) < cfg.N // 2
    frequency = (_parse_ints, below_nyquist, f"a nonzero integer frequency with entries below {cfg.N // 2}")
    mvec = _setting(cfg, "witness", "m", "1", frequency)
    if len(mvec) != op.n:
        raise ConfigError(f"witness frequency {mvec} does not match operator dimension {op.n}")
    fits = lambda v: len(v) == op.dim_v and all(map(isfinite, v))
    fiber = (_parse_floats, fits, f"{op.dim_v} finite number(s), one per fiber component")
    v = np.asarray(_setting(cfg, "witness", "v", " ".join(["1"] + ["0"] * (op.dim_v - 1)), fiber))
    report = fields.kernel_witness(op, s, mvec, v, N=cfg.N)
    rows = [
        (
            " ".join(str(x) for x in report.m),
            report.s,
            report.j_value,
            report.sup_local,
            report.sup_spherical,
            report.symbol_rank,
            report.symbol_image_norm,
        )
    ]
    write_csv(
        out / "witness.csv",
        "witness",
        cfg,
        ["m", "s", "j_value", "sup_local", "sup_spherical", "symbol_rank", "symbol_image_norm"],
        rows,
        [("advisories", "; ".join(report.advisories) or "none")],
    )
    tol = cfg.tolerance("witness_sup")
    ok = report.sup_spherical < tol and report.sup_local > 1.0
    return (0 if ok else 1), (
        f"{'PASS' if ok else 'FAIL'} witness: sup|A_s u| = {report.sup_spherical:.3e}, "
        f"sup|A u| = {report.sup_local:.6f}"
    )


def cmd_counterexample_linf(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    rows = []
    floor = 1.0 - log(2.0) - cfg.tolerance("linf_gap")
    ok = True
    for eps in cfg.eps_list:
        gap = measures.linf_gap(eps)
        rows.append((eps, gap))
        ok = ok and gap >= floor
    write_csv(out / "counterexample_linf.csv", "counterexample-linf", cfg, ["eps", "linf_gap"], rows, [("floor", _fmt(floor))])
    worst = min(g for _, g in rows)
    return (0 if ok else 1), (
        f"{'PASS' if ok else 'FAIL'} counterexample-linf: min gap {worst:.9f} "
        f"vs uniform floor 1 - ln 2 = {1.0 - log(2.0):.9f}"
    )


def cmd_gauss_green(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    count = _setting(cfg, "gauss_green", "count", 100, COUNT)
    tol_jump = cfg.tolerance("gauss_green_jump")
    tol_smooth = cfg.tolerance("gauss_green_smooth")
    cases = {"heaviside": measures.heaviside_bv(), "trig": measures.trig_bv()}
    rows = []
    worst = {"heaviside": 0.0, "trig": 0.0}
    for name, u in cases.items():
        done = 0
        while done < count:
            x = float(rng.uniform(-0.5, 0.5))
            s = float(rng.uniform(0.05, 0.45))
            if any(abs(t - (x - s)) < 1e-6 or abs(t - (x + s)) < 1e-6 for t in u.breakpoints()):
                continue
            resid = measures.gauss_green_check(u, s, x)
            rows.append((name, x, s, resid))
            worst[name] = max(worst[name], resid)
            done += 1
    write_csv(out / "gauss_green.csv", "gauss-green", cfg, ["case", "x", "s", "residual"], rows, [("count", count)])
    ok = worst["heaviside"] < tol_jump and worst["trig"] < tol_smooth
    return (0 if ok else 1), (
        f"{'PASS' if ok else 'FAIL'} gauss-green: worst residual jump {worst['heaviside']:.3e}, "
        f"smooth {worst['trig']:.3e}"
    )


def cmd_area(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    cells = _setting(cfg, "area", "cells", 800, COUNT)
    mu = measures.dirac((-1.0, 1.0), 0.0, 1.0)
    f = measures.area_integrand()
    table = measures.area_convergence_table(mu, f, cfg.s_list, cells=cells)
    write_csv(out / "area.csv", "area", cfg, ["s", "area_value", "gap"], table, [("cells", cells), ("measure", "dirac")])
    gaps = [g for _, _, g in table]
    ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    return (0 if ok else 1), (
        f"{'PASS' if ok else 'FAIL'} area: gap decreases "
        f"{', '.join(f'{g:.4f}' for g in gaps)} toward 0"
    )


def cmd_atomic_demo(cfg: ExperimentConfig, out: Path, rng) -> tuple[int, str]:
    s = _setting(cfg, "atomic", "s", 1.0, POSITIVE)
    rows = measures.atomic_divergence_demo(s)
    csv_rows = [(px, py, val, inside) for (px, py), val, inside in rows]
    write_csv(out / "atomic_demo.csv", "atomic-demo", cfg, ["probe_x", "probe_y", "value", "atoms_inside"], csv_rows, [("s", s)])
    vals = {probe: val for probe, val, _ in rows}
    jump = vals.get((0.01, 0.0), 0.0) - vals.get((-0.01, 0.0), 0.0)
    return 0, (
        f"PASS atomic-demo: value jumps by {jump:.6f} across the origin along the x-axis "
        f"(discontinuous ball average)"
    )


COMMANDS = {
    "bessel": cmd_bessel,
    "zeros": cmd_zeros,
    "multiplier": cmd_multiplier,
    "localize": cmd_localize,
    "kernel-check": cmd_kernel_check,
    "witness": cmd_witness,
    "counterexample-linf": cmd_counterexample_linf,
    "gauss-green": cmd_gauss_green,
    "area": cmd_area,
    "atomic-demo": cmd_atomic_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlops",
        description="Experiments with sphere-averaged and weighted radial first-order operators.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=".", help="output directory for CSV artifacts")
        p.add_argument("--threads", type=int, default=1, help="hint only (>= 1); sweeps run in order on one thread")
        p.add_argument("--seed", type=int, default=0, help="seed for random test fields")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = ExperimentConfig.from_ini(args.config)
    except ConfigError as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    out = Path(args.out)
    try:
        status, verdict = COMMANDS[args.subcommand](cfg, out, rng)
    except ConfigError as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return 2
    except (measures.MeasureError, weights.WeightError, ValueError) as exc:
        print(f"ERROR {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    print(verdict)
    return status


if __name__ == "__main__":
    sys.exit(main())
