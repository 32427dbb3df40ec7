"""Command-line front end: reproducible experiments with CSV artifacts.

Each subcommand reads an optional INI config (flat key = value entries under
section headers), runs one experiment and returns ``(ok, summary, header,
rows, meta)``: whether its invariant held, a one-line summary, and its CSV
table with the extra metadata lines.  ``main`` alone reports.  It writes the
table, behind a metadata comment block, to ``<subcommand>.csv`` in ``--out``
(``-`` becomes ``_``), prints ``PASS <subcommand>: <summary>`` or ``FAIL ...``,
and exits 0 on PASS, 1 on a violated invariant or numerical failure, 2 on
config errors.  The CSV is written on PASS and on FAIL, never on exit 2.
An INI file belongs to one subcommand: every value is read, converted and
range-checked by ``_setting``, which records its key, and ``write_csv``
refuses a key the subcommand never read before it writes anything, so a
misspelled or ignored key cannot leave a default silently in force.
Identical config and version produce byte-identical CSV output.  The
``--threads`` flag is only a hint: sweeps run in order on one thread, and
the output never depends on it.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field
from inspect import signature
from math import isfinite, log, pi
from pathlib import Path
from typing import Optional

import numpy as np

import nlops.fields as fields
import nlops.measures as measures
import nlops.operators as operators
import nlops.weights as weights
from nlops import __version__
from nlops.bessel import MAX_ORDER, bessel_j, bessel_zero


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (exit status 2)."""


@dataclass
class ExperimentConfig:
    """The sections of an INI file, their echo, and the keys read so far.

    Every value leaves ``sections`` through ``_setting``, which records its
    ``(section, key)`` in ``read``; ``write_csv`` refuses a key never read.
    """

    sections: dict = field(default_factory=dict)
    echo: tuple = (("config", "<defaults>"),)
    read: set = field(default_factory=set)

    @staticmethod
    def from_ini(path: Optional[str]) -> "ExperimentConfig":
        if path is None:
            return ExperimentConfig()
        # no default section: a [DEFAULT] key is a key like any other, and
        # must be read to be accepted
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
        try:
            with open(path) as fh:
                parser.read_file(fh)
            sections = {name: dict(parser.items(name)) for name in parser.sections()}
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config: {exc}")
        echo = tuple((f"{sec}.{k}", v) for sec in sorted(sections) for k, v in sorted(sections[sec].items()))
        return ExperimentConfig(sections, echo or ExperimentConfig.echo)

    def tolerance(self, key: str) -> float:
        """The ``[tolerance]`` override of ``key``, or its TOLERANCES default."""
        return _setting(self, "tolerance", key, TOLERANCES[key])

    def run(self, key: str):
        """The ``[run]`` value of ``key``, or its RUN default."""
        return _setting(self, "run", key, *RUN[key])


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


#: (convert, check, description) of the value kinds that _setting reads.
NUMBER = (float, isfinite, "a finite number")
NONNEGATIVE = (float, lambda v: isfinite(v) and v >= 0, "a finite number >= 0")
POSITIVE = (float, lambda v: isfinite(v) and v > 0, "a finite positive number")
COUNT = (int, lambda k: k >= 1, "an integer >= 1")
SWITCH = (str.lower, lambda v: v in ("yes", "no", "true", "false", "1", "0"), "one of yes/no/true/false/1/0")
TEXT = (str, bool, "nonempty text")
GRID = (int, lambda k: k >= 4 and k % 2 == 0, "an even integer >= 4")
EXPONENT = (str, lambda text: float(text) >= 1, "a number >= 1 or inf")
ORDER = (float, lambda v: 0 <= v <= MAX_ORDER, f"a Bessel order in [0, {MAX_ORDER:g}]")
SCALES = (
    _parse_floats,
    lambda xs: len(xs) > 0 and all(isfinite(x) and x > 0 for x in xs) and all(b < a for a, b in zip(xs, xs[1:])),
    "a strictly decreasing list of finite positive numbers",
)


def choice(names) -> tuple:
    """The value kind of a name from ``names``."""
    return (str, lambda v: v in names, f"one of {', '.join(sorted(names))}")


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

#: (default, kind) of every ``[run]`` key.  ``p`` stays text, so the CSV
#: records it as written.
RUN = {
    "n_grid": (64, GRID),
    "p": ("2", EXPONENT),
    "s_list": ("0.3 0.1", SCALES),
    "eps_list": ("0.2 0.1 0.05 0.025", SCALES),
}

#: Operator dimensions with sphere rules (``quadrature.sphere_quadrature``).
DIMENSIONS = (1, 2, 3)


def _setting(cfg: ExperimentConfig, section: str, key: str, default, kind=NUMBER):
    """``[section] key`` (or ``default``), converted and range-checked by ``kind``.

    Records the key as read.  A ``None`` default lets the key be absent, and
    then the result is None.  Raises ConfigError naming the section and the
    key when the value does not convert or fails the check.
    """
    cfg.read.add((section, key))
    raw = cfg.sections.get(section, {}).get(key, default)
    if raw is None:
        return None
    convert, check, rule = kind
    try:
        value = convert(raw)
        if check(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"[{section}] {key} must be {rule}, got {raw!r}")


def build_operator(cfg: ExperimentConfig) -> operators.FirstOrderOperator:
    path = _setting(cfg, "operator", "file", None, TEXT)
    if path is not None:
        try:
            op = operators.from_text_file(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read operator file: {exc}")
    else:
        name = _setting(cfg, "operator", "preset", "derivative", choice(operators.PRESETS))
        try:
            op = operators.preset(name, _setting(cfg, "operator", "n", 1, COUNT))
        except ValueError as exc:
            raise ConfigError(str(exc))
    if op.n not in DIMENSIONS:
        raise ConfigError(f"operator dimension n must be one of {DIMENSIONS}, got {op.n}")
    return op


def build_weight(cfg: ExperimentConfig) -> weights.RadialWeight:
    name = _setting(cfg, "weight", "preset", "gaussian", choice(weights.WEIGHT_PRESETS))
    normalize = _setting(cfg, "weight", "normalize", "yes", SWITCH) in ("yes", "true", "1")
    preset = weights.WEIGHT_PRESETS[name]
    params = signature(preset).parameters.values()
    kwargs = {p.name: _setting(cfg, "weight", p.name, None, COUNT if p.name == "n" else NUMBER) for p in params}
    missing = [f"[weight] {p.name}" for p in params if p.default is p.empty and kwargs[p.name] is None]
    if missing:
        raise ConfigError(f"weight preset {name!r} requires {', '.join(missing)}")
    try:
        w = preset(**{key: value for key, value in kwargs.items() if value is not None})
    except weights.WeightError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[weight] preset {name!r}: {exc}")
    return weights.normalize(w) if normalize else w


def parse_terms(text: str) -> list:
    """Parse 'm1 m2 | c1 c2; ...' into (frequency, coefficient) pairs.

    Coefficients use Python complex syntax (e.g. ``0.5-0.25j``).  Raises
    ValueError on a term that is not two bar-separated lists of numbers.
    """
    terms = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        mpart, cpart = chunk.split("|")
        terms.append((tuple(int(tok) for tok in mpart.split()), [complex(tok) for tok in cpart.split()]))
    return terms


def build_fields(cfg: ExperimentConfig, op: operators.FirstOrderOperator, rng) -> list:
    """The fields of a run: ``[field] count`` random fields drawn in sequence
    from ``rng`` (``kind = random``), else the one given or default field."""
    N = cfg.run("n_grid")
    fits = lambda terms: len(terms) > 0 and all(
        len(m) == op.n and len(c) == op.dim_v and max(map(abs, m)) < N // 2 and np.isfinite(c).all() for m, c in terms
    )
    rule = f"';'-separated 'm | c' terms of {op.n} integer(s) |m_i| < {N // 2} and {op.dim_v} finite coefficient(s)"
    terms = _setting(cfg, "field", "terms", None, (parse_terms, fits, rule))
    if terms is not None:
        return [fields.trig_field_from_coeffs(op.n, N, op.dim_v, terms)]
    if _setting(cfg, "field", "kind", "default", choice(("default", "random"))) == "random":
        below_nyquist = (int, lambda k: 1 <= k < N // 2, f"an integer in [1, {N // 2 - 1}]")
        deg = _setting(cfg, "field", "max_degree", 3, below_nyquist)
        num = _setting(cfg, "field", "num_terms", 6, COUNT)
        count = _setting(cfg, "field", "count", 1, COUNT)
        return [fields.random_trig_field(op.n, N, op.dim_v, rng, max_degree=deg, num_terms=num) for _ in range(count)]
    # default: v sin(2 pi x_1) with v = e_1
    coeff = np.zeros(op.dim_v, dtype=complex)
    coeff[0] = -0.5j
    mvec = (1,) + (0,) * (op.n - 1)
    return [fields.trig_field_from_coeffs(op.n, N, op.dim_v, [(mvec, coeff)])]


# ---------------------------------------------------------------------------
# CSV output


def write_csv(path: Path, subcommand: str, cfg: ExperimentConfig, header, rows, extra_meta=()):
    """Write the artifact, after checking that the subcommand read every INI key."""
    unread = [f"[{sec}] {key}" for sec in sorted(cfg.sections) for key in cfg.sections[sec] if (sec, key) not in cfg.read]
    if unread:
        raise ConfigError(f"{subcommand} does not read {', '.join(unread)}")
    lines = [f"# tool: nlops {__version__}", f"# subcommand: {subcommand}"]
    for key, val in cfg.echo:
        lines.append(f"# config {key} = {val}")
    for key, val in extra_meta:
        lines.append(f"# {key} = {val}")
    for key in sorted(cfg.sections.get("tolerance", {})):
        lines.append(f"# tolerance {key} = {cfg.tolerance(key)}")
    lines.append(",".join(header))
    if rows:
        # one template per artifact, typed by the first row: floats (numpy's
        # too) to 17 significant digits, everything else as str() gives it
        template = ",".join("%.16e" if isinstance(x, float) else "%s" for x in rows[0])
        lines.extend(template % tuple(row) for row in rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a new file, not the old one rewritten: ext4 flushes a truncated file
    # on close, and a link to the old artifact keeps its bytes
    path.unlink(missing_ok=True)
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands (each returns (ok, summary, header, rows, meta); main reports)


def cmd_bessel(cfg: ExperimentConfig, rng) -> tuple:
    alpha = _setting(cfg, "bessel", "alpha", 0.5, ORDER)
    t_lo = _setting(cfg, "bessel", "t_min", 0.1, NONNEGATIVE)
    t_hi = _setting(cfg, "bessel", "t_max", 50.0)
    step = _setting(cfg, "bessel", "t_step", 0.01, POSITIVE)
    if t_lo > t_hi:
        raise ConfigError(f"bessel t_min must not exceed t_max, got {t_lo:g} > {t_hi:g}")
    t = np.arange(t_lo, t_hi + 0.5 * step, step)
    vals = bessel_j(alpha, t)
    rows = list(zip(t, vals))
    tol = cfg.tolerance("bessel_half")
    ok, summary = True, f"{len(rows)} values of J_{alpha:g} written"
    if alpha == 0.5:
        # sqrt(2/(pi t)) sin t, written with sinc so that t = 0 stays finite
        closed = np.sqrt(2.0 * t / pi) * np.sinc(t / pi)
        worst = float(np.max(np.abs(vals - closed)))
        ok, summary = worst < tol, f"max deviation from the half-order closed form {worst:.3e}"
    return ok, summary, ["t", "j_alpha"], rows, [("alpha", alpha)]


def cmd_zeros(cfg: ExperimentConfig, rng) -> tuple:
    alpha = _setting(cfg, "zeros", "alpha", 0.5, ORDER)
    count = _setting(cfg, "zeros", "count", 5, COUNT)
    ks = np.arange(1, count + 1)
    zeros = bessel_zero(alpha, ks)
    resid = np.abs(bessel_j(alpha, zeros))
    worst = float(np.max(resid))
    rows = list(zip(ks, zeros, resid))
    return worst < 1e-10, f"worst residual {worst:.3e}", ["k", "zero", "residual"], rows, [("alpha", alpha)]


def cmd_multiplier(cfg: ExperimentConfig, rng) -> tuple:
    w = build_weight(cfg)
    ascending = lambda xs: 0 < len(xs) and all(map(isfinite, xs)) and 0 <= xs[0] and list(xs) == sorted(xs)
    xi_list = (lambda text: np.asarray(_parse_floats(text)), ascending, "an ascending list of finite numbers >= 0")
    grid = _setting(cfg, "multiplier", "xi_list", None, xi_list)
    if grid is None:
        # the default gaussian falls to ~5e-13 by xi = 1.2, below the ~1e-12
        # accuracy left by its tail truncation (weights.TAIL_CUTOFF); est_error
        # compares two panel rules and does not show that error
        lo = _setting(cfg, "multiplier", "xi_min", 0.0, NONNEGATIVE)
        above_lo = (float, lambda x: isfinite(x) and x >= lo, "a finite number >= xi_min")
        hi = _setting(cfg, "multiplier", "xi_max", 1.2, above_lo)
        count = _setting(cfg, "multiplier", "xi_count", 51, COUNT)
        grid = np.linspace(lo, hi, count)
    vals, errs = weights.mu_hat_scan(w, grid)
    report = weights.positivity_report(grid, vals)
    bound = w.mass + cfg.tolerance("multiplier_bound")
    sup = float(np.max(np.abs(vals)))
    summary = (
        f"{report.verdict}; min {report.min_value:.6e} at xi={report.argmin_xi:g}; "
        f"sup |mu_hat| {sup:.6e} vs mass {w.mass:.6e}"
    )
    meta = [("weight", w.name), ("mass", f"{w.mass:.16e}"), ("positivity", report.verdict)]
    return sup <= bound, summary, ["xi", "mu_hat", "est_error"], list(zip(grid, vals, errs)), meta


def cmd_localize(cfg: ExperimentConfig, rng) -> tuple:
    op = build_operator(cfg)
    us = build_fields(cfg, op, rng)
    preset = _setting(cfg, "weight", "preset", "annulus", choice(("annulus", "bump")))
    p, eps_list = cfg.run("p"), cfg.run("eps_list")
    if preset == "bump":
        base = weights.normalize(weights.bump(op.n))
        fam, family = weights.rescaled_family(base), f"rescaled-{base.name}"
    elif op.n == 1:
        fam, family = weights.annulus, "annulus"
    else:
        raise ConfigError("localization family dimension does not match the operator")
    table = fields.localization_table(op, us, fam, float(p), eps_list)
    slack = 1.0 + cfg.tolerance("localize_monotone_slack")
    ok = all(isfinite(e) for _, e in table) and all(b <= slack * a for (_, a), (_, b) in zip(table, table[1:]))
    eps, err = table[-1]
    summary = f"error decreases along eps (final {err:.6e} at eps={eps:g}"
    if len(table) > 1 and table[-2][1]:
        summary += f", last ratio {err / table[-2][1]:.4f}"
    summary += ")"
    return ok, summary, ["eps", "lp_error"], table, [("family", family), ("p", p)]


def cmd_kernel_check(cfg: ExperimentConfig, rng) -> tuple:
    op = build_operator(cfg)
    s = _setting(cfg, "kernel", "s", 0.5, POSITIVE)
    max_degree = _setting(cfg, "kernel", "max_degree", 4, COUNT)
    scan = fields.kernel_check_torus(op, s, max_degree)
    cell = " ".join(["%d"] * op.n)
    m_text = [cell % tuple(mvec) for mvec in scan.m.tolist()]
    columns = (scan.m_norm.tolist(), scan.symbol_rank.tolist(), scan.j_value.tolist())
    rows = list(zip(m_text, *columns, [fields.BESSEL_EVAL_ERR] * len(m_text), scan.flag))
    zero = np.flatnonzero(scan.flag == "zero")
    flagged = ", ".join(f"({m_text[k]})" for k in zero[:8])
    more = "" if len(zero) <= 8 else f" and {len(zero) - 8} more"
    summary = scan.verdict + (f"; flagged {flagged}{more}" if flagged else "")
    header = ["m", "m_norm", "symbol_rank", "j_value", "j_error", "flag"]
    return True, summary, header, rows, [("s", s), ("max_degree", max_degree)]


def cmd_witness(cfg: ExperimentConfig, rng) -> tuple:
    op = build_operator(cfg)
    s = _setting(cfg, "witness", "s", 0.5, POSITIVE)
    N = cfg.run("n_grid")
    below_nyquist = lambda m: any(m) and max(map(abs, m)) < N // 2
    frequency = (_parse_ints, below_nyquist, f"a nonzero integer frequency with entries below {N // 2}")
    mvec = _setting(cfg, "witness", "m", "1", frequency)
    if len(mvec) != op.n:
        raise ConfigError(f"witness frequency {mvec} does not match operator dimension {op.n}")
    fits = lambda v: len(v) == op.dim_v and all(map(isfinite, v))
    fiber = (_parse_floats, fits, f"{op.dim_v} finite number(s), one per fiber component")
    v = np.asarray(_setting(cfg, "witness", "v", " ".join(["1"] + ["0"] * (op.dim_v - 1)), fiber))
    report = fields.kernel_witness(op, s, mvec, v, N=N)
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
    tol = cfg.tolerance("witness_sup")
    ok = report.sup_spherical < tol and report.sup_local > 1.0
    summary = f"sup|A_s u| = {report.sup_spherical:.3e}, sup|A u| = {report.sup_local:.6f}"
    header = ["m", "s", "j_value", "sup_local", "sup_spherical", "symbol_rank", "symbol_image_norm"]
    return ok, summary, header, rows, [("advisories", "; ".join(report.advisories) or "none")]


def cmd_counterexample_linf(cfg: ExperimentConfig, rng) -> tuple:
    # linf_gap's averaged sign density needs eps < 1/4
    convert, decreasing, rule = SCALES
    below_quarter = (convert, lambda xs: decreasing(xs) and max(xs) < 0.25, f"{rule} below 1/4")
    rows = []
    floor = 1.0 - log(2.0) - cfg.tolerance("linf_gap")
    ok = True
    for eps in _setting(cfg, "run", "eps_list", RUN["eps_list"][0], below_quarter):
        gap = measures.linf_gap(eps)
        rows.append((eps, gap))
        ok = ok and gap >= floor
    worst = min(g for _, g in rows)
    summary = f"min gap {worst:.9f} vs uniform floor 1 - ln 2 = {1.0 - log(2.0):.9f}"
    return ok, summary, ["eps", "linf_gap"], rows, [("floor", f"{floor:.16e}")]


def cmd_gauss_green(cfg: ExperimentConfig, rng) -> tuple:
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
    ok = worst["heaviside"] < tol_jump and worst["trig"] < tol_smooth
    summary = f"worst residual jump {worst['heaviside']:.3e}, smooth {worst['trig']:.3e}"
    return ok, summary, ["case", "x", "s", "residual"], rows, [("count", count)]


def cmd_area(cfg: ExperimentConfig, rng) -> tuple:
    cells = _setting(cfg, "area", "cells", 800, COUNT)
    mu = measures.dirac((-1.0, 1.0), 0.0, 1.0)
    f = measures.area_integrand()
    table = measures.area_convergence_table(mu, f, cfg.run("s_list"), cells=cells)
    gaps = [g for _, _, g in table]
    ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    summary = f"gap decreases {', '.join(f'{g:.4f}' for g in gaps)} toward 0"
    return ok, summary, ["s", "area_value", "gap"], table, [("cells", cells), ("measure", "dirac")]


def cmd_atomic_demo(cfg: ExperimentConfig, rng) -> tuple:
    s = _setting(cfg, "atomic", "s", 1.0, POSITIVE)
    rows = measures.atomic_divergence_demo(s)
    csv_rows = [(px, py, val, inside) for (px, py), val, inside in rows]
    vals = {probe: val for probe, val, _ in rows}
    jump = vals.get((0.01, 0.0), 0.0) - vals.get((-0.01, 0.0), 0.0)
    summary = f"value jumps by {jump:.6f} across the origin along the x-axis (discontinuous ball average)"
    ok = isfinite(jump) and all(map(isfinite, vals.values()))
    return ok, summary, ["probe_x", "probe_y", "value", "atoms_inside"], csv_rows, [("s", s)]


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
    parser.add_argument(
        "subcommand", choices=COMMANDS, metavar="subcommand", help=f"the experiment: {', '.join(COMMANDS)}"
    )
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=".", help="output directory for CSV artifacts")
    parser.add_argument("--threads", type=int, default=1, help="hint only (>= 1); sweeps run in order on one thread")
    parser.add_argument("--seed", type=int, default=0, help="seed for random test fields (>= 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.subcommand
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = ExperimentConfig.from_ini(args.config)
        ok, summary, header, rows, meta = COMMANDS[name](cfg, np.random.default_rng(args.seed))
        write_csv(Path(args.out) / f"{name.replace('-', '_')}.csv", name, cfg, header, rows, meta)
    except ConfigError as exc:
        print(f"CONFIG ERROR: {exc}", file=sys.stderr)
        return 2
    except (measures.MeasureError, weights.WeightError, ValueError, ArithmeticError, MemoryError, OSError) as exc:
        print(f"ERROR {name}: {exc}", file=sys.stderr)
        return 1
    print(f"{'PASS' if ok else 'FAIL'} {name}: {summary}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
