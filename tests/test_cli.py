"""Command-line interface: exit statuses, CSV artifact format, and
byte-level determinism."""

import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlops
from nlops import fields
from nlops.cli import COMMANDS, ExperimentConfig, main, parse_terms, write_csv
from nlops.fields import localization_table, random_trig_field
from nlops.operators import preset
from nlops.weights import annulus

SCI = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}$")


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


#: Each subcommand's run: (INI text or None, a phrase of its verdict, phrases
#: of its CSV, and its number of CSV lines after the metadata, or None).
RUNS = {
    "bessel": (None, "half-order closed form", [], None),
    "zeros": (None, "worst residual", [], None),
    "multiplier": (None, "positivity certificate", [], None),
    "localize": ("[run]\neps_list = 0.1 0.05\n", "error decreases", [], None),
    "kernel-check": (None, "kernel frequencies found", [], None),
    "witness": (None, "sup|A_s u|", [], None),
    "counterexample-linf": (
        "[run]\neps_list = 0.15 0.08\n",
        "uniform floor",
        ["1.4999999999999999e-01", "8.0000000000000002e-02"],
        None,
    ),
    "gauss-green": (None, "worst residual jump", ["heaviside", "trig"], None),
    "area": ("[run]\ns_list = 0.2 0.1 0.05\n", "gap decreases", [], 4),  # header + one row per scale
    "atomic-demo": (None, "discontinuous ball average", [], None),
}


class TestSubcommandsRun:
    """One run of every subcommand in ``COMMANDS``, as ``test_<name>`` with
    ``-`` turned into ``_``; each reads its case from ``RUNS``."""

    def check(self, name, tmp_path, capsys):
        text, phrase, body_phrases, data_lines = RUNS[name]
        argv = [name] + (["--config", write_config(tmp_path, text)] if text else [])
        assert run(tmp_path, *argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"PASS {name}: ")
        assert phrase in lines[0]
        csvs = list(tmp_path.glob("*.csv"))
        assert [path.name for path in csvs] == [f"{name.replace('-', '_')}.csv"]
        body = csvs[0].read_text()
        assert body.splitlines()[1] == f"# subcommand: {name}"
        assert all(snippet in body for snippet in body_phrases)
        if data_lines is not None:
            assert len([line for line in body.splitlines() if not line.startswith("#")]) == data_lines


def _subcommand_test(name):
    return lambda self, tmp_path, capsys: self.check(name, tmp_path, capsys)


for _name in COMMANDS:
    setattr(TestSubcommandsRun, f"test_{_name.replace('-', '_')}", _subcommand_test(_name))


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency: the package builds its own Gauss rules
    # and incomplete gamma function
    probe = "import sys, nlops.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(nlops.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    for name in nlops.__all__:
        getattr(nlops, name)


def test_default_localize_builds_one_annulus_per_eps(tmp_path, monkeypatch):
    # the annulus family is weights.annulus itself: one member per eps of the
    # default eps_list, and none built only to read its dimension
    made = []

    def counted(eps):
        made.append(eps)
        return annulus(eps)

    monkeypatch.setattr("nlops.weights.annulus", counted)
    assert run(tmp_path, "localize") == 0
    assert made == [0.2, 0.1, 0.05, 0.025]


def test_dense_multiplier_and_linf_counterexample_leave_numpy_ma_out(tmp_path):
    # a plain np.unique imports numpy.ma on its first call in a process;
    # neither the multiplier tables nor the measure sweep need it
    probe = (
        "import sys, numpy as np, nlops.cli as cli, nlops.fields as F, nlops.operators as O, nlops.weights as W\n"
        "u = F.TorusField(n=2, N=32, values=np.random.default_rng(0).standard_normal((32, 32, 1)))\n"
        "F.apply_radial_spectral(O.gradient(2), u, W.normalize(W.bump(2, 0.3)))\n"
        f"assert cli.main(['counterexample-linf', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlops.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "False"


def test_double_precision_runs_leave_mpmath_out(tmp_path):
    # only mu_hat_highprec computes in mpf; normalizing a weight that
    # declares an mpmath profile must not load the module
    (tmp_path / "sized.ini").write_text("[weight]\npreset = gaussian\n[multiplier]\nxi_count = 101\n")
    out = str(tmp_path)
    probe = (
        "import sys, numpy as np, nlops.cli as cli, nlops.fields as F, nlops.operators as O, nlops.weights as W\n"
        f"assert cli.main(['multiplier', '--out', {out!r}]) == 0\n"
        f"assert cli.main(['localize', '--out', {out!r}]) == 0\n"
        f"assert cli.main(['multiplier', '--config', {str(tmp_path / 'sized.ini')!r}, '--out', {out!r}]) == 0\n"
        "u = F.TorusField(n=2, N=32, values=np.random.default_rng(0).standard_normal((32, 32, 1)))\n"
        "F.apply_radial_spectral(O.gradient(2), u, W.normalize(W.gaussian_modification(2, 0.05)))\n"
        "print('mpmath' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nlops.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv,status", [(["zeros"], 0), (["witness", "--config", "s03.ini"], 1), (["zeros", "--threads", "0"], 2)]
)
def test_module_entry_point_passes_the_exit_status(tmp_path, argv, status):
    # `python -m nlops.cli` is the path of the console script: main's status
    # must reach the shell
    (tmp_path / "s03.ini").write_text("[witness]\ns = 0.3\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nlops.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "nlops.cli", *argv], cwd=tmp_path, env=env, capture_output=True)
    assert done.returncode == status


class TestExitStatuses:
    def test_increasing_eps_list_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\neps_list = 0.05 0.1\n")
        assert run(tmp_path, "localize", "--config", cfg) == 2

    def test_unknown_operator_preset(self, tmp_path):
        cfg = write_config(tmp_path, "[operator]\npreset = hessian\n")
        assert run(tmp_path, "localize", "--config", cfg) == 2

    def test_unknown_weight_preset(self, tmp_path):
        cfg = write_config(tmp_path, "[weight]\npreset = cauchy\n")
        assert run(tmp_path, "multiplier", "--config", cfg) == 2

    def test_bad_field_term(self, tmp_path):
        cfg = write_config(tmp_path, "[field]\nterms = 1 2 3\n")
        assert run(tmp_path, "localize", "--config", cfg) == 2

    def test_malformed_ini(self, tmp_path):
        cfg = write_config(tmp_path, "n_grid = 64\nno section header\n")
        assert run(tmp_path, "bessel", "--config", cfg) == 2

    def test_bad_interpolation_is_config_error(self, tmp_path, capsys):
        # '%' starts an interpolation, so a lone one is malformed
        cfg = write_config(tmp_path, "[bessel]\nalpha = 5%\n")
        assert run(tmp_path, "bessel", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith("CONFIG ERROR: malformed config")

    @pytest.mark.parametrize(
        "argv,phrase", [(["cauchy"], "invalid choice"), ([], "required")], ids=["unknown", "missing"]
    )
    def test_bad_subcommand_exits_2_through_argparse(self, tmp_path, capsys, argv, phrase):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2
        assert phrase in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_missing_config_file(self, tmp_path):
        assert run(tmp_path, "bessel", "--config", str(tmp_path / "absent.ini")) == 2

    def test_odd_grid_size(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\nn_grid = 33\n")
        assert run(tmp_path, "localize", "--config", cfg) == 2

    def test_zero_bessel_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[bessel]\nt_step = 0\n")
        assert run(tmp_path, "bessel", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith("CONFIG ERROR")

    def test_missing_operator_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, f"[operator]\nfile = {tmp_path / 'absent.txt'}\n")
        assert run(tmp_path, "localize", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith("CONFIG ERROR")

    @pytest.mark.parametrize(
        "subcommand,section",
        [
            ("gauss-green", "[gauss_green]\ncount = 0\n"),
            ("kernel-check", "[kernel]\nmax_degree = 0\n"),
            ("area", "[area]\ncells = 0\n"),
            ("bessel", "[bessel]\nt_min = 5\nt_max = 1\n"),
        ],
        ids=["gauss_green-count", "kernel-max_degree", "area-cells", "bessel-t_range"],
    )
    def test_empty_range_is_config_error(self, tmp_path, capsys, subcommand, section):
        # an empty scan must not pass vacuously, and an empty range is a
        # configuration error, not a numerical failure
        cfg = write_config(tmp_path, section)
        assert run(tmp_path, subcommand, "--config", cfg) == 2
        assert capsys.readouterr().err.startswith("CONFIG ERROR")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "subcommand,section,key,value",
        [
            ("multiplier", "multiplier", "xi_count", "0"),
            ("multiplier", "multiplier", "xi_min", "-1"),
            ("multiplier", "multiplier", "xi_list", "0.5 0.1"),
            ("bessel", "bessel", "t_min", "-1"),
            ("bessel", "bessel", "alpha", "abc"),
            ("zeros", "zeros", "alpha", "-3"),
            ("zeros", "zeros", "count", "x"),
            ("kernel-check", "kernel", "s", "0"),
            ("witness", "witness", "m", "0"),
            ("witness", "witness", "s", "-1"),
            ("atomic-demo", "atomic", "s", "0"),
            ("kernel-check", "kernel", "s", "inf"),
            ("bessel", "bessel", "t_max", "inf"),
            ("multiplier", "multiplier", "xi_max", "inf"),
            ("witness", "witness", "m", "32"),
            ("witness", "witness", "v", "inf"),
            ("witness", "witness", "v", "1 2 3"),
        ],
        ids=lambda v: v.replace(" ", "_"),
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, subcommand, section, key, value):
        # an out-of-range or unreadable value is a configuration error that
        # names its section and key, not a numerical failure
        cfg = write_config(tmp_path, f"[{section}]\n{key} = {value}\n")
        assert run(tmp_path, subcommand, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR")
        assert f"[{section}] {key}" in err

    @pytest.mark.parametrize(
        "subcommand,text,names",
        [
            ("localize", "[field]\nkind = random\nnum_terms = 0\n", "[field] num_terms"),
            ("localize", "[field]\nkind = random\nnum_terms = x\n", "[field] num_terms"),
            ("localize", "[field]\nkind = random\nmax_degree = 0\n", "[field] max_degree"),
            ("localize", "[field]\nkind = random\nmax_degree = 32\n", "[field] max_degree"),
            ("multiplier", "[weight]\npreset = gaussian\nsigma = -1\n", "[weight]"),
            ("multiplier", "[weight]\npreset = gaussian\nsigma = inf\n", "[weight] sigma"),
            ("localize", "[field]\nterms = 1 | infj\n", "[field] terms"),
            ("localize", "[field]\nterms = 1 | nanj\n", "[field] terms"),
            ("localize", "[field]\nterms = 32 | 1\n", "[field] terms"),
            ("localize", "[weight]\npreset = gaussian\nsigma = 0.3\n", "[weight] preset"),
            ("multiplier", "[weight]\npreset = bump\n", "[weight] n"),
            ("multiplier", "[weight]\npreset = fractional\nn = 3\ns = 0.0005\n", "s = 0.0005 is below 0.001"),
            ("multiplier", "[weight]\npreset = annulus\nn = 2\n", "n = 2"),
            (
                "localize",
                "[operator]\npreset = gradient\nn = 2\n[weight]\npreset = annulus\n",
                "localization family dimension does not match the operator",
            ),
            ("localize", "[field]\nterms = 1 0 | 1 ; 2 | 1\n", "[field] terms"),
            ("localize", "[field]\nterms = ;\n", "[field] terms"),
            ("localize", "[field]\nterms = 1 | x\n", "[field] terms"),
            ("localize", "[field]\nterms = 1 | 1 | 1\n", "[field] terms"),
        ],
        ids=[
            "num_terms-0",
            "num_terms-x",
            "max_degree-0",
            "max_degree-nyquist",
            "sigma-negative",
            "sigma-inf",
            "terms-inf",
            "terms-nan",
            "terms-nyquist",
            "localize-gaussian",
            "bump-without-n",
            "fractional-small-s",
            "annulus-n-2",
            "localize-annulus-n-2",
            "terms-wrong-length",
            "terms-empty",
            "terms-bad-token",
            "terms-two-bars",
        ],
    )
    def test_bad_field_or_weight_is_config_error(self, tmp_path, capsys, subcommand, text, names):
        # a zero field must not pass vacuously, and a weight the preset
        # rejects or lacks a required parameter of, a family of another
        # dimension than the operator, a non-finite field coefficient, a
        # field frequency on the Nyquist row (N = 64), a term of the wrong
        # length, an empty term list, a term token that is not a number or a
        # term with two bars is a configuration error, not a numerical failure
        cfg = write_config(tmp_path, text)
        assert run(tmp_path, subcommand, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR")
        assert names in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "subcommand,text,names",
        [
            ("bessel", "[bessel]\nt_mx = 10\n", "[bessel] t_mx"),
            ("zeros", "[zeros]\ncuont = 3\n", "[zeros] cuont"),
            ("multiplier", "[multiplier]\nxi_cout = 5\n", "[multiplier] xi_cout"),
            ("multiplier", "[weight]\npreset = gaussian\nsigm = 0.5\n", "[weight] sigm"),
            ("multiplier", "[run]\nn_gird = 8\n", "[run] n_gird"),
            ("localize", "[operator]\nprest = derivative\n", "[operator] prest"),
            ("localize", "[field]\nknd = random\n", "[field] knd"),
            ("localize", "[weight]\npreset = bump\nradius = 0.05\n", "[weight] radius"),
            ("localize", "[field]\nterms = 1 | -0.5j\nkind = random\n", "[field] kind"),
            ("kernel-check", "[kernel]\nmax_degre = 2\n", "[kernel] max_degre"),
            ("witness", "[witness]\nss = 0.5\n", "[witness] ss"),
            ("counterexample-linf", "[run]\neps_lst = 0.1\n", "[run] eps_lst"),
            ("gauss-green", "[gauss_green]\ncont = 5\n", "[gauss_green] cont"),
            ("area", "[area]\ncell = 10\n", "[area] cell"),
            ("atomic-demo", "[atomic]\nss = 0.5\n", "[atomic] ss"),
            ("localize", "[DEFAULT]\nn_grid = 8\n", "[DEFAULT] n_grid"),
            ("localize", "[field]\nterms = 1 | -0.5j\ncount = 3\n", "[field] count"),
            ("localize", "[field]\ncount = 3\n", "[field] count"),
        ],
        ids=[
            "bessel-t_mx",
            "zeros-cuont",
            "multiplier-xi_cout",
            "multiplier-weight-sigm",
            "multiplier-run-n_gird",
            "localize-operator-prest",
            "localize-field-knd",
            "localize-bump-radius",
            "localize-terms-and-kind",
            "kernel-max_degre",
            "witness-ss",
            "counterexample-linf-run-eps_lst",
            "gauss_green-cont",
            "area-cell",
            "atomic-ss",
            "localize-DEFAULT-n_grid",
            "localize-terms-and-count",
            "localize-default-field-count",
        ],
    )
    def test_unread_key_is_config_error(self, tmp_path, capsys, subcommand, text, names):
        # a key the subcommand never reads (misspelled, or shadowed by another
        # key) would otherwise leave its default in force
        cfg = write_config(tmp_path, text)
        assert run(tmp_path, subcommand, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR")
        assert names in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "subcommand,text,message",
        [
            ("kernel-check", "[operator]\npreset = curl\nn = 2\n", "curl preset is only defined for n=3"),
            ("kernel-check", "[operator]\npreset = derivative\nn = 2\n", "derivative preset is only defined for n=1"),
            (
                "witness",
                "[operator]\npreset = gradient\nn = 2\n[witness]\nm = 1 0 0\n",
                "witness frequency (1, 0, 0) does not match operator dimension 2",
            ),
        ],
        ids=["curl-n-2", "derivative-n-2", "witness-m-length"],
    )
    def test_dimension_mismatch_is_config_error(self, tmp_path, capsys, subcommand, text, message):
        # an operator preset, or a witness frequency, of another dimension
        cfg = write_config(tmp_path, text)
        assert run(tmp_path, subcommand, "--config", cfg) == 2
        assert capsys.readouterr().err.startswith(f"CONFIG ERROR: {message}")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("eps_list", ["0.3", "0.25 0.1"])
    def test_linf_scale_from_a_quarter_is_config_error(self, tmp_path, capsys, eps_list):
        # the averaged sign density of counterexample-linf needs eps < 1/4
        cfg = write_config(tmp_path, f"[run]\neps_list = {eps_list}\n")
        assert run(tmp_path, "counterexample-linf", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR: [run] eps_list")
        assert not list(tmp_path.glob("*.csv"))

    def test_operator_file_with_dimension_is_config_error(self, tmp_path, capsys):
        # the file fixes the dimension, so [operator] n would be ignored
        path = tmp_path / "op.txt"
        path.write_text("1 1 1\n1\n")
        cfg = write_config(tmp_path, f"[operator]\nfile = {path}\nn = 2\n")
        assert run(tmp_path, "localize", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR") and "[operator] n" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_tolerance_is_config_error(self, tmp_path, capsys, value):
        # every comparison with nan is false, so a nan tolerance would turn
        # a correct run into a numerical failure
        cfg = write_config(tmp_path, f"[tolerance]\nwitness_sup = {value}\n")
        assert run(tmp_path, "witness", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR")
        assert "[tolerance] witness_sup" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_unknown_tolerance_is_config_error(self, tmp_path, capsys):
        # a misspelled override would otherwise leave the default in force
        cfg = write_config(tmp_path, "[tolerance]\nwitnes_sup = 0\n")
        assert run(tmp_path, "witness", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR")
        assert "[tolerance] witnes_sup" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_tolerance_override_is_read_and_echoed(self, tmp_path, capsys):
        # the sphere-scale sup at the kernel scale is ~1e-16, above this bound
        cfg = write_config(tmp_path, "[tolerance]\nwitness_sup = 1e-30\n")
        assert run(tmp_path, "witness", "--config", cfg) == 1
        text = (tmp_path / "witness.csv").read_text()
        assert "# tolerance witness_sup = 1e-30\n" in text

    @pytest.mark.parametrize("value", ["ys", "2", "on", ""])
    def test_bad_normalize_is_config_error(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, f"[weight]\npreset = bump\nn = 1\nnormalize = {value}\n")
        assert run(tmp_path, "multiplier", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR")
        assert "[weight] normalize" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_malformed_operator_file(self, tmp_path, capsys):
        path = tmp_path / "op.txt"
        path.write_text("2 1 2\n1 0\n")
        cfg = write_config(tmp_path, f"[operator]\nfile = {path}\n")
        assert run(tmp_path, "kernel-check", "--config", cfg) == 2
        assert capsys.readouterr().err.startswith("CONFIG ERROR: cannot read operator file")

    @pytest.mark.parametrize("subcommand,key", [("localize", "eps_list"), ("area", "s_list")])
    def test_infinite_scale_is_config_error(self, tmp_path, capsys, subcommand, key):
        cfg = write_config(tmp_path, f"[run]\n{key} = inf 0.1\n")
        assert run(tmp_path, subcommand, "--config", cfg) == 2
        assert capsys.readouterr().err.startswith(f"CONFIG ERROR: [run] {key}")

    @pytest.mark.parametrize("source", ["preset", "file"])
    def test_unsupported_dimension_is_config_error(self, tmp_path, capsys, source):
        # sphere rules exist for n = 1, 2, 3 only
        if source == "preset":
            operator = "preset = gradient\nn = 4"
        else:
            path = tmp_path / "op4.txt"
            path.write_text("4 1 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
            operator = f"file = {path}"
        cfg = write_config(tmp_path, f"[operator]\n{operator}\n[run]\nn_grid = 4\n")
        assert run(tmp_path, "kernel-check", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR") and "dimension" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_nonpositive_threads(self, tmp_path, capsys, threads):
        assert run(tmp_path, "zeros", "--threads", threads) == 2
        assert capsys.readouterr().err.startswith("CONFIG ERROR")
        assert not (tmp_path / "zeros.csv").exists()

    def test_negative_seed(self, tmp_path, capsys):
        assert run(tmp_path, "witness", "--seed", "-1") == 2
        assert capsys.readouterr().err.startswith("CONFIG ERROR: --seed")
        assert not (tmp_path / "witness.csv").exists()

    def test_failed_invariant_exits_one(self, tmp_path, capsys):
        # s = 0.3 is not a kernel scale, so the witness comparison fails
        # numerically rather than through configuration
        cfg = write_config(tmp_path, "[witness]\ns = 0.3\n")
        assert run(tmp_path, "witness", "--config", cfg) == 1
        assert capsys.readouterr().out.startswith("FAIL witness: ")
        # a failed invariant still leaves its evidence
        assert (tmp_path / "witness.csv").read_text().splitlines()[1] == "# subcommand: witness"

    def test_frequency_past_an_array_index_exits_one_with_its_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[multiplier]\nxi_list = 0 1e20\n")
        assert run(tmp_path, "multiplier", "--config", cfg) == 1
        assert capsys.readouterr().err.startswith("ERROR multiplier: mu_hat at xi = 1e+20 needs ")

    @pytest.mark.parametrize(
        "subcommand,alpha",
        [("bessel", "200"), ("bessel", "10"), ("zeros", "20"), ("zeros", "120")],
        ids=["bessel-alpha-overflow", "bessel-alpha-10", "zeros-alpha-20", "zeros-alpha-120"],
    )
    def test_order_beyond_bessel_range_is_config_error(self, tmp_path, capsys, subcommand, alpha):
        # past bessel.MAX_ORDER bessel_j is wrong: alpha = 10 passed against
        # nothing, zeros failed with a residual of 1.6e-04 at alpha = 20,
        # and math.gamma overflowed at alpha = 200
        cfg = write_config(tmp_path, f"[{subcommand}]\nalpha = {alpha}\n")
        assert run(tmp_path, subcommand, "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("CONFIG ERROR")
        assert f"[{subcommand}] alpha" in err and "[0, 5]" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "subcommand,text",
        [
            ("bessel", "[bessel]\nt_step = 1e-15\n"),
            ("multiplier", "[multiplier]\nxi_count = 100000000000000000\n"),
        ],
        ids=["bessel-t_step-memory", "multiplier-xi_count-memory"],
    )
    def test_numerical_error_exits_one(self, tmp_path, capsys, subcommand, text):
        # the two scans ask numpy for hundreds of PiB, more than any address
        # space, so it refuses them before allocating anything
        cfg = write_config(tmp_path, text)
        assert run(tmp_path, subcommand, "--config", cfg) == 1
        assert capsys.readouterr().err.startswith(f"ERROR {subcommand}: ")
        assert not list(tmp_path.glob("*.csv"))

    def test_underflowing_width_exits_one(self, tmp_path, capsys):
        # sigma**2 underflows to 0 in the Gaussian's tail bound, which then
        # divides by it
        cfg = write_config(tmp_path, "[weight]\nsigma = 1e-200\n")
        assert run(tmp_path, "multiplier", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR multiplier: ") and "Traceback" not in err

    @pytest.mark.parametrize("blocker", ["out-is-a-file", "artifact-is-a-directory"])
    def test_unwritable_artifact_path_exits_one(self, tmp_path, capsys, blocker):
        out = tmp_path / "run"
        if blocker == "out-is-a-file":
            out.write_text("")
        else:
            (out / "zeros.csv").mkdir(parents=True)
        assert main(["zeros", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR zeros: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "subcommand,text",
        [("localize", "[run]\neps_list = 1e-300\n"), ("atomic-demo", "[atomic]\ns = 1e-300\n")],
        ids=["localize-one-tiny-eps", "atomic-demo-tiny-s"],
    )
    def test_non_finite_result_fails(self, tmp_path, capsys, subcommand, text):
        # a scale of 1e-300 leaves NaN in the result; one localize row would
        # otherwise make the monotone check vacuous
        cfg = write_config(tmp_path, text)
        with np.errstate(all="ignore"):
            assert run(tmp_path, subcommand, "--config", cfg) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"FAIL {subcommand}: ") and "nan" in out


def test_annulus_preset_multiplier(tmp_path, capsys):
    cfg = write_config(tmp_path, "[weight]\npreset = annulus\n")
    assert run(tmp_path, "multiplier", "--config", cfg) == 0
    assert capsys.readouterr().out.startswith("PASS multiplier: positivity certificate on grid")
    body = (tmp_path / "multiplier.csv").read_text()
    assert "# weight = annulus/normalized" in body
    assert body.splitlines()[-1].startswith("1.2000000000000000e+00,")


def test_half_order_check_from_zero(tmp_path, capsys):
    # the closed form sqrt(2/(pi t)) sin t has a removable 0/0 at t = 0
    cfg = write_config(tmp_path, "[bessel]\nt_min = 0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, "bessel", "--config", cfg) == 0
    assert caught == []
    assert capsys.readouterr().out.startswith("PASS bessel: max deviation from the half-order closed form")
    rows = [line for line in (tmp_path / "bessel.csv").read_text().splitlines() if not line.startswith("#")]
    assert rows[1] == "0.0000000000000000e+00,0.0000000000000000e+00"


@pytest.mark.parametrize(
    "text, flags",
    [
        # the default derivative scan at s = 1/2 flags every frequency
        (None, {"zero"}),
        ("[operator]\npreset = gradient\nn = 2\n[kernel]\ns = 1.0\nmax_degree = 6\n", {"nonzero"}),
    ],
    ids=["derivative", "gradient2"],
)
def test_kernel_check_bounds_every_bessel_value(tmp_path, text, flags):
    argv = ["kernel-check"] + (["--config", write_config(tmp_path, text)] if text else [])
    assert run(tmp_path, *argv) == 0
    lines = [line for line in (tmp_path / "kernel_check.csv").read_text().splitlines() if not line.startswith("#")]
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert {row[header.index("flag")] for row in rows} == flags
    assert fields.BESSEL_EVAL_ERR > 0.0
    assert [row[header.index("j_error")] for row in rows] == [f"{fields.BESSEL_EVAL_ERR:.16e}"] * len(rows)


@pytest.mark.parametrize("alpha", ["0.5", "1", "2.5", "5"])
def test_two_thousand_zeros_in_one_pass(tmp_path, alpha):
    # one bracket grid and one bisection sweep: linear in count
    cfg = write_config(tmp_path, f"[zeros]\nalpha = {alpha}\ncount = 2000\n")
    start = time.perf_counter()
    assert run(tmp_path, "zeros", "--config", cfg) == 0
    assert time.perf_counter() - start < 5.0
    rows = (tmp_path / "zeros.csv").read_text().splitlines()[-2000:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, 2001))


class TestCsvFormat:
    def test_metadata_block(self, tmp_path):
        cfg = write_config(tmp_path, "[run]\neps_list = 0.2 0.1\n[tolerance]\nlocalize_monotone_slack = 0.1\n")
        assert run(tmp_path, "localize", "--config", cfg) == 0
        lines = (tmp_path / "localize.csv").read_text().splitlines()
        assert lines[0] == "# tool: nlops 0.1.0"
        assert lines[1] == "# subcommand: localize"
        assert any(l.startswith("# config run.eps_list") for l in lines)
        assert any(l.startswith("# tolerance localize_monotone_slack") for l in lines)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "eps,lp_error"

    def test_seventeen_digit_floats(self, tmp_path):
        assert run(tmp_path, "zeros") == 0
        lines = (tmp_path / "zeros.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")][1:]
        for line in data:
            k, zero, resid = line.split(",")
            assert k.isdigit()
            assert SCI.match(zero)
            assert SCI.match(resid)

    def test_defaults_echoed_without_config(self, tmp_path):
        assert run(tmp_path, "zeros") == 0
        assert "# config config = <defaults>" in (tmp_path / "zeros.csv").read_text()

    def test_rerun_replaces_the_artifact(self, tmp_path):
        # a new file at the artifact's path, not the old one rewritten: a
        # hard link to the old artifact keeps its bytes
        old = tmp_path / "old.csv"
        old.write_text("old\n")
        out = tmp_path / "run"
        out.mkdir()
        os.link(old, out / "zeros.csv")
        assert run(out, "zeros") == 0
        assert old.read_text() == "old\n"
        assert (out / "zeros.csv").read_text().startswith("# tool: nlops")


def per_value_cell(x) -> str:
    """The cell formatting of the per-value CSV writer that ``write_csv``'s
    templates replaced: the reference for their bytes."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.16e}"


class TestCsvTemplate:
    def written_rows(self, tmp_path, header, rows):
        path = tmp_path / "table.csv"
        write_csv(path, "test", ExperimentConfig(), header, rows)
        return path.read_text().splitlines()[-len(rows) :]

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_rows_match_per_value_cells(self, tmp_path, name, seed):
        _, _, header, rows, _ = COMMANDS[name](ExperimentConfig(), np.random.default_rng(seed))
        want = [",".join(map(per_value_cell, row)) for row in rows]
        assert self.written_rows(tmp_path, header, rows) == want

    def test_mixed_cell_types(self, tmp_path):
        rows = [
            (3, np.int64(-7), 0.1, np.float64(2.5e-300), "zero"),
            (0, np.int64(12), -0.0, np.float64(np.inf), "nonzero"),
            (-1, np.int64(0), float("nan"), np.float64(-1e300), ""),
        ]
        want = [",".join(map(per_value_cell, row)) for row in rows]
        assert self.written_rows(tmp_path, list("abcde"), rows) == want
        assert want[0] == "3,-7,1.0000000000000001e-01,2.5000000000000000e-300,zero"


class TestDeterminism:
    CONFIG = "[run]\nn_grid = 32\n[field]\nkind = random\n"

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["localize", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
        assert main(["localize", "--config", cfg, "--out", str(b), "--seed", "7"]) == 0
        assert (a / "localize.csv").read_bytes() == (b / "localize.csv").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["multiplier", "--out", str(a), "--threads", "1"]) == 0
        assert main(["multiplier", "--out", str(b), "--threads", "8"]) == 0
        assert (a / "multiplier.csv").read_bytes() == (b / "multiplier.csv").read_bytes()


class TestFieldCount:
    def test_lp_error_is_the_mean_over_fields_in_sequence(self, tmp_path):
        # the fields are drawn one after another from the seeded generator
        # (default max_degree and num_terms)
        text = "[run]\nn_grid = 32\neps_list = 0.1 0.05 0.025\n[field]\nkind = random\ncount = 3\n"
        assert run(tmp_path, "localize", "--config", write_config(tmp_path, text), "--seed", "3") == 0
        lines = (tmp_path / "localize.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        got = [float(row.split(",")[1]) for row in rows]
        rng = np.random.default_rng(3)
        op, eps_list = preset("derivative", 1), [0.1, 0.05, 0.025]
        totals = np.zeros(len(eps_list))
        for _ in range(3):
            u = random_trig_field(1, 32, 1, rng, max_degree=3, num_terms=6)
            totals += [err for _, err in localization_table(op, [u], annulus, 2.0, eps_list)]
        assert got == list(totals / 3)


class TestConfigParsing:
    def test_readme_example_runs(self, tmp_path, capsys):
        # every README example INI runs with the subcommand of the last
        # `nlops <subcommand>` line above it; the first is a localize config
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = list(re.finditer(r"```ini\n(.*?)```", readme, re.S))
        subcommands = [re.findall(r"^nlops ([\w-]+)", readme[: b.start()], re.M)[-1] for b in blocks]
        assert subcommands[0] == "localize"
        for i, (block, subcommand) in enumerate(zip(blocks, subcommands)):
            cfg = write_config(tmp_path, block.group(1))
            assert run(tmp_path / str(i), subcommand, "--config", cfg) == 0
            assert capsys.readouterr().out.startswith(f"PASS {subcommand}")

    def test_terms_roundtrip(self):
        terms = parse_terms("1 0 | 0.5-0.25j 0; 2 1 | 0 1j")
        assert terms[0][0] == (1, 0)
        assert terms[0][1][0] == 0.5 - 0.25j
        assert terms[1][0] == (2, 1)
        assert terms[1][1][1] == 1j

    def test_defaults_without_file(self):
        cfg = ExperimentConfig.from_ini(None)
        assert cfg.run("n_grid") == 64
        assert cfg.echo == (("config", "<defaults>"),)

    def test_inline_comments_stripped(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nn_grid = 32  # keep it small\n")
        assert ExperimentConfig.from_ini(str(path)).run("n_grid") == 32

    @pytest.mark.parametrize(
        "value,name", [("No", "bump"), ("0", "bump"), ("TRUE", "bump/normalized"), ("Yes", "bump/normalized")]
    )
    def test_normalize_switch_is_case_insensitive(self, tmp_path, value, name):
        cfg = write_config(tmp_path, f"[weight]\npreset = bump\nn = 1\nnormalize = {value}\n")
        assert run(tmp_path, "multiplier", "--config", cfg) == 0
        assert f"# weight = {name}\n" in (tmp_path / "multiplier.csv").read_text()
