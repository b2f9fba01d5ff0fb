import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cdfpool import BlpSpec, Gaussian, GlpSpec, LinkFunction, SchemaError, SlpSpec, TlpSpec
from cdfpool.cli import main
from cdfpool.fitting import FitResult
from cdfpool.io import (
    read_dataset_csv,
    read_params,
    write_dataset_csv,
    write_params,
)


def run(*argv):
    return main(list(argv))


def _fit_result(spec):
    return FitResult(
        spec=spec,
        std_errors={"w_1": 0.1},
        mean_log_score_train=-1.5,
        iterations=3,
        converged=True,
        boundary_active=tuple(False for _ in spec.w),
    )


class TestParamRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            TlpSpec((0.2123456789012345, 0.3333333333333333, 0.454320987765432)),
            SlpSpec((0.5, 0.5), c=0.7834567890123456),
            BlpSpec((1.0,), alpha=1.4923456789012345, beta=1.44),
            GlpSpec((0.9, 1.3), link=LinkFunction.PROBIT),
            GlpSpec((0.25, 0.75), link=LinkFunction.IDENTITY),
            GlpSpec((0.7123456789012345, 2.5), link=LinkFunction.LOG),
            GlpSpec((0.1, 0.2, 0.7), link=LinkFunction.RECIPROCAL),
        ],
    )
    def test_exact_field_recovery(self, tmp_path, spec):
        path = str(tmp_path / "params.txt")
        write_params(path, _fit_result(spec))
        back, meta = read_params(path)
        assert back == spec
        assert meta["converged"] == "true"

    @pytest.mark.parametrize("flags", [(), ("no_convergence",),
                                       ("flat_direction", "singular_hessian")])
    def test_flags_round_trip(self, tmp_path, flags):
        path = str(tmp_path / "params.txt")
        write_params(path, replace(_fit_result(TlpSpec((0.5, 0.5))), flags=flags))
        assert f"flags {','.join(flags) or 'none'}\n" in open(path).read()
        _, meta = read_params(path)
        assert meta["flags"] == flags


    @pytest.mark.parametrize("text", [
        "method elp\nk 1\nw_1 1.0\n",
        "method glp-cubic\nk 1\nw_1 1.0\n",
        "method slp\nk 2\nw_1 0.5\nw_2 0.5\n",
        "method tlp\nk 3\nw_1 0.5\nw_2 0.5\n",
        "method tlp\nk 2\nw_1 0.5\nw_2 0.6\n",
        "method slp\nk 2\nw_1 0.5\nw_2 0.5\nc -1\n",
    ], ids=["unknown-method", "unknown-link", "slp-without-c", "k-mismatch",
            "weights-off-simplex", "negative-c"])
    def test_bad_record_is_a_schema_error(self, tmp_path, capsys, text):
        path = tmp_path / "params.txt"
        path.write_text(text)
        with pytest.raises(SchemaError):
            read_params(str(path))
        data = str(tmp_path / "test.csv")
        run("simulate", "--dgp", "regression", "--n", "10", "--seed", "1", "--out", data)
        assert run("evaluate", "--params", str(path), "--input", data,
                   "--out", str(tmp_path / "eval.txt")) == 2
        assert "error:" in capsys.readouterr().err


class TestDatasetRoundTrip:
    def test_values_survive_to_all_digits(self, tmp_path):
        rng = np.random.default_rng(7)
        from cdfpool import ForecastCase

        cases = [
            ForecastCase(
                (Gaussian(rng.normal(), 0.5 + rng.random()),
                 Gaussian(rng.normal(), 0.5 + rng.random())),
                rng.normal(),
            )
            for _ in range(20)
        ]
        path = str(tmp_path / "data.csv")
        write_dataset_csv(path, cases)
        back = read_dataset_csv(path)
        for a, b in zip(cases, back):
            assert a.y == b.y
            for ca, cb in zip(a.components, b.components):
                assert ca.mu == cb.mu and ca.sigma == cb.sigma

    def test_comment_lines_ignored(self, tmp_path):
        path = str(tmp_path / "data.csv")
        path2 = str(tmp_path / "with_comments.csv")
        run("simulate", "--dgp", "fsigma", "--n", "5", "--seed", "1", "--out", path)
        with open(path) as fh:
            text = fh.read()
        with open(path2, "w") as fh:
            fh.write("# a comment\n" + text)
        assert len(read_dataset_csv(path2)) == 5


class TestCliPipeline:
    def test_simulate_fit_evaluate(self, tmp_path):
        data = str(tmp_path / "train.csv")
        params = str(tmp_path / "params.txt")
        report = str(tmp_path / "report.txt")
        assert run("simulate", "--dgp", "regression", "--n", "60", "--seed", "2",
                   "--out", data) == 0
        assert run("fit", "--method", "tlp", "--input", data, "--out", params) == 0
        assert run("evaluate", "--params", params, "--input", data,
                   "--out", report, "--seed", "3") == 0
        text = open(report).read()
        assert "mean_log_score" in text and "rmv" in text
        hist = str(tmp_path / "report_hist.csv")
        lines = open(hist).read().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        counts = [int(ln.split(",")[2]) for ln in lines[1:]]
        assert sum(counts) == 60

    def test_evaluate_on_training_file_matches_fit_score(self, tmp_path):
        data = str(tmp_path / "train.csv")
        params = str(tmp_path / "params.txt")
        report = str(tmp_path / "report.txt")
        run("simulate", "--dgp", "regression", "--n", "50", "--seed", "5", "--out", data)
        run("fit", "--method", "blp", "--input", data, "--out", params)
        run("evaluate", "--params", params, "--input", data, "--out", report)
        _, meta = read_params(params)
        line = [ln for ln in open(report) if ln.startswith("mean_log_score")][0]
        assert abs(float(line.split()[1]) - float(meta["mean_log_score"])) < 1e-9

    def test_fit_single_component_weight_is_exactly_one(self, tmp_path):
        data = str(tmp_path / "train.csv")
        params = str(tmp_path / "params.txt")
        run("simulate", "--dgp", "fsigma", "--n", "30", "--seed", "4", "--out", data)
        assert run("fit", "--method", "tlp", "--input", data, "--out", params) == 0
        spec, _ = read_params(params)
        assert spec.w == (1.0,)

    def test_glp_fit_methods(self, tmp_path):
        data = str(tmp_path / "train.csv")
        run("simulate", "--dgp", "regression", "--n", "50", "--seed", "6", "--out", data)
        for method in ("glp-log", "glp-probit"):
            params = str(tmp_path / f"{method}.txt")
            assert run("fit", "--method", method, "--input", data, "--out", params) == 0
            spec, _ = read_params(params)
            assert isinstance(spec, GlpSpec)

    def test_diagnose(self, tmp_path):
        data = str(tmp_path / "train.csv")
        params = str(tmp_path / "params.txt")
        report = str(tmp_path / "diag.txt")
        svg = str(tmp_path / "hist.svg")
        run("simulate", "--dgp", "regression", "--n", "80", "--seed", "7", "--out", data)
        run("fit", "--method", "slp", "--input", data, "--out", params)
        assert run("diagnose", "--params", params, "--input", data, "--out", report,
                   "--bins", "5", "--svg", svg) == 0
        text = open(report).read()
        for key in ("ks_statistic", "ks_pvalue", "pit_variance", "classification",
                    "marginal_gap"):
            assert key in text
        for line in text.splitlines():
            key, value = line.split(" ", 1)
            if key not in ("classification", "histogram"):
                float(value)
        assert open(svg).read().startswith("<svg")

    def test_evaluate_heavy_tailed_blp_is_a_numerical_failure(self, tmp_path, capsys):
        data = str(tmp_path / "test.csv")
        params = str(tmp_path / "blp.txt")
        run("simulate", "--dgp", "regression", "--n", "20", "--seed", "3", "--out", data)
        write_params(params, _fit_result(BlpSpec((0.5, 0.3, 0.2), alpha=0.05, beta=0.05)))
        assert run("evaluate", "--params", params, "--input", data,
                   "--out", str(tmp_path / "eval.txt")) == 1
        assert "numerical failure" in capsys.readouterr().err


class TestStartup:
    def test_import_loads_neither_scipy_integrate_nor_stats(self):
        import cdfpool

        code = ("import sys, cdfpool; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'stats'], "
                "['scipy', 'optimize'])))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cdfpool.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestErrorContract:
    def test_malformed_header_names_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,mu_1,stdev_1\n0.0,0.0,1.0\n")
        code = run("fit", "--method", "tlp", "--input", str(bad),
                   "--out", str(tmp_path / "p.txt"))
        assert code == 2
        err = capsys.readouterr().err
        assert "sd_1" in err

    def test_missing_input_file(self, tmp_path):
        code = run("fit", "--method", "tlp", "--input", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "p.txt"))
        assert code == 2

    def test_nan_outcome_rejected_with_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,mu_1,sd_1\n0.0,0.0,1.0\nnan,0.1,2.0\n")
        code = run("fit", "--method", "slp", "--input", str(bad),
                   "--out", str(tmp_path / "p.txt"))
        assert code == 2
        assert "row 3" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()

    def test_negative_sd_rejected_with_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,mu_1,sd_1\n0.0,0.0,1.0\n0.5,0.1,-2.0\n")
        code = run("fit", "--method", "tlp", "--input", str(bad),
                   "--out", str(tmp_path / "p.txt"))
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        # observations absurdly far from every component: clamp guard trips
        rows = ["y,mu_1,sd_1"] + [f"{100.0 + j},0.0,1.0" for j in range(20)]
        bad = tmp_path / "far.csv"
        bad.write_text("\n".join(rows) + "\n")
        code = run("fit", "--method", "blp", "--input", str(bad),
                   "--out", str(tmp_path / "p.txt"))
        assert code == 1

    def test_unknown_dgp_for_csv(self, tmp_path):
        code = run("simulate", "--dgp", "regression", "--n", "0", "--seed", "1",
                   "--out", str(tmp_path / "d.csv"))
        assert code == 2

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    @pytest.mark.parametrize("text", [
        "method tlp\nk 2\nw_1 nan\nw_2 1.0\n",
        "method slp\nk 2\nw_1 0.5\nw_2 0.5\nc inf\n",
        "method glp-log\nk 2\nw_1 inf\nw_2 1.0\n",
    ], ids=["nan-weight", "inf-c", "inf-glp-weight"])
    def test_non_finite_params_rejected(self, tmp_path, capsys, command, text):
        params, data = tmp_path / "params.txt", str(tmp_path / "test.csv")
        params.write_text(text)
        run("simulate", "--dgp", "regression", "--n", "10", "--seed", "1", "--out", data)
        assert run(command, "--params", str(params), "--input", data,
                   "--out", str(tmp_path / "report.txt")) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("command", ["fit", "evaluate", "diagnose"])
    def test_header_only_dataset_rejected(self, tmp_path, capsys, command):
        data = tmp_path / "empty.csv"
        data.write_text("# no cases\ny,mu_1,sd_1\n")
        params = str(tmp_path / "params.txt")
        write_params(params, _fit_result(TlpSpec((1.0,))))
        args = ["--method", "tlp"] if command == "fit" else ["--params", params]
        assert run(command, *args, "--input", str(data), "--out", str(tmp_path / "out.txt")) == 2
        assert "no rows" in capsys.readouterr().err


class TestOptions:
    # (flag, dest, default, type, required, choices) of every subcommand's options
    OPTIONS = {
        "simulate": [
            ("--a1", "a1", 1.0, float, False, None),
            ("--a2", "a2", 1.0, float, False, None),
            ("--a3", "a3", 1.1, float, False, None),
            ("--dgp", "dgp", None, None, True, ("regression", "fsigma")),
            ("--latents-out", "latents_out", None, None, False, None),
            ("--n", "n", 500, int, False, None),
            ("--out", "out", None, None, True, None),
            ("--seed", "seed", 0, int, False, None),
            ("--sigma", "sigma", 1.0, float, False, None),
        ],
        "fit": [
            ("--input", "input", None, None, True, None),
            ("--method", "method", None, None, True,
             ("tlp", "slp", "blp", "glp-log", "glp-reciprocal", "glp-probit")),
            ("--out", "out", None, None, True, None),
            ("--seed", "seed", 0, int, False, None),
        ],
        "evaluate": [
            ("--bins", "bins", 10, int, False, None),
            ("--input", "input", None, None, True, None),
            ("--out", "out", None, None, True, None),
            ("--params", "params", None, None, True, None),
            ("--seed", "seed", 0, int, False, None),
            ("--svg", "svg", None, None, False, None),
        ],
        "reproduce-sim-study": [
            ("--j", "j", 500, int, False, None),
            ("--out", "out", None, None, False, None),
            ("--seed", "seed", 0, int, False, None),
        ],
    }
    OPTIONS["diagnose"] = OPTIONS["evaluate"]

    def test_every_subcommand_keeps_its_options(self):
        import argparse

        from cdfpool.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OPTIONS)
        for name, subparser in sub.choices.items():
            got = sorted(
                (a.option_strings[0], a.dest, a.default, a.type, a.required,
                 tuple(a.choices) if a.choices else None)
                for a in subparser._actions if not isinstance(a, argparse._HelpAction)
            )
            assert got == self.OPTIONS[name], name
            assert all(len(a.option_strings) == 1 for a in subparser._actions[1:]), name


class TestDiagnosticCsv:
    def test_reliability_rows_serialize(self, tmp_path):
        from cdfpool import reliability_bins
        from cdfpool.io import write_reliability_csv

        rows = reliability_bins([0.1, 0.12, 0.7], [0.0, 1.0, 0.0], bins=5)
        path = str(tmp_path / "rel.csv")
        write_reliability_csv(path, rows)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "bin_center,freq,count"
        assert len(lines) == 6


class TestFitAtStudyScale:
    def test_blp_transform_estimate_in_reference_band(self, tmp_path):
        data = str(tmp_path / "train.csv")
        params = str(tmp_path / "params.txt")
        assert run("simulate", "--dgp", "regression", "--n", "500", "--seed", "0",
                   "--out", data) == 0
        assert run("fit", "--method", "blp", "--input", data, "--out", params) == 0
        spec, _ = read_params(params)
        assert abs(spec.alpha - 1.492) <= 3 * 0.062
        assert abs(spec.beta - 1.440) <= 3 * 0.059


class TestReproduceStudy:
    def test_small_sample_warns_and_is_byte_identical(self, tmp_path):
        out1 = str(tmp_path / "r1.txt")
        out2 = str(tmp_path / "r2.txt")
        assert run("reproduce-sim-study", "--seed", "3", "--j", "50",
                   "--out", out1) == 0
        assert run("reproduce-sim-study", "--seed", "3", "--j", "50",
                   "--out", out2) == 0
        b1 = open(out1, "rb").read()
        b2 = open(out2, "rb").read()
        assert b1 == b2
        assert b"warning" in b1
