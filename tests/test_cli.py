import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cdfpool
from cdfpool import (
    BlpSpec,
    DgpConfig,
    Gaussian,
    GlpSpec,
    LinkFunction,
    SchemaError,
    SlpSpec,
    TlpSpec,
    simulate,
)
from cdfpool.cli import main
from cdfpool.fitting import FitResult
from cdfpool.io import (
    read_dataset_csv,
    read_params,
    write_dataset_csv,
    write_latents_csv,
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

    def test_evaluate_a_cdf_rounding_past_one(self, tmp_path):
        # weights summing to 1 + 1e-13 pass the spec, and the CDF at 100 is 1 + 1e-13
        data, params = tmp_path / "edge.csv", str(tmp_path / "params.txt")
        data.write_text("y,mu_1,sd_1,mu_2,sd_2\n100.0,0.0,1.0,1.0,1.0\n3.0,0.0,1.0,1.0,1.0\n")
        write_params(params, _fit_result(TlpSpec((0.5, 0.5 + 1e-13))))
        assert run("evaluate", "--params", params, "--input", str(data),
                   "--out", str(tmp_path / "report.txt")) == 0

    def test_evaluate_heavy_tailed_blp_is_a_numerical_failure(self, tmp_path, capsys):
        data = str(tmp_path / "test.csv")
        params = str(tmp_path / "blp.txt")
        run("simulate", "--dgp", "regression", "--n", "20", "--seed", "3", "--out", data)
        write_params(params, _fit_result(BlpSpec((0.5, 0.3, 0.2), alpha=0.05, beta=0.05)))
        assert run("evaluate", "--params", params, "--input", data,
                   "--out", str(tmp_path / "eval.txt")) == 1
        assert "numerical failure" in capsys.readouterr().err


def _fresh(code, *argv) -> str:
    """The last line that ``code`` prints in a new interpreter importing this cdfpool."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cdfpool.__file__)))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.splitlines()[-1]


class TestStartup:
    """What a new process imports; scipy.special is loaded by the first call that needs it."""

    def test_import_loads_neither_scipy_integrate_nor_stats(self):
        code = ("import sys, cdfpool; print(sorted(m for m in sys.modules "
                "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'stats'], "
                "['scipy', 'optimize'])))")
        assert _fresh(code) == "[]"

    @pytest.mark.parametrize("argv, loaded", [
        ((), False),
        (("simulate", "--dgp", "regression"), False),
        (("fit", "--method", "tlp"), False),
        (("fit", "--method", "slp"), False),
        (("fit", "--method", "blp"), True),
        (("fit", "--method", "glp-probit"), False),
    ], ids=["import", "simulate", "fit-tlp", "fit-slp", "fit-blp", "fit-glp-probit"])
    def test_scipy_special_loads_only_for_a_special_function(self, tmp_path, argv, loaded):
        data = str(tmp_path / "train.csv")
        if argv[:1] == ("fit",):
            run("simulate", "--dgp", "regression", "--n", "200", "--seed", "1", "--out", data)
            argv += ("--input", data)
        if argv:
            argv += ("--out", str(tmp_path / "out.txt"))
        code = """
            import sys, cdfpool
            if sys.argv[1:]:
                from cdfpool.cli import main
                assert main(sys.argv[1:]) == 0
            print("scipy.special" in sys.modules)
        """
        assert _fresh(code, *argv) == str(loaded)

    def test_first_special_call_on_helper_threads_equals_the_serial_gap(self):
        code = """
            import sys
            import numpy as np
            import cdfpool.distributions
            from cdfpool import BlpSpec, DgpConfig, marginal_calibration_gap, pool, simulate
            batch = simulate(DgpConfig(kind="regression", n=5 * 128 + 17, seed=41)).cases
            d = pool(BlpSpec((0.2, 0.3, 0.5), 1.4, 0.8), batch.components)
            grid = np.linspace(-4.0, 4.0, 201)
            assert "scipy.special" not in sys.modules
            cdfpool.distributions._cores = lambda: 4  # three helpers, whatever the core count
            threaded = marginal_calibration_gap(d, batch.y, grid)
            cdfpool.distributions._cores = lambda: 1
            print(threaded == marginal_calibration_gap(d, batch.y, grid))
        """
        assert _fresh(code) == "True"


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

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_weight_count_other_than_the_members_rejected(self, tmp_path, capsys, command):
        data, params = str(tmp_path / "test.csv"), str(tmp_path / "params.txt")
        run("simulate", "--dgp", "regression", "--n", "10", "--seed", "1", "--out", data)
        write_params(params, _fit_result(TlpSpec((0.4, 0.6))))
        assert run(command, "--params", params, "--input", data,
                   "--out", str(tmp_path / "report.txt")) == 2
        err = capsys.readouterr().err
        assert "has 2 weights but" in err and "has 3 members" in err
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "diagnose",
                                         "reproduce-sim-study"])
    def test_a_negative_seed_rejected(self, tmp_path, capsys, command):
        data, params = str(tmp_path / "test.csv"), str(tmp_path / "params.txt")
        run("simulate", "--dgp", "regression", "--n", "10", "--seed", "1", "--out", data)
        write_params(params, _fit_result(TlpSpec((0.2, 0.3, 0.5))))
        capsys.readouterr()
        argv = {"simulate": ("--dgp", "regression", "--n", "5"),
                "reproduce-sim-study": ("--j", "50")}.get(command, ("--params", params,
                                                                   "--input", data))
        out = tmp_path / "out.txt"
        assert run(command, *argv, "--seed", "-1", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a nonnegative integer, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "diagnose"])
    def test_zero_bins_rejected(self, tmp_path, capsys, command):
        data, params = str(tmp_path / "test.csv"), str(tmp_path / "params.txt")
        run("simulate", "--dgp", "regression", "--n", "10", "--seed", "1", "--out", data)
        # three weights for the three members, so that bins is the one bad input
        write_params(params, _fit_result(TlpSpec((0.2, 0.3, 0.5))))
        assert run(command, "--params", params, "--input", data, "--bins", "0",
                   "--out", str(tmp_path / "report.txt")) == 2
        assert "bins must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


class TestSchemaErrors:
    def test_unreadable_dataset(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            read_dataset_csv(str(tmp_path))  # a directory

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n\n")
        with pytest.raises(SchemaError, match="empty dataset"):
            read_dataset_csv(str(path))

    @pytest.mark.parametrize("header", ["x,mu_1,sd_1", "y,mu_1", "y,mu_1,sd_1,mu_2"])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + ",".join(["0.5"] * len(header.split(","))) + "\n")
        with pytest.raises(SchemaError, match="header must be"):
            read_dataset_csv(str(path))

    def test_malformed_params_line(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("method tlp\nk\nw_1 1.0\n")
        with pytest.raises(SchemaError, match="malformed line 'k'"):
            read_params(str(path))

    def test_params_without_method(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("k 1\nw_1 1.0\n")
        with pytest.raises(SchemaError, match="missing key 'method'"):
            read_params(str(path))

    def test_dataset_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,mu_1,sd_1\n# a comment\n0.5,0.0,\xff1.0\n")
        with pytest.raises(SchemaError, match=r"bad\.csv: line 3 is not valid UTF-8 \(byte 9: "):
            read_dataset_csv(str(path))
        assert run("fit", "--method", "tlp", "--input", str(path),
                   "--out", str(tmp_path / "params.txt")) == 2
        assert "line 3 is not valid UTF-8" in capsys.readouterr().err

    def test_a_long_row_is_named_without_a_large_allocation(self, tmp_path):
        # a text parse of the bad row alone must not make room for 50000 rows of its width
        path = tmp_path / "long.csv"
        path.write_text("y,mu_1,sd_1\n0.5,0.0,1.0\n" + "0.5," * 2000 + "0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(SchemaError, match="row 3 has 2001 fields, expected 3"):
                read_dataset_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_params_not_utf8(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_bytes(b"method tlp\nk 1\nw_1 \xff1.0\n")
        with pytest.raises(SchemaError, match=r"params\.txt: line 3 is not valid UTF-8 \(byte 5: "):
            read_params(str(path))

    def test_byte_order_mark_is_dropped(self, tmp_path):
        bom = b"\xef\xbb\xbf"
        data, params = tmp_path / "data.csv", tmp_path / "params.txt"
        write_dataset_csv(str(data), simulate(DgpConfig(kind="regression", n=20, seed=2)).cases)
        write_params(str(params), _fit_result(BlpSpec((0.4, 0.6), alpha=1.4, beta=0.9)))
        plain_batch, plain_params = read_dataset_csv(str(data)), read_params(str(params))
        for path in (data, params):
            path.write_bytes(bom + path.read_bytes())
        batch = read_dataset_csv(str(data))
        np.testing.assert_array_equal(batch.y, plain_batch.y)
        for got, want in zip(batch.components, plain_batch.components, strict=True):
            np.testing.assert_array_equal(np.hstack([got.mu, got.sigma]),
                                          np.hstack([want.mu, want.sigma]))
        assert read_params(str(params)) == plain_params

    def test_latents_need_names_and_one_length(self, tmp_path):
        path = str(tmp_path / "latents.csv")
        with pytest.raises(SchemaError, match="no latent variables"):
            write_latents_csv(path, {})
        with pytest.raises(SchemaError, match="same length"):
            write_latents_csv(path, {"x": [1.0, 2.0], "eps": [0.5]})
        assert not os.path.exists(path)


class TestLatentsOut:
    def test_simulate_writes_every_latent_exactly(self, tmp_path):
        data, latents = str(tmp_path / "data.csv"), str(tmp_path / "latents.csv")
        assert run("simulate", "--dgp", "regression", "--n", "25", "--seed", "4",
                   "--out", data, "--latents-out", latents) == 0
        want = simulate(DgpConfig(kind="regression", n=25, seed=4)).latents
        lines = open(latents).read().splitlines()
        assert lines[0].split(",") == ["case"] + list(want)
        assert len(lines) == 26
        for j, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[0] == str(j)
            assert [float(x) for x in fields[1:]] == [float(want[name][j]) for name in want]


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

    def test_fit_takes_no_seed(self, tmp_path, capsys):
        # a fit draws no random numbers
        data = str(tmp_path / "train.csv")
        run("simulate", "--dgp", "regression", "--n", "10", "--seed", "1", "--out", data)
        with pytest.raises(SystemExit) as info:
            run("fit", "--method", "tlp", "--input", data, "--seed", "1",
                "--out", str(tmp_path / "params.txt"))
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "params.txt").exists()


@cache
def _valid_inputs() -> tuple[bytes, dict]:
    """A 30-case dataset file's bytes, and the params file of each family fitted on it."""
    with tempfile.TemporaryDirectory() as tmp:
        data, params = Path(tmp, "data.csv"), Path(tmp, "params.txt")
        write_dataset_csv(str(data), simulate(DgpConfig(kind="regression", n=30, seed=11)).cases)
        fitted = {}
        for method in ("tlp", "slp", "blp", "glp-log", "glp-probit"):
            with redirect_stdout(io.StringIO()):
                assert run("fit", "--method", method, "--input", str(data),
                           "--out", str(params)) == 0
            fitted[method] = params.read_bytes()
        return data.read_bytes(), fitted


_NUMBER = re.compile(rb"[-+.0-9eE]+")
_INSERTS = {"invalid-utf8": (b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"), "nul": (b"\0",),
            "cr": (b"\r", b"\r\n"), "quote": (b'"', b'""'),
            "long-line": (b"9" * 100_000, b"0.5," * 20_000 + b"\n")}


@st.composite
def _mutated(draw, text: bytes) -> bytes:
    """``text`` with one mutation: a bit flip, a cut, a byte-order mark, a non-finite
    number, or bytes inserted (invalid UTF-8, NUL, CR, quotes, a long line)."""
    kind = draw(st.sampled_from(["flip", "cut", "bom", "1e400", "nan", *_INSERTS]))
    at = draw(st.integers(0, len(text) - 1))
    if kind == "flip":
        return text[:at] + bytes([text[at] ^ 1 << draw(st.integers(0, 7))]) + text[at + 1:]
    if kind == "cut":
        return text[:at] + text[draw(st.integers(at + 1, len(text))):]
    if kind == "bom":
        return b"\xef\xbb\xbf" + text
    if kind in ("1e400", "nan"):
        number = draw(st.sampled_from(list(_NUMBER.finditer(text))))
        return text[:number.start()] + kind.encode() + text[number.end():]
    return text[:at] + draw(st.sampled_from(_INSERTS[kind])) + text[at:]


class TestArbitraryBytes:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(st.data())
    def test_the_exit_code_contract_holds(self, tmp_path, data):
        """One mutation of a valid dataset (under ``fit``) or params file (under
        ``evaluate``): the exit code is 0, 1 or 2, no exception escapes, and stderr is
        empty or one line that starts with ``error:`` or ``numerical failure:``."""
        dataset, fitted = _valid_inputs()
        method = data.draw(st.sampled_from(sorted(fitted)))
        csv, params = tmp_path / "data.csv", tmp_path / "params.txt"
        if data.draw(st.booleans()):
            csv.write_bytes(data.draw(_mutated(dataset)))
            argv = ["fit", "--method", method, "--input", str(csv)]
        else:
            csv.write_bytes(dataset)
            params.write_bytes(data.draw(_mutated(fitted[method])))
            argv = ["evaluate", "--params", str(params), "--input", str(csv)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(*argv, "--out", str(tmp_path / "out.txt"))
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert not lines or (len(lines) == 1
                             and lines[0].startswith(("error: ", "numerical failure: ")))


class TestDiagnosticCsv:
    def test_reliability_rows_serialize(self, tmp_path):
        from cdfpool import reliability_bins
        from cdfpool.io import write_reliability_csv

        rows = reliability_bins([0.1, 0.12, 0.7], [0.0, 1.0, 0.0], bins=5)
        path = str(tmp_path / "rel.csv")
        write_reliability_csv(path, rows)
        lines = open(path).read().strip().splitlines()
        assert lines[0] == "bin_center,freq,count,mean_forecast"
        assert len(lines) == 6
        assert lines[1].split(",")[2:] == ["2", "0.11"]
        assert lines[2].split(",")[1:] == ["nan", "0", "nan"]


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
