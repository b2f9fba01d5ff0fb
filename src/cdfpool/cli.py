"""Command-line interface tying simulation, fitting, evaluation, and diagnostics.

Each command is a thin adapter over one library call; its options are
declared once in ``build_parser``, which also binds the command's function.
Exit codes follow a stable contract: 0 on success, 1 on numerical failure,
2 on input or schema errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from . import io as pio
from .calibration import calibration_report, dispersion_report
from .errors import CdfPoolError, InvalidConfig, SchemaError
from .fitting import evaluate, fit_blp, fit_glp, fit_slp, fit_tlp
from .pools import LinkFunction, pool, spec_params
from .sim import FSIGMA, REGRESSION, DgpConfig, simulate
from .study import DEFAULT_STUDY_SEED, DEFAULT_STUDY_SIZE, format_study_report, reproduce_sim_study


def _fitters() -> dict:
    """--method name -> fitter; the keys are the choices of --method.

    Built from this module's bindings at each call, so a fitter rebound here
    (as the benchmark's tracer does) is the one that runs.
    """
    return {"tlp": fit_tlp, "slp": fit_slp, "blp": fit_blp} | {
        f"glp-{link.value}": partial(fit_glp, link=link)
        for link in (LinkFunction.LOG, LinkFunction.RECIPROCAL, LinkFunction.PROBIT)
    }


def _hist_path(out: str) -> str:
    base, _ = os.path.splitext(out)
    return base + "_hist.csv"


def _write_report(args, lines: list[str], counts) -> int:
    """Write the report lines to ``--out``, the PIT histogram beside it, and print the lines."""
    pio.atomic_write_text(args.out, "\n".join(lines) + "\n")
    pio.write_histogram_csv(_hist_path(args.out), counts)
    if args.svg:
        pio.write_histogram_svg(args.svg, counts)
    print("\n".join(lines))
    return 0


def _cmd_simulate(args) -> int:
    result = simulate(DgpConfig(kind=args.dgp, n=args.n, seed=args.seed, a1=args.a1,
                                a2=args.a2, a3=args.a3, sigma=args.sigma))
    pio.write_dataset_csv(args.out, result.cases)
    if args.latents_out:
        pio.write_latents_csv(args.latents_out, result.latents)
    print(f"wrote {len(result.cases)} cases to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    result = _fitters()[args.method](pio.read_dataset_csv(args.input))
    pio.write_params(args.out, result)
    se = result.std_errors or {}
    print(f"{'parameter':<12}{'estimate':>12}{'std.error':>12}")
    for name, value in spec_params(result.spec).items():
        err = se.get(name)
        err_s = f"{err:12.4f}" if err is not None else f"{'--':>12}"
        print(f"{name:<12}{value:12.4f}{err_s}")
    print(f"mean log score {result.mean_log_score_train:.6f} "
          f"({result.iterations} iterations, "
          f"{'converged' if result.converged else 'NOT converged'})")
    return 0


def _cmd_evaluate(args) -> int:
    spec, _ = pio.read_params(args.params)
    batch = pio.read_dataset_csv(args.input)
    report = evaluate(spec, batch, rng_seed=args.seed, bins=args.bins)
    lines = [
        f"mean_log_score {report.mean_log_score!r}",
        f"pit_variance {report.pit_variance!r}",
        f"rmv {report.rmv!r}",
        f"n {len(batch)}",
        f"histogram {_hist_path(args.out)}",
    ]
    return _write_report(args, lines, report.histogram)


def _cmd_diagnose(args) -> int:
    spec, _ = pio.read_params(args.params)
    batch = pio.read_dataset_csv(args.input)
    rep = calibration_report(pool(spec, batch.components), batch.y, args.seed, bins=args.bins)
    disp = dispersion_report(rep.pit)
    lines = [
        f"n {len(batch)}",
        f"ks_statistic {rep.ks_statistic!r}",
        f"ks_pvalue {rep.ks_pvalue!r}",
        f"pit_variance {disp.pit_variance!r}",
        f"ci_halfwidth {disp.ci_halfwidth!r}",
        f"classification {disp.classification}",
        f"marginal_gap {rep.marginal_gap!r}",
        f"histogram {_hist_path(args.out)}",
    ]
    return _write_report(args, lines, rep.histogram)


def _cmd_reproduce(args) -> int:
    text = format_study_report(reproduce_sim_study(seed=args.seed, j=args.j))
    if args.out:
        pio.atomic_write_text(args.out, text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfpool",
        description="Combine predictive distributions, fit pool parameters by "
                    "maximum log score, and diagnose calibration via the PIT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p_sim = command("simulate", _cmd_simulate, "draw a dataset from a built-in process")
    p_sim.add_argument("--dgp", required=True, choices=(REGRESSION, FSIGMA))
    p_sim.add_argument("--n", type=int, default=500)
    for flag, default in (("--a1", 1.0), ("--a2", 1.0), ("--a3", 1.1), ("--sigma", 1.0)):
        p_sim.add_argument(flag, type=float, default=default)
    p_sim.add_argument("--latents-out")

    p_fit = command("fit", _cmd_fit, "fit pool parameters by maximum log score")
    p_fit.add_argument("--method", required=True, choices=tuple(_fitters()))
    p_fit.add_argument("--input", required=True)

    for name, run, help in (("evaluate", _cmd_evaluate, "score fitted parameters on a dataset"),
                            ("diagnose", _cmd_diagnose, "PIT calibration diagnostics")):
        p = command(name, run, help)
        for flag in ("--params", "--input"):
            p.add_argument(flag, required=True)
        p.add_argument("--bins", type=int, default=10)
        p.add_argument("--svg")

    # added last so that argparse's missing-option errors name each command's own options first
    for p in sub.choices.values():
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    p_rep = command("reproduce-sim-study", _cmd_reproduce,
                    "simulate, fit, and compare against reference values")
    p_rep.add_argument("--j", type=int, default=DEFAULT_STUDY_SIZE)
    p_rep.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    p_rep.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in (getattr(args, "input", None), getattr(args, "params", None)):
            if path is not None and not os.path.exists(path):
                raise SchemaError(f"input file does not exist: {path}")
        if getattr(args, "bins", 1) < 1:
            raise SchemaError("bins must be at least 1")
        return args.run(args)
    except (SchemaError, InvalidConfig, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CdfPoolError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
