"""Command-line interface tying simulation, fitting, evaluation, and diagnostics.

Exit codes follow a stable contract: 0 on success, 1 on numerical failure,
2 on input or schema errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import io as pio
from .calibration import (
    dispersion_report,
    ks_uniformity,
    marginal_calibration_gap,
    pit_histogram,
    pit_sample,
)
from .errors import CdfPoolError, InvalidConfig, SchemaError
from .fitting import evaluate, fit_blp, fit_glp, fit_slp, fit_tlp
from .pools import LinkFunction, pool, spec_params
from .sim import FSIGMA, REGRESSION, DgpConfig, simulate
from .study import DEFAULT_STUDY_SEED, DEFAULT_STUDY_SIZE, format_study_report, reproduce_sim_study

FIT_METHODS = ("tlp", "slp", "blp", "glp-log", "glp-reciprocal", "glp-probit")
CSV_DGPS = (REGRESSION, FSIGMA)


@dataclass(frozen=True)
class RunManifest:
    """Resolved arguments for one CLI invocation."""

    command: str
    input: str | None = None
    params: str | None = None
    out: str | None = None
    method: str | None = None
    seed: int = 0
    bins: int = 10
    n: int = 500
    j: int = DEFAULT_STUDY_SIZE
    dgp: str | None = None
    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.1
    sigma: float = 1.0
    latents_out: str | None = None
    svg: str | None = None

    def validate(self) -> None:
        for path in (self.input, self.params):
            if path is not None and not os.path.exists(path):
                raise SchemaError(f"input file does not exist: {path}")
        if self.bins < 1:
            raise SchemaError("bins must be at least 1")


def _hist_path(out: str) -> str:
    base, _ = os.path.splitext(out)
    return base + "_hist.csv"


def _write_report(m: RunManifest, lines: list[str], counts) -> int:
    """Write the report lines to ``m.out``, the PIT histogram beside it, and print the lines."""
    pio.atomic_write_text(m.out, "\n".join(lines) + "\n")
    pio.write_histogram_csv(_hist_path(m.out), counts)
    if m.svg:
        pio.write_histogram_svg(m.svg, counts)
    print("\n".join(lines))
    return 0


def _cmd_simulate(m: RunManifest) -> int:
    cfg = DgpConfig(kind=m.dgp, n=m.n, seed=m.seed, a1=m.a1, a2=m.a2, a3=m.a3,
                    sigma=m.sigma)
    result = simulate(cfg)
    pio.write_dataset_csv(m.out, result.cases)
    if m.latents_out:
        pio.write_latents_csv(m.latents_out, result.latents)
    print(f"wrote {len(result.cases)} cases to {m.out}")
    return 0


def _fit_dispatch(method: str, cases):
    if method == "tlp":
        return fit_tlp(cases)
    if method == "slp":
        return fit_slp(cases)
    if method == "blp":
        return fit_blp(cases)
    return fit_glp(cases, LinkFunction(method[4:]))


def _cmd_fit(m: RunManifest) -> int:
    cases = pio.read_dataset_csv(m.input)
    result = _fit_dispatch(m.method, cases)
    pio.write_params(m.out, result)
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


def _cmd_evaluate(m: RunManifest) -> int:
    spec, _ = pio.read_params(m.params)
    cases = pio.read_dataset_csv(m.input)
    report = evaluate(spec, cases, rng_seed=m.seed, bins=m.bins)
    lines = [
        f"mean_log_score {report.mean_log_score!r}",
        f"pit_variance {report.pit_variance!r}",
        f"rmv {report.rmv!r}",
        f"n {len(cases)}",
        f"histogram {_hist_path(m.out)}",
    ]
    return _write_report(m, lines, report.histogram)


def _cmd_diagnose(m: RunManifest) -> int:
    spec, _ = pio.read_params(m.params)
    cases = pio.read_dataset_csv(m.input)
    d = pool(spec, cases.components)
    obs = cases.y
    s = pit_sample(d, obs, m.seed)
    disp = dispersion_report(s)
    stat, pval = ks_uniformity(s.z)
    grid = np.linspace(float(obs.min()), float(obs.max()), 201)
    gap = marginal_calibration_gap(d, obs, grid)
    lines = [
        f"n {len(cases)}",
        f"ks_statistic {stat!r}",
        f"ks_pvalue {pval!r}",
        f"pit_variance {disp.pit_variance!r}",
        f"ci_halfwidth {disp.ci_halfwidth!r}",
        f"classification {disp.classification}",
        f"marginal_gap {gap!r}",
        f"histogram {_hist_path(m.out)}",
    ]
    return _write_report(m, lines, pit_histogram(s.z, m.bins))


def _cmd_reproduce(m: RunManifest) -> int:
    report = reproduce_sim_study(seed=m.seed, j=m.j)
    text = format_study_report(report)
    if m.out:
        pio.atomic_write_text(m.out, text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfpool",
        description="Combine predictive distributions, fit pool parameters by "
                    "maximum log score, and diagnose calibration via the PIT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a dataset from a built-in process")
    p_sim.add_argument("--dgp", required=True, choices=CSV_DGPS)
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--a1", type=float, default=1.0)
    p_sim.add_argument("--a2", type=float, default=1.0)
    p_sim.add_argument("--a3", type=float, default=1.1)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--latents-out", dest="latents_out")

    p_fit = sub.add_parser("fit", help="fit pool parameters by maximum log score")
    p_fit.add_argument("--method", required=True, choices=FIT_METHODS)
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("evaluate", help="score fitted parameters on a dataset")
    p_eval.add_argument("--params", required=True)
    p_eval.add_argument("--input", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--bins", type=int, default=10)
    p_eval.add_argument("--svg")

    p_diag = sub.add_parser("diagnose", help="PIT calibration diagnostics")
    p_diag.add_argument("--params", required=True)
    p_diag.add_argument("--input", required=True)
    p_diag.add_argument("--out", required=True)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--bins", type=int, default=10)
    p_diag.add_argument("--svg")

    p_rep = sub.add_parser("reproduce-sim-study",
                           help="simulate, fit, and compare against reference values")
    p_rep.add_argument("--seed", type=int, default=DEFAULT_STUDY_SEED)
    p_rep.add_argument("--j", type=int, default=DEFAULT_STUDY_SIZE)
    p_rep.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fields = {k: v for k, v in vars(args).items() if v is not None}
    manifest = RunManifest(**fields)
    try:
        manifest.validate()
        if manifest.command == "simulate":
            return _cmd_simulate(manifest)
        if manifest.command == "fit":
            return _cmd_fit(manifest)
        if manifest.command == "evaluate":
            return _cmd_evaluate(manifest)
        if manifest.command == "diagnose":
            return _cmd_diagnose(manifest)
        return _cmd_reproduce(manifest)
    except (SchemaError, InvalidConfig, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CdfPoolError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
