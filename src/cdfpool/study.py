"""End-to-end reproduction of the built-in regression simulation study.

Simulates a training and an independent test sample from the three-forecaster
regression process, fits the linear, spread-adjusted, and beta-transformed
pools on the training half, scores everything on the test half, and compares
the results against fixed reference values with their tolerance bands.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fitting import FitResult, evaluate, fit_blp, fit_slp, fit_tlp, log_score
from .pools import TlpSpec, pool, spec_params
from .sim import REGRESSION, DgpConfig, simulate

DEFAULT_STUDY_SEED = 0
DEFAULT_STUDY_SIZE = 500
_TEST_SEED_OFFSET = 710_510_101  # distinct Philox key for the held-out sample

COMPONENTS = ("f1", "f2", "f3")
METHODS = ("tlp", "slp", "blp")

# Reference estimates for the J=500 study: (value, band) pairs, where the
# band is three reported standard errors for parameters and a fixed
# absolute tolerance for the summary tables.
REFERENCE_PARAMS = {
    "tlp w_1": (0.212, 3 * 0.083),
    "tlp w_2": (0.254, 3 * 0.084),
    "tlp w_3": (0.534, 3 * 0.080),
    "slp c": (0.783, 3 * 0.030),
    "blp alpha": (1.492, 3 * 0.062),
    "blp beta": (1.440, 3 * 0.059),
}
REFERENCE_PIT_VARIANCE = {"tlp": (0.066, 0.010), "slp": (0.081, 0.010),
                          "blp": (0.084, 0.010)}
REFERENCE_RMV = {"tlp": (1.94, 0.10), "slp": (1.62, 0.10), "blp": (1.57, 0.10)}
REFERENCE_TEST_SCORE = {"f3": (-1.992, 0.025), "tlp": (-1.922, 0.025),
                        "slp": (-1.892, 0.025), "blp": (-1.886, 0.025)}


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    target: float
    band: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.target) <= self.band


@dataclass(frozen=True)
class StudyReport:
    seed: int
    j: int
    fits: dict[str, FitResult]
    train_scores: dict[str, float]
    test_scores: dict[str, float]
    pit_variance: dict[str, float]
    rmv: dict[str, float]
    checks: tuple[CheckRow, ...]
    ordering_ok: bool
    warnings: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return self.ordering_ok and all(c.passed for c in self.checks)


def _component_spec(i: int, k: int = 3) -> TlpSpec:
    w = [0.0] * k
    w[i] = 1.0
    return TlpSpec(w=tuple(w))


def _mean_log_score(spec, batch) -> float:
    """``evaluate(spec, batch).mean_log_score``, without the PIT, RMV and histogram."""
    return float(log_score(pool(spec, batch.components), batch.y[:, None])[:, 0].mean())


def reproduce_sim_study(seed: int = DEFAULT_STUDY_SEED,
                        j: int = DEFAULT_STUDY_SIZE) -> StudyReport:
    train = simulate(DgpConfig(kind=REGRESSION, n=j, seed=seed)).cases
    test = simulate(DgpConfig(kind=REGRESSION, n=j, seed=seed + _TEST_SEED_OFFSET)).cases

    fits = {"tlp": fit_tlp(train), "slp": fit_slp(train), "blp": fit_blp(train)}
    specs = {name: _component_spec(i) for i, name in enumerate(COMPONENTS)}
    specs.update((name, fit.spec) for name, fit in fits.items())

    train_scores: dict[str, float] = {}
    test_scores: dict[str, float] = {}
    pit_var: dict[str, float] = {}
    rmv: dict[str, float] = {}
    for name, spec in specs.items():
        train_scores[name] = (fits[name].mean_log_score_train if name in fits
                              else _mean_log_score(spec, train))
        rep = evaluate(spec, test, rng_seed=seed)
        test_scores[name] = rep.mean_log_score
        pit_var[name] = rep.pit_variance
        rmv[name] = rep.rmv

    params = {f"{m} {p}": v for m, fit in fits.items() for p, v in spec_params(fit.spec).items()}
    checks = [
        CheckRow(label.format(name), values[name], target, band)
        for reference, label, values in ((REFERENCE_PARAMS, "{}", params),
                                         (REFERENCE_PIT_VARIANCE, "{} var(PIT)", pit_var),
                                         (REFERENCE_RMV, "{} RMV", rmv),
                                         (REFERENCE_TEST_SCORE, "{} test score", test_scores))
        for name, (target, band) in reference.items()
    ]

    best_component = max(test_scores[name] for name in COMPONENTS)
    ordering_ok = (
        test_scores["blp"] >= test_scores["slp"]
        and test_scores["slp"] > test_scores["tlp"]
        and test_scores["tlp"] > best_component
    )

    warnings = []
    if j < DEFAULT_STUDY_SIZE:
        warnings.append(
            f"training size J={j} is below the reference size "
            f"{DEFAULT_STUDY_SIZE}; uncertainty bands are widened and the "
            "reference comparisons may fail for sampling reasons"
        )

    return StudyReport(
        seed=seed,
        j=j,
        fits=fits,
        train_scores=train_scores,
        test_scores=test_scores,
        pit_variance=pit_var,
        rmv=rmv,
        checks=tuple(checks),
        ordering_ok=ordering_ok,
        warnings=tuple(warnings),
    )


def format_study_report(report: StudyReport) -> str:
    lines = []
    lines.append("combined-forecast simulation study")
    lines.append(f"seed {report.seed}")
    lines.append(f"j {report.j}")
    for w in report.warnings:
        lines.append(f"warning {w}")
    lines.append("")

    lines.append("parameter estimates (standard errors)")
    for name in METHODS:
        fit = report.fits[name]
        se = fit.std_errors or {}
        parts = [f"{param}={value:.3f} ({se.get(param, float('nan')):.3f})"
                 for param, value in spec_params(fit.spec).items()]
        lines.append(f"  {name.upper()}: " + "  ".join(parts))
    lines.append("")

    lines.append("mean log score (training / test)")
    for name in COMPONENTS + METHODS:
        lines.append(
            f"  {name:<4} {report.train_scores[name]:8.3f} / {report.test_scores[name]:8.3f}"
        )
    lines.append("")

    lines.append("dispersion and sharpness on the test set")
    for name in COMPONENTS + METHODS:
        lines.append(
            f"  {name:<4} var(PIT)={report.pit_variance[name]:.3f}  RMV={report.rmv[name]:.2f}"
        )
    lines.append("")

    lines.append("reference comparisons")
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"  [{status}] {c.name}: {c.value:.4f} vs {c.target:.4f} +/- {c.band:.4f}"
        )
    status = "pass" if report.ordering_ok else "FAIL"
    lines.append(f"  [{status}] test-score ordering blp >= slp > tlp > best component")
    lines.append("")
    lines.append(f"overall {'pass' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
