"""The workloads: set-up, the operation list of one pass, and the output checks.

Each pass is a closed loop with one caller: every operation starts when the
previous one has returned.  Operations call the library through module
attributes looked up at call time (``P.fitting.fit_tlp``), so the wrappers
of a traced replay see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

import oracle

J_LARGE = 5000
J_STUDY = 500
STUDY_TEST_SEED_OFFSET = 710_510_101  # the study's held-out seed, seed + this offset
TEST_SEED_OFFSET = 1_000_003  # held-out regression set of the score and cli workloads
# The fit workload fits FIT_SETS training sets per pass: one set's cost varies
# by up to 40% with the seed (GLP-probit at seeds 6, 7, 9 against 0, 1).
FIT_SETS = 8
FIT_SET_STRIDE = 104_729
FIT_METHODS = ("tlp", "slp", "blp", "glp-log", "glp-reciprocal", "glp-probit")
EVAL_METHODS = ("tlp", "slp")
CLI_DIAGNOSE = ("tlp", "slp", "blp", "glp-log")
ATOM_SETS = ("forecaster_quartet", "binary_probit", "ternary")
COMPONENTS = ("f1", "f2", "f3")

RTOL = 1e-9  # recomputed scores, PIT variances, KS statistics and gaps
RMV_GRID_RTOL = 1e-6  # BLP RMV by Simpson's rule against adaptive quadrature
# A fit flagged converged=False still passes if the oracle's mean log score is
# stationary at its estimate.  Flagged BLP fits at J=5000 sit at 1e-9..2e-8,
# as converged ones do; a 1% error in one parameter gives far more than this.
STATIONARY_TOL = 1e-6


@dataclass
class Op:
    kind: str  # simulate, fit, evaluate, diagnose, diagnose_atoms, study
    name: str
    start: float  # perf_counter at the call
    seconds: float
    output: object = None
    error: str | None = None


def fingerprint(obj) -> str:
    """A digest of an output, exact to the last bit of every float and array."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"nd{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for f in fields(x):
                h.update(f.name.encode())
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for key in sorted(x, key=repr):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(f"seq{len(x)}".encode())
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def run_op(ops, span, kind, name, fn, *deps):
    """Time one operation; a failed dependency fails it without running it."""
    t0 = time.perf_counter()
    if any(d is None or d.error for d in deps):
        ops.append(Op(kind, name, t0, 0.0, error="skipped: an earlier operation failed"))
        return ops[-1]
    with span(f"op.{kind}"):
        try:
            out = fn()
            err = None
        except Exception as exc:  # a raising operation counts as failed, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    ops.append(Op(kind, name, t0, seconds, out, err))
    return ops[-1]


def fit(P, method, cases):
    f = P.fitting
    if method == "tlp":
        return f.fit_tlp(cases)
    if method == "slp":
        return f.fit_slp(cases)
    if method == "blp":
        return f.fit_blp(cases)
    return f.fit_glp(cases, P.pools.LinkFunction(method.removeprefix("glp-")))


def simulate(P, kind, n, seed):
    return P.sim.simulate(P.sim.DgpConfig(kind=kind, n=n, seed=seed))


@dataclass
class Diagnosis:
    z: np.ndarray
    v: np.ndarray
    pit_variance: float
    ci_halfwidth: float
    classification: str
    ks_statistic: float
    ks_pvalue: float
    marginal_gap: float
    histogram: np.ndarray


def diagnose(P, spec, cases, seed) -> Diagnosis:
    """Pool, PIT, dispersion, KS and marginal gap: the steps of the CLI ``diagnose``."""
    cal = P.calibration
    dists = [P.pools.pool(spec, case.components) for case in cases]
    obs = np.array([case.y for case in cases])
    s = cal.pit_sample(dists, obs, seed)
    disp = cal.dispersion_report(s)
    stat, pval = cal.ks_uniformity(s.z)
    grid = np.linspace(float(obs.min()), float(obs.max()), 201)
    gap = cal.marginal_calibration_gap(dists, obs, grid)
    return Diagnosis(s.z, s.v, disp.pit_variance, disp.ci_halfwidth, disp.classification,
                     stat, pval, gap, cal.pit_histogram(s.z, 10))


# ---------------------------------------------------------------------------
# checks shared by the in-process workloads


def _problems(checks) -> str | None:
    bad = [name for name, ok in checks if not ok]
    return "mismatch in " + ", ".join(bad) if bad else None


def check_converged(name, converged, pool, g, flagged) -> str | None:
    """A fit passes if converged, or if its estimate is a stationary point of the oracle's score.

    Fits that pass only by the second test are listed in ``flagged``.
    """
    if converged:
        return None
    grad = oracle.score_gradient(pool, g.y, g.mu, g.sd)
    if grad is None:
        return "fit returned converged=False with a weight on the simplex boundary"
    size = float(np.max(np.abs(grad)))
    if not size <= STATIONARY_TOL:
        return f"fit returned converged=False, max |score gradient| {size:.2e}"
    flagged.append(f"{name}: converged=False, but max |score gradient| is {size:.2e}")
    return None


def check_fit(name, method, result, g, flagged) -> str | None:
    pool = oracle.Pool.from_spec(method, result.spec)
    want = oracle.mean_log_score(pool, pool.gaussians(g.y, g.mu, g.sd))
    return (check_converged(name, result.converged, pool, g, flagged)
            or _problems([("train mean log score",
                           oracle.close(result.mean_log_score_train, want, RTOL, RTOL))]))


def check_evaluate(method, spec, report, g) -> str | None:
    pool = oracle.Pool.from_spec(method, spec)
    pg = pool.gaussians(g.y, g.mu, g.sd)
    z = oracle.pit(pool, pg)
    return _problems([
        ("mean log score", oracle.close(report.mean_log_score, oracle.mean_log_score(pool, pg), RTOL, RTOL)),
        ("PIT variance", oracle.close(report.pit_variance, float(np.var(z, ddof=1)), RTOL, RTOL)),
        ("RMV", oracle.close(report.rmv, oracle.rmv(pool, pg), RTOL)),
        ("histogram", list(report.histogram) == oracle.histogram(z)),
    ])


def check_diagnosis(d: Diagnosis, z, gap) -> str | None:
    return _problems([
        ("PIT values", bool(np.max(np.abs(d.z - z)) <= RTOL)),
        ("PIT variance", oracle.close(d.pit_variance, float(np.var(z, ddof=1)), RTOL, RTOL)),
        ("KS statistic", oracle.close(d.ks_statistic, oracle.ks_statistic(z), RTOL, RTOL)),
        ("marginal gap", oracle.close(d.marginal_gap, gap, RTOL, RTOL)),
        ("histogram", list(d.histogram) == oracle.histogram(z)),
    ])


def regression_arrays(cases) -> oracle.Gaussians:
    y, mu, sd = oracle.components(cases)
    return oracle.Gaussians(y, np.ones_like(mu), mu, sd)


# ---------------------------------------------------------------------------
# workloads run in this process


class Study:
    """``reproduce_sim_study(seed, j=500)`` and its report: the paper's reproduction."""

    name = "study"

    def __init__(self):
        self.flagged = []  # fits flagged converged=False that the oracle accepted

    def prepare(self, P, seed):
        return {}

    def run_pass(self, P, state, seed, span):
        ops = []
        rep = run_op(ops, span, "study", "reproduce_sim_study",
                     lambda: P.study.reproduce_sim_study(seed=seed, j=J_STUDY))
        run_op(ops, span, "study", "format_study_report",
               lambda: P.study.format_study_report(rep.output), rep)
        return ops

    def check(self, P, state, seed, ops):
        """Returns (failures by operation name, reference-band failures)."""
        rep, fmt = ops
        if rep.error:
            return {}, 0
        report = rep.output
        train = regression_arrays(simulate(P, "regression", J_STUDY, seed).cases)
        test = regression_arrays(simulate(P, "regression", J_STUDY, seed + STUDY_TEST_SEED_OFFSET).cases)
        checks = []
        pools = {}
        for i, name in enumerate(COMPONENTS):
            w = np.zeros(3)
            w[i] = 1.0
            pools[name] = oracle.Pool("tlp", w)
            checks.append((f"{name} train score", oracle.close(
                report.train_scores[name],
                oracle.mean_log_score(pools[name], pools[name].gaussians(train.y, train.mu, train.sd)),
                RTOL, RTOL)))
        for name in ("tlp", "slp", "blp"):
            result = report.fits[name]
            pools[name] = oracle.Pool.from_spec(name, result.spec)
            checks.append((f"{name} converged", check_converged(
                f"{rep.name} {name}", result.converged, pools[name], train, self.flagged) is None))
            want = oracle.mean_log_score(pools[name], pools[name].gaussians(train.y, train.mu, train.sd))
            checks.append((f"{name} train score", oracle.close(result.mean_log_score_train, want, RTOL, RTOL)))
        for name, pool in pools.items():
            pg = pool.gaussians(test.y, test.mu, test.sd)
            z = oracle.pit(pool, pg)
            checks.append((f"{name} test score", oracle.close(
                report.test_scores[name], oracle.mean_log_score(pool, pg), RTOL, RTOL)))
            checks.append((f"{name} PIT variance", oracle.close(
                report.pit_variance[name], float(np.var(z, ddof=1)), RTOL, RTOL)))
            rtol = RMV_GRID_RTOL if name == "blp" else RTOL
            checks.append((f"{name} RMV", oracle.close(report.rmv[name], oracle.rmv(pool, pg), rtol)))
        failures = {rep.name: _problems(checks)}
        reference_fails = sum(not c.passed for c in report.checks) + (not report.ordering_ok)
        if not fmt.error:
            verdict = "overall pass" if reference_fails == 0 else "overall FAIL"
            failures[fmt.name] = _problems([("verdict line", fmt.output.rstrip().endswith(verdict))])
        return failures, reference_fails


class Fit:
    """All six pool families fitted on each of FIT_SETS J=5000 regression training sets."""

    name = "fit"

    def __init__(self):
        self.flagged = []

    def prepare(self, P, seed):
        return {"trains": [simulate(P, "regression", J_LARGE, seed + i * FIT_SET_STRIDE).cases
                           for i in range(FIT_SETS)]}

    def run_pass(self, P, state, seed, span):
        ops = []
        for i, train in enumerate(state["trains"]):
            for method in FIT_METHODS:
                run_op(ops, span, "fit", f"{method} set{i}", lambda m=method, t=train: fit(P, m, t))
        return ops

    def check(self, P, state, seed, ops):
        arrays = [regression_arrays(train) for train in state["trains"]]
        failures = {}
        for op in ops:
            if not op.error:
                method, index = op.name.split(" set")
                failures[op.name] = check_fit(op.name, method, op.output, arrays[int(index)], self.flagged)
        return failures, 0


class Score:
    """Evaluate and diagnose fitted pools on a J=5000 held-out set, plus three atom sets."""

    name = "score"

    def __init__(self):
        self.flagged = []

    def prepare(self, P, seed):
        train = simulate(P, "regression", J_LARGE, seed).cases
        specs = {m: fit(P, m, train).spec for m in FIT_METHODS}
        atom_sets = {}
        for kind in ATOM_SETS:
            cases = simulate(P, kind, J_LARGE, seed).cases
            k = len(cases[0].components)
            atom_sets[kind] = (cases, P.pools.TlpSpec(w=(1.0 / k,) * k))
        return {"test": simulate(P, "regression", J_LARGE, seed + TEST_SEED_OFFSET).cases,
                "specs": specs, "atom_sets": atom_sets}

    def run_pass(self, P, state, seed, span):
        ops = []
        test, specs = state["test"], state["specs"]
        for m in EVAL_METHODS:
            run_op(ops, span, "evaluate", f"evaluate {m}",
                   lambda m=m: P.fitting.evaluate(specs[m], test, rng_seed=seed))
        for m in FIT_METHODS:
            run_op(ops, span, "diagnose", f"diagnose {m}",
                   lambda m=m: diagnose(P, specs[m], test, seed))
        for kind, (cases, spec) in state["atom_sets"].items():
            run_op(ops, span, "diagnose_atoms", f"diagnose {kind}",
                   lambda c=cases, s=spec: diagnose(P, s, c, seed))
        return ops

    def check(self, P, state, seed, ops):
        g = regression_arrays(state["test"])
        failures = {}
        for op in ops:
            if op.error:
                continue
            method = op.name.split()[1]
            if op.kind == "evaluate":
                failures[op.name] = check_evaluate(method, state["specs"][method], op.output, g)
            elif op.kind == "diagnose":
                pool = oracle.Pool.from_spec(method, state["specs"][method])
                pg = pool.gaussians(g.y, g.mu, g.sd)
                failures[op.name] = check_diagnosis(op.output, oracle.pit(pool, pg),
                                                    oracle.marginal_gap(pool, pg))
            else:
                cases, spec = state["atom_sets"][method]
                failures[op.name] = self._check_atoms(op.output, oracle.linear_pool_inputs(cases, spec.w))
        return failures, 0

    @staticmethod
    def _check_atoms(d: Diagnosis, flat) -> str | None:
        if isinstance(flat, oracle.Gaussians):
            linear = oracle.Pool("tlp", [])
            return check_diagnosis(d, oracle.pit(linear, flat), oracle.marginal_gap(linear, flat))
        if not np.all((d.v > 0.0) & (d.v < 1.0)):
            return "auxiliary uniforms outside (0, 1)"
        return check_diagnosis(d, oracle.atom_pit(flat, d.v), oracle.atom_marginal_gap(flat))


# ---------------------------------------------------------------------------
# the command line, one subprocess at a time


@dataclass
class Command:
    kind: str
    name: str
    argv: list[str]
    outputs: list[str]


def cli_commands(seed: int) -> list[Command]:
    s = str(seed)
    cmds = [
        Command("simulate", "simulate train", ["simulate", "--dgp", "regression", "--n", str(J_LARGE),
                                               "--seed", s, "--out", "train.csv"], ["train.csv"]),
        Command("simulate", "simulate test", ["simulate", "--dgp", "regression", "--n", str(J_LARGE),
                                              "--seed", str(seed + TEST_SEED_OFFSET), "--out", "test.csv"],
                ["test.csv"]),
    ]
    for m in FIT_METHODS:
        cmds.append(Command("fit", f"fit {m}", ["fit", "--method", m, "--input", "train.csv",
                                                "--out", f"{m}.params"], [f"{m}.params"]))
    for m in EVAL_METHODS:
        cmds.append(Command("evaluate", f"evaluate {m}",
                            ["evaluate", "--params", f"{m}.params", "--input", "test.csv",
                             "--out", f"eval-{m}.txt", "--seed", s],
                            [f"eval-{m}.txt", f"eval-{m}_hist.csv"]))
    for m in CLI_DIAGNOSE:
        cmds.append(Command("diagnose", f"diagnose {m}",
                            ["diagnose", "--params", f"{m}.params", "--input", "test.csv",
                             "--out", f"diag-{m}.txt", "--seed", s, "--svg", f"diag-{m}.svg"],
                            [f"diag-{m}.txt", f"diag-{m}_hist.csv", f"diag-{m}.svg"]))
    return cmds


# Each CLI subprocess runs under its own speed probe, whose samples go to a
# file; the harness's probe, idle in waitpid on the other vCPU, tracks the
# child's speed poorly.
PROBE_BOOT = """\
import os, runpy, sys
sys.path.append(os.environ["PERFBENCH_DIR"])
import speed
probe = speed.SpeedProbe()
probe.start()
try:
    runpy.run_module("cdfpool.cli", run_name="__main__", alter_sys=True)
finally:
    probe.stop()
    probe.save(os.environ["PERFBENCH_PROBE_OUT"])
"""


@dataclass
class CliOutput:
    returncode: int
    stdout: str
    stderr: str
    files: dict[str, bytes]

    def digest(self) -> str:
        return fingerprint((self.returncode, self.stdout, self.files))


def _collect(cmd: Command, workdir: Path, returncode: int, stdout: str, stderr: str) -> CliOutput:
    files = {}
    for name in cmd.outputs:
        path = workdir / name
        files[name] = path.read_bytes() if path.is_file() else None
    return CliOutput(returncode, stdout, stderr, files)


class Cli:
    """The ``cdfpool`` command line: simulate, fit six methods, evaluate and diagnose."""

    def __init__(self, src: Path, workdir: Path, env: dict, probe):
        self.workdir = workdir
        self.samples_path = workdir / "probe.json"
        self.env = dict(env, PYTHONPATH=str(src), PERFBENCH_DIR=str(Path(__file__).parent),
                        PERFBENCH_PROBE_OUT=str(self.samples_path))
        self.probe = probe  # collects the children's samples
        self.passes = 0
        self.flagged = []

    def _fresh_dir(self, label) -> Path:
        self.passes += 1
        d = self.workdir / f"{label}-{self.passes}"
        d.mkdir(parents=True)
        return d

    def run_pass(self, seed):
        """One pass of subprocesses, each a fresh interpreter."""
        d = self._fresh_dir("pass")
        ops = []
        for cmd in cli_commands(seed):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", PROBE_BOOT, *cmd.argv], cwd=d,
                                  env=self.env, capture_output=True, text=True, timeout=150)
            seconds = time.perf_counter() - t0
            if self.samples_path.is_file():
                self.probe.load(self.samples_path)
                self.samples_path.unlink()
            out = _collect(cmd, d, proc.returncode, proc.stdout, proc.stderr)
            err = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            ops.append(Op(cmd.kind, cmd.name, t0, seconds, out, err))
        return ops, d

    def replay_pass(self, P, seed, span):
        """The same pass in this process through ``cdfpool.cli.main``."""
        d = self._fresh_dir("replay")
        ops = []
        cwd = os.getcwd()
        os.chdir(d)
        try:
            for cmd in cli_commands(seed):
                buf = io.StringIO()
                with span(f"op.{cmd.kind}"), contextlib.redirect_stdout(buf):
                    t0 = time.perf_counter()
                    code = P.cli.main(list(cmd.argv))
                    seconds = time.perf_counter() - t0
                out = _collect(cmd, d, code, buf.getvalue(), "")
                ops.append(Op(cmd.kind, cmd.name, t0, seconds, out, None if code == 0 else f"exit {code}"))
        finally:
            os.chdir(cwd)
        return ops

    def check(self, seed, ops, d: Path):
        """Recompute every reported number from the files the pass wrote."""
        failures = {}
        by_name = {op.name: op for op in ops}
        data = {}
        for label in ("train", "test"):
            op = by_name[f"simulate {label}"]
            if op.error:
                continue
            try:
                y, mu, sd = oracle.read_dataset(d / f"{label}.csv")
                data[label] = oracle.Gaussians(y, np.ones_like(mu), mu, sd)
                ok = y.size == J_LARGE and mu.shape == (J_LARGE, 3) and bool(np.all(sd > 0))
                failures[op.name] = None if ok else "dataset has the wrong shape or a non-positive sd"
            except (OSError, ValueError) as exc:
                failures[op.name] = f"unreadable dataset: {exc}"
        pools = {}
        for m in FIT_METHODS:
            op = by_name[f"fit {m}"]
            if op.error or "train" not in data:
                continue
            try:
                kv = oracle.read_keyvals(d / f"{m}.params")
                pool = oracle.Pool.from_params(kv)
            except (OSError, KeyError, ValueError) as exc:
                failures[op.name] = f"unreadable params: {exc}"
                continue
            pools[m] = pool
            g = data["train"]
            want = oracle.mean_log_score(pool, pool.gaussians(g.y, g.mu, g.sd))
            failures[op.name] = (
                check_converged(op.name, kv.get("converged") == "true", pool, g, self.flagged)
                or _problems([("train mean log score", oracle.close(
                    oracle.number(kv["mean_log_score"]), want, RTOL, RTOL))]))
        for kind, methods in (("evaluate", EVAL_METHODS), ("diagnose", CLI_DIAGNOSE)):
            for m in methods:
                op = by_name[f"{kind} {m}"]
                if op.error or m not in pools or "test" not in data:
                    continue
                failures[op.name] = self._check_report(kind, m, pools[m], data["test"], d)
        return failures

    @staticmethod
    def _check_report(kind, m, pool, g, d: Path) -> str | None:
        prefix = "eval" if kind == "evaluate" else "diag"
        try:
            kv = oracle.read_keyvals(d / f"{prefix}-{m}.txt")
            hist_lines = (d / f"{prefix}-{m}_hist.csv").read_text().splitlines()[1:]
            counts = [int(line.rsplit(",", 1)[1]) for line in hist_lines]
        except (OSError, ValueError, IndexError) as exc:
            return f"unreadable report: {exc}"
        pg = pool.gaussians(g.y, g.mu, g.sd)
        z = oracle.pit(pool, pg)
        checks = [
            ("PIT variance", oracle.close(oracle.number(kv["pit_variance"]), float(np.var(z, ddof=1)), RTOL, RTOL)),
            ("histogram", counts == oracle.histogram(z)),
        ]
        if kind == "evaluate":
            checks += [
                ("mean log score", oracle.close(oracle.number(kv["mean_log_score"]),
                                                oracle.mean_log_score(pool, pg), RTOL, RTOL)),
                ("RMV", oracle.close(oracle.number(kv["rmv"]), oracle.rmv(pool, pg), RTOL)),
            ]
        else:
            svg = d / f"diag-{m}.svg"
            checks += [
                ("n", int(oracle.number(kv["n"])) == g.y.size),
                ("KS statistic", oracle.close(oracle.number(kv["ks_statistic"]), oracle.ks_statistic(z), RTOL, RTOL)),
                ("marginal gap", oracle.close(oracle.number(kv["marginal_gap"]), oracle.marginal_gap(pool, pg), RTOL, RTOL)),
                ("svg", svg.is_file() and svg.read_text().startswith("<svg")),
            ]
        return _problems(checks)


IN_PROCESS = {w.name: w for w in (Study, Fit, Score)}
