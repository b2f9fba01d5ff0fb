"""Measurement, tracing and reporting behind ``run.py``."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
OP_KINDS = ("simulate", "fit", "evaluate", "diagnose", "diagnose_atoms")
CLI_KINDS = ("simulate", "fit", "evaluate", "diagnose")


def no_span(name):
    return nullcontext()


# ---------------------------------------------------------------------------
# traced layers: (module, attribute, span name, counter hook)


def _iterations(family):
    return lambda c, args, kwargs, r: c.update({f"fitting.iterations.{family}": r.iterations})


def _glp_link(args, kwargs):
    return (args[1] if len(args) > 1 else kwargs["link"]).value


def _glp_iterations(c, args, kwargs, r):
    c.update({f"fitting.iterations.glp-{_glp_link(args, kwargs)}": r.iterations})


def _bytes_read(c, args, kwargs, r):
    c.update({"io.bytes_read": os.path.getsize(args[0])})


def _bytes_written(c, args, kwargs, r):
    c.update({"io.bytes_written": len(args[1].encode("utf-8"))})


TARGETS = [
    ("cdfpool.study", "reproduce_sim_study", "study.reproduce", None),
    ("cdfpool.study", "format_study_report", "study.format", None),
    ("cdfpool.sim", "simulate", "sim.simulate",
     lambda c, a, k, r: c.update({"sim.cases": len(r.cases)})),
    ("cdfpool.fitting", "fit_tlp", "fitting.fit.tlp", _iterations("tlp")),
    ("cdfpool.fitting", "fit_slp", "fitting.fit.slp", _iterations("slp")),
    ("cdfpool.fitting", "fit_blp", "fitting.fit.blp", _iterations("blp")),
    ("cdfpool.fitting", "fit_glp", lambda a, k: f"fitting.fit.glp-{_glp_link(a, k)}", _glp_iterations),
    ("cdfpool.fitting", "_build_design", "fitting.design", None),
    ("cdfpool.fitting", "evaluate", "fitting.evaluate", None),
    ("cdfpool.fitting", "log_score", "fitting.log_score", None),
    ("cdfpool.pools", "pool", "pools.pool", None),
    ("cdfpool.distributions", "quad", "distributions.quad", None),
    ("cdfpool.calibration", "pit_sample", "calibration.pit_sample", None),
    ("cdfpool.calibration", "randomized_pit", "calibration.randomized_pit", None),
    ("cdfpool.calibration", "ks_uniformity", "calibration.ks_uniformity", None),
    ("cdfpool.calibration", "marginal_calibration_gap", "calibration.marginal_gap", None),
    ("cdfpool.calibration", "dispersion_report", "calibration.dispersion_report", None),
    ("cdfpool.io", "read_dataset_csv", "io.read_dataset_csv", _bytes_read),
    ("cdfpool.io", "write_dataset_csv", "io.write_dataset_csv", None),
    ("cdfpool.io", "read_params", "io.read_params", _bytes_read),
    ("cdfpool.io", "write_params", "io.write_params", None),
    ("cdfpool.io", "atomic_write_text", "io.atomic_write_text", _bytes_written),
]

EVALUATE_STEPS = ("fitting.log_score", "calibration.pit_sample", "pools.pool")


def layer_metrics(tracer: tracing.Tracer, lo: int, hi: int, counters: Counter) -> dict:
    """Per-layer figures of one traced pass, from its spans [lo, hi) and counters."""
    names, dur, parent = tracer.arrays(lo, hi)
    totals = tracing.layer_totals(names, dur, parent)
    steps = tracing.child_time(names, dur, parent, "fitting.evaluate", EVALUATE_STEPS)

    def calls(n):
        return totals.get(n, (0, 0, 0))[0]

    def incl(n):
        return totals.get(n, (0, 0, 0))[1] / 1e9

    def own(n):
        return totals.get(n, (0, 0, 0))[2] / 1e9

    m = {
        "io.read_dataset_csv_s": incl("io.read_dataset_csv"),
        "io.write_dataset_csv_s": incl("io.write_dataset_csv"),
        "io.read_params_s": incl("io.read_params"),
        "io.write_params_s": incl("io.write_params"),
        "io.bytes_read": counters["io.bytes_read"],
        "io.bytes_written": counters["io.bytes_written"],
        "sim.simulate_s": incl("sim.simulate"),
        "sim.cases": counters["sim.cases"],
        "fitting.design_s": incl("fitting.design"),
        "fitting.design_builds": calls("fitting.design"),
        "fitting.evaluate.log_score_s": steps["fitting.log_score"] / 1e9,
        "fitting.evaluate.pit_s": steps["calibration.pit_sample"] / 1e9,
        # evaluate minus its pool, log-score and PIT steps: the variances,
        # including any quadrature they run
        "fitting.evaluate.rmv_s": incl("fitting.evaluate") - sum(steps.values()) / 1e9,
        "pools.pool_s": incl("pools.pool"),
        "pools.pool_calls": calls("pools.pool"),
        "distributions.quad_calls": calls("distributions.quad"),
        "distributions.quad_s": incl("distributions.quad"),
        "calibration.pit_sample_s": incl("calibration.pit_sample"),
        "calibration.randomized_pit_calls": calls("calibration.randomized_pit"),
        "calibration.ks_uniformity_s": incl("calibration.ks_uniformity"),
        "calibration.marginal_gap_s": incl("calibration.marginal_gap"),
        "calibration.dispersion_report_s": incl("calibration.dispersion_report"),
        "study.reproduce_s": own("study.reproduce"),
        "study.format_s": incl("study.format"),
    }
    for family in workloads.FIT_METHODS:
        m[f"fitting.fit_s.{family}"] = incl(f"fitting.fit.{family}")
        m[f"fitting.iterations.{family}"] = counters[f"fitting.iterations.{family}"]
    return m


# ---------------------------------------------------------------------------
# passes


def digest(op) -> str:
    if isinstance(op.output, workloads.CliOutput):
        return op.output.digest()
    return workloads.fingerprint(op.output)


class Ledger:
    """Operations attempted and failed, judged against the checked warm-up pass."""

    def __init__(self, ops, failures: dict):
        self.reference = {op.name: digest(op) for op in ops}
        self.bad = {op.name: op.error or failures.get(op.name) for op in ops}
        self.attempted = len(ops)
        self.failed = sum(bool(v) for v in self.bad.values())
        self.messages = Counter(f"{name}: {why}" for name, why in self.bad.items() if why)

    def judge(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            why = op.error or self.bad.get(op.name)
            if not why and digest(op) != self.reference.get(op.name):
                why = "output differs from the checked warm-up pass"
            if why:
                self.failed += 1
                self.messages[f"{op.name}: {why}"] += 1
            op.output = None


@dataclass
class Pass:
    """One untraced pass: wall and reference-speed seconds, in total and per operation kind."""

    wall: float
    ref: float
    op_wall: Counter
    op_ref: Counter


def timed_passes(run_pass, seconds: float, ledger: Ledger, probe) -> list[Pass]:
    """Run passes until ``seconds`` have elapsed (at least one)."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = run_pass()
        wall, ref = probe.reference_seconds(t0, time.perf_counter())
        op_wall, op_ref = Counter(), Counter()
        for op in ops:
            w, r = probe.reference_seconds(op.start, op.start + op.seconds)
            op_wall[op.kind] += w
            op_ref[op.kind] += r
        ledger.judge(ops)
        out.append(Pass(wall, ref, op_wall, op_ref))
        if time.perf_counter() - start >= seconds:
            return out


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def op_medians(passes, kinds) -> dict[str, float]:
    """Median over passes of the summed reference seconds of each operation kind."""
    return {k: median([p.op_ref[k] for p in passes]) for k in kinds}


# ---------------------------------------------------------------------------
# the run


def traced_passes(tracer, run_pass, seconds, ledger, notes):
    """Passes under the wrappers; returns the per-layer figures and pass wall times."""
    import cdfpool.cli  # noqa: F401  (loads cli and io so their functions are wrapped)

    per_pass, walls = [], []
    start = time.perf_counter()
    with tracing.installed(tracer, TARGETS) as missing:
        for name in missing:
            notes.append(f"{name} not found; its per-layer figures read 0")
        while True:
            lo = len(tracer.names)
            tracer.counters.clear()
            t0 = time.perf_counter()
            with tracer.span("pass"):
                ops = run_pass(tracer.span)
            walls.append(time.perf_counter() - t0)
            per_pass.append(layer_metrics(tracer, lo, len(tracer.names), Counter(tracer.counters)))
            ledger.judge(ops)
            if time.perf_counter() - start >= seconds:
                break
    merged = {key: median([p[key] for p in per_pass]) for key in per_pass[0]}
    return merged, walls


@dataclass
class Run:
    setup_wall: float
    setup_ref: float
    setup_parts: dict
    passes: list
    ledger: Ledger
    reference_fails: int
    peak_rss_mb: float
    flagged: list | None = None  # fits flagged converged=False that the oracle accepted
    layers: dict | None = None
    tracer: tracing.Tracer | None = None
    traced_walls: list | None = None


def run_in_process(P, import_t, name, seed, seconds, trace, probe, notes) -> Run:
    wl = workloads.IN_PROCESS[name]()
    prep = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.prepare(P, seed)
        prep.append(probe.reference_seconds(t0, time.perf_counter()))
    t0 = time.perf_counter()
    warm = wl.run_pass(P, state, seed, no_span)
    warm_t = probe.reference_seconds(t0, time.perf_counter())
    failures, reference_fails = wl.check(P, state, seed, warm)
    ledger = Ledger(warm, failures)
    for op in warm:
        op.output = None
    import_t = probe.reference_seconds(*import_t)
    parts = {"import": import_t, "prepare": (median([w for w, _ in prep]), median([r for _, r in prep])),
             "warmup": warm_t}

    def run_pass(span=no_span):
        return wl.run_pass(P, state, seed, span)

    passes = timed_passes(run_pass, seconds / 2 if trace else seconds, ledger, probe)
    run = Run(sum(w for w, _ in parts.values()), sum(r for _, r in parts.values()), parts, passes,
              ledger, reference_fails, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              wl.flagged)
    if trace:
        probe.stop()
        run.tracer = tracing.Tracer()
        run.layers, run.traced_walls = traced_passes(run.tracer, run_pass, seconds / 2, ledger, notes)
        run.layers.update({f"cli.{k}.in_process_s": 0.0 for k in CLI_KINDS})
        run.layers["cli.startup_s"] = 0.0
        run.layers["study.reference_fails"] = reference_fails
        run.layers["trace.overhead_s"] = median(run.traced_walls) - median([p.wall for p in passes])
    return run


def run_cli(seed, seconds, trace, probe, notes) -> Run:
    workdir = OUT / f"cli-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    probe.stop()  # the subprocesses sample their own speed
    children = speed.SpeedProbe()
    wl = workloads.Cli(SRC, workdir, dict(os.environ), children)
    t0 = time.perf_counter()
    warm, warm_dir = wl.run_pass(seed)
    warm_t = children.reference_seconds(t0, time.perf_counter())
    ledger = Ledger(warm, wl.check(seed, warm, warm_dir))
    passes = timed_passes(lambda: wl.run_pass(seed)[0], seconds / 2 if trace else seconds, ledger, children)
    for d in workdir.iterdir():
        if d.is_dir() and d != warm_dir:  # the warm-up pass stays for inspection; the rest matched it
            shutil.rmtree(d)
    run = Run(warm_t[0], warm_t[1], {"warmup": warm_t}, passes, ledger, 0,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, wl.flagged)
    probe.samples += children.samples  # for the run's median kernel time
    if trace:
        import cdfpool.cli

        P = sys.modules["cdfpool"]
        probe.start()
        inproc = timed_passes(lambda: wl.replay_pass(P, seed, no_span), 0.0, ledger, probe)
        probe.stop()
        run.tracer = tracing.Tracer()
        run.layers, run.traced_walls = traced_passes(
            run.tracer, lambda span: wl.replay_pass(P, seed, span), seconds / 2, ledger, notes)
        run.layers.update({f"cli.{k}.in_process_s": v for k, v in op_medians(inproc, CLI_KINDS).items()})
        n_commands = len(workloads.cli_commands(seed))
        run.layers["cli.startup_s"] = (median([p.ref for p in passes])
                                       - median([p.ref for p in inproc])) / n_commands
        run.layers["study.reference_fails"] = 0
        run.layers["trace.overhead_s"] = median(run.traced_walls) - median([p.wall for p in inproc])
    return run


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(args, P, import_t, probe, thread_vars) -> int:
    """Run one workload and print its result.

    ``P`` is the imported package and ``import_t`` the (start, end) of its
    import (None for ``cli``); ``probe`` is the running speed probe.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    notes: list[str] = []
    if args.workload == "cli":
        r = run_cli(args.seed, args.seconds, args.trace, probe, notes)
        kinds = CLI_KINDS
    else:
        r = run_in_process(P, import_t, args.workload, args.seed, args.seconds, args.trace, probe, notes)
        kinds = {"study": (), "fit": ("fit",), "score": ("evaluate", "diagnose", "diagnose_atoms")}[args.workload]
    probe.stop()

    refs = [p.ref for p in r.passes]
    walls = [p.wall for p in r.passes]
    ops = op_medians(r.passes, OP_KINDS)
    ops_wall = {k: median([p.op_wall[k] for p in r.passes]) for k in OP_KINDS}
    ledger = r.ledger
    end_to_end = {"pass_s": median(refs), "setup_s": r.setup_ref, "peak_rss_mb": r.peak_rss_mb}
    reference_ok = args.workload != "study" or args.seed != 0 or r.reference_fails == 0
    correct = ledger.failed == 0 and reference_ok

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": tracing.nproc(), "threads": {v: os.environ[v] for v in thread_vars},
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "reference_kernel_s": speed.REFERENCE_S,
        "kernel_median_s": median([k for _, k in probe.samples]),
    }
    q1, q3 = quartiles(refs)
    print(f"cdfpool benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  python {meta['python']}, numpy {meta['numpy']}, scipy {meta['scipy']}, "
          f"nproc {meta['nproc']}, commit {meta['git_commit']}")
    print("  times in reference-speed seconds; wall seconds after the slash")
    print(f"  {'pass_s':<22}{end_to_end['pass_s']:>10.4f} / {median(walls):<9.4f} "
          f"median of {len(refs)} passes, quartiles {q1:.4f} .. {q3:.4f}")
    print(f"  {'setup_s':<22}{r.setup_ref:>10.4f} / {r.setup_wall:<9.4f} "
          + ", ".join(f"{k} {ref:.4f}" for k, (_, ref) in r.setup_parts.items()))
    for kind in kinds:
        print(f"  {kind + '_s':<22}{ops[kind]:>10.4f} / {ops_wall[kind]:<9.4f} "
              "median summed latency per pass")
    print(f"  {'failed_frac':<22}{ledger.failed / ledger.attempted:>10.4f}"
          f"{'':12}{ledger.failed} of {ledger.attempted} operations")
    print(f"  {'peak_rss_mb':<22}{r.peak_rss_mb:>10.1f}")
    if args.workload == "study":
        print(f"  {'study.reference_fails':<22}{r.reference_fails:>10d}"
              f"{'':12}reference-band checks failed (required 0 at seed 0 only)")
    for line, count in ledger.messages.most_common(20):
        print(f"  failed: {line} ({count} times)")
    for line in r.flagged:
        print(f"  flagged, accepted: {line}")
    for line in notes:
        print(f"  note: {line}")

    record = {"meta": meta, "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "failures": dict(ledger.messages), "notes": notes, "end_to_end": end_to_end,
              "op_seconds": ops, "op_wall_seconds": ops_wall, "pass_seconds": refs, "pass_walls": walls,
              "setup_wall": r.setup_wall, "setup_parts": r.setup_parts, "reference_fails": r.reference_fails,
              "flagged_fits": r.flagged}
    if args.trace:
        layers = r.layers
        layers.update({f"ops.{k}_s": v for k, v in ops.items()})
        layers["fitting.nonconverged_flags"] = len(r.flagged)  # per pass: every pass repeats the warm-up
        it = tracing.import_times(str(SRC), dict(os.environ))
        layers.update({f"import.{k}_s": v for k, v in it.items()})
        for key, value in sorted(layers.items()):
            print(f"  {key:<36}{value:>14.6f}")
        r.tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        record.update(per_layer=layers, traced_walls=r.traced_walls)
        values, wanted = layers, spec["per_layer"]
    else:
        values, wanted = end_to_end, spec["end_to_end"]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0
