"""Benchmark of cdfpool: one workload per call, one JSON result on the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 0 --seconds 12 --trace 0

``--trace 0`` times whole passes and prints the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` runs untraced passes for half the time and
traced passes for the other half, and prints the per-layer metrics.  Every
run checks the library's outputs against an independent recomputation
(``oracle.py``); the full record of a run, and the spans of a traced run, are
written under ``.perfbench_out/`` in the checkout.  See README.md.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# One caller and (J, k<=4) matrices: BLAS and OpenMP threads only add noise.
# Pinned before numpy loads, and inherited by the CLI subprocesses.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("study", "fit", "score", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cdfpool" / "__init__.py").is_file():
        print(f"error: no cdfpool sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    # The in-process workloads import the package first, before numpy and
    # scipy, so that set-up pays the whole import as a user would.
    import speed

    probe = speed.SpeedProbe()
    probe.start()
    sys.path.insert(0, str(SRC))
    P, import_t = None, None
    if args.workload != "cli":
        t0 = time.perf_counter()
        import cdfpool as P
        import_t = (t0, time.perf_counter())
        where = Path(P.__file__).resolve()
        if SRC.resolve() not in where.parents:
            print(f"error: cdfpool was imported from {where}, not {SRC}", file=sys.stderr)
            return 2

    import harness

    return harness.main(args, P, import_t, probe, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
