"""Benchmark of the bargmann_toeplitz package and its CLI.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout: the package is imported from ``src/`` next to
this directory and nowhere else.  Each run is a closed loop with one caller.
It sets up in fresh interpreters (``setup_s``), then runs whole rounds of
seeded operations for about ``--seconds`` and checks every result against the
closed-form oracle.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
records spans, runs the fixed-argument layer probes and prints the per-layer
metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
# At most nproc BLAS/OpenMP threads here and in every child process; set
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(NPROC)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_sweep", "apply_dense", "spectra_blackbox", "cli_cold")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bargmann_toeplitz" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                timeout=900,
            )
            status = status or proc.returncode
        return status

    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, NPROC)


if __name__ == "__main__":
    raise SystemExit(main())
