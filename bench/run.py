"""Benchmark of the a3d optimizer: planning latency, plan quality, execution.

Run from the repository root:

    python3 bench/run.py --workload join_enum --seed 1 --seconds 25 --trace 0

Workloads: join_enum, rewrite_fixpoint, exec_quality (see bench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The full run
record goes to ``.bench_out/``.  The benchmark imports a3d from ``src/`` of
the same checkout and exits with status 2 when it is not there.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("join_enum", "rewrite_fixpoint", "exec_quality")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measured time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "a3d", "__init__.py")):
        print(f"error: no a3d sources under {SRC}; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import a3d
    if os.path.dirname(os.path.dirname(os.path.abspath(a3d.__file__))) \
            != SRC:
        print(f"error: imported a3d from {a3d.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import harness
    return harness.main(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
