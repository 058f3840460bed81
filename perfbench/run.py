"""Layered benchmark of the polydisc package.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ./src.  One
client drives the public API in a closed loop: each timed call starts only
after the previous one returned, and the loop stops once the timed calls
add up to --seconds.  Inputs come from --seed through polydisc.sampling and
are drawn, like every output check, outside the timed calls.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters), items done per second, call latency p50 and tail, the share
of items that did not fail, and peak resident memory.  Set-up time, items
per second and latencies are in reference seconds: an interleaved
calibration kernel scales them for the host's drifting speed (see
DESIGN.md), and the unscaled wall-clock values are printed beside them.
--trace 1 alternates untraced and traced calls and prints the per-layer
metrics from the traced calls, with the tracing overhead (untraced minus
traced items per second); the spans go to .perfbench/trace-<workload>-<seed>.jsonl.gz.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  See DESIGN.md for the workloads and the
layer-to-metric map.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polydisc", "__init__.py")):
        sys.stderr.write(f"error: no polydisc package under {SRC}\n")
        return 1
    # one thread per pool: np.roots calls LAPACK, and the set-up probes
    # inherit this environment; numpy reads it when it is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    import harness
    import polydisc

    if os.path.dirname(os.path.abspath(polydisc.__file__)) != os.path.join(SRC, "polydisc"):
        sys.stderr.write(f"error: polydisc imported from {polydisc.__file__}, not {SRC}\n")
        return 1
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
