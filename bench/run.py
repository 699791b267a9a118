"""latticecpwl benchmark: run one workload in closed loop and print its metrics.

    python3 bench/run.py --workload verify-n8 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`. Ops are `latticecpwl` invocations through `cli.main(argv)` in this
process, plus the Python-API `netcheck`; one op runs at a time. The timed
loop runs whole rounds of the workload's ops, as many as fit --seconds at
the round's nominal duration (at least one). Every op's output
is checked after the timed loop. With --trace 1 one more round runs with
every public function of the package wrapped, and the per-layer metrics are
printed instead of the end-to-end ones. The last stdout line is the JSON
result; the lines before it are the human-readable report.
"""
from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys

# One BLAS thread: the fold pool's threads each calling a multi-threaded
# BLAS oversubscribe a small machine. Set before numpy is first imported;
# the program's own defaults are unchanged.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# the import part of set-up, timed in fresh interpreters so it can be repeated
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, latticecpwl.cli; "
    "print(time.perf_counter() - t)"
)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _parse(argv):
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_seconds(repeats: int) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


class _Terminated(BaseException):
    """SIGTERM as an exception nothing in the op loop catches, so the run
    unwinds and removes its point files."""


def _terminate(signum, frame):
    raise _Terminated(signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(SRC, "latticecpwl", "__init__.py")):
        return _fail(f"no package source at {SRC}; run from a latticecpwl checkout")
    sys.path.insert(0, SRC)
    import latticecpwl
    import harness
    import workloads
    if os.path.dirname(os.path.abspath(latticecpwl.__file__)) != os.path.join(SRC, "latticecpwl"):
        return _fail(f"imported latticecpwl from {latticecpwl.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    try:
        import_s = _import_seconds(SETUP_REPEATS)
        return harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s, SETUP_REPEATS, ROOT)
    except _Terminated as exc:
        return 128 + exc.args[0]


if __name__ == "__main__":
    sys.exit(main())
