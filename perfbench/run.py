"""rotavg benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see perfbench/inputs.py) in a child process started
from the repository's own ``src/`` with single-threaded BLAS, and prints
the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` metrics,
from a traced run.  The full result (manifest, per-pass times, failed
checks, the per-command split of the setup metrics) is written under
``.bench_run/results/``, with the spans of a traced run beside it.  Exits 2 without a result when the
repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the workload process may run past --seconds by one pass, the probe
# of a traced run and writing its results
CHILD_MARGIN_S = 120
BLAS_THREADS = "1"


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed
    in BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rotavg" / "__init__.py").is_file():
        print(f"error: no rotavg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 1

    results = ROOT / ".bench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    work_dir = ROOT / ".bench_run" / f"work-{os.getpid()}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir),
           "--result", str(result_path)]
    timeout = args.seconds + CHILD_MARGIN_S
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                               timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish in {timeout:g} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if child.returncode != 0 or not result_path.is_file():
        print(f"error: workload process exited with {child.returncode}", file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    values = result[kind]
    # a value a failed run could not compute (NaN) is reported as null
    metrics = {name: {"value": values[name] if math.isfinite(values[name]) else None,
                      "unit": unit} for name, unit in metric_units(kind).items()}
    print("manifest " + json.dumps(result["manifest"], sort_keys=True))
    for check in result["failed_checks"]:
        print(f"failed check: {check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
