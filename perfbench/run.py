"""Admission benchmark of slicebed.

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload pl_static --seed 7 --seconds 30 --trace 0

With ``--trace 0`` a run reports the end-to-end metrics, measured on untraced
passes; with ``--trace 1`` it reports the per-layer metrics of one traced
pass, which must decide exactly as an untraced pass of the same trace. Every
untraced pass runs under the correctness gate: each accepted embedding is
audited and the ledger's conservation is checked after every event. A run
fails on any violation or on any difference between passes of one trace.
Each run is one process with one thread: the BLAS/OpenMP pools are pinned to
one thread before numpy loads, because ``nl`` embeddings depend on the
thread count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when ``correct`` is false. Run from the root of a checkout.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pl_static", "nl_static", "pl_coupled_dynamic")
SETUP_PROBES = 5


def setup_seconds(workload: str) -> float:
    """Median time from a fresh interpreter to a run's first arrival."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() or commit
        except OSError:
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit,
            **{v: os.environ.get(v) for v in THREAD_VARS}}


def report(result) -> dict:
    """Print every metric by name with its unit; return the JSON result line."""
    for name, (value, unit) in result.metrics.items():
        n = result.samples.get(name)
        print(f"{name:<36} {value:>14.6g} {unit}" + (f"  (n={n})" if n else ""))
    for key, value in result.notes.items():
        print(f"# {key}: {value}")
    for problem in result.problems:
        print(f"# FAILED CHECK: {problem}")
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result.metrics.items()}}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup_s = None if trace else setup_seconds(workload)
    import bench

    spec = bench.SPECS[workload]
    scenario = bench.setup(spec)
    print(f"# workload {workload} seed {seed} trace {int(trace)} "
          f"env {json.dumps(environment(), sort_keys=True)}")
    result = (bench.trace(spec, scenario, seed) if trace
              else bench.measure(spec, scenario, seed, seconds, setup_s))
    print(json.dumps(report(result), sort_keys=True))
    return 0 if result.correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(f"{workload:<19} {line}")
            sys.stderr.write(proc.stderr)
            try:
                child = json.loads(lines[-1])
            except (IndexError, ValueError):
                child = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            merged["correct"] &= child["correct"] and proc.returncode == 0
            if not trace:
                merged["attempted"] += child["attempted"]
                merged["failed"] += child["failed"]
            for name, metric in child["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged, sort_keys=True))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slicebed" / "__init__.py").is_file():
        print(f"error: no slicebed sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
