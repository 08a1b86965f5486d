"""Print the seconds from interpreter start-up to a workload's first arrival.

    python3 perfbench/setup_probe.py pl_static

Covers importing the package (and numpy), generating the scenario,
``scenario_from_dict`` and slice-template parsing. ``run.py`` starts one
fresh process per sample so that nothing is cached between samples.
"""
import sys
import time

t0 = time.perf_counter()
import bench  # noqa: E402

bench.setup(bench.SPECS[sys.argv[1]])
print(time.perf_counter() - t0)
