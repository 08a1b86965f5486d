"""Self-tests of the benchmark harness, on short traces.

    python -m pytest -q perfbench/tests
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import tracer
from slicebed import embed_pl, sim
from slicebed.milp import MilpError
from slicebed.model import ResidualState

HERE = Path(__file__).resolve().parents[1]


def small(name, horizon=15.0):
    spec = dataclasses.replace(bench.SPECS[name], horizon=horizon)
    return spec, bench.setup(spec)


def test_wrappers_restore_the_original_functions():
    t = tracer.Tracer()
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in t.layers()]
    spec, scenario = small("pl_static")
    with pytest.raises(RuntimeError):
        with tracer.installed(t):
            assert all(getattr(o, a) is not f for o, a, f in originals)
            bench.one_pass(spec, scenario, seed=3)
            raise RuntimeError("leave the block by an exception")
    assert all(getattr(o, a) is f for o, a, f in originals)
    calls = dict(t.calls)
    assert calls["paths.k_shortest_paths"] > 0
    bench.one_pass(spec, scenario, seed=3)
    assert dict(t.calls) == calls


@pytest.mark.parametrize("name, largest", [
    ("pl_static", "paths.k_shortest_paths"),
    ("pl_coupled_dynamic", "paths.k_shortest_paths"),
    ("nl_static", "milp.branch_and_bound"),
])
def test_traced_self_times_sum_to_run_wall(name, largest):
    spec, scenario = small(name)
    result = bench.trace(spec, scenario, seed=3)
    assert result.correct, result.problems
    assert result.metrics["trace.self_time_share"][0] == pytest.approx(1.0, abs=0.05)
    self_ms = {k: v for k, (v, unit) in result.metrics.items() if k.endswith(".self_ms")}
    assert max(self_ms, key=self_ms.get) == f"{largest}.self_ms"


def test_percentile_needs_ten_samples_beyond_it():
    assert bench.percentile(list(range(100)), 90) == 89
    assert bench.percentile(list(range(99)), 90) is None
    assert bench.percentile(list(range(1000)), 99) == 989
    assert bench.percentile(list(range(999)), 99) is None
    assert bench.percentile([], 50) is None


def test_runs_report_the_metrics_benchmark_json_names():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec, scenario = small("pl_static", horizon=600.0)
    untraced = bench.measure(spec, scenario, seed=3, seconds=0.0, setup_s=0.05)
    traced = bench.trace(spec, scenario, seed=3)
    assert untraced.correct and traced.correct, untraced.problems + traced.problems
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert ({name: unit for name, (_, unit) in result.metrics.items()}
                == {m["name"]: m["unit"] for m in declared[kind]})
    assert all(value > 0 for value, _ in untraced.metrics.values())


def test_traced_pass_must_decide_as_the_untraced_one(monkeypatch):
    class Skewed(tracer.Tracer):
        """Adds one unit to the cost of every path-link embedding it decodes."""
        def wrap(self, name, fn, hook=None):
            traced = super().wrap(name, fn, hook)
            if name != "embed_pl.decode_pl":
                return traced

            def skewed(*args, **kwargs):
                emb = traced(*args, **kwargs)
                return dataclasses.replace(emb, total_cost=emb.total_cost + 1.0)
            return skewed

    monkeypatch.setattr(bench, "Tracer", Skewed)
    spec, scenario = small("pl_static")
    result = bench.trace(spec, scenario, seed=3)
    assert not result.correct
    assert any("event stream" in p for p in result.problems)


def test_solver_exception_counts_every_request_as_failed(monkeypatch):
    spec, scenario = small("pl_static")
    offered = bench.one_pass(spec, scenario, seed=3).offered_total()
    reserve, solve = ResidualState.reserve, sim.solve_pl_detailed

    def broken(*args, **kwargs):
        raise MilpError("injected")

    monkeypatch.setattr(embed_pl, "branch_and_bound", broken)
    for result in (bench.measure(spec, scenario, seed=3, seconds=0.0, setup_s=0.05),
                   bench.trace(spec, scenario, seed=3)):
        assert not result.correct
        assert result.failed == result.attempted == offered
        assert ResidualState.reserve is reserve and sim.solve_pl_detailed is solve


def test_audit_violation_fails_the_run(monkeypatch):
    spec, scenario = small("pl_static")
    monkeypatch.setattr(bench, "check_embedding", lambda *args: ["injected"])
    result = bench.measure(spec, scenario, seed=3, seconds=0.0, setup_s=0.05)
    accepted = bench.one_pass(spec, scenario, seed=3).accepted_total()
    assert not result.correct
    assert result.failed == accepted > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pl_static",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
