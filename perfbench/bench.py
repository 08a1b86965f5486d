"""Workloads, measured passes and the correctness gate of the slicebed benchmark.

Every workload is a closed loop driven by ``slicebed.sim.run``: arrivals are
Poisson in simulated time and each one is decided before the virtual clock
moves on, so wall-clock throughput is bound by work and there is no backlog.
One pass replays one request trace, drawn from the workload seed; a run
repeats passes of the same trace while another fits in its time budget.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from slicebed import sim  # noqa: E402
from slicebed.milp import MilpError  # noqa: E402
from slicebed.model import (Blocked, LedgerError, ResidualState,  # noqa: E402
                            check_embedding, scenario_from_dict)
from slicebed.pricing import KLEINROCK, STATIC, PricingPolicy  # noqa: E402
from tracer import Tracer, installed  # noqa: E402

GEN = sim.ScenarioGen(operators=3, rho=0.95)
SCENARIO_SEED = 1
K = 8
# A solver or ledger exception, or a failed conservation check, aborts a run.
RUN_ERRORS = (MilpError, LedgerError, AssertionError)


@dataclass(frozen=True)
class Spec:
    """One workload: engine, pricing, trace length and slice mix.

    ``mix`` overrides keys of every slice type of the generated scenario; the
    scenario is regenerated from the same seed with that mix, so topology,
    prices and trust are shared by all workloads and capacities are sized for
    the workload's own offered load.
    """
    name: str
    engine: str
    pricing: PricingPolicy
    horizon: float
    mix: dict = field(default_factory=dict)


# Horizons give one pass of about 20-27 s on a 2-core x86 machine: long
# enough that throughput, latency and blocking vary little across seeds.
SPECS = {s.name: s for s in (
    # k-shortest search does most of the work; random deploy sets make the
    # layered-graph topology rarely repeat.
    Spec("pl_static", sim.PL, PricingPolicy(STATIC), horizon=5000.0),
    # LP and branch-and-bound are nearly all of the work. Slices are cut to
    # one service with one VNF: on the default mix single solves of the
    # bundled solver take up to 9 s, so a run's throughput depends on
    # whether its seed draws one of them (5 to 13 req/s across 6 seeds).
    Spec("nl_static", sim.NL, PricingPolicy(STATIC), horizon=1000.0,
         mix={"chain_length": [1, 1], "services": [1, 1]}),
    # Coupled multi-service slices make the pl model branch, prices change
    # after every reservation, and most topologies repeat.
    Spec("pl_coupled_dynamic", sim.PL, PricingPolicy(KLEINROCK, cap=100.0),
         horizon=1800.0,
         mix={"services": [2, 3], "deploy_fraction": 1.0, "deny_fraction": 0.0}),
)}


def setup(spec: Spec):
    """Scenario of ``spec``: everything a run does before its first arrival."""
    doc = sim.generate_scenario(GEN, SCENARIO_SEED)
    if spec.mix:
        doc = sim.generate_scenario(GEN, SCENARIO_SEED,
                                    [{**t, **spec.mix} for t in doc["slice_types"]])
    scenario = scenario_from_dict(doc)
    sim.parse_slice_types(scenario)
    return scenario


def one_pass(spec: Spec, scenario, seed: int, run=None, **flags) -> sim.RunMetrics:
    workload = sim.Workload.from_scenario(scenario, horizon=spec.horizon, seed=seed)
    return (run or sim.run)(scenario, workload, engine=spec.engine,
                            pricing=spec.pricing, k=K, **flags)


def percentile(xs, p: int):
    """Nearest-rank ``p``-th percentile of ``xs``, or None when fewer than
    10 samples lie beyond it."""
    n = len(xs)
    rank = -(-p * n // 100)
    if n - rank < 10:
        return None
    return sorted(xs)[rank - 1]


def summary(m: sim.RunMetrics) -> tuple:
    """The decisions of a pass; equal for every pass of one trace."""
    return (m.offered_total(), m.blocked_total(),
            tuple(sorted(m.blocked_by_reason.items())),
            m.blocking_probability(), m.mean_accepted_cost())


def events_digest(m: sim.RunMetrics) -> str:
    """sha256 of the pass's events.jsonl as ``write_run_outputs`` writes it."""
    h = hashlib.sha256()
    for ev in m.events:
        h.update((json.dumps(ev, sort_keys=True) + "\n").encode())
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Gate:
    metrics: sim.RunMetrics
    violations: list[str]     # ids of accepted slices that failed the audit

    @property
    def failed(self) -> int:
        reasons = self.metrics.blocked_by_reason
        return len(self.violations) + reasons.get("time_limit_no_incumbent", 0)


def checked_pass(spec: Spec, scenario, seed: int, collect_events: bool = False) -> Gate:
    """One untraced pass that checks every decision it makes.

    Each accepted embedding is audited with ``check_embedding`` against the
    ledger just before ``ResidualState.reserve`` books it, and the ledger is
    checked against the active footprints after every event. Both checks
    together cost about 1% of a pass's wall time and nothing of its solve
    latencies, which are timed around the engine call alone.
    """
    violations: list[str] = []
    original = ResidualState.reserve

    def reserve(state, slc, emb, shared_vnf_per_slice=False):
        if check_embedding(scenario.net, scenario.trust, state, slc, emb,
                           shared_vnf_per_slice):
            violations.append(emb.slice_id)
        return original(state, slc, emb, shared_vnf_per_slice)

    ResidualState.reserve = reserve
    try:
        m = one_pass(spec, scenario, seed, collect_events=collect_events,
                     check_conservation=True)
    finally:
        ResidualState.reserve = original
    return Gate(m, violations)


def offered_count(spec: Spec, scenario, seed: int) -> int:
    """Requests in the trace, counted with every solve replaced by a block.

    Arrival times and request contents are drawn before any engine runs, so
    the count does not depend on the engine's decisions.
    """
    def no_solve(*args, **kwargs):
        return Blocked("not_solved"), None

    saved = sim.solve_pl_detailed, sim.solve_nl_detailed
    sim.solve_pl_detailed = sim.solve_nl_detailed = no_solve
    try:
        return one_pass(spec, scenario, seed).offered_total()
    finally:
        sim.solve_pl_detailed, sim.solve_nl_detailed = saved


@dataclass
class Result:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    samples: dict = field(default_factory=dict)     # name -> sample count
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _aborted(spec: Spec, scenario, seed: int, exc: Exception) -> Result:
    # run() returned no decision at all, so every request of the trace counts.
    attempted = max(1, offered_count(spec, scenario, seed))
    return Result(attempted, attempted,
                  [f"run aborted: {type(exc).__name__}: {exc}"])


def _audit_problem(gate: Gate) -> list[str]:
    if not gate.violations:
        return []
    return [f"{len(gate.violations)} accepted embeddings failed check_embedding, "
            f"first {gate.violations[0]}"]


def measure(spec: Spec, scenario, seed: int, seconds: float,
            setup_s: float) -> Result:
    """End-to-end metrics from untraced, checked passes of one trace.

    Passes repeat while the next one, as long as the last, still ends within
    ``seconds``; there is always at least one.
    """
    walls, gates = [], []
    try:
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            gates.append(checked_pass(spec, scenario, seed))
            walls.append(time.perf_counter() - t0)
            if time.perf_counter() - start + walls[-1] > seconds:
                break
    except RUN_ERRORS as exc:
        return _aborted(spec, scenario, seed, exc)

    first = gates[0].metrics
    result = Result(first.offered_total(), max(g.failed for g in gates),
                    _audit_problem(gates[0]))
    if any(summary(g.metrics) != summary(first) for g in gates[1:]):
        result.problems.append("passes of one trace decided differently")

    # Per request, the median over passes; percentiles count distinct requests.
    solve_ms = [statistics.median(v) for v in zip(*(g.metrics.solve_ms for g in gates))]
    offered = first.offered_total()
    metrics = {"requests_per_s": (offered / statistics.median(walls), "1/s")}
    for p in (50, 90, 99):
        value = percentile(solve_ms, p)
        if value is not None:
            metrics[f"solve_ms_p{p}"] = (value, "ms")
            result.samples[f"solve_ms_p{p}"] = len(solve_ms)
    metrics.update({
        "blocking_probability": (first.blocking_probability(), "ratio"),
        "mean_accepted_cost": (first.mean_accepted_cost(), "cost"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    result.metrics = metrics
    result.notes = {"passes": len(gates), "offered": offered,
                    "failed_share": result.failed / offered,
                    "blocked_by_reason": dict(sorted(first.blocked_by_reason.items()))}
    return result


def trace(spec: Spec, scenario, seed: int) -> Result:
    """Per-layer metrics from one traced pass, checked against a checked pass.

    The traced pass must decide exactly as the untraced one did: same
    blocking, same cost and a byte-identical event stream.
    """
    tracer = Tracer()
    try:
        gate = checked_pass(spec, scenario, seed, collect_events=True)
        with installed(tracer):
            t0 = time.perf_counter()
            m = one_pass(spec, scenario, seed, run=tracer.wrap("sim.loop", sim.run),
                         collect_events=True)
            wall = time.perf_counter() - t0
    except RUN_ERRORS as exc:
        return _aborted(spec, scenario, seed, exc)

    result = Result(m.offered_total(), gate.failed, _audit_problem(gate))
    if summary(m) != summary(gate.metrics):
        result.problems.append("traced pass decided differently from the untraced one")
    if events_digest(m) != events_digest(gate.metrics):
        result.problems.append("traced event stream differs from the untraced one")
    result.metrics = tracer.metrics(wall, m.blocked_by_reason)
    share = result.metrics["trace.self_time_share"][0]
    if not math.isclose(share, 1.0, abs_tol=0.05):
        result.problems.append(f"layer self times sum to {share:.3f} of run wall")
    result.notes = {"offered": m.offered_total(), "traced_wall_s": wall,
                    "untraced_checked_wall_s": gate.metrics.run_seconds,
                    "events_sha256": events_digest(m),
                    "failed_share": result.failed / m.offered_total()}
    return result
