"""End-to-end acceptance battery.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(written past pytest's capture so the lines always appear in the run log):

  1 solver equivalence with exhaustive enumeration on >= 500 models
  2 exact engine equals brute force on >= 100 tiny instances
  3 path engine at saturation k' reproduces the exact engine
  4 path-engine cost and blocking are monotone in k'
  5 path engine is at least 2x faster than the exact engine at medium scale
  6 load-aware pricing lowers blocking under scarcity (paired, one-sided, 5%)
  7 every accepted embedding passes the independent checker
  8 M/M/infinity calibration (Little's law 10%) + per-event conservation
  9 byte-identical outputs across repeated runs
"""
import json
import random
import sys
import time

import numpy as np
import pytest

from slicebed.embed_nl import solve_nl
from slicebed.embed_pl import solve_pl
from slicebed.expand import UnreachableEndpoints, build_expanded
from slicebed.milp import branch_and_bound
from slicebed.model import (
    Blocked,
    Embedding,
    ResidualState,
    allowed_operators,
    check_embedding,
    load_request,
    load_scenario,
    scenario_from_dict,
)
from slicebed.pricing import KLEINROCK, PriceSnapshot, PricingPolicy
from slicebed.sim import (
    NL,
    PL,
    ScenarioGen,
    Workload,
    generate_scenario,
    run,
    sample_request,
    write_run_outputs,
)

from oracles import (
    brute_force_embedding,
    dfs_all_expanded_paths,
    enumerate_oracle,
    medium_instance,
    medium_template,
    random_ilp_model,
    tiny_request,
    tiny_scenario,
)


@pytest.fixture(scope="module")
def report(request):
    """One visible PASS/FAIL line per criterion, past pytest's fd capture."""
    tr = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(num: int, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        if tr is not None:
            tr.ensure_newline()
            tr.write_line(line)
        else:  # plain python run
            print(line, file=sys.__stdout__, flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _report


def _snap(scn, state=None, policy=None):
    return PriceSnapshot(policy or PricingPolicy(), scn.net,
                         state or ResidualState(scn.net))


# ---------------------------------------------------------------------------
# shared instance batches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_batch():
    """>= 100 tiny instances (<= 4 nodes, 2 vnf types, chains <= 2) with the
    exact-engine result and the brute-force optimum precomputed."""
    rng = random.Random(20250823)
    batch = []
    while len(batch) < 110:
        scn = tiny_scenario(rng, max_nodes=4)
        req = tiny_request(rng, scn, max_chain=2)
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        oracle = brute_force_embedding(scn, req, snap, state)
        nl = solve_nl(scn.net, scn.trust, state, req, snap)
        batch.append((scn, req, snap, oracle, nl))
    return batch


@pytest.fixture(scope="module")
def medium_batch():
    """50 medium instances (~30 nodes, 3 operators, chains of length 3)."""
    batch, seed = [], 0
    while len(batch) < 50:
        scn, req = medium_instance(seed)
        seed += 1
        if req is None:
            continue
        batch.append((scn, req))
    return batch


@pytest.fixture(scope="module")
def coupled_batch():
    """50 medium instances with 2-3 service chains each, evaluated against a
    network pre-loaded with 8 admitted background slices.  The load plus the
    coupling between sibling chains make the candidate budget k' bind, so
    criterion 4 measures real variation instead of a flat series."""
    batch, seed = [], 0
    while len(batch) < 50:
        idx = seed
        scn, req = medium_instance(seed, services=(2, 3))
        seed += 1
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        tpl = medium_template(scn)
        rng = np.random.default_rng(10_000 + idx)
        admitted = 0
        for b in range(120):
            _, bg = sample_request(rng, scn, [tpl], f"bg{idx}-{b}", 0.0, 1.0)
            if bg is None:
                continue
            out = solve_pl(scn.net, scn.trust, state, bg, snap, 8)
            if isinstance(out, Embedding):
                state.reserve(bg, out)
                admitted += 1
            if admitted >= 8:
                break
        batch.append((scn, req, state, snap))
    return batch


# ---------------------------------------------------------------------------
# 1. branch and bound == exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_1_solver_equivalence(report):
    rng = random.Random(11)
    t0 = time.perf_counter()
    models = [random_ilp_model(rng, max_binaries=12) for _ in range(480)]
    # a slice of genuinely large instances, still within the oracle's range
    from slicebed.milp import BINARY, IlpModel
    for _ in range(20):
        n = rng.randint(13, 18)
        big = IlpModel()
        for j in range(n):
            big.add_variable(f"b{j}", BINARY, obj=rng.randint(-5, 5))
        for i in range(rng.randint(2, 6)):
            coeffs = {j: rng.randint(-4, 4) for j in range(n)
                      if rng.random() < 0.5}
            if coeffs:
                big.add_constraint(coeffs, rng.choice(["<=", ">=", "="]),
                                   rng.randint(-3, 8), name=f"r{i}")
        models.append(big)

    mismatches = 0
    feasible = 0
    for model in models:
        ref = enumerate_oracle(model)
        got = branch_and_bound(model)
        if got.status != ref.status:
            mismatches += 1
            continue
        if ref.status == "optimal":
            feasible += 1
            if abs(got.objective - ref.objective) > 1e-6:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and len(models) >= 500 and elapsed < 60.0
    report(1, ok,
            f"{len(models)} models ({feasible} feasible), "
            f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 2. exact engine == brute force on tiny instances
# ---------------------------------------------------------------------------

def test_criterion_2_exact_engine_optimality(tiny_batch, report):
    mismatches = 0
    solved = blocked = 0
    for scn, req, snap, oracle, nl in tiny_batch:
        if oracle is None:
            blocked += 1
            if not isinstance(nl, Blocked):
                mismatches += 1
        else:
            solved += 1
            if isinstance(nl, Blocked) or abs(nl.total_cost - oracle) > 1e-6:
                mismatches += 1
    ok = mismatches == 0 and (solved + blocked) >= 100
    report(2, ok,
            f"{solved + blocked} instances ({solved} embedded, {blocked} "
            f"blocked), {mismatches} disagreements with brute force")


# ---------------------------------------------------------------------------
# 3. path engine at saturation == exact engine
# ---------------------------------------------------------------------------

def test_criterion_3_saturation_equivalence(tiny_batch, report):
    mismatches = 0
    compared = 0
    for scn, req, snap, oracle, nl in tiny_batch:
        # k' = total simple-path count of the expanded networks
        try:
            allowed = allowed_operators(req, scn.trust)
            total_paths = 0
            for svc in req.services:
                try:
                    exp = build_expanded(scn.net, svc, req, allowed, snap)
                    total_paths += len(dfs_all_expanded_paths(exp))
                except UnreachableEndpoints:
                    pass
        except Exception:
            total_paths = 0
        k = max(1, total_paths)
        state = ResidualState(scn.net)
        pl = solve_pl(scn.net, scn.trust, state, req, snap, k)
        compared += 1
        if isinstance(nl, Embedding):
            if isinstance(pl, Blocked) or abs(pl.total_cost - nl.total_cost) > 1e-6:
                mismatches += 1
        else:
            if not isinstance(pl, Blocked):
                mismatches += 1
    ok = mismatches == 0 and compared >= 100
    report(3, ok,
            f"{compared} instances at saturation k', "
            f"{mismatches} cost/feasibility mismatches")


# ---------------------------------------------------------------------------
# 4. cost and blocking monotone in k'
# ---------------------------------------------------------------------------

def test_criterion_4_k_monotonicity(coupled_batch, report):
    ks = (1, 2, 4, 8)
    costs = {k: [] for k in ks}          # instances feasible at k' = 1
    blocked = {k: 0 for k in ks}
    per_instance_violations = 0
    for scn, req, state, snap in coupled_batch:
        results = {}
        for k in ks:
            out = solve_pl(scn.net, scn.trust, state, req, snap, k)
            results[k] = out
            if isinstance(out, Blocked):
                blocked[k] += 1
        # nested candidate sets make each instance individually monotone
        prev = None
        for k in ks:
            if isinstance(results[k], Blocked):
                if prev is not None:
                    per_instance_violations += 1
                continue
            c = results[k].total_cost
            if prev is not None and c > prev + 1e-6:
                per_instance_violations += 1
            prev = c
        # mean cost over a fixed instance set: those feasible at k' = 1
        if isinstance(results[1], Embedding):
            for k in ks:
                costs[k].append(results[k].total_cost)

    mean_cost = [sum(costs[k]) / len(costs[k]) for k in ks]
    cost_monotone = all(a >= b - 1e-9 for a, b in zip(mean_cost, mean_cost[1:]))
    block_monotone = all(blocked[a] >= blocked[b]
                         for a, b in zip(ks, ks[1:]))
    # the batch must actually exercise the budget, not pass vacuously
    nontrivial = blocked[1] > blocked[8] and len(costs[1]) >= 3
    ok = (cost_monotone and block_monotone and nontrivial
          and per_instance_violations == 0)
    report(4, ok,
           f"{len(coupled_batch)} loaded instances; mean cost over "
           f"{len(costs[1])} k'=1-feasible: {[round(c, 2) for c in mean_cost]}; "
           f"blocked per k': {[blocked[k] for k in ks]}; "
           f"{per_instance_violations} per-instance violations")


# ---------------------------------------------------------------------------
# 5. runtime ordering
# ---------------------------------------------------------------------------

def test_criterion_5_runtime_ordering(medium_batch, report):
    t_start = time.perf_counter()
    nl_times, pl_times = [], []
    disagreements = 0
    for scn, req in medium_batch:
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        t0 = time.perf_counter()
        nl = solve_nl(scn.net, scn.trust, state, req, snap)
        nl_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        pl = solve_pl(scn.net, scn.trust, state, req, snap, 8)
        pl_times.append(time.perf_counter() - t0)
        # sanity: the heuristic never beats the exact optimum
        if isinstance(nl, Embedding) and isinstance(pl, Embedding):
            if pl.total_cost < nl.total_cost - 1e-6:
                disagreements += 1
    mean_nl = sum(nl_times) / len(nl_times)
    mean_pl = sum(pl_times) / len(pl_times)
    elapsed = time.perf_counter() - t_start
    ok = (mean_pl <= 0.5 * mean_nl and elapsed < 600.0
          and disagreements == 0)
    report(5, ok,
            f"mean exact {mean_nl * 1e3:.0f}ms vs path {mean_pl * 1e3:.1f}ms "
            f"(ratio {mean_nl / max(mean_pl, 1e-12):.1f}x, need >= 2x), "
            f"batch {elapsed:.0f}s (< 600s)")


# ---------------------------------------------------------------------------
# 6. load-aware pricing lowers blocking under scarcity
# ---------------------------------------------------------------------------

def test_criterion_6_pricing_benefit(report):
    t_start = time.perf_counter()
    doc = generate_scenario(
        ScenarioGen(operators=3, nodes_per_operator=(6, 8), rho=0.95,
                    rate=2.0, holding=10.0, horizon=150.0), 424)
    scn = scenario_from_dict(doc)
    static_b, dynamic_b = [], []
    for seed in range(20):
        w = Workload.from_scenario(scn, seed=seed)
        m_s = run(scn, w, engine=PL, pricing=PricingPolicy(mode="static"))
        m_d = run(scn, w, engine=PL,
                  pricing=PricingPolicy(mode=KLEINROCK, cap=100.0))
        # identical arrival trace per seed (common random numbers)
        assert m_s.offered == m_d.offered
        static_b.append(m_s.blocking_probability())
        dynamic_b.append(m_d.blocking_probability())

    from scipy.stats import ttest_rel
    res = ttest_rel(static_b, dynamic_b, alternative="greater")
    mean_s = sum(static_b) / len(static_b)
    mean_d = sum(dynamic_b) / len(dynamic_b)
    elapsed = time.perf_counter() - t_start
    ok = mean_d < mean_s and res.pvalue < 0.05 and elapsed < 900.0
    report(6, ok,
            f"blocking static {mean_s:.4f} vs load-aware {mean_d:.4f} over "
            f"{len(static_b)} paired seeds, one-sided p {res.pvalue:.2e} "
            f"(< 0.05), {elapsed:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# 7. checker soundness on every accepted embedding
# ---------------------------------------------------------------------------

def test_criterion_7_checker_soundness(tiny_batch, medium_batch, report):
    checked = 0
    violations = 0

    def audit(scn, req, state, emb, shared=False):
        nonlocal checked, violations
        checked += 1
        if check_embedding(scn.net, scn.trust, state, req, emb, shared):
            violations += 1

    # tiny batch, both engines, static and load-aware prices
    for scn, req, snap, oracle, nl in tiny_batch:
        state = ResidualState(scn.net)
        if isinstance(nl, Embedding):
            audit(scn, req, state, nl)
        pl = solve_pl(scn.net, scn.trust, state, req, snap, 8)
        if isinstance(pl, Embedding):
            audit(scn, req, state, pl)
        dyn = _snap(scn, state, PricingPolicy(mode=KLEINROCK))
        nl_dyn = solve_nl(scn.net, scn.trust, state, req, dyn)
        if isinstance(nl_dyn, Embedding):
            audit(scn, req, state, nl_dyn)

    # medium batch, both engines, plus shared-vnf accounting
    for scn, req in medium_batch[:15]:
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        for out, shared in (
                (solve_pl(scn.net, scn.trust, state, req, snap, 8), False),
                (solve_nl(scn.net, scn.trust, state, req, snap,
                          shared_vnf_per_slice=True), True)):
            if isinstance(out, Embedding):
                audit(scn, req, state, out, shared)

    # demo files
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    snap = _snap(scn, state)
    for out in (solve_nl(scn.net, scn.trust, state, req, snap),
                solve_pl(scn.net, scn.trust, state, req, snap, 8)):
        assert isinstance(out, Embedding)
        audit(scn, req, state, out)

    ok = violations == 0 and checked >= 150
    report(7, ok,
            f"{checked} accepted embeddings audited, {violations} checker "
            f"violations (zero tolerance)")


# ---------------------------------------------------------------------------
# 8. simulator calibration
# ---------------------------------------------------------------------------

def test_criterion_8_mminf_calibration(report):
    # no-blocking scenario: huge capacities, chainless slices
    scn = scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": 1}],
        "nodes": [
            {"id": 0, "operator_id": 1, "is_function_node": True,
             "capacity": [1e9], "unit_price": [1.0]},
            {"id": 1, "operator_id": 1, "is_function_node": True,
             "capacity": [1e9], "unit_price": [1.0]},
        ],
        "links": [{"endpoints": [0, 1], "capacity": 1e9, "prop_delay": 1.0,
                   "unit_price": 1.0}],
        "trust": {"1": [1]},
        "vnfs": [{"id": 0, "name": "f", "proc_delay": 0.1, "demand": [1.0]}],
        "slice_types": [{"name": "plain", "weight": 1.0, "bandwidth": [1, 1],
                         "max_latency": [50.0, 50.0], "chain_length": [0, 0],
                         "vnf_pool": []}],
        "workload": {"lambda": 5.0, "holding": 1.0, "horizon": 2000.0,
                     "seed": 1},
        "pricing": {"mode": "static"},
    })
    # lambda * tau = 5, T = 2000 * tau; conservation verified at every event
    w = Workload(rate=5.0, holding=1.0, horizon=2000.0, seed=1)
    m = run(scn, w, engine=PL, check_conservation=True)
    mean_active = m.mean_concurrent()
    rel_err = abs(mean_active - 5.0) / 5.0
    ok = m.blocked_total() == 0 and rel_err <= 0.10
    report(8, ok,
            f"mean concurrent {mean_active:.3f} vs 5 "
            f"({100 * rel_err:.1f}% error, <= 10%), "
            f"{m.offered_total()} arrivals, conservation checked every event")


# ---------------------------------------------------------------------------
# 9. determinism of outputs
# ---------------------------------------------------------------------------

def test_criterion_9_byte_identical_outputs(tmp_path, report):
    doc = generate_scenario(ScenarioGen(operators=2, nodes_per_operator=(5, 6),
                                        rate=2.0, holding=3.0, horizon=60.0), 77)
    scn = scenario_from_dict(doc)
    config = {"engine": "pl", "seed": 5, "horizon": 60.0}
    digests = []
    for name in ("first", "second"):
        w = Workload.from_scenario(scn, seed=5)
        m = run(scn, w, engine=PL, collect_events=True)
        d = tmp_path / name
        write_run_outputs(d, m, config)
        # timing.json is the documented wall-clock quarantine; everything
        # else must be byte-stable
        digests.append(tuple((d / f).read_bytes()
                             for f in ("metrics.csv", "summary.json",
                                       "events.jsonl")))
    ok = digests[0] == digests[1]
    detail = ("metrics.csv + summary.json + events.jsonl identical across "
              "reruns (timing.json excluded by design)")
    report(9, ok, detail if ok else "outputs differ across reruns")
