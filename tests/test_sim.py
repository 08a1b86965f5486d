"""Event-driven simulation: generation, sampling, metrics, writers, replay."""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from slicebed.model import (ScenarioError, request_from_dict, request_to_dict,
                            scenario_from_dict)
from slicebed.sim import (
    NL,
    PL,
    ScenarioGen,
    Workload,
    compare,
    comparison_rows,
    config_hash,
    generate_scenario,
    parse_slice_types,
    run,
    sample_request,
    write_comparison,
    write_run_outputs,
)


# ---------------------------------------------------------------------------
# configuration objects
# ---------------------------------------------------------------------------

def test_workload_validation():
    with pytest.raises(ScenarioError):
        Workload(rate=-1, holding=1, horizon=10, seed=0)
    with pytest.raises(ScenarioError):
        Workload(rate=1, holding=0, horizon=10, seed=0)
    with pytest.raises(ScenarioError):
        Workload(rate=1, holding=math.inf, horizon=10, seed=0)
    with pytest.raises(ScenarioError):
        Workload(rate=1, holding=1, horizon=0, seed=0)
    with pytest.raises(ScenarioError):
        Workload(rate=1, holding=1, horizon=10, seed=0, holding_dist="pareto")


def test_workload_overrides_drop_none():
    doc = generate_scenario(ScenarioGen(operators=1, nodes_per_operator=(4, 4)), 3)
    scn = scenario_from_dict(doc)
    w = Workload.from_scenario(scn, **{"lambda": None, "seed": 9})
    assert w.rate == scn.workload["lambda"]     # None override ignored
    assert w.seed == 9


def test_slice_type_validation():
    doc = generate_scenario(ScenarioGen(operators=1, nodes_per_operator=(4, 4)), 3)
    bad = dict(doc, slice_types=[dict(doc["slice_types"][0], weight=0.5)])
    with pytest.raises(ScenarioError, match="sum to 1"):
        parse_slice_types(scenario_from_dict(bad))
    bad = dict(doc, slice_types=[
        dict(doc["slice_types"][0], weight=1.0, vnf_pool=[99])])
    with pytest.raises(ScenarioError, match="unknown vnf"):
        parse_slice_types(scenario_from_dict(bad))
    bad = dict(doc, slice_types=[
        dict(doc["slice_types"][0], weight=1.0, vnf_pool=[],
             chain_length=[1, 2])])
    with pytest.raises(ScenarioError, match="empty vnf pool"):
        parse_slice_types(scenario_from_dict(bad))
    # sampled requests are not validated again, so a template must not allow
    # a draw that request validation would reject
    for key, value, match in (("bandwidth", [0, 2], "bandwidth"),
                              ("max_latency", [0.0004, 5.0], "max_latency"),
                              ("max_latency", [1.0, math.inf], "max_latency")):
        bad = dict(doc, slice_types=[dict(doc["slice_types"][0], weight=1.0,
                                          **{key: value})])
        with pytest.raises(ScenarioError, match=match):
            parse_slice_types(scenario_from_dict(bad))


# ---------------------------------------------------------------------------
# scenario generation
# ---------------------------------------------------------------------------

def test_generate_scenario_deterministic():
    gen = ScenarioGen(operators=2, nodes_per_operator=(5, 7))
    a = generate_scenario(gen, 42)
    b = generate_scenario(gen, 42)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = generate_scenario(gen, 43)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_generated_scenario_loads_and_is_connected():
    for seed in (0, 1, 2, 7):
        doc = generate_scenario(ScenarioGen(operators=3,
                                            nodes_per_operator=(4, 6)), seed)
        scn = scenario_from_dict(doc)
        # undirected BFS over the directed link set
        nodes = set(scn.net.nodes)
        adj = {v: set() for v in nodes}
        for l in scn.net.links.values():
            adj[l.src].add(l.dst)
            adj[l.dst].add(l.src)
        seen, stack = {min(nodes)}, [min(nodes)]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert seen == nodes
        # trust is reflexive per construction
        for op in scn.net.operators:
            assert scn.trust.trusts(op, op)
        # capacities calibrated to whole numbers (exact float restore)
        for l in scn.net.links.values():
            assert l.capacity == int(l.capacity) and l.capacity >= 1
        for n in scn.net.nodes.values():
            if n.is_function_node:
                assert n.capacity[0] == int(n.capacity[0]) and n.capacity[0] >= 1
            else:
                assert n.capacity[0] == 0.0


def test_generate_scenario_inter_operator_edges_follow_pi():
    # pi = 0 with several operators can never connect: the generator gives up
    with pytest.raises(ScenarioError, match="connected"):
        generate_scenario(ScenarioGen(operators=3, nodes_per_operator=(4, 5),
                                      inter_op_prob=0.0), 11, max_retries=10)

    # pi = 0 with a single operator is fine and has no crossing links
    doc = generate_scenario(ScenarioGen(operators=1, nodes_per_operator=(4, 5),
                                        inter_op_prob=0.0), 11)
    op_of = {n["id"]: n["operator_id"] for n in doc["nodes"]}
    assert {op_of[v] for l in doc["links"] for v in l["endpoints"]} == {1}

    # pi = 1 with one border node per operator: exactly one link per op pair
    doc = generate_scenario(ScenarioGen(operators=3, nodes_per_operator=(4, 5),
                                        border_nodes=1, inter_op_prob=1.0), 5)
    op_of = {n["id"]: n["operator_id"] for n in doc["nodes"]}
    crossing = [tuple(sorted((op_of[l["endpoints"][0]], op_of[l["endpoints"][1]])))
                for l in doc["links"]
                if op_of[l["endpoints"][0]] != op_of[l["endpoints"][1]]]
    assert sorted(crossing) == [(1, 2), (1, 3), (2, 3)]


def test_generate_scenario_embeds_workload_and_types():
    gen = ScenarioGen(operators=2, nodes_per_operator=(4, 5),
                      rate=3.0, holding=5.0, horizon=77.0)
    doc = generate_scenario(gen, 13)
    assert doc["workload"] == {"lambda": 3.0, "holding": 5.0,
                               "horizon": 77.0, "seed": 13}
    scn = scenario_from_dict(doc)
    templates = parse_slice_types(scn)
    assert abs(sum(t.weight for t in templates) - 1.0) < 1e-9
    assert all(t.vnf_pool for t in templates)


def test_sample_request_deterministic_and_valid():
    doc = generate_scenario(ScenarioGen(operators=2, nodes_per_operator=(5, 6)), 21)
    scn = scenario_from_dict(doc)
    templates = parse_slice_types(scn)
    for draw in range(30):
        rng1 = np.random.default_rng(draw)
        rng2 = np.random.default_rng(draw)
        name1, req1 = sample_request(rng1, scn, templates, f"s{draw}", 1.0, 2.0)
        name2, req2 = sample_request(rng2, scn, templates, f"s{draw}", 1.0, 2.0)
        assert name1 == name2
        assert req1 == req2
        if req1 is not None:
            assert req1.id == f"s{draw}"
            for svc in req1.services:
                assert svc.source != svc.sink
                assert svc.bandwidth >= 1


@pytest.mark.parametrize("mix", [
    {},
    {"chain_length": [1, 1], "services": [1, 1]},
    {"services": [2, 3], "deploy_fraction": 1.0, "deny_fraction": 0.0},
], ids=["default", "one_vnf", "coupled"])
def test_sampled_request_equals_validated_round_trip(mix):
    """sample_request builds its request without validation; the request it
    builds is the one that validating its dict form gives."""
    gen = ScenarioGen(operators=3, rho=0.95)
    doc = generate_scenario(gen, 1)
    doc = generate_scenario(gen, 1, [{**t, **mix} for t in doc["slice_types"]])
    scn = scenario_from_dict(doc)
    templates = parse_slice_types(scn)
    rng = np.random.default_rng(2026)
    checked = 0
    for draw in range(720):
        _, req = sample_request(rng, scn, templates, f"s{draw}", 0.25 * draw,
                                float(rng.exponential(10.0)))
        if req is not None:
            assert request_from_dict(request_to_dict(req), scn) == req
            checked += 1
    assert checked >= 700


# ---------------------------------------------------------------------------
# simulation runs
# ---------------------------------------------------------------------------

def _mminf_scenario(rate=5.0, holding=1.0, horizon=100.0):
    """Two huge nodes, huge link, chainless slices: nothing ever blocks."""
    return scenario_from_dict({
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
        "workload": {"lambda": rate, "holding": holding, "horizon": horizon,
                     "seed": 1},
        "pricing": {"mode": "static"},
    })


def test_zero_rate_run_is_empty():
    scn = _mminf_scenario()
    m = run(scn, Workload(rate=0.0, holding=1.0, horizon=50.0, seed=3))
    assert m.offered_total() == 0
    assert m.blocked_total() == 0
    assert m.integral_active == 0.0
    assert m.blocking_probability() == 0.0
    assert m.mean_accepted_cost() == 0.0
    # sampling grid still covers the horizon
    assert m.time_series[-1]["t"] == pytest.approx(50.0)
    assert all(row["active_slices"] == 0 for row in m.time_series)


def test_all_accepted_when_capacity_huge():
    scn = _mminf_scenario()
    w = Workload(rate=4.0, holding=1.0, horizon=50.0, seed=11)
    m = run(scn, w, engine=PL, check_conservation=True)
    assert m.offered_total() > 100
    assert m.blocked_total() == 0
    assert m.accepted_total() == m.offered_total()
    assert m.blocked_by_reason == {}


def test_little_law_sanity():
    """mean concurrent ~= lambda * holding on a blocking-free run."""
    scn = _mminf_scenario()
    w = Workload(rate=4.0, holding=0.5, horizon=400.0, seed=2)
    m = run(scn, w)
    assert m.blocked_total() == 0
    assert m.mean_concurrent() == pytest.approx(2.0, rel=0.15)


def test_integral_capped_at_horizon():
    """Slices outliving the horizon contribute nothing past it."""
    scn = _mminf_scenario()
    w = Workload(rate=5.0, holding=1000.0, horizon=2.0, seed=8)
    m = run(scn, w, check_conservation=True)
    assert m.offered_total() >= 1
    # every slice is active to the end: integral = sum_i (horizon - t_i)
    # which is strictly less than offered * horizon
    assert 0.0 < m.integral_active < m.offered_total() * w.horizon
    # departures after the horizon must not inflate the integral (regression:
    # a stale last_t once double-counted the final span per drained event)
    assert m.mean_concurrent() <= m.offered_total()


def test_deterministic_holding_mode():
    scn = _mminf_scenario()
    w = Workload(rate=3.0, holding=2.0, horizon=30.0, seed=4,
                 holding_dist="deterministic")
    m = run(scn, w, collect_events=True)
    for ev in m.events:
        if ev["kind"] == "arrival" and ev["outcome"] == "accepted":
            assert ev["departs"] - ev["t"] == pytest.approx(2.0)


def test_zero_node_capacity_blocks_everything():
    """Chains need nodes; zero node capacity everywhere forces 100% blocking."""
    doc = generate_scenario(
        ScenarioGen(operators=2, nodes_per_operator=(4, 5)), 17,
        slice_type_docs=[{"name": "chained", "weight": 1.0,
                          "bandwidth": [1, 2], "max_latency": [50.0, 80.0],
                          "chain_length": [1, 2], "deploy_fraction": 1.0}])
    for n in doc["nodes"]:
        n["capacity"] = [0.0]
    scn = scenario_from_dict(doc)
    m = run(scn, Workload(rate=3.0, holding=2.0, horizon=40.0, seed=5))
    assert m.offered_total() > 50
    assert m.blocking_probability() == 1.0
    # path engine: the capacity prefilter empties every candidate list
    assert set(m.blocked_by_reason) <= {
        "no_candidate_path", "infeasible", "unreachable_endpoints"}

    m_nl = run(scn, Workload(rate=3.0, holding=2.0, horizon=15.0, seed=5),
               engine=NL)
    assert m_nl.blocking_probability() == 1.0
    assert set(m_nl.blocked_by_reason) <= {"infeasible", "unreachable_endpoints"}


def test_unknown_engine_rejected():
    scn = _mminf_scenario()
    with pytest.raises(ScenarioError, match="engine"):
        run(scn, Workload(rate=1, holding=1, horizon=5, seed=0), engine="magic")


def test_pl_with_shared_vnf_accounting_rejected():
    """pl solves with per-occurrence footprints; shared accounting would
    reserve less than the solve checked."""
    scn = _mminf_scenario()
    w = Workload(rate=1, holding=1, horizon=5, seed=0)
    with pytest.raises(ScenarioError, match="shared_vnf_per_slice"):
        run(scn, w, engine=PL, shared_vnf_per_slice=True)
    assert run(scn, w, engine=NL, shared_vnf_per_slice=True).offered_total() > 0


def test_common_random_numbers_across_engines():
    """Both engines see the identical arrival/content trace."""
    doc = generate_scenario(ScenarioGen(operators=2, nodes_per_operator=(4, 5),
                                        rate=2.0, holding=3.0, horizon=40.0), 23)
    scn = scenario_from_dict(doc)
    w = Workload.from_scenario(scn)
    m_nl = run(scn, w, engine=NL)
    m_pl = run(scn, w, engine=PL, k=64)
    assert m_nl.offered == m_pl.offered
    offered_series = [(r["t"], r["offered"]) for r in m_nl.time_series]
    assert offered_series == [(r["t"], r["offered"]) for r in m_pl.time_series]


def test_rerun_is_bitwise_identical():
    scn = _mminf_scenario()
    w = Workload(rate=3.0, holding=1.0, horizon=60.0, seed=9)
    a = run(scn, w, collect_events=True)
    b = run(scn, w, collect_events=True)
    assert a.offered == b.offered
    assert a.accepted_cost == b.accepted_cost
    assert a.integral_active == b.integral_active
    assert a.time_series == b.time_series
    assert a.events == b.events


def test_arrival_counts_match_poisson_dispersion():
    """Index-of-dispersion test over 100 seeds at the 1% level.

    For Poisson arrivals, sum (N_i - mean)^2 / mean follows chi^2 with
    (n-1) degrees of freedom. Deterministic given the fixed seed list.
    """
    from scipy.stats import chi2

    scn = _mminf_scenario()
    lam, horizon = 3.0, 30.0
    counts = []
    for seed in range(100):
        m = run(scn, Workload(rate=lam, holding=0.5, horizon=horizon, seed=seed))
        counts.append(m.offered_total())
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean()
    assert mean == pytest.approx(lam * horizon, rel=0.15)
    stat = ((counts - mean) ** 2).sum() / mean
    lo, hi = chi2.ppf(0.005, 99), chi2.ppf(0.995, 99)
    assert lo < stat < hi, f"dispersion {stat:.1f} outside [{lo:.1f}, {hi:.1f}]"


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def test_write_run_outputs_layout(tmp_path):
    scn = _mminf_scenario()
    w = Workload(rate=2.0, holding=1.0, horizon=20.0, seed=6)
    m = run(scn, w, collect_events=True)
    config = {"engine": "pl", "seed": 6, "lambda": 2.0}
    d = tmp_path / "run1"
    write_run_outputs(d, m, config)
    assert sorted(p.name for p in d.iterdir()) == [
        "events.jsonl", "metrics.csv", "summary.json", "timing.json"]

    lines = (d / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,slice_type,value"
    metrics_named = {l.split(",")[0] for l in lines[1:]}
    assert {"offered", "blocked", "accepted", "blocking_probability",
            "mean_accepted_cost", "mean_concurrent_slices"} <= metrics_named

    summary = json.loads((d / "summary.json").read_text())
    assert summary["config"] == config
    assert summary["offered"] == m.offered_total()
    assert "plain" in summary["per_type"]
    assert summary["time_series"] == m.time_series

    for line in (d / "events.jsonl").read_text().splitlines():
        json.loads(line)

    timing = json.loads((d / "timing.json").read_text())
    assert timing["solve_time"]["count"] == m.offered_total()


def test_outputs_bitwise_reproducible(tmp_path):
    """Everything except timing.json is identical across reruns."""
    scn = _mminf_scenario()
    w = Workload(rate=2.0, holding=1.0, horizon=30.0, seed=12)
    config = {"engine": "pl", "seed": 12}
    dirs = []
    for name in ("a", "b"):
        m = run(scn, w, collect_events=True)
        d = tmp_path / name
        write_run_outputs(d, m, config)
        dirs.append(d)
    for fname in ("metrics.csv", "summary.json", "events.jsonl"):
        assert (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes(), fname


def test_config_hash_properties():
    h = config_hash({"engine": "pl", "seed": 1})
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    # insertion order must not matter, values must
    assert config_hash({"seed": 1, "engine": "pl"}) == h
    assert config_hash({"engine": "pl", "seed": 2}) != h


def test_compare_requires_two_configs():
    doc = generate_scenario(ScenarioGen(operators=1, nodes_per_operator=(4, 4)), 2)
    with pytest.raises(ScenarioError, match="at least 2"):
        compare(doc, [{"engine": "pl"}])


def test_compare_identical_configs_agree(tmp_path, monkeypatch):
    monkeypatch.setenv("SLICEBED_THREADS", "1")   # exercise sequential path
    doc = generate_scenario(ScenarioGen(operators=2, nodes_per_operator=(4, 5),
                                        rate=1.5, holding=2.0, horizon=30.0), 31)
    results = compare(doc, [{"engine": "pl", "label": "one"},
                            {"engine": "pl", "label": "two"}],
                      out_dir=tmp_path)
    (l1, _, m1, d1), (l2, _, m2, d2) = results
    assert (l1, l2) == ("one", "two")
    assert m1.offered == m2.offered
    assert m1.blocked == m2.blocked
    assert m1.accepted_cost == m2.accepted_cost
    # run dirs differ (config includes the label) but metrics agree bytewise
    assert d1 != d2
    assert (Path(d1) / "metrics.csv").read_bytes() == \
        (Path(d2) / "metrics.csv").read_bytes()


def test_compare_parallel_matches_sequential():
    doc = generate_scenario(ScenarioGen(operators=2, nodes_per_operator=(4, 5),
                                        rate=1.5, holding=2.0, horizon=25.0), 37)
    configs = [{"engine": "pl", "k": 4}, {"engine": "pl", "k": 8}]
    seq = compare(doc, configs, max_workers=1)
    par = compare(doc, configs, max_workers=2)
    for (_, _, a, _), (_, _, b, _) in zip(seq, par):
        assert a.offered == b.offered
        assert a.accepted_cost == b.accepted_cost
        assert a.integral_active == b.integral_active


def test_comparison_rows_and_csv(tmp_path):
    doc = generate_scenario(ScenarioGen(operators=2, nodes_per_operator=(4, 5),
                                        rate=1.5, holding=2.0, horizon=25.0), 41)
    results = compare(doc, [{"engine": "pl", "label": "A"},
                            {"engine": "pl", "label": "B", "k": 2}],
                      max_workers=1)
    rows = comparison_rows(results)
    labels = {r[0] for r in rows}
    assert {"A", "B", "A-minus-B"} <= labels
    deltas = [r for r in rows if r[1] == "blocking_probability_delta"]
    assert len(deltas) == 1 and deltas[0][0] == "A-minus-B"

    out = tmp_path / "cmp.csv"
    write_comparison(out, results)
    lines = out.read_text().splitlines()
    assert lines[0] == "config,metric,slice_type,value"
    assert len(lines) == len(rows) + 1
