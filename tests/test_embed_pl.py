"""Candidate-path embedding: saturation equivalence, monotonicity, coupling."""
import random
from dataclasses import replace

import numpy as np
import pytest

from slicebed.embed_nl import solve_nl
from slicebed.embed_pl import build_pl, forced_optimum, solve_pl, solve_pl_detailed
from slicebed.milp import EPS_OBJ, branch_and_bound
from slicebed.model import (
    Blocked,
    Embedding,
    ResidualState,
    check_embedding,
    load_request,
    load_scenario,
    request_from_dict,
    scenario_from_dict,
)
from slicebed.paths import CandidatePath, generate_candidates
from slicebed.pricing import PriceSnapshot, PricingPolicy

from oracles import brute_force_embedding, enumerate_oracle, tiny_request, tiny_scenario

BIG_K = 5000        # larger than any tiny instance's path count


def _snap(scn, state=None):
    return PriceSnapshot(PricingPolicy(), scn.net,
                         state or ResidualState(scn.net))


def test_single_candidate_is_chosen():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    snap = _snap(scn, state)
    cands = generate_candidates(scn.net, scn.trust, state, req, 1, snap)
    assert all(len(v) == 1 for v in cands.values())
    emb = solve_pl(scn.net, scn.trust, state, req, snap, 1)
    assert isinstance(emb, Embedding)
    assert emb.total_cost == pytest.approx(
        sum(v[0].cost for v in cands.values()))


def test_missing_candidates_block():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    cands = {s.id: [] for s in req.services}
    out = build_pl(cands, state, req)
    assert isinstance(out, Blocked)
    assert out.reason == "no_candidate_path"


def test_capacity_coupling_forces_disjoint_choice():
    """Two services whose cheapest paths share a link that fits only one."""
    scn = scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": 1}],
        "nodes": [{"id": i, "operator_id": 1, "is_function_node": False,
                   "capacity": [0.0], "unit_price": [0.0]} for i in range(4)],
        "links": [
            # cheap shared middle link 0->1, plus an expensive bypass 0->2->1
            {"endpoints": [0, 1], "capacity": 1.0, "prop_delay": 1.0,
             "unit_price": 1.0},
            {"endpoints": [0, 2], "capacity": 10.0, "prop_delay": 1.0,
             "unit_price": 2.0},
            {"endpoints": [2, 1], "capacity": 10.0, "prop_delay": 1.0,
             "unit_price": 2.0},
            {"endpoints": [1, 3], "capacity": 10.0, "prop_delay": 1.0,
             "unit_price": 1.0},
        ],
        "trust": {"1": [1]},
        "vnfs": [],
    })
    req = request_from_dict({
        "id": "r", "origin_operator": 1,
        "services": [
            {"id": 0, "source": 0, "sink": 1, "vnf_sequence": [],
             "bandwidth": 1.0, "max_latency": 99.0},
            {"id": 1, "source": 0, "sink": 3, "vnf_sequence": [],
             "bandwidth": 1.0, "max_latency": 99.0},
        ],
        "vnf_catalog": [],
    }, scn)
    state = ResidualState(scn.net)
    snap = _snap(scn, state)
    emb = solve_pl(scn.net, scn.trust, state, req, snap, 8)
    assert isinstance(emb, Embedding)
    # only one service can ride 0->1 directly (capacity 1); optimum reroutes
    # exactly one of them over the bypass: 1 + (2+2+1) = 6 or (1+1) + 4 = 6
    assert emb.total_cost == pytest.approx(6.0)
    assert check_embedding(scn.net, scn.trust, state, req, emb) == []


def test_all_candidate_combinations_infeasible_blocks():
    """Candidates exist per service but every pairing violates capacity."""
    scn = scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": 1}],
        "nodes": [{"id": i, "operator_id": 1, "is_function_node": False,
                   "capacity": [0.0], "unit_price": [0.0]} for i in range(2)],
        "links": [{"endpoints": [0, 1], "capacity": 1.0, "prop_delay": 1.0,
                   "unit_price": 1.0}],
        "trust": {"1": [1]},
        "vnfs": [],
    })
    req = request_from_dict({
        "id": "r", "origin_operator": 1,
        "services": [
            {"id": 0, "source": 0, "sink": 1, "vnf_sequence": [],
             "bandwidth": 1.0, "max_latency": 99.0},
            {"id": 1, "source": 0, "sink": 1, "vnf_sequence": [],
             "bandwidth": 1.0, "max_latency": 99.0},
        ],
        "vnf_catalog": [],
    }, scn)
    state = ResidualState(scn.net)
    out = solve_pl(scn.net, scn.trust, state, req, _snap(scn, state), 8)
    assert isinstance(out, Blocked) and out.reason == "infeasible"


def test_saturated_k_matches_exact_solver():
    """With every simple path as a candidate, path choice equals the exact
    model: same cost when feasible, blocked exactly together."""
    rng = random.Random(90210)
    equal = blocked = 0
    while equal < 50 or blocked < 10:
        scn = tiny_scenario(rng)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        nl = solve_nl(scn.net, scn.trust, state, req, snap)
        pl = solve_pl(scn.net, scn.trust, state, req, snap, BIG_K)
        if isinstance(nl, Embedding):
            assert isinstance(pl, Embedding), \
                f"exact cost {nl.total_cost}, path choice blocked: {pl}"
            assert pl.total_cost == pytest.approx(nl.total_cost, abs=1e-6)
            assert check_embedding(scn.net, scn.trust, state, req, pl) == []
            equal += 1
        else:
            assert isinstance(pl, Blocked)
            blocked += 1


def test_model_matches_enumeration_oracle():
    rng = random.Random(1999)
    checked = 0
    for _ in range(150):
        scn = tiny_scenario(rng)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        cands = generate_candidates(scn.net, scn.trust, state, req, 6, snap)
        built = build_pl(cands, state, req)
        if isinstance(built, Blocked):
            continue
        model, _ = built
        if model.num_binaries > 20:
            continue
        ref = enumerate_oracle(model)
        got = branch_and_bound(model)
        assert got.status == ref.status
        if ref.status == "optimal":
            assert got.objective == pytest.approx(ref.objective, abs=1e-6)
        checked += 1
    assert checked >= 60


def test_cost_nonincreasing_in_k():
    """More candidates never hurt: cost weakly decreases as k grows, and the
    exact solver lower-bounds every k."""
    rng = random.Random(313)
    series_checked = 0
    while series_checked < 25:
        scn = tiny_scenario(rng, max_nodes=5)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        nl = solve_nl(scn.net, scn.trust, state, req, snap)
        prev = None
        feasible_seen = False
        for k in (1, 2, 4, 8, BIG_K):
            out = solve_pl(scn.net, scn.trust, state, req, snap, k)
            if isinstance(out, Blocked):
                # nested candidate lists: once feasible, larger k stays feasible
                assert not feasible_seen, f"k={k} blocked after smaller k embedded"
                continue
            feasible_seen = True
            if prev is not None:
                assert out.total_cost <= prev + 1e-6
            prev = out.total_cost
            if isinstance(nl, Embedding):
                assert out.total_cost >= nl.total_cost - 1e-6
        if isinstance(nl, Embedding):
            assert feasible_seen         # saturation k' must reach the optimum
            assert prev == pytest.approx(nl.total_cost, abs=1e-6)
        if feasible_seen:
            series_checked += 1


def test_model_size_bounded_by_services_times_k():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    snap = _snap(scn, state)
    for k in (1, 2, 4, 8):
        cands = generate_candidates(scn.net, scn.trust, state, req, k, snap)
        built = build_pl(cands, state, req)
        model, meta = built
        assert model.num_binaries <= len(req.services) * k
        assert model.num_binaries == sum(len(v) for v in cands.values())


def test_total_cost_is_sum_of_chosen_candidates():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    snap = _snap(scn, state)
    emb, sol = solve_pl_detailed(scn.net, scn.trust, state, req, snap, 8)
    assert isinstance(emb, Embedding)
    assert emb.total_cost == pytest.approx(sum(s.cost for s in emb.services))
    assert sol.status == "optimal"
    assert emb.total_cost == pytest.approx(sol.objective, abs=1e-9)


def test_candidate_reuse_gives_identical_result():
    scn = load_scenario("scenarios/demo_3op.json")
    req = load_request("scenarios/demo_request.json", scn)
    state = ResidualState(scn.net)
    snap = _snap(scn, state)
    cands = generate_candidates(scn.net, scn.trust, state, req, 8, snap)
    a, _ = solve_pl_detailed(scn.net, scn.trust, state, req, snap, 8)
    b, _ = solve_pl_detailed(scn.net, scn.trust, state, req, snap, 8,
                             candidates=cands)
    assert a == b


def test_matches_brute_force_when_saturated():
    rng = random.Random(777001)
    agree = 0
    for _ in range(80):
        scn = tiny_scenario(rng)
        req = tiny_request(rng, scn)
        if req is None:
            continue
        state = ResidualState(scn.net)
        snap = _snap(scn, state)
        ref = brute_force_embedding(scn, req, snap, state)
        got = solve_pl(scn.net, scn.trust, state, req, snap, BIG_K)
        if ref is None:
            assert isinstance(got, Blocked)
        else:
            assert isinstance(got, Embedding)
            assert got.total_cost == pytest.approx(ref, abs=1e-6)
            agree += 1
    assert agree >= 30


def _candidate_sets(rng, mode):
    """A slice of 1-3 services over a 3-node, 3-link substrate, random
    candidate lists cheapest first and a ledger with tight residuals.

    Costs are small integers, so exact ties are common. ``mode`` "tie" gives
    one service a second candidate within EPS_OBJ of its first (exactly
    equal or a near tie); "overfull" loads one resource the first
    candidates share until their summed footprints no longer fit.
    """
    scn = scenario_from_dict({
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": 1}],
        "nodes": [{"id": i, "operator_id": 1, "is_function_node": True,
                   "capacity": [4.0], "unit_price": [1.0]} for i in range(3)],
        "links": [{"endpoints": ends, "capacity": 4.0, "directed": True}
                  for ends in ([0, 1], [1, 2], [0, 2])],
        "trust": {"1": [1]},
        "vnfs": [],
    })
    services = rng.randint(1, 3)
    slc = request_from_dict({
        "id": "r", "origin_operator": 1,
        "services": [{"id": sid, "source": 0, "sink": 2, "vnf_sequence": [],
                      "bandwidth": 1.0, "max_latency": 99.0}
                     for sid in range(services)],
        "vnf_catalog": [],
    }, scn)
    candidates = {}
    for sid in range(services):
        costs = sorted(float(rng.randint(0, 6)) for _ in range(rng.randint(1, 4)))
        cands = []
        for index, cost in enumerate(costs):
            links = sorted(rng.sample(range(3), rng.randint(1, 2)))
            cands.append(CandidatePath(
                sid, index, {}, (), cost, 0.0,
                tuple((eid, float(rng.randint(1, 2))) for eid in links),
                tuple((vid, 0, float(rng.randint(1, 2)))
                      for vid in sorted(rng.sample(range(3), rng.randint(0, 2))))))
        candidates[sid] = cands
    if mode == "tie":
        sid = rng.randrange(services)
        first = candidates[sid][0]
        bump = rng.choice([0.0, 0.5 * EPS_OBJ * max(1.0, first.cost)])
        twin = replace(first, cost=first.cost + bump)
        candidates[sid] = [replace(c, index=i) for i, c in
                           enumerate([first, twin] + candidates[sid][1:])]
    state = ResidualState(scn.net)
    for eid in range(3):
        state.used_bw[eid] = float(rng.choice([0, 0, 1, 2, 5]))
    for vid in range(3):
        state.used_node[(vid, 0)] = float(rng.choice([0, 0, 1, 2, 5]))
    if mode == "overfull":
        eid, amount = candidates[0][0].link_units[0]
        state.used_bw[eid] = 4.0 - amount + rng.choice([0.5, 1.0, 3.0])
    return slc, candidates, state


def test_forced_optimum_agrees_with_branch_and_bound():
    """Whenever the shortcut decides, branch-and-bound on the full model
    picks the same candidate per service with the same objective; on a tie
    or an overfull resource it declines."""
    rng = random.Random(20260417)
    decided = 0
    for trial in range(600):
        mode = ("free", "tie", "overfull")[trial % 3]
        slc, candidates, state = _candidate_sets(rng, mode)
        sol = forced_optimum(candidates, state, slc)
        if mode != "free":
            assert sol is None, mode
            continue
        if sol is None:
            continue
        decided += 1
        model, _ = build_pl(candidates, state, slc)
        ref = branch_and_bound(model)
        assert ref.status == sol.status == "optimal"
        assert np.array_equal(np.round(ref.assignment), sol.assignment)
        assert sol.objective == ref.objective
        assert sol.node_count == 0
    assert decided >= 40
