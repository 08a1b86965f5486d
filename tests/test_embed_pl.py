"""Candidate-path embedding: saturation equivalence, monotonicity, coupling."""
import collections
import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from slicebed import embed_pl
from slicebed.embed_nl import solve_nl
from slicebed.embed_pl import (TUPLE_BUDGET, build_pl, ranked_optimum, solve_pl,
                               solve_pl_detailed)
from slicebed.milp import EPS_FEAS, EPS_OBJ, branch_and_bound
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


TRIANGLE = {
    "resources": [{"id": 0, "name": "cpu"}],
    "operators": [{"id": 1}],
    "nodes": [{"id": i, "operator_id": 1, "is_function_node": True,
               "capacity": [8.0], "unit_price": [1.0]} for i in range(3)],
    "links": [{"endpoints": ends, "capacity": 8.0, "directed": True}
              for ends in ([0, 1], [1, 2], [0, 2])],
    "trust": {"1": [1]},
    "vnfs": [],
}


def _slice(scn, services):
    return request_from_dict({
        "id": "r", "origin_operator": 1,
        "services": [{"id": sid, "source": 0, "sink": 2, "vnf_sequence": [],
                      "bandwidth": 1.0, "max_latency": 99.0}
                     for sid in range(services)],
        "vnf_catalog": [],
    }, scn)


def _candidate(sid, index, cost, links, nodes=()):
    """A candidate of service ``sid`` using (link id, bandwidth) ``links``
    and (node id, cpu) ``nodes``."""
    return CandidatePath(sid, index, {}, (), float(cost), 0.0,
                         tuple((eid, float(a)) for eid, a in links),
                         tuple((vid, 0, float(a)) for vid, a in nodes))


def _usage(cands):
    """Summed footprint of ``cands`` per P2 row (link id) and P3 row
    ((node id, resource))."""
    use = {}
    for cand in cands:
        for eid, amount in cand.link_units:
            use[eid] = use.get(eid, 0.0) + amount
        for vid, r, amount in cand.node_units:
            use[(vid, r)] = use.get((vid, r), 0.0) + amount
    return use


def _candidate_sets(rng, mode):
    """A slice of 1-4 services over a 3-node, 3-link substrate with
    capacities 8, 1-8 random candidates per service cheapest first, and a
    loaded ledger (some residuals negative).

    Costs are small integers, so exact ties are common. ``mode``:
    "tie" gives one service a twin of its first candidate that costs 0,
    0.5 * EPS_OBJ or 1e-8 more (inside the tie margin) or 2 * EPS_OBJ * the
    largest possible tuple cost more (outside it); "short" empties the
    ledger and loads one row that the first candidates use until together
    they miss it by 1e-10 or 1e-7; "overfull" loads such a row until they
    miss it by 0.5 to 3; "infeasible" leaves 0.5 on every link, which no
    candidate fits.
    """
    scn = scenario_from_dict(TRIANGLE)
    services = rng.randint(1, 4)
    slc = _slice(scn, services)
    candidates = {}
    for sid in range(services):
        costs = sorted(rng.randint(0, 6) for _ in range(rng.randint(1, 8)))
        candidates[sid] = [
            _candidate(sid, index, cost,
                       [(eid, rng.randint(1, 2))
                        for eid in sorted(rng.sample(range(3), rng.randint(1, 2)))],
                       [(vid, rng.randint(1, 2))
                        for vid in sorted(rng.sample(range(3), rng.randint(0, 2)))])
            for index, cost in enumerate(costs)]
    if mode == "tie":
        sid = rng.randrange(services)
        first = candidates[sid][0]
        bump = rng.choice([0.0, 1e-8, 0.5 * EPS_OBJ, 2 * EPS_OBJ * 6 * services])
        twin = replace(first, cost=first.cost + bump)
        candidates[sid] = [replace(c, index=i) for i, c in
                           enumerate([first, twin] + candidates[sid][1:])]
    state = ResidualState(scn.net)
    if mode in ("short", "overfull"):
        use = _usage(cands[0] for cands in candidates.values())
        row = rng.choice(sorted(use, key=str))
        miss = rng.choice([1e-10, 1e-7] if mode == "short" else [0.5, 1.0, 3.0])
        load = 8.0 - use[row] + miss
        if isinstance(row, tuple):
            state.used_node[row] = load
        else:
            state.used_bw[row] = load
        return slc, candidates, state
    for eid in range(3):
        state.used_bw[eid] = 7.5 if mode == "infeasible" else \
            float(rng.choice([0, 0, 1, 2, 4, 9]))
    for vid in range(3):
        state.used_node[(vid, 0)] = float(rng.choice([0, 0, 1, 2, 4, 9]))
    return slc, candidates, state


def _ranking_outcome(candidates, state, slc):
    """What ``ranked_optimum``'s rule decides, from every tuple at once:
    "optimal" or "infeasible", or why it leaves the program to
    branch-and-bound ("tie", "tolerance" or "budget")."""
    lists = [candidates[svc.id] for svc in slc.services]
    rhs = {row: max(0.0, state.node_residual(*row) if isinstance(row, tuple)
                    else state.link_residual(row))
           for row in _usage(c for cands in lists for c in cands)}
    tolerance = EPS_FEAS * (1.0 + max(1.0, *rhs.values()))
    tuples = []
    for combo in itertools.product(*lists):
        use = _usage(combo)
        excess = max((use[row] - rhs[row] for row in use), default=0.0)
        tuples.append((sum(c.cost for c in combo), excess))
    fitting = [cost for cost, excess in tuples if excess <= 0.0]
    if fitting:
        best = min(fitting)
        window = [t for t in tuples
                  if t[0] <= best + EPS_OBJ * max(1.0, abs(best))]
    else:
        window = tuples
    if any(0.0 < excess <= tolerance for _, excess in window):
        return "tolerance"
    if len(window) > TUPLE_BUDGET:
        return "budget"
    if sum(excess <= 0.0 for _, excess in window) > 1:
        return "tie"
    return "optimal" if fitting else "infeasible"


def test_ranked_optimum_agrees_with_branch_and_bound():
    """The enumerator decides exactly where its rule says it can, and there
    branch-and-bound on the full model returns the same status, candidate
    per service and objective."""
    rng = random.Random(20260417)
    seen = collections.Counter()
    modes = ("free", "tie", "short", "overfull", "infeasible")
    for trial in range(650):
        mode = modes[trial % len(modes)]
        slc, candidates, state = _candidate_sets(rng, mode)
        expected = _ranking_outcome(candidates, state, slc)
        seen[mode, expected] += 1
        sol = ranked_optimum(candidates, state, slc)
        if expected not in ("optimal", "infeasible"):
            assert sol is None, (mode, expected)
            continue
        assert sol is not None and sol.status == expected, (mode, expected)
        assert sol.node_count == 0
        model, _ = build_pl(candidates, state, slc)
        ref = branch_and_bound(model)
        assert ref.status == sol.status
        if expected == "infeasible":
            assert sol.assignment is None and sol.objective is None
            continue
        assert np.array_equal(np.round(ref.assignment), sol.assignment)
        assert sol.objective == ref.objective
    for case in [("free", "optimal"), ("free", "tie"), ("free", "infeasible"),
                 ("tie", "tie"), ("tie", "optimal"), ("short", "tolerance"),
                 ("overfull", "optimal"), ("overfull", "infeasible"),
                 ("infeasible", "infeasible")]:
        assert seen[case] >= 10, (case, seen)


def test_ranked_optimum_tie_margin_and_tolerance_band():
    """Two services whose cheapest candidates share link 0: a twin inside
    the EPS_OBJ margin defers, one outside it is decided; a residual short of
    the cheapest tuple by 1e-10 or 1e-7 defers, by 1e-3 the next tuple is
    decided."""
    scn = scenario_from_dict(TRIANGLE)
    slc = _slice(scn, 2)
    base = {0: [_candidate(0, 0, 2, [(0, 1)]), _candidate(0, 1, 5, [(1, 1)])],
            1: [_candidate(1, 0, 3, [(0, 1)]), _candidate(1, 1, 7, [(2, 1)])]}
    margin = EPS_OBJ * 5.0
    for bump, decided in [(0.0, False), (0.5 * margin, False), (0.99 * margin, False),
                          (1.01 * margin, True), (2 * margin, True)]:
        twin = _candidate(0, 1, 2 + bump, [(2, 1)])
        cands = {0: [base[0][0], twin, replace(base[0][1], index=2)], 1: base[1]}
        sol = ranked_optimum(cands, ResidualState(scn.net), slc)
        assert (sol is not None) == decided, bump
        if decided:
            model, _ = build_pl(cands, ResidualState(scn.net), slc)
            assert np.array_equal(sol.assignment, np.round(branch_and_bound(model).assignment))
    for miss, outcome in [(1e-10, None), (1e-7, None), (1e-3, "optimal")]:
        state = ResidualState(scn.net)
        state.used_bw[0] = 8.0 - (2.0 - miss)
        sol = ranked_optimum(base, state, slc)
        assert (sol and sol.status) == outcome, miss
    # with every right-hand side below 1, branch-and-bound's tolerance is set
    # by P1's: 2e-6. Once a branch fixes the cheap candidate, whose link 0
    # use overfills 0.5 by 1.8e-6, its LP accepts it, and branch-and-bound
    # returns it over the fitting dearer one; the ranking must defer. By
    # 2.5e-6 the cheap one is infeasible to both.
    one = _slice(scn, 1)
    state = ResidualState(scn.net)
    for eid in range(3):
        state.used_bw[eid] = 7.5
    for excess, expected in [(1.8e-6, [1.0, 0.0]), (2.5e-6, [0.0, 1.0])]:
        cands = {0: [_candidate(0, 0, 1, [(0, 0.5 + excess)]),
                     _candidate(0, 1, 2, [(1, 0.1)])]}
        ref = branch_and_bound(build_pl(cands, state, one)[0])
        assert ref.assignment.tolist() == expected
        sol = ranked_optimum(cands, state, one)
        assert sol is None if excess < 2e-6 else sol.assignment.tolist() == expected


def test_ranked_optimum_pops_at_most_the_budget():
    """A set whose TUPLE_BUDGET = 4096 tuples all fail is decided
    infeasible; one of 4097 tuples is left to branch-and-bound."""
    scn = scenario_from_dict(TRIANGLE)
    state = ResidualState(scn.net)
    for eid in range(3):
        state.used_bw[eid] = 7.5
    assert TUPLE_BUDGET == 4096
    for sizes, decided in [((8, 8, 8, 8), True), ((64, 64), True), ((17, 241), False)]:
        slc = _slice(scn, len(sizes))
        cands = {sid: [_candidate(sid, i, i % 7, [(i % 3, 1)]) for i in range(n)]
                 for sid, n in enumerate(sizes)}
        sol = ranked_optimum(cands, state, slc)
        if decided:
            assert sol.status == "infeasible" and sol.node_count == 0, sizes
        else:
            assert sol is None
            model, _ = build_pl(cands, state, slc)
            assert branch_and_bound(model).status == "infeasible"


def test_solve_pl_calls_the_solver_seams_only_when_ranking_defers(monkeypatch):
    """A per-layer profiler times ``build_pl`` and ``branch_and_bound``
    through ``embed_pl``; neither runs when the ranking finds a unique
    optimum or no fitting tuple, and both run once on a tie. The ranking's
    decision needs no time, so it stays optimal under ``time_limit_ms=0``,
    where branch-and-bound stops at its time limit."""
    calls = {"build_pl": 0, "branch_and_bound": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(embed_pl, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(embed_pl, name, counting)
    scn = scenario_from_dict(TRIANGLE)
    slc = _slice(scn, 2)
    snap = _snap(scn)

    def solve(cands, state, **kw):
        calls.update(build_pl=0, branch_and_bound=0)
        out = solve_pl_detailed(scn.net, scn.trust, state, slc, snap, 8,
                                candidates=cands, **kw)
        return out, dict(calls)

    # the cheapest candidates overfill link 0 (2 + 2 > 3); (0, 1) is the optimum
    conflict = {0: [_candidate(0, 0, 1, [(0, 2)]), _candidate(0, 1, 3, [(1, 2)])],
                1: [_candidate(1, 0, 1, [(0, 2)]), _candidate(1, 1, 2, [(2, 2)])]}
    loaded = ResidualState(scn.net)
    loaded.used_bw[0] = 5.0
    for limit in (None, 0.0):
        (emb, sol), seen = solve(conflict, loaded, time_limit_ms=limit)
        assert seen == {"build_pl": 0, "branch_and_bound": 0}
        assert isinstance(emb, Embedding) and emb.optimal and emb.total_cost == 3.0
        assert [s.cost for s in emb.services] == [1.0, 2.0]
        assert sol.node_count == 0
    model, _ = build_pl(conflict, loaded, slc)
    assert branch_and_bound(model, time_limit_ms=0.0).status == "time_limit_best_incumbent"

    full = ResidualState(scn.net)
    for eid in range(3):
        full.used_bw[eid] = 7.5
    (out, sol), seen = solve(conflict, full)
    assert seen == {"build_pl": 0, "branch_and_bound": 0}
    assert isinstance(out, Blocked) and out.reason == "infeasible"
    assert sol.status == "infeasible" and sol.node_count == 0

    tie = {0: [_candidate(0, 0, 1, [(0, 1)]), _candidate(0, 1, 1, [(1, 1)])],
           1: conflict[1]}
    (emb, sol), seen = solve(tie, ResidualState(scn.net))
    assert seen == {"build_pl": 1, "branch_and_bound": 1}
    assert isinstance(emb, Embedding) and emb.optimal and emb.total_cost == 2.0
