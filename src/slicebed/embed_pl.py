"""Path-Link ILP: fast per-request embedding over pre-generated candidates.

One binary z[g,p] per candidate path p of service g. Latency and trust were
already enforced during candidate generation, so the program only couples the
services through shared link and node capacities:

  P1  exactly one candidate per service
  P2  link capacity over candidate footprints
  P3  node resources over candidate footprints

Candidate lists are cost-ordered, so k'=1 degenerates to "cheapest path per
service if jointly feasible". The program is first decided by ranking
candidate tuples by summed cost (``ranked_optimum``); it is built and solved
by branch-and-bound only where that ranking cannot tell what branch-and-bound
would return.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .milp import (BINARY, EPS_FEAS, EPS_OBJ, IlpModel, IlpSolution,
                   branch_and_bound)
from .model import (Blocked, Embedding, PhysicalNetwork, ResidualState,
                    ServiceEmbedding, SliceRequest, TrustRelation,
                    UntrustableRequest, blocked_by_solver)
from .paths import CandidatePath, generate_candidates
from .pricing import PriceSnapshot


@dataclass
class PlMeta:
    # var index -> (service_id, candidate)
    choices: dict[int, tuple[int, CandidatePath]]


def pl_meta(candidates: dict[int, list[CandidatePath]],
            slc: SliceRequest) -> PlMeta:
    """The model's variable order: services in slice order, each service's
    candidates in list order."""
    pairs = [(svc.id, cand) for svc in slc.services for cand in candidates[svc.id]]
    return PlMeta(choices=dict(enumerate(pairs)))


def build_pl(candidates: dict[int, list[CandidatePath]], state: ResidualState,
             slc: SliceRequest):
    """Build the Path-Link model. Returns (IlpModel, PlMeta) or Blocked."""
    for svc in slc.services:
        if not candidates.get(svc.id):
            return Blocked("no_candidate_path", f"service {svc.id}")

    model = IlpModel()
    meta = pl_meta(candidates, slc)
    link_rows: dict[int, dict[int, float]] = {}
    node_rows: dict[tuple[int, int], dict[int, float]] = {}
    groups: dict[int, list[int]] = {svc.id: [] for svc in slc.services}
    for var, (sid, cand) in meta.choices.items():
        model.add_variable(f"z_{sid}_{cand.index}", BINARY, obj=cand.cost)
        groups[sid].append(var)
        for eid, amount in cand.link_units:
            link_rows.setdefault(eid, {})[var] = amount
        for vid, r, amount in cand.node_units:
            node_rows.setdefault((vid, r), {})[var] = amount
    for svc in slc.services:
        model.add_constraint({v: 1.0 for v in groups[svc.id]}, "=", 1.0,
                             name=f"P1_{svc.id}")

    for eid in sorted(link_rows):
        model.add_constraint(link_rows[eid], "<=",
                             max(0.0, state.link_residual(eid)),
                             name=f"P2_{eid}")
    for (vid, r) in sorted(node_rows):
        model.add_constraint(node_rows[(vid, r)], "<=",
                             max(0.0, state.node_residual(vid, r)),
                             name=f"P3_{vid}_{r}")
    return model, meta


# Index tuples ranked_optimum may pop before it leaves the program to
# branch-and-bound.
TUPLE_BUDGET = 4096


def ranked_optimum(candidates: dict[int, list[CandidatePath]],
                   state: ResidualState, slc: SliceRequest) -> IlpSolution | None:
    """The program's solution when ranking candidate tuples decides it, else None.

    Tuples of per-service candidate ranks are popped in nondecreasing summed
    cost from (0, ..., 0), as in Lawler's k-best scheme: a tuple's successors
    bump one service's rank, at or after the position bumped last, so each
    tuple is seen once. The first tuple whose summed footprints fit
    max(0, residual) on every link and node resource (the right-hand sides
    of P2 and P3) is the optimum, and popping goes on while costs stay within
    EPS_OBJ * max(1, |cost|) of it. When no other tuple in that window fits,
    branch-and-bound would return the same tuple; when no tuple fits at all,
    it would find the program infeasible. Either solution reports
    node_count 0, and an assignment follows ``pl_meta``.

    None leaves the program to branch-and-bound when
    - a second tuple in the window fits: only its pivot order breaks the tie;
    - a popped tuple overfills some row by at most its feasibility tolerance
      EPS_FEAS * (1 + largest right-hand side, P1's 1 included): the LP of a
      node that fixes the tuple may accept it;
    - more than TUPLE_BUDGET tuples would be popped.
    """
    services = [candidates.get(svc.id) for svc in slc.services]
    if not all(services):
        return None
    ranks = [sorted(range(len(cands)), key=lambda i, c=cands: c[i].cost)
             for cands in services]
    ranked = [[cands[i] for i in order] for cands, order in zip(services, ranks)]
    rhs: dict = {}          # P2 row: link id; P3 row: (node id, resource)

    def right_hand_side(row) -> float:
        if row not in rhs:
            residual = (state.node_residual(*row) if isinstance(row, tuple)
                        else state.link_residual(row))
            rhs[row] = max(0.0, residual)
        return rhs[row]

    def overfill(tup: tuple[int, ...]) -> float:
        """The tuple's largest excess over a right-hand side, <= 0 if it fits."""
        use: dict = {}
        for cands, i in zip(ranked, tup):
            for eid, amount in cands[i].link_units:
                use[eid] = use.get(eid, 0.0) + amount
            for vid, r, amount in cands[i].node_units:
                use[(vid, r)] = use.get((vid, r), 0.0) + amount
        return max((amount - right_hand_side(row) for row, amount in use.items()),
                   default=0.0)

    def feasibility_tolerance() -> float:
        for cands in ranked:
            for cand in cands:
                for eid, _ in cand.link_units:
                    right_hand_side(eid)
                for vid, r, _ in cand.node_units:
                    right_hand_side((vid, r))
        return EPS_FEAS * (1.0 + max(1.0, *rhs.values()))

    def cost(tup: tuple[int, ...]) -> float:
        return sum(cands[i].cost for cands, i in zip(ranked, tup))

    first = (0,) * len(ranked)
    heap = [(cost(first), first, 0)]
    popped = 0
    best, best_cost, tolerance = None, 0.0, None
    while heap:
        total, tup, last = heap[0]
        if best is not None and total > best_cost + EPS_OBJ * max(1.0, abs(best_cost)):
            break
        if popped == TUPLE_BUDGET:
            return None
        heapq.heappop(heap)
        popped += 1
        excess = overfill(tup)
        if excess > 0.0:
            if tolerance is None:
                tolerance = feasibility_tolerance()
            if excess <= tolerance:
                return None
        elif best is not None:
            return None
        else:
            best, best_cost = tup, total
        for pos in range(last, len(ranked)):
            if tup[pos] + 1 < len(ranked[pos]):
                nxt = tup[:pos] + (tup[pos] + 1,) + tup[pos + 1:]
                heapq.heappush(heap, (cost(nxt), nxt, pos))

    if best is None:
        return IlpSolution("infeasible", None, None, node_count=0)
    costs = np.array([cand.cost for cands in services for cand in cands])
    assignment = np.zeros(len(costs))
    var = 0
    for cands, order, i in zip(services, ranks, best):
        assignment[var + order[i]] = 1.0
        var += len(cands)
    return IlpSolution("optimal", assignment, float(costs @ assignment),
                       node_count=0)


def decode_pl(slc: SliceRequest, meta: PlMeta, assignment,
              optimal: bool) -> Embedding:
    chosen: dict[int, CandidatePath] = {}
    for var, (sid, cand) in meta.choices.items():
        if assignment[var] > 0.5:
            chosen[sid] = cand
    services = []
    total = 0.0
    for svc in slc.services:
        cand = chosen[svc.id]
        services.append(ServiceEmbedding(svc.id, dict(cand.placement),
                                         cand.routes, cand.latency, cand.cost))
        total += cand.cost
    return Embedding(slc.id, tuple(services), total, optimal=optimal)


def solve_pl_detailed(net: PhysicalNetwork, trust: TrustRelation,
                      state: ResidualState, slc: SliceRequest,
                      prices: PriceSnapshot, k: int, *,
                      time_limit_ms: float | None = None,
                      candidates: dict[int, list[CandidatePath]] | None = None):
    """Like solve_pl but also returns the raw IlpSolution (or None).

    Pass ``candidates`` to reuse a previously generated set (the per-request
    snapshot must match).
    """
    if candidates is None:
        try:
            candidates = generate_candidates(net, trust, state, slc, k, prices)
        except UntrustableRequest as exc:
            return Blocked("untrustable_request", str(exc)), None
    sol = ranked_optimum(candidates, state, slc)
    meta = None
    if sol is None:
        built = build_pl(candidates, state, slc)
        if isinstance(built, Blocked):
            return built, None
        model, meta = built
        sol = branch_and_bound(model, time_limit_ms=time_limit_ms)
    blocked = blocked_by_solver(sol)
    if blocked is not None:
        return blocked, sol
    return decode_pl(slc, meta or pl_meta(candidates, slc), sol.assignment,
                     sol.status == "optimal"), sol


def solve_pl(net: PhysicalNetwork, trust: TrustRelation, state: ResidualState,
             slc: SliceRequest, prices: PriceSnapshot, k: int, *,
             time_limit_ms: float | None = None):
    """Embed one request from k-shortest candidates. Embedding or Blocked."""
    result, _ = solve_pl_detailed(net, trust, state, slc, prices, k,
                                  time_limit_ms=time_limit_ms)
    return result
