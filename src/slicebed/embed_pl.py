"""Path-Link ILP: fast per-request embedding over pre-generated candidates.

One binary z[g,p] per candidate path p of service g. Latency and trust were
already enforced during candidate generation, so the program only couples the
services through shared link and node capacities:

  P1  exactly one candidate per service
  P2  link capacity over candidate footprints
  P3  node resources over candidate footprints

Candidate lists are cost-ordered, so k'=1 degenerates to "cheapest path per
service if jointly feasible". When each service's cheapest candidate is
strictly cheapest and together they fit, that tuple is the unique optimum of
the program and of its LP relaxation, so it is returned without building or
solving the program.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .milp import BINARY, EPS_OBJ, IlpModel, IlpSolution, branch_and_bound
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


def forced_optimum(candidates: dict[int, list[CandidatePath]],
                   state: ResidualState, slc: SliceRequest) -> IlpSolution | None:
    """The program's solution when no search is needed to find it, else None.

    It is found when every service's first candidate is cheaper than each
    of its others by more than EPS_OBJ * max(1, |cost|), and their summed
    footprints fit within max(0, residual) on every link and node resource,
    which are the right-hand sides of P2 and P3. That tuple is then the
    unique optimum of the program and of its LP relaxation, so
    branch-and-bound would return it. The assignment follows ``pl_meta``.
    """
    if not all(candidates.get(svc.id) for svc in slc.services):
        return None
    chosen = []
    for svc in slc.services:
        first, *rest = candidates[svc.id]
        margin = EPS_OBJ * max(1.0, abs(first.cost))
        if any(c.cost - first.cost <= margin for c in rest):
            return None
        chosen.append(first)
    link_use: dict[int, float] = {}
    node_use: dict[tuple[int, int], float] = {}
    for cand in chosen:
        for eid, amount in cand.link_units:
            link_use[eid] = link_use.get(eid, 0.0) + amount
        for vid, r, amount in cand.node_units:
            node_use[(vid, r)] = node_use.get((vid, r), 0.0) + amount
    if any(amount > max(0.0, state.link_residual(eid))
           for eid, amount in link_use.items()):
        return None
    if any(amount > max(0.0, state.node_residual(vid, r))
           for (vid, r), amount in node_use.items()):
        return None
    costs = np.array([cand.cost for _, cand in pl_meta(candidates, slc).choices.values()])
    assignment = np.zeros(len(costs))
    var = 0
    for svc in slc.services:
        assignment[var] = 1.0
        var += len(candidates[svc.id])
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
    sol = forced_optimum(candidates, state, slc)
    if sol is not None:
        return decode_pl(slc, pl_meta(candidates, slc), sol.assignment, True), sol
    built = build_pl(candidates, state, slc)
    if isinstance(built, Blocked):
        return built, None
    model, meta = built
    sol = branch_and_bound(model, time_limit_ms=time_limit_ms)
    blocked = blocked_by_solver(sol)
    if blocked is not None:
        return blocked, sol
    return decode_pl(slc, meta, sol.assignment, sol.status == "optimal"), sol


def solve_pl(net: PhysicalNetwork, trust: TrustRelation, state: ResidualState,
             slc: SliceRequest, prices: PriceSnapshot, k: int, *,
             time_limit_ms: float | None = None):
    """Embed one request from k-shortest candidates. Embedding or Blocked."""
    result, _ = solve_pl_detailed(net, trust, state, slc, prices, k,
                                  time_limit_ms=time_limit_ms)
    return result
