"""Online discrete-event simulation and random scenario generation.

Poisson slice arrivals are admitted one at a time by the NL or PL engine;
accepted slices hold resources for an exponential holding time and release
them on departure. All randomness (arrival times, slice contents, holding
times) is drawn from the workload streams at arrival time, before any engine
runs, so different engine/pricing configs see byte-identical request traces
(common random numbers).

Wall-clock measurements never enter metrics.csv / summary.json / events.jsonl;
they are quarantined in timing.json so the main outputs are reproducible
byte for byte.
"""
from __future__ import annotations

import heapq
import json
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import (Blocked, Embedding, ResidualState, Scenario, ScenarioError,
                    ServiceChain, SliceRequest, SliceVnf, scenario_from_dict)
from .pricing import PricingPolicy, PriceSnapshot
from .embed_nl import solve_nl_detailed
from .embed_pl import solve_pl_detailed

NL = "nl"
PL = "pl"


# ---------------------------------------------------------------------------
# Workload and slice-type templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceTypeTemplate:
    """Sampling recipe for one slice type; lives in the scenario file."""
    name: str
    weight: float
    bandwidth: tuple[int, int]           # integer uniform, inclusive
    max_latency: tuple[float, float]     # uniform
    chain_length: tuple[int, int]        # integer uniform, inclusive
    vnf_pool: tuple[int, ...]
    services: tuple[int, int] = (1, 1)   # services per slice
    deny_fraction: float = 0.0           # chance to deny each non-origin op
    allow_fraction: float = 0.0          # chance to explicitly allow one
    deploy_fraction: float = 1.0         # chance a function node hosts a vnf


def _pair(value, cast):
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ScenarioError(f"range must have 2 entries, got {value!r}")
        return (cast(value[0]), cast(value[1]))
    return (cast(value), cast(value))


def parse_slice_types(scenario: Scenario) -> list[SliceTypeTemplate]:
    types = []
    for doc in scenario.slice_types:
        try:
            tpl = SliceTypeTemplate(
                name=str(doc["name"]),
                weight=float(doc["weight"]),
                bandwidth=_pair(doc["bandwidth"], int),
                max_latency=_pair(doc["max_latency"], float),
                chain_length=_pair(doc["chain_length"], int),
                vnf_pool=tuple(int(f) for f in doc["vnf_pool"]),
                services=_pair(doc.get("services", 1), int),
                deny_fraction=float(doc.get("deny_fraction", 0.0)),
                allow_fraction=float(doc.get("allow_fraction", 0.0)),
                deploy_fraction=float(doc.get("deploy_fraction", 1.0)),
            )
        except KeyError as exc:
            raise ScenarioError(f"slice type missing key {exc}") from exc
        if tpl.weight < 0:
            raise ScenarioError("slice type weight >= 0")
        for f in tpl.vnf_pool:
            if f not in scenario.vnfs:
                raise ScenarioError(f"slice type {tpl.name}: unknown vnf {f}")
        if not tpl.vnf_pool and tpl.chain_length[1] > 0:
            raise ScenarioError(f"slice type {tpl.name}: empty vnf pool")
        # sample_request builds requests without validating them, so every
        # draw the template allows must be a valid request
        if tpl.bandwidth[0] < 1:
            raise ScenarioError(f"slice type {tpl.name}: bandwidth must be >= 1")
        if not (all(math.isfinite(x) for x in tpl.max_latency)
                and round(min(tpl.max_latency), 3) > 0):
            raise ScenarioError(f"slice type {tpl.name}: max_latency must be finite "
                                "and > 0 at 3 decimals")
        types.append(tpl)
    if not types:
        raise ScenarioError("scenario defines no slice types")
    total = sum(t.weight for t in types)
    if abs(total - 1.0) > 1e-6:
        raise ScenarioError(f"slice type weights must sum to 1, got {total:g}")
    return types


@dataclass(frozen=True)
class Workload:
    rate: float                 # slice arrivals per time unit
    holding: float              # mean holding time
    horizon: float
    seed: int
    sample_interval: float = 0.0    # 0 -> horizon/50
    holding_dist: str = "exponential"

    def __post_init__(self):
        if self.rate < 0:
            raise ScenarioError("lambda >= 0")
        if not 0 < self.holding < math.inf:
            raise ScenarioError("holding > 0 and finite")
        if self.horizon <= 0:
            raise ScenarioError("horizon > 0")
        if self.holding_dist not in ("exponential", "deterministic"):
            raise ScenarioError(f"unknown holding_dist {self.holding_dist!r}")

    @staticmethod
    def from_scenario(scenario: Scenario, **overrides) -> "Workload":
        doc = dict(scenario.workload)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return Workload(
            rate=float(doc.get("lambda", 1.0)),
            holding=float(doc.get("holding", 1.0)),
            horizon=float(doc.get("horizon", 100.0)),
            seed=int(doc.get("seed", 0)),
            sample_interval=float(doc.get("sample_interval", 0.0)),
            holding_dist=str(doc.get("holding_dist", "exponential")),
        )


# ---------------------------------------------------------------------------
# Random scenario generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioGen:
    """Parameters of the random multi-operator scenario family."""
    operators: int = 3
    nodes_per_operator: tuple[int, int] = (8, 12)
    function_node_fraction: float = 0.5
    extra_edge_fraction: float = 0.3     # intra-operator non-tree edges
    border_nodes: int = 2                # per operator, endpoints of inter-op links
    inter_op_prob: float = 0.6           # probability per border pair
    rho: float = 0.6                     # target utilization regime
    trust_density: float = 0.7
    expected_hops: float = 4.0           # calibration constant for link sizing
    link_delay_range: tuple[float, float] = (0.5, 2.0)
    link_price_range: tuple[float, float] = (0.5, 2.0)
    node_price_range: tuple[float, float] = (0.5, 2.0)
    num_vnfs: int = 4
    # embedded workload defaults (also drive capacity calibration)
    rate: float = 2.0
    holding: float = 10.0
    horizon: float = 200.0

    def __post_init__(self):
        if not (0.0 <= self.inter_op_prob <= 1.0):
            raise ScenarioError("pi in [0,1]")
        if not (0.0 < self.rho):
            raise ScenarioError("rho > 0")
        if self.operators < 1:
            raise ScenarioError("operators >= 1")


_DEFAULT_TYPE_DOCS = [
    {"name": "latency-critical", "weight": 0.3, "bandwidth": [1, 2],
     "max_latency": [6.0, 10.0], "chain_length": [1, 2], "services": [1, 1],
     "deny_fraction": 0.4, "deploy_fraction": 0.8},
    {"name": "bandwidth-heavy", "weight": 0.3, "bandwidth": [4, 8],
     "max_latency": [40.0, 60.0], "chain_length": [1, 3], "services": [1, 2],
     "deny_fraction": 0.0, "deploy_fraction": 0.8},
    {"name": "standard", "weight": 0.4, "bandwidth": [2, 4],
     "max_latency": [20.0, 30.0], "chain_length": [1, 3], "services": [1, 1],
     "deny_fraction": 0.1, "deploy_fraction": 0.8},
]


def _connected(num_nodes: int, undirected_links: list) -> bool:
    adj = {i: [] for i in range(num_nodes)}
    for raw in undirected_links:
        a, b = raw["endpoints"]
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == num_nodes


def generate_scenario(gen: ScenarioGen, seed: int,
                      slice_type_docs: list | None = None,
                      max_retries: int = 50) -> dict:
    """Random multi-operator scenario as a JSON-ready document.

    Deterministic per (gen, seed). Each operator subgraph is a random tree
    plus extra edges (connected by construction); inter-operator links join
    border-node pairs independently with probability pi; the whole graph is
    regenerated until connected. Capacities are integers sized so the
    embedded workload's offered load is roughly rho of capacity.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    type_docs = slice_type_docs if slice_type_docs is not None else _DEFAULT_TYPE_DOCS

    for _ in range(max_retries):
        nodes, links, borders = [], [], {}
        next_id = 0
        for op in range(1, gen.operators + 1):
            lo, hi = gen.nodes_per_operator
            n_op = int(rng.integers(lo, hi + 1))
            ids = list(range(next_id, next_id + n_op))
            next_id += n_op
            n_fn = max(1, round(gen.function_node_fraction * n_op))
            fn_local = set(rng.choice(n_op, size=n_fn, replace=False).tolist())
            for local, vid in enumerate(ids):
                nodes.append({"id": vid, "operator_id": op,
                              "is_function_node": local in fn_local})
            for local in range(1, n_op):
                parent = int(rng.integers(0, local))
                links.append({"endpoints": [ids[parent], ids[local]]})
            have = {tuple(sorted(l["endpoints"])) for l in links[-(n_op - 1) or len(links):]}
            for _ in range(round(gen.extra_edge_fraction * n_op)):
                a, b = rng.choice(n_op, size=2, replace=False).tolist()
                key = tuple(sorted((ids[a], ids[b])))
                if key not in have:
                    have.add(key)
                    links.append({"endpoints": list(key)})
            n_border = min(gen.border_nodes, n_op)
            borders[op] = [ids[i] for i in
                           sorted(rng.choice(n_op, size=n_border, replace=False).tolist())]
        for op_a in range(1, gen.operators + 1):
            for op_b in range(op_a + 1, gen.operators + 1):
                for u in borders[op_a]:
                    for v in borders[op_b]:
                        if rng.random() < gen.inter_op_prob:
                            links.append({"endpoints": [u, v]})
        if _connected(next_id, links):
            break
    else:
        raise ScenarioError(f"no connected topology after {max_retries} attempts")

    vnfs = []
    for fid in range(gen.num_vnfs):
        vnfs.append({
            "id": fid, "name": f"vnf{fid}",
            "proc_delay": round(float(rng.uniform(0.1, 1.0)), 2),
            "demand": [int(rng.integers(1, 4))],
        })

    # capacity calibration from the embedded workload and slice mix
    w = np.array([t["weight"] for t in type_docs], dtype=float)
    w = w / w.sum()
    mean_pair = lambda key, t: (t[key][0] + t[key][1]) / 2 if isinstance(t[key], list) else t[key]
    e_services = float(sum(wi * mean_pair("services", t) if "services" in t else wi
                           for wi, t in zip(w, type_docs)))
    e_bw = float(sum(wi * mean_pair("bandwidth", t) for wi, t in zip(w, type_docs)))
    e_chain = float(sum(wi * mean_pair("chain_length", t) for wi, t in zip(w, type_docs)))
    e_demand = float(np.mean([v["demand"][0] for v in vnfs]))
    in_flight = gen.rate * gen.holding

    n_fn = sum(1 for n in nodes if n["is_function_node"])
    node_load = in_flight * e_services * e_chain * e_demand / max(1, n_fn)
    node_cap = max(1, round(node_load / gen.rho))
    n_directed = 2 * len(links)
    link_load = in_flight * e_services * e_bw * gen.expected_hops / max(1, n_directed)
    link_cap = max(1, round(2 * link_load / gen.rho))  # directed pair shares load

    for n in nodes:
        if n["is_function_node"]:
            n["capacity"] = [float(node_cap)]
            n["unit_price"] = [round(float(rng.uniform(*gen.node_price_range)), 2)]
        else:
            n["capacity"] = [0.0]
            n["unit_price"] = [0.0]
    for l in links:
        l["capacity"] = float(link_cap)
        l["prop_delay"] = round(float(rng.uniform(*gen.link_delay_range)), 2)
        l["unit_price"] = round(float(rng.uniform(*gen.link_price_range)), 2)

    trust = {}
    for i in range(1, gen.operators + 1):
        row = [i]
        for j in range(1, gen.operators + 1):
            if j != i and rng.random() < gen.trust_density:
                row.append(j)
        trust[str(i)] = sorted(row)

    return {
        "_units": "bandwidth: Mb/s; latency: ms; capacities: units; time: s",
        "resources": [{"id": 0, "name": "cpu"}],
        "operators": [{"id": i, "name": f"op{i}"} for i in range(1, gen.operators + 1)],
        "nodes": nodes,
        "links": links,
        "trust": trust,
        "vnfs": vnfs,
        "slice_types": [
            {**t, "vnf_pool": t.get("vnf_pool", [v["id"] for v in vnfs])}
            for t in type_docs
        ],
        "workload": {"lambda": gen.rate, "holding": gen.holding,
                     "horizon": gen.horizon, "seed": seed},
        "pricing": {"mode": "static", "cap": 100.0},
    }


# ---------------------------------------------------------------------------
# Request sampling
# ---------------------------------------------------------------------------

def sample_request(rng: np.random.Generator, scenario: Scenario,
                   templates: list[SliceTypeTemplate], slice_id: str,
                   arrival_time: float, holding_time: float):
    """Draw one slice request; returns (type name, SliceRequest | None).

    None means the draw produced a structurally impossible request (no
    reachable sink candidate); the caller records it as blocked. The draw
    sequence is fixed so every config consumes the random stream identically.
    The request is not validated again: ``parse_slice_types`` has checked that
    every draw a template allows is a valid request.
    """
    net = scenario.net
    weights = np.array([t.weight for t in templates])
    tpl = templates[int(rng.choice(len(templates), p=weights / weights.sum()))]

    op_ids = net.operator_ids
    origin = int(op_ids[int(rng.integers(0, len(op_ids)))])
    deny = [op for op in op_ids
            if op != origin and float(rng.random()) < tpl.deny_fraction]
    allow = [op for op in op_ids
             if op != origin and op not in deny
             and float(rng.random()) < tpl.allow_fraction]

    allowed_ops = ({j for j in op_ids if scenario.trust.trusts(origin, j)}
                   | set(allow)) - set(deny)
    origin_nodes = net.nodes_of_operator(origin)
    allowed_nodes = net.trusted_substrate(allowed_ops).nodes
    fn_nodes = net.function_nodes

    n_services = int(rng.integers(tpl.services[0], tpl.services[1] + 1))
    services, fids_used = [], set()
    for sid in range(n_services):
        m = int(rng.integers(tpl.chain_length[0], tpl.chain_length[1] + 1))
        seq = tuple(int(tpl.vnf_pool[int(rng.integers(0, len(tpl.vnf_pool)))])
                    for _ in range(m))
        fids_used |= set(seq)
        bw = int(rng.integers(tpl.bandwidth[0], tpl.bandwidth[1] + 1))
        lat = float(rng.uniform(tpl.max_latency[0], tpl.max_latency[1]))
        source = int(origin_nodes[int(rng.integers(0, len(origin_nodes)))])
        sinks = [v for v in allowed_nodes if v != source]
        if not sinks:
            return tpl.name, None
        sink = int(sinks[int(rng.integers(0, len(sinks)))])
        services.append(ServiceChain(sid, source, sink, seq, float(bw), round(lat, 3)))

    catalog = {}
    for fid in sorted(fids_used):
        picked = [v for v in fn_nodes if float(rng.random()) < tpl.deploy_fraction]
        if not picked:
            picked = [fn_nodes[int(rng.integers(0, len(fn_nodes)))]]
        agg = sum(s.bandwidth for s in services if fid in s.vnf_sequence)
        catalog[fid] = SliceVnf(scenario.vnfs[fid], agg, tuple(picked))

    request = SliceRequest(str(slice_id), origin, frozenset(allow), frozenset(deny),
                           tuple(services), catalog, float(arrival_time),
                           float(holding_time))
    return tpl.name, request


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class RunMetrics:
    horizon: float
    offered: dict[str, int] = field(default_factory=dict)
    blocked: dict[str, int] = field(default_factory=dict)
    accepted_cost: dict[str, float] = field(default_factory=dict)
    blocked_by_reason: dict[str, int] = field(default_factory=dict)
    integral_active: float = 0.0         # time-integral of concurrent slices
    solve_ms: list[float] = field(default_factory=list)   # timing.json only
    time_series: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    run_seconds: float = 0.0             # timing.json only

    def _types(self):
        return sorted(set(self.offered) | set(self.blocked))

    def offered_total(self) -> int:
        return sum(self.offered.values())

    def blocked_total(self) -> int:
        return sum(self.blocked.values())

    def accepted_total(self) -> int:
        return self.offered_total() - self.blocked_total()

    def blocking_probability(self, slice_type: str | None = None) -> float:
        if slice_type is None:
            offered, blocked = self.offered_total(), self.blocked_total()
        else:
            offered = self.offered.get(slice_type, 0)
            blocked = self.blocked.get(slice_type, 0)
        return blocked / offered if offered else 0.0

    def mean_accepted_cost(self, slice_type: str | None = None) -> float:
        if slice_type is None:
            cost = sum(self.accepted_cost.values())
            n = self.accepted_total()
        else:
            cost = self.accepted_cost.get(slice_type, 0.0)
            n = (self.offered.get(slice_type, 0) - self.blocked.get(slice_type, 0))
        return cost / n if n else 0.0

    def mean_concurrent(self) -> float:
        return self.integral_active / self.horizon if self.horizon > 0 else 0.0

    def to_rows(self) -> list[tuple[str, str, object]]:
        """Tidy (metric, slice_type, value) rows for metrics.csv."""
        rows: list[tuple[str, str, object]] = []
        scopes = ["all"] + self._types()
        for scope in scopes:
            sel = None if scope == "all" else scope
            offered = self.offered_total() if sel is None else self.offered.get(sel, 0)
            blocked = self.blocked_total() if sel is None else self.blocked.get(sel, 0)
            rows.append(("offered", scope, offered))
            rows.append(("blocked", scope, blocked))
            rows.append(("accepted", scope, offered - blocked))
            rows.append(("blocking_probability", scope,
                         self.blocking_probability(sel)))
            rows.append(("mean_accepted_cost", scope, self.mean_accepted_cost(sel)))
        rows.append(("mean_concurrent_slices", "all", self.mean_concurrent()))
        return rows

    def solve_ms_stats(self) -> dict:
        if not self.solve_ms:
            return {"count": 0, "mean_ms": 0.0, "p95_ms": 0.0, "max_ms": 0.0}
        xs = sorted(self.solve_ms)
        idx = max(0, -(-len(xs) * 95 // 100) - 1)    # ceil(0.95 n) - 1
        return {"count": len(xs), "mean_ms": sum(xs) / len(xs),
                "p95_ms": xs[idx], "max_ms": xs[-1]}


# ---------------------------------------------------------------------------
# Event loop
# ---------------------------------------------------------------------------

_ARRIVAL, _DEPARTURE = 0, 1


def run(scenario: Scenario, workload: Workload, engine: str = PL,
        pricing: PricingPolicy | None = None, k: int = 8,
        time_limit_ms: float | None = None, *,
        shared_vnf_per_slice: bool = False,
        collect_events: bool = False,
        check_conservation: bool = False) -> RunMetrics:
    """Simulate one run. Deterministic per (scenario, workload, config)."""
    if engine not in (NL, PL):
        raise ScenarioError(f"unknown engine {engine!r}")
    if engine == PL and shared_vnf_per_slice:
        # pl candidates carry per-occurrence footprints, so the ledger must
        # charge them the same way
        raise ScenarioError("shared_vnf_per_slice needs engine nl; "
                            "pl footprints charge every VNF occurrence")
    if pricing is None:
        pricing = PricingPolicy.from_config(scenario.pricing)
    templates = parse_slice_types(scenario)
    net, trust = scenario.net, scenario.trust
    state = ResidualState(net)
    metrics = RunMetrics(horizon=workload.horizon)

    ss = np.random.SeedSequence([workload.seed, 0x51])
    child_time, child_content = ss.spawn(2)
    rng_time = np.random.default_rng(child_time)
    rng_content = np.random.default_rng(child_content)

    sample_dt = workload.sample_interval or workload.horizon / 50.0
    next_sample = sample_dt
    t_start = time.perf_counter()

    heap: list = []
    seq = 0

    def push(t, kind, payload):
        nonlocal seq
        heapq.heappush(heap, (t, kind, seq, payload))
        seq += 1

    if workload.rate > 0:
        first = float(rng_time.exponential(1.0 / workload.rate))
        if first <= workload.horizon:
            push(first, _ARRIVAL, None)

    def verify_conservation():
        link_sum: dict[int, float] = {}
        node_sum: dict[tuple[int, int], float] = {}
        for fp in state.active.values():
            for eid, amt in fp.link_units.items():
                link_sum[eid] = link_sum.get(eid, 0.0) + amt
            for key, amt in fp.node_units.items():
                node_sum[key] = node_sum.get(key, 0.0) + amt
        if link_sum != state.used_bw or node_sum != state.used_node:
            raise AssertionError("ledger diverged from active footprints")

    def take_samples(now):
        nonlocal next_sample
        while next_sample <= min(now, workload.horizon) + 1e-12:
            utils = [state.link_used(eid) / net.links[eid].capacity
                     for eid in net.links]
            metrics.time_series.append({
                "t": round(next_sample, 9),
                "active_slices": len(state.active),
                "mean_link_utilization": sum(utils) / len(utils) if utils else 0.0,
                "offered": metrics.offered_total(),
                "blocked": metrics.blocked_total(),
            })
            next_sample += sample_dt

    counter = 0
    last_t = 0.0
    while heap:
        t, kind, _, payload = heapq.heappop(heap)
        take_samples(t)
        span = max(0.0, min(t, workload.horizon) - last_t)
        metrics.integral_active += span * len(state.active)
        last_t = min(t, workload.horizon)   # events pop in time order

        if kind == _ARRIVAL:
            holding = (workload.holding if workload.holding_dist == "deterministic"
                       else float(rng_time.exponential(workload.holding)))
            slice_id = f"s{counter:06d}"
            counter += 1
            type_name, request = sample_request(rng_content, scenario, templates,
                                                slice_id, t, holding)
            metrics.offered[type_name] = metrics.offered.get(type_name, 0) + 1

            outcome: Embedding | Blocked
            if request is None:
                outcome = Blocked("unreachable_endpoints", "no sink candidate")
                elapsed_ms = 0.0
            else:
                snapshot = PriceSnapshot(pricing, net, state)
                t_solve = time.perf_counter()
                if engine == NL:
                    outcome, _ = solve_nl_detailed(
                        net, trust, state, request, snapshot,
                        time_limit_ms=time_limit_ms,
                        shared_vnf_per_slice=shared_vnf_per_slice)
                else:
                    outcome, _ = solve_pl_detailed(
                        net, trust, state, request, snapshot, k,
                        time_limit_ms=time_limit_ms)
                elapsed_ms = (time.perf_counter() - t_solve) * 1e3
            metrics.solve_ms.append(elapsed_ms)

            if isinstance(outcome, Blocked):
                metrics.blocked[type_name] = metrics.blocked.get(type_name, 0) + 1
                metrics.blocked_by_reason[outcome.reason] = \
                    metrics.blocked_by_reason.get(outcome.reason, 0) + 1
                if collect_events:
                    metrics.events.append({
                        "t": t, "kind": "arrival", "slice": slice_id,
                        "type": type_name, "outcome": "blocked",
                        "reason": outcome.reason})
            else:
                state.reserve(request, outcome, shared_vnf_per_slice)
                push(t + holding, _DEPARTURE, (slice_id, request))
                metrics.accepted_cost[type_name] = \
                    metrics.accepted_cost.get(type_name, 0.0) + outcome.total_cost
                if collect_events:
                    metrics.events.append({
                        "t": t, "kind": "arrival", "slice": slice_id,
                        "type": type_name, "outcome": "accepted",
                        "cost": outcome.total_cost,
                        "optimal": outcome.optimal,
                        "departs": t + holding})

            nxt = t + float(rng_time.exponential(1.0 / workload.rate))
            if nxt <= workload.horizon:
                push(nxt, _ARRIVAL, None)
        else:
            slice_id, request = payload
            state.release(slice_id)
            if collect_events:
                metrics.events.append({"t": t, "kind": "departure",
                                       "slice": slice_id})
        if check_conservation:
            verify_conservation()

    take_samples(workload.horizon)
    if last_t < workload.horizon:
        metrics.integral_active += (workload.horizon - last_t) * len(state.active)
    if check_conservation and (state.used_bw or state.used_node):
        raise AssertionError("residual state not restored after full drain")
    metrics.run_seconds = time.perf_counter() - t_start
    return metrics


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def write_run_outputs(run_dir, metrics: RunMetrics, config: dict) -> None:
    """Write metrics.csv, summary.json, optional events.jsonl, timing.json.

    Only timing.json contains wall-clock data; everything else is a pure
    function of (scenario, workload, config).
    """
    import os
    os.makedirs(run_dir, exist_ok=True)

    with open(os.path.join(run_dir, "metrics.csv"), "w") as fh:
        fh.write("metric,slice_type,value\n")
        for metric, scope, value in metrics.to_rows():
            fh.write(f"{metric},{scope},{_fmt(value)}\n")

    summary = {
        "config": config,
        "offered": metrics.offered_total(),
        "blocked": metrics.blocked_total(),
        "accepted": metrics.accepted_total(),
        "blocking_probability": metrics.blocking_probability(),
        "mean_accepted_cost": metrics.mean_accepted_cost(),
        "mean_concurrent_slices": metrics.mean_concurrent(),
        "blocked_by_reason": dict(sorted(metrics.blocked_by_reason.items())),
        "per_type": {
            name: {
                "offered": metrics.offered.get(name, 0),
                "blocked": metrics.blocked.get(name, 0),
                "blocking_probability": metrics.blocking_probability(name),
                "mean_accepted_cost": metrics.mean_accepted_cost(name),
            } for name in metrics._types()
        },
        "time_series": metrics.time_series,
    }
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")

    if metrics.events:
        with open(os.path.join(run_dir, "events.jsonl"), "w") as fh:
            for ev in metrics.events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")

    timing = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
              "run_seconds": metrics.run_seconds,
              "solve_time": metrics.solve_ms_stats()}
    with open(os.path.join(run_dir, "timing.json"), "w") as fh:
        json.dump(timing, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Multi-config comparison (common random numbers)
# ---------------------------------------------------------------------------

def _run_one(args):
    scenario_doc, config, out_dir = args
    scenario = scenario_from_dict(scenario_doc)
    workload = Workload.from_scenario(scenario, **{
        key: config.get(key) for key in ("lambda", "holding", "horizon", "seed")})
    pricing = PricingPolicy.from_config(
        {**scenario.pricing, **({"mode": config["pricing"]} if config.get("pricing") else {})})
    metrics = run(scenario, workload,
                  engine=config.get("engine", PL), pricing=pricing,
                  k=int(config.get("k", 8)),
                  time_limit_ms=config.get("time_limit_ms"),
                  collect_events=bool(config.get("events", False)))
    label = config.get("label") or f"{config.get('engine', PL)}-{pricing.mode}"
    run_dir = None
    if out_dir is not None:
        import os
        run_dir = os.path.join(out_dir, f"{config_hash(config)}-s{workload.seed}")
        write_run_outputs(run_dir, metrics, config)
    return label, config, metrics, run_dir


def compare(scenario_doc: dict, configs: list[dict], out_dir=None,
            max_workers: int | None = None):
    """Run several configs against the identical arrival trace.

    Returns [(label, config, RunMetrics, run_dir)] in input order. Honors
    the SLICEBED_THREADS env var as a worker-pool cap; runs sequentially
    when the pool would have one worker.
    """
    import os
    if len(configs) < 2:
        raise ScenarioError("compare needs at least 2 configs")
    cap = os.environ.get("SLICEBED_THREADS")
    workers = max_workers or (int(cap) if cap else (os.cpu_count() or 1))
    workers = max(1, min(workers, len(configs)))
    jobs = [(scenario_doc, cfg, out_dir) for cfg in configs]
    if workers == 1:
        return [_run_one(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


def comparison_rows(results) -> list[tuple[str, str, str, object]]:
    """Tidy (config, metric, slice_type, value) rows incl. pairwise deltas."""
    rows = []
    for label, _, metrics, _ in results:
        for metric, scope, value in metrics.to_rows():
            rows.append((label, metric, scope, value))
    for i, (la, _, ma, _) in enumerate(results):
        for lb, _, mb, _ in results[i + 1:]:
            pair = f"{la}-minus-{lb}"
            rows.append((pair, "blocking_probability_delta", "all",
                         ma.blocking_probability() - mb.blocking_probability()))
            rows.append((pair, "mean_accepted_cost_delta", "all",
                         ma.mean_accepted_cost() - mb.mean_accepted_cost()))
    return rows


def write_comparison(path, results) -> None:
    with open(path, "w") as fh:
        fh.write("config,metric,slice_type,value\n")
        for label, metric, scope, value in comparison_rows(results):
            fh.write(f"{label},{metric},{scope},{_fmt(value)}\n")
