"""Trust-aware embedding of network slices across administrative domains.

Two per-request ILP engines — the exact Node-Link formulation and the fast
Path-Link formulation over k-shortest candidate paths on a layered search
graph — plus congestion-responsive pricing and an online discrete-event
simulator for blocking/cost/runtime studies.
"""

from .model import (Blocked, Embedding, Footprint, LedgerError, PhysicalNetwork,
                    ResidualState, Scenario, ScenarioError, ServiceChain,
                    ServiceEmbedding, SliceRequest, TrustRelation,
                    UntrustableRequest, allowed_operators, check_embedding,
                    embedding_footprint, load_request, load_scenario,
                    request_from_dict, scenario_from_dict)
from .pricing import PricingPolicy, PriceSnapshot, congestion_multiplier
from .expand import ExpandedNetwork, UnreachableEndpoints, build_expanded, map_back
from .paths import CandidatePath, generate_candidates, k_shortest_paths
from .milp import IlpModel, IlpSolution, MilpError, branch_and_bound
from .embed_nl import build_nl, solve_nl
from .embed_pl import build_pl, solve_pl
from .sim import (RunMetrics, ScenarioGen, Workload, compare, generate_scenario,
                  run)

__version__ = "0.1.0"

__all__ = [
    "Blocked", "CandidatePath", "Embedding", "ExpandedNetwork", "Footprint",
    "IlpModel", "IlpSolution", "LedgerError", "MilpError", "PhysicalNetwork",
    "PricingPolicy", "PriceSnapshot", "ResidualState", "RunMetrics", "Scenario",
    "ScenarioError", "ScenarioGen", "ServiceChain", "ServiceEmbedding",
    "SliceRequest", "TrustRelation", "UnreachableEndpoints",
    "UntrustableRequest", "Workload", "allowed_operators", "branch_and_bound",
    "build_expanded", "build_nl", "build_pl", "check_embedding", "compare",
    "congestion_multiplier", "embedding_footprint", "generate_candidates",
    "generate_scenario", "k_shortest_paths", "load_request", "load_scenario",
    "map_back", "request_from_dict", "run", "scenario_from_dict", "solve_nl",
    "solve_pl",
]
