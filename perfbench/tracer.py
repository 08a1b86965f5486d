"""Per-layer self time and counters for one traced slicebed run.

A layer is one module of the package. The tracer replaces the public
functions each module exposes at the names their callers look them up by
(``embed_pl.branch_and_bound`` rather than ``milp.branch_and_bound``), so the
program itself is unchanged, and ``installed`` puts the originals back on
exit. A span's self time is its duration minus the time of the spans it
called. Counters are read from arguments and results at the same boundaries;
the time spent reading them is booked to ``bench.overhead`` so that no layer
is charged for it and all self times still sum to the run's wall time.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from slicebed import embed_nl, embed_pl, paths, sim
from slicebed.model import ResidualState

# Every reason a Blocked outcome can carry (see model.Blocked).
BLOCK_REASONS = ("untrustable_request", "unreachable_endpoints",
                 "no_placement_nodes", "no_candidate_path", "infeasible",
                 "time_limit_no_incumbent")


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []      # child time of each open span
        self._topologies: set = set()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recorded as span ``name``; ``hook(args, result)`` counts."""
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
            if hook is not None:
                t1 = time.perf_counter()
                hook(args, result)
                spent = time.perf_counter() - t1
                self.self_s["bench.overhead"] += spent
                if self._open:
                    self._open[-1] += spent
            return result
        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def _slice(self, args, result):
        self.counts["sim.services"] += len(args[3].services)

    def _kept(self, args, result):
        self.counts["paths.candidates_kept"] += sum(len(c) for c in result.values())

    def _found(self, args, result):
        self.counts["paths.paths_found"] += len(result)

    def _topology(self, args, result):
        # The layered graph's nodes and edges depend only on these; the
        # service's endpoints and the prices do not change its shape.
        _, service, slc, allowed, _ = args
        key = (allowed, service.vnf_sequence,
               tuple(tuple(sorted(slc.vnf_catalog[f].deploy_nodes))
                     for f in service.vnf_sequence))
        self.counts["expand.topologies"] += 1
        if key in self._topologies:
            self.counts["expand.topology_repeats"] += 1
        self._topologies.add(key)
        self.counts["expand.edges"] += result.num_edges

    def _model(self, args, result):
        if isinstance(result, tuple):
            model = result[0]
            self.counts["milp.model_rows"] += len(model.constraints)
            self.counts["milp.model_cols"] += len(model.variables)
            self.counts["milp.model_nnz"] += sum(len(c.coeffs) for c in model.constraints)

    def _nodes(self, args, result):
        self.counts["milp.bnb_nodes"] += result.node_count

    def layers(self):
        """(owner, attribute, span name, counter) for every traced function."""
        return [
            (sim, "sample_request", "sim.sample_request", None),
            (sim, "PriceSnapshot", "pricing.snapshot", None),
            (sim, "solve_pl_detailed", "embed_pl.solve_pl_detailed", self._slice),
            (sim, "solve_nl_detailed", "embed_nl.solve_nl_detailed", self._slice),
            (embed_pl, "generate_candidates", "paths.generate_candidates", self._kept),
            (embed_pl, "build_pl", "embed_pl.build_pl", self._model),
            (embed_pl, "branch_and_bound", "milp.branch_and_bound", self._nodes),
            (embed_pl, "decode_pl", "embed_pl.decode_pl", None),
            (embed_nl, "build_nl", "embed_nl.build_nl", self._model),
            (embed_nl, "branch_and_bound", "milp.branch_and_bound", self._nodes),
            (embed_nl, "decode_nl", "embed_nl.decode_nl", None),
            (paths, "build_expanded", "expand.build_expanded", self._topology),
            (paths, "k_shortest_paths", "paths.k_shortest_paths", self._found),
            (paths, "candidate_from_path", "paths.candidate_from_path", None),
            (ResidualState, "reserve", "model.reserve", None),
            (ResidualState, "release", "model.release", None),
        ]

    # -- report ------------------------------------------------------------

    def metrics(self, wall_s: float, blocked_by_reason: dict) -> dict:
        """Per-layer metrics as name -> (value, unit).

        ``sim.loop`` is the span around ``sim.run`` itself, so its self time
        is the run wall minus every other layer's self time.
        """
        ms = {name: s * 1e3 for name, s in self.self_s.items()}
        c = self.counts
        spans = dict.fromkeys([name for _, _, name, _ in self.layers()] + ["sim.loop"])
        out = {f"{name}.self_ms": (ms.get(name, 0.0), "ms") for name in spans}
        for name in ("paths.k_shortest_paths", "milp.branch_and_bound",
                     "expand.build_expanded", "pricing.snapshot",
                     "model.reserve", "model.release"):
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
        solves = (self.calls.get("embed_pl.solve_pl_detailed", 0)
                  + self.calls.get("embed_nl.solve_nl_detailed", 0))
        bnb_calls = self.calls.get("milp.branch_and_bound", 0)
        out.update({
            "paths.paths_found": (c["paths.paths_found"], "count"),
            "paths.candidates_kept": (c["paths.candidates_kept"], "count"),
            "paths.kept_ratio": (_share(c["paths.candidates_kept"],
                                        c["paths.paths_found"]), "ratio"),
            "milp.bnb_nodes": (c["milp.bnb_nodes"], "count"),
            "milp.bnb_nodes_per_solve": (_share(c["milp.bnb_nodes"], bnb_calls), "count"),
            "milp.ms_per_bnb_node": (_share(ms.get("milp.branch_and_bound", 0.0),
                                            c["milp.bnb_nodes"]), "ms"),
            "milp.model_rows": (c["milp.model_rows"], "count"),
            "milp.model_cols": (c["milp.model_cols"], "count"),
            "milp.model_nnz": (c["milp.model_nnz"], "count"),
            "expand.edges": (c["expand.edges"], "count"),
            "expand.topology_repeat_share": (
                _share(c["expand.topology_repeats"], c["expand.topologies"]), "ratio"),
            "sim.services_per_slice": (_share(c["sim.services"], solves), "count"),
            "trace.self_time_share": (_share(sum(self.self_s.values()), wall_s), "ratio"),
        })
        for reason in BLOCK_REASONS:
            out[f"sim.blocked.{reason}"] = (blocked_by_reason.get(reason, 0), "count")
        return out


@contextmanager
def installed(tracer: Tracer):
    """Route every layer's public functions through ``tracer``; restore on exit."""
    saved = []
    try:
        for owner, attr, name, hook in tracer.layers():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
