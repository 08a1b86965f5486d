"""Self-contained binary linear programming core.

Model container, LP relaxation via a bounded-variable two-phase simplex,
and exact branch-and-bound. Every column has finite bounds, so no program is
unbounded. Both embedding formulations are solved through this module; the
exhaustive-enumeration oracle, the LP-relaxation entry point and the LP-file
dump that only the tests use live in ``tests/oracles.py``.

Tolerances: eps_feas = 1e-6 on constraints, eps_int = 1e-6 on integrality,
eps_obj = 1e-6 relative on objectives.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

BINARY = "binary"
CONTINUOUS = "continuous"

EPS_FEAS = 1e-6
EPS_INT = 1e-6
EPS_OBJ = 1e-6

# internal simplex tolerances
_TOL_RC = 1e-9       # reduced-cost eligibility
_TOL_PIV = 1e-9      # smallest acceptable pivot element
_TOL_RATIO = 1e-10   # degenerate step threshold
_BLAND_AFTER = 1000  # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 300


class MilpError(Exception):
    """Invalid model or solver misuse."""


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lb: float
    ub: float
    obj: float


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[tuple[int, float], ...]
    relation: str            # "<=", "=" or ">="
    rhs: float
    name: str = ""


class IlpModel:
    """Minimization program over binary and continuous variables, each with
    finite bounds."""

    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []

    def add_variable(self, name: str, kind: str = BINARY, lb: float = 0.0,
                     ub: float = 1.0, obj: float = 0.0) -> int:
        if kind not in (BINARY, CONTINUOUS):
            raise MilpError(f"unknown variable kind '{kind}'")
        if not (np.isfinite(lb) and np.isfinite(ub)):
            raise MilpError(f"variable {name}: bounds must be finite")
        if kind == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        if not np.isfinite(obj):
            raise MilpError(f"variable {name}: objective coefficient must be finite")
        self.variables.append(Variable(name, kind, float(lb), float(ub), float(obj)))
        return len(self.variables) - 1

    def add_constraint(self, coeffs, relation: str, rhs: float, name: str = "") -> int:
        if relation not in ("<=", "=", ">="):
            raise MilpError(f"unknown relation '{relation}'")
        if not np.isfinite(rhs):
            raise MilpError(f"constraint {name or len(self.constraints)}: rhs must be finite")
        items = sorted(coeffs.items()) if isinstance(coeffs, dict) else sorted(coeffs)
        for idx, coef in items:
            if not 0 <= idx < len(self.variables):
                raise MilpError(f"constraint references unknown variable {idx}")
            if not np.isfinite(coef):
                raise MilpError(f"constraint coefficient for variable {idx} must be finite")
        self.constraints.append(Constraint(tuple(items), relation, float(rhs), name))
        return len(self.constraints) - 1

    @property
    def num_binaries(self) -> int:
        return sum(1 for v in self.variables if v.kind == BINARY)

    def arrays(self):
        """Dense (c, A, relations, b, lb, ub) view of the model."""
        n = len(self.variables)
        m = len(self.constraints)
        c = np.array([v.obj for v in self.variables], dtype=float)
        lb = np.array([v.lb for v in self.variables], dtype=float)
        ub = np.array([v.ub for v in self.variables], dtype=float)
        A = np.zeros((m, n), dtype=float)
        b = np.empty(m, dtype=float)
        rel = []
        for i, row in enumerate(self.constraints):
            for j, coef in row.coeffs:
                A[i, j] += coef
            b[i] = row.rhs
            rel.append(row.relation)
        return c, A, rel, b, lb, ub

    def objective_value(self, x) -> float:
        return float(np.dot([v.obj for v in self.variables], x))


@dataclass
class IlpSolution:
    status: str                       # optimal | infeasible | time_limit_best_incumbent
    assignment: np.ndarray | None
    objective: float | None
    node_count: int = 0
    wall_time: float = 0.0


@dataclass
class LpResult:
    status: str                       # optimal | infeasible | failure
    x: np.ndarray | None
    objective: float | None


# ---------------------------------------------------------------------------
# Bounded-variable two-phase simplex
# ---------------------------------------------------------------------------

class _Simplex:
    """Dense revised simplex with implicit variable bounds.

    Columns are structural variables with finite bounds, one slack per row,
    one artificial per row. Phase 1 starts from an all-artificial basis;
    phase 2 fixes the artificials to zero. Dantzig pricing with largest-pivot
    row selection, switching permanently to Bland's rule after a run of
    degenerate pivots.
    """

    def __init__(self, c, A, relations, b, lb, ub):
        m, n = A.shape
        self.m, self.n = m, n
        slack_lb = np.zeros(m)
        slack_ub = np.zeros(m)
        for i, r in enumerate(relations):
            if r == "<=":
                slack_lb[i], slack_ub[i] = 0.0, np.inf
            elif r == ">=":
                slack_lb[i], slack_ub[i] = -np.inf, 0.0
            else:
                slack_lb[i], slack_ub[i] = 0.0, 0.0

        self.L = np.concatenate([lb, slack_lb, np.zeros(m)])
        self.U = np.concatenate([ub, slack_ub, np.full(m, np.inf)])
        self.cost2 = np.concatenate([c, np.zeros(2 * m)])

        # nonbasic start: columns at their (finite) lower bound, slacks at
        # zero, which is the upper bound of a ">=" row's slack
        r = b - A @ lb
        sign = np.where(r >= 0, 1.0, -1.0)

        self.Afull = np.zeros((m, n + 2 * m))
        self.Afull[:, :n] = A
        self.Afull[np.arange(m), n + np.arange(m)] = 1.0
        self.Afull[np.arange(m), n + m + np.arange(m)] = sign

        self.value = np.concatenate([lb, np.zeros(m), np.abs(r)])
        self.at_upper = np.concatenate([np.zeros(n, dtype=bool), np.isinf(slack_lb),
                                        np.zeros(m, dtype=bool)])
        self.basis = np.arange(n + m, n + 2 * m)
        self.in_basis = np.zeros(n + 2 * m, dtype=bool)
        self.in_basis[self.basis] = True
        self.banned = np.zeros(n + 2 * m, dtype=bool)
        self.Binv = np.diag(sign)
        self.b = b.astype(float)

        self.bland = False
        self.degenerate_run = 0
        self.pivots = 0

    def _refactor(self):
        try:
            self.Binv = np.linalg.inv(self.Afull[:, self.basis])
        except np.linalg.LinAlgError:
            return False
        nb_value = self.value.copy()
        nb_value[self.basis] = 0.0
        rhs = self.b - self.Afull @ nb_value
        self.value[self.basis] = self.Binv @ rhs
        return True

    def _iterate(self, cost, max_iter):
        """Run pivots until optimal for ``cost``. Returns a status string."""
        m = self.m
        for _ in range(max_iter):
            y = cost[self.basis] @ self.Binv
            d = cost - y @ self.Afull

            gap_ok = (self.U - self.L) > 0
            candidate = ~self.in_basis & ~self.banned & gap_ok
            lo_side = candidate & ~self.at_upper
            hi_side = candidate & self.at_upper
            improving = np.zeros(len(d))
            improving[lo_side] = np.maximum(0.0, -d[lo_side])
            improving[hi_side] = np.maximum(0.0, d[hi_side])
            eligible = improving > _TOL_RC
            if not eligible.any():
                return "optimal"

            if self.bland:
                j = int(np.argmax(eligible))        # first eligible index
            else:
                j = int(np.argmax(improving))
            direction = -1.0 if self.at_upper[j] else 1.0

            w = self.Binv @ self.Afull[:, j]
            move = -direction * w                    # change of basic values per unit step

            t_best = np.inf
            leave_pos = -1
            bvars = self.basis
            bvals = self.value[bvars]
            with np.errstate(divide="ignore", invalid="ignore"):
                dec = move < -_TOL_PIV
                inc = move > _TOL_PIV
                ratios = np.full(m, np.inf)
                lo = self.L[bvars]
                hi = self.U[bvars]
                ratios[dec] = np.where(np.isfinite(lo[dec]),
                                       (bvals[dec] - lo[dec]) / (-move[dec]), np.inf)
                ratios[inc] = np.where(np.isfinite(hi[inc]),
                                       (hi[inc] - bvals[inc]) / move[inc], np.inf)
            ratios = np.maximum(ratios, 0.0)
            if ratios.size:
                t_best = float(ratios.min())
                tie = np.flatnonzero(ratios <= t_best + _TOL_RATIO)
                if tie.size:
                    if self.bland:
                        leave_pos = int(tie[np.argmin(bvars[tie])])
                    else:
                        leave_pos = int(tie[np.argmax(np.abs(w[tie]))])

            gap_j = self.U[j] - self.L[j]
            flip = np.isfinite(gap_j) and gap_j <= t_best + _TOL_RATIO
            step = min(t_best, gap_j) if np.isfinite(gap_j) else t_best

            if not np.isfinite(step):
                return "failure"        # no column or basic value bounds the step

            self.pivots += 1
            if step <= _TOL_RATIO:
                self.degenerate_run += 1
                if self.degenerate_run > _BLAND_AFTER:
                    self.bland = True
            else:
                self.degenerate_run = 0

            if step > 0:
                self.value[bvars] = bvals + step * move
                self.value[j] += direction * step

            if flip:
                self.at_upper[j] = ~self.at_upper[j]
                self.value[j] = self.U[j] if self.at_upper[j] else self.L[j]
                continue

            leaving = int(bvars[leave_pos])
            hit_upper = move[leave_pos] > 0
            self.value[leaving] = self.U[leaving] if hit_upper else self.L[leaving]
            self.at_upper[leaving] = hit_upper
            self.in_basis[leaving] = False
            self.in_basis[j] = True
            self.basis[leave_pos] = j

            # eta update of the basis inverse
            wr = w[leave_pos]
            if abs(wr) < _TOL_PIV:
                if not self._refactor():
                    return "failure"
                continue
            row = self.Binv[leave_pos, :] / wr
            self.Binv -= np.outer(w, row)
            self.Binv[leave_pos, :] = row

            if self.pivots % _REFACTOR_EVERY == 0:
                if not self._refactor():
                    return "failure"
        return "failure"

    def solve(self):
        m, n = self.m, self.n
        max_iter = 2000 + 40 * (m + n + m)

        # phase 1: drive artificial variables to zero
        phase1_cost = np.zeros(n + 2 * m)
        phase1_cost[n + 2 * m - m:] = 1.0
        status = self._iterate(phase1_cost, max_iter)
        if status == "failure":
            return "failure", None, None
        art0 = n + m
        infeas = float(self.value[art0:].sum())
        if infeas > EPS_FEAS * (1.0 + np.abs(self.b).max(initial=0.0)):
            return "infeasible", None, None

        # fix artificials at zero and pivot them out of the basis when possible
        self.L[art0:] = 0.0
        self.U[art0:] = 0.0
        self.banned[art0:] = True
        for pos in range(m):
            var = self.basis[pos]
            if var < art0:
                continue
            row = self.Binv[pos, :] @ self.Afull[:, :art0]
            row[self.in_basis[:art0]] = 0.0
            row[self.banned[:art0]] = 0.0
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) <= 1e-7:
                continue        # redundant row, artificial stays basic at zero
            w = self.Binv @ self.Afull[:, j]
            self.value[var] = 0.0
            self.at_upper[var] = False
            self.in_basis[var] = False
            self.in_basis[j] = True
            self.basis[pos] = j
            wr = w[pos]
            raw = self.Binv[pos, :] / wr
            self.Binv -= np.outer(w, raw)
            self.Binv[pos, :] = raw

        if self._iterate(self.cost2, max_iter) == "failure":
            return "failure", None, None

        if not self._refactor():
            return "failure", None, None
        x = self.value[:n].copy()
        obj = float(self.cost2[:n] @ x)
        return "optimal", x, obj


def _solve_lp_arrays(c, A, relations, b, lb, ub) -> LpResult:
    if A.shape[0] == 0:
        x = np.where(c < 0, ub, lb)
        return LpResult("optimal", x, float(c @ x))
    if np.any(lb > ub):
        return LpResult("infeasible", None, None)
    status, x, obj = _Simplex(c, A, relations, b, lb, ub).solve()
    return LpResult(status, x, obj)


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def branch_and_bound(model: IlpModel, time_limit_ms: float | None = None) -> IlpSolution:
    """Exact best-first branch-and-bound over the binary variables.

    Branches on the most fractional binary; an initial depth-first dive
    produces the first incumbent. Deterministic for a given model. On time
    limit, returns the best incumbent found with an honest status.
    """
    t0 = time.perf_counter()
    c, A, rel, b, lb0, ub0 = model.arrays()
    bin_idx = np.array([i for i, v in enumerate(model.variables) if v.kind == BINARY],
                       dtype=int)
    nodes = 0

    def out_of_time():
        return time_limit_ms is not None and (time.perf_counter() - t0) * 1000 > time_limit_ms

    def lp(lb, ub):
        nonlocal nodes
        nodes += 1
        return _solve_lp_arrays(c, A, rel, b, lb, ub)

    def fractional(x):
        """Index of the most fractional binary, or -1 if all are integral."""
        if bin_idx.size == 0:
            return -1
        vals = x[bin_idx]
        f = np.abs(vals - np.round(vals))
        cand = np.flatnonzero(f > EPS_INT)
        if cand.size == 0:
            return -1
        scores = np.minimum(vals[cand], 1.0 - vals[cand])
        return int(bin_idx[cand[int(np.argmax(scores))]])

    incumbent_x = None
    incumbent_obj = np.inf

    def finish(status):
        wall = time.perf_counter() - t0
        if incumbent_x is None:
            return IlpSolution(status, None, None, nodes, wall)
        return IlpSolution(status, incumbent_x,
                           float(c @ incumbent_x), nodes, wall)

    def accept(x):
        nonlocal incumbent_x, incumbent_obj
        xi = x.copy()
        xi[bin_idx] = np.round(xi[bin_idx])
        obj = float(c @ xi)
        if obj < incumbent_obj - 1e-12:
            incumbent_obj = obj
            incumbent_x = xi

    root = lp(lb0, ub0)
    if root.status == "failure":
        raise MilpError("LP relaxation failed numerically at the root")
    if root.status == "infeasible":
        return finish("infeasible")

    heap: list = []
    seq = 0

    def push(bound, lb, ub):
        nonlocal seq
        heapq.heappush(heap, (bound, seq, lb, ub))
        seq += 1

    # depth-first dive for the first incumbent
    cur = (root, lb0.copy(), ub0.copy())
    while cur is not None:
        res, lb, ub = cur
        j = fractional(res.x)
        if j < 0:
            accept(res.x)
            break
        near = 1.0 if res.x[j] >= 0.5 else 0.0
        lb_far, ub_far = lb.copy(), ub.copy()
        if near == 1.0:
            lb_far[j], ub_far[j] = 0.0, 0.0
        else:
            lb_far[j], ub_far[j] = 1.0, 1.0
        push(res.objective, lb_far, ub_far)
        lb2, ub2 = lb.copy(), ub.copy()
        lb2[j] = ub2[j] = near
        if out_of_time():
            return finish("time_limit_best_incumbent")
        child = lp(lb2, ub2)
        if child.status == "failure":
            raise MilpError("LP relaxation failed numerically during dive")
        if child.status == "infeasible":
            break
        if incumbent_x is not None and child.objective >= incumbent_obj - 1e-12:
            break
        cur = (child, lb2, ub2)

    # best-first processing of the open nodes
    while heap:
        if out_of_time():
            return finish("time_limit_best_incumbent")
        bound, _, lb, ub = heapq.heappop(heap)
        if incumbent_x is not None:
            scale = max(1.0, abs(incumbent_obj))
            if bound >= incumbent_obj - 1e-9 * scale:
                break
        res = lp(lb, ub)
        if res.status == "failure":
            raise MilpError("LP relaxation failed numerically in branch-and-bound")
        if res.status == "infeasible":
            continue
        if incumbent_x is not None and res.objective >= incumbent_obj - 1e-12:
            continue
        j = fractional(res.x)
        if j < 0:
            accept(res.x)
            continue
        for fix in (1.0 if res.x[j] >= 0.5 else 0.0,
                    0.0 if res.x[j] >= 0.5 else 1.0):
            lb2, ub2 = lb.copy(), ub.copy()
            lb2[j] = ub2[j] = fix
            push(res.objective, lb2, ub2)

    if incumbent_x is None:
        return finish("infeasible")
    return finish("optimal")
