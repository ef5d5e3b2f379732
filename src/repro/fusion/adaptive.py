"""Adaptive fusion protocol (paper §4.3, "Adaptive Fusion Triggering").

The loop the paper describes:

① *Identify critical fusions* — rank fused kernels by their fusion penalty
   and take the top candidates.
② *Split feasibility check* — a candidate splits only if the sub-kernels
   recover enough capacity: ``C_v1 + C_v2 >= (1 + α) · C_fused``.
③ *Iterative refinement* — rebuild the graph with the splits applied and
   re-invoke the LC-OPG solver; repeat while the plan still shows
   fusion-induced preload pressure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.capacity.model import LoadCapacityModel
from repro.fusion.fuser import fuse_graph, is_fused, unfuse_node
from repro.fusion.penalty import fusion_penalties, plan_pressure
from repro.graph.dag import Graph
from repro.opg.lcopg import LcOpgSolver
from repro.opg.plan import OverlapPlan


@dataclass
class AdaptiveFusionReport:
    """Trace of the adaptive loop."""

    iterations: int = 0
    splits_applied: int = 0
    splits_rejected: int = 0
    pressure_history: List[float] = field(default_factory=list)
    #: Per-solver-invocation compile breakdown (one dict per LC-OPG solve in
    #: the loop): window reuse counts and the phase wall-clock split.  This
    #: is where the incremental-compile win shows up — iterations after the
    #: first should report most windows reused and near-zero CP/prover time.
    solver_iterations: List[Dict[str, object]] = field(default_factory=list)

    @property
    def total_windows(self) -> int:
        return sum(int(it["windows"]) for it in self.solver_iterations)

    @property
    def total_windows_reused(self) -> int:
        return sum(int(it["windows_reused"]) for it in self.solver_iterations)

    @property
    def window_reuse_rate(self) -> float:
        total = self.total_windows
        return self.total_windows_reused / total if total else 0.0


def _solver_iteration_record(iteration: int, plan: OverlapPlan) -> Dict[str, object]:
    """Flatten one solve's PlanStats into the report's per-iteration row."""
    s = plan.stats
    return {
        "iteration": iteration,
        "status": s.solver_status,
        "windows": s.windows,
        "windows_reused": s.windows_reused,
        "process_nodes_s": round(s.process_nodes_s, 6),
        "structural_windows": s.structural_windows,
        "cp_windows": s.cp_windows,
        "solve_s": round(s.solve_s, 6),
        "build_model_s": round(s.build_model_s, 6),
        "cp_solve_s": round(s.cp_solve_s, 6),
        "exact_prover_s": round(s.exact_prover_s, 6),
        "greedy_s": round(s.greedy_s, 6),
        "edf_calls": s.edf_calls,
        "nodes_explored": s.nodes_explored,
    }


def split_feasible(
    spec, capacity_model: LoadCapacityModel, *, alpha: float = 0.25
) -> Optional[Tuple[object, object]]:
    """Check §4.3's capacity-gain condition for splitting a fused node.

    Returns the (head, tail) sub-specs when
    ``C_head + C_tail >= (1 + alpha) * C_fused``, else None.
    """
    if not is_fused(spec):
        return None
    parts = unfuse_node(spec)
    if len(parts) < 2:
        return None
    head, tail = parts[0], parts[1]
    c_fused = capacity_model.capacity_bytes(spec)
    c_split = capacity_model.capacity_bytes(head) + capacity_model.capacity_bytes(tail)
    if c_split >= (1.0 + alpha) * max(1, c_fused):
        return head, tail
    return None


def apply_splits(graph: Graph, splits: Dict[str, Tuple[object, object]]) -> Graph:
    """Rebuild ``graph`` with the given fused nodes replaced by (head, tail)."""
    graph.freeze()
    out = Graph(graph.name)
    for cache in graph.kv_cache_specs():
        out.register_kv_cache(cache)
    mapping: Dict[str, object] = {}
    for node in graph.nodes():
        inputs = [mapping[p.name] for p in node.inputs]
        if node.name in splits:
            head, tail = splits[node.name]
            head_node = out.add(head, inputs=inputs)
            tail_node = out.add(tail, inputs=[head_node])
            mapping[node.name] = tail_node
        else:
            mapping[node.name] = out.add(node.spec, inputs=inputs)
    return out.freeze()


class AdaptiveFusionPlanner:
    """Fusion + LC-OPG co-optimisation.

    ``plan()`` returns the final (graph, plan, report) triple: the fused
    graph after any splits, its overlap plan, and the loop trace.
    """

    def __init__(
        self,
        solver: LcOpgSolver,
        capacity_model: LoadCapacityModel,
        *,
        max_iterations: int = 6,
        top_candidates: int = 16,
        pressure_threshold: float = 0.02,
    ) -> None:
        self.solver = solver
        self.capacity_model = capacity_model
        self.max_iterations = max_iterations
        self.top_candidates = top_candidates
        self.pressure_threshold = pressure_threshold

    def plan(self, graph: Graph, *, device_name: str = "") -> Tuple[Graph, OverlapPlan, AdaptiveFusionReport]:
        report = AdaptiveFusionReport()
        cfg = self.solver.config
        fused = fuse_graph(graph)
        plan = self.solver.solve(fused, self.capacity_model, device_name=device_name)
        report.solver_iterations.append(_solver_iteration_record(0, plan))
        report.pressure_history.append(plan_pressure(plan, fused))
        best = (fused, plan, report.pressure_history[-1])

        while report.iterations < self.max_iterations:
            pressure = report.pressure_history[-1]
            if pressure <= self.pressure_threshold:
                break
            # ① identify critical fusions
            candidates = fusion_penalties(fused, plan, lam=cfg.lam, mu=cfg.mu)[: self.top_candidates]
            if not candidates:
                break
            # ② split feasibility check — one lockstep capacity batch over
            # every candidate's fused spec and its (head, tail) sub-specs
            # instead of per-candidate sequential bisections (the per-op
            # memo makes repeat candidates across iterations free).
            splits: Dict[str, Tuple[object, object]] = {}
            triples: List[Tuple[str, object, object, object]] = []
            for cand in candidates:
                spec = fused.node(cand.node).spec
                parts = unfuse_node(spec) if is_fused(spec) else []
                if len(parts) < 2:
                    report.splits_rejected += 1
                    continue
                triples.append((cand.node, spec, parts[0], parts[1]))
            if triples:
                caps = self.capacity_model.capacity_bytes_batch(
                    [op for t in triples for op in t[1:]]
                )
                for i, (name, _, head, tail) in enumerate(triples):
                    c_fused, c_head, c_tail = caps[3 * i : 3 * i + 3]
                    if c_head + c_tail >= (1.0 + cfg.alpha) * max(1, c_fused):
                        splits[name] = (head, tail)
                    else:
                        report.splits_rejected += 1
            if not splits:
                break
            # ③ iterative refinement
            fused = apply_splits(fused, splits)
            report.splits_applied += len(splits)
            report.iterations += 1
            plan = self.solver.solve(fused, self.capacity_model, device_name=device_name)
            report.solver_iterations.append(_solver_iteration_record(report.iterations, plan))
            new_pressure = plan_pressure(plan, fused)
            report.pressure_history.append(new_pressure)
            if new_pressure < best[2]:
                best = (fused, plan, new_pressure)
            if new_pressure >= pressure:
                break  # no improvement; stop refining
        fused, plan, _ = best
        return fused, plan, report
