"""Post-hoc validation of overlap plans against the OPG constraints.

Every plan the solver emits can be independently checked for C0-C4 plus
basic sanity (transforms strictly before consumption, loads no later than
first transform).  The test suite and the repository benchmark call it;
the runtime does not — a plan that fails validation is a solver bug, not a
runtime condition.
"""

from __future__ import annotations

from typing import Dict, List

from repro.opg.plan import OverlapPlan
from repro.opg.problem import OpgProblem


def validate_plan(plan: OverlapPlan, problem: OpgProblem, *, allow_soft_capacity: bool = True) -> List[str]:
    """Return a list of violation descriptions (empty == valid).

    ``allow_soft_capacity`` admits the C4 soft-thresholding relaxation: C3
    is checked against C_l scaled by the configured soft factor raised to
    the configured round limit.
    """
    errors: List[str] = []
    cfg = problem.config
    weight_info = {w.name: w for w in problem.weights}

    # Every problem weight must be scheduled, and nothing extra.
    missing = set(weight_info) - set(plan.schedules)
    extra = set(plan.schedules) - set(weight_info)
    for name in sorted(missing):
        errors.append(f"weight {name!r} has no schedule")
    for name in sorted(extra):
        errors.append(f"schedule for unknown weight {name!r}")

    per_layer_chunks: Dict[int, int] = {}
    for name, sched in plan.schedules.items():
        info = weight_info.get(name)
        if info is None:
            continue
        if sched.preloaded:
            if sched.transforms:
                errors.append(f"{name}: preloaded weight has transform assignments")
            continue
        if sched.dedicated_transform:
            if sched.transforms:
                errors.append(f"{name}: dedicated-transform weight has embedded segments")
            if not 0 <= sched.load_layer <= info.consumer_layer:
                errors.append(f"{name}: dedicated load layer {sched.load_layer} out of range")
            if not info.dedicated_transform:
                errors.append(f"{name}: marked dedicated but consumer is not a convolution")
            continue
        # C0 — completeness of allocation.
        if sched.streamed_chunks != info.total_chunks:
            errors.append(
                f"{name}: C0 violated — {sched.streamed_chunks} chunks assigned, T(w)={info.total_chunks}"
            )
        if info.forced_preload:
            errors.append(f"{name}: streamed but has no candidate layers (must be in W)")
        for layer, chunks in sched.transforms.items():
            if chunks <= 0:
                errors.append(f"{name}: non-positive chunk count at layer {layer}")
            if layer >= info.consumer_layer:
                errors.append(f"{name}: transform at layer {layer} not before consumer {info.consumer_layer}")
            if layer < info.consumer_layer - cfg.long_lookback:
                errors.append(f"{name}: transform at layer {layer} outside the long lookback horizon")
            per_layer_chunks[layer] = per_layer_chunks.get(layer, 0) + chunks
        # C1 — the load must be issued no later than the first transform.
        if sched.transforms and sched.load_layer > min(sched.transforms):
            errors.append(
                f"{name}: C1 violated — load at {sched.load_layer} after first transform {min(sched.transforms)}"
            )

    # C2 / C3 — per-layer transform volume and capacity.
    soft_factor = cfg.soft_threshold_factor ** cfg.max_soft_rounds if allow_soft_capacity else 1.0
    for layer, chunks in sorted(per_layer_chunks.items()):
        if chunks > problem.layer_m_peak[layer]:
            errors.append(
                f"layer {layer}: C2 violated — {chunks} chunks exceed M_peak {problem.layer_m_peak[layer]}"
            )
        limit = int(problem.layer_capacity[layer] * soft_factor)
        if chunks > limit:
            errors.append(
                f"layer {layer}: C3 violated — {chunks} chunks exceed capacity {limit}"
            )
    return errors
