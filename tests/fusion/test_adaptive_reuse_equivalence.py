"""Equivalence: incremental (reuse-on) adaptive fusion ≡ from-scratch.

The acceptance bar for the window-reuse cache: across the adaptive-fusion
loop, plans produced with the cache enabled must be *identical* — same
schedules, same per-iteration solver statuses, same preload sets — to
plans produced by solving every window from scratch. Any divergence means
a fingerprint under-keys some solver input.

Runs the real planner (not synthetic windows) over 3 models x 2 devices
at a fast config, plus one large-model case at the experiment config
where replay is known to actually fire.
"""

import dataclasses

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.fusion.adaptive import AdaptiveFusionPlanner
from repro.gpusim.device import get_device
from repro.graph.lowering import eliminate_layout_ops
from repro.graph.models.zoo import load_model
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig

FAST = OpgConfig(time_limit_s=1.5, max_nodes_per_window=300)

CASES = [
    ("ResNet50", "OnePlus 12"),
    ("ResNet50", "Pixel 8"),
    ("ViT", "OnePlus 12"),
    ("ViT", "Pixel 8"),
    ("GPTN-S", "OnePlus 12"),
    ("GPTN-S", "Pixel 8"),
]

#: Models whose windows still reach CP search at FAST; every window of the
#: vision models is certified by the structural tier.
CP_MODELS = {"GPTN-S"}


def _total(report, key):
    return sum(int(r[key]) for r in report.solver_iterations)


def _plan(model, device, config):
    graph = eliminate_layout_ops(load_model(model))
    capacity = analytic_capacity_model(get_device(device))
    solver = LcOpgSolver(config)
    planner = AdaptiveFusionPlanner(solver, capacity, max_iterations=4)
    fused, plan, report = planner.plan(graph, device_name=device)
    return fused, plan, report, solver


def _preload_set(plan):
    return {name for name, sched in plan.schedules.items() if sched.preloaded}


@pytest.mark.parametrize("model,device", CASES, ids=[f"{m}-{d}" for m, d in CASES])
def test_plans_identical_with_and_without_reuse(model, device):
    on_cfg = FAST
    off_cfg = dataclasses.replace(FAST, window_reuse=False)
    fused_on, plan_on, report_on, solver_on = _plan(model, device, on_cfg)
    fused_off, plan_off, report_off, solver_off = _plan(model, device, off_cfg)

    assert solver_on.window_cache is not None
    assert solver_off.window_cache is None

    # Same fusion trajectory...
    assert report_on.iterations == report_off.iterations
    assert report_on.splits_applied == report_off.splits_applied
    assert fused_on.num_layers == fused_off.num_layers
    # ...the identical final plan...
    assert plan_on.schedules == plan_off.schedules
    assert _preload_set(plan_on) == _preload_set(plan_off)
    assert plan_on.stats.solver_status == plan_off.stats.solver_status
    # ...and identical per-iteration solver outcomes along the way.
    statuses_on = [r["status"] for r in report_on.solver_iterations]
    statuses_off = [r["status"] for r in report_off.solver_iterations]
    assert statuses_on == statuses_off
    windows_on = [r["windows"] for r in report_on.solver_iterations]
    windows_off = [r["windows"] for r in report_off.solver_iterations]
    assert windows_on == windows_off
    # The reuse-off run must really have replayed nothing.
    assert report_off.total_windows_reused == 0
    # Replay covers structurally certified windows, and CP-searched ones
    # where the model has any.
    assert _total(report_off, "structural_windows") > 0
    if model in CP_MODELS:
        assert _total(report_off, "cp_windows") > 0


def test_reuse_fires_on_iterating_large_model():
    """GPTN-2.7B at the experiment config iterates enough for stable
    windows to replay — the case the cache exists for."""
    config = OpgConfig(time_limit_s=3.0, max_nodes_per_window=500)
    _, plan_on, report_on, solver_on = _plan("GPTN-2.7B", "OnePlus 12", config)
    _, plan_off, _, _ = _plan(
        "GPTN-2.7B", "OnePlus 12", dataclasses.replace(config, window_reuse=False)
    )
    assert report_on.total_windows_reused > 0
    assert solver_on.window_cache.hits == report_on.total_windows_reused
    assert 0.0 < report_on.window_reuse_rate < 1.0
    assert plan_on.schedules == plan_off.schedules
    assert plan_on.stats.solver_status == plan_off.stats.solver_status
