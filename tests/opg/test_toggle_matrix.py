"""Plan byte-identity across the full solver-toggle matrix.

The PR's three speed layers — bitset domains, window-reuse patching, and
the portfolio certificate race — are all *transparent* optimisations: for
any combination of toggles the compiled plan must be byte-identical to the
all-off reference.  This test runs the 2x2x2 matrix (engine x reuse x
portfolio) end-to-end through ``LcOpgSolver`` on a real graph and compares
every plan against the queue-engine / reuse-off / portfolio-off corner.

On a single-core box the portfolio runs its sequential fallback — the
identity contract is the same either way (alternates only ever supply
proven-optimal *certificates*, never values; see ``cpsat/portfolio.py``).
"""

import dataclasses
import functools

import pytest

from repro.capacity.model import analytic_capacity_model
from repro.graph.builder import GraphBuilder
from repro.gpusim.device import oneplus_12
from repro.opg.cpsat.portfolio import PortfolioCpSolver
from repro.opg.cpsat.search import CpSolver
from repro.opg.lcopg import LcOpgSolver
from repro.opg.problem import OpgConfig

FAST = OpgConfig(time_limit_s=1.5, max_nodes_per_window=300, chunk_bytes=8 * 1024)

ENGINES = ("queue", "bitset")
TOGGLES = [
    (engine, reuse, portfolio)
    for engine in ENGINES
    for reuse in (False, True)
    for portfolio in (0, 3)
]


def _graph():
    # Wide enough that weights contend for load capacity: the structural
    # tier certifies some windows, the rest go through CP search (which is
    # what the engine and portfolio toggles act on).
    b = GraphBuilder("toggle-matrix")
    b.embedding(64, 500, 768)
    for _ in range(6):
        b.transformer_block(64, 768, 8)
    return b.finish()


def _factory(engine, portfolio):
    if portfolio >= 2:
        return functools.partial(PortfolioCpSolver, k=portfolio, engine=engine)
    return functools.partial(CpSolver, engine=engine)


def _solve(engine, reuse, portfolio):
    cfg = dataclasses.replace(FAST, window_reuse=reuse)
    solver = LcOpgSolver(cfg, solver_factory=_factory(engine, portfolio))
    graph = _graph()
    capacity = analytic_capacity_model(oneplus_12())
    first = solver.solve(graph, capacity, device_name="OnePlus 12")
    if not reuse:
        return first
    # With reuse on, the replayed second solve is the interesting plan: it
    # must match the reference even when served from the window cache.
    replay = solver.solve(graph, capacity, device_name="OnePlus 12")
    assert replay.stats.windows_reused == replay.stats.windows > 0
    return replay


@pytest.fixture(scope="module")
def reference():
    return _solve("queue", False, 0)


@pytest.mark.parametrize(
    "engine,reuse,portfolio",
    TOGGLES,
    ids=[f"{e}-reuse{int(r)}-k{p}" for e, r, p in TOGGLES],
)
def test_plan_identical_across_toggles(engine, reuse, portfolio, reference):
    plan = _solve(engine, reuse, portfolio)
    assert reference.stats.cp_windows > 0
    assert plan.schedules == reference.schedules
    assert plan.stats.solver_status == reference.stats.solver_status
    assert plan.stats.soft_threshold_rounds == reference.stats.soft_threshold_rounds
