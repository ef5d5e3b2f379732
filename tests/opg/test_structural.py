"""The structural window tier: reversed-time SRPT certificates.

``srpt_window`` claims that when its schedule meets every deadline, the
schedule is optimal for the window.  These tests hold it to that claim on
the randomized windows the EDF/prover differential uses:

- a certified objective equals exhaustive search over release vectors;
- it is never worse than the CP tier's on the same window, and equal
  wherever CP proves OPTIMAL;
- a deadline miss returns None, even on a feasible window;
- placements satisfy C0, C2/C3 and the candidate interval, and leave the
  budgets untouched;
- the output is positional: renaming weights never changes it.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capacity.model import analytic_capacity_model
from repro.graph.lowering import eliminate_layout_ops
from repro.graph.models.zoo import load_model
from repro.gpusim.device import oneplus_12
from repro.opg.cpsat.model import SolveStatus
from repro.opg.exact import edf_feasible, edf_feasible_reference, srpt_window
from repro.opg.heuristics import Budgets
from repro.opg.lcopg import LcOpgSolver
from repro.opg.plan import PlanStats
from repro.opg.problem import OpgConfig, WeightInfo, build_problem
from repro.opg.validate import validate_plan

from tests.opg.test_exact_differential import _random_window

N_INSTANCES = 400
#: Cap on the release-vector space the brute force enumerates.
MAX_SPACE = 20_000


def _distance(weights, placed):
    return sum(w.consumer_layer - min(placed[w.name]) for w in weights if w.total_chunks)


def _brute_force(weights, budgets):
    """Optimal total loading distance by enumerating every release vector.

    EDF decides exactly whether all chunks fit at or above a release vector
    (interval availability), and the best feasible vector's distance is the
    window optimum.  None when no vector packs.
    """
    streamed = [w for w in weights if w.total_chunks]
    best = None
    for releases in itertools.product(*(w.candidates for w in streamed)):
        dist = sum(w.consumer_layer - r for w, r in zip(streamed, releases))
        if best is not None and dist >= best:
            continue
        release_map = {w.name: r for w, r in zip(streamed, releases)}
        release_map.update({w.name: w.candidates[0] for w in weights if not w.total_chunks})
        if edf_feasible_reference(weights, release_map, budgets) is not None:
            best = dist
    return best


def _space(weights):
    size = 1
    for w in weights:
        if w.total_chunks:
            size *= len(w.candidates)
    return size


def _packable(weights, budgets):
    """The window as ``_cp_window`` sees it: EDF-packable at the lowest
    usable candidates (the deferral loop guarantees this)."""
    releases = {}
    for w in weights:
        usable = [l for l in w.candidates if budgets.available(l) > 0]
        if not usable:
            return False
        releases[w.name] = min(usable)
    return edf_feasible(weights, releases, budgets) is not None


class _CpOnly(LcOpgSolver):
    def _structural_window(self, weights, budgets):
        return None


def _cp_tier(weights, budgets):
    copy = Budgets(budgets.capacity, budgets.m_peak)
    solver = _CpOnly(OpgConfig(max_nodes_per_window=20_000))
    return solver._cp_window(None, weights, copy, 5.0, PlanStats())


class TestCertificate:
    def test_certified_objective_equals_brute_force(self):
        rng = random.Random(0x5EED)
        certified = declined = 0
        for _ in range(N_INSTANCES):
            weights, _, budgets = _random_window(rng)
            if _space(weights) > MAX_SPACE:
                continue
            placed = srpt_window(weights, budgets)
            if placed is None:
                declined += 1
                continue
            certified += 1
            assert _distance(weights, placed) == _brute_force(weights, budgets)
        # The generator must exercise both outcomes.
        assert certified > 50
        assert declined > 20

    def test_never_worse_than_cp_and_equal_where_cp_proves(self):
        rng = random.Random(0xC0DE)
        compared = proven = 0
        for _ in range(N_INSTANCES):
            weights, _, budgets = _random_window(rng)
            if not _packable(weights, budgets):
                continue
            placed = srpt_window(weights, budgets)
            if placed is None:
                continue
            result = _cp_tier(weights, budgets)
            assert result is not None  # packable windows always get an incumbent
            cp_placed, status = result
            compared += 1
            assert _distance(weights, placed) <= _distance(weights, cp_placed)
            if status is SolveStatus.OPTIMAL:
                proven += 1
                assert _distance(weights, placed) == _distance(weights, cp_placed)
        assert compared > 50
        assert proven > 50

    def test_deadline_miss_returns_none(self):
        # Reversed time, the 1-chunk job b wins layer 3 first, so job a (2
        # chunks, nothing below layer 3) misses its deadline — although
        # a@{3: 2}, b@{2: 1} packs, as EDF confirms.
        budgets = Budgets([0, 0, 2, 2, 0], [9] * 5)
        weights = [
            WeightInfo("a", 100, consumer_layer=4, total_chunks=2, candidates=[3]),
            WeightInfo("b", 100, consumer_layer=4, total_chunks=1, candidates=[2, 3]),
        ]
        assert edf_feasible(weights, {"a": 3, "b": 2}, budgets) is not None
        assert srpt_window(weights, budgets) is None

    def test_holes_in_the_candidate_interval_decline(self):
        # A capacity-bearing layer inside [lo_w, i_w) that is not a
        # candidate breaks the interval reduction.
        budgets = Budgets([0, 3, 3, 3], [9] * 4)
        weights = [WeightInfo("a", 100, consumer_layer=3, total_chunks=1, candidates=[1])]
        assert srpt_window(weights, budgets) is None

    def test_placements_satisfy_constraints_and_budgets_unchanged(self):
        rng = random.Random(0xC3)
        checked = 0
        for _ in range(N_INSTANCES):
            weights, _, budgets = _random_window(rng)
            before = (list(budgets.capacity), list(budgets.m_peak))
            placed = srpt_window(weights, budgets)
            assert (budgets.capacity, budgets.m_peak) == before
            if placed is None:
                continue
            checked += 1
            per_layer = {}
            for w in weights:
                chunks = placed[w.name]
                assert sum(chunks.values()) == w.total_chunks  # C0
                for layer, n in chunks.items():
                    assert n > 0
                    assert layer in w.candidates
                    assert min(w.candidates) <= layer < w.consumer_layer
                    per_layer[layer] = per_layer.get(layer, 0) + n
            for layer, n in per_layer.items():
                assert n <= budgets.m_peak[layer]  # C2
                assert n <= budgets.capacity[layer]  # C3
        assert checked > 100


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_output_is_rename_invariant(seed, data):
    weights, _, budgets = _random_window(random.Random(seed))
    names = data.draw(
        st.lists(st.text("abcxyz_.", min_size=1, max_size=6), min_size=len(weights),
                 max_size=len(weights), unique=True)
    )
    renamed = [
        WeightInfo(name, w.nbytes, w.consumer_layer, w.total_chunks, list(w.candidates))
        for name, w in zip(names, weights)
    ]
    original = srpt_window(weights, budgets)
    other = srpt_window(renamed, budgets)
    assert (original is None) == (other is None)
    if original is not None:
        assert [original[w.name] for w in weights] == [other[w.name] for w in renamed]


def test_compile_certifies_windows_and_plans_validate():
    graph = eliminate_layout_ops(load_model("GPTN-S"))
    capacity = analytic_capacity_model(oneplus_12())
    config = OpgConfig(time_limit_s=2.0, max_nodes_per_window=300)
    plan = LcOpgSolver(config).solve(graph, capacity, device_name="OnePlus 12")
    assert plan.stats.structural_windows > 0
    assert plan.stats.cp_windows > 0
    assert validate_plan(plan, build_problem(graph, capacity, config)) == []
