"""Exact window prover: close the CP incumbent's optimality gap.

The OPG chunk formulation has a large plateau — the objective depends only
on each weight's *earliest* transform layer (z_w), not on how the remaining
chunks distribute above it — so generic branch-and-bound rarely proves
optimality within budget (the paper's Table 4 reports OPTIMAL only for its
smallest model).  This module exploits the problem's structure to finish
the proof:

- candidate sets are *intervals* of layers ``[i_w - lookback, i_w)``, so
  feasibility of a release-vector (one z per weight) reduces to a
  transportation problem with consecutive-ones structure, decidable exactly
  by an earliest-deadline-first greedy (:func:`edf_feasible`);
- the search enumerates release-vectors in objective order, pruning against
  the incumbent; exhausting the improving space *proves* the incumbent
  optimal.

``prove_window`` is invoked by LC-OPG after the CP search returns a
FEASIBLE incumbent on a modest-sized window; on success the window's status
upgrades to OPTIMAL (and the incumbent may improve).

Before any of that, :func:`srpt_window` tries to certify the window outright
with a structural argument (reversed-time SRPT, see its docstring); only
windows it cannot certify reach CP search at all.

Two engines implement the same mathematics:

- the **fast** engine (default, this PR) packs *weight-major*: weights in
  deadline order each take the earliest available capacity at or after
  their release.  For interval availability this is provably identical to
  the layer-major EDF sweep (peel the earliest-deadline weight: it wins
  every contested slot in its window under either rule, and the residual
  instance recurses).  Weight-major packing vectorises over numpy
  prefix-capacity arrays, and — crucially — it is *incremental*: the
  release-vector search packs one weight per node with O(segment) undo
  (:class:`_EdfPacker`), so an infeasible prefix prunes its whole subtree
  instead of being rediscovered at every descendant leaf.
- the **reference** engine is the seed implementation, kept verbatim
  (:func:`edf_feasible_reference`, :func:`prove_window_reference`) as the
  differential-test oracle and the pre-PR baseline for the compile-latency
  A/B bench — the same pattern as ``cpsat.naive``.

Both engines return identical packings; ``tests/opg/test_exact_differential``
checks this on randomized instances.  They may differ only in *node
accounting* when ``node_limit``/``time_limit_s`` interrupt the search,
because subtree pruning visits fewer nodes.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.opg.heuristics import Budgets
from repro.opg.problem import WeightInfo


def edf_feasible(
    weights: Sequence[WeightInfo],
    releases: Dict[str, int],
    budgets: Budgets,
) -> Optional[Dict[str, Dict[int, int]]]:
    """Pack every weight's chunks into layers >= its release; None if impossible.

    Weight-major EDF on a numpy prefix-capacity array: weights in deadline
    order each fill the earliest remaining capacity of ``[release, i_w)``.
    Produces exactly the packing of :func:`edf_feasible_reference`.
    """
    if not weights:
        return {}
    lo = min(releases[w.name] for w in weights)
    hi = max(w.consumer_layer for w in weights)
    avail = np.array(budgets.available_range(lo, hi), dtype=np.int64)
    assignment: Dict[str, Dict[int, int]] = {w.name: {} for w in weights}
    for w in sorted(weights, key=lambda w: w.consumer_layer):
        if w.total_chunks == 0:
            continue
        seg = avail[releases[w.name] - lo : w.consumer_layer - lo]
        if seg.size == 0:
            return None
        prefix = np.cumsum(seg)
        if int(prefix[-1]) < w.total_chunks:
            return None
        fill = int(np.searchsorted(prefix, w.total_chunks))
        take = seg[: fill + 1].copy()
        take[fill] -= int(prefix[fill]) - w.total_chunks
        seg[: fill + 1] -= take
        base = releases[w.name]
        assignment[w.name] = {base + int(i): int(take[i]) for i in np.nonzero(take)[0]}
    return assignment


def srpt_window(
    weights: Sequence[WeightInfo], budgets: Budgets
) -> Optional[Dict[str, Dict[int, int]]]:
    """Certify a window optimal by reversed-time SRPT; None when it cannot.

    Read from the consumers backwards, a window is single-machine
    preemptive scheduling: weight ``w`` is a job released at layer
    ``i_w - 1`` with ``T(w)`` units of work and a hard deadline at its
    lowest candidate ``lo_w``, layer ``l`` is a slot of ``available(l)``
    units, and the loading distance ``i_w - z_w`` is the job's completion
    time up to a constant.  Without the deadlines, shortest remaining
    processing time minimises total completion time (Schrage 1968; Baker
    1974), so an SRPT schedule that also meets every deadline is optimal
    for the window.  Each layer's capacity goes to released jobs fewest
    remaining chunks first, ties on window position and never on names
    (the window-reuse fingerprints assume names cannot steer a solve).

    Returns None when a job still has chunks left below its lowest
    candidate, or when some weight's candidates are not every
    capacity-bearing layer of ``[lo_w, i_w)`` (the reduction needs interval
    availability).  Budgets are only read.
    """
    placed: Dict[str, Dict[int, int]] = {w.name: {} for w in weights}
    jobs = [j for j, w in enumerate(weights) if w.total_chunks]
    if not jobs:
        return placed
    lo = min(min(weights[j].candidates) for j in jobs)
    hi = max(weights[j].consumer_layer for j in jobs)
    avail = budgets.available_range(lo, hi)
    due: Dict[int, List[int]] = {}
    for j in jobs:
        w = weights[j]
        lo_w, candidates = min(w.candidates), set(w.candidates)
        if max(candidates) >= w.consumer_layer or any(
            avail[l - lo] > 0 and l not in candidates for l in range(lo_w, w.consumer_layer)
        ):
            return None
        due.setdefault(lo_w, []).append(j)
    by_release = sorted(jobs, key=lambda j: -weights[j].consumer_layer)
    remaining = [w.total_chunks for w in weights]
    active: List[Tuple[int, int]] = []  # heap of (remaining chunks, position)
    k = 0
    for layer in range(hi - 1, lo - 1, -1):
        while k < len(by_release) and weights[by_release[k]].consumer_layer > layer:
            j = by_release[k]
            heapq.heappush(active, (remaining[j], j))
            k += 1
        cap = avail[layer - lo]
        while cap and active:
            rem, j = active[0]
            take = min(cap, rem)
            placed[weights[j].name][layer] = take
            cap -= take
            remaining[j] = rem - take
            if remaining[j]:
                heapq.heapreplace(active, (remaining[j], j))
            else:
                heapq.heappop(active)
        if any(remaining[j] for j in due.get(layer, ())):
            return None
    return placed


def edf_feasible_reference(
    weights: Sequence[WeightInfo],
    releases: Dict[str, int],
    budgets: Budgets,
) -> Optional[Dict[str, Dict[int, int]]]:
    """Seed layer-major EDF sweep, kept as the differential-test oracle.

    Standard earliest-deadline-first over capacitated slots: walk layers in
    ascending order, at each layer give its remaining capacity to the active
    weights (released, not yet due) with the nearest deadline ``i_w``.  For
    interval-structured availability this greedy is exact.
    """
    if not weights:
        return {}
    lo = min(releases[w.name] for w in weights)
    hi = max(w.consumer_layer for w in weights)
    remaining = {w.name: w.total_chunks for w in weights}
    by_deadline = sorted(weights, key=lambda w: w.consumer_layer)
    assignment: Dict[str, Dict[int, int]] = {w.name: {} for w in weights}
    for layer in range(lo, hi):
        cap = budgets.available(layer)
        if cap <= 0:
            continue
        for w in by_deadline:
            if cap <= 0:
                break
            if remaining[w.name] == 0:
                continue
            if not releases[w.name] <= layer < w.consumer_layer:
                continue
            take = min(cap, remaining[w.name])
            assignment[w.name][layer] = take
            remaining[w.name] -= take
            cap -= take
    if any(remaining.values()):
        return None
    return assignment


class _EdfPacker:
    """Incremental weight-major EDF packing over one window's availability.

    ``push`` packs one weight earliest-first from its release and records the
    takes for O(segment) undo via ``pop``; a failed ``push`` leaves the
    availability untouched.  After pushing weights 0..k in deadline order the
    internal state equals the EDF packing of that prefix, so a failed push
    proves every completion of the prefix infeasible.
    """

    def __init__(self, lo: int, hi: int, budgets: Budgets) -> None:
        self.lo = lo
        self.avail = budgets.available_range(lo, hi)
        self._stack: List[Tuple[WeightInfo, List[Tuple[int, int]]]] = []

    def push(self, w: WeightInfo, release: int) -> bool:
        avail = self.avail
        remaining = w.total_chunks
        takes: List[Tuple[int, int]] = []
        for i in range(release - self.lo, w.consumer_layer - self.lo):
            cap = avail[i]
            if cap <= 0:
                continue
            take = cap if cap < remaining else remaining
            avail[i] = cap - take
            takes.append((i, take))
            remaining -= take
            if remaining == 0:
                break
        if remaining:
            for i, take in takes:
                avail[i] += take
            return False
        self._stack.append((w, takes))
        return True

    def pop(self) -> None:
        _, takes = self._stack.pop()
        for i, take in takes:
            self.avail[i] += take

    def objective(self) -> int:
        """Total loading distance of the currently-packed weights."""
        lo = self.lo
        return sum(w.consumer_layer - lo - takes[0][0] for w, takes in self._stack)

    def materialize(self) -> Dict[str, Dict[int, int]]:
        lo = self.lo
        return {w.name: {lo + i: take for i, take in takes} for w, takes in self._stack}


def _objective(weights: Sequence[WeightInfo], assignment: Dict[str, Dict[int, int]]) -> int:
    """Total loading distance implied by the actual earliest transforms."""
    return sum(w.consumer_layer - min(assignment[w.name]) for w in weights)


def _release_search_prep(
    ordered: Sequence[WeightInfo], budgets: Budgets
) -> Optional[Tuple[Dict[str, List[int]], List[int]]]:
    """Per-weight release options (latest-first) and the solo-distance
    suffix bound shared by both prover engines; None when some weight has no
    feasible release to reason about."""
    solo_dist: Dict[str, int] = {}
    release_options: Dict[str, List[int]] = {}
    for w in ordered:
        candidates = sorted((l for l in w.candidates if budgets.available(l) > 0), reverse=True)
        if not candidates:
            return None  # cannot reason about this window
        release_options[w.name] = candidates
        filled, best = 0, candidates[0]
        for l in candidates:
            filled += budgets.available(l)
            best = l
            if filled >= w.total_chunks:
                break
        solo_dist[w.name] = w.consumer_layer - best
    suffix_solo = [0] * (len(ordered) + 1)
    for i in range(len(ordered) - 1, -1, -1):
        suffix_solo[i] = suffix_solo[i + 1] + solo_dist[ordered[i].name]
    return release_options, suffix_solo


def prove_window(
    weights: Sequence[WeightInfo],
    budgets: Budgets,
    incumbent: Dict[str, Dict[int, int]],
    *,
    time_limit_s: float = 1.0,
    node_limit: int = 50_000,
    engine: str = "fast",
) -> Tuple[Dict[str, Dict[int, int]], bool]:
    """Prove (or improve) the incumbent's total loading distance.

    Returns ``(best_assignment, proven)``.  The search enumerates release
    vectors weight by weight, latest-first, pruning any prefix whose
    optimistic objective (chosen releases + each remaining weight's solo
    best) cannot beat the best known — and, with the fast engine, any prefix
    whose incremental EDF packing already fails.  Budgets are only *read*.
    """
    if engine == "reference":
        return prove_window_reference(
            weights, budgets, incumbent, time_limit_s=time_limit_s, node_limit=node_limit
        )
    if not weights:
        return dict(incumbent), True
    ordered = sorted(weights, key=lambda w: (w.consumer_layer, w.name))
    prep = _release_search_prep(ordered, budgets)
    if prep is None:
        return dict(incumbent), False
    release_options, suffix_solo = prep
    lo = min(opts[-1] for opts in release_options.values())
    hi = max(w.consumer_layer for w in ordered)
    packer = _EdfPacker(lo, hi, budgets)

    best_assignment = dict(incumbent)
    best_obj = _objective(ordered, incumbent)
    deadline = time.perf_counter() + time_limit_s
    nodes = 0
    exhausted = True

    def search(index: int, dist_so_far: int) -> None:
        nonlocal nodes, best_obj, best_assignment, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_limit or time.perf_counter() > deadline:
            exhausted = False
            return
        if dist_so_far + suffix_solo[index] >= best_obj:
            return  # cannot beat the incumbent
        if index == len(ordered):
            obj = packer.objective()
            if obj < best_obj:
                best_obj = obj
                best_assignment = packer.materialize()
            return
        w = ordered[index]
        for release in release_options[w.name]:
            if packer.push(w, release):
                search(index + 1, dist_so_far + (w.consumer_layer - release))
                packer.pop()
            if not exhausted:
                break

    search(0, 0)
    return best_assignment, exhausted


def prove_window_reference(
    weights: Sequence[WeightInfo],
    budgets: Budgets,
    incumbent: Dict[str, Dict[int, int]],
    *,
    time_limit_s: float = 1.0,
    node_limit: int = 50_000,
) -> Tuple[Dict[str, Dict[int, int]], bool]:
    """Seed release-vector search (full EDF re-pack at every leaf), kept as
    the pre-PR baseline for differential tests and the compile-latency A/B."""
    if not weights:
        return dict(incumbent), True
    ordered = sorted(weights, key=lambda w: (w.consumer_layer, w.name))
    prep = _release_search_prep(ordered, budgets)
    if prep is None:
        return dict(incumbent), False
    release_options, suffix_solo = prep

    best_assignment = dict(incumbent)
    best_obj = _objective(ordered, incumbent)
    deadline = time.perf_counter() + time_limit_s
    nodes = 0
    exhausted = True

    releases: Dict[str, int] = {}

    def search(index: int, dist_so_far: int) -> None:
        nonlocal nodes, best_obj, best_assignment, exhausted
        if not exhausted:
            return
        nodes += 1
        if nodes > node_limit or time.perf_counter() > deadline:
            exhausted = False
            return
        if dist_so_far + suffix_solo[index] >= best_obj:
            return  # cannot beat the incumbent
        if index == len(ordered):
            packed = edf_feasible_reference(ordered, releases, budgets)
            if packed is not None:
                obj = _objective(ordered, packed)
                if obj < best_obj:
                    best_obj = obj
                    best_assignment = packed
            return
        w = ordered[index]
        for release in release_options[w.name]:
            releases[w.name] = release
            search(index + 1, dist_so_far + (w.consumer_layer - release))
            if not exhausted:
                break
        releases.pop(w.name, None)

    search(0, 0)
    return best_assignment, exhausted
