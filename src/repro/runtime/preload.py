"""Preloading executor: the baselines' cold-start init + execute pipeline.

Implements the strategy every existing framework uses (paper §1): load the
whole model disk -> unified memory, transform every weight into texture
memory with dedicated kernels, then run inference with all weights resident.
Latency and memory come out of the shared simulator mechanically; the
framework profile only sets throughput/copy characteristics.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.graph.dag import Graph
from repro.gpusim.device import DeviceProfile
from repro.gpusim.engine import Simulation
from repro.gpusim import pricing
from repro.gpusim.kernels import FlashAttentionKernel
from repro.gpusim.queues import fold_sum
from repro.gpusim.texture import texture_bytes, winograd_expansion
from repro.runtime.frameworks import FrameworkProfile
from repro.runtime.scenario import Scenario, resolve_scenario


class ModelNotSupportedError(Exception):
    """The framework cannot run this model (Table 7 '-' entries)."""


class PreloadExecutor:
    """Cold-start preloading runtime parameterised by a framework profile."""

    def __init__(self, profile: FrameworkProfile, device: DeviceProfile) -> None:
        self.profile = profile
        self.device = device

    def run(
        self,
        graph: Graph,
        *,
        scenario: Optional[Scenario] = None,
        iterations: Optional[int] = None,
        check_support: bool = True,
        raise_on_oom: bool = False,
        use_cost_tables: Optional[bool] = None,
    ):
        """Simulate init + the workload described by ``scenario``.

        ``Scenario.prefill(n)`` (the historical ``iterations=`` shim) runs
        ``n`` full passes with every weight resident.
        ``Scenario.decode(...)`` runs autoregressive generation the way
        every preloading framework does it: the *entire* KV cache stays in
        unified memory and grows without bound — faster attention reads than
        FlashMem's disk-streamed tiles, but linear memory growth that OOMs
        long contexts (the Table 1 story, decode edition).

        Returns a :class:`~repro.gpusim.timeline.RunResult`; ``result.oom``
        situations set ``details['oom'] = 1`` (and raise when requested).
        ``use_cost_tables`` overrides :data:`pricing.COST_TABLES_DEFAULT`;
        the vectorized table prices exactly like the scalar per-node calls.
        """
        scenario = resolve_scenario(scenario, iterations=iterations)
        iterations = scenario.iterations
        wall0 = time.perf_counter()
        stats = pricing.STATS
        stats_before = stats.snapshot()
        if use_cost_tables is None:
            use_cost_tables = pricing.COST_TABLES_DEFAULT
        profile, device = self.profile, self.device
        if check_support and not profile.supports(graph.name):
            raise ModelNotSupportedError(f"{profile.name} does not support {graph.name}")
        graph.freeze()
        sim = Simulation(device, model=graph.name, runtime=profile.name)
        io, gpu = sim.queues.io, sim.queues.gpu

        # ---- GPU context / program setup -------------------------------
        sim.alloc_um("process_baseline", int(profile.baseline_mb * 1e6), 0.0)
        setup = gpu.submit("gpu_setup", device.gpu_setup_ms * profile.setup_ms_factor, kind="setup")
        sim.phases.setup = setup.duration_ms

        # ---- Init: load + transform every weight ------------------------
        # The serialized model file stays mapped while it is parsed and
        # copied out (freed once the last tensor has loaded) — this is the
        # init-time transient that makes Table 1's peaks ~3x the weights and
        # OOMs big models on 6-8 GB devices (Figure 10).
        sim.alloc_um("model_file_buffer", graph.total_weight_bytes, setup.start_ms)
        staging_factor = 2 if profile.fp32_staging else 1
        load_bw = device.disk_bw * profile.load_bw_factor
        transform_bw = device.tm_upload_bw * profile.transform_bw_factor
        for weight, node in graph.weights():
            um_bytes = weight.nbytes * staging_factor
            load = io.submit(
                f"load:{weight.name}",
                device.disk_latency_ms + weight.nbytes / load_bw,
                kind="load",
            )
            sim.alloc_um(weight.name, um_bytes, load.end_ms)
            if profile.uses_texture:
                tex_bytes = texture_bytes(weight.tensor)
                expansion = winograd_expansion(node.kind, int(node.spec.attrs.get("kernel", 0)))
                transform_time = (
                    device.kernel_launch_ms
                    + profile.per_tensor_transform_ms
                    + weight.nbytes / transform_bw
                )
                xform = gpu.submit(
                    f"transform:{weight.name}",
                    transform_time,
                    not_before=load.end_ms,
                    kind="transform",
                )
                if expansion > 1.0:
                    # Winograd scratch lives only during the transform.
                    scratch = int(weight.nbytes * (expansion - 1.0))
                    sim.alloc_um(f"{weight.name}.winograd", scratch, xform.start_ms)
                    sim.free_um(f"{weight.name}.winograd", xform.end_ms)
                sim.alloc_tm(weight.name + ".tex", tex_bytes, xform.end_ms)
                if not profile.keep_um_copy and not profile.free_um_at_init_end:
                    sim.free_um(weight.name, xform.end_ms)
        # The mapped file coexists with the last tensor copied out of it for
        # an instant — a genuine double-residency transient (Table 1's ~3x
        # init peaks), not an exchange, so the free integrates after the
        # same-timestamp allocation.
        sim.free_um("model_file_buffer", io.free_at, after_allocs=True)
        init_end = sim.queues.makespan_ms
        if profile.free_um_at_init_end and not profile.keep_um_copy:
            for weight, _node in graph.weights():
                if sim.um.contains(weight.name):
                    sim.free_um(weight.name, init_end)
        sim.phases.load = io.busy_time_ms(kind="load")
        sim.phases.transform = gpu.busy_time_ms(kind="transform")

        # ---- Runtime arena (graph runtime, workspaces, activations) -----
        overhead = int(
            graph.total_weight_bytes * profile.mem_overhead_factor + profile.arena_fixed_mb * 1e6
        )
        activations = graph.peak_activation_bytes()
        if profile.fp32_staging:
            activations *= 2
        arena_time = setup.end_ms if profile.arena_at_start else init_end
        sim.alloc_um("runtime_arena", overhead + activations, arena_time)

        # ---- Execute ----------------------------------------------------
        from repro.graph.ops import OpKind

        node_list = list(graph.nodes())
        eff = profile.exec_efficiency
        conv_eff = profile.conv_exec_efficiency

        def node_eff(node) -> float:
            return conv_eff if node.kind in (OpKind.CONV2D, OpKind.DEPTHWISE_CONV2D) else eff

        # Back-to-back compute with every weight resident: the table path
        # submits whole runs of kernels through ``gpu.submit_run`` (bitwise
        # the per-kernel submits); the scalar per-node loop is its oracle.
        durations = None
        if use_cost_tables:
            # Pure function of the frozen graph and the profile efficiencies,
            # so the rows are memoized on the graph across runs.
            rows = graph._frozen_aggregate(
                ("pricing-rows", conv_eff, eff),
                lambda: tuple(
                    pricing.spec_row(node.spec, efficiency=node_eff(node)) for node in node_list
                ),
            )
            durations = pricing.kernel_time_table(device, rows)

        if scenario.is_decode:
            # Preloading decode: the whole KV cache is unified-memory
            # resident (no texture staging, no spilling).  Attention reads
            # every cached tile from UM at the framework's kernel
            # efficiency; the cache grows by one row pair per cache per
            # token, unboundedly — the linear-memory failure mode FlashMem's
            # residency cap is designed around.
            caches = {c.name: c for c in graph.kv_cache_specs()}
            flash_pos = []
            flash_kernels = []
            append_delta = {}
            for pos, node in enumerate(node_list):
                if node.kind is OpKind.FLASH_ATTENTION:
                    flash_pos.append(pos)
                    flash_kernels.append(FlashAttentionKernel.from_spec(node.spec))
                elif node.kind is OpKind.KV_APPEND:
                    append_delta[pos] = caches[node.spec.attrs["kv_cache"]].token_bytes
            if not flash_pos:
                raise ValueError(
                    f"decode scenario requires a decode-phase graph; "
                    f"{graph.name!r} has no tiled attention nodes"
                )
            tiles = {k.tile_tokens for k in flash_kernels}
            if len(tiles) != 1:
                raise ValueError(f"mixed attention tile sizes in {graph.name!r}: {sorted(tiles)}")
            tile = tiles.pop()
            context_len, tokens = scenario.context_len, scenario.tokens
            token_bytes = sum(c.token_bytes for c in caches.values())
            deltas = sim.raw_deltas()
            if context_len > 0:
                deltas.append((init_end, context_len * token_bytes, 0))

            exec_time = 0.0
            if durations is not None:
                # Per-token cost only changes when the cache crosses a tile
                # boundary (all tiles are priced full), so each run of tokens
                # with equal tile count is priced once and submitted as one
                # fold.
                t = 0
                while t < tokens:
                    kv = context_len + t + 1
                    run = min(tokens, -(-kv // tile) * tile - context_len) - t
                    frows = tuple(
                        pricing.flash_row(k, kv, resident_tiles=None, texture=False, efficiency=eff)
                        for k in flash_kernels
                    )
                    per_token = durations.copy()
                    per_token[flash_pos] = pricing.flash_attention_time_table(device, frows)
                    ends, busies = gpu.submit_run(
                        f"t{t}-{t + run - 1}:exec[{run}x{len(node_list)} kernels]",
                        np.tile(per_token, run),
                        "compute",
                    )
                    exec_time = fold_sum(exec_time, busies)
                    ends_mat = ends.reshape(run, len(node_list))
                    for pos, kvd in append_delta.items():
                        deltas.extend((e, kvd, 0) for e in ends_mat[:, pos].tolist())
                    t += run
            else:
                submit_fast = gpu.submit_fast
                fl = {}
                prev_tiles = -1
                for t in range(tokens):
                    kv = context_len + t + 1
                    n_tiles = -(-kv // tile)
                    if n_tiles != prev_tiles:
                        prev_tiles = n_tiles
                        fl = {
                            pos: k.time_ms(
                                device, kv, resident_tiles=None, texture=False, efficiency=eff
                            )
                            for pos, k in zip(flash_pos, flash_kernels)
                        }
                    for pos, node in enumerate(node_list):
                        duration = fl.get(pos)
                        if duration is None:
                            duration = sim.cost.base_time_ms(node.spec, efficiency=node_eff(node))
                        start, end = submit_fast(f"t{t}:exec:{node.name}", duration, 0.0, "compute")
                        exec_time += end - start
                        kvd = append_delta.get(pos)
                        if kvd is not None:
                            deltas.append((end, kvd, 0))
            end = sim.queues.makespan_ms
            total_kv = (context_len + tokens) * token_bytes
            if total_kv:
                deltas.append((end, -total_kv, 0))
            decode_ms = end - init_end
            details = {
                "tokens": float(tokens),
                "context_len": float(context_len),
                "init_ms": init_end,
                "decode_ms": decode_ms,
                "ms_per_token": decode_ms / tokens,
                "kv_bytes": float(total_kv),
            }
        else:
            if durations is not None:
                ends, busies = gpu.submit_run(
                    f"exec0-{iterations - 1}:[{iterations}x{len(node_list)} kernels]",
                    np.tile(durations, iterations),
                    "compute",
                )
                exec_time = fold_sum(0.0, busies)
            else:
                exec_time = 0.0
                submit_fast = gpu.submit_fast
                for it in range(iterations):
                    for node in node_list:
                        start, end = submit_fast(
                            f"exec{it}:{node.name}",
                            sim.cost.base_time_ms(node.spec, efficiency=node_eff(node)),
                            0.0,
                            "compute",
                        )
                        exec_time += end - start
            end = sim.queues.makespan_ms
            details = {
                "iterations": float(iterations),
                "init_ms": init_end,
                "exec_per_iter_ms": exec_time / max(1, iterations),
            }
        sim.phases.execute = exec_time

        # ---- Teardown ----------------------------------------------------
        sim.free_all(end)
        pricing_delta = stats.delta_since(stats_before)
        wall = time.perf_counter() - wall0
        stats.runs += 1
        stats.sim_s += wall
        details["sim_s"] = wall
        details["pricing_hits"] = float(pricing_delta["table_hits"])
        details["pricing_misses"] = float(pricing_delta["table_misses"])
        if sim.oom:
            details["oom"] = 1.0
            if raise_on_oom:
                from repro.gpusim.memory import OutOfMemoryError

                raise OutOfMemoryError(0, sim.build_timeline().peak_bytes, device.ram_budget_bytes)
        return sim.finish(details=details)
