"""Tests for report rendering and the extension experiments."""

import pytest

from repro.experiments import ablations, appendix_fp32, background_texture
from repro.experiments.report import ratio, render_series, render_table


class TestRendering:
    def test_alignment_and_headers(self):
        text = render_table(["A", "Long header"], [(1, 2.5), ("x", None)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "Long header" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # every row padded to the same width

    def test_none_renders_dash(self):
        text = render_table(["A"], [(None,)])
        assert "-" in text.splitlines()[-1]

    def test_float_formatting(self):
        text = render_table(["A"], [(1234.5,), (12.34,), (1.234,), (0.0,)])
        body = text.splitlines()[2:]
        assert body[0].strip() == "1,234"
        assert body[1].strip() == "12.3"
        assert body[2].strip() == "1.23"
        assert body[3].strip() == "0"

    def test_render_series(self):
        text = render_series("S", [(0, 1), (1, 2)], x_label="t", y_label="v")
        assert "S" in text and "t" in text and "v" in text

    def test_ratio_helper(self):
        assert ratio(6.0, 3.0) == 2.0
        assert ratio(None, 3.0) is None
        assert ratio(3.0, 0.0) is None


class TestBackgroundTexture:
    def test_runs_and_brackets_romou(self):
        result = background_texture.run(width=64, height=64)
        assert len(result.comparisons) == 3
        assert 1.5 <= result.max_speedup <= 6.0
        assert "texture" in result.render().lower()


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run(model="ResNet50")

    def test_all_studies_present(self, result):
        studies = {r.study for r in result.rows}
        assert studies == {"scheduler", "chunk_size", "lookback", "window"}

    def test_cp_no_worse_than_greedy(self, result):
        sched = {r.setting: r for r in result.study("scheduler")}
        cp, greedy = sched["CP-SAT"], sched["greedy-only"]
        assert cp.total_distance <= greedy.total_distance
        strength = {"OPTIMAL": 2, "FEASIBLE": 1}
        assert strength.get(cp.status, 0) >= strength.get(greedy.status, 0)

    def test_coarse_chunks_hurt_streaming(self, result):
        chunks = {r.setting: r for r in result.study("chunk_size")}
        assert chunks["2048 KiB"].preload_pct >= chunks["128 KiB"].preload_pct


class TestAppendixFp32:
    def test_trends_hold_across_precision(self):
        result = appendix_fp32.run(models=["ViT"])
        fp16 = result.row("ViT", "fp16")
        fp32 = result.row("ViT", "fp32")
        assert fp16.speedup > 1.0 and fp32.speedup > 1.0
        assert fp32.flashmem_mb > fp16.flashmem_mb
        assert fp32.smem_ms > fp16.smem_ms
