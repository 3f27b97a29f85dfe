"""Tests for datasets, result tables, charts and exports."""

import json
import os

import numpy as np
import pytest

from repro.core.results import ResultTable
from repro.data.imagenet import IMAGENET_LSVRC_2012, ImageNetMeta
from repro.data.synthetic import separable_blobs, synthetic_classification, synthetic_images
from repro.errors import ConfigurationError
from repro.report.charts import bar_chart, stacked_bar_chart
from repro.report.export import export_results, write_text
from repro.report.tables import format_seconds


class TestImageNetMeta:
    def test_table1_constants(self):
        assert IMAGENET_LSVRC_2012.train_images == 1_200_000
        assert IMAGENET_LSVRC_2012.num_classes == 1000

    def test_iterations_per_epoch(self):
        assert IMAGENET_LSVRC_2012.iterations_per_epoch(2048) == pytest.approx(585.9375)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ImageNetMeta("x", 0, 10, 224)
        with pytest.raises(ConfigurationError):
            IMAGENET_LSVRC_2012.iterations_per_epoch(0)


class TestSynthetic:
    def test_classification_shapes_and_determinism(self):
        x1, y1 = synthetic_classification(10, 20, 4, seed=5)
        x2, y2 = synthetic_classification(10, 20, 4, seed=5)
        assert x1.shape == (10, 20) and y1.shape == (20,)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        assert y1.min() >= 0 and y1.max() < 4

    def test_images_shape(self):
        x, y = synthetic_images(6, 3, 8, 9, 10, seed=0)
        assert x.shape == (6, 3, 8, 9)
        assert y.shape == (6,)

    def test_blobs_are_learnable(self):
        """Blobs separate: a nearest-centroid rule beats chance by a lot."""
        x, y = separable_blobs(8, 200, 3, seed=1)
        centroids = np.stack([x[:, y == k].mean(axis=1) for k in range(3)])
        pred = np.argmin(
            ((x.T[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1
        )
        assert (pred == y).mean() > 0.9

    @pytest.mark.parametrize("fn", [synthetic_classification, separable_blobs])
    def test_validation(self, fn):
        with pytest.raises(ConfigurationError):
            fn(0, 10, 2)


class TestResultTable:
    def test_columns_in_insertion_order(self):
        t = ResultTable("t")
        t.add_row(b=1, a=2)
        t.add_row(c=3)
        assert t.columns == ("b", "a", "c")

    def test_missing_cells_render_dash(self):
        t = ResultTable("t")
        t.add_row(a=1)
        t.add_row(b=2)
        assert "-" in t.to_ascii()

    def test_column_accessor(self):
        t = ResultTable()
        t.extend([{"x": 1}, {"x": 2}])
        assert t.column("x") == (1, 2)
        with pytest.raises(ConfigurationError):
            t.column("nope")

    def test_csv_escaping(self):
        t = ResultTable()
        t.add_row(name='he said "hi", twice')
        csv = t.to_csv()
        assert '"he said ""hi"", twice"' in csv

    def test_json_roundtrip(self):
        t = ResultTable("numbers")
        t.add_row(v=1.5, label="x")
        data = json.loads(t.to_json())
        assert data["title"] == "numbers"
        assert data["rows"][0]["v"] == 1.5

    def test_float_formatting(self):
        t = ResultTable()
        t.add_row(tiny=1.23e-7, huge=4.56e8, mid=3.14159, zero=0.0)
        text = t.to_ascii()
        assert "1.230e-07" in text and "4.560e+08" in text and "3.142" in text

    def test_len(self):
        t = ResultTable()
        assert len(t) == 0
        t.add_row(a=1)
        assert len(t) == 1


class TestCharts:
    def test_bar_chart_scales_to_max(self):
        text = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_bar_chart_validation(self):
        with pytest.raises(ConfigurationError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            bar_chart([], [])
        with pytest.raises(ConfigurationError):
            bar_chart(["a"], [-1.0])

    def test_stacked_marks_best(self):
        text = stacked_bar_chart(
            ["g1", "g2"],
            [{"compute": 1.0, "comm": 3.0}, {"compute": 1.0, "comm": 0.5}],
        )
        best_line = [ln for ln in text.splitlines() if "<= best" in ln]
        assert len(best_line) == 1 and "g2" in best_line[0]

    def test_stacked_legend_lists_segments(self):
        text = stacked_bar_chart(["g"], [{"compute": 1.0, "comm": 2.0}])
        assert "compute" in text and "comm" in text

    def test_stacked_rejects_negative_segment(self):
        with pytest.raises(ConfigurationError):
            stacked_bar_chart(["g"], [{"compute": -1.0}])


class TestFormatters:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, "0s"), (5e-7, "0.5us"), (2.5e-3, "2.50ms"), (1.5, "1.50s"), (600, "10.0min")],
    )
    def test_format_seconds(self, value, expected):
        assert format_seconds(value) == expected


class TestExport:
    def test_export_writes_three_files(self, tmp_path):
        t = ResultTable("x")
        t.add_row(a=1, b=2.5)
        paths = export_results(t, tmp_path, "demo")
        assert set(paths) == {"txt", "csv", "json"}
        for path in paths.values():
            assert os.path.exists(path)
        assert "a,b" in open(paths["csv"]).read()

    def test_write_text_creates_parents(self, tmp_path):
        path = write_text(tmp_path / "deep" / "dir" / "f.txt", "hello")
        assert open(path).read() == "hello\n"

    def test_export_empty_stem_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            export_results(ResultTable(), tmp_path, "")
