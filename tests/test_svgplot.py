import xml.etree.ElementTree as ET

import numpy as np
import pytest

from snakesim.errors import EmptyInput, InvalidParameter, ShapeMismatch
from snakesim.svgplot import _fmt_tick, plot_curves, plot_heatmap, plot_trajectory

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(path):
    return ET.parse(path).getroot()


def tags(root, name):
    return root.iter(SVG_NS + name)


class TestPlotCurves:
    def test_emits_one_polyline_per_curve(self, tmp_path):
        path = tmp_path / "curves.svg"
        x = np.linspace(0, 1, 20)
        plot_curves(
            path,
            [
                {"x": x, "y": np.sin(x), "label": "first"},
                {"x": x, "y": np.cos(x), "label": "second"},
            ],
            xlabel="time",
            ylabel="value",
            title="two curves",
        )
        root = parse(path)
        polylines = [p for p in tags(root, "polyline") if len(p.get("points", "").split()) > 2]
        assert len(polylines) == 2
        texts = [t.text for t in tags(root, "text")]
        assert "two curves" in texts
        assert "first" in texts and "second" in texts
        assert "time" in texts and "value" in texts

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(EmptyInput):
            plot_curves(tmp_path / "a.svg", [])
        with pytest.raises(EmptyInput):
            plot_curves(tmp_path / "b.svg", [{"x": [], "y": []}])

    def test_file_is_well_formed_xml(self, tmp_path):
        path = tmp_path / "c.svg"
        plot_curves(path, [{"x": [0, 1], "y": [0, 1]}])
        root = parse(path)
        assert root.tag == SVG_NS + "svg"
        assert root.get("width") and root.get("height")

    def test_attribute_and_text_values_round_trip(self, tmp_path):
        path = tmp_path / "quoted.svg"
        color, dash, label = 'red" x="1', '6,4" y="&', "a <b> & c"
        plot_curves(path, [
            {"x": [0, 1], "y": [0, 1], "color": color, "dash": dash, "label": label},
            {"x": [0.5], "y": [0.5], "color": color},  # one point: drawn as a circle
        ])
        root = parse(path)
        (curve,) = [p for p in tags(root, "polyline") if p.get("stroke-dasharray")]
        assert curve.get("stroke") == color and curve.get("stroke-dasharray") == dash
        assert curve.get("x") is None  # the quote did not open a new attribute
        assert [c.get("fill") for c in tags(root, "circle")] == [color]
        assert [l.get("stroke") for l in tags(root, "line") if l.get("stroke") == color]
        assert label in [t.text for t in tags(root, "text")]


class TestPlotTrajectory:
    def frames(self, count=5):
        return np.array([[[0.0 + 0.1 * t, 0.0], [0.3 + 0.1 * t, 0.05], [0.6 + 0.1 * t, 0.0]] for t in range(count)])

    def test_body_polylines_and_com_overlay(self, tmp_path):
        path = tmp_path / "traj.svg"
        frames = self.frames()
        com = np.array([[0.3 + 0.1 * t, 0.02] for t in range(len(frames))])
        plot_trajectory(path, frames, com_path=com, title="bodies")
        root = parse(path)
        polylines = list(tags(root, "polyline"))
        dashed = [p for p in polylines if p.get("stroke-dasharray")]
        assert len(dashed) == 1  # the CoM path
        solid = [p for p in polylines if not p.get("stroke-dasharray")]
        assert len(solid) == len(frames)

    def test_stride_skips_frames_but_keeps_last(self, tmp_path):
        path = tmp_path / "strided.svg"
        plot_trajectory(path, self.frames(9), stride=4)
        root = parse(path)
        solid = [p for p in tags(root, "polyline") if not p.get("stroke-dasharray")]
        assert len(solid) == 3  # frames 0, 4, 8

    def test_last_frame_drawn_under_any_stride(self, tmp_path):
        path = tmp_path / "strided.svg"
        for count in range(1, 12):
            frames = self.frames(count)
            for stride in range(1, count + 2):
                plot_trajectory(path, frames, stride=stride)
                solid = [p for p in tags(parse(path), "polyline") if not p.get("stroke-dasharray")]
                drawn = list(range(0, count, stride))
                if drawn[-1] != count - 1:
                    drawn.append(count - 1)
                assert len(solid) == len(drawn)
                # frames move along +x, so the right end of the last polyline is the largest
                right_ends = [float(p.get("points").split()[-1].split(",")[0]) for p in solid]
                assert right_ends[-1] == max(right_ends) and len(set(right_ends)) == len(drawn)

    def test_rejects_a_non_stack_and_a_stride_below_one(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            plot_trajectory(tmp_path / "flat.svg", self.frames()[0])
        for stride in (0, -1):
            with pytest.raises(InvalidParameter):
                plot_trajectory(tmp_path / "strided.svg", self.frames(), stride=stride)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(EmptyInput):
            plot_trajectory(tmp_path / "empty.svg", [])


class TestPlotHeatmap:
    def test_cell_count_and_masked_diagonal(self, tmp_path):
        path = tmp_path / "heat.svg"
        matrix = np.array([[1.0, 1.3, 0.7], [0.8, 1.0, 1.1], [1.2, 0.9, 1.0]])
        plot_heatmap(path, matrix, row_labels=["a", "b", "c"], col_labels=["a", "b", "c"])
        root = parse(path)
        rects = list(tags(root, "rect"))
        fills = [r.get("fill") for r in rects]
        # at least one cell per matrix entry plus background and color bar
        assert len(rects) >= 9
        # the three diagonal cells share one neutral mask color
        from collections import Counter

        counts = Counter(fills)
        assert any(count == 3 for color, count in counts.items())

    def test_scale_diverges_around_one(self, tmp_path):
        # 1 is white, and the off-diagonal extremes 1 -+ 0.5 take the full blue and red ends
        path = tmp_path / "centred.svg"
        plot_heatmap(path, np.array([[9.0, 1.0, 1.5], [0.5, 9.0, 1.0], [1.25, 0.75, 9.0]]))
        fills = {r.find(SVG_NS + "title").text: r.get("fill") for r in tags(parse(path), "rect") if r.find(SVG_NS + "title") is not None}
        assert fills == {"excluded": "#d9d9d9", "1": "#ffffff", "1.5": "#b40426", "0.5": "#3b4cc0", "1.25": "#da8292", "0.75": "#9da6e0"}

    def test_rejects_empty_and_non_2d(self, tmp_path):
        with pytest.raises(EmptyInput):
            plot_heatmap(tmp_path / "bad.svg", np.zeros((0, 0)))
        with pytest.raises(EmptyInput):
            plot_heatmap(tmp_path / "bad2.svg", np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "plot, size",
    [
        (lambda path: plot_curves(path, [{"x": [0, 1], "y": [0, 1]}]), ("640", "480")),
        (lambda path: plot_trajectory(path, [[[0.0, 0.0], [0.3, 0.0]]]), ("640", "480")),
        (lambda path: plot_heatmap(path, np.ones((2, 2))), ("560", "520")),
    ],
    ids=["curves", "trajectory", "heatmap"],
)
def test_canvas_size_is_fixed_per_plot(plot, size, tmp_path):
    plot(tmp_path / "p.svg")
    root = parse(tmp_path / "p.svg")
    assert (root.get("width"), root.get("height")) == size
    assert root.get("viewBox") == f"0 0 {size[0]} {size[1]}"


def test_tick_labels_switch_to_exponents_for_small_and_large_values():
    assert [_fmt_tick(v) for v in (0.0, 0.25, 1234.5)] == ["0", "0.25", "1.23e+03"]
    assert [_fmt_tick(v) for v in (2.5e-4, -12345.0)] == ["2.5e-04", "-1.2e+04"]


class TestBulkPoints:
    """`_Frame.map_points` and `SvgCanvas.polyline` work on whole arrays; the bytes are those of the per-point loop kept here."""

    @staticmethod
    def per_point(monkeypatch):
        """Put back the per-point mapping and formatting: one `map` call and one f-string per point."""
        from snakesim import svgplot

        def map_points(self, xs, ys):
            return [self.map(x, y) for x, y in zip(xs, ys)]

        def polyline(self, points, stroke="black", stroke_width=1.5, dash=None, opacity=None):
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
            attrs = {"fill": "none", "stroke": stroke, "stroke-width": stroke_width, "stroke-dasharray": dash, "opacity": opacity}
            self._parts.append(f'<polyline points="{coords}"' + self._attrs(attrs) + "/>")

        monkeypatch.setattr(svgplot._Frame, "map_points", map_points)
        monkeypatch.setattr(svgplot.SvgCanvas, "polyline", polyline)

    def same_bytes(self, tmp_path, monkeypatch, plot, *args, **kwargs):
        plot(tmp_path / "bulk.svg", *args, **kwargs)
        with monkeypatch.context() as patch:
            self.per_point(patch)
            plot(tmp_path / "loop.svg", *args, **kwargs)
        bulk, loop = (tmp_path / "bulk.svg").read_bytes(), (tmp_path / "loop.svg").read_bytes()
        assert bulk == loop
        return bulk.decode()

    def test_trajectory_with_its_dashed_com_path(self, tmp_path, monkeypatch):
        from snakesim.dynamics import DissipationParams
        from snakesim.optimize import SimConfig, random_gait, simulate_gait

        for seed in range(4):
            traj = simulate_gait(random_gait(seed), SimConfig(cycles=3), DissipationParams.uniform(1.38, 12, 0.2))
            text = self.same_bytes(tmp_path, monkeypatch, plot_trajectory, traj.vertices, com_path=traj.com_path(), title=f"gait {seed}")
            assert 'stroke-dasharray="6,4"' in text
        # a single frame, no CoM path: one body and a frame padded around a point-sized extent
        self.same_bytes(tmp_path, monkeypatch, plot_trajectory, traj.vertices[:1])

    def test_curves_with_a_one_point_curve_and_equal_aspect(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(12)
        x = np.sort(rng.uniform(-3.0, 5.0, 40))
        curves = [
            {"x": x, "y": np.sin(x) * 1e-3, "label": "small"},
            {"x": x, "y": rng.normal(size=40), "dash": "4,2", "opacity": 0.5, "width": 2.0},
            {"x": [0.25], "y": [-0.5], "label": "one point"},  # drawn as a circle
            {"x": [], "y": []},
        ]
        for equal_aspect in (False, True):
            text = self.same_bytes(tmp_path, monkeypatch, plot_curves, curves, xlabel="x", ylabel="y", equal_aspect=equal_aspect)
            assert text.count("<circle") == 1 and text.count("<polyline") == 3

    def test_polyline_of_no_points(self):
        from snakesim.svgplot import SvgCanvas

        canvas = SvgCanvas()
        canvas.polyline([])
        assert '<polyline points=""' in canvas.to_string()
