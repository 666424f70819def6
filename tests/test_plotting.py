import hashlib
import re
import xml.etree.ElementTree as ET

import pytest

from rlnoc.harness import STATS_HEADER, SWEEP_HEADER
from rlnoc.plotting import PlotError, render_plot

SWEEP_CSV = (
    SWEEP_HEADER + "\n"
    "4x4,16,48,20,0D_IU_SI,100.0\n"
    "4x4,16,48,60,0D_IU_SI,75.0\n"
)

STATS_CSV = (
    STATS_HEADER + "\n"
    "25,ipre_share,1,2,3,4,5\n"
)


def test_empty_sweep_renders_axes_only():
    svg = render_plot(SWEEP_HEADER + "\n", "lines")
    assert svg.startswith("<svg")
    assert "<polyline" not in svg
    assert svg.count("<line") >= 2


@pytest.mark.parametrize("header, kind, digest", [
    (SWEEP_HEADER, "lines",
     "f464e093622e608f806101490e4b9e99088fa5080eb8d066ed6a712520e70e43"),
    (STATS_HEADER, "boxwhisker",
     "63efd4c07a68191d8093982b55212ed376a638ab7c97818def0c22b7dbef38a6"),
])
def test_empty_plot_bytes_are_pinned(header, kind, digest):
    svg = render_plot(header + "\n", kind)
    assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest


def test_two_point_series_is_one_polyline_with_two_vertices():
    svg = render_plot(SWEEP_CSV, "lines")
    polylines = re.findall(r'<polyline[^>]*points="([^"]+)"', svg)
    assert len(polylines) == 1
    assert len(polylines[0].split()) == 2


def test_box_marks_are_vertically_ordered():
    svg = render_plot(STATS_CSV, "boxwhisker")
    # Series marks carry the series colour; axes and ticks are black.
    whiskers = re.findall(
        r'<line x1="[\d.]+" y1="([\d.]+)" x2="[\d.]+" y2="\1" stroke="#1f77b4"', svg)
    assert len(whiskers) == 3  # two whisker ends and the median bar
    rect = re.search(
        r'<rect x="[\d.]+" y="([\d.]+)" width="[\d.]+" height="([\d.]+)" fill="#1f77b4"',
        svg)
    assert rect is not None
    ys = sorted(float(y) for y in whiskers)
    top_whisker, median, bottom_whisker = ys[0], ys[1], ys[-1]
    box_top = float(rect.group(1))
    box_bottom = box_top + float(rect.group(2))
    # SVG y grows downward: max value on top, then q3, median, q1, min.
    assert top_whisker < box_top < median < box_bottom < bottom_whisker


def test_unordered_box_row_rejected_with_row_number():
    bad = STATS_HEADER + "\n25,ipre_share,5,2,3,4,1\n"
    with pytest.raises(PlotError,
                       match=r"^row 2: box statistics not ordered min<=q1<=median<=q3<=max$"):
        render_plot(bad, "boxwhisker")


def test_malformed_cell_count_names_the_row():
    bad = SWEEP_HEADER + "\n4x4,16,48,20,0D_IU_SI\n"
    with pytest.raises(PlotError, match=r"^row 2: expected 6 cells, got 5$"):
        render_plot(bad, "lines")


def test_wrong_schema_rejected():
    with pytest.raises(PlotError):
        render_plot(SWEEP_CSV, "boxwhisker")
    with pytest.raises(PlotError):
        render_plot(STATS_CSV, "lines")
    with pytest.raises(PlotError):
        render_plot(SWEEP_CSV, "scatter")


@pytest.mark.parametrize("csv, kind, label", [
    (SWEEP_HEADER + "\n4x4,16,48,20,A&B<i>,100.0\n", "lines", "4x4 16-48 A&B<i>"),
    (STATS_HEADER + "\n25,a<b,1,2,3,4,5\n", "boxwhisker", "a<b"),
], ids=["lines", "boxwhisker"])
def test_markup_in_a_label_is_escaped(csv, kind, label):
    root = ET.fromstring(render_plot(csv, kind))
    texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
    assert label in texts


def test_deterministic_output():
    assert render_plot(SWEEP_CSV, "lines") == render_plot(SWEEP_CSV, "lines")


def test_comments_and_blank_lines_ignored():
    text = "# note\n\n" + SWEEP_CSV
    assert render_plot(text, "lines") == render_plot(SWEEP_CSV, "lines")


@pytest.mark.parametrize("csv, kind, mark, expected", [
    # One flow count: the x range is widened from [20, 20] to [20, 21], so
    # the point sits on the y axis (x = 64), at 100% on top (y = 24).
    (SWEEP_HEADER + "\n4x4,16,48,20,0D_IU_SI,100.0\n", "lines",
     r'<circle cx="([\d.]+)" cy="([\d.]+)"', ("64.00", "24.00")),
    # Five equal statistics: the y range is widened from [3, 3] to [3, 4],
    # so the median bar lies on the x axis (y = 392), centred on the plot
    # (x = 308) with its left end 7 to the left.
    (STATS_HEADER + "\n25,ipre_share,3,3,3,3,3\n", "boxwhisker",
     r'<line x1="([\d.]+)" y1="([\d.]+)" x2="[\d.]+" y2="[\d.]+" stroke="#1f77b4" '
     r'stroke-width="2"', ("301.00", "392.00")),
], ids=["single_point_sweep", "single_value_box"])
def test_degenerate_axis_is_widened_to_one_unit(csv, kind, mark, expected):
    assert re.findall(mark, render_plot(csv, kind)) == [expected]
