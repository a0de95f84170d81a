import xml.etree.ElementTree as ET

import numpy as np
import pytest

from haraudit.svgplot import chord_svg, condensed_view_svg, histogram_svg


def parse(svg_text):
    return ET.fromstring(svg_text)


def test_condensed_view_structure():
    rng = np.random.default_rng(0)
    means = rng.normal(size=(50, 2))
    flags = rng.random(50) < 0.3
    doc = condensed_view_svg(means, flags)
    root = parse(doc)
    rects = [el for el in root if el.tag.endswith("rect")]
    lines = [el for el in root if el.tag.endswith("polyline")]
    assert len(rects) == 50  # one band per window
    assert len(lines) == 2  # one trace per channel
    reds = sum(1 for r in rects if r.get("fill") == "#f2b8b8")
    assert reds == int(flags.sum())


def test_condensed_view_deterministic():
    means = np.linspace(0, 1, 20).reshape(-1, 1)
    flags = np.zeros(20, dtype=bool)
    assert condensed_view_svg(means, flags) == condensed_view_svg(means, flags)


def test_condensed_view_flags_must_align():
    with pytest.raises(ValueError, match="^flags must align with window_means rows$"):
        condensed_view_svg(np.zeros((3, 2)), [True, False])


def test_empty_views_are_valid_svg():
    for svg, note in [(condensed_view_svg(np.zeros((0, 2)), []), " no windows "),
                      (chord_svg([], []), " no classes ")]:
        root = parse(svg)
        assert len(root) == 0 and svg.count("<!--" + note + "-->") == 1


def test_histogram_bars_match_bins():
    bins = [(1, 1, 10), (2, 3, 4), (4, 7, 0), (8, 15, 1)]
    root = parse(histogram_svg(bins))
    rects = [el for el in root if el.tag.endswith("rect")]
    assert len(rects) == len(bins)


def test_histogram_empty_is_valid_svg():
    parse(histogram_svg([]))


def test_chord_paths_and_nodes():
    edges = [(0, 1, 5), (2, 0, 1)]
    root = parse(chord_svg(edges, ["a", "b", "c"]))
    paths = [el for el in root if el.tag.endswith("path")]
    circles = [el for el in root if el.tag.endswith("circle")]
    assert len(paths) == 2
    assert len(circles) == 3
    widths = sorted(float(p.get("stroke-width")) for p in paths)
    assert widths[0] < widths[1]  # weight drives thickness
