"""The SVG writers escape text exactly as ``xml.sax.saxutils.escape`` does."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import pytest

from seqattn import svg

TEXTS = ["", "plain", "a & b", "<b>", "x > y < z", 'say "hi"', "it's", "&amp;", "&lt;&",
         "a&<>\"'z"]


@pytest.mark.parametrize("text", TEXTS)
def test_escape_matches_saxutils(text):
    assert svg.escape(text) == sax_escape(text)


def test_token_heatmap_bytes_match_saxutils(monkeypatch):
    tokens = ["&", "<b>", '"q"', "'s'", "a&<>\"'z", "&amp;"]
    weights = [0.05, 0.4, 0.1, 0.2, 0.15, 0.1]
    warning = "gates <= 0 & \"all\" 'zero'"
    ours = svg.token_heatmap(tokens, weights, warning)
    monkeypatch.setattr(svg, "escape", sax_escape)
    assert ours == svg.token_heatmap(tokens, weights, warning)
    texts = [el.text for el in ET.fromstring(ours).iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0:-1:2] == tokens and texts[-1] == warning


def test_line_chart_bytes_match_saxutils(monkeypatch):
    series = ("m<&>'\"", [(0.0, 0.5), (0.5, 0.25), (1.0, 0.75)])
    labels = dict(title="a & b <c>", x_label='"delta"', y_label="it's > 0")
    ours = svg.line_chart(series, **labels)
    monkeypatch.setattr(svg, "escape", sax_escape)
    assert ours == svg.line_chart(series, **labels)
    texts = {el.text for el in ET.fromstring(ours).iter("{http://www.w3.org/2000/svg}text")}
    assert {series[0], *labels.values()} <= texts
