"""Minimal SVG writers: a line chart and a shaded-token strip.

Hand-rolled on purpose: the outputs are small, deterministic, and diffable
in tests, with no imaging dependency.
"""

from __future__ import annotations


def escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as entities, ``&`` first: the bytes of
    ``xml.sax.saxutils.escape``, whose import pulls in urllib and the
    HTTP, email and ssl modules."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_chart(
    series: tuple[str, list[tuple[float, float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """One named series of ``(x, y)`` points as a 640x400 polyline, with
    axes, min/max tick labels and the name as a legend."""
    width, height, pad = 640, 400, 56
    name, points = series
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{escape(title)}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="12">{escape(x_label)}</text>',
        f'<text x="16" y="{height / 2:.1f}" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})" text-anchor="middle">{escape(y_label)}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10" text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" font-size="10" text-anchor="middle">{x_hi:g}</text>',
        f'<text x="{pad - 6}" y="{height - pad}" font-size="10" text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" font-size="10" text-anchor="end">{y_hi:.4g}</text>',
    ]
    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in points)
    parts.append(f'<polyline fill="none" stroke="#1f6feb" stroke-width="2" points="{coords}"/>')
    parts.append(
        f'<text x="{width - pad}" y="{pad}" font-size="11" '
        f'text-anchor="end" fill="#1f6feb">{escape(name)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def token_heatmap(tokens: list[str], weights: list[float], warning: str | None = None) -> str:
    """Tokens rendered as boxes shaded by weight (darker means higher)."""
    box_h = 34
    gap = 4
    char_w = 8
    widths = [max(3, len(t)) * char_w + 10 for t in tokens]
    total_w = sum(widths) + gap * (len(tokens) + 1)
    height = box_h + 52 if warning else box_h + 28
    top = max(weights) if weights and max(weights) > 0 else 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{height}" '
        f'viewBox="0 0 {total_w} {height}">',
        f'<rect width="{total_w}" height="{height}" fill="white"/>',
    ]
    x = gap
    for tok, w, bw in zip(tokens, weights, widths):
        # darker fill for higher weight; text flips to white past mid-shade
        shade = int(round(255 * (1.0 - w / top)))
        fg = "white" if shade < 128 else "black"
        parts.append(
            f'<rect x="{x}" y="8" width="{bw}" height="{box_h}" '
            f'fill="rgb({shade},{shade},{shade})" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x + bw / 2:.1f}" y="{8 + box_h / 2 + 4:.1f}" text-anchor="middle" '
            f'font-size="12" fill="{fg}">{escape(tok)}</text>'
        )
        parts.append(
            f'<text x="{x + bw / 2:.1f}" y="{8 + box_h + 14}" text-anchor="middle" '
            f'font-size="9">{w:.3f}</text>'
        )
        x += bw + gap
    if warning:
        parts.append(
            f'<text x="{gap}" y="{height - 8}" font-size="11" fill="#d1242f">{escape(warning)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
