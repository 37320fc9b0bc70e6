"""Dependency-free SVG line chart used by the sweep CLI."""

from __future__ import annotations

from typing import Sequence

_WIDTH = 800
_HEIGHT = 600
_MARGIN_LEFT = 90
_MARGIN_RIGHT = 30
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 70

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_TICKS = 5


def _element(tag: str, body: str | None = None, **attrs: object) -> str:
    """<tag a="v" .../>, or <tag ...>body</tag> with &, < and > in the body
    escaped; attributes keep their order and each _ in a name becomes -."""
    head = "".join(f' {name.replace("_", "-")}="{value}"' for name, value in attrs.items())
    if body is None:
        return f"<{tag}{head}/>"
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{tag}{head}>{body}</{tag}>"


def render_line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render (label, xs, ys) series as an 800x600 SVG with linear axes and
    a legend; emits exactly one polyline element per series."""
    if not series:
        raise ValueError("render_line_chart requires at least one series")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("render_line_chart requires non-empty series")
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    axis_y = _MARGIN_TOP + plot_h
    mid_y = f"{_MARGIN_TOP + plot_h / 2:.1f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        _element("rect", x=0, y=0, width=_WIDTH, height=_HEIGHT, fill="white"),
        _element("text", title, x=f"{_WIDTH / 2:.1f}", y=24, text_anchor="middle", font_size=16),
        _element("line", x1=_MARGIN_LEFT, y1=axis_y, x2=_MARGIN_LEFT + plot_w, y2=axis_y, stroke="black"),
        _element("line", x1=_MARGIN_LEFT, y1=_MARGIN_TOP, x2=_MARGIN_LEFT, y2=axis_y, stroke="black"),
    ]
    for i in range(_TICKS + 1):
        x_val = x_min + i / _TICKS * (x_max - x_min)
        y_val = y_min + i / _TICKS * (y_max - y_min)
        x_pix = f"{px(x_val):.1f}"
        y_pix = py(y_val)
        parts.append(_element("line", x1=x_pix, y1=axis_y, x2=x_pix, y2=axis_y + 6, stroke="black"))
        parts.append(_element("text", f"{x_val:.6g}", x=x_pix, y=axis_y + 22, text_anchor="middle", font_size=12))
        parts.append(_element("line", x1=_MARGIN_LEFT - 6, y1=f"{y_pix:.1f}", x2=_MARGIN_LEFT, y2=f"{y_pix:.1f}", stroke="black"))
        parts.append(_element("text", f"{y_val:.6g}", x=_MARGIN_LEFT - 10, y=f"{y_pix + 4:.1f}", text_anchor="end", font_size=12))
    parts.append(_element("text", x_label, x=f"{_MARGIN_LEFT + plot_w / 2:.1f}", y=_HEIGHT - 16, text_anchor="middle", font_size=14))
    parts.append(_element("text", y_label, x=22, y=mid_y, text_anchor="middle", font_size=14, transform=f"rotate(-90 22 {mid_y})"))

    legend_x = _MARGIN_LEFT + plot_w - 140
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        legend_y = _MARGIN_TOP + 14 + 18 * idx
        parts.append(_element("polyline", fill="none", stroke=color, stroke_width=1.5, points=points))
        parts.append(_element("line", x1=legend_x, y1=legend_y - 4, x2=legend_x + 24, y2=legend_y - 4, stroke=color, stroke_width=1.5))
        parts.append(_element("text", label, x=legend_x + 30, y=legend_y, font_size=12))
    return "\n".join(parts) + "\n</svg>\n"
