"""Minimal SVG line plots (log-scale y) with no plotting dependencies."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
           "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]

_FLOOR = 1e-16
_MAX_POINTS = 800
_WIDTH, _HEIGHT = 720, 460  # of one panel
_XLABEL, _YLABEL = "iteration t", "f(x_t) - f*"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _thin(x: np.ndarray, y: np.ndarray) -> tuple:
    if len(x) <= _MAX_POINTS:
        return x, y
    idx = np.unique(np.linspace(0, len(x) - 1, _MAX_POINTS).astype(int))
    return x[idx], y[idx]


def _pow10_ticks(lo: float, hi: float) -> list:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    step = max(1, (hi_e - lo_e) // 8)
    return [10.0 ** e for e in range(lo_e, hi_e + 1, step)]


def _lin_ticks(lo: float, hi: float, n: int = 6) -> list:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(v)
        v += step
    return ticks


def _tick_label(v: float) -> str:
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        e = math.floor(math.log10(abs(v)))
        mant = v / 10.0 ** e
        if abs(mant - 1.0) < 1e-9:
            return f"1e{e}"
        return f"{mant:g}e{e}"
    return f"{v:g}"


def line_plot(series: Sequence[tuple], title: str = "") -> str:
    """Render (label, x, y) series as an SVG string.

    Values below `_FLOOR` are clamped so that exactly-converged runs stay on
    the canvas.
    """
    width, height = _WIDTH, _HEIGHT
    ml, mr, mt, mb = 64, 16, 28, 44
    pw, ph = width - ml - mr, height - mt - mb

    prepared = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.maximum(np.asarray(y, dtype=float), _FLOOR)
        x, y = _thin(x, y)
        prepared.append((label, x, y))

    xs = np.concatenate([s[1] for s in prepared]) if prepared else np.array([0.0, 1.0])
    ys = np.concatenate([s[2] for s in prepared]) if prepared else np.array([1.0, 10.0])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo = max(y_lo, _FLOOR)
    if y_hi <= y_lo:
        y_hi = y_lo * 10.0
    ly_lo, ly_hi = math.log10(y_lo), math.log10(y_hi)
    if ly_hi - ly_lo < 1e-9:
        ly_hi = ly_lo + 1.0

    def px(v: float) -> float:
        return ml + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        frac = (math.log10(max(v, _FLOOR)) - ly_lo) / (ly_hi - ly_lo)
        return mt + (1.0 - frac) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
           'stroke="#333" stroke-width="1"/>']
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
                   f'font-size="13" font-family="sans-serif">{title}</text>')

    for v in _pow10_ticks(y_lo, y_hi):
        if not (y_lo * 0.999 <= v <= y_hi * 1.001):
            continue
        yy = py(v)
        out.append(f'<line x1="{ml}" y1="{_fmt(yy)}" x2="{width - mr}" y2="{_fmt(yy)}" '
                   'stroke="#ddd" stroke-width="0.6"/>')
        out.append(f'<text x="{ml - 6}" y="{_fmt(yy + 3.5)}" text-anchor="end" '
                   f'font-size="10" font-family="sans-serif">{_tick_label(v)}</text>')
    for v in _lin_ticks(x_lo, x_hi):
        xx = px(v)
        out.append(f'<line x1="{_fmt(xx)}" y1="{mt + ph}" x2="{_fmt(xx)}" '
                   f'y2="{mt + ph + 4}" stroke="#333" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(xx)}" y="{mt + ph + 16}" text-anchor="middle" '
                   f'font-size="10" font-family="sans-serif">{_tick_label(v)}</text>')
    out.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle" '
               f'font-size="11" font-family="sans-serif">{_XLABEL}</text>')
    out.append(f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="11" '
               f'font-family="sans-serif" transform="rotate(-90 14 {mt + ph / 2:.1f})">'
               f'{_YLABEL}</text>')

    for i, (label, x, y) in enumerate(prepared):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.4"/>')
        ly = mt + 14 + 14 * i
        lx = width - mr - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 23}" y="{ly}" font-size="10" '
                   f'font-family="sans-serif">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def panel_grid(panels: Sequence[tuple]) -> str:
    """Stack several (panel_title, series) plots into one SVG document, two
    panels a row (one when there is only one)."""
    columns = min(2, max(1, len(panels)))
    rows = math.ceil(len(panels) / columns)
    total_w, total_h = columns * _WIDTH, rows * _HEIGHT
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
           f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">']
    for i, (title, series) in enumerate(panels):
        inner = line_plot(series, title=title)
        body = inner.split("\n", 1)[1].rsplit("</svg>", 1)[0]
        tx, ty = (i % columns) * _WIDTH, (i // columns) * _HEIGHT
        out.append(f'<g transform="translate({tx} {ty})">\n{body}</g>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
