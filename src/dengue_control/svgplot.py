"""Static SVG plots of simulation output: one panel per population
(humans, mosquitoes) with a legend entry per compartment.  Axis ranges are
auto-scaled; no interactivity, no external plotting dependency.

A series' points are mapped to pixels column-wise, interleaved into one
(x, y) buffer and formatted in chunks of ``_DENSE_CHUNK`` rows, each chunk
by one ``"%.2f,%.2f %.2f,%.2f ..." % values`` call.  ``'%.2f' % v`` and
``f"{v:.2f}"`` both format through ``PyOS_double_to_string(v, 'f', 2, 0)``,
so the text is byte for byte that of per-point f-strings, while the
per-number work stays in C and no list of per-point strings is held."""

from __future__ import annotations

import math

import numpy as np

from .integrator import _DENSE_CHUNK, Trajectory

_PANEL_W = 460
_PANEL_H = 340
_MARGIN_L = 72
_MARGIN_R = 16
_MARGIN_T = 46
_MARGIN_B = 46

_HUMAN_SERIES = (("S_h", 0, "#1f77b4"), ("E_h", 1, "#ff7f0e"),
                 ("I_h", 2, "#d62728"), ("R_h", 3, "#2ca02c"))
_MOSQUITO_SERIES = (("A_m", 4, "#8c564b"), ("S_m", 5, "#1f77b4"),
                    ("E_m", 6, "#ff7f0e"), ("I_m", 7, "#d62728"))


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:
            break  # step below half an ulp of t: no further tick is representable
        t += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.1e}"
    if abs(v) >= 100 or float(v).is_integer():
        return f"{v:.0f}"
    return f"{v:g}"


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """Polyline points "X,Y X,Y ..." with each coordinate formatted as
    ``f"{v:.2f}"``, one format call per chunk of rows."""
    xy = np.column_stack((xs, ys))
    chunks = []
    for lo in range(0, len(xy), _DENSE_CHUNK):
        chunk = xy[lo:lo + _DENSE_CHUNK]
        chunks.append((" %.2f,%.2f" * len(chunk))[1:] % tuple(chunk.ravel().tolist()))
    return " ".join(chunks)


def _panel(x0: int, title: str, times, data, series) -> list[str]:
    t_lo, t_hi = float(times[0]), float(times[-1])
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    y_hi = max(max(data[:, col].max() for _, col, _ in series), 1.0) * 1.05
    y_lo = 0.0

    px0, px1 = x0 + _MARGIN_L, x0 + _PANEL_W - _MARGIN_R
    py0, py1 = _MARGIN_T, _PANEL_H - _MARGIN_B

    def sx(t):
        return px0 + (t - t_lo) / (t_hi - t_lo) * (px1 - px0)

    def sy(v):
        return py1 - (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = [f'<text x="{x0 + _PANEL_W / 2:.0f}" y="24" text-anchor="middle" '
           f'font-size="15" font-weight="bold">{title}</text>']
    out.append(f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" height="{py1 - py0}" '
               'fill="none" stroke="#333" stroke-width="1"/>')

    for t in _nice_ticks(t_lo, t_hi):
        X = sx(t)
        out.append(f'<line x1="{X:.1f}" y1="{py1}" x2="{X:.1f}" y2="{py1 + 4}" stroke="#333"/>')
        out.append(f'<text x="{X:.1f}" y="{py1 + 18}" text-anchor="middle" '
                   f'font-size="11">{_fmt_tick(t)}</text>')
    for v in _nice_ticks(y_lo, y_hi):
        Y = sy(v)
        out.append(f'<line x1="{px0 - 4}" y1="{Y:.1f}" x2="{px0}" y2="{Y:.1f}" stroke="#333"/>')
        out.append(f'<line x1="{px0}" y1="{Y:.1f}" x2="{px1}" y2="{Y:.1f}" '
                   'stroke="#ddd" stroke-width="0.5"/>')
        out.append(f'<text x="{px0 - 7}" y="{Y + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{_fmt_tick(v)}</text>')
    out.append(f'<text x="{(px0 + px1) / 2:.0f}" y="{_PANEL_H - 10}" text-anchor="middle" '
               'font-size="12">time (days)</text>')

    xs = sx(times)
    for label, col, color in series:
        pts = _points(xs, sy(data[:, col]))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.6"/>')

    lx, ly = px1 - 64, py0 + 8
    for i, (label, _, color) in enumerate(series):
        Y = ly + 16 * i
        out.append(f'<line x1="{lx}" y1="{Y}" x2="{lx + 18}" y2="{Y}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 24}" y="{Y + 4}" font-size="11">{label}</text>')
    return out


def render_trajectory_svg(traj: Trajectory, title: str = "") -> str:
    """Two-panel chart (human and mosquito compartments) as an SVG string."""
    data = traj.as_array()
    width = 2 * _PANEL_W
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}" '
        'font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{width}" height="{_PANEL_H}" fill="white"/>',
    ]
    human_title = "Human compartments" + (f" ({title})" if title else "")
    parts += _panel(0, human_title, traj.times, data, _HUMAN_SERIES)
    parts += _panel(_PANEL_W, "Mosquito compartments", traj.times, data, _MOSQUITO_SERIES)
    # a last empty part ends the text with a line break without copying it again
    parts += ["</svg>", ""]
    return "\n".join(parts)
