"""Static SVG plots of simulation output: one panel per population
(humans, mosquitoes) with a legend entry per compartment.  Axis ranges are
auto-scaled; no interactivity, no external plotting dependency.

The chart is made as a sequence of text parts (``trajectory_svg_parts``),
which ``simulate --svg`` writes to its file in turn, so the whole text is
never held in memory.  A series' points are mapped to pixels a column at a
time, the column read in place from the row buffer ``Trajectory.rows`` as a
strided view, never copied: as numpy arrays once numpy is loaded, else
value by value, with the affine map's constants bound once, from a
``memoryview`` slice into an ``array('d')`` (``integrator._numpy_loaded``),
so that ``simulate --svg`` never imports numpy; the two give the same
doubles.  A panel formats its time pixels once, ``_DENSE_CHUNK`` rows at a
time, into the format of the chunk's points, ``"X,%.2f X,%.2f ..."``
(``_x_formats``); each chunk of each of its four polylines is then one
``format % y_pixels`` call, yielded as its own part.  ``'%.2f' % v`` and
``f"{v:.2f}"`` both format through ``PyOS_double_to_string(v, 'f', 2, 0)``
and an X holds no ``%``, so the text is byte for byte that of per-point
f-strings, with each number formatted once, in C.  The formats take about
12 bytes a row, one ``str`` per chunk; the tuple of one format call is a
chunk in size."""

from __future__ import annotations

import math
import re
import sys
from array import array
from typing import Iterator

from .integrator import _DENSE_CHUNK, _WIDTH, Trajectory, _numpy_loaded
from .model import ROW_LABELS

_PANEL_W = 460
_PANEL_H = 340
_MARGIN_L = 72
_MARGIN_R = 16
_MARGIN_T = 46
_MARGIN_B = 46
_TICKS = 5  # about this many ticks per axis

# Characters XML 1.0 cannot carry: C0 controls other than tab, line feed and
# carriage return, and the lone surrogates that stand for the undecodable
# bytes of a file name
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_HUMAN_SERIES = (("S_h", "#1f77b4"), ("E_h", "#ff7f0e"), ("I_h", "#d62728"), ("R_h", "#2ca02c"))
_MOSQUITO_SERIES = (("A_m", "#8c564b"), ("S_m", "#1f77b4"), ("E_m", "#ff7f0e"), ("I_m", "#d62728"))


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    end = min(hi + 1e-9 * step, sys.float_info.max)  # the slack overflows near the largest double
    while t <= end:
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


def _x_formats(xs) -> list[str]:
    """The pixels xs (a numpy array or ``array('d')``) formatted once, as
    the format ``" X,%.2f"`` per pixel, X being ``f"{x:.2f}"``, in one string
    per ``_DENSE_CHUNK`` of them; the first has no leading space."""
    formats = []
    for lo in range(0, len(xs), _DENSE_CHUNK):
        x = xs[lo:lo + _DENSE_CHUNK].tolist()
        fmt = (" %.2f,%%.2f" * len(x)) % tuple(x)
        formats.append(fmt if lo else fmt[1:])
    return formats


def _points(formats: list[str], ys) -> Iterator[str]:
    """Polyline points "X,Y X,Y ..." of the formats of ``_x_formats`` and
    the y pixels ys (a numpy array or ``array('d')``), in parts of
    ``_DENSE_CHUNK`` points, each y formatted as ``f"{v:.2f}"``, one format
    call per part; the parts joined give the whole text."""
    for lo, fmt in zip(range(0, len(ys), _DENSE_CHUNK), formats):
        yield fmt % tuple(ys[lo:lo + _DENSE_CHUNK].tolist())


def _panel(x0: int, title: str, traj: Trajectory, series) -> Iterator[str]:
    """The lines of one panel, each ending in a line break; a polyline's
    points come in the parts of ``_points``, over the panel's one set of
    time formats."""
    vectorized = _numpy_loaded()
    if vectorized:
        data = traj.as_array()
        times = traj.times
        columns = [data[:, ROW_LABELS.index(label)] for label, _ in series]
        top = float(max(col.max() for col in columns))
    else:
        rows = memoryview(traj.rows)  # its strided slices are views, not copies
        times = rows[0::_WIDTH]
        columns = [rows[1 + ROW_LABELS.index(label)::_WIDTH] for label, _ in series]
        top = max(map(max, columns))
    t_lo, t_hi = float(times[0]), float(times[-1])
    if t_hi == t_lo:
        t_hi = t_lo + 1.0
    # the headroom overflows a top within 5% of the largest double; the axis
    # top stays finite, so that the ticks can be placed
    y_hi = min(max(top, 1.0) * 1.05, sys.float_info.max)
    y_lo = 0.0

    px0, px1 = x0 + _MARGIN_L, x0 + _PANEL_W - _MARGIN_R
    py0, py1 = _MARGIN_T, _PANEL_H - _MARGIN_B

    def sx(t):
        return px0 + (t - t_lo) / (t_hi - t_lo) * (px1 - px0)

    def sy(v):
        return py1 - (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    yield (f'<text x="{x0 + _PANEL_W / 2:.0f}" y="24" text-anchor="middle" '
           f'font-size="15" font-weight="bold">{title}</text>\n')
    yield (f'<rect x="{px0}" y="{py0}" width="{px1 - px0}" height="{py1 - py0}" '
           'fill="none" stroke="#333" stroke-width="1"/>\n')

    for t in _nice_ticks(t_lo, t_hi):
        X = sx(t)
        yield f'<line x1="{X:.1f}" y1="{py1}" x2="{X:.1f}" y2="{py1 + 4}" stroke="#333"/>\n'
        yield (f'<text x="{X:.1f}" y="{py1 + 18}" text-anchor="middle" '
               f'font-size="11">{_fmt_tick(t)}</text>\n')
    for v in _nice_ticks(y_lo, y_hi):
        Y = sy(v)
        yield f'<line x1="{px0 - 4}" y1="{Y:.1f}" x2="{px0}" y2="{Y:.1f}" stroke="#333"/>\n'
        yield (f'<line x1="{px0}" y1="{Y:.1f}" x2="{px1}" y2="{Y:.1f}" '
               'stroke="#ddd" stroke-width="0.5"/>\n')
        yield (f'<text x="{px0 - 7}" y="{Y + 4:.1f}" text-anchor="end" '
               f'font-size="11">{_fmt_tick(v)}</text>\n')
    yield (f'<text x="{(px0 + px1) / 2:.0f}" y="{_PANEL_H - 10}" text-anchor="middle" '
           'font-size="12">time (days)</text>\n')

    if vectorized:
        x_pixels, y_pixels = sx, sy
    else:  # sx and sy value by value, their constants bound once per column
        t_span, y_span, width, height = t_hi - t_lo, y_hi - y_lo, px1 - px0, py1 - py0

        def x_pixels(col):
            return array("d", (px0 + (t - t_lo) / t_span * width for t in col))

        def y_pixels(col):
            return array("d", (py1 - (v - y_lo) / y_span * height for v in col))
    formats = _x_formats(x_pixels(times))  # shared by the four polylines
    for (_, color), col in zip(series, columns):
        yield '<polyline points="'
        yield from _points(formats, y_pixels(col))
        yield f'" fill="none" stroke="{color}" stroke-width="1.6"/>\n'

    lx, ly = px1 - 64, py0 + 8
    for i, (label, color) in enumerate(series):
        Y = ly + 16 * i
        yield (f'<line x1="{lx}" y1="{Y}" x2="{lx + 18}" y2="{Y}" '
               f'stroke="{color}" stroke-width="2"/>\n')
        yield f'<text x="{lx + 24}" y="{Y + 4}" font-size="11">{label}</text>\n'


def trajectory_svg_parts(traj: Trajectory, title: str = "") -> Iterator[str]:
    """Two-panel chart (human and mosquito compartments) as SVG text in
    parts, so a writer holds one part at a time.  The title is XML-escaped,
    with U+FFFD for each character XML cannot carry."""
    width = 2 * _PANEL_W
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}" '
           'font-family="Helvetica, Arial, sans-serif">\n')
    yield f'<rect width="{width}" height="{_PANEL_H}" fill="white"/>\n'
    escaped = _NOT_XML.sub("\ufffd", title.replace("&", "&amp;").replace("<", "&lt;")
                           .replace(">", "&gt;"))
    human_title = "Human compartments" + (f" ({escaped})" if title else "")
    yield from _panel(0, human_title, traj, _HUMAN_SERIES)
    yield from _panel(_PANEL_W, "Mosquito compartments", traj, _MOSQUITO_SERIES)
    yield "</svg>\n"


def render_trajectory_svg(traj: Trajectory, title: str = "") -> str:
    """Two-panel chart (human and mosquito compartments) as an SVG string:
    the parts of ``trajectory_svg_parts`` joined."""
    return "".join(trajectory_svg_parts(traj, title))
