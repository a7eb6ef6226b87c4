"""Static SVG plots of simulation output: one panel per population
(humans, mosquitoes) with a legend entry per compartment.  Axis ranges are
auto-scaled; no interactivity, no external plotting dependency.

The chart is made as a sequence of text parts (``trajectory_svg_parts``),
which ``simulate --svg`` writes to its file in turn, so the whole text is
never held in memory.  A series' points are mapped to pixels a column at a
time, the column read in place from the row buffer ``Trajectory.rows`` as a
strided view, never copied: as numpy arrays once numpy is loaded, else
point by point from a ``memoryview`` slice into an ``array('d')``
(``integrator._numpy_loaded``), so that ``simulate --svg`` never imports
numpy; the two give the same doubles.  A panel formats its
time pixels once, in chunks of ``_DENSE_CHUNK`` rows, each chunk by one
``"%.2f %.2f ..." % values`` call into one string (``_x_text``), and its
four polylines share that text: each chunk of a polyline is one
``"%s,%.2f %s,%.2f ..." % values`` call over the chunk's time text, split
into its pixels, interleaved with the series' y pixels, and is yielded as
its own part.  ``'%.2f' % v`` and ``f"{v:.2f}"`` both format through
``PyOS_double_to_string(v, 'f', 2, 0)``, and ``%s`` of such a string is
that string, so the text is byte for byte that of per-point f-strings,
while the per-number work stays in C.  The time text is held as one
``str`` per chunk, about 7 bytes a row, not as a list of per-point strings
(about 60 bytes a row); the lists and tuples of one format call are a
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


def _x_text(xs) -> list[str]:
    """The pixels xs (a numpy array or ``array('d')``) formatted once, as
    ``f"{v:.2f} "`` per pixel, in one string per ``_DENSE_CHUNK`` of them."""
    text = []
    for lo in range(0, len(xs), _DENSE_CHUNK):
        x = xs[lo:lo + _DENSE_CHUNK].tolist()
        text.append(("%.2f " * len(x)) % tuple(x))
    return text


def _points(x_text: list[str], ys) -> Iterator[str]:
    """Polyline points "X,Y X,Y ..." of the x pixels formatted by
    ``_x_text`` and the y pixels ys (a numpy array or ``array('d')``), in
    parts of ``_DENSE_CHUNK`` points, each y formatted as ``f"{v:.2f}"``,
    one format call per part; the parts joined give the whole text."""
    lo = 0
    for text in x_text:
        x = text.split()
        xy = [None] * (2 * len(x))
        xy[0::2] = x
        xy[1::2] = ys[lo:lo + len(x)].tolist()
        fmt = " %s,%.2f" * len(x)
        yield (fmt if lo else fmt[1:]) % tuple(xy)
        lo += len(x)


def _panel(x0: int, title: str, traj: Trajectory, series) -> Iterator[str]:
    """The lines of one panel, each ending in a line break; a polyline's
    points come in the parts of ``_points``, over the panel's one time
    text."""
    if _numpy_loaded():
        data = traj.as_array()
        times = traj.times
        columns = [data[:, ROW_LABELS.index(label)] for label, _ in series]
        top = float(max(col.max() for col in columns))

        def pixels(f, col):
            return f(col)
    else:
        rows = memoryview(traj.rows)  # its strided slices are views, not copies
        times = rows[0::_WIDTH]
        columns = [rows[1 + ROW_LABELS.index(label)::_WIDTH] for label, _ in series]
        top = max(map(max, columns))

        def pixels(f, col):
            return array("d", map(f, col))
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

    x_text = _x_text(pixels(sx, times))  # shared by the four polylines
    for (_, color), col in zip(series, columns):
        yield '<polyline points="'
        yield from _points(x_text, pixels(sy, col))
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
