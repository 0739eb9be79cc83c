"""Winner-region figures on the unit value square, as standalone SVG.

Buyer A's value runs along the x axis and buyer B's up the y axis.  For
each pair of disclosed intervals the three winner regions (A in blue,
B in green, no sale in gray) are exact polygons clipped from each cell;
their rational areas are checked to tile the square before anything is
converted to float for emission.  A figure is drawn on its partition
pair's one integer grid (``uniform2.profile_grid``), where every region
vertex is an int numerator over the grid's scale and the area audit runs
in grid units.  Surplus itself is a one-dimensional closed form in
``uniform2``; the same polygons are the tests' oracle for it.
"""

from __future__ import annotations

from fractions import Fraction

from .core import IntervalPartition, format_rational
from .geometry import polygon_area
from .uniform2 import cell_region, profile_grid

VIEW = 1000
COLOR_A = "#4472c4"
COLOR_B = "#70ad47"
COLOR_NONE = "#ededed"
COLOR_BOUNDARY = "#c00000"


def _svg_points(poly, den: int) -> str:
    # int true division rounds correctly, as float(Fraction) does: same bytes
    pts = []
    for x, y in poly:
        px = x / den * VIEW
        py = (1.0 - y / den) * VIEW  # y grows upward in value space
        pts.append(f"{px:.2f},{py:.2f}")
    return " ".join(pts)


def allocation_svg(pa: IntervalPartition, pb: IntervalPartition) -> str:
    """Render the winner regions for every pair of disclosed intervals."""
    den, xs, ys = profile_grid(pa, pb)
    square = den * den
    shapes: list[tuple[list, str]] = []
    covered = 0
    for a, b in zip(xs, xs[1:]):
        for c, d in zip(ys, ys[1:]):
            cell = (b - a) * (d - c)
            cell_sum = 0
            for winner, color in (("A", COLOR_A), ("B", COLOR_B), (None, COLOR_NONE)):
                poly = cell_region(a, b, c, d, winner)
                area = polygon_area(poly)
                cell_sum += area
                if area > 0:
                    shapes.append((poly, color))
            if cell_sum != cell:
                raise AssertionError(
                    f"regions cover {format_rational(Fraction(cell_sum, square))} of a "
                    f"{format_rational(Fraction(cell, square))} cell"
                )
            covered += cell_sum
    if covered != square:
        raise AssertionError(
            f"regions tile {format_rational(Fraction(covered, square))} of the unit square"
        )
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW} {VIEW}" '
        f'width="{VIEW}" height="{VIEW}">',
        f'<rect width="{VIEW}" height="{VIEW}" fill="{COLOR_NONE}"/>',
    ]
    for poly, color in shapes:
        lines.append(
            f'<polygon points="{_svg_points(poly, den)}" fill="{color}" '
            f'stroke="none"/>'
        )
    dash = 'stroke-dasharray="12,8"'
    for t in pa.breakpoints[1:-1]:
        x = float(t) * VIEW
        lines.append(
            f'<line x1="{x:.2f}" y1="0" x2="{x:.2f}" y2="{VIEW}" '
            f'stroke="{COLOR_BOUNDARY}" stroke-width="3" {dash}/>'
        )
    for t in pb.breakpoints[1:-1]:
        y = (1.0 - float(t)) * VIEW
        lines.append(
            f'<line x1="0" y1="{y:.2f}" x2="{VIEW}" y2="{y:.2f}" '
            f'stroke="{COLOR_BOUNDARY}" stroke-width="3" {dash}/>'
        )
    lines.append(
        f'<rect width="{VIEW}" height="{VIEW}" fill="none" stroke="#333" stroke-width="2"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
