"""Exact convex-polygon clipping and integration over rational coordinates.

Supports the uniform-buyer figures and checks: win regions are rectangles
cut by half-planes, and every expectation integrand there is linear, so
integrals reduce to triangle areas and vertex averages with no rounding
anywhere.  The tests hold the closed-form surplus of ``uniform2`` to these
polygon integrals.

Coordinates are ints or ``Fraction``s, never floats or bools.  Arithmetic
runs in the input's own type: int vertices and int coefficients keep every
exact crossing an int (``svgplot`` clips each cell of one integer grid per
partition pair, where every winner-region vertex is an int), and areas and
integrals are summed before one ``Fraction`` is built from the total.
"""

from __future__ import annotations

from fractions import Fraction

from .core import parse_rational, require_exact

Point = tuple[Fraction | int, Fraction | int]


def _exact(v):
    """An int stays an int; anything else goes through ``parse_rational``."""
    return v if type(v) is int else parse_rational(v)


def _require_points(poly) -> None:
    for x, y in poly:
        require_exact(x, "polygon coordinate")
        require_exact(y, "polygon coordinate")


def rectangle(x0, x1, y0, y1) -> list[Point]:
    x0, x1, y0, y1 = (parse_rational(v) for v in (x0, x1, y0, y1))
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def _crossing(u, v, fp, d):
    """u + fp * (v - u) / d, an int when the division is exact."""
    num = fp * (v - u)
    if type(num) is int and type(d) is int:
        quo, rem = divmod(num, d)
        return u + quo if rem == 0 else u + Fraction(num, d)
    return u + num / d


def clip_halfplane(poly: list[Point], a, b, c) -> list[Point]:
    """Intersect a convex polygon with the half-plane a*x + b*y >= c.

    Standard two-pointer boundary walk: vertices on the keep side survive,
    and each crossing edge contributes its exact intersection point.
    """
    a, b, c = _exact(a), _exact(b), _exact(c)
    _require_points(poly)
    if not poly:
        return []
    out: list[Point] = []
    n = len(poly)
    side = [a * x + b * y - c for x, y in poly]
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        fp, fq = side[i], side[(i + 1) % n]
        if fp >= 0:
            out.append(p)
        if (fp > 0 and fq < 0) or (fp < 0 and fq > 0):
            d = fp - fq
            out.append((_crossing(p[0], q[0], fp, d), _crossing(p[1], q[1], fp, d)))
    dedup: list[Point] = []
    for pt in out:
        if not dedup or pt != dedup[-1]:
            dedup.append(pt)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def polygon_area(poly: list[Point]) -> Fraction:
    """Absolute area by the shoelace formula."""
    _require_points(poly)
    n = len(poly)
    if n < 3:
        return Fraction(0)
    twice = 0
    for i in range(n):
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % n]
        twice += x0 * y1 - x1 * y0
    return Fraction(abs(twice), 2)


def integrate_linear(poly: list[Point], const, cx, cy) -> Fraction:
    """Integrate const + cx*x + cy*y over a convex polygon, exactly.

    A linear function integrates over a triangle to the triangle's area
    times the mean of its vertex values, so a fan triangulation settles the
    whole polygon: six times the integral is the sum of each triangle's
    doubled area times its three vertex values.
    """
    const, cx, cy = _exact(const), _exact(cx), _exact(cy)
    _require_points(poly)
    if len(poly) < 3:
        return Fraction(0)
    p0 = poly[0]
    f0 = const + cx * p0[0] + cy * p0[1]
    six = 0
    for p1, p2 in zip(poly[1:], poly[2:]):
        cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
        f1 = const + cx * p1[0] + cy * p1[1]
        f2 = const + cx * p2[0] + cy * p2[1]
        six += abs(cross) * (f0 + f1 + f2)
    return Fraction(six, 6)
