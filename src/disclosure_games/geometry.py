"""Exact convex-polygon clipping and integration over rational coordinates.

Supports the uniform-buyer figures and checks: win regions are rectangles
cut by half-planes, and every expectation integrand there is linear, so
integrals reduce to triangle areas and vertex averages with no rounding
anywhere.  The tests hold the closed-form surplus of ``uniform2`` to these
polygon integrals.
"""

from __future__ import annotations

from fractions import Fraction

from .core import parse_rational

Point = tuple[Fraction, Fraction]


def rectangle(x0, x1, y0, y1) -> list[Point]:
    x0, x1, y0, y1 = (parse_rational(v) for v in (x0, x1, y0, y1))
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def clip_halfplane(poly: list[Point], a, b, c) -> list[Point]:
    """Intersect a convex polygon with the half-plane a*x + b*y >= c.

    Standard two-pointer boundary walk: vertices on the keep side survive,
    and each crossing edge contributes its exact intersection point.
    """
    a, b, c = parse_rational(a), parse_rational(b), parse_rational(c)
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
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup: list[Point] = []
    for pt in out:
        if not dedup or pt != dedup[-1]:
            dedup.append(pt)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def polygon_area(poly: list[Point]) -> Fraction:
    """Absolute area by the shoelace formula."""
    if len(poly) < 3:
        return Fraction(0)
    twice = Fraction(0)
    n = len(poly)
    for i in range(n):
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % n]
        twice += x0 * y1 - x1 * y0
    return abs(twice) / 2


def integrate_linear(poly: list[Point], const, cx, cy) -> Fraction:
    """Integrate const + cx*x + cy*y over a convex polygon, exactly.

    A linear function integrates over a triangle to the triangle's area
    times the mean of its vertex values, so a fan triangulation settles the
    whole polygon.
    """
    if len(poly) < 3:
        return Fraction(0)
    const, cx, cy = parse_rational(const), parse_rational(cx), parse_rational(cy)
    p0 = poly[0]
    f0 = const + cx * p0[0] + cy * p0[1]
    total = Fraction(0)
    for p1, p2 in zip(poly[1:], poly[2:]):
        cross = (p1[0] - p0[0]) * (p2[1] - p0[1]) - (p2[0] - p0[0]) * (p1[1] - p0[1])
        area = abs(cross) / 2
        if area == 0:
            continue
        f1 = const + cx * p1[0] + cy * p1[1]
        f2 = const + cx * p2[0] + cy * p2[1]
        total += area * (f0 + f1 + f2) / 3
    return total
