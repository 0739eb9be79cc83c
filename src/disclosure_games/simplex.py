"""Exact linear programming over rationals by the simplex method.

Maximizes linear objectives over {x >= 0 : Ax <= b} for rows that hold at
x = 0: ``add_le`` takes a right-hand side b >= 0 and ``add_ge`` one b <= 0.
That is the one form the package builds, and it suffices because the
mechanism that sells nothing and charges nothing meets every supply, IR
and IC row.  So every row's slack starts basic and no phase 1 is needed.
Floating point appears nowhere, so optima come out as the exact fractions
the rest of the package compares against.  Rows are stored sparsely (a
dict per constraint) but the algorithm is the plain tableau method:
Dantzig pricing while it makes progress, switching to Bland's rule
whenever degenerate pivots pile up, which guarantees termination.

The tableau holds no Fraction.  Each row is a dict of int numerators and
an int right-hand side over one positive int denominator, and the
reduced-cost row shares one positive denominator with its value; a gcd
pass after every update keeps each touched row primitive (the
integer-preserving elimination of Bareiss 1968 and QSopt_ex).  An update
scales by exact quotients, not by whole denominators: row i, with entry f
in the entering column, becomes N_i (p/g) - (f/g) N_r over D_i (p/g), where
p is the pivot row's denominator and g = gcd(p, f), so a row whose f is a
multiple of p is not scaled at all.  Every entry is still the same
rational the Fraction tableau would hold: a rational row has exactly one
primitive form with a positive denominator, and the gcd pass restores it
whatever common factor the update left.  So every pivot choice is the
same.  Fractions appear only at the boundary: the coefficients taken in
and the optima and values handed back.

Rows arrive as primitive int numerators.  Every constraint is stored in
<= form as int numerators and right-hand side over one positive int
denominator, divided by their gcd, from the moment it is added:
``add_le`` and ``add_ge`` convert their rational coefficients once, and
the mechanism LP builds its rows as ints and stores them directly.  The
tableau build only copies each row and appends its slack entry.

Lexicographic solves reuse one tableau: after each stage the nonbasic
columns with strictly negative reduced cost are frozen at zero, which
pins the stage objective to its optimum exactly (the reduced-cost
identity holds over the whole feasible set), and the next objective is
re-priced on the same basis.

A pivot touches only the rows that hold the entering column: one scan
finds them, the ratio test picks among them, and only they are updated.
A mechanism LP's column has a handful of nonzeros among hundreds of rows.

Pricing takes one pass.  Basic columns are unit columns, so an
objective c priced against basic rows R is c - sum over r in R of
c_B(r) row_r / den_r, computed over the lcm of those rows' denominators
(reduced by its gcd with every multiplier) with one scaling of the
reduced-cost row and one gcd pass.  A new stage prices against every
row; a pivot prices against its pivot row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Sequence

from .core import GuardExceeded, ValidationError, parse_rational

_BLAND_TRIGGER = 40
PIVOT_CAP = 2_000_000


class LpUnbounded(RuntimeError):
    pass


@dataclass(frozen=True)
class SimplexResult:
    objective: Fraction
    values: tuple[Fraction, ...]
    pivots: int


def _subtract(row: dict, d: int, f: int, items) -> None:
    """row = d * row - f * items over ints, keeping key order and dropping zeros.

    Scaling by d != 0 makes no zero.
    """
    if d != 1:
        for j in row:
            row[j] *= d
    for j, v in items:
        nv = row.get(j, 0) - f * v
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)


def _primitive(row: dict, num: int, den: int) -> tuple[int, int]:
    """Divide ``row``, ``num`` and ``den`` by their gcd; return the new num, den."""
    g = gcd(den, num, *row.values())
    if g != 1:
        for j in row:
            row[j] //= g
        num //= g
        den //= g
    return num, den


def _integer_row(coeffs: dict, extra: Fraction) -> tuple[dict, int, int]:
    """Numerators of ``coeffs`` and ``extra`` over their least common denominator."""
    den = lcm(extra.denominator, *(v.denominator for v in coeffs.values()))
    row = {j: v.numerator * (den // v.denominator) for j, v in coeffs.items()}
    return row, extra.numerator * (den // extra.denominator), den


class ExactSimplex:
    """A maximization LP over n nonnegative structural variables."""

    def __init__(self, n_vars: int):
        # bool is an int subclass, but True is not a count
        if type(n_vars) is not int or n_vars < 1:
            raise ValidationError(f"n_vars must be an integer >= 1, got {n_vars!r}")
        self.n_vars = n_vars
        # every row as (numerators, rhs, den) over ints in <= form, primitive
        self._constraints: list[tuple[dict, int, int]] = []

    def _coeffs(self, coeffs: Mapping) -> dict:
        if not isinstance(coeffs, Mapping):
            raise ValidationError(f"coefficients must be a mapping, got {coeffs!r}")
        out = {}
        for j, v in coeffs.items():
            if type(j) is not int or not 0 <= j < self.n_vars:
                raise ValidationError(
                    f"variable index must be an int in 0..{self.n_vars - 1}, got {j!r}"
                )
            v = parse_rational(v)
            if v != 0:
                out[j] = v
        return out

    def add_le(self, coeffs: Mapping, rhs):
        """Add coeffs . x <= rhs; rhs must be nonnegative, so that x = 0 meets it."""
        row, rhs = self._coeffs(coeffs), parse_rational(rhs)
        if rhs < 0:
            raise ValidationError(f"<= row needs a nonnegative right-hand side, got {rhs}")
        self._add_row(*_integer_row(row, rhs))

    def add_ge(self, coeffs: Mapping, rhs):
        """Add coeffs . x >= rhs; rhs must be nonpositive, so that x = 0 meets it."""
        row, rhs = self._coeffs(coeffs), parse_rational(rhs)
        if rhs > 0:
            raise ValidationError(f">= row needs a nonpositive right-hand side, got {rhs}")
        row, rhs, den = _integer_row(row, rhs)
        self._add_row({j: -v for j, v in row.items()}, -rhs, den)

    def _add_row(self, row: dict, rhs: int, den: int) -> None:
        """Store the row (row . x) / den <= rhs / den in its primitive form.

        ``row`` maps valid variable indices to nonzero int numerators and is
        kept, not copied; ``den`` is a positive int and ``rhs`` a
        nonnegative one.  ``add_le`` and ``add_ge`` check their input and
        come here; ``lpmech.LpSystem`` builds its rows as ints from a
        validated instance and comes here directly.
        """
        rhs, den = _primitive(row, rhs, den)
        self._constraints.append((row, rhs, den))

    @property
    def n_constraints(self) -> int:
        return len(self._constraints)

    # -- tableau construction ------------------------------------------------

    def _build(self):
        """Assemble the all-slack tableau: row i's slack, column n_vars + i, is basic."""
        rows: list[dict] = []
        for i, (row, _, d) in enumerate(self._constraints):
            row = dict(row)  # pivots update the tableau in place; the store stays
            row[self.n_vars + i] = d
            rows.append(row)
        self._rows = rows
        self._rhs = [b for _, b, _ in self._constraints]
        self._den = [d for _, _, d in self._constraints]
        self._basis = list(range(self.n_vars, self.n_vars + len(rows)))
        self._pivots = 0
        self._forbidden: set[int] = set()

    # -- pricing and pivoting ------------------------------------------------

    def _maximize(self, objective: dict) -> Fraction:
        """Price ``objective`` on the current basis, then pivot to its optimum.

        Leaves the reduced-cost row in ``_goal`` over ``_goal_den``
        (z = (``_value`` + sum(goal x)) / ``_goal_den``).
        """
        self._goal, self._value, self._goal_den = _integer_row(objective, Fraction(0))
        self._price_out(range(len(self._basis)))
        degenerate_run = 0
        bland = False
        while True:
            col = self._choose_col(bland)
            if col is None:
                return Fraction(self._value, self._goal_den)
            rs = [i for i, row in enumerate(self._rows) if col in row]
            r = self._choose_row(col, rs)
            if r is None:
                raise LpUnbounded(f"objective unbounded along variable {col}")
            if self._rhs[r] == 0:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            self._pivot(r, col, rs)
            if self._pivots > PIVOT_CAP:
                raise GuardExceeded(f"simplex exceeded {PIVOT_CAP} pivots")

    def _price_out(self, rs):
        """Eliminate the basic columns of rows ``rs`` from the reduced-cost row in one pass.

        Each row's multiplier is the goal entry at its basic column, read
        before any elimination: no other row has an entry in that column.
        Over the lcm L of the rows' denominators the multipliers are
        f_r L / den_r; the lcm and every multiplier are divided by their
        common gcd g, so the row is scaled by L/g.  For the one row a pivot
        prices out, that is den_r / gcd(den_r, f).  The gcd pass then leaves
        the same primitive row as scaling by L would.
        """
        goal = self._goal
        terms = [(r, f) for r in rs if (f := goal.get(self._basis[r]))]
        if not terms:
            return
        den = self._den
        scale = lcm(*(den[r] for r, _ in terms))
        terms = [(r, f * (scale // den[r])) for r, f in terms]
        g = gcd(scale, *(f for _, f in terms))
        scale //= g
        value = self._value * scale
        d = scale  # the first subtraction scales the row, once
        for r, f in terms:
            f //= g
            _subtract(goal, d, f, self._rows[r].items())
            value += f * self._rhs[r]
            d = 1
        self._value, self._goal_den = _primitive(goal, value, self._goal_den * scale)

    def _choose_col(self, bland: bool) -> Optional[int]:
        """Bland: least eligible index; Dantzig: largest reduced cost, ties to the least index."""
        forbidden = self._forbidden
        best = best_g = None
        for j, g in self._goal.items():
            if g > 0 and j not in forbidden and (
                best is None
                or (j < best if bland else g > best_g or (g == best_g and j < best))
            ):
                best, best_g = j, g
        return best

    def _choose_row(self, col: int, rs: list[int]) -> Optional[int]:
        """Least ratio rhs / entry over positive entries, ties to the least basic index.

        ``rs`` lists the rows that hold ``col``; the tie rule makes their
        order irrelevant.  A row's denominator cancels from its ratio, so
        ratios compare by cross-multiplying numerators.
        """
        rows = self._rows
        best = best_b = best_a = None
        for r in rs:
            a = rows[r][col]
            if a <= 0:
                continue
            b = self._rhs[r]
            if best is None or (
                b * best_a < best_b * a
                or (b * best_a == best_b * a and self._basis[r] < self._basis[best])
            ):
                best, best_b, best_a = r, b, a
        return best

    def _pivot(self, r: int, col: int, rs: list[int]):
        """Make ``col`` basic in row r: update the rows ``rs``, then the reduced-cost row.

        ``rs`` lists the rows that hold ``col``, from the one scan the ratio
        test shares; no other row changes, and the updates are independent.
        Row r takes its pivot numerator p (positive: the ratio test skips
        every entry <= 0) as denominator, so its entry in ``col`` reads 1;
        every other row i in ``rs``, with f = N_i[col] and g = gcd(p, f),
        becomes
        (N_i (p/g) - (f/g) N_r) / (D_i (p/g)): the row (N_i p - f N_r) / (D_i p)
        with g cancelled before it is formed, so no row is scaled by more
        than p/g, and not at all when p divides f.  ``_primitive`` then
        cancels what is left, and the row reads entry for entry as it would
        after the full scaling.
        """
        rows = self._rows
        rhs = self._rhs
        den = self._den
        rowr = rows[r]
        p = rowr[col]
        if p != den[r]:
            rhs[r], den[r] = _primitive(rowr, rhs[r], p)
            p = den[r]
        items = tuple(rowr.items())
        rr = rhs[r]
        for i in rs:
            if i != r:
                row = rows[i]
                f = row[col]
                g = gcd(p, f)
                a, f = p // g, f // g
                _subtract(row, a, f, items)
                rhs[i], den[i] = _primitive(row, rhs[i] * a - f * rr, den[i] * a)
        self._basis[r] = col
        self._pivots += 1
        self._price_out((r,))

    def _extract(self) -> tuple[Fraction, ...]:
        values = [Fraction(0)] * self.n_vars
        for r, col in enumerate(self._basis):
            if col < self.n_vars:
                values[col] = Fraction(self._rhs[r], self._den[r])
        return tuple(values)

    # -- public solves ---------------------------------------------------------

    def solve_lexicographic(self, objectives: Sequence) -> list[SimplexResult]:
        """Maximize each objective in turn, freezing earlier optima exactly.

        Returns one result per stage; the last stage's ``values`` attain
        every stage's optimum simultaneously.
        """
        if not objectives:
            raise ValidationError("need at least one objective")
        self._build()
        results = []
        for objective in objectives:
            value = self._maximize(self._coeffs(objective))
            results.append(
                SimplexResult(
                    objective=value,
                    values=self._extract(),
                    pivots=self._pivots,
                )
            )
            self._forbidden |= {j for j, g in self._goal.items() if g < 0}
        return results

    def solve(self, objective: Mapping) -> SimplexResult:
        return self.solve_lexicographic([objective])[0]
