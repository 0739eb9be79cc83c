"""Exact linear programming over rationals by the simplex method.

Maximizes linear objectives over {x >= 0 : Ax (<=|>=|==) b} with no
floating point anywhere, so optima come out as the exact fractions the
rest of the package compares against.  Rows are stored sparsely (a dict
per constraint) but the algorithm is the plain tableau method: Dantzig
pricing while it makes progress, switching to Bland's rule whenever
degenerate pivots pile up, which guarantees termination.

Lexicographic solves reuse one tableau: after each stage the nonbasic
columns with strictly negative reduced cost are frozen at zero, which
pins the stage objective to its optimum exactly (the reduced-cost
identity holds over the whole feasible set), and the next objective is
re-priced on the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core import GuardExceeded, ValidationError, parse_rational

_BLAND_TRIGGER = 40


class LpInfeasible(RuntimeError):
    pass


class LpUnbounded(RuntimeError):
    pass


@dataclass(frozen=True)
class SimplexResult:
    objective: Fraction
    values: tuple[Fraction, ...]
    pivots: int


def _subtract(row: dict, f, items) -> None:
    """row -= f * items, dropping zeros; a basic column's entry of 1 leaves ``row``."""
    for j, v in items:
        nv = row.get(j, 0) - f * v
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)


class ExactSimplex:
    """A maximization LP over n nonnegative structural variables."""

    def __init__(self, n_vars: int, pivot_cap: int = 2_000_000):
        if n_vars < 1:
            raise ValidationError("need at least one variable")
        self.n_vars = n_vars
        self.pivot_cap = pivot_cap
        self._constraints: list[tuple[dict, str, object]] = []

    def _coeffs(self, coeffs) -> dict:
        if isinstance(coeffs, Mapping):
            items = coeffs.items()
        else:
            items = ((j, v) for j, v in enumerate(coeffs))
        out = {}
        for j, v in items:
            if not 0 <= j < self.n_vars:
                raise ValidationError(f"variable index {j} out of range")
            v = parse_rational(v)
            if v != 0:
                out[j] = v
        return out

    def add_le(self, coeffs, rhs):
        self._constraints.append((self._coeffs(coeffs), "<=", parse_rational(rhs)))

    def add_ge(self, coeffs, rhs):
        self._constraints.append((self._coeffs(coeffs), ">=", parse_rational(rhs)))

    def add_eq(self, coeffs, rhs):
        self._constraints.append((self._coeffs(coeffs), "==", parse_rational(rhs)))

    @property
    def n_constraints(self) -> int:
        return len(self._constraints)

    # -- tableau construction ------------------------------------------------

    def _build(self):
        """Assemble rows with slack/artificial columns and run phase 1 if needed."""
        rows: list[dict] = []
        rhs: list = []
        basis: list[int] = []
        next_col = self.n_vars
        artificials: list[int] = []
        for coeffs, sense, b in self._constraints:
            row = dict(coeffs)
            if sense == ">=":
                row = {j: -v for j, v in row.items()}
                b = -b
                sense = "<="
            if sense == "<=" and b >= 0:
                row[next_col] = Fraction(1)  # slack, basic
                basis.append(next_col)
                next_col += 1
            else:
                if b < 0:
                    row = {j: -v for j, v in row.items()}
                    b = -b
                    if sense == "<=":  # now a >= row: add surplus
                        row[next_col] = Fraction(-1)
                        next_col += 1
                row[next_col] = Fraction(1)  # artificial, basic
                basis.append(next_col)
                artificials.append(next_col)
                next_col += 1
            rows.append(row)
            rhs.append(b)
        self._rows = rows
        self._rhs = rhs
        self._basis = basis
        self._pivots = 0
        self._forbidden: set[int] = set()
        if artificials:
            if self._maximize({j: Fraction(-1) for j in artificials}) != 0:
                raise LpInfeasible("constraints admit no nonnegative solution")
            self._evict_artificials(set(artificials))
            self._forbidden |= set(artificials)

    def _evict_artificials(self, artificials: set[int]):
        # a basic artificial at value zero either pivots out on any usable
        # column or marks a redundant row we can drop
        for r in range(len(self._rows) - 1, -1, -1):
            if self._basis[r] not in artificials:
                continue
            col = None
            for j, v in self._rows[r].items():
                if j not in artificials and j != self._basis[r] and v != 0:
                    col = j
                    break
            if col is None:
                del self._rows[r]
                del self._rhs[r]
                del self._basis[r]
            else:
                self._pivot(r, col)

    # -- pricing and pivoting ------------------------------------------------

    def _maximize(self, objective: dict) -> Fraction:
        """Price ``objective`` on the current basis, then pivot to its optimum.

        Leaves the reduced-cost row in ``_goal`` (z = ``_value`` + sum(goal x)).
        """
        goal = self._goal = dict(objective)
        value = Fraction(0)
        for r, col in enumerate(self._basis):
            f = goal.get(col)
            if f:
                value += f * self._rhs[r]
                _subtract(goal, f, self._rows[r].items())
        self._value = value
        degenerate_run = 0
        bland = False
        while True:
            col = self._choose_col(bland)
            if col is None:
                return self._value
            r = self._choose_row(col)
            if r is None:
                raise LpUnbounded(f"objective unbounded along variable {col}")
            if self._rhs[r] == 0:
                degenerate_run += 1
                if degenerate_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
            self._pivot(r, col)
            if self._pivots > self.pivot_cap:
                raise GuardExceeded(f"simplex exceeded {self.pivot_cap} pivots")

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

    def _choose_row(self, col: int) -> Optional[int]:
        best = None
        best_ratio = None
        for r, row in enumerate(self._rows):
            a = row.get(col)
            if a is None or a <= 0:
                continue
            ratio = self._rhs[r] / a
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and self._basis[r] < self._basis[best])
            ):
                best_ratio = ratio
                best = r
        return best

    def _pivot(self, r: int, col: int):
        """Make ``col`` basic in row r: update every row, then the reduced-cost row."""
        rows = self._rows
        rhs = self._rhs
        rowr = rows[r]
        piv = rowr[col]
        if piv != 1:
            inv = 1 / piv
            rowr = {j: v * inv for j, v in rowr.items()}
            rows[r] = rowr
            rhs[r] = rhs[r] * inv
        items = tuple(rowr.items())
        rr = rhs[r]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row.get(col)
            if f:
                _subtract(row, f, items)
                rhs[i] -= f * rr
        self._basis[r] = col
        self._pivots += 1
        f = self._goal.get(col)
        if f:
            _subtract(self._goal, f, items)
            self._value += f * rr

    def _extract(self) -> tuple[Fraction, ...]:
        values = [Fraction(0)] * self.n_vars
        for r, col in enumerate(self._basis):
            if col < self.n_vars:
                values[col] = self._rhs[r]
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

    def solve(self, objective) -> SimplexResult:
        return self.solve_lexicographic([objective])[0]
