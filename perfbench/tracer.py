"""Per-layer tracing by wrapping the library's public functions from outside.

``Tracer.install`` replaces layer entry points with wrappers, on the module
or class where callers look them up.  Names a module imported by value
(``from .lpmech import solve_instance``) are wrapped in that module too, or
its calls would bypass the wrapper.  A span wrapper records
``[name, start, end, parent, job]``; a counter wrapper, used for hot leaves,
only counts.  Hooks turn return values into work counts (pivots, rows,
profiles).  Wrappers do nothing but call through while ``active`` is false,
so the untimed answer checks are never counted.
"""

from __future__ import annotations

import time
from collections import defaultdict

from disclosure_games import (
    core,
    dpconnected,
    game,
    geometry,
    hardness,
    lpmech,
    simplex,
    svgplot,
    uniform2,
)

AGGREGATES = (
    "revenue",
    "buyer_surplus",
    "per_buyer_surplus",
    "interim_utilities",
    "unsold_probability",
)


def _value_bits(results) -> int:
    bits = 0
    for result in results:
        for v in result.values:
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _simplex_hook(counts, args, results):
    counts["simplex.pivots_stage1"] += results[0].pivots
    counts["simplex.pivots_stage2"] += results[-1].pivots - results[0].pivots
    counts["simplex.value_bits_max"] = max(
        counts["simplex.value_bits_max"], _value_bits(results)
    )


def _build_hook(counts, args, system):
    counts["lpmech.rows"] += system.lp.n_constraints
    counts["lpmech.ic_rows"] += system.counts["ic"]
    counts["lpmech.vars"] += system.lp.n_vars


def _evaluate_hook(counts, args, outcome):
    lookups = 1
    for part in args[1]:
        lookups *= len(part)
    counts["game.lookups"] += lookups


def _search_hook(counts, args, results):
    counts["game.profiles"] += len(results)


def _solve_from_game_hook(counts, args, sol):
    counts["game.solves"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.active = False
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _span(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owners, attr, wrapper):
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer entry point; ``uninstall`` restores the originals."""
        span, patch = self._span, self._patch
        patch([core], "parse_instance", span("core.parse_instance", core.parse_instance))
        patch(
            [core, game],
            "condition_on_messages",
            span("core.condition_on_messages", core.condition_on_messages),
        )
        patch(
            [simplex.ExactSimplex],
            "solve_lexicographic",
            span("simplex.solve", simplex.ExactSimplex.solve_lexicographic, _simplex_hook),
        )
        patch([lpmech], "build_lp", span("lpmech.build_lp", lpmech.build_lp, _build_hook))
        patch([lpmech], "solve_instance", span("lpmech.solve_instance", lpmech.solve_instance))
        patch(
            [game],
            "solve_instance",
            span("lpmech.solve_instance", lpmech.solve_instance, _solve_from_game_hook),
        )
        patch(
            [lpmech],
            "verify_mechanism",
            span("lpmech.verify_mechanism", lpmech.verify_mechanism),
        )
        for method in AGGREGATES:
            patch(
                [lpmech.Mechanism],
                method,
                span("lpmech.aggregate", getattr(lpmech.Mechanism, method)),
            )
        patch(
            [game.GameEvaluator],
            "evaluate",
            span("game.evaluate", game.GameEvaluator.evaluate, _evaluate_hook),
        )
        patch(
            [game, hardness],
            "search_profiles",
            span("game.search_profiles", game.search_profiles, _search_hook),
        )
        patch(
            [hardness],
            "verify_reduction",
            span("hardness.verify_reduction", hardness.verify_reduction),
        )
        patch(
            [dpconnected, hardness],
            "buyer_utility",
            self._counter("dpconnected.buyer_utility.calls", dpconnected.buyer_utility),
        )
        for name in ("optimal_connected", "brute_force_connected"):
            patch(
                [dpconnected],
                name,
                span(f"dpconnected.{name}", getattr(dpconnected, name)),
            )
        for name in ("profile_surplus", "pair_surplus", "efficiency_witness"):
            patch([uniform2], name, span(f"uniform2.{name}", getattr(uniform2, name)))
        for name in ("clip_halfplane", "integrate_linear"):
            patch(
                [geometry, uniform2],
                name,
                span(f"geometry.{name}", getattr(geometry, name)),
            )
        patch(
            [geometry, svgplot],
            "polygon_area",
            span("geometry.polygon_area", geometry.polygon_area),
        )
        patch(
            [svgplot],
            "allocation_svg",
            span("svgplot.allocation_svg", svgplot.allocation_svg),
        )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        """Spans and counts recorded since the last ``take``; both reset."""
        spans, counts = self.spans[:], dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
