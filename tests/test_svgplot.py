"""Winner-region SVG rendering."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from disclosure_games.core import SILENT, IntervalPartition
from disclosure_games.svgplot import COLOR_A, COLOR_B, allocation_svg

HALF = IntervalPartition.from_string("0,1/2,1")


def rand_partition(rng: random.Random) -> IntervalPartition:
    denom = 2 ** rng.randint(3, 6)
    cuts = sorted(rng.sample(range(1, denom), rng.randint(0, 3)))
    points = [F(0)] + [F(c, denom) for c in cuts] + [F(1)]
    return IntervalPartition(tuple(points))


class TestDocumentShape:
    def test_header_and_footer(self):
        svg = allocation_svg(SILENT, SILENT)
        assert svg.startswith(
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000"'
        )
        assert svg.rstrip().endswith("</svg>")

    def test_silent_pair_has_three_regions_and_no_boundaries(self):
        svg = allocation_svg(SILENT, SILENT)
        assert svg.count("<polygon") == 3
        assert svg.count("<line") == 0

    def test_half_half_region_and_boundary_counts(self):
        # Cell by cell: low/low keeps all three regions, the other three
        # cells each lose one to a measure-zero sliver, so 3 + 2 + 2 + 2.
        svg = allocation_svg(HALF, HALF)
        assert svg.count("<polygon") == 9
        assert svg.count("<line") == 2
        assert svg.count("stroke-dasharray") == 2

    def test_boundary_lines_follow_breakpoints(self):
        pa = IntervalPartition.from_string("0,1/4,1")
        svg = allocation_svg(pa, SILENT)
        assert 'x1="250.00" y1="0" x2="250.00" y2="1000"' in svg
        assert svg.count("<line") == 1

    def test_y_axis_is_flipped(self):
        # The high-bidder-B corner (v_a, v_b) = (0, 1) must land at the SVG
        # origin's row, i.e. y = 0.
        svg = allocation_svg(SILENT, SILENT)
        green = [ln for ln in svg.splitlines() if COLOR_B in ln]
        assert len(green) == 1
        assert "0.00,0.00" in green[0]
        blue = [ln for ln in svg.splitlines() if COLOR_A in ln]
        assert "1000.00,1000.00" in blue[0]

    def test_identical_inputs_render_identical_bytes(self):
        one = allocation_svg(HALF, IntervalPartition.from_string("0,1/3,1"))
        two = allocation_svg(HALF, IntervalPartition.from_string("0,1/3,1"))
        assert one == two


class TestAreaTiling:
    def test_random_partitions_pass_the_internal_area_audit(self):
        rng = random.Random(20260814)
        for _ in range(25):
            svg = allocation_svg(rand_partition(rng), rand_partition(rng))
            assert svg.count("<polygon") >= 3

    def test_every_cell_contributes_at_most_three_polygons(self):
        pa = IntervalPartition.from_string("0,1/8,1/2,1")
        pb = IntervalPartition.from_string("0,2/3,1")
        svg = allocation_svg(pa, pb)
        cells = len(pa.blocks()) * len(pb.blocks())
        assert 3 <= svg.count("<polygon") <= 3 * cells


class TestPinnedBytes:
    """Whole-figure digests: no change to the exact geometry may move a byte."""

    @pytest.mark.parametrize(
        "a, b, size, digest",
        [
            (
                "0,1/2,1",
                "0,1/3,1",
                1490,
                "bcbd2852ff1147c702749e5cd8635ab5fb2c9c15df8c68e90c55015e993d66f1",
            ),
            (
                "0,3/32,1/4,13/32,1/2,49/64,1",
                "0,1/64,5/32,3/8,5/8,29/32,1",
                7761,
                "aee843cb0a1fe95d20e03c7811c0cb2e76d0652462d9012dc1e9711bf3fef734",
            ),
            (
                "0,2/7,3/7,6/7,1",
                "0,10/97,50/97,1",
                3168,
                "3b4b3ac70ce6b34a0cc96ae0809d7fc2514ad3f75ea630b49253f7fefb0b0ee7",
            ),
        ],
    )
    def test_figure_bytes(self, a, b, size, digest):
        svg = allocation_svg(IntervalPartition.from_string(a), IntervalPartition.from_string(b))
        data = svg.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest
