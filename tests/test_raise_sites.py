"""Every ``ValidationError`` raise site, one parametrised test per module.

Each case reaches its raise through the public call and asserts the exact
message, so a reworded or unreachable check shows up here.  The JSON
document parsers are reached through the CLI, which must exit 1 with the
message on stderr.
"""

from fractions import Fraction

import pytest

from disclosure_games.acceptance import AUCTION_123
from disclosure_games.cli import main
from disclosure_games.core import (
    SILENT,
    BuyerType,
    DiscreteInstance,
    IntervalPartition,
    ValidationError,
)
from disclosure_games.dpconnected import SingleBuyerInstance, inapproximability_instance
from disclosure_games.hardness import PartitionProblem
from disclosure_games.lpmech import Mechanism, verify_mechanism
from disclosure_games.simplex import ExactSimplex
from disclosure_games.uniform2 import UniformSegment, cell_region, winner_region, zeno_partition

F = Fraction
ONE_TYPE = BuyerType(F(1), (F(1),))


def assert_message(call, message):
    with pytest.raises(ValidationError) as caught:
        call()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: DiscreteInstance(1, ([ONE_TYPE],)),
            "buyer 1 must be a tuple of BuyerType, got "
            "[BuyerType(prob=Fraction(1, 1), values=(Fraction(1, 1),))]",
        ),
        (lambda: DiscreteInstance(1, ((),)), "buyer 1 has no types"),
        (
            lambda: IntervalPartition((F(0),)),
            "interval partition needs at least two breakpoints",
        ),
        (lambda: SILENT.block_containing(2), "value 2 outside [0, 1]"),
    ],
    ids=["buyer-not-a-tuple", "buyer-without-types", "one-breakpoint", "value-outside"],
)
def test_core(call, message):
    assert_message(call, message)


@pytest.mark.parametrize(
    "document, message",
    [
        ("not json", "instance document is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"goods": "1", "buyers": []}', '"goods" must be an integer'),
        ('{"goods": 1, "buyers": {}}', '"buyers" must be an array'),
        ('{"goods": 1, "buyers": [{}]}', "buyer 1 must be an array of types"),
        (
            '{"goods": 1, "buyers": [[{"prob": "1", "values": "1"}]]}',
            'buyer 1 type 1: "values" must be an array',
        ),
    ],
    ids=["not-json", "goods-not-int", "buyers-not-array", "buyer-not-array", "values-not-array"],
)
def test_core_instance_document_exits_1(document, message, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(document)
    assert main(["lp-solve", "--instance", str(path)]) == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize(
    "profile, message",
    [
        ("nope", "partition document is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[[1]]", "buyer 1: partition must be an array of arrays of indices"),
    ],
    ids=["not-json", "partition-not-nested"],
)
def test_core_partition_document_exits_1(profile, message, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text('{"goods": 1, "buyers": [[{"prob": "1", "values": ["1"]}]]}')
    assert main(["game-eval", "--instance", str(path), "--profile", profile]) == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SingleBuyerInstance((), ()), "need matching nonempty values and probabilities"),
        (
            lambda: SingleBuyerInstance((F(0), F(1)), (F(1, 2), F(1, 2))),
            "values must be positive",
        ),
        (lambda: inapproximability_instance(2), "delta must lie in (0, 2)"),
    ],
    ids=["no-values", "value-zero", "delta-two"],
)
def test_dpconnected(call, message):
    assert_message(call, message)


def test_hardness():
    assert_message(lambda: PartitionProblem(()), "need at least one size")


# AUCTION_123 has 9 joint types of 2 buyers and 1 good; q[t][j][k], r[t][j]
ONE_BUYER_ROW = ((F(0),),)
NO_GOODS_ROW = ((), ())


@pytest.mark.parametrize(
    "q, r",
    [
        ((), ()),
        ((ONE_BUYER_ROW,) * 9, ((F(0),),) * 9),
        ((NO_GOODS_ROW,) * 9, ((F(0), F(0)),) * 9),
    ],
    ids=["joint-types", "buyers", "goods"],
)
def test_lpmech(q, r):
    mech = Mechanism(AUCTION_123, q, r)
    assert_message(
        lambda: verify_mechanism(AUCTION_123, mech),
        "mechanism dimensions do not match the instance",
    )


@pytest.mark.parametrize(
    "call, message",
    [(lambda: ExactSimplex(2).solve_lexicographic([]), "need at least one objective")],
    ids=["no-objectives"],
)
def test_simplex(call, message):
    assert_message(call, message)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: UniformSegment(F(1), F(0)), "segment [1, 0] is not ordered"),
        (
            lambda: winner_region(UniformSegment(F(0), F(0)), UniformSegment(F(0), F(1)), "A"),
            "win regions are only defined for nondegenerate segments",
        ),
        (lambda: cell_region(0, 2, 0, 2, "C"), "winner must be 'A', 'B', or None, got 'C'"),
        (lambda: zeno_partition(65), "depth beyond 64 is numerically pointless"),
    ],
    ids=["segment-unordered", "point-mass-region", "unknown-winner", "depth-65"],
)
def test_uniform2(call, message):
    assert_message(call, message)
