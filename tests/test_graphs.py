import numpy as np
import pytest

from kgalign.datasets import toy_cycle_pair
from kgalign.errors import GraphValidationError
from kgalign.graphs import (
    AlignmentSet,
    AttributeTable,
    GraphPair,
    KnowledgeGraph,
    Role,
    require_valid,
    validate_pair,
)


def test_out_of_range_head_reported():
    left = KnowledgeGraph(2, 1, [(2, 0, 1)])  # head == entity_count
    right = KnowledgeGraph(2, 1, [(0, 0, 1)])
    align = AlignmentSet.from_records([(0, 0, Role.TRAIN)])
    violations = validate_pair(GraphPair(left, right, align))
    assert len(violations) == 1
    assert "head" in violations[0] and "(2, 0, 1)" in violations[0]


def test_duplicate_left_entity_reported():
    left = KnowledgeGraph(2, 1, [(0, 0, 1)])
    right = KnowledgeGraph(3, 1, [(0, 0, 1)])
    align = AlignmentSet.from_records([(0, 0, Role.TRAIN), (0, 1, Role.TEST)])
    violations = validate_pair(GraphPair(left, right, align))
    assert len(violations) == 1
    assert "left entity 0" in violations[0]


def test_well_formed_pair_is_clean():
    left = KnowledgeGraph(2, 1, [(0, 0, 1)])
    right = KnowledgeGraph(2, 1, [(1, 0, 0)])
    align = AlignmentSet.from_records([(0, 1, Role.TRAIN), (1, 0, Role.TEST)])
    assert validate_pair(GraphPair(left, right, align)) == []


def test_roles_partition_pairs():
    align = AlignmentSet.from_records(
        [(0, 0, Role.TRAIN), (1, 1, Role.VALIDATION), (2, 2, Role.TEST), (3, 3, Role.TEST)]
    )
    total = sum(
        len(align.by_role(role)) for role in (Role.TRAIN, Role.VALIDATION, Role.TEST)
    )
    assert total == len(align) == 4


def test_duplicate_triples_are_kept_in_order():
    triples = [(0, 0, 1), (0, 0, 1), (1, 0, 0)]
    g = KnowledgeGraph(2, 1, triples)
    assert g.triple_count == 3
    assert g.triples.tolist() == [[0, 0, 1], [0, 0, 1], [1, 0, 0]]


def test_types_are_immutable():
    g = KnowledgeGraph(2, 1, [(0, 0, 1)])
    with pytest.raises(ValueError):
        g.triples[0, 0] = 5
    align = AlignmentSet.from_records([(0, 0, Role.TRAIN)])
    with pytest.raises(ValueError):
        align.pairs[0, 0] = 3


def test_attribute_row_count_mismatch_flagged():
    left = KnowledgeGraph(2, 1, [(0, 0, 1)])
    right = KnowledgeGraph(2, 1, [(0, 0, 1)])
    align = AlignmentSet.from_records([(0, 0, Role.TRAIN)])
    attrs = AttributeTable(features=np.zeros((3, 4)))
    violations = validate_pair(
        GraphPair(left, right, align, attributes_left=attrs)
    )
    assert len(violations) == 1
    assert "attribute table" in violations[0]


def test_require_valid_raises_with_detail():
    left = KnowledgeGraph(1, 1, [(0, 0, 5)])
    right = KnowledgeGraph(1, 1, [(0, 0, 0)])
    align = AlignmentSet.from_records([(0, 0, Role.TRAIN)])
    with pytest.raises(GraphValidationError, match="tail"):
        require_valid(GraphPair(left, right, align))


def test_alignment_index_out_of_range_reported():
    toy = toy_cycle_pair(8, 4)
    pairs = toy.alignment.pairs[:3].copy()
    pairs[1, 0], pairs[2, 1] = 8, -1
    bad = GraphPair(toy.left, toy.right, AlignmentSet(pairs, toy.alignment.roles[:3]))
    assert validate_pair(bad) == [
        "alignment pair #1 left index 8 out of range",
        "alignment pair #2 right index -1 out of range",
    ]
    with pytest.raises(GraphValidationError,
                       match=r"pair #1 left index 8 out of range; .*pair #2 right index -1 "):
        require_valid(bad)


@pytest.mark.parametrize(
    "roles",
    [np.array(["train", "test"]), ["train", "test"], [Role.TRAIN, Role.TEST],
     np.array([Role.TRAIN, Role.TEST], dtype=object)],
    ids=["str-array", "str-list", "member-list", "member-array"],
)
def test_alignment_roles_from_arrays_and_members(roles):
    align = AlignmentSet(np.array([[0, 0], [1, 1]]), roles)
    assert align.roles.dtype == np.dtype("U10") and align.roles.tolist() == ["train", "test"]
    assert not align.roles.flags.writeable


@pytest.mark.parametrize(
    "roles", [np.array(["train", "validationX"]), ["train", "bogus"]], ids=["array", "list"]
)
def test_alignment_rejects_unknown_role(roles):
    # "validationX" would fit "<U10" as "validation" if it were cut first
    with pytest.raises(ValueError, match="is not a valid Role"):
        AlignmentSet(np.array([[0, 0], [1, 1]]), roles)
