"""Immutable data model for a pair of knowledge graphs and their alignment.

Entities and relations are densely re-indexed integers per graph side;
original string identifiers survive only as optional labels. Duplicate
triples are kept deliberately: the count-based adjacency counts them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp


class Role(str, Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


_ROLE_VALUES = [role.value for role in Role]


def _frozen_int_array(data, n_cols=None):
    arr = np.asarray(data, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape((0,) if n_cols is None else (0, n_cols))
    if n_cols is not None and (arr.ndim != 2 or arr.shape[1] != n_cols):
        raise ValueError(f"expected shape (*, {n_cols}), got {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class KnowledgeGraph:
    """One side of an alignment problem: a directed multigraph of triples."""

    entity_count: int
    relation_count: int
    triples: np.ndarray  # (m, 3) int64 rows of (head, relation, tail)
    entity_labels: dict[int, str] | None = None
    relation_labels: dict[int, str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "triples", _frozen_int_array(self.triples, 3))

    @property
    def triple_count(self) -> int:
        return self.triples.shape[0]


@dataclass(frozen=True, eq=False)
class AlignmentSet:
    """Entity pairs across the two sides, each tagged with a split role."""

    pairs: np.ndarray  # (m, 2) int64 rows of (left, right)
    roles: np.ndarray  # (m,) of Role values as '<U10' strings

    def __post_init__(self):
        object.__setattr__(self, "pairs", _frozen_int_array(self.pairs, 2))
        roles = self.roles
        if not (
            isinstance(roles, np.ndarray)
            and roles.dtype.kind == "U"
            and np.isin(roles, _ROLE_VALUES).all()
        ):  # Role members, or a value to reject through Role()
            roles = [Role(r).value for r in roles]
        roles = np.array(roles, dtype="U10")
        if roles.shape != (self.pairs.shape[0],):
            raise ValueError("roles length must match pairs")
        roles.flags.writeable = False
        object.__setattr__(self, "roles", roles)

    @classmethod
    def from_records(cls, records) -> AlignmentSet:
        """Build from an iterable of (left, right, role) tuples."""
        records = list(records)
        pairs = [(l, r) for l, r, _ in records]
        roles = [role for _, _, role in records]
        return cls(pairs=np.asarray(pairs, dtype=np.int64).reshape(-1, 2), roles=roles)

    def __len__(self) -> int:
        return self.pairs.shape[0]

    def by_role(self, role: Role) -> np.ndarray:
        """Pairs with the given role, as an (k, 2) array."""
        return self.pairs[self.roles == Role(role).value]

    @property
    def train_pairs(self) -> np.ndarray:
        return self.by_role(Role.TRAIN)

    @property
    def validation_pairs(self) -> np.ndarray:
        return self.by_role(Role.VALIDATION)


@dataclass(frozen=True, eq=False)
class AttributeTable:
    """Per-entity multi-hot rows of one graph side, held sparse (CSR)."""

    features: sp.csr_array  # (entity_count, attribute_dim) float64, read-only
    column_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        rows = sp.csr_array(self.features, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError(f"attribute table must be 2-D, got shape {rows.shape}")
        for arr in (rows.data, rows.indices, rows.indptr):
            arr.flags.writeable = False
        object.__setattr__(self, "features", rows)

    @property
    def entity_count(self) -> int:
        return self.features.shape[0]

    @property
    def attribute_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class GraphPair:
    """Two knowledge graphs plus the alignment connecting them."""

    left: KnowledgeGraph
    right: KnowledgeGraph
    alignment: AlignmentSet
    attributes_left: AttributeTable | None = None
    attributes_right: AttributeTable | None = None


def _outside(values: np.ndarray, bound: int) -> np.ndarray:
    """Positions of the first 20 values outside 0..bound-1."""
    return np.flatnonzero((values < 0) | (values >= bound))[:20]


def validate_pair(pair: GraphPair) -> list[str]:
    """Check all structural invariants; returns a list of violation messages.

    An empty list means the pair is well formed. Violations name the
    offending triple or alignment pair. At most the first few offenders
    per check are reported.
    """
    out: list[str] = []
    for side, g in (("left", pair.left), ("right", pair.right)):
        t = g.triples
        bounds = (g.entity_count, g.relation_count, g.entity_count)
        for col, (name, bound) in enumerate(zip(("head", "relation", "tail"), bounds)):
            out += [f"{side} graph: triple #{i} ({t[i, 0]}, {t[i, 1]}, {t[i, 2]}) has "
                    f"out-of-range {name} index {t[i, col]}" for i in _outside(t[:, col], bound)]

    pairs = pair.alignment.pairs
    for col, (name, g) in enumerate((("left", pair.left), ("right", pair.right))):
        out += [f"alignment pair #{i} {name} index {pairs[i, col]} out of range"
                for i in _outside(pairs[:, col], g.entity_count)]
    for col, name in enumerate(("left", "right")):
        vals, counts = np.unique(pairs[:, col], return_counts=True)
        out += [f"alignment: {name} entity {v} appears in more than one pair"
                for v in vals[counts > 1][:20]]

    for side, attrs, g in (
        ("left", pair.attributes_left, pair.left),
        ("right", pair.attributes_right, pair.right),
    ):
        if attrs is not None and attrs.entity_count != g.entity_count:
            out.append(
                f"{side} attribute table has {attrs.entity_count} rows, "
                f"graph has {g.entity_count} entities"
            )
    return out


def require_valid(pair: GraphPair) -> None:
    """Raise GraphValidationError when validate_pair reports violations."""
    from .errors import GraphValidationError

    violations = validate_pair(pair)
    if violations:
        shown = "; ".join(violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise GraphValidationError(f"invalid graph pair: {shown}{more}")
