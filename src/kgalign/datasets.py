"""Benchmark dataset loading, validation, splitting and statistics.

All on-disk files are UTF-8 text with tab-separated columns:

  triples:    head_id <TAB> relation_id <TAB> tail_id
  id maps:    integer_id <TAB> label
  alignments: left_id <TAB> right_id
  aligned triples (wk3l): h1 <TAB> r1 <TAB> t1 <TAB> h2 <TAB> r2 <TAB> t2
  attributes (optional):  entity_id <TAB> attribute_predicate_label

Each file is read once; a checksum pinned in manifest.json is verified
on the bytes that are then parsed. A table in the plain form (every
line ending in "\\n", ids of at most 18 ASCII digits, no trailing
whitespace) is checked and parsed in bulk with numpy. Any other form
goes through a per-line reader, which accepts trailing whitespace,
"\\r\\n", a missing final newline and whatever int() accepts ("+5",
"007", ids beyond int64, non-ASCII digits), and which names the file
and line of the first fault: a blank line, a wrong column count, a
non-integer, unknown or duplicate id. Both readers give the same pair.
An empty triples or id-map file is rejected, and so is an empty
sup_ent_ids, ref_ent_ids or ill_ent_ids. FAMILIES lists the file names
each family ships, so that a directory with a drifted layout fails
loudly instead of loading the wrong thing.

Entities and relations are re-indexed densely per graph side in id-map
file order; raw ids survive only inside the label maps. The attribute
files become sparse multi-hot tables, built in one numpy pass.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .configfile import FLAT_KEY
from .errors import ConfigError, DataFormatError
from .graphs import AlignmentSet, AttributeTable, GraphPair, KnowledgeGraph, Role

# The six graph files every family ships.
_GRAPH_FILES = ("triples_1", "triples_2", "ent_ids_1", "ent_ids_2", "rel_ids_1", "rel_ids_2")
_SHIPPED_SPLIT = ("sup_ent_ids", "ref_ent_ids")  # train, test
_WK3L_ALIGNMENT = ("align_1to2", "align_2to1", "triple_align")
_ATTRIBUTES = ("attrs_1", "attrs_2")

# family -> (subsets, alignment files, optional files). The graph files
# and the alignment files are required, the optional files may be absent,
# and any other file is rejected. Checksums, when pinned in a local
# manifest.json next to the data, are verified as well.
FAMILIES = {
    "dbp15k-full": (("fr-en", "ja-en", "zh-en"), ("ill_ent_ids",), _ATTRIBUTES),
    "dbp15k-jape": (("fr-en", "ja-en", "zh-en"), _SHIPPED_SPLIT, _ATTRIBUTES),
    "wk3l-15k": (("en-de", "en-fr"), _WK3L_ALIGNMENT, ()),
    "wk3l-120k": (("en-de", "en-fr"), _WK3L_ALIGNMENT, ()),
    "dwy100k": (("dbp-wd", "dbp-yg"), _SHIPPED_SPLIT, _ATTRIBUTES),
}

# Table-style shorthand for the dwy100k subsets.
SUBSET_ALIASES = {"wd": "dbp-wd", "yg": "dbp-yg"}

_TOY_SUBSET = re.compile(r"^cycle-(\d+)-(\d+)$")

ATTRIBUTE_VOCABULARY_SIZE = 1000

# an id map whose keys span at most this many times their count is read
# through a table indexed by id rather than binary-searched (_lookup)
_TABLE_SPAN = 4


@dataclass(frozen=True)
class DatasetDescriptor:
    family: str
    subset: str
    root_path: Path | None = field(default=None, metadata={FLAT_KEY: "root"})

    def __post_init__(self):
        subset = SUBSET_ALIASES.get(self.subset, self.subset)
        object.__setattr__(self, "subset", subset)
        if self.root_path is not None:
            object.__setattr__(self, "root_path", Path(self.root_path))
        if self.family == "toy":
            m = _TOY_SUBSET.match(subset)
            if not m:
                raise ConfigError(
                    f"subset of family 'toy' must look like cycle-<nodes>-<seeds>, got {subset!r}"
                )
            n_nodes, n_seeds = int(m.group(1)), int(m.group(2))
            if n_nodes < 3 or not 0 < n_seeds < n_nodes:
                raise ConfigError(f"subset of family 'toy' needs at least 3 nodes and 1 to "
                                  f"nodes - 1 seeds, got {subset!r}")
            return
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be toy or one of {list(FAMILIES)}, "
                              f"got {self.family!r}")
        subsets = FAMILIES[self.family][0]
        if subset not in subsets:
            raise ConfigError(
                f"subset of family {self.family!r} must be one of {subsets}, got {subset!r}"
            )

    @property
    def is_toy(self) -> bool:
        return self.family == "toy"

    def key(self) -> str:
        return f"{self.family}:{self.subset}"


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise DataFormatError("file not found", path=path)


def _decode(path: Path, data: bytes) -> str:
    """The text Path.read_text would give: UTF-8, universal newlines."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data[: exc.start].count(b"\n") + 1
        raise DataFormatError("not valid UTF-8", path=path, line_no=line_no)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _bulk_rows(data: bytes, n_ids: int, labelled: bool):
    """(raw ids, labels) of a table in the plain form, else None.

    The plain form ends every line, the last included, in a bare "\\n",
    has exactly the expected tabs on each line, spells each id in 1 to
    18 ASCII digits (so it fits int64) and, with labelled, has labels
    that are valid UTF-8 and not all whitespace. It is checked and
    parsed over the whole buffer at once.
    """
    n_cols = n_ids + labelled
    if b"\r" in data or not data.endswith(b"\n"):
        return None
    u = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero((u == ord("\t")) | (u == ord("\n")))  # where each field ends
    line = np.r_[np.full(n_cols - 1, ord("\t")), ord("\n")]
    if ends.size % n_cols or not (u[ends].reshape(-1, n_cols) == line).all():
        return None
    width = (np.diff(ends, prepend=-1) - 1).reshape(-1, n_cols)[:, :n_ids]
    if not ((width >= 1) & (width <= 18)).all():
        return None
    ids, labels = data, None
    if labelled:
        try:
            fields = data.decode("utf-8").replace("\t", "\n").split("\n")[:-1]
        except UnicodeDecodeError:
            return None
        labels = list(map(str.rstrip, fields[n_ids::n_cols]))
        del fields[n_ids::n_cols]
        ids = "\t".join(fields).encode()
        if not all(labels):
            return None
    if ids.translate(None, b"0123456789\t\n"):
        return None
    return np.fromstring(ids, dtype=np.int64, sep=" ").reshape(-1, n_ids), labels


def _split_rows(path: Path, data: bytes, n_cols: int) -> list[list[str]]:
    """The columns of each line, the whole file checked up front.

    Blank lines are rejected, so row i is line i + 1.
    """
    text = _decode(path, data)
    rows = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if raw == "" and line_no == text.count("\n") + 1:
            break  # trailing newline at EOF
        line = raw.rstrip()
        if line == "":
            raise DataFormatError("blank line", path=path, line_no=line_no)
        parts = line.split("\t")
        if len(parts) != n_cols:
            raise DataFormatError(
                f"expected {n_cols} tab-separated columns, found {len(parts)}",
                path=path,
                line_no=line_no,
            )
        rows.append(parts)
    return rows


def _parse_id(token: str, path: Path, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataFormatError(f"non-integer id {token!r}", path=path, line_no=line_no)


def _line_rows(path: Path, data: bytes, n_ids: int, labelled: bool):
    """(raw ids, labels, error) by the per-line reader, for any other form.

    It takes what int() takes, such as "+5", "007", non-ASCII digits and
    ids beyond int64. Each id column is converted in one pass; only when
    that fails are the lines scanned one by one, and the raw ids stop
    before the first line with a non-integer id, whose error comes back
    rather than raised: a line before it may hold an id that a lookup
    rejects first.
    """
    rows = _split_rows(path, data, n_ids + labelled)
    error = None
    try:
        raw = [list(map(int, (parts[j] for parts in rows))) for j in range(n_ids)]
    except ValueError:  # find the first offending line
        raw = [[] for _ in range(n_ids)]
        try:
            for line_no, parts in enumerate(rows, start=1):
                values = [_parse_id(token, path, line_no) for token in parts[:n_ids]]
                for column, value in zip(raw, values):
                    column.append(value)
        except DataFormatError as exc:
            error = exc
    try:
        raw = np.array(raw, dtype=np.int64)
    except OverflowError:  # ids beyond int64 stay Python ints
        raw = np.array(raw, dtype=object)
    labels = [parts[-1] for parts in rows] if labelled else None
    return raw.T, labels, error


def _read_ids(path: Path, data: bytes, columns, labelled: bool = False) -> list:
    """The columns of an integer table, each an array in file order.

    A column is None, which keeps the raw integer, or an (id map,
    message) pair, which replaces each raw id by its dense index and
    rejects an id the map lacks with the message. With labelled, each
    row ends in one more, free-text column, returned last as a list. The
    first offending line raises; within a line every id is parsed before
    any is looked up.
    """
    bulk = _bulk_rows(data, len(columns), labelled)
    raw, labels, error = (*bulk, None) if bulk else _line_rows(path, data, len(columns), labelled)
    out, unknown = [], np.zeros(raw.shape, dtype=bool)
    for j, column in enumerate(columns):
        if column is None:
            out.append(raw[:, j])
            continue
        index, known = _lookup(column[0], raw[:, j])
        unknown[:, j] = ~known
        out.append(index)
    for i, j in np.argwhere(unknown)[:1]:
        raise DataFormatError(f"{columns[j][1]} {raw[i, j]}", path=path, line_no=i + 1)
    if error is not None:
        raise error
    if labelled:
        out.append(labels)
    return out


def _load_id_map(path: Path, data: bytes):
    """The id map and dense index -> label.

    The map holds the raw ids sorted and the dense index (file order) of
    each.
    """
    raw, labels = _read_ids(path, data, [None], labelled=True)
    dense = np.argsort(raw, kind="stable")
    keys = raw[dense]
    repeats = dense[1:][keys[1:] == keys[:-1]]
    if repeats.size:
        first = repeats.min()
        raise DataFormatError(f"duplicate id {raw[first]}", path=path, line_no=first + 1)
    if not raw.size:
        raise DataFormatError("empty id map", path=path)
    return (keys, dense), dict(enumerate(labels))


def _lookup(id_map, raw: np.ndarray):
    """The dense index of each raw id, and whether the map has it; the
    index of an unknown id means nothing.

    When the keys and the ids are int64 and the keys span at most
    _TABLE_SPAN times their count, each id reads a table that holds the
    dense index of key k at k - keys[0] and -1 in the gaps: an id outside
    the span, or on a -1, is unknown. Any other map (a sparse span, or
    ids beyond int64) is binary-searched.
    """
    keys, dense = id_map
    span = int(keys[-1]) - int(keys[0]) + 1
    if keys.dtype == raw.dtype == np.int64 and span <= _TABLE_SPAN * len(keys):
        table = np.full(span + 1, -1, dtype=dense.dtype)  # its last slot: outside the span
        table[keys - keys[0]] = dense
        # the difference wraps, so read as unsigned an id below the span
        # lies above it, like an id past its end
        index = table[np.minimum((raw - keys[0]).view(np.uint64), span)]
        return index, index >= 0
    pos = np.searchsorted(keys, raw).clip(max=len(keys) - 1)
    return dense[pos], keys[pos] == raw


def build_attribute_tables(
    attrs_left: tuple[np.ndarray, list[str]],
    attrs_right: tuple[np.ndarray, list[str]],
    n_left: int,
    n_right: int,
    vocabulary_size: int = ATTRIBUTE_VOCABULARY_SIZE,
) -> tuple[AttributeTable, AttributeTable]:
    """Multi-hot feature tables over a shared predicate vocabulary, from
    each side's attribute lines as (entity indices, predicate labels).

    Each side contributes its vocabulary_size most frequent predicates
    (frequency ties broken lexicographically); the union, left ranking
    first, forms the shared column space so both tables have equal width.
    """
    # as objects, the labels sort as Python compares str
    labels = np.asarray([*attrs_left[1], *attrs_right[1]], dtype=object)
    names, name_ids = np.unique(labels, return_inverse=True)
    name_ids = np.split(name_ids, [len(attrs_left[1])])
    ranked = []
    for ids in name_ids:
        counts = np.bincount(ids, minlength=len(names))
        # names are sorted, so a stable sort keeps ties lexicographic
        top = np.argsort(-counts, kind="stable")[:vocabulary_size]
        ranked.append(top[counts[top] > 0])
    ranked = np.concatenate(ranked)
    ranked = ranked[np.sort(np.unique(ranked, return_index=True)[1])]  # the union, left first
    column_of = np.full(len(names), -1)
    column_of[ranked] = np.arange(len(ranked))
    columns = tuple(names[ranked].tolist())
    tables = []
    for (entities, _), ids, n in zip((attrs_left, attrs_right), name_ids, (n_left, n_right)):
        cols = column_of[ids]
        kept = cols >= 0
        rows = sp.csr_array((np.ones(kept.sum()), (entities[kept], cols[kept])),
                            shape=(n, max(len(columns), 1)))
        rows.data[:] = 1.0  # the build summed a predicate an entity lists twice
        tables.append(AttributeTable(rows, columns))
    return tuple(tables)


def _read_files(desc: DatasetDescriptor, root: Path) -> dict[str, bytes]:
    """The bytes of each file of the family's layout, every one read once.

    A checksum pinned in manifest.json is verified on the same bytes
    that are then parsed; a pin may name only a file of the layout.
    """
    _, alignment_files, optional_files = FAMILIES[desc.family]
    required = [*_GRAPH_FILES, *alignment_files]
    missing = [name for name in required if not (root / name).is_file()]
    if missing:
        raise DataFormatError(
            f"dataset layout for family {desc.family!r} requires files "
            f"{required}; missing {missing}",
            path=root,
        )
    known = {*required, *optional_files, "manifest.json"}
    extras = sorted(
        p.name for p in root.iterdir() if p.is_file() and p.name not in known
    )
    if extras:
        raise DataFormatError(
            f"unexpected files {extras} in dataset directory; refusing to "
            "guess a drifted layout",
            path=root,
        )
    files = {name: _read_bytes(root / name) for name in known if (root / name).is_file()}
    for name, pinned in _local_checksums(root, files.get("manifest.json")).items():
        if name not in files:
            what = "is missing" if name in known else f"is not a file of the {desc.family!r} layout"
            raise DataFormatError(
                f"pins a checksum for {name}, which {what}", path=root / "manifest.json"
            )
        actual = hashlib.sha256(files[name]).hexdigest()
        if actual != pinned:
            raise DataFormatError(
                f"checksum mismatch for {name}: manifest pins {pinned}, file has {actual}",
                path=root,
            )
    return files


def _local_checksums(root: Path, data: bytes | None) -> dict:
    if data is None:
        return {}
    path = root / "manifest.json"
    try:
        manifest = json.loads(_decode(path, data))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"not valid JSON: {exc.msg}", path=path, line_no=exc.lineno)
    checksums = manifest.get("sha256", {}) if isinstance(manifest, dict) else None
    if not isinstance(checksums, dict):
        raise DataFormatError(
            'expected a JSON object whose "sha256" maps file names to digests', path=path
        )
    return checksums


def symmetrize_wk3l(
    lr_pairs: list[tuple[int, int]],
    rl_pairs: list[tuple[int, int]],
    aligned_triples: list[tuple[tuple[int, int, int], tuple[int, int, int]]],
    left_labels: dict[int, str] | None = None,
    right_labels: dict[int, str] | None = None,
) -> AlignmentSet:
    """Merge directed alignment files and triple alignments into one
    symmetric, one-to-one alignment set.

    Candidate pairs come from four sources: the left-to-right file, the
    right-to-left file (flipped), and the head-head / tail-tail pairs of
    aligned triples. Conflicts (an entity claimed by several pairs) are
    resolved greedily: pairs backed by more sources win, ties go to the
    lexicographically smallest (left label, right label).
    """
    sources: dict[tuple[int, int], set[str]] = {}

    def add(pair, tag):
        sources.setdefault(pair, set()).add(tag)

    for p in lr_pairs:
        add(tuple(p), "lr")
    for r, l in rl_pairs:  # rl rows are (right, left); normalize orientation
        add((l, r), "rl")
    for (h1, _, t1), (h2, _, t2) in aligned_triples:
        add((h1, h2), "head")
        add((t1, t2), "tail")

    def label(labels, idx):
        if labels and idx in labels:
            return labels[idx]
        return str(idx)

    ordered = sorted(
        sources.items(),
        key=lambda kv: (
            -len(kv[1]),
            label(left_labels, kv[0][0]),
            label(right_labels, kv[0][1]),
        ),
    )
    used_left: set[int] = set()
    used_right: set[int] = set()
    kept: list[tuple[int, int]] = []
    for (l, r), _tags in ordered:
        if l in used_left or r in used_right:
            continue
        used_left.add(l)
        used_right.add(r)
        kept.append((l, r))
    kept.sort()
    return AlignmentSet.from_records((l, r, Role.TRAIN) for l, r in kept)


def load(desc: DatasetDescriptor) -> GraphPair:
    """Load a dataset into a densely re-indexed GraphPair.

    When the distribution ships a train/test alignment split, the roles
    honor it; otherwise all alignment pairs start with the train role
    and split() assigns roles later.
    """
    if desc.is_toy:
        m = _TOY_SUBSET.match(desc.subset)
        return toy_cycle_pair(n_nodes=int(m.group(1)), n_seeds=int(m.group(2)))
    if desc.root_path is None:
        raise ConfigError(f"dataset {desc.key()} needs its directory, given as --root to "
                          f"kgalign stats or as dataset.root in a config")
    root = desc.root_path
    if not root.is_dir():
        raise DataFormatError("dataset directory does not exist", path=root)
    files = _read_files(desc, root)

    def table(name, columns, labelled=False):
        return _read_ids(root / name, files[name], columns, labelled)

    ents = [_load_id_map(root / f"ent_ids_{k}", files[f"ent_ids_{k}"]) for k in (1, 2)]
    rels = [_load_id_map(root / f"rel_ids_{k}", files[f"rel_ids_{k}"]) for k in (1, 2)]
    graphs = []
    for k, (ent_map, ent_labels), (rel_map, rel_labels) in zip((1, 2), ents, rels):
        entity = (ent_map, "unknown entity id")
        triples = np.column_stack(
            table(f"triples_{k}", [entity, (rel_map, "unknown relation id"), entity])
        )
        if len(triples) == 0:
            raise DataFormatError("empty triples file", path=root / f"triples_{k}")
        graphs.append(
            KnowledgeGraph(len(ent_labels), len(rel_labels), triples, ent_labels, rel_labels)
        )
    left, right = graphs
    (ent_1, ent_labels_1), (ent_2, ent_labels_2) = ents

    def pairs(name, left_map=ent_1, right_map=ent_2):
        dangling = "dangling alignment id"
        return np.column_stack(table(name, [(left_map, dangling), (right_map, dangling)]))

    alignment_files = FAMILIES[desc.family][1]
    if alignment_files == _WK3L_ALIGNMENT:
        lr = pairs("align_1to2").tolist()
        rl = pairs("align_2to1", ent_2, ent_1).tolist()
        h, t = (ent_1, "dangling entity id"), (ent_2, "dangling entity id")
        columns = table("triple_align", [h, None, h, t, None, t])
        h1, r1, t1, h2, r2, t2 = (c.tolist() for c in columns)
        aligned_triples = list(zip(zip(h1, r1, t1), zip(h2, r2, t2)))
        alignment = symmetrize_wk3l(lr, rl, aligned_triples, ent_labels_1, ent_labels_2)
    else:  # a shipped train/test split, or one unsplit file of train pairs
        shipped = []
        for name in alignment_files:
            shipped.append(pairs(name))
            if len(shipped[-1]) == 0:
                raise DataFormatError("empty alignment file", path=root / name)
        roles = [Role.TRAIN.value, Role.TEST.value][: len(shipped)]
        alignment = AlignmentSet(
            np.concatenate(shipped), np.repeat(roles, [len(p) for p in shipped])
        )

    attrs = (None, None)
    present = [name in files for name in _ATTRIBUTES]
    if any(present) and not all(present):
        lone, partner = _ATTRIBUTES if present[0] else _ATTRIBUTES[::-1]
        raise DataFormatError(
            f"{lone} needs its partner file {partner}, which is missing", path=root
        )
    if all(present):
        attrs = build_attribute_tables(
            *(table(name, [(ent_map, "unknown entity id")], labelled=True)
              for name, ent_map in zip(_ATTRIBUTES, (ent_1, ent_2))),
            left.entity_count, right.entity_count,
        )
    return GraphPair(left, right, alignment, *attrs)


def split(
    alignment: AlignmentSet,
    train_fraction: float = 0.3,
    val_fraction_of_train: float = 0.2,
    seed: int = 0,
) -> AlignmentSet:
    """Assign train/validation/test roles with a seeded shuffle.

    Alignments that already carry test-role pairs are treated as having
    an official split: only the non-test pairs are re-partitioned, with
    val_fraction_of_train of them becoming validation. Otherwise
    train_fraction of all pairs becomes the train pool (the rest is
    test) and the same 80/20-style re-partition applies to the pool.
    """
    if len(alignment) == 0:
        raise ConfigError("cannot split an empty alignment")
    for name, f in (("train_fraction", train_fraction), ("val_fraction_of_train", val_fraction_of_train)):
        if not 0.0 < f < 1.0:
            raise ConfigError(f"{name} must lie strictly between 0 and 1, got {f}")
    rng = np.random.default_rng(seed)
    pairs = alignment.pairs
    roles = alignment.roles

    test_mask = roles == Role.TEST.value
    if test_mask.any():
        pool_idx = np.flatnonzero(~test_mask)
        test_idx = np.flatnonzero(test_mask)
    else:
        perm = rng.permutation(len(alignment))
        n_pool = int(round(train_fraction * len(alignment)))
        if n_pool == 0:
            raise ConfigError("train_fraction leaves no training pairs")
        pool_idx = perm[:n_pool]
        test_idx = perm[n_pool:]

    pool_perm = pool_idx[rng.permutation(len(pool_idx))]
    n_val = int(round(val_fraction_of_train * len(pool_perm)))
    val_idx = pool_perm[:n_val]
    train_idx = pool_perm[n_val:]
    if len(train_idx) == 0:
        raise ConfigError("split leaves no training pairs")

    new_roles = np.empty(len(alignment), dtype="U10")
    new_roles[train_idx] = Role.TRAIN.value
    new_roles[val_idx] = Role.VALIDATION.value
    new_roles[test_idx] = Role.TEST.value
    return AlignmentSet(pairs=pairs.copy(), roles=new_roles)


def statistics(pair: GraphPair, symmetrized: bool = False) -> dict:
    """Exact counts, as `kgalign stats --json` prints them: triples,
    entities and relations of each side, then the alignments, which
    symmetrized_alignments repeats for a symmetrized set (else None)."""
    counts = {
        side: {"triples": g.triple_count, "entities": g.entity_count, "relations": g.relation_count}
        for side, g in (("left", pair.left), ("right", pair.right))
    }
    n = len(pair.alignment)
    return {**counts, "alignments": n, "symmetrized_alignments": n if symmetrized else None}


def statistics_for(desc: DatasetDescriptor) -> dict:
    """Load a dataset and summarize it; wk3l counts are post-symmetrization."""
    pair = load(desc)
    return statistics(pair, symmetrized=desc.family.startswith("wk3l"))


def toy_cycle_pair(n_nodes: int = 8, n_seeds: int = 4, seed: int = 0) -> GraphPair:
    """Two isomorphic directed cycles with a partially revealed alignment.

    The right graph is the left cycle relabeled by a seeded random
    permutation. Evenly spaced nodes are revealed as train pairs; the
    remaining pairs carry the test role.
    """
    if n_nodes < 3:
        raise ConfigError("cycle needs at least 3 nodes")
    if not 0 < n_seeds < n_nodes:
        raise ConfigError("n_seeds must be in 1..n_nodes-1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_nodes)

    left_triples = [(i, 0, (i + 1) % n_nodes) for i in range(n_nodes)]
    right_triples = [(perm[i], 0, perm[(i + 1) % n_nodes]) for i in range(n_nodes)]
    left = KnowledgeGraph(entity_count=n_nodes, relation_count=1, triples=left_triples)
    right = KnowledgeGraph(entity_count=n_nodes, relation_count=1, triples=right_triples)

    # evenly spaced revealed nodes; spacing >= 1 keeps them distinct
    seed_nodes = set(np.linspace(0, n_nodes, n_seeds, endpoint=False).astype(int).tolist())
    records = [
        (i, int(perm[i]), Role.TRAIN if i in seed_nodes else Role.TEST)
        for i in range(n_nodes)
    ]
    return GraphPair(
        left=left, right=right, alignment=AlignmentSet.from_records(records)
    )
