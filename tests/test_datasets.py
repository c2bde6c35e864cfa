import collections
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kgalign import datasets
from kgalign.datasets import (
    DatasetDescriptor,
    build_attribute_tables,
    load,
    split,
    statistics,
    statistics_for,
    symmetrize_wk3l,
    toy_cycle_pair,
)
from kgalign.cli import main
from kgalign.errors import ConfigError, DataFormatError
from kgalign.graphs import Role, validate_pair

from conftest import require_golden, write_dataset


def test_descriptor_validates_family_and_subset():
    DatasetDescriptor("dbp15k-jape", "zh-en")
    with pytest.raises(ConfigError):
        DatasetDescriptor("dbp15k-jape", "en-de")
    with pytest.raises(ConfigError):
        DatasetDescriptor("nope", "zh-en")


def test_descriptor_subset_alias():
    d = DatasetDescriptor("dwy100k", "wd")
    assert d.subset == "dbp-wd"


def test_load_jape_style(jape_style_dir):
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    pair = load(desc)
    assert validate_pair(pair) == []
    assert pair.left.entity_count == 4
    assert pair.right.entity_count == 4
    assert pair.left.relation_count == 2
    assert pair.left.triple_count == 3
    # dense reindex follows id-map file order
    assert pair.left.triples.tolist() == [[0, 0, 1], [1, 0, 2], [2, 1, 3]]
    assert pair.left.entity_labels[0] == "e:a"
    # shipped split honored
    assert pair.alignment.train_pairs.tolist() == [[0, 0], [1, 1]]
    assert pair.alignment.by_role(Role.TEST).tolist() == [[2, 2], [3, 3]]


def test_load_missing_file_errors(jape_style_dir):
    (jape_style_dir / "ref_ent_ids").unlink()
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    with pytest.raises(DataFormatError, match="ref_ent_ids"):
        load(desc)


def test_load_rejects_unexpected_files(jape_style_dir):
    (jape_style_dir / "s_triples").write_text("0\t0\t1\n", encoding="utf-8")
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    with pytest.raises(DataFormatError, match="s_triples"):
        load(desc)


def test_load_wrong_column_count_names_file_and_line(jape_style_dir):
    (jape_style_dir / "triples_1").write_text("10\t100\n", encoding="utf-8")
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    with pytest.raises(DataFormatError, match=r"triples_1:1"):
        load(desc)


def test_load_non_integer_id_errors(jape_style_dir):
    (jape_style_dir / "triples_1").write_text("a\t100\t11\n", encoding="utf-8")
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    with pytest.raises(DataFormatError, match="non-integer"):
        load(desc)


def test_load_blank_line_rejected(jape_style_dir):
    text = (jape_style_dir / "triples_1").read_text(encoding="utf-8")
    (jape_style_dir / "triples_1").write_text(
        text.replace("10\t100\t11\n", "10\t100\t11\n\n"), encoding="utf-8"
    )
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    with pytest.raises(DataFormatError, match="blank line"):
        load(desc)


def test_load_trailing_whitespace_tolerated(jape_style_dir):
    text = (jape_style_dir / "triples_1").read_text(encoding="utf-8")
    (jape_style_dir / "triples_1").write_text(
        text.replace("10\t100\t11\n", "10\t100\t11   \n"), encoding="utf-8"
    )
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    assert load(desc).left.triple_count == 3


def test_load_dangling_alignment_id_errors(jape_style_dir):
    (jape_style_dir / "sup_ent_ids").write_text("10\t20\n99\t21\n", encoding="utf-8")
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    with pytest.raises(DataFormatError, match="dangling.*99"):
        load(desc)


def test_load_empty_triples_errors(jape_style_dir):
    (jape_style_dir / "triples_1").write_text("", encoding="utf-8")
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    with pytest.raises(DataFormatError, match="empty"):
        load(desc)


def test_checksum_manifest_verified(jape_style_dir):
    import hashlib, json

    good = hashlib.sha256((jape_style_dir / "triples_1").read_bytes()).hexdigest()
    (jape_style_dir / "manifest.json").write_text(
        json.dumps({"sha256": {"triples_1": good}}), encoding="utf-8"
    )
    desc = DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir)
    load(desc)  # matching checksum passes

    (jape_style_dir / "manifest.json").write_text(
        json.dumps({"sha256": {"triples_1": "0" * 64}}), encoding="utf-8"
    )
    with pytest.raises(DataFormatError, match="checksum"):
        load(desc)


def _full_dir(tmp_path, ill_ent_ids):
    return write_dataset(
        tmp_path / "full",
        triples_1=[(1, 5, 2)],
        triples_2=[(7, 9, 8)],
        ents_1=[(1, "a"), (2, "b")],
        ents_2=[(7, "x"), (8, "y")],
        rels_1=[(5, "p")],
        rels_2=[(9, "q")],
        files={"ill_ent_ids": ill_ent_ids},
    )


def test_load_full_variant_unsplit(tmp_path):
    root = _full_dir(tmp_path, [(1, 7), (2, 8)])
    pair = load(DatasetDescriptor("dbp15k-full", "zh-en", root_path=root))
    assert len(pair.alignment) == 2
    assert np.all(pair.alignment.roles == Role.TRAIN.value)


def _wk3l_dir(tmp_path):
    return write_dataset(
        tmp_path / "wk3l",
        triples_1=[(0, 0, 1), (1, 0, 2)],
        triples_2=[(10, 5, 11), (11, 5, 12)],
        ents_1=[(0, "a"), (1, "b"), (2, "c")],
        ents_2=[(10, "x"), (11, "y"), (12, "z")],
        rels_1=[(0, "p")],
        rels_2=[(5, "q")],
        files={
            "align_1to2": [(0, 10)],
            "align_2to1": [(11, 1)],
            "triple_align": [(1, 0, 2, 11, 5, 12)],
        },
    )


def test_load_wk3l_symmetrizes(tmp_path):
    pair = load(DatasetDescriptor("wk3l-15k", "en-de", root_path=_wk3l_dir(tmp_path)))
    # directed files give (0,0) and (1,1); the aligned triple adds (1,1), (2,2)
    assert pair.alignment.pairs.tolist() == [[0, 0], [1, 1], [2, 2]]
    assert validate_pair(pair) == []


def test_load_dwy100k_shipped_split(jape_style_dir):
    # dwy100k ships the same sup/ref split files as dbp15k-jape
    pair = load(DatasetDescriptor("dwy100k", "wd", root_path=jape_style_dir))
    assert validate_pair(pair) == []
    assert pair.alignment.train_pairs.tolist() == [[0, 0], [1, 1]]
    assert pair.alignment.by_role(Role.TEST).tolist() == [[2, 2], [3, 3]]


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("ent_ids_1", "10\te:a\n11\te:b\n10\te:c\n", r"ent_ids_1:3: duplicate id 10$"),
        ("rel_ids_2", "", r"rel_ids_2: empty id map$"),
        ("triples_1", "10\t100\t11\n11\t100\t99\n", r"triples_1:2: unknown entity id 99$"),
        ("triples_1", "10\t100\t11\n11\t999\t12\n", r"triples_1:2: unknown relation id 999$"),
        ("attrs_1", "10\tpop\n77\tpop\n", r"attrs_1:2: unknown entity id 77$"),
        ("triples_1", "10\t100\t11\n1-1\t100\t12\n", r"triples_1:2: non-integer id '1-1'$"),
        ("ent_ids_1", "10\te:a\n11\te\tb\n", r"ent_ids_1:2: expected 2 tab-separated columns, found 3$"),
        ("triples_1", "10\t100\t11\n11\t100\t12 13\n", r"triples_1:2: non-integer id '12 13'$"),
        ("triples_1", "10\t100\t99\nx\t100\t11\n", r"triples_1:1: unknown entity id 99$"),
        ("triples_1", "10\t999\tx\n", r"triples_1:1: non-integer id 'x'$"),
        ("triples_1", "10\t100\t11\n11\t100\t1" + "0" * 24 + "\n",
         r"triples_1:2: unknown entity id 1" + "0" * 24 + "$"),
        ("ent_ids_2", "20\tf:a\n21\tf:b\n22\tf:c\n23\tf:d\n0020\tf:e\n", r"ent_ids_2:5: duplicate id 20$"),
        ("sup_ent_ids", "10\t20\n\t21\n", r"sup_ent_ids:2: non-integer id ''$"),
        ("rel_ids_1", "100\tr:p\n101\t \n", r"rel_ids_1:2: expected 2 tab-separated columns, found 1$"),
        ("ent_ids_1", "10\te:a\rb\n", r"ent_ids_1:2: expected 2 tab-separated columns, found 1$"),
        ("triples_1", "10\t100\t11\n98\t999\t99\n12\t100\t97\n", r"triples_1:2: unknown entity id 98$"),
        ("ent_ids_1", "10\te:a\n11\te:b\n11\te:c\n10\te:d\n", r"ent_ids_1:3: duplicate id 11$"),
    ],
    ids=["duplicate-id", "empty-id-map", "unknown-entity", "unknown-relation", "attribute-entity",
         "minus-inside-id", "tab-inside-label", "space-inside-id", "unknown-before-non-integer",
         "non-integer-before-unknown", "unknown-id-beyond-int64", "duplicate-with-leading-zeros",
         "empty-id", "blank-label", "lone-cr-inside-label", "first-of-several-unknown",
         "first-of-several-duplicates"],
)
def test_load_bad_id_names_file_and_line(jape_style_dir, name, text, message):
    (jape_style_dir / "attrs_1").write_text("10\tpop\n", encoding="utf-8")
    (jape_style_dir / "attrs_2").write_text("20\tpop\n", encoding="utf-8")
    (jape_style_dir / name).write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError, match=message):
        load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir))


def _searched(id_map, raw):
    """The binary search formula of an id lookup, as an oracle."""
    keys, dense = id_map
    pos = np.searchsorted(keys, raw).clip(max=len(keys) - 1)
    return dense[pos], keys[pos] == raw


_INT64 = np.iinfo(np.int64)


@pytest.mark.parametrize(
    "ids, raw, table",
    [
        ([7, 3, 12, 4, 9], [3, 12, 9, 4, 7, 2, 1, 5, 13, _INT64.min, _INT64.max, 8], True),
        ([-5, 0, -9, 2, -1], [-9, -5, 2, -1, 0, -10, -11, -4, 3, _INT64.min], True),
        ([0, 15, 5, 10], [15, 0, 10, 5, 16, -1, 1, 14], True),
        ([0, 16, 5, 10], [16, 0, 10, 5, 17, -1, 1, 15], False),
        ([_INT64.max, 0, _INT64.min], [0, _INT64.min, _INT64.max, 1, -1], False),
        ([3, 1, 2], np.array([2, 2**70, 1, -2**70, 4], dtype=object), False),
        (np.array([3, 2**70, 1], dtype=object), [2**70, 1, 3, 2, 2**71], False),
    ],
    ids=["gaps-unsorted-unknown-below-inside-above", "negative-ids", "span-at-table-bound",
         "span-past-table-bound", "int64-extremes", "ids-beyond-int64", "keys-beyond-int64"],
)
def test_lookup_matches_binary_search(monkeypatch, ids, raw, table):
    # the id map as _load_id_map builds it, from raw ids in file order
    ids = np.asarray(ids)
    dense = np.argsort(ids, kind="stable")
    id_map, raw = (ids[dense], dense), np.asarray(raw)
    want_index, want_known = _searched(id_map, raw)
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(a) or search(*a, **k))
    index, known = datasets._lookup(id_map, raw)
    assert known.tolist() == want_known.tolist()
    assert index[known].tolist() == want_index[want_known].tolist()
    assert not searches if table else searches


@pytest.mark.parametrize("family, name", [
    ("dbp15k-jape", "sup_ent_ids"), ("dbp15k-jape", "ref_ent_ids"), ("dbp15k-full", "ill_ent_ids"),
])
def test_load_empty_alignment_file_names_it(jape_style_dir, tmp_path, capsys, family, name):
    # an empty test file used to load as if the data shipped no split
    root = jape_style_dir if family == "dbp15k-jape" else _full_dir(tmp_path, [(1, 7)])
    (root / name).write_bytes(b"")
    with pytest.raises(DataFormatError, match=rf"{name}: empty alignment file$"):
        load(DatasetDescriptor(family, "zh-en", root_path=root))
    assert main(["stats", family, "zh-en", "--root", str(root)]) == 3
    assert f"{name}: empty alignment file" in json.loads(capsys.readouterr().err)["message"]


_PLAIN = {
    "triples_1": [(10, 100, 11), (11, 100, 12), (12, 101, 13)],
    "triples_2": [(20, 200, 21), (21, 200, 22), (23, 201, 20)],
    "ent_ids_1": [(10, "e:a"), (11, "e:b b"), (12, "北京"), (13, "e:d")],
    "ent_ids_2": [(20, "f:a"), (21, "f:b"), (22, "f:cé"), (23, "f:d")],
    "rel_ids_1": [(100, "r:p"), (101, "r:q")],
    "rel_ids_2": [(200, "s:p"), (201, "s:q")],
    "sup_ent_ids": [(10, 20), (11, 21)],
    "ref_ent_ids": [(12, 22), (13, 23)],
    "attrs_1": [(10, "pop"), (11, "area"), (10, "area")],
    "attrs_2": [(20, "pop"), (23, "pop")],
}
_LABELLED = ("ent_ids_1", "ent_ids_2", "rel_ids_1", "rel_ids_2", "attrs_1", "attrs_2")


def _write_forms(root, spell=str, maps_spell=None, line_end="\n", final_newline=True):
    """Write _PLAIN with each raw id spelt by spell (by maps_spell in the
    id maps, when given) and each line ended by line_end."""
    root.mkdir()
    for name, rows in _PLAIN.items():
        speller = maps_spell if maps_spell and name.startswith(("ent_ids", "rel_ids")) else spell
        lines = []
        for row in rows:
            ids, label = (row[:-1], row[-1:]) if name in _LABELLED else (row, ())
            lines.append("\t".join([*map(speller, ids), *label]))
        text = line_end.join(lines) + (line_end if final_newline else "")
        (root / name).write_bytes(text.encode("utf-8"))
    return root


def _arabic_indic(value):
    return "".join(chr(0x660 + int(d)) for d in str(value))


@pytest.mark.parametrize("form", [
    dict(line_end="  \n"),
    dict(line_end="\t\n"),
    dict(line_end="\r\n"),
    dict(final_newline=False),
    dict(spell=lambda v: f"007{v}"),
    dict(spell=lambda v: f"+{v}"),
    dict(spell=lambda v: str(v + 2**64)),
    dict(maps_spell=_arabic_indic),
], ids=["trailing-spaces", "trailing-tab", "crlf", "no-final-newline", "leading-zeros",
        "plus-signs", "beyond-int64", "non-ascii-digits-in-id-maps"])
def test_load_accepted_forms_like_plain(tmp_path, form):
    desc = lambda root: DatasetDescriptor("dbp15k-jape", "zh-en", root_path=root)
    plain = load(desc(_write_forms(tmp_path / "plain")))
    other = load(desc(_write_forms(tmp_path / "other", **form)))
    for side in ("left", "right"):
        a, b = getattr(plain, side), getattr(other, side)
        assert a.triples.dtype == b.triples.dtype and np.array_equal(a.triples, b.triples)
        assert (a.entity_count, a.relation_count) == (b.entity_count, b.relation_count)
        assert a.entity_labels == b.entity_labels and a.relation_labels == b.relation_labels
        ta, tb = getattr(plain, f"attributes_{side}"), getattr(other, f"attributes_{side}")
        assert np.array_equal(ta.features.toarray(), tb.features.toarray())
        assert ta.column_labels == tb.column_labels
    assert plain.alignment.pairs.dtype == other.alignment.pairs.dtype
    assert np.array_equal(plain.alignment.pairs, other.alignment.pairs)
    assert plain.alignment.roles.dtype == other.alignment.roles.dtype
    assert np.array_equal(plain.alignment.roles, other.alignment.roles)
    assert plain.left.entity_labels[2] == "北京"


def test_load_reads_each_file_once(jape_style_dir, monkeypatch):
    (jape_style_dir / "attrs_1").write_text("10\tpop\n", encoding="utf-8")
    (jape_style_dir / "attrs_2").write_text("20\tpop\n", encoding="utf-8")
    pinned = {
        name: hashlib.sha256((jape_style_dir / name).read_bytes()).hexdigest()
        for name in ("triples_1", "ent_ids_2", "ref_ent_ids", "attrs_1")
    }
    (jape_style_dir / "manifest.json").write_text(json.dumps({"sha256": pinned}), encoding="utf-8")
    reads = collections.Counter()
    for method in ("read_bytes", "read_text"):
        real = getattr(Path, method)

        def counting(self, *args, _real=real, **kwargs):
            if self.parent == jape_style_dir:
                reads[self.name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Path, method, counting)
    load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir))
    assert reads == {path.name: 1 for path in jape_style_dir.iterdir()}


def test_load_wk3l_dangling_triple_alignment_errors(tmp_path):
    root = _wk3l_dir(tmp_path)
    (root / "triple_align").write_text("1\t0\t2\t11\t5\t99\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"triple_align:1: dangling entity id 99$"):
        load(DatasetDescriptor("wk3l-15k", "en-de", root_path=root))


def test_load_crlf_files_like_lf(jape_style_dir, tmp_path):
    (jape_style_dir / "attrs_1").write_text("10\tpop\n11\tarea\n", encoding="utf-8")
    (jape_style_dir / "attrs_2").write_text("20\tpop\n", encoding="utf-8")
    crlf_dir = tmp_path / "crlf"
    crlf_dir.mkdir()
    for path in jape_style_dir.iterdir():
        text = path.read_text(encoding="utf-8")
        (crlf_dir / path.name).write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    lf = load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir))
    crlf = load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=crlf_dir))
    for side in ("left", "right"):
        a, b = getattr(lf, side), getattr(crlf, side)
        assert np.array_equal(a.triples, b.triples)
        assert a.entity_labels == b.entity_labels
        assert a.relation_labels == b.relation_labels
    assert np.array_equal(lf.alignment.pairs, crlf.alignment.pairs)
    assert np.array_equal(lf.alignment.roles, crlf.alignment.roles)
    assert np.array_equal(lf.attributes_left.features.toarray(),
                          crlf.attributes_left.features.toarray())
    assert lf.attributes_left.column_labels == crlf.attributes_left.column_labels == ("area", "pop")


def test_symmetrize_orientation_merge():
    # (a -> x) in one file and (x -> a) in the other is one pair
    out = symmetrize_wk3l([(0, 5)], [(5, 0)], [])
    assert out.pairs.tolist() == [[0, 5]]


def test_symmetrize_triple_extraction():
    out = symmetrize_wk3l([], [], [((1, 0, 2), (8, 0, 9))])
    assert out.pairs.tolist() == [[1, 8], [2, 9]]


def test_symmetrize_conflict_resolution_prefers_more_sources():
    # left 0 is claimed by (0, 5) with two sources and (0, 6) with one
    out = symmetrize_wk3l(
        [(0, 5), (0, 6)],
        [(5, 0)],
        [],
        left_labels={0: "a"},
        right_labels={5: "x", 6: "y"},
    )
    assert out.pairs.tolist() == [[0, 5]]


def test_symmetrize_conflict_tie_breaks_lexicographically():
    out = symmetrize_wk3l(
        [(0, 6), (0, 5)],
        [],
        [],
        left_labels={0: "a"},
        right_labels={5: "x", 6: "y"},
    )
    # both single-source; keep the pair with the smaller label tuple
    assert out.pairs.tolist() == [[0, 5]]


def test_symmetrize_output_is_one_to_one():
    rng = np.random.default_rng(0)
    lr = [(int(rng.integers(20)), int(rng.integers(20))) for _ in range(30)]
    rl = [(int(rng.integers(20)), int(rng.integers(20))) for _ in range(30)]
    out = symmetrize_wk3l(lr, rl, [])
    lefts, rights = out.pairs[:, 0], out.pairs[:, 1]
    assert len(np.unique(lefts)) == len(lefts)
    assert len(np.unique(rights)) == len(rights)


def _alignment(n, with_test=0):
    from kgalign.graphs import AlignmentSet

    records = [
        (i, i, Role.TEST if i < with_test else Role.TRAIN) for i in range(n)
    ]
    return AlignmentSet.from_records(records)


def test_split_two_stage_arithmetic():
    out = split(_alignment(100), train_fraction=0.3, val_fraction_of_train=0.2, seed=0)
    assert len(out.train_pairs) == 24
    assert len(out.validation_pairs) == 6
    assert len(out.by_role(Role.TEST)) == 70


def test_split_deterministic():
    a = split(_alignment(50), seed=7)
    b = split(_alignment(50), seed=7)
    assert np.array_equal(a.roles, b.roles)
    c = split(_alignment(50), seed=8)
    assert not np.array_equal(a.roles, c.roles)


def test_split_fraction_bounds():
    with pytest.raises(ConfigError, match="train_fraction"):
        split(_alignment(10), train_fraction=1.0)
    with pytest.raises(ConfigError, match="val_fraction"):
        split(_alignment(10), val_fraction_of_train=0.0)


def test_split_that_leaves_no_training_pairs_errors():
    # one unsplit pair: round(0.3 * 1) = 0 pairs in the train pool
    with pytest.raises(ConfigError, match="^train_fraction leaves no training pairs$"):
        split(_alignment(1))
    # one non-test pair, which round(0.9 * 1) = 1 makes a validation pair
    with pytest.raises(ConfigError, match="^split leaves no training pairs$"):
        split(_alignment(2, with_test=1), val_fraction_of_train=0.9)


def test_split_empty_alignment_errors():
    from kgalign.graphs import AlignmentSet

    empty = AlignmentSet(pairs=np.zeros((0, 2), dtype=np.int64), roles=np.array([], dtype="U10"))
    with pytest.raises(ConfigError, match="empty"):
        split(empty)


def test_split_respects_official_test_set():
    out = split(_alignment(100, with_test=70), val_fraction_of_train=0.2, seed=1)
    # official test untouched; the 30 shipped train pairs re-partition 24/6
    assert len(out.by_role(Role.TEST)) == 70
    assert len(out.train_pairs) == 24
    assert len(out.validation_pairs) == 6
    original_test = _alignment(100, with_test=70).by_role(Role.TEST)
    assert np.array_equal(np.sort(out.by_role(Role.TEST)[:, 0]), np.sort(original_test[:, 0]))


def test_statistics_counts(jape_style_dir):
    pair = load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir))
    stats = statistics(pair)
    assert stats["left"]["triples"] == 3 and stats["right"]["triples"] == 3
    assert stats["left"]["entities"] == 4 and stats["right"]["entities"] == 4
    assert stats["left"]["relations"] == 2 and stats["right"]["relations"] == 2
    assert stats["alignments"] == 4
    assert stats["symmetrized_alignments"] is None


def test_statistics_empty_pair_zeros():
    from kgalign.graphs import AlignmentSet, GraphPair, KnowledgeGraph

    g = KnowledgeGraph(0, 0, np.zeros((0, 3), dtype=np.int64))
    empty = AlignmentSet(pairs=np.zeros((0, 2), dtype=np.int64), roles=np.array([], dtype="U10"))
    stats = statistics(GraphPair(g, g, empty))
    assert stats["left"]["triples"] == 0 and stats["left"]["entities"] == 0
    assert stats["alignments"] == 0


def test_statistics_for_wk3l_counts_the_symmetrized_set(tmp_path, capsys):
    root = _wk3l_dir(tmp_path)
    side = {"triples": 2, "entities": 3, "relations": 1}
    assert statistics_for(DatasetDescriptor("wk3l-15k", "en-de", root_path=root)) == {
        "left": side, "right": side, "alignments": 3, "symmetrized_alignments": 3}
    assert main(["stats", "wk3l-15k", "en-de", "--root", str(root)]) == 0
    assert capsys.readouterr().out == (
        "side   triples  entities  relations\n"
        "left         2         3          1\n"
        "right        2         3          1\n"
        "alignments: 3\n"
        "symmetrized alignments: 3\n"
    )


def test_attribute_tables_shared_vocabulary():
    # (entity index, predicate label) per attribute line
    attrs_l = (np.array([0, 0, 1]), ["color", "size", "color"])
    attrs_r = (np.array([0, 2, 2]), ["weight", "color", "weight"])
    tl, tr = build_attribute_tables(attrs_l, attrs_r, 2, 3, vocabulary_size=2)
    assert tl.attribute_dim == tr.attribute_dim == 3  # color, size, weight
    assert tl.column_labels == tr.column_labels
    color = tl.column_labels.index("color")
    assert tl.features[0, color] == 1.0 and tl.features[1, color] == 1.0
    assert tr.features[2, color] == 1.0 and tr.features[0, color] == 0.0


def test_attribute_vocabulary_frequency_ties_lexicographic():
    attrs = (np.repeat([0, 1, 2], 2), ["b", "a"] * 3)  # both appear 3 times
    tl, tr = build_attribute_tables(attrs, (np.array([], dtype=int), []), 3, 1, vocabulary_size=1)
    assert tl.column_labels == ("a",)


def _loop_attribute_tables(attrs_left, attrs_right, n_left, n_right, vocabulary_size):
    """(dense rows per side, column labels) by per-line Python loops: the
    tables build_attribute_tables must give, as an oracle."""
    def top_predicates(labels):
        counts = collections.Counter(labels)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [p for p, _ in ranked[:vocabulary_size]]

    columns = top_predicates(attrs_left[1])
    columns += [p for p in dict.fromkeys(top_predicates(attrs_right[1])) if p not in columns]
    tables = []
    for (entities, labels), n in ((attrs_left, n_left), (attrs_right, n_right)):
        rows = np.zeros((n, max(len(columns), 1)))
        for e, p in zip(entities, labels):
            if p in columns:
                rows[e, columns.index(p)] = 1.0
        tables.append(rows)
    return tables, tuple(columns)


@pytest.mark.parametrize("seed", range(6))
def test_attribute_tables_match_a_per_line_loop(seed):
    rng = np.random.default_rng(seed)
    # few names, so counts tie; code points either side of ASCII, and a
    # trailing NUL, which fixed-width numpy strings would drop
    names = ["a", "a\x00", "ab", "b", "B", "é", "日本", "a b"]
    sides = []
    for n in (7, 5):
        lines = int(rng.integers(0, 40))
        labels = [names[i] for i in rng.integers(0, len(names), lines)]
        sides.append((rng.integers(0, n, lines), labels, n))
    vocabulary_size = int(rng.integers(1, 12))
    tl, tr = build_attribute_tables(sides[0][:2], sides[1][:2], 7, 5, vocabulary_size)
    (rows_l, rows_r), columns = _loop_attribute_tables(
        sides[0][:2], sides[1][:2], 7, 5, vocabulary_size)
    assert tl.column_labels == tr.column_labels == columns
    assert np.array_equal(tl.features.toarray(), rows_l)
    assert np.array_equal(tr.features.toarray(), rows_r)
    for table in (tl, tr):
        assert table.features.dtype == np.float64 and not table.features.data.flags.writeable


def test_attribute_files_loaded(jape_style_dir):
    (jape_style_dir / "attrs_1").write_text("10\tpop\n11\tpop\n", encoding="utf-8")
    (jape_style_dir / "attrs_2").write_text("20\tpop\n", encoding="utf-8")
    pair = load(DatasetDescriptor("dbp15k-jape", "zh-en", root_path=jape_style_dir))
    assert pair.attributes_left is not None
    assert pair.attributes_left.features[0].sum() == 1.0
    assert pair.attributes_right.attribute_dim == pair.attributes_left.attribute_dim


def test_toy_cycle_pair_structure():
    pair = toy_cycle_pair(8, 4, seed=0)
    assert validate_pair(pair) == []
    assert pair.left.triple_count == 8
    assert len(pair.alignment.train_pairs) == 4
    assert len(pair.alignment.by_role(Role.TEST)) == 4


def test_toy_descriptor_loads():
    pair = load(DatasetDescriptor("toy", "cycle-6-3"))
    assert pair.left.entity_count == 6
    assert len(pair.alignment.train_pairs) == 3


# --- golden statistics, gated on downloaded benchmarks ---------------------

def _count(stats, key):
    """The count of statistics' dict under a flat name: triples_left is
    stats["left"]["triples"], alignments is stats["alignments"]."""
    kind, _, side = key.rpartition("_")
    return stats[side][kind] if side in ("left", "right") else stats[key]


GOLDEN_CELLS = [
    ("dbp15k-jape", "zh-en", dict(triples_left=70_414, entities_left=19_388,
                                  relations_left=1_701, triples_right=95_142,
                                  entities_right=19_572, relations_right=1_323,
                                  alignments=15_000)),
    ("dbp15k-jape", "ja-en", dict(triples_left=77_214, entities_left=19_814,
                                  relations_left=1_299, triples_right=93_484,
                                  entities_right=19_780, relations_right=1_153,
                                  alignments=15_000)),
    ("dbp15k-jape", "fr-en", dict(triples_left=105_998, entities_left=19_661,
                                  relations_left=903, triples_right=115_722,
                                  entities_right=19_993, relations_right=1_208,
                                  alignments=15_000)),
    ("dbp15k-full", "zh-en", dict(triples_left=153_929, entities_left=66_469,
                                  relations_left=2_830, triples_right=237_674,
                                  entities_right=98_125, relations_right=2_317,
                                  alignments=15_000)),
    ("dbp15k-full", "ja-en", dict(triples_left=164_373, entities_left=65_744,
                                  relations_left=2_043, triples_right=233_319,
                                  entities_right=95_680, relations_right=2_096,
                                  alignments=15_000)),
    ("dbp15k-full", "fr-en", dict(triples_left=192_191, entities_left=66_858,
                                  relations_left=1_379, triples_right=278_590,
                                  entities_right=105_889, relations_right=2_209,
                                  alignments=15_000)),
    ("dwy100k", "dbp-wd", dict(triples_left=463_294, entities_left=100_000,
                               relations_left=330, triples_right=448_774,
                               entities_right=100_000, relations_right=220,
                               alignments=100_000)),
    ("dwy100k", "dbp-yg", dict(triples_left=428_952, entities_left=100_000,
                               relations_left=302, triples_right=502_563,
                               entities_right=100_000, relations_right=31,
                               alignments=100_000)),
]


@pytest.mark.parametrize("family,subset,expected", GOLDEN_CELLS,
                         ids=[f"{f}-{s}" for f, s, _ in GOLDEN_CELLS])
def test_golden_statistics_exact(family, subset, expected):
    path = require_golden(family, subset)
    stats = statistics_for(DatasetDescriptor(family, subset, root_path=path))
    for key, value in expected.items():
        assert _count(stats, key) == value, f"{family}/{subset} {key}"


WK3L_SYMMETRIZED = [
    ("wk3l-15k", "en-de", 10_383),
    ("wk3l-15k", "en-fr", 8_024),
    ("wk3l-120k", "en-de", 50_280),
    ("wk3l-120k", "en-fr", 87_836),
]

WK3L_SIDES = {
    ("wk3l-15k", "en-de"): dict(triples_left=209_041, entities_left=15_127,
                                relations_left=1_841, triples_right=144_244,
                                entities_right=14_603, relations_right=596),
    ("wk3l-15k", "en-fr"): dict(triples_left=203_356, entities_left=15_170,
                                relations_left=2_228, triples_right=169_329,
                                entities_right=15_393, relations_right=2_422),
    ("wk3l-120k", "en-de"): dict(triples_left=624_659, entities_left=67_650,
                                 relations_left=2_393, triples_right=389_554,
                                 entities_right=61_942, relations_right=861),
    ("wk3l-120k", "en-fr"): dict(triples_left=1_375_406, entities_left=119_749,
                                 relations_left=3_109, triples_right=760_497,
                                 entities_right=118_592, relations_right=2_336),
}


@pytest.mark.parametrize("family,subset,expected", WK3L_SYMMETRIZED,
                         ids=[f"{f}-{s}" for f, s, _ in WK3L_SYMMETRIZED])
def test_golden_wk3l_symmetrized_counts(family, subset, expected):
    path = require_golden(family, subset)
    stats = statistics_for(DatasetDescriptor(family, subset, root_path=path))
    for key, value in WK3L_SIDES[(family, subset)].items():
        assert _count(stats, key) == value, f"{family}/{subset} {key}"
    # conflict-resolution details may shift the symmetrized count slightly
    assert abs(stats["symmetrized_alignments"] - expected) <= 0.01 * expected
