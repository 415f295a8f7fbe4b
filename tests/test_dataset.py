"""Data model, synthetic corpus generation, and file formats."""

import dataclasses
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TINY_CONFIG, make_dataset, traced_peak
from darl import dataset
from darl.dataset import (
    EMBEDDING_MAGIC,
    GRADE_MIX,
    EmbeddingMatrix,
    LabeledDataset,
    Origin,
    PlantedRule,
    RelevanceGrade,
    SyntheticConfig,
    generate_pretrain_superset,
    generate_synthetic,
    load_embeddings,
    load_labels,
    merge_datasets,
    write_embeddings,
    write_labels,
)
from darl.errors import (
    BadMagicError,
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    DuplicateIdError,
    NonFiniteValueError,
    TruncatedPayloadError,
)
from darl.util import BLOCK_ROWS, sub_rng

# ---------------------------------------------------------------------------
# enums


def test_grade_scale_has_exactly_three_values():
    assert [g.name for g in RelevanceGrade] == ["IR", "WR", "SR"]
    assert [int(g) for g in RelevanceGrade] == [0, 1, 2]


def _label_file(tmp_path, rows):
    path = tmp_path / "labels.tsv"
    path.write_text("id\tgrade\torigin\n" + "".join(rows), encoding="utf-8")
    return path


def _id_matrix(*ids):
    """A one-column matrix of zeros with the given row ids."""
    return EmbeddingMatrix(np.zeros((len(ids), 1), dtype=np.float32), ids)


def test_grade_token_round_trip(tmp_path):
    path = _label_file(tmp_path, [f"{g.name}\t{g.name}\tID\n" for g in RelevanceGrade])
    back = load_labels(path, _id_matrix(*(g.name for g in RelevanceGrade)))
    assert back.grades.tolist() == [int(g) for g in RelevanceGrade]
    with pytest.raises(DataFormatError) as err:
        load_labels(_label_file(tmp_path, ["ok\tIR\tOOD\n", "a\tXX\tID\n"]), _id_matrix("ok", "a"))
    assert str(err.value) == "line 3: unknown grade token 'XX'"


def test_origin_token_round_trip(tmp_path):
    path = _label_file(tmp_path, ["a\tSR\tID\n", "b\tSR\tOOD\n"])
    assert load_labels(path, _id_matrix("a", "b")).origin.tolist() == [Origin.ID, Origin.OOD]
    with pytest.raises(DataFormatError) as err:
        load_labels(_label_file(tmp_path, ["ok\tIR\tOOD\n", "a\tSR\tid\n"]), _id_matrix("ok", "a"))
    assert str(err.value) == "line 3: unknown origin token 'id'"


# ---------------------------------------------------------------------------
# containers


def test_embedding_matrix_basic_shape():
    m = EmbeddingMatrix(np.arange(6, dtype=np.float32).reshape(2, 3), ("a", "b"))
    assert m.rows == 2 and m.dims == 3
    assert m.ids == ("a", "b")


def test_embedding_matrix_rejects_bad_inputs():
    good = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(DimensionMismatchError):
        EmbeddingMatrix(np.zeros(3), ("a",))
    with pytest.raises(DimensionMismatchError):
        EmbeddingMatrix(good, ("a",))
    with pytest.raises(DuplicateIdError, match="duplicate row id 'a' in embedding matrix"):
        EmbeddingMatrix(good, ("a", "a"))
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(NonFiniteValueError):
        EmbeddingMatrix(bad, ("a", "b"))


class _CollidingId(str):
    """An id whose hash equals every other's, as a hash collision would."""

    def __hash__(self):
        return 1


def test_duplicate_ids_are_told_from_hash_collisions():
    data = np.zeros((3, 1), dtype=np.float32)
    ids = tuple(map(_CollidingId, "abc"))
    assert EmbeddingMatrix(data, ids).ids == ids
    with pytest.raises(DuplicateIdError, match="'a'"):
        EmbeddingMatrix(data, tuple(map(_CollidingId, "aba")))
    # the error names the first row whose id repeats an earlier one
    with pytest.raises(DuplicateIdError, match="'a'"):
        EmbeddingMatrix(np.zeros((4, 1)), tuple(map(_CollidingId, "baab")))
    # a duplicate past the first block of rows
    rows = BLOCK_ROWS + 3
    with pytest.raises(DuplicateIdError, match="'r7'"):
        EmbeddingMatrix(np.zeros((rows, 1)), tuple(f"r{i}" for i in range(rows - 1)) + ("r7",))


def test_embedding_matrix_is_immutable():
    m = EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ("a", "b"))
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0


def test_embedding_matrix_take_preserves_order():
    m = EmbeddingMatrix(np.arange(8, dtype=np.float32).reshape(4, 2), tuple("abcd"))
    sub = m.take([2, 0])
    assert sub.ids == ("c", "a")
    np.testing.assert_array_equal(sub.data, m.data[[2, 0]])


def test_labeled_dataset_validates_lengths_and_ranges():
    emb = EmbeddingMatrix(np.zeros((2, 2), dtype=np.float32), ("a", "b"))
    with pytest.raises(DimensionMismatchError):
        LabeledDataset(emb, np.zeros(3, dtype=np.int8), np.zeros(2, dtype=np.int8))
    with pytest.raises(DimensionMismatchError):
        LabeledDataset(emb, np.zeros(2, dtype=np.int8), np.zeros(1, dtype=np.int8))
    with pytest.raises(DataFormatError):
        LabeledDataset(emb, np.array([0, 3], dtype=np.int8), np.zeros(2, dtype=np.int8))
    with pytest.raises(DataFormatError):
        LabeledDataset(emb, np.zeros(2, dtype=np.int8), np.array([0, 2], dtype=np.int8))


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize(
    "field,value",
    [
        ("dims", 0),
        ("id_cluster_count", -1),
        ("ood_cluster_count", 0),
        ("train_size", 0),
        ("val_size", 0),
        ("test_size", 0),
        ("pool_size", 0),
        ("pretrain_size", 0),
        ("pretrain_extra_clusters", 0),
        ("label_noise_rate", 0.5),
        ("label_noise_rate", -0.1),
        ("ood_shift_norm", -1.0),
        ("pool_ood_fraction", 1.0),
        ("pool_ood_fraction", -0.2),
    ],
)
def test_synthetic_config_validation_names_the_field(field, value):
    with pytest.raises(ConfigError) as err:
        SyntheticConfig(**{field: value})
    assert err.value.field == field


def test_zero_shift_norm_is_allowed():
    assert SyntheticConfig(ood_shift_norm=0.0).ood_shift_norm == 0.0


# ---------------------------------------------------------------------------
# generation


def test_generation_is_deterministic(tiny_corpus):
    dataset._blueprint.cache_clear()  # derive the blueprint from the seed again
    again = generate_synthetic(TINY_CONFIG)
    np.testing.assert_array_equal(
        tiny_corpus.train_id.embeddings.data, again.train_id.embeddings.data
    )
    np.testing.assert_array_equal(tiny_corpus.pool_truth.grades, again.pool_truth.grades)
    assert tiny_corpus.pool_truth.ids == again.pool_truth.ids


def test_generation_seed_changes_data(tiny_corpus):
    import dataclasses

    other = generate_synthetic(dataclasses.replace(TINY_CONFIG, seed=6))
    assert not np.array_equal(
        tiny_corpus.train_id.embeddings.data, other.train_id.embeddings.data
    )


def test_corpus_split_sizes_and_ids(tiny_corpus):
    cfg = TINY_CONFIG
    assert tiny_corpus.train_id.rows == cfg.train_size
    assert tiny_corpus.val_id.rows == cfg.val_size
    assert tiny_corpus.test_id.rows == cfg.test_size
    assert tiny_corpus.pool_truth.rows == cfg.pool_size
    assert tiny_corpus.train_id.ids[0].startswith("train-")
    assert tiny_corpus.pool_truth.ids[0].startswith("pool-")
    all_ids = (
        tiny_corpus.train_id.ids
        + tiny_corpus.val_id.ids
        + tiny_corpus.test_id.ids
        + tiny_corpus.pool_truth.ids
    )
    assert len(set(all_ids)) == len(all_ids)


def test_id_splits_carry_only_id_origin(tiny_corpus):
    for split in (tiny_corpus.train_id, tiny_corpus.val_id, tiny_corpus.test_id):
        assert np.all(split.origin == int(Origin.ID))


def test_pool_ood_count_is_exact(tiny_corpus):
    cfg = TINY_CONFIG
    expected = int(round(cfg.pool_size * cfg.pool_ood_fraction))
    assert int(np.count_nonzero(tiny_corpus.pool_truth.origin == int(Origin.OOD))) == expected


def test_default_pool_ood_fraction_within_one_point(default_corpus):
    frac = float(np.mean(default_corpus.pool_truth.origin == int(Origin.OOD)))
    assert abs(frac - 0.3) <= 0.01


def test_default_grade_mix_tracks_targets(default_corpus):
    # planted rules are calibrated toward the SR/WR/IR mix; noise moves it a little
    counts = np.bincount(default_corpus.train_id.grades, minlength=3)
    n = default_corpus.train_id.rows
    assert abs(counts[RelevanceGrade.SR] / n - GRADE_MIX["SR"]) < 0.05
    assert abs(counts[RelevanceGrade.IR] / n - GRADE_MIX["IR"]) < 0.05


def test_label_noise_changes_expected_fraction():
    import dataclasses

    clean = generate_synthetic(dataclasses.replace(TINY_CONFIG, label_noise_rate=0.0))
    noisy = generate_synthetic(dataclasses.replace(TINY_CONFIG, label_noise_rate=0.3))
    changed = float(np.mean(clean.pool_truth.grades != noisy.pool_truth.grades))
    # resampling at rate r keeps the old grade a third of the time
    assert 0.3 / 3 < changed < 0.3


def whole_array_pool(config):
    """Reference pool: both mixtures, their concatenation, its permuted copy
    and that copy cast to float32, each a whole array."""
    bp = dataset._blueprint(config)
    n_ood = int(round(config.pool_size * config.pool_ood_fraction))
    n_id = config.pool_size - n_ood

    def mixture(centers, n, tag):
        rng = sub_rng(config.seed, "rows", tag)
        picks = rng.integers(0, centers.shape[0], size=n)
        return centers[picks] + rng.standard_normal((n, centers.shape[1]))

    id_rows = mixture(bp.id_centers, n_id, "pool_id")
    ood_rows = mixture(bp.ood_centers, n_ood, "pool_ood")
    points = np.concatenate([id_rows, ood_rows], axis=0)
    grades = np.concatenate([bp.id_rule.grade_of(id_rows), bp.ood_rule.grade_of(ood_rows)])
    origin = np.concatenate([np.zeros(n_id, np.int8), np.ones(n_ood, np.int8)])
    perm = sub_rng(config.seed, "pool-shuffle").permutation(config.pool_size)
    grades = dataset._resample_noise(
        grades[perm], config.label_noise_rate, sub_rng(config.seed, "noise", "pool")
    )
    train = mixture(bp.id_centers, config.train_size, "train_id").astype(np.float32)
    return points[perm].astype(np.float32), grades, origin[perm], train


@pytest.mark.parametrize(
    "changes", [{}, {"pool_ood_fraction": 0.0}, {"ood_shift_norm": 0.0}]
)
def test_pool_matches_the_whole_array_formula(changes):
    config = dataclasses.replace(
        TINY_CONFIG, pool_size=2 * BLOCK_ROWS + 1, train_size=BLOCK_ROWS + 3, **changes
    )
    corpus = generate_synthetic(config)
    points, grades, origin, train = whole_array_pool(config)
    pool = corpus.pool_truth
    assert pool.embeddings.data.tobytes() == points.tobytes()
    assert pool.grades.tobytes() == grades.tobytes()
    assert pool.origin.tobytes() == origin.tobytes()
    assert corpus.train_id.embeddings.data.tobytes() == train.tobytes()


def test_pool_generation_holds_no_float64_pool():
    config = dataclasses.replace(TINY_CONFIG, dims=32, pool_size=40_000)
    dataset._blueprint(config)  # build the blueprint untraced
    n, dims = config.pool_size, config.dims
    ids = sys.getsizeof(tuple(range(n))) + sum(
        sys.getsizeof(f"pool-{i:06d}") for i in range(n)
    )
    # the float32 pool and its ids plus block-sized work; a whole float64
    # pool (n * dims * 8 bytes) would not fit
    assert traced_peak(generate_synthetic, config) <= n * dims * 4 + ids + (4 << 20)


def test_planted_rule_grade_oracle():
    rule = PlantedRule(w=np.array([1.0, 0.0]), mu=0.5, tau=1.0)
    points = np.array([[2.0, 9.0], [0.5, -1.0], [-1.0, 3.0]])
    grades = rule.grade_of(points)
    # scores are 1.5, 0.0, -1.5 against tau 1.0
    assert list(grades) == [int(RelevanceGrade.SR), int(RelevanceGrade.WR), int(RelevanceGrade.IR)]


def test_pretrain_superset_shape_and_determinism():
    sup = generate_pretrain_superset(TINY_CONFIG)
    assert sup.rows == TINY_CONFIG.pretrain_size
    assert sup.ids[0].startswith("pre-")
    assert np.all(sup.origin == int(Origin.ID))
    dataset._blueprint.cache_clear()  # derive the blueprint from the seed again
    again = generate_pretrain_superset(TINY_CONFIG)
    np.testing.assert_array_equal(sup.embeddings.data, again.embeddings.data)
    np.testing.assert_array_equal(sup.grades, again.grades)


def test_blueprint_is_built_once_per_config_and_read_only():
    import dataclasses

    dataset._blueprint.cache_clear()
    generate_synthetic(TINY_CONFIG)
    generate_pretrain_superset(TINY_CONFIG)
    info = dataset._blueprint.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    bp = dataset._blueprint(TINY_CONFIG)
    rules = (bp.id_rule, bp.ood_rule, *bp.extra_rules)
    for arr in (bp.id_centers, bp.ood_centers, bp.extra_centers, *(r.w for r in rules)):
        assert not arr.flags.writeable
    # a config equal to a cached one but invalid cannot even be built
    with pytest.raises(ConfigError, match="dims"):
        generate_synthetic(dataclasses.replace(TINY_CONFIG, dims=8.0))


# ---------------------------------------------------------------------------
# embedding file format


def test_embeddings_round_trip(tmp_path):
    m = EmbeddingMatrix(
        np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32), ("x1", "x2")
    )
    path = tmp_path / "m.emb"
    write_embeddings(m, path)
    back = load_embeddings(path)
    np.testing.assert_array_equal(back.data, m.data)
    assert back.ids == m.ids


def test_embeddings_write_is_byte_stable(tmp_path):
    m = EmbeddingMatrix(np.ones((3, 2), dtype=np.float32), ("a", "b", "c"))
    p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
    write_embeddings(m, p1)
    write_embeddings(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_embeddings_matches_one_joined_blob(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "m.emb"
    for rows in (0, 2 * BLOCK_ROWS + 1):
        ids = tuple(f"r{i}" for i in range(rows))
        m = EmbeddingMatrix(rng.standard_normal((rows, 3)), ids)
        write_embeddings(m, path)
        # the whole-file formula: every part as bytes, joined once
        raws = [rid.encode("utf-8") for rid in ids]
        assert path.read_bytes() == b"".join([
            EMBEDDING_MAGIC,
            struct.pack("<II", rows, 3),
            m.data.astype("<f4").tobytes(),
            struct.pack("<I", rows),
            *(struct.pack("<H", len(raw)) + raw for raw in raws),
        ])


def _whole_write_embeddings(matrix, path):
    """The writer before blocking: every id encoded at once, one payload write."""
    raws = [rid.encode("utf-8") for rid in matrix.ids]
    lengths = np.fromiter(map(len, raws), dtype=np.int64, count=len(raws))
    id_block = np.insert(
        np.frombuffer(b"".join(raws), dtype=np.uint8),
        np.repeat(np.cumsum(lengths) - lengths, 2),
        lengths.astype("<u2").view(np.uint8),
    )
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC + struct.pack("<II", matrix.rows, matrix.dims))
        f.write(np.ascontiguousarray(matrix.data, dtype="<f4").data)
        f.write(struct.pack("<I", matrix.rows))
        f.write(id_block.data)


def _whole_write_labels(labeled, path):
    """The label writer before blocking: every line joined at once."""
    grades = [RelevanceGrade(code).name for code in labeled.grades.tolist()]
    origin = [Origin(code).name for code in labeled.origin.tolist()]
    lines = ["id\tgrade\torigin", *map("\t".join, zip(labeled.ids, grades, origin))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("rows", [BLOCK_ROWS - 1, BLOCK_ROWS + 1])
def test_blocked_writers_match_the_whole_array_writers(tmp_path, rows):
    d = make_dataset(rows, 3, seed=rows, prefix="r\u00e9")  # two-byte UTF-8 ids
    perm = np.random.default_rng(rows).permutation(rows)
    # every row, then the rows at ``perm``, which must equal writing d.take(perm)
    for picked, expected in ((None, d), (perm, d.take(perm))):
        write_embeddings(d.embeddings, tmp_path / "new.emb", picked)
        _whole_write_embeddings(expected.embeddings, tmp_path / "old.emb")
        assert (tmp_path / "new.emb").read_bytes() == (tmp_path / "old.emb").read_bytes()
        write_labels(d, tmp_path / "new.tsv", picked)
        _whole_write_labels(expected, tmp_path / "old.tsv")
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "old.tsv").read_bytes()


def _embedding_faults(blob: bytes, rows: int, dims: int, row: int):
    """(name, faulty file, error type, message, offset) for faults in ``row``
    of an embedding file whose ids are all 8 ASCII bytes."""
    value = 12 + (row * dims + 1) * 4
    non_finite = bytearray(blob)
    non_finite[value : value + 4] = struct.pack("<f", float("inf"))
    cut = 12 + row * dims * 4
    id_start = 12 + rows * dims * 4 + 4 + row * 10 + 2
    bad_utf8 = bytearray(blob)
    bad_utf8[id_start] = 0xFF
    duplicate = bytearray(blob)
    duplicate[id_start : id_start + 8] = blob[12 + rows * dims * 4 + 6 :][:8]  # row 0's id
    utf8_error = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    return [
        ("non-finite", bytes(non_finite), NonFiniteValueError,
         f"non-finite value at row {row} col 1", value),
        ("payload-cut", blob[:cut], TruncatedPayloadError,
         f"embedding payload needs {rows * dims * 4} bytes, file ends early", cut),
        ("id-cut", blob[: id_start + 3], TruncatedPayloadError,
         "truncated id string", id_start + 3),
        ("bad-utf8", bytes(bad_utf8), DataFormatError,
         f"id is not valid UTF-8: {utf8_error}", id_start),
        ("duplicate-id", bytes(duplicate), DuplicateIdError,
         "duplicate row id 'row-0000' in embedding matrix", None),
    ]


def test_load_embeddings_names_faults_past_the_first_block(tmp_path):
    rows, dims = BLOCK_ROWS + 5, 3
    path = tmp_path / "m.emb"
    write_embeddings(make_dataset(rows, dims, seed=8).embeddings, path)
    blob = path.read_bytes()
    for name, faulty, error, message, offset in _embedding_faults(blob, rows, dims, rows - 3):
        path.write_bytes(faulty)
        with pytest.raises(error) as err:
            load_embeddings(path)
        suffix = "" if offset is None else f" (byte offset {offset})"
        assert (str(err.value), getattr(err.value, "offset", None)) == (
            message + suffix, offset
        ), name


def test_load_labels_names_faults_past_the_first_block(tmp_path):
    rows = BLOCK_ROWS + 5
    path = tmp_path / "labels.tsv"
    d = make_dataset(rows, 2, seed=9)
    write_labels(d, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    line = rows - 1  # a line past the first block (line 1 is the header)
    rid, grade, origin = lines[line].split("\t")
    faults = [
        (f"{rid}\tXX\t{origin}", f"line {line + 1}: unknown grade token 'XX'"),
        (f"{rid}\t{grade}", f"line {line + 1}: expected 3 columns, got 2"),
        (f"row-0000\t{grade}\t{origin}",
         f"line {line + 1}: id 'row-0000' out of order, expected {rid!r}"),
    ]
    for text, message in faults:
        path.write_text("\n".join([*lines[:line], text, *lines[line + 1 :]]) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_labels(path, d.embeddings)
        assert str(err.value) == message
    path.write_bytes("\n".join(lines[:line]).encode("utf-8") + b"\n\xff\tSR\tID\n")
    with pytest.raises(DataFormatError, match=f"line {line + 1}: label file is not UTF-8"):
        load_labels(path, d.embeddings)


def test_load_embeddings_never_holds_the_payload_twice(tmp_path):
    rows, dims = 20_000, 32
    path = tmp_path / "pool.emb"
    write_embeddings(make_dataset(rows, dims, seed=10, prefix="pool").embeddings, path)
    # the payload, its ids and block-sized work: under the float64 size of
    # the same rows, which reading the file and copying its payload exceeds
    assert traced_peak(load_embeddings, path) < rows * dims * 8


def test_load_labels_holds_a_few_bytes_per_row(tmp_path):
    rows = 20_000
    d = make_dataset(rows, 2, seed=10, prefix="pool")
    path = tmp_path / "pool.tsv"
    write_labels(d, path)
    # the int8 codes, the grade and origin arrays and one line at a time:
    # no table keyed by id and no list of the file's lines
    assert traced_peak(load_labels, path, d.embeddings) < rows * 16


def test_embeddings_payload_layout(tmp_path):
    # rows=2 dims=3 payload 1..6 must parse to [[1,2,3],[4,5,6]]
    ids = b"".join(struct.pack("<H", 2) + s for s in (b"r1", b"r2"))
    blob = (
        EMBEDDING_MAGIC
        + struct.pack("<II", 2, 3)
        + np.arange(1, 7, dtype="<f4").tobytes()
        + struct.pack("<I", 2)
        + ids
    )
    path = tmp_path / "hand.emb"
    path.write_bytes(blob)
    m = load_embeddings(path)
    np.testing.assert_array_equal(m.data, [[1, 2, 3], [4, 5, 6]])
    assert m.ids == ("r1", "r2")


def test_embeddings_id_block_layout(tmp_path):
    # empty, multi-byte UTF-8, and longer-than-255-byte ids
    ids = ("", "\u00e9t\u00e9", "x" * 300)
    m = EmbeddingMatrix(np.zeros((3, 1), dtype=np.float32), ids)
    path = tmp_path / "ids.emb"
    write_embeddings(m, path)
    raws = [rid.encode("utf-8") for rid in ids]
    expected_ids = b"".join(struct.pack("<H", len(r)) + r for r in raws)
    assert path.read_bytes() == (
        EMBEDDING_MAGIC
        + struct.pack("<II", 3, 1)
        + bytes(12)
        + struct.pack("<I", 3)
        + expected_ids
    )
    assert load_embeddings(path).ids == ids


def test_write_embeddings_rejects_overlong_id(tmp_path):
    m = EmbeddingMatrix(np.zeros((2, 1), dtype=np.float32), ("ok", "y" * 0x10000))
    with pytest.raises(DataFormatError, match="too long"):
        write_embeddings(m, tmp_path / "long.emb")


def test_load_embeddings_rejects_bad_id_block(tmp_path):
    blob = _valid_blob()  # ids "a" and "b": 3 bytes each at the end
    path = tmp_path / "ids.emb"
    path.write_bytes(blob[:-2])
    with pytest.raises(TruncatedPayloadError, match="id length"):
        load_embeddings(path)
    path.write_bytes(blob[:-1])
    with pytest.raises(TruncatedPayloadError, match="id string"):
        load_embeddings(path)
    path.write_bytes(blob[:-1] + b"\xff")
    with pytest.raises(DataFormatError, match="UTF-8") as err:
        load_embeddings(path)
    assert err.value.offset == len(blob) - 1


def _valid_blob() -> bytes:
    m = EmbeddingMatrix(np.ones((2, 2), dtype=np.float32), ("a", "b"))
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.emb"
        write_embeddings(m, p)
        return p.read_bytes()


def test_load_embeddings_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    path.write_bytes(b"XXXX" + _valid_blob()[4:])
    with pytest.raises(BadMagicError) as err:
        load_embeddings(path)
    assert err.value.offset == 0


def test_load_embeddings_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.emb"
    path.write_bytes(_valid_blob()[:8])
    with pytest.raises(TruncatedPayloadError):
        load_embeddings(path)


def test_load_embeddings_rejects_truncated_payload(tmp_path):
    # header says 2 rows but payload covers only one
    blob = _valid_blob()
    path = tmp_path / "trunc.emb"
    path.write_bytes(blob[: 12 + 2 * 4])
    with pytest.raises(TruncatedPayloadError):
        load_embeddings(path)


def test_load_embeddings_rejects_non_finite(tmp_path):
    blob = bytearray(_valid_blob())
    blob[12:16] = struct.pack("<f", float("nan"))
    path = tmp_path / "nan.emb"
    path.write_bytes(bytes(blob))
    with pytest.raises(NonFiniteValueError) as err:
        load_embeddings(path)
    assert err.value.offset == 12


def test_load_embeddings_rejects_id_count_mismatch(tmp_path):
    blob = bytearray(_valid_blob())
    id_block = 12 + 4 * 4
    blob[id_block : id_block + 4] = struct.pack("<I", 3)
    path = tmp_path / "count.emb"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError):
        load_embeddings(path)


def test_load_embeddings_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "trail.emb"
    path.write_bytes(_valid_blob() + b"\x00")
    with pytest.raises(DataFormatError):
        load_embeddings(path)


# ---------------------------------------------------------------------------
# label file format


def test_labels_round_trip(tmp_path):
    d = make_dataset(20, 3, seed=1)
    path = tmp_path / "labels.tsv"
    write_labels(d, path)
    back = load_labels(path, d.embeddings)
    assert back.embeddings is d.embeddings
    for got, want in ((back.grades, d.grades), (back.origin, d.origin)):
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, want)


def test_labels_round_trip_ids_that_are_line_breaks_elsewhere(tmp_path):
    # str.splitlines breaks lines at these; a label line ends only at LF
    ids = ("a\u2028b", "c\x85d", "e\x0cf", "\x0c")
    d = LabeledDataset(_id_matrix(*ids), np.array([2, 1, 0, 2]), np.array([0, 1, 1, 0]))
    path = tmp_path / "labels.tsv"
    write_labels(d, path)
    back = load_labels(path, d.embeddings)
    np.testing.assert_array_equal(back.grades, d.grades)
    np.testing.assert_array_equal(back.origin, d.origin)


@pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
def test_write_labels_rejects_an_id_that_would_split_its_line(tmp_path, char):
    d = make_dataset(BLOCK_ROWS + 3, 1, seed=2)
    bad = f"row{char}x"
    ids = d.ids[:-1] + (bad,)
    d = LabeledDataset(EmbeddingMatrix(d.embeddings.data, ids), d.grades, d.origin)
    path = tmp_path / "labels.tsv"
    with pytest.raises(DataFormatError) as err:
        write_labels(d, path)
    assert str(err.value) == f"id cannot be written to a label file: {bad!r}"
    assert not path.exists()
    write_labels(d, path, rows=range(BLOCK_ROWS + 2))  # the rows without it
    assert path.exists()


def _labels_line_by_line(path):
    """Reference parse of a well-formed label TSV: one split per line."""
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    rows = [line.split("\t") for line in lines if line]
    grades = [RelevanceGrade[g] for _, g, _ in rows]
    origin = [Origin[o] for _, _, o in rows]
    return tuple(rid for rid, _, _ in rows), grades, origin


def test_load_labels_matches_a_line_by_line_parse(tmp_path):
    d = make_dataset(10_000, 2, seed=4)
    path = tmp_path / "labels.tsv"
    write_labels(d, path)
    ids, grades, origin = _labels_line_by_line(path)
    assert ids == d.ids
    back = load_labels(path, d.embeddings)
    assert back.grades.tolist() == grades and back.origin.tolist() == origin
    # blank lines are skipped wherever they sit, and CRLF ends a line too
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([*lines[:500], "", *lines[500:], "", ""]), encoding="utf-8")
    np.testing.assert_array_equal(load_labels(path, d.embeddings).grades, back.grades)
    path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
    np.testing.assert_array_equal(load_labels(path, d.embeddings).origin, back.origin)


@pytest.mark.parametrize(
    "body,error,message",
    [
        # a four-cell line followed by a two-cell line still splits into triples
        ("a\tSR\tID\tb\nIR\tID\n", DataFormatError, "line 2: expected 3 columns, got 4"),
        ("a\tSR\tID\n\nb\tSR\n", DataFormatError, "line 4: expected 3 columns, got 2"),
        ("a\tSR\tID\nb\tIR\tID\na\tWR\tOOD\n", DataFormatError,
         "line 4: id 'a' out of order, expected 'c'"),
        ("a\tSR\tID\nb\tOK\tID\n", DataFormatError, "unknown grade token 'OK'"),
        ("a\tSR\tid\n", DataFormatError, "unknown origin token 'id'"),
    ],
)
def test_load_labels_names_the_bad_line(tmp_path, body, error, message):
    path = tmp_path / "bad.tsv"
    path.write_text("id\tgrade\torigin\n" + body, encoding="utf-8")
    with pytest.raises(error, match=re.escape(message)):
        load_labels(path, _id_matrix("a", "b", "c"))


def test_load_labels_requires_header(tmp_path):
    path = tmp_path / "noheader.tsv"
    path.write_text("a\tSR\tID\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 1: label file missing header"):
        load_labels(path, _id_matrix("a"))
    path.write_bytes(b"")
    with pytest.raises(DataFormatError, match="line 1: label file missing header"):
        load_labels(path, _id_matrix())


def test_load_labels_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    matrix = _id_matrix("a", "b")
    path.write_text("id\tgrade\torigin\na\tSR\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_labels(path, matrix)
    # a duplicate id is out of order: the embeddings' ids are unique
    path.write_text("id\tgrade\torigin\na\tSR\tID\na\tIR\tID\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 3: id 'a' out of order, expected 'b'"):
        load_labels(path, matrix)
    path.write_text("id\tgrade\torigin\na\tZZ\tID\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_labels(path, matrix)


def test_write_labels_bytes(tmp_path):
    matrix = EmbeddingMatrix(np.zeros((3, 2), dtype=np.float32), ("a", "b", "c"))
    d = LabeledDataset(matrix, np.array([2, 0, 1]), np.array([0, 1, 0]))
    path = tmp_path / "labels.tsv"
    write_labels(d, path)
    assert path.read_bytes() == (
        b"id\tgrade\torigin\na\tSR\tID\nb\tIR\tOOD\nc\tWR\tID\n"
    )


def test_load_labels_rejects_a_permuted_file(tmp_path):
    d = make_dataset(10, 3, seed=2)
    lab_path = tmp_path / "d.tsv"
    # the label rows reversed: the file must follow embedding row order
    lines = write_labels_lines(d)
    header, body = lines[0], lines[1:]
    lab_path.write_text("\n".join([header] + body[::-1]) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2: id 'row-0009' out of order"):
        load_labels(lab_path, d.embeddings)


def write_labels_lines(dataset: LabeledDataset) -> list[str]:
    rows = ["id\tgrade\torigin"]
    for i, rid in enumerate(dataset.ids):
        rows.append(
            f"{rid}\t{RelevanceGrade(int(dataset.grades[i])).name}"
            f"\t{Origin(int(dataset.origin[i])).name}"
        )
    return rows


def test_load_labeled_dataset_rejects_missing_and_extra_labels(tmp_path):
    d = make_dataset(4, 2, seed=3)
    emb_path = tmp_path / "d.emb"
    lab_path = tmp_path / "d.tsv"
    write_embeddings(d.embeddings, emb_path)
    lines = write_labels_lines(d)
    cases = [
        (lines[:-2], "line 4: 2 rows missing labels (first: 'row-0002')"),
        (lines[:2] + lines[3:], "line 3: id 'row-0002' out of order, expected 'row-0001'"),
        (lines + ["extra\tSR\tID"], "line 6: extra row 'extra', the embeddings have 4 rows"),
    ]
    for body, message in cases:
        lab_path.write_text("\n".join(body) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_labels(lab_path, load_embeddings(emb_path))


# ---------------------------------------------------------------------------
# merge


def test_merge_counts_add_up():
    a = make_dataset(199_663, 1, seed=4, prefix="id")
    b = make_dataset(26_632, 1, seed=5, prefix="ood")
    merged = merge_datasets(a, b)
    assert merged.rows == 226_295
    assert merged.ids[:3] == a.ids[:3]
    assert merged.ids[-1] == b.ids[-1]


def test_merge_preserves_origin_and_order():
    a = make_dataset(5, 2, seed=6, prefix="a")
    b = make_dataset(3, 2, seed=7, prefix="b")
    merged = merge_datasets(a, b)
    np.testing.assert_array_equal(merged.origin[:5], a.origin)
    np.testing.assert_array_equal(merged.origin[5:], b.origin)


def test_merge_with_empty_is_identity():
    a = make_dataset(4, 2, seed=8, prefix="a")
    empty = a.take([])
    assert merge_datasets(a, empty) is a
    assert merge_datasets(empty, a) is a


def test_merge_rejects_conflicts():
    a = make_dataset(4, 2, seed=9, prefix="a")
    with pytest.raises(DuplicateIdError, match="duplicate row id 'a-0000'"):
        merge_datasets(a, a.take([0]))
    b = make_dataset(4, 3, seed=10, prefix="b")
    with pytest.raises(DimensionMismatchError):
        merge_datasets(a, b)


def test_merge_is_associative_up_to_row_order():
    a = make_dataset(4, 2, seed=11, prefix="a")
    b = make_dataset(3, 2, seed=12, prefix="b")
    c = make_dataset(2, 2, seed=13, prefix="c")
    left = merge_datasets(merge_datasets(a, b), c)
    right = merge_datasets(a, merge_datasets(b, c))
    assert sorted(left.ids) == sorted(right.ids)
    by_id_left = {rid: i for i, rid in enumerate(left.ids)}
    for i, rid in enumerate(right.ids):
        j = by_id_left[rid]
        np.testing.assert_array_equal(
            left.embeddings.data[j], right.embeddings.data[i]
        )
        assert left.grades[j] == right.grades[i]


def test_merge_does_not_mutate_inputs():
    a = make_dataset(4, 2, seed=14, prefix="a")
    b = make_dataset(3, 2, seed=15, prefix="b")
    a_bytes = a.embeddings.data.tobytes()
    merge_datasets(a, b)
    assert a.embeddings.data.tobytes() == a_bytes
