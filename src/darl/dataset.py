"""Data model, file I/O, and synthetic ID/OOD corpus generation.

The corpus stands in for a production log dump: labeled in-distribution
splits, a large unlabeled pool mixing ID rows with rows from a shifted
distribution, and a held-back truth table for oracle labeling and
evaluation.  Grades follow a 3-point scale (SR/WR/IR) planted by linear
scoring rules so that a model trained on ID data alone degrades on the
shifted rows.
"""

from __future__ import annotations

import enum
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadMagicError,
    DataFormatError,
    DimensionMismatchError,
    DuplicateIdError,
    NonFiniteValueError,
    TruncatedPayloadError,
)
from .util import BLOCK_ROWS, bounded, check_config, order_stat_quantile, sub_rng

EMBEDDING_MAGIC = b"EMB1"
LABEL_HEADER = "id\tgrade\torigin"

# Target grade mix for planted rules (SR / WR / IR), mirroring the heavy
# irrelevance skew of production relevance data.
GRADE_MIX = {"SR": 0.25, "WR": 0.10, "IR": 0.65}
_CALIBRATION_DRAWS = 20_000


class RelevanceGrade(enum.IntEnum):
    """3-point relevance scale; token form is the member name."""

    IR = 0
    WR = 1
    SR = 2


class Origin(enum.IntEnum):
    ID = 0
    OOD = 1


# token tables for the label TSV; codes index the token lists
_GRADE_TOKENS = [grade.name for grade in sorted(RelevanceGrade)]
_ORIGIN_TOKENS = [origin.name for origin in sorted(Origin)]
# "grade<TAB>origin", the end of a label line -> grade + 3 * origin
_LABEL_CODES = {
    f"{g}\t{o}": grade + 3 * origin
    for grade, g in enumerate(_GRADE_TOKENS)
    for origin, o in enumerate(_ORIGIN_TOKENS)
}


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _first_non_finite(data: np.ndarray) -> int | None:
    """Flat index of the first non-finite value of 2-D ``data`` (checked
    ``BLOCK_ROWS`` rows at a time), or ``None``."""
    for start in range(0, data.shape[0], BLOCK_ROWS):
        finite = np.isfinite(data[start : start + BLOCK_ROWS])
        if not finite.all():
            return start * data.shape[1] + int(np.argmin(finite))
    return None


def _first_duplicate(ids: tuple[str, ...]) -> str | None:
    """The first id equal to an earlier one, or ``None``.  Only ids whose
    hashes collide go in a set: a set of every id would be pool-sized."""
    hashes = np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))
    hashes.sort()
    clashes = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist())
    seen = set()
    for rid in ids if clashes else ():
        if hash(rid) in clashes:
            if rid in seen:
                return rid
            seen.add(rid)
    return None


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense row-major feature matrix with one opaque string id per row."""

    data: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 2:
            raise DimensionMismatchError("embedding data must be 2-dimensional")
        if _first_non_finite(data) is not None:
            raise NonFiniteValueError("embedding data contains non-finite values")
        ids = tuple(self.ids)
        if len(ids) != data.shape[0]:
            raise DimensionMismatchError(
                f"{len(ids)} ids for {data.shape[0]} rows"
            )
        duplicate = _first_duplicate(ids)
        if duplicate is not None:
            raise DuplicateIdError(f"duplicate row id {duplicate!r} in embedding matrix")
        object.__setattr__(self, "data", _freeze(data))
        object.__setattr__(self, "ids", ids)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> int:
        return self.data.shape[1]

    def take(self, indices: Sequence[int]) -> "EmbeddingMatrix":
        idx = np.asarray(indices, dtype=np.intp)
        ids = tuple(map(self.ids.__getitem__, idx.tolist()))
        return EmbeddingMatrix(self.data[idx], ids)


@dataclass(frozen=True)
class LabeledDataset:
    """Embeddings joined with relevance grades and an ID/OOD origin tag."""

    embeddings: EmbeddingMatrix
    grades: np.ndarray
    origin: np.ndarray

    def __post_init__(self):
        grades = np.asarray(self.grades, dtype=np.int8)
        origin = np.asarray(self.origin, dtype=np.int8)
        n = self.embeddings.rows
        if grades.shape != (n,):
            raise DimensionMismatchError(f"{grades.shape[0]} grades for {n} rows")
        if origin.shape != (n,):
            raise DimensionMismatchError(f"{origin.shape[0]} origin tags for {n} rows")
        if grades.size and (grades.min() < 0 or grades.max() > 2):
            raise DataFormatError("grade codes outside the SR/WR/IR scale")
        if origin.size and (origin.min() < 0 or origin.max() > 1):
            raise DataFormatError("origin codes outside {ID, OOD}")
        object.__setattr__(self, "grades", _freeze(grades))
        object.__setattr__(self, "origin", _freeze(origin))

    @property
    def rows(self) -> int:
        return self.embeddings.rows

    @property
    def ids(self) -> tuple[str, ...]:
        return self.embeddings.ids

    def take(self, indices: Sequence[int]) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset(
            self.embeddings.take(idx), self.grades[idx], self.origin[idx]
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Recipe for the synthetic corpus; every field has a workable default
    and is checked on construction."""

    dims: int = bounded(32, "[1, inf)")
    id_cluster_count: int = bounded(8, "[1, inf)")
    ood_cluster_count: int = bounded(4, "[1, inf)")
    ood_shift_norm: float = bounded(6.0, "[0, inf)")  # 0: no shift, to sanity-check selection
    ood_concept_shift: bool = True
    label_noise_rate: float = bounded(0.05, "[0, 0.5)")
    train_size: int = bounded(10_000, "[1, inf)")
    val_size: int = bounded(2_000, "[1, inf)")
    test_size: int = bounded(4_000, "[1, inf)")
    pool_size: int = bounded(50_000, "[1, inf)")
    pool_ood_fraction: float = bounded(0.3, "[0, 1)")
    pretrain_size: int = bounded(1_000, "[1, inf)")
    pretrain_extra_clusters: int = bounded(8, "[1, inf)")
    seed: int = 7

    def __post_init__(self) -> None:
        check_config(self)


@dataclass(frozen=True)
class SyntheticCorpus:
    train_id: LabeledDataset
    val_id: LabeledDataset
    test_id: LabeledDataset
    pool_truth: LabeledDataset


@dataclass(frozen=True)
class PlantedRule:
    """Linear grading rule: score s = w.x - mu; SR above +tau, IR below -tau."""

    w: np.ndarray
    mu: float
    tau: float

    def grade_of(self, points: np.ndarray) -> np.ndarray:
        s = points @ self.w - self.mu
        grades = np.full(s.shape, int(RelevanceGrade.WR), dtype=np.int8)
        grades[s > self.tau] = int(RelevanceGrade.SR)
        grades[s < -self.tau] = int(RelevanceGrade.IR)
        return grades


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _mixture_blocks(centers: np.ndarray, n: int, rng: np.random.Generator):
    """``n`` rows of a random center plus standard normal noise, yielded as
    (first row, rows) ``BLOCK_ROWS`` rows at a time: the same rows as one
    whole draw, since the normals come from ``rng`` in order."""
    picks = rng.integers(0, centers.shape[0], size=n)
    for start in range(0, n, BLOCK_ROWS):
        block = picks[start : start + BLOCK_ROWS]
        yield start, rng.standard_normal((block.size, centers.shape[1])) + centers[block]


def _sample_mixture(centers: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return np.concatenate([rows for _, rows in _mixture_blocks(centers, n, rng)])


def _calibrate_rule(
    w: np.ndarray, centers: np.ndarray, rng: np.random.Generator
) -> PlantedRule:
    """Pick (mu, tau) so the planted grade mix lands near GRADE_MIX."""
    scores = _sample_mixture(centers, _CALIBRATION_DRAWS, rng) @ w
    upper = order_stat_quantile(scores, 1.0 - GRADE_MIX["SR"])
    lower = order_stat_quantile(scores, GRADE_MIX["IR"])
    return PlantedRule(w=_freeze(w), mu=(upper + lower) / 2.0, tau=(upper - lower) / 2.0)


def _resample_noise(
    grades: np.ndarray, rate: float, rng: np.random.Generator
) -> np.ndarray:
    if rate <= 0.0:
        return grades
    noisy = grades.copy()
    hit = rng.random(grades.shape[0]) < rate
    noisy[hit] = rng.integers(0, 3, size=int(hit.sum()), dtype=np.int8)
    return noisy


@dataclass(frozen=True)
class _Blueprint:
    """Deterministic centers and rules shared by every split of one corpus.

    Built once per config and shared by every caller, so its arrays are
    read-only.
    """

    config: SyntheticConfig
    id_centers: np.ndarray
    ood_centers: np.ndarray
    extra_centers: np.ndarray
    id_rule: PlantedRule
    ood_rule: PlantedRule
    extra_rules: tuple[PlantedRule, ...]


@lru_cache(maxsize=8)
def _blueprint(cfg: SyntheticConfig) -> _Blueprint:
    """The blueprint of a config (cached: ``generate_synthetic`` and
    ``generate_pretrain_superset`` share it)."""
    b = cfg.dims
    proj = sub_rng(cfg.seed, "projections")
    w1 = _unit(proj.standard_normal(b))
    w2 = _unit(proj.standard_normal(b))

    id_centers = sub_rng(cfg.seed, "id-centers").standard_normal(
        (cfg.id_cluster_count, b)
    )
    if cfg.ood_shift_norm > 0.0:
        dirs = sub_rng(cfg.seed, "ood-centers").standard_normal(
            (cfg.ood_cluster_count, b)
        )
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        ood_centers = cfg.ood_shift_norm * dirs
    else:
        # degenerate no-shift mode: the "OOD" rows come from the ID mixture
        ood_centers = id_centers

    id_rule = _calibrate_rule(w1, id_centers, sub_rng(cfg.seed, "calibrate", "id"))
    if cfg.ood_concept_shift:
        ood_rule = _calibrate_rule(
            0.6 * w1 + 0.8 * w2, ood_centers, sub_rng(cfg.seed, "calibrate", "ood")
        )
    else:
        ood_rule = id_rule
    extra_centers = sub_rng(cfg.seed, "extra-centers").standard_normal(
        (cfg.pretrain_extra_clusters, b)
    )
    # each extra cluster grades by its own direction, calibrated on its own
    # draws, so pretraining sees several unrelated labeling concepts
    extra_rng = sub_rng(cfg.seed, "calibrate", "extra")
    extra_rules = tuple(
        _calibrate_rule(
            _unit(extra_rng.standard_normal(b)), extra_centers[j : j + 1], extra_rng
        )
        for j in range(cfg.pretrain_extra_clusters)
    )
    return _Blueprint(
        config=cfg,
        id_centers=_freeze(id_centers),
        ood_centers=_freeze(ood_centers),
        extra_centers=_freeze(extra_centers),
        id_rule=id_rule,
        ood_rule=ood_rule,
        extra_rules=extra_rules,
    )


def _labeled_split(
    bp: _Blueprint, name: str, size: int, prefix: str
) -> LabeledDataset:
    cfg = bp.config
    points = _sample_mixture(bp.id_centers, size, sub_rng(cfg.seed, "rows", name))
    grades = bp.id_rule.grade_of(points)
    grades = _resample_noise(
        grades, cfg.label_noise_rate, sub_rng(cfg.seed, "noise", name)
    )
    ids = tuple(f"{prefix}-{i:06d}" for i in range(size))
    matrix = EmbeddingMatrix(points.astype(np.float32), ids)
    return LabeledDataset(matrix, grades, np.zeros(size, dtype=np.int8))


def generate_synthetic(config: SyntheticConfig) -> SyntheticCorpus:
    """Generate the full corpus: labeled ID splits plus the mixed pool.

    Deterministic given ``config.seed``.  ``pool_truth`` holds each pool
    row's true grade and origin; selection reads only its embeddings, and
    the labels serve only oracle labeling and evaluation.
    """
    bp = _blueprint(config)

    train_id = _labeled_split(bp, "train_id", config.train_size, "train")
    val_id = _labeled_split(bp, "val_id", config.val_size, "val")
    test_id = _labeled_split(bp, "test_id", config.test_size, "test")

    # each mixture is drawn, graded and cast a block at a time, and every
    # block is scattered straight to its shuffled rows: draw j lands at row
    # slot[j], so row i holds draw perm[i]
    n = config.pool_size
    n_id = n - int(round(n * config.pool_ood_fraction))
    perm = sub_rng(config.seed, "pool-shuffle").permutation(n)
    slot = np.empty(n, dtype=np.intp)
    slot[perm] = np.arange(n)
    data = np.empty((n, config.dims), dtype=np.float32)
    grades = np.empty(n, dtype=np.int8)
    for first, count, centers, rule, tag in (
        (0, n_id, bp.id_centers, bp.id_rule, "pool_id"),
        (n_id, n - n_id, bp.ood_centers, bp.ood_rule, "pool_ood"),
    ):
        for start, rows in _mixture_blocks(centers, count, sub_rng(config.seed, "rows", tag)):
            dest = slot[first + start : first + start + len(rows)]
            data[dest] = rows
            grades[dest] = rule.grade_of(rows)
    grades = _resample_noise(grades, config.label_noise_rate, sub_rng(config.seed, "noise", "pool"))
    origin = (perm >= n_id).astype(np.int8)  # Origin.OOD (1) from draw n_id on
    pool = EmbeddingMatrix(data, tuple(f"pool-{i:06d}" for i in range(n)))

    return SyntheticCorpus(
        train_id=train_id,
        val_id=val_id,
        test_id=test_id,
        pool_truth=LabeledDataset(pool, grades, origin),
    )


def generate_pretrain_superset(config: SyntheticConfig) -> LabeledDataset:
    """Broad corpus for backbone pretraining: ID clusters plus extra clusters.

    Rows from each extra cluster are graded by that cluster's own planted
    rule, so the pretrained representation covers more of the input space and
    more labeling concepts than the target task alone.  Kept deliberately
    small so pretraining shapes the representation without erasing the input
    geometry that the distance-based selector depends on.
    """
    bp = _blueprint(config)
    rng = sub_rng(config.seed, "rows", "pretrain")
    n = config.pretrain_size
    total_clusters = config.id_cluster_count + config.pretrain_extra_clusters
    centers = np.concatenate([bp.id_centers, bp.extra_centers], axis=0)
    picks = rng.integers(0, total_clusters, size=n)
    points = centers[picks] + rng.standard_normal((n, config.dims))
    grades = bp.id_rule.grade_of(points)
    for j, rule in enumerate(bp.extra_rules):
        mask = picks == config.id_cluster_count + j
        if mask.any():
            grades[mask] = rule.grade_of(points[mask])
    grades = _resample_noise(
        grades, config.label_noise_rate, sub_rng(config.seed, "noise", "pretrain")
    )
    ids = tuple(f"pre-{i:06d}" for i in range(n))
    matrix = EmbeddingMatrix(points.astype(np.float32), ids)
    return LabeledDataset(matrix, grades, np.zeros(n, dtype=np.int8))


# ---------------------------------------------------------------------------
# file formats


def _index_blocks(n: int, rows: np.ndarray | None) -> list[np.ndarray]:
    """Indices of ``rows`` (default: all ``n`` rows) cut into ``BLOCK_ROWS`` blocks."""
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    return [rows[start : start + BLOCK_ROWS] for start in range(0, len(rows), BLOCK_ROWS)]


def write_embeddings(matrix: EmbeddingMatrix, path: str | Path, rows=None) -> None:
    """Write the binary embedding format (magic, header, f32 payload, ids)
    of the rows at ``rows`` in that order (default: every row).

    Rows are gathered and ids encoded ``BLOCK_ROWS`` at a time; the encoded
    ids (a few bytes per row) are checked before the file is opened.
    """
    blocks = _index_blocks(matrix.rows, rows)
    # an object array of the ids: a block's index array gathers them in one
    # call, faster than a lookup per id
    ids = np.asarray(matrix.ids, dtype=object)
    id_blocks = []
    for block in blocks:
        picked = ids[block].tolist()
        raws = [rid.encode("utf-8") for rid in picked]
        lengths = np.fromiter(map(len, raws), dtype=np.int64, count=len(raws))
        too_long = np.flatnonzero(lengths > 0xFFFF)
        if too_long.size:
            raise DataFormatError(f"id too long to serialize: {picked[int(too_long[0])][:32]!r}...")
        # every id is its u16 byte length (little-endian) followed by its bytes
        id_blocks.append(np.insert(
            np.frombuffer(b"".join(raws), dtype=np.uint8),
            np.repeat(np.cumsum(lengths) - lengths, 2),
            lengths.astype("<u2").view(np.uint8),
        ))
    count = sum(map(len, blocks))
    with open(path, "wb") as f:
        f.write(EMBEDDING_MAGIC + struct.pack("<II", count, matrix.dims))
        for block in blocks:
            f.write(np.ascontiguousarray(matrix.data[block], dtype="<f4").data)
        f.write(struct.pack("<I", count))
        for id_block in id_blocks:
            f.write(id_block.data)


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Parse the binary embedding format, rejecting malformed payloads.

    The payload is read straight into the returned array and checked for
    finiteness ``BLOCK_ROWS`` rows at a time; every error names its byte
    offset in the file.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 4 or head[:4] != EMBEDDING_MAGIC:
            raise BadMagicError("bad magic", offset=0)
        if len(head) < 12:
            raise TruncatedPayloadError("truncated header", offset=len(head))
        rows, dims = struct.unpack_from("<II", head, 4)
        need = rows * dims * 4
        if size < 12 + need:
            raise TruncatedPayloadError(
                f"embedding payload needs {need} bytes, file ends early", offset=size
            )
        data = np.empty((rows, dims), dtype="<f4")
        got = f.readinto(data)
        if got != need:  # the file shrank after it was measured
            raise TruncatedPayloadError(
                f"embedding payload needs {need} bytes, file ends early", offset=12 + got
            )
        tail = f.read()
    bad = _first_non_finite(data)
    if bad is not None:
        raise NonFiniteValueError(
            f"non-finite value at row {bad // dims} col {bad % dims}",
            offset=12 + bad * 4,
        )
    # the id block: ``base`` is its file offset, ``offset`` counts within it
    base, end = 12 + need, 12 + need + len(tail)
    if len(tail) < 4:
        raise TruncatedPayloadError("truncated id block header", offset=end)
    (id_count,) = struct.unpack_from("<I", tail)
    if id_count != rows:
        raise DataFormatError(f"id count {id_count} does not match {rows} rows", offset=base)
    ids = []
    offset = 4
    for _ in range(rows):
        if len(tail) < offset + 2:
            raise TruncatedPayloadError("truncated id length", offset=end)
        start = offset + 2
        offset = start + (tail[offset] | tail[offset + 1] << 8)
        if len(tail) < offset:
            raise TruncatedPayloadError("truncated id string", offset=end)
        try:
            ids.append(tail[start:offset].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"id is not valid UTF-8: {exc}", offset=base + start)
    if offset != len(tail):
        raise DataFormatError(
            f"{len(tail) - offset} trailing bytes after id block", offset=base + offset
        )
    return EmbeddingMatrix(data, tuple(ids))


def _splits_a_label_line(text: str) -> bool:
    """Whether ``text`` holds a tab, CR or LF, which end a label cell or line."""
    return "\t" in text or "\n" in text or "\r" in text


def write_labels(dataset: LabeledDataset, path: str | Path, rows=None) -> None:
    """Write the label TSV (id, grade token, origin token) of the rows at
    ``rows`` in that order (default: every row), ``BLOCK_ROWS`` lines at a time.

    An id holding a tab, CR or LF is rejected before the file is opened.
    """
    ids = np.asarray(dataset.ids, dtype=object)
    blocks = _index_blocks(dataset.rows, rows)
    for block in blocks:
        picked = ids[block].tolist()
        if _splits_a_label_line("".join(picked)):
            bad = next(filter(_splits_a_label_line, picked))
            raise DataFormatError(f"id cannot be written to a label file: {bad[:32]!r}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(LABEL_HEADER + "\n")
        for block in blocks:
            grades = map(_GRADE_TOKENS.__getitem__, dataset.grades[block].tolist())
            origin = map(_ORIGIN_TOKENS.__getitem__, dataset.origin[block].tolist())
            lines = zip(ids[block].tolist(), grades, origin)
            f.write("\n".join(map("\t".join, lines)) + "\n")


def load_labels(path: str | Path, matrix: EmbeddingMatrix) -> LabeledDataset:
    """Label ``matrix`` from its label TSV, read one line at a time.

    The file holds one line per row of ``matrix``, in row order (blank lines
    are skipped): each line's id must be the next row's id.  Every fault
    names its line.
    """
    ids, n = matrix.ids, matrix.rows
    codes = np.empty(n, dtype=np.int8)
    row = 0
    with open(path, "rb") as f:
        if f.readline().rstrip(b"\r\n") != LABEL_HEADER.encode():
            raise DataFormatError(f"line 1: label file missing header {LABEL_HEADER!r}")
        lineno = 1
        for lineno, raw in enumerate(f, start=2):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"line {lineno}: label file is not UTF-8: {exc}") from None
            if not line:
                continue
            rid, _, pair = line.partition("\t")
            code = _LABEL_CODES.get(pair)
            if code is None:
                cells = line.split("\t")
                if len(cells) != 3:
                    fault = f"expected 3 columns, got {len(cells)}"
                elif cells[1] in _GRADE_TOKENS:
                    fault = f"unknown origin token {cells[2]!r}"
                else:
                    fault = f"unknown grade token {cells[1]!r}"
            elif row == n:
                fault = f"extra row {rid!r}, the embeddings have {n} rows"
            elif rid != ids[row]:
                fault = f"id {rid!r} out of order, expected {ids[row]!r}"
            else:
                codes[row] = code
                row += 1
                continue
            raise DataFormatError(f"line {lineno}: {fault}")
    if row != n:
        raise DataFormatError(
            f"line {lineno + 1}: {n - row} rows missing labels (first: {ids[row]!r})"
        )
    origin, grades = np.divmod(codes, 3)
    return LabeledDataset(matrix, grades, origin)


# ---------------------------------------------------------------------------
# dataset algebra


def merge_datasets(d_id: LabeledDataset, d_ood: LabeledDataset) -> LabeledDataset:
    """Union of two labeled datasets; origin tags and row order are kept."""
    a, b = d_id.embeddings, d_ood.embeddings
    if b.rows == 0:
        return d_id
    if a.rows == 0:
        return d_ood
    if a.dims != b.dims:
        raise DimensionMismatchError(f"dims differ: {a.dims} vs {b.dims}")
    merged = EmbeddingMatrix(
        np.concatenate([a.data, b.data], axis=0), a.ids + b.ids
    )
    return LabeledDataset(
        merged,
        np.concatenate([d_id.grades, d_ood.grades]),
        np.concatenate([d_id.origin, d_ood.origin]),
    )
