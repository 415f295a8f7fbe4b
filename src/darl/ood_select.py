"""Distribution-aware selection of out-of-distribution pool samples.

Pool rows are scored in representation space with two complementary
distances: a global Mahalanobis distance to a Gaussian fitted on training
representations, and a local nearest-neighbor cosine distance to the same
reference set.  A row is selected when both distances exceed calibrated
thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteValueError,
    SingularCovarianceError,
)
from .util import BLOCK_ROWS, bounded, check_config, finite_rows, order_stat_quantile, row_blocks

DEFAULT_RIDGE_SCALE = 1e-4
MIN_CALIBRATION_SAMPLES = 50
KNN_CHUNK = 192  # query rows per kNN similarity block
# bytes of the kNN float32 index copy, float32 screen and float64 similarities
KNN_BUFFER_BYTES = 15_360_000
KNN_TILE = 1024  # most index rows per float64 tile behind the float32 screen
# most output entries of a float64 product that OpenBLAS 0.3.31's Haswell
# build sends, at >= 32 dims, to a small-matrix kernel that rounds differently
SMALL_PRODUCT_ENTRIES = 1_200


@dataclass(frozen=True)
class GaussianStats:
    """Fitted Gaussian over training representations.

    ``chol_lower`` is the lower Cholesky factor of the ridged covariance,
    the factorization through which the inverse is applied.
    """

    mean: np.ndarray
    chol_lower: np.ndarray

    @property
    def dims(self) -> int:
        return self.mean.shape[0]


def fit_gaussian(reps) -> GaussianStats:
    """Sample mean and the Cholesky factor of the sample covariance (divisor
    rows - 1) plus ``1e-4 * trace(covariance) / dims`` on the diagonal."""
    data = finite_rows(reps, None, "representation")
    n, dims = data.shape
    if n < 1:
        raise DataFormatError("cannot fit a Gaussian on zero rows")
    mean = data.mean(axis=0)
    centered = data - mean
    if n > 1:
        cov = centered.T @ centered / (n - 1)
    else:
        cov = np.zeros((dims, dims), dtype=np.float64)
    cov = 0.5 * (cov + cov.T)
    ridge = DEFAULT_RIDGE_SCALE * float(np.trace(cov)) / dims
    try:
        chol = np.linalg.cholesky(cov + ridge * np.eye(dims))
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"covariance factorization failed at ridge {ridge:g}; "
            "the rows have no spread"
        ) from exc
    return GaussianStats(mean=mean, chol_lower=chol)


def mahalanobis_batch(stats: GaussianStats, x: np.ndarray) -> np.ndarray:
    """Mahalanobis distance of each row to the fitted Gaussian."""
    arr = finite_rows(x, stats.dims, "query")
    n = arr.shape[0]
    if n == 1:  # BLAS's one-row kernel rounds differently
        arr = np.repeat(arr, 2, axis=0)
    # scipy.linalg takes about 0.3 s to import and only this call needs it,
    # so a process that scores no Mahalanobis distance never loads it
    from scipy.linalg import solve_triangular

    # d^2 = ||L^-1 (x - mean)||^2 via one triangular solve per block of rows,
    # O(dims^2)/row; each centred block is a fresh array, so the solve and
    # the square reuse it.  A row's result is the same in any block of >= 2 rows
    distances = np.empty(arr.shape[0], dtype=np.float64)
    for part in row_blocks(arr.shape[0], BLOCK_ROWS):
        solved = solve_triangular(
            stats.chol_lower, (arr[part] - stats.mean).T, lower=True,
            overwrite_b=True, check_finite=False,
        )
        np.sum(np.square(solved, out=solved), axis=0, out=distances[part])
    np.sqrt(distances, out=distances)
    # finite rows can still overflow while centring, solving or squaring
    if not np.all(np.isfinite(distances)):
        raise NonFiniteValueError("non-finite Mahalanobis distance (a query overflows)")
    return distances[:n]


@dataclass(frozen=True)
class NeighborIndex:
    """Unit-normalized reference rows for exact cosine nearest neighbor.

    ``unit`` repeats the last of its ``rows`` rows up to a multiple of 8
    rows, since OpenBLAS rounds a product's last ``rows % 8`` rows by the
    queries that share it; ``screen`` is its float32 copy.
    """

    unit: np.ndarray
    rows: int
    screen: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "screen", self.unit.astype(np.float32))

    @property
    def dims(self) -> int:
        return self.unit.shape[1]


def build_index(reps, ids: tuple[str, ...] | None = None) -> NeighborIndex:
    """L2-normalize reference rows; a zero-norm row is rejected, named by
    its entry in ``ids`` when given, else by its position."""
    data = finite_rows(reps, None, "representation")
    rows = data.shape[0]
    if rows < 1:
        raise DataFormatError("neighbor index needs at least one row")
    norms = np.linalg.norm(data, axis=1)
    bad = np.flatnonzero(norms < np.finfo(np.float64).tiny)
    if bad.size:
        row = int(bad[0])
        raise DataFormatError(
            f"zero-norm representation row {row if ids is None else ids[row]!r}"
        )
    unit = np.empty((-(-rows // 8) * 8, data.shape[1]), dtype=np.float64)
    np.divide(data, norms[:, None], out=unit[:rows])
    unit[rows:] = unit[rows - 1]
    unit.flags.writeable = False
    return NeighborIndex(unit=unit, rows=rows)


def _tile_width(rows: int, most: int) -> int:
    """Width of near-equal tiles of ``rows`` index rows, at most ``most`` (both
    multiples of 8).  Tiles start at multiples of it, a multiple of 8: only
    then does OpenBLAS give each column of ``queries @ tile.T`` the bits of
    one whole-index product (7,500-row tiles of 15,000 rows at 32 dims
    changed 16 distances in 20,000)."""
    return 8 * -(-rows // (8 * -(-rows // most)))


def _knn_plan(index: NeighborIndex, chunk: int) -> tuple[int, int]:
    """(float64 tile width, tiles per float32 screen product): the float32
    index copy, a screen buffer of whole tiles for ``chunk`` queries and a
    float64 buffer of one tile fit ``KNN_BUFFER_BYTES``.  Without room for
    that, the screen still takes one tile at a time."""
    rows, total = max(chunk, 2), len(index.unit)  # a lone query row is doubled
    width = _tile_width(total, min(KNN_TILE, max(8, KNN_BUFFER_BYTES // (64 * rows) * 8)))
    spare = KNN_BUFFER_BYTES - 8 * rows * width - index.screen.nbytes
    return width, max(1, min(-(-total // width), spare // (4 * chunk * width)))


def _screen(index: NeighborIndex, queries: np.ndarray, width: int, group: int, buffer):
    """(tiles, queries) mask: can the tile hold the query's nearest row?"""
    total = len(index.unit)
    tops = np.empty((len(queries), -(-total // width)), dtype=np.float32)
    short = queries.astype(np.float32)
    for start in range(0, total, group * width):
        stop = min(start + group * width, total)
        sims = buffer[: len(queries) * (stop - start)].reshape(len(queries), stop - start)
        np.matmul(short, index.screen[start:stop].T, out=sims)
        part = slice(start // width, -(-stop // width))
        np.maximum.reduceat(sims, range(0, stop - start, width), axis=1, out=tops[:, part])
    slack = 2 * (index.dims + 2) * float(np.finfo(np.float32).eps)
    return (tops >= tops.max(axis=1, keepdims=True) - slack).T


def _raise_best(best, arr, rows, tile: np.ndarray, buffer) -> None:
    """Raise ``best`` at ``rows`` to their float64 maxima over the ``tile``
    rows, in near-equal pieces of at most ``KNN_CHUNK`` rows, each repeated
    up to >= 2 rows and > ``SMALL_PRODUCT_ENTRIES`` entries (at most that +
    the tile's rows).  A row's norm does not depend on the rows gathered with it."""
    count = -(-rows.size // KNN_CHUNK)
    floor = max(2, SMALL_PRODUCT_ENTRIES // len(tile) + 1)
    for piece in range(count):
        pick = rows[piece * rows.size // count : (piece + 1) * rows.size // count]
        pick = np.resize(pick, max(floor, pick.size))
        queries = arr[pick]
        queries /= np.linalg.norm(queries, axis=1)[:, None]
        sims = buffer[: pick.size * len(tile)].reshape(pick.size, len(tile))
        np.matmul(queries, tile.T, out=sims)
        best[pick] = np.maximum(best[pick], sims.max(axis=1))


def knn_distance_batch(index: NeighborIndex, x: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbor cosine distance per query row, in [0, 2].

    Two passes share ``KNN_BUFFER_BYTES`` (``_knn_plan``).  The screen
    multiplies ``util.row_blocks`` of ``KNN_CHUNK`` queries, each normalized
    on its own, in float32 by ``index.screen`` and keeps one byte per query
    and tile: is the tile's float32 maximum within slack = 2 (d + 2) eps32
    of the query's?  The exact pass multiplies only those tiles in float64
    (``_raise_best``); the distance is 1 - the best similarity.

    Slack: for unit q, v, float32 rounding errs by u = 2**-24 relative per
    component (2**-150 absolute if subnormal), and a float32 dot of d terms
    in any order by gamma_d sum |q_i v_i| <= gamma_d = d u / (1 - d u)
    (Higham, Lemma 3.1; Cauchy-Schwarz).  So |dot32 - dot64| <= e = (d + 2)
    u (1 + O(d u)), the float64 dot's d 2**-53 included.  With k the float64
    argmax and m the float32 maximum, at j: dot32_k >= dot64_k - e >=
    dot64_j - e >= m - 2e, and 2e ~ (d + 2) eps32 is half the slack (the
    float32 subtraction costs an ulp), so k's tile is a candidate.  Every
    float64 entry equals that of one whole-index product, so a distance is
    bit-identical whatever the chunk, budget, tiles and index size, as long
    as OpenBLAS runs products of >= 2 rows and > ``SMALL_PRODUCT_ENTRIES``
    entries (``_raise_best``'s floor) through its general kernel.
    """
    arr = finite_rows(x, index.dims, "query")
    n = arr.shape[0]
    chunk = min(KNN_CHUNK, max(n, 1))
    width, group = _knn_plan(index, chunk)
    near = np.empty((-(-len(index.unit) // width), n), dtype=bool)
    screen = np.empty(chunk * group * width, dtype=np.float32)
    for part in row_blocks(n, KNN_CHUNK):
        norms = np.linalg.norm(arr[part], axis=1)
        bad = np.flatnonzero(norms < np.finfo(np.float64).tiny)
        if bad.size:
            raise DataFormatError(f"zero-norm query row {part.start + int(bad[0])}")
        near[:, part] = _screen(index, arr[part] / norms[:, None], width, group, screen)
    del screen  # the exact pass never reads it, so the two buffers never overlap
    best = np.full(n, -np.inf)
    exact = np.empty(max(max(chunk, 2) * width, SMALL_PRODUCT_ENTRIES + width))
    for start in range(0, len(index.unit), width):
        rows = np.flatnonzero(near[start // width])
        _raise_best(best, arr, rows, index.unit[start : start + width], exact)
        del rows  # one tile's row numbers at a time
    return np.clip(np.subtract(1.0, best, out=best), 0.0, 2.0, out=best)


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the two selection thresholds are calibrated.

    ``fpr`` pins each threshold at the (1 - alpha_fpr) quantile of held-out
    in-distribution distances.  ``f1`` grid-searches joint quantiles of
    labeled validation distances for the best detection F1.
    """

    mode: Literal["fpr", "f1"] = "fpr"
    alpha_fpr: float = bounded(0.05, "[0, 1)")
    grid_points: int = bounded(21, "[2, inf)")

    def __post_init__(self) -> None:
        check_config(self)


@dataclass(frozen=True)
class OodThresholds:
    """Calibrated selection thresholds plus provenance metadata."""

    d1: float
    d2: float
    policy: str
    alpha_fpr: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.d1) and self.d1 > 0):
            raise ConfigError("d1", "must be finite and > 0")
        if not (np.isfinite(self.d2) and 0.0 <= self.d2 <= 2.0):
            raise ConfigError("d2", "must lie in [0, 2]")


def save_thresholds(thresholds: OodThresholds, path) -> None:
    payload = {
        "d1": thresholds.d1,
        "d2": thresholds.d2,
        "policy": thresholds.policy,
        "alpha_fpr": thresholds.alpha_fpr,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_thresholds(path) -> OodThresholds:
    """Thresholds from a ``save_thresholds`` file: ``d1``, ``d2`` and a
    non-null ``alpha_fpr`` are JSON numbers, ``policy`` is "fpr" or "f1"."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"invalid thresholds JSON: {exc}") from exc
    try:
        values = {key: payload[key] for key in ("d1", "d2", "policy")}
        values["alpha_fpr"] = payload.get("alpha_fpr")
        numbers = ("d1", "d2") if values["alpha_fpr"] is None else ("d1", "d2", "alpha_fpr")
        for key in numbers:
            if type(values[key]) not in (int, float):  # a bool is no number here
                raise TypeError(f"{key} must be a number, got {values[key]!r}")
            values[key] = float(values[key])
        if values["policy"] not in ("fpr", "f1"):
            raise ValueError(f"policy must be 'fpr' or 'f1', got {values['policy']!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"malformed thresholds file: {exc}") from exc
    return OodThresholds(**values)


def _validate_scores(mahal, knn, label: str) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(mahal, dtype=np.float64).ravel()
    k = np.asarray(knn, dtype=np.float64).ravel()
    if m.shape != k.shape:
        raise DimensionMismatchError(
            f"{label} score arrays disagree: {m.shape} vs {k.shape}"
        )
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(k))):
        raise NonFiniteValueError(f"non-finite {label} score")
    return m, k


def calibrate_thresholds(
    id_mahal,
    id_knn,
    policy: ThresholdPolicy,
    ood_mahal=None,
    ood_knn=None,
) -> OodThresholds:
    """Pick (d1, d2) from held-out in-distribution distances.

    The fpr policy places each threshold at the (1 - alpha_fpr)
    order-statistic quantile of the in-distribution scores.  The f1 policy
    additionally needs out-of-distribution scores and exhaustively searches
    a grid of joint quantiles of the pooled scores, maximizing detection F1
    of the rule (mahal > d1 and knn > d2); ties prefer the smaller flagged
    fraction, then the larger thresholds.
    """
    id_m, id_k = _validate_scores(id_mahal, id_knn, "in-distribution")
    if id_m.size < MIN_CALIBRATION_SAMPLES:
        raise DataFormatError(
            f"threshold calibration needs >= {MIN_CALIBRATION_SAMPLES} "
            f"validation samples, got {id_m.size}"
        )
    if policy.mode == "fpr":
        level = 1.0 - policy.alpha_fpr
        return OodThresholds(
            d1=order_stat_quantile(id_m, level),
            d2=min(2.0, order_stat_quantile(id_k, level)),
            policy="fpr",
            alpha_fpr=policy.alpha_fpr,
        )
    if ood_mahal is None or ood_knn is None or np.size(ood_mahal) == 0:
        raise ConfigError(
            "policy", "f1 calibration needs labeled out-of-distribution scores"
        )
    ood_m, ood_k = _validate_scores(ood_mahal, ood_knn, "out-of-distribution")
    pool_m = np.concatenate([id_m, ood_m])
    pool_k = np.concatenate([id_k, ood_k])
    g = policy.grid_points
    levels = [(i + 1) / g for i in range(g)]
    cand_m = order_stat_quantile(pool_m, levels)
    cand_k = order_stat_quantile(pool_k, levels)
    # (candidate, row) indicators in int64, whose products numpy runs
    # itself, off BLAS and its threads; [i, j] counts rows over (d1_i, d2_j)
    over_m = (pool_m > cand_m[:, None]).astype(np.int64)
    over_k = (pool_k > cand_k[:, None]).astype(np.int64)
    flagged = over_m @ over_k.T
    tp = over_m[:, id_m.size :] @ over_k[:, id_m.size :].T
    f1 = 2.0 * tp / (flagged + ood_m.size)
    # the maximum of the key (f1, -flagged, d1, d2)
    best = np.lexsort((np.tile(cand_k, g), np.repeat(cand_m, g), -flagged.ravel(), f1.ravel()))[-1]
    d1, d2 = cand_m[best // g], cand_k[best % g]
    return OodThresholds(
        d1=float(d1), d2=float(min(2.0, d2)), policy="f1", alpha_fpr=None
    )


@dataclass(frozen=True)
class SelectionReport:
    """Per-row selection scores and flags, in pool input order."""

    ids: tuple[str, ...]
    mahal: np.ndarray
    knn: np.ndarray
    flag_mahal: np.ndarray
    flag_knn: np.ndarray
    selected: np.ndarray

    @property
    def selected_indices(self) -> np.ndarray:
        return np.flatnonzero(self.selected)


def select_ood(
    mahal, knn, thresholds: OodThresholds, ids: tuple[str, ...]
) -> SelectionReport:
    """Flag the pool rows (named by ``ids``) whose Mahalanobis and kNN
    distances both strictly exceed the thresholds."""
    m, k = _validate_scores(mahal, knn, "pool")
    flag_m = m > thresholds.d1
    flag_k = k > thresholds.d2
    return SelectionReport(
        ids=tuple(ids),
        mahal=m,
        knn=k,
        flag_mahal=flag_m,
        flag_knn=flag_k,
        selected=flag_m & flag_k,
    )


def dasa_order(mahal: np.ndarray, knn: np.ndarray) -> np.ndarray:
    """Order rows most-OOD first by the weaker of their two distance ranks.

    Each row gets its ascending rank under both distances; the combined
    score is the smaller rank (the weaker axis).  Rows are returned by
    descending combined score, index-ascending on ties, so a prefix fills
    any budget with rows that are far out on both axes.
    """
    m, k = _validate_scores(mahal, knn, "pool")
    rank_m = np.empty(m.size, dtype=np.int64)
    rank_m[np.argsort(m, kind="stable")] = np.arange(m.size)
    rank_k = np.empty(k.size, dtype=np.int64)
    rank_k[np.argsort(k, kind="stable")] = np.arange(k.size)
    combined = np.minimum(rank_m, rank_k)
    return np.lexsort((np.arange(m.size), -combined))


def write_score_report(report: SelectionReport, path) -> None:
    """TSV report, one row per pool row, distances to 6 significant digits,
    formatted and written ``BLOCK_ROWS`` rows at a time."""
    columns = (report.mahal, report.knn, report.flag_mahal, report.flag_knn, report.selected)
    with open(path, "w", encoding="utf-8") as f:
        f.write("id\td_mahal\td_knn\tflag_mahal\tflag_knn\tselected\n")
        for start in range(0, len(report.ids), BLOCK_ROWS):
            part = slice(start, start + BLOCK_ROWS)
            rows = zip(report.ids[part], *(column[part].tolist() for column in columns))
            f.write("".join(["%s\t%.6g\t%.6g\t%d\t%d\t%d\n" % row for row in rows]))
