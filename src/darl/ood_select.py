"""Distribution-aware selection of out-of-distribution pool samples.

Pool rows are scored in representation space with two complementary
distances: a global Mahalanobis distance to a Gaussian fitted on training
representations, and a local nearest-neighbor cosine distance to the same
reference set.  A row is selected when both distances exceed calibrated
thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteValueError,
    SingularCovarianceError,
)
from .util import BLOCK_ROWS, finite_rows, order_stat_quantile, row_blocks

DEFAULT_RIDGE_SCALE = 1e-4
MIN_CALIBRATION_SAMPLES = 50
KNN_CHUNK = 192  # query rows per kNN similarity block
# bytes of the kNN similarity buffer: KNN_CHUNK queries against 10,000 index rows
KNN_BUFFER_BYTES = 15_360_000


@dataclass(frozen=True)
class GaussianStats:
    """Fitted Gaussian over training representations.

    ``chol_lower`` is the lower Cholesky factor of covariance + ridge * I,
    the factorization through which the inverse is applied.
    """

    mean: np.ndarray
    covariance: np.ndarray
    ridge: float
    chol_lower: np.ndarray

    @property
    def dims(self) -> int:
        return self.mean.shape[0]


def fit_gaussian(reps, ridge: float | None = None) -> GaussianStats:
    """Sample mean and covariance (divisor rows - 1) with a ridged factor.

    ``ridge`` defaults to ``1e-4 * trace(covariance) / dims``; pass 0.0 to
    demand an unregularized factorization.
    """
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
    if ridge is None:
        ridge = DEFAULT_RIDGE_SCALE * float(np.trace(cov)) / dims
    ridge = float(ridge)
    if ridge < 0:
        raise ConfigError("ridge", "must be >= 0")
    try:
        chol = np.linalg.cholesky(cov + ridge * np.eye(dims))
    except np.linalg.LinAlgError as exc:
        raise SingularCovarianceError(
            f"covariance factorization failed at ridge {ridge:g}; "
            "increase the ridge"
        ) from exc
    return GaussianStats(
        mean=mean, covariance=cov, ridge=ridge, chol_lower=chol
    )


def mahalanobis_batch(stats: GaussianStats, x: np.ndarray) -> np.ndarray:
    """Mahalanobis distance of each row to the fitted Gaussian."""
    arr = finite_rows(x, stats.dims, "query")
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
    return distances


@dataclass(frozen=True)
class NeighborIndex:
    """Unit-normalized reference rows for exact cosine nearest neighbor."""

    vectors: np.ndarray

    @property
    def rows(self) -> int:
        return self.vectors.shape[0]

    @property
    def dims(self) -> int:
        return self.vectors.shape[1]


def build_index(reps, ids: tuple[str, ...] | None = None) -> NeighborIndex:
    """L2-normalize reference rows; a zero-norm row is rejected, named by
    its entry in ``ids`` when given, else by its position."""
    data = finite_rows(reps, None, "representation")
    if data.shape[0] < 1:
        raise DataFormatError("neighbor index needs at least one row")
    norms = np.linalg.norm(data, axis=1)
    bad = np.flatnonzero(norms < np.finfo(np.float64).tiny)
    if bad.size:
        row = int(bad[0])
        raise DataFormatError(
            f"zero-norm representation row {row if ids is None else ids[row]!r}"
        )
    vectors = data / norms[:, None]
    vectors.flags.writeable = False
    return NeighborIndex(vectors=vectors)


def knn_distance_batch(index: NeighborIndex, x: np.ndarray) -> np.ndarray:
    """Exact nearest-neighbor cosine distance per query row, in [0, 2].

    Brute force in ``util.row_blocks`` of ``KNN_CHUNK`` queries, each
    normalized on its own, against near-equal index tiles whose similarities
    fit one reused ``KNN_BUFFER_BYTES`` buffer (tiles of at least 2 rows keep
    BLAS off its matrix-vector path).  Each row's distance is bit-identical
    whatever the block and tile sizes.  Tiling the index, not cutting the
    query blocks, keeps each packed index tile shared by ``KNN_CHUNK``
    queries: 96-query blocks made the kNN step 10% slower at 20,000 rows.
    """
    arr = finite_rows(x, index.dims, "query")
    n = arr.shape[0]
    tiles = -(-index.rows // max(2, KNN_BUFFER_BYTES // (8 * KNN_CHUNK)))
    width = -(-index.rows // tiles)
    out = np.empty(n, dtype=np.float64)
    sims = np.empty((min(KNN_CHUNK, n), width), dtype=np.float64)
    for part in row_blocks(n, KNN_CHUNK):
        norms = np.linalg.norm(arr[part], axis=1)
        bad = np.flatnonzero(norms < np.finfo(np.float64).tiny)
        if bad.size:
            raise DataFormatError(f"zero-norm query row {part.start + int(bad[0])}")
        queries = arr[part] / norms[:, None]
        best = np.full(len(queries), -np.inf)
        for tile in row_blocks(index.rows, width):
            np.matmul(queries, index.vectors[tile].T, out=sims)
            np.maximum(best, sims.max(axis=1), out=best)
        out[part] = 1.0 - best
    return np.clip(out, 0.0, 2.0, out=out)


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the two selection thresholds are calibrated.

    ``fpr`` pins each threshold at the (1 - alpha_fpr) quantile of held-out
    in-distribution distances.  ``f1`` grid-searches joint quantiles of
    labeled validation distances for the best detection F1.
    """

    mode: str = "fpr"
    alpha_fpr: float = 0.05
    grid_points: int = 21

    def __post_init__(self) -> None:
        if self.mode not in ("fpr", "f1"):
            raise ConfigError("mode", f"must be 'fpr' or 'f1', got {self.mode!r}")
        if not (0.0 <= self.alpha_fpr < 1.0):
            raise ConfigError("alpha_fpr", "must lie in [0, 1)")
        if self.grid_points < 2:
            raise ConfigError("grid_points", "needs at least 2 grid points")


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
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"invalid thresholds JSON: {exc}") from exc
    try:
        return OodThresholds(
            d1=float(payload["d1"]),
            d2=float(payload["d2"]),
            policy=str(payload["policy"]),
            alpha_fpr=None
            if payload.get("alpha_fpr") is None
            else float(payload["alpha_fpr"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise DataFormatError(f"malformed thresholds file: {exc}") from exc


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
    policy: ThresholdPolicy | None = None,
    ood_mahal=None,
    ood_knn=None,
) -> OodThresholds:
    """Pick (d1, d2) from held-out in-distribution distances.

    The default policy places each threshold at the (1 - alpha_fpr)
    order-statistic quantile of the in-distribution scores.  The f1 policy
    additionally needs out-of-distribution scores and exhaustively searches
    a grid of joint quantiles of the pooled scores, maximizing detection F1
    of the rule (mahal > d1 and knn > d2); ties prefer the smaller flagged
    fraction, then the larger thresholds.
    """
    policy = policy or ThresholdPolicy()
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
    if ood_mahal is None or ood_knn is None:
        raise ConfigError(
            "policy", "f1 calibration needs labeled out-of-distribution scores"
        )
    ood_m, ood_k = _validate_scores(ood_mahal, ood_knn, "out-of-distribution")
    if ood_m.size == 0:
        raise ConfigError(
            "policy", "f1 calibration needs labeled out-of-distribution scores"
        )
    pool_m = np.concatenate([id_m, ood_m])
    pool_k = np.concatenate([id_k, ood_k])
    labels = np.concatenate(
        [np.zeros(id_m.size, dtype=bool), np.ones(ood_m.size, dtype=bool)]
    )
    g = policy.grid_points
    levels = [(i + 1) / g for i in range(g)]
    cand_m = order_stat_quantile(pool_m, levels)
    cand_k = order_stat_quantile(pool_k, levels)
    best = None
    n_pos = int(labels.sum())
    for d1 in cand_m:
        flag_m = pool_m > d1
        for d2 in cand_k:
            flagged = flag_m & (pool_k > d2)
            tp = int(np.count_nonzero(flagged & labels))
            n_flag = int(np.count_nonzero(flagged))
            denom = n_flag + n_pos
            f1 = 2.0 * tp / denom if denom else 0.0
            key = (f1, -n_flag, d1, d2)
            if best is None or key > best[0]:
                best = (key, d1, d2)
    _, d1, d2 = best
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
