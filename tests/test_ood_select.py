"""Distance scoring, threshold calibration, and pool selection."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import traced_peak
from darl.errors import (
    ConfigError,
    DataFormatError,
    DimensionMismatchError,
    NonFiniteValueError,
    SingularCovarianceError,
)
from darl import ood_select
from darl.ood_select import (
    DEFAULT_RIDGE_SCALE,
    MIN_CALIBRATION_SAMPLES,
    GaussianStats,
    OodThresholds,
    SelectionReport,
    ThresholdPolicy,
    build_index,
    calibrate_thresholds,
    dasa_order,
    fit_gaussian,
    knn_distance_batch,
    load_thresholds,
    mahalanobis_batch,
    save_thresholds,
    select_ood,
    write_score_report,
)
from darl.model import ModelArch, init_model, representations
from darl.util import BLOCK_ROWS, order_stat_quantile

# ---------------------------------------------------------------------------
# gaussian fitting


def ridged_covariance(data):
    """np.cov plus the documented ridge, 1e-4 * trace / dims on the diagonal."""
    cov = np.cov(data, rowvar=False)
    return cov + DEFAULT_RIDGE_SCALE * np.trace(cov) / len(cov) * np.eye(len(cov))


def factored(stats):
    return stats.chol_lower @ stats.chol_lower.T


def test_fit_gaussian_hand_values():
    corners = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    stats = fit_gaussian(corners)
    np.testing.assert_allclose(stats.mean, [1.0, 1.0])
    np.testing.assert_allclose(factored(stats), (4.0 / 3.0) * (1.0 + 1e-4) * np.eye(2))
    np.testing.assert_array_equal(np.triu(stats.chol_lower, 1), 0.0)


def test_fit_gaussian_default_ridge_formula():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((200, 3)) * [1.0, 2.0, 3.0]
    stats = fit_gaussian(data)
    np.testing.assert_allclose(factored(stats), ridged_covariance(data), rtol=1e-12)


def test_fit_gaussian_degenerate_needs_ridge():
    # repeated rows have zero trace, so the ridge is zero too
    repeated = np.tile([1.0, 2.0], (10, 1))
    with pytest.raises(SingularCovarianceError, match="ridge"):
        fit_gaussian(repeated)


def test_fit_gaussian_input_validation():
    with pytest.raises(DataFormatError):
        fit_gaussian(np.zeros((0, 3)))
    with pytest.raises(NonFiniteValueError):
        fit_gaussian(np.array([[1.0, np.nan]]))


def test_fit_gaussian_single_row():
    with pytest.raises(SingularCovarianceError):
        fit_gaussian(np.array([[3.0, 4.0]]))
    stats = GaussianStats(mean=np.array([3.0, 4.0]), chol_lower=np.eye(2))
    assert mahalanobis_batch(stats, [3.0, 5.0])[0] == pytest.approx(1.0)


def test_reference_sets_take_a_1d_array_as_one_row():
    row = np.array([3.0, 4.0])
    # as one row of two dims it has no spread; as a column of two rows it would
    for reps in (row, row[None, :]):
        with pytest.raises(SingularCovarianceError):
            fit_gaussian(reps)
    np.testing.assert_allclose(factored(fit_gaussian(row[:, None])), [[0.5 * 1.0001]])
    index = build_index(row)
    assert (index.rows, index.dims) == (1, 2)
    np.testing.assert_allclose(index.unit[: index.rows], [[0.6, 0.8]])


# ---------------------------------------------------------------------------
# mahalanobis distance


def unit_stats(dims):
    return GaussianStats(mean=np.zeros(dims), chol_lower=np.eye(dims))


def exact_stats(data):
    """Unridged fit: the sample mean and the Cholesky factor of np.cov."""
    return GaussianStats(data.mean(axis=0), np.linalg.cholesky(np.cov(data, rowvar=False)))


def test_mahalanobis_identity_covariance_is_euclidean():
    assert mahalanobis_batch(unit_stats(2), [3.0, 4.0])[0] == pytest.approx(5.0)
    assert mahalanobis_batch(unit_stats(2), [0.0, 0.0])[0] == 0.0


def test_mahalanobis_diagonal_covariance():
    # covariance diag(4, 1)
    stats = GaussianStats(mean=np.zeros(2), chol_lower=np.diag([2.0, 1.0]))
    # [2, 1] is one standard deviation out on each axis
    assert mahalanobis_batch(stats, [2.0, 1.0])[0] == pytest.approx(np.sqrt(2.0))


def test_mahalanobis_batch_matches_explicit_inverse():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 4))
    stats = fit_gaussian(data)
    queries = rng.standard_normal((40, 4))
    inv = np.linalg.inv(stats.chol_lower @ stats.chol_lower.T)
    diff = queries - stats.mean
    want = np.sqrt(np.einsum("ij,jk,ik->i", diff, inv, diff))
    np.testing.assert_allclose(mahalanobis_batch(stats, queries), want, rtol=1e-8)


def test_mahalanobis_is_affine_invariant():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((120, 3))
    queries = rng.standard_normal((15, 3))
    transform = np.array([[2.0, 0.3, 0.0], [0.0, 1.5, -0.4], [0.1, 0.0, 1.0]])
    base = mahalanobis_batch(exact_stats(data), queries)
    moved = mahalanobis_batch(exact_stats(data @ transform.T), queries @ transform.T)
    np.testing.assert_allclose(moved, base, rtol=1e-6)


def test_mahalanobis_query_validation():
    stats = unit_stats(3)
    with pytest.raises(DimensionMismatchError):
        mahalanobis_batch(stats, np.zeros((2, 4)))
    with pytest.raises(NonFiniteValueError):
        mahalanobis_batch(stats, np.array([[np.inf, 0.0, 0.0]]))


def test_mahalanobis_overflow_raises_non_finite_value_error():
    query = np.array([[1e308, 0.0]])
    stats = GaussianStats(mean=np.array([-1e308, 0.0]), chol_lower=np.eye(2))
    # the square of a finite row overflows; the centred row itself overflows
    for fitted in (unit_stats(2), stats):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValueError, match="Mahalanobis"):
            mahalanobis_batch(fitted, query)


def three_array_mahalanobis(stats, x):
    """Reference: the centred block, its solved copy and their square; a
    lone row is solved doubled, as BLAS's one-row kernel rounds differently."""
    from scipy.linalg import solve_triangular

    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    diff = (np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows) - stats.mean
    solved = solve_triangular(stats.chol_lower, diff.T, lower=True)
    return np.sqrt(np.sum(solved * solved, axis=0))[: len(rows)]


def test_mahalanobis_in_place_solve_matches_three_array_formula():
    rng = np.random.default_rng(9)
    stats = fit_gaussian(rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6)))
    for rows in (1, 2, 3, 4097, 2 * BLOCK_ROWS + 1):
        queries = 3.0 * rng.standard_normal((rows, 6))
        kept = queries.copy()
        for x in (queries, queries.astype(np.float32), np.asfortranarray(queries)):
            got = mahalanobis_batch(stats, x)
            assert got.tobytes() == three_array_mahalanobis(stats, x).tobytes()
        # the caller's rows are never the solve's scratch space
        assert np.array_equal(queries, kept)
    row = queries[0].copy()
    assert mahalanobis_batch(stats, row).tobytes() == three_array_mahalanobis(stats, row).tobytes()
    assert np.array_equal(row, kept[0])


def test_mahalanobis_holds_one_centred_block():
    """Past one block, peak memory grows per query row only by the
    finiteness mask and the per-row results, never by a centred copy."""
    rng = np.random.default_rng(10)
    dims = 32
    stats = fit_gaussian(rng.standard_normal((200, dims)))
    small, large = (rng.standard_normal((rows, dims)) for rows in (BLOCK_ROWS, 100_000))
    mahalanobis_batch(stats, small[:2])  # import scipy.linalg untraced
    growth = traced_peak(mahalanobis_batch, stats, large) - traced_peak(
        mahalanobis_batch, stats, small
    )
    # the whole-array solve grows by 8 * dims bytes per row
    assert growth <= (len(large) - len(small)) * (dims + 16)


# ---------------------------------------------------------------------------
# nearest-neighbor cosine distance


def test_knn_hand_values():
    index = build_index(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert knn_distance_batch(index, [5.0, 0.0])[0] == pytest.approx(0.0)
    # nearest of the two axes wins: cos = 0.8 against [0, 1]
    assert knn_distance_batch(index, [3.0, 4.0])[0] == pytest.approx(1.0 - 0.8)
    single = build_index(np.array([[1.0, 0.0]]))
    assert knn_distance_batch(single, [0.0, 7.0])[0] == pytest.approx(1.0)


def test_knn_stored_row_has_zero_distance():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((20, 5))
    index = build_index(data)
    np.testing.assert_allclose(
        knn_distance_batch(index, data), 0.0, atol=1e-12
    )


def test_knn_antipodal_distance_is_two():
    index = build_index(np.array([[1.0, 0.0]]))
    assert knn_distance_batch(index, [-2.0, 0.0])[0] == pytest.approx(2.0)


def test_knn_is_scale_invariant():
    rng = np.random.default_rng(4)
    index = build_index(rng.standard_normal((30, 4)))
    queries = rng.standard_normal((10, 4))
    base = knn_distance_batch(index, queries)
    np.testing.assert_allclose(knn_distance_batch(index, 7.5 * queries), base)


def test_knn_chunking_is_invisible(monkeypatch):
    rng = np.random.default_rng(5)
    index = build_index(rng.standard_normal((50, 3)))
    # more rows than the default chunk, and 400 = 57 * 7 + 1 leaves a
    # one-row tail at chunk 7
    queries = rng.standard_normal((400, 3))
    base = knn_distance_batch(index, queries)
    # index tiles of 32, 8, 8 and 16 rows over the 56 padded rows
    for chunk, cols in ((2, 50), (7, 3), (1024, 2), (7, 17)):
        monkeypatch.setattr(ood_select, "KNN_CHUNK", chunk)
        monkeypatch.setattr(ood_select, "KNN_BUFFER_BYTES", 8 * chunk * cols)
        assert np.array_equal(knn_distance_batch(index, queries), base)
        assert knn_distance_batch(index, np.zeros((0, 3))).shape == (0,)
    # at 32 dims, where OpenBLAS's kernels differ by tile start; every
    # product keeps >= 2 rows and > 1,200 entries, off its small-matrix kernel
    monkeypatch.undo()
    index = build_index(rng.standard_normal((3_000, 32)))
    queries = rng.standard_normal((401, 32))
    base = knn_distance_batch(index, queries)
    # 1,000-row tiles screened three at a time (the default), 752-row tiles
    # four at a time, and 1,000- and 1,504-row tiles one at a time, where
    # the float32 copy leaves no room for more
    for chunk, budget, tile in ((7, 15_360_000, 800), (64, 512_512, 2048), (2, 48_016, 2048)):
        monkeypatch.setattr(ood_select, "KNN_CHUNK", chunk)
        monkeypatch.setattr(ood_select, "KNN_BUFFER_BYTES", budget)
        monkeypatch.setattr(ood_select, "KNN_TILE", tile)
        assert np.array_equal(knn_distance_batch(index, queries), base)


@given(
    st.integers(1, 1_000),
    st.sampled_from([8, 32, 64]),
    st.integers(0, 2**32 - 1),
    st.lists(st.one_of(st.just(1), st.integers(2, 40)), min_size=1, max_size=8),
)
@example(rows=50, dims=32, seed=0, sizes=[1, 3, 1, 17])
def test_a_row_gets_the_bits_of_one_whole_call(rows, dims, seed, sizes):
    """Split into batches of any sizes, lone rows included, every query row
    gets the bits of one call over all of them: at >= 32 dims OpenBLAS
    rounds small and one-row products differently, which the kNN product
    floor and the doubled lone row keep out of the results."""
    rng = np.random.default_rng(seed)
    index = build_index(rng.standard_normal((rows, dims)))
    stats = fit_gaussian(rng.standard_normal((3 * dims, dims)))
    params = init_model(ModelArch(input_dims=dims, hidden=(64, dims)), seed % 997)
    queries = rng.standard_normal((sum(sizes), dims))
    stops = np.cumsum(sizes)
    for score in (
        lambda x: knn_distance_batch(index, x),
        lambda x: mahalanobis_batch(stats, x),
        lambda x: representations(params, x),
    ):
        whole = score(queries)
        batched = np.concatenate([score(queries[stop - size : stop])
                                  for stop, size in zip(stops, sizes)])
        assert batched.tobytes() == whole.tobytes()


def whole_index_distances(index, queries) -> np.ndarray:
    """1 - each query's maximum over one float64 product with the whole
    index, padded to a multiple of 8 rows: unpadded, the bits of its last
    rows change with the number of queries in the product."""
    unit = queries / np.linalg.norm(queries, axis=1)[:, None]
    rows = index.unit[: index.rows]
    padded = np.vstack([rows, np.repeat(rows[-1:], -index.rows % 8, axis=0)])
    best = np.concatenate([(unit[start : start + 100] @ padded.T).max(axis=1)
                           for start in range(0, len(unit), 100)])
    return np.clip(1.0 - best, 0.0, 2.0)


@pytest.mark.parametrize("rows", [15_000, 10_001])
def test_knn_matches_one_whole_index_product_bitwise(rows):
    # 32 dims, where tiles that start off a multiple of 8 change a row's
    # bits now and then: 7,500-row tiles of 15,000 rows changed 16 of these
    # 20,000 distances; and a lone query row
    rng = np.random.default_rng(rows)
    index = build_index(rng.standard_normal((rows, 32)))
    queries = rng.standard_normal((20_000, 32))
    expected = whole_index_distances(index, queries)
    assert knn_distance_batch(index, queries).tobytes() == expected.tobytes()
    assert knn_distance_batch(index, queries[-1:]).tobytes() == expected[-1:].tobytes()


@given(
    st.integers(1, 256),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 0.9]),
    st.sampled_from([1e-2, 1e-7, 1.0]),
)
def test_knn_screen_dot_is_within_half_the_slack(dims, seed, tiny_share, spread):
    """The float32 dot of unit rows is within (dims + 2) eps32 of the
    float64 dot, so the slack of twice that keeps the nearest tile."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((4, dims))
    # queries near the index rows give dots near 1; tiny components turn
    # subnormal or zero in float32
    queries = rows + spread * rng.standard_normal((4, dims))
    for part in (rows, queries):
        tiny = rng.random(part.shape) < tiny_share
        part[tiny] *= 10.0 ** rng.uniform(-60.0, -36.0, int(tiny.sum()))
    index = build_index(rows)
    unit = queries / np.linalg.norm(queries, axis=1)[:, None]
    error = unit.astype(np.float32) @ index.screen.T - unit @ index.unit.T
    assert np.all(np.abs(error) <= (dims + 2) * np.finfo(np.float32).eps)


def test_knn_nearest_neighbour_outside_the_float32_argmax_tile(monkeypatch):
    # a query whose float64 nearest index row (b, tile 2) loses to another
    # row (a, tile 1) in float32, found among near rotations of the query
    rng = np.random.default_rng(0)
    filler = -np.abs(rng.standard_normal((14, 2)))  # far from the query
    monkeypatch.setattr(ood_select, "KNN_TILE", 8)
    for angle, turn_a, turn_b in zip(*rng.uniform([0.0, 1e-4, 1e-4], [1.5, 1e-3, 1e-3], (500, 3)).T):
        turns = np.array([angle, angle + turn_a, angle - turn_b])
        query, a, b = np.stack([np.cos(turns), np.sin(turns)], axis=1)
        index = build_index(np.vstack([a, filler[:7], b, filler[7:]]))
        unit = query / np.linalg.norm(query)
        exact = unit @ index.unit[: index.rows].T
        short = unit.astype(np.float32) @ index.screen.T
        if exact[0] < exact[8] and short[0] > short[8]:
            break
    else:
        pytest.fail("no query found whose float32 argmax sits in another tile")
    assert ood_select._knn_plan(index, 1) == (8, 2)
    assert knn_distance_batch(index, query)[0] == np.clip(1.0 - exact[8], 0.0, 2.0)


def test_knn_memory_fits_the_budget_with_the_float32_copy():
    """Everything the kNN step allocates, the float32 index copy included,
    fits ``KNN_BUFFER_BYTES`` plus query-sized arrays."""
    rng = np.random.default_rng(11)
    dims, n = 32, 1_000
    index = build_index(rng.standard_normal((20_000, dims)))
    width, group = ood_select._knn_plan(index, ood_select.KNN_CHUNK)
    tiles = -(-index.rows // width)
    assert tiles > 1 and group > 0
    # per query: the result, a mask byte per tile and a row number; per
    # chunk: the normalized queries, their float32 copy and a copy of each
    query_bytes = n * (8 + tiles + 8) + 4 * ood_select.KNN_CHUNK * dims * 8
    peak = traced_peak(knn_distance_batch, index, rng.standard_normal((n, dims)))
    assert peak + index.screen.nbytes <= ood_select.KNN_BUFFER_BYTES + query_bytes


def test_knn_frees_the_screen_before_the_exact_pass():
    """The float32 screen buffer is gone before the float64 exact buffer is
    made: one call never holds both (7.68 and 1.54 MB at a 10,000-row index)."""
    rng = np.random.default_rng(13)
    dims, chunk = 32, ood_select.KNN_CHUNK
    index = build_index(rng.standard_normal((10_000, dims)))
    width, group = ood_select._knn_plan(index, chunk)
    screen_bytes = 4 * chunk * group * width
    exact_bytes = 8 * max(chunk * width, ood_select.SMALL_PRODUCT_ENTRIES + width)
    peak = traced_peak(knn_distance_batch, index, rng.standard_normal((2 * chunk, dims)))
    assert max(screen_bytes, exact_bytes) <= peak < screen_bytes + exact_bytes


def test_knn_memory_when_the_float32_copy_fills_the_budget():
    """An index whose float32 copy alone fills ``KNN_BUFFER_BYTES`` is still
    screened, one tile at a time: the call holds one float64 tile and one
    screen tile beside query-sized arrays, and keeps the bits of one
    whole-index product."""
    rng = np.random.default_rng(12)
    dims, n, chunk = 128, 1_000, ood_select.KNN_CHUNK
    index = build_index(rng.standard_normal((30_000, dims)))
    assert index.screen.nbytes >= ood_select.KNN_BUFFER_BYTES
    queries = rng.standard_normal((n, dims))
    expected = whole_index_distances(index, queries)
    assert knn_distance_batch(index, queries).tobytes() == expected.tobytes()
    # one float64 and one float32 tile of at most KNN_TILE rows per chunk;
    # query-sized arrays as in the test above
    tiles = -(-index.rows // ood_select.KNN_TILE)
    query_bytes = n * (8 + tiles + 8) + 4 * chunk * dims * 8
    tile_bytes = (8 + 4) * chunk * ood_select.KNN_TILE
    assert traced_peak(knn_distance_batch, index, queries) <= tile_bytes + query_bytes


@given(st.integers(1, 6_000), st.integers(1, 3_000))
def test_knn_tile_width_is_a_multiple_of_8(eighths, most):
    # every tile then starts at a multiple of 8 and, over an index padded
    # to a multiple of 8 rows, is a multiple of 8 rows long
    rows, width = 8 * eighths, ood_select._tile_width(8 * eighths, 8 * most)
    assert width % 8 == 0 and width <= 8 * most
    assert -(-rows // width) == -(-rows // (8 * most))


def test_knn_index_tiles_follow_the_index_size(monkeypatch):
    """Tiles cover the index padded to a multiple of 8 rows; the float32
    copy, the screen and one float64 tile share the byte budget, and
    without room for more the screen takes one tile at a time."""
    rng = np.random.default_rng(9)

    def plan(rows, dims=32):
        index = build_index(rng.standard_normal((rows, dims)))
        total = len(index.unit)
        assert total == 8 * -(-rows // 8) and index.rows == rows
        width, group = ood_select._knn_plan(index, ood_select.KNN_CHUNK)
        return [min(width, total - start) for start in range(0, total, width)], group

    # 1,000-row tiles leave room for 14 of them in float32
    assert plan(20_000) == ([1_000] * 20, 14)
    assert plan(10_001) == ([1_008] * 9 + [936], 10)
    assert plan(1_024) == ([1_024], 1)
    assert plan(1_025) == ([520, 512], 2)
    # the float32 copy fills the budget: one tile per screen product
    assert plan(30_000, 128) == ([1_000] * 30, 1)
    # no tile is shorter than 8 rows
    monkeypatch.setattr(ood_select, "KNN_BUFFER_BYTES", 1)
    assert plan(3, 2) == ([8], 1)
    assert plan(17, 2) == ([8] * 3, 1)


def test_knn_similarity_buffer_is_reused(monkeypatch):
    """Peak memory grows with the query count only by query-sized arrays,
    not by a chunk x index-rows similarity matrix per chunk."""
    rng = np.random.default_rng(8)
    dims, chunk = 4, 64
    monkeypatch.setattr(ood_select, "KNN_CHUNK", chunk)
    index = build_index(rng.standard_normal((4000, dims)))

    def peak(rows: int) -> int:
        return traced_peak(knn_distance_batch, index, rng.standard_normal((rows, dims)))

    small, large = chunk, 16 * chunk
    # the finiteness mask and the per-row results; a normalized copy of the
    # queries would add 8 * dims bytes per row
    query_bytes = (large - small) * (dims + 16)
    similarity_block = chunk * index.rows * 8
    assert query_bytes < similarity_block / 2
    assert peak(large) - peak(small) <= query_bytes


def test_knn_similarity_buffer_fits_the_budget(monkeypatch):
    rng = np.random.default_rng(10)
    dims, chunk = 4, 64
    index = build_index(rng.standard_normal((4000, dims)))
    monkeypatch.setattr(ood_select, "KNN_CHUNK", chunk)
    budget = 8 * chunk * 500
    monkeypatch.setattr(ood_select, "KNN_BUFFER_BYTES", budget)
    # a whole-index buffer would be 8 budgets
    assert traced_peak(knn_distance_batch, index, rng.standard_normal((chunk, dims))) < 2 * budget


def test_knn_bounds():
    rng = np.random.default_rng(6)
    index = build_index(rng.standard_normal((40, 6)))
    d = knn_distance_batch(index, rng.standard_normal((60, 6)))
    assert np.all((d >= 0.0) & (d <= 2.0))


def test_build_index_rejects_zero_norm_row():
    data = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DataFormatError, match="idx-1"):
        build_index(data, ids=("idx-0", "idx-1"))
    with pytest.raises(DataFormatError, match="row 1$"):
        build_index(data)


def test_knn_rejects_zero_norm_query(monkeypatch):
    index = build_index(np.array([[1.0, 0.0]]))
    with pytest.raises(DataFormatError):
        knn_distance_batch(index, np.zeros((1, 2)))
    # each chunk checks its own rows, and the error names the row in the call
    monkeypatch.setattr(ood_select, "KNN_CHUNK", 7)
    queries = np.random.default_rng(13).standard_normal((1000, 2))
    queries[500] = 0.0
    with pytest.raises(DataFormatError, match="row 500$"):
        knn_distance_batch(index, queries)


@pytest.mark.parametrize("fit", [fit_gaussian, build_index])
def test_reference_sets_reject_zero_columns(fit):
    with pytest.raises(DimensionMismatchError, match="^representation has shape"):
        fit(np.zeros((5, 0)))


def test_build_index_accepts_duplicate_rows():
    index = build_index(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert index.rows == 2
    assert knn_distance_batch(index, [9.0, 0.0])[0] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# threshold policies


def test_policy_validation():
    ThresholdPolicy(mode="f1", grid_points=5)
    with pytest.raises(ConfigError):
        ThresholdPolicy(mode="roc")
    with pytest.raises(ConfigError):
        ThresholdPolicy(alpha_fpr=1.0)
    with pytest.raises(ConfigError):
        ThresholdPolicy(alpha_fpr=-0.01)
    with pytest.raises(ConfigError):
        ThresholdPolicy(mode="f1", grid_points=1)


def test_thresholds_validation():
    OodThresholds(d1=1.0, d2=0.0, policy="fpr")
    with pytest.raises(ConfigError):
        OodThresholds(d1=np.inf, d2=1.0, policy="fpr")
    with pytest.raises(ConfigError):
        OodThresholds(d1=0.0, d2=1.0, policy="fpr")
    with pytest.raises(ConfigError):
        OodThresholds(d1=1.0, d2=2.5, policy="fpr")


def test_thresholds_json_round_trip(tmp_path):
    path = tmp_path / "thresholds.json"
    thr = OodThresholds(d1=3.25, d2=0.125, policy="fpr", alpha_fpr=0.05)
    save_thresholds(thr, path)
    back = load_thresholds(path)
    assert back == thr
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_thresholds(path)
    path.write_text('{"d1": 1.0}', encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_thresholds(path)


def test_calibrate_fpr_order_statistics():
    mahal = np.arange(1.0, 101.0)
    knn = np.arange(1.0, 101.0) / 100.0
    thr = calibrate_thresholds(mahal, knn, ThresholdPolicy(mode="fpr", alpha_fpr=0.05))
    assert thr.d1 == 95.0
    assert thr.d2 == 0.95
    assert thr.policy == "fpr" and thr.alpha_fpr == 0.05
    # strict exceedance: exactly 5 of 100 rows clear both
    assert np.count_nonzero((mahal > thr.d1) & (knn > thr.d2)) == 5


def test_calibrate_fpr_alpha_zero_flags_nothing():
    mahal = np.arange(1.0, 101.0)
    knn = np.linspace(0.0, 1.5, 100)
    thr = calibrate_thresholds(mahal, knn, ThresholdPolicy(mode="fpr", alpha_fpr=0.0))
    assert thr.d1 == 100.0
    assert np.count_nonzero((mahal > thr.d1) & (knn > thr.d2)) == 0


def test_calibrate_needs_enough_samples():
    short = np.ones(MIN_CALIBRATION_SAMPLES - 1)
    with pytest.raises(DataFormatError, match="50"):
        calibrate_thresholds(short, short * 0.5, ThresholdPolicy())


def test_calibrate_rejects_mismatched_scores():
    with pytest.raises(DimensionMismatchError):
        calibrate_thresholds(np.ones(60), np.ones(59), ThresholdPolicy())
    bad = np.ones(60)
    bad[3] = np.nan
    with pytest.raises(NonFiniteValueError):
        calibrate_thresholds(bad, np.ones(60), ThresholdPolicy())


@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.5))
def test_calibrated_fpr_is_bounded_on_the_calibration_set(seed, alpha):
    rng = np.random.default_rng(seed)
    n = 200
    mahal = rng.exponential(scale=2.0, size=n) + 0.1
    knn = rng.random(n)
    thr = calibrate_thresholds(
        mahal, knn, ThresholdPolicy(mode="fpr", alpha_fpr=float(alpha))
    )
    flagged = np.count_nonzero((mahal > thr.d1) & (knn > thr.d2))
    assert flagged <= alpha * n + 1e-9


def test_calibrate_f1_needs_ood_scores():
    ident = np.linspace(0.1, 1.0, 80)
    with pytest.raises(ConfigError):
        calibrate_thresholds(ident, ident, ThresholdPolicy(mode="f1"))
    with pytest.raises(ConfigError, match="out-of-distribution"):
        calibrate_thresholds(ident, ident, ThresholdPolicy(mode="f1"), [], [])


def f1_pair_search(id_m, id_k, ood_m, ood_k, grid_points):
    """Reference: every (d1, d2) pair of the quantile grid scored on its own;
    the largest (F1, -flagged, d1, d2) wins."""
    pool_m, pool_k = np.concatenate([id_m, ood_m]), np.concatenate([id_k, ood_k])
    ood = np.arange(pool_m.size) >= id_m.size
    levels = [(i + 1) / grid_points for i in range(grid_points)]
    keys = []
    for d1 in order_stat_quantile(pool_m, levels):
        for d2 in order_stat_quantile(pool_k, levels):
            flagged = (pool_m > d1) & (pool_k > d2)
            tp, n_flag = np.count_nonzero(flagged & ood), np.count_nonzero(flagged)
            keys.append((2.0 * tp / (n_flag + ood_m.size), -n_flag, d1, d2))
    _, _, d1, d2 = max(keys)
    return d1, min(2.0, d2)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(MIN_CALIBRATION_SAMPLES, 200),
    st.integers(1, 150),
    st.integers(0, 2),
    st.integers(2, 25),
)
def test_calibrate_f1_matches_the_pair_search(seed, n_id, n_ood, decimals, grid_points):
    # coarse rounding makes ties in F1, in the flagged count and in the grid
    rng = np.random.default_rng(seed)
    id_m = np.round(rng.gamma(2.0, size=n_id), decimals) + 1.0
    id_k = np.round(rng.random(n_id), decimals)
    ood_m = np.round(rng.gamma(3.0, size=n_ood), decimals) + 1.0
    ood_k = np.round(rng.random(n_ood) + 0.3, decimals)
    thr = calibrate_thresholds(
        id_m, id_k, ThresholdPolicy(mode="f1", grid_points=grid_points), ood_m, ood_k
    )
    assert (thr.d1, thr.d2) == f1_pair_search(id_m, id_k, ood_m, ood_k, grid_points)


def test_calibrate_f1_separates_clean_split():
    rng = np.random.default_rng(7)
    id_m = rng.uniform(0.1, 1.0, size=100)
    id_k = rng.uniform(0.0, 0.1, size=100)
    ood_m = rng.uniform(10.0, 11.0, size=50)
    ood_k = rng.uniform(1.0, 1.1, size=50)
    thr = calibrate_thresholds(
        id_m, id_k, ThresholdPolicy(mode="f1"), ood_mahal=ood_m, ood_knn=ood_k
    )
    assert thr.policy == "f1" and thr.alpha_fpr is None
    pool_m = np.concatenate([id_m, ood_m])
    pool_k = np.concatenate([id_k, ood_k])
    flagged = (pool_m > thr.d1) & (pool_k > thr.d2)
    want = np.concatenate([np.zeros(100, dtype=bool), np.ones(50, dtype=bool)])
    np.testing.assert_array_equal(flagged, want)


# ---------------------------------------------------------------------------
# selection


def planted_pool(n_near=40, n_far=10, seed=8):
    rng = np.random.default_rng(seed)
    train = rng.standard_normal((100, 3))
    near = rng.standard_normal((n_near, 3))
    far = rng.standard_normal((n_far, 3)) + 40.0
    pool = np.concatenate([near, far])
    return train, pool, np.arange(n_near, n_near + n_far)


def row_ids(pool):
    return tuple(f"p{i}" for i in range(pool.shape[0]))


def scored(pool, stats, index):
    """Both distances of raw pool rows, as ``select_ood`` takes them."""
    return mahalanobis_batch(stats, pool), knn_distance_batch(index, pool)


def test_select_strict_thresholds_are_empty():
    train, pool, _ = planted_pool()
    stats = fit_gaussian(train)
    index = build_index(train)
    # d2 = 2 can never be strictly exceeded; nothing selects
    report = select_ood(
        *scored(pool, stats, index), OodThresholds(1e18, 2.0, "fpr"), row_ids(pool)
    )
    assert report.selected.sum() == 0
    assert report.selected_indices.size == 0


def test_select_loose_thresholds_take_everything_far():
    train, pool, far_rows = planted_pool()
    stats = fit_gaussian(train)
    index = build_index(train)
    report = select_ood(
        *scored(pool, stats, index), OodThresholds(1e-12, 0.0, "fpr"), row_ids(pool)
    )
    # rows at +40 sigma clear any near-zero threshold on both axes
    assert set(far_rows).issubset(set(report.selected_indices))
    np.testing.assert_array_equal(
        report.selected, report.flag_mahal & report.flag_knn
    )


def test_select_flags_compose_by_and():
    train, pool, _ = planted_pool()
    stats = fit_gaussian(train)
    index = build_index(train)
    thr = OodThresholds(3.0, 0.05, "fpr")
    report = select_ood(*scored(pool, stats, index), thr, row_ids(pool))
    np.testing.assert_array_equal(report.mahal > thr.d1, report.flag_mahal)
    np.testing.assert_array_equal(report.knn > thr.d2, report.flag_knn)
    np.testing.assert_array_equal(
        report.selected, report.flag_mahal & report.flag_knn
    )


def test_select_is_row_order_independent():
    train, pool, _ = planted_pool()
    stats = fit_gaussian(train)
    index = build_index(train)
    thr = OodThresholds(3.0, 0.05, "fpr")
    ids = row_ids(pool)
    perm = np.random.default_rng(9).permutation(pool.shape[0])
    direct = select_ood(*scored(pool, stats, index), thr, ids=ids)
    shuffled = select_ood(
        *scored(pool[perm], stats, index), thr, ids=tuple(ids[i] for i in perm)
    )
    assert {direct.ids[i] for i in direct.selected_indices} == {
        shuffled.ids[i] for i in shuffled.selected_indices
    }


def test_raising_thresholds_never_adds_rows():
    train, pool, _ = planted_pool()
    stats = fit_gaussian(train)
    index = build_index(train)
    loose = select_ood(
        *scored(pool, stats, index), OodThresholds(2.0, 0.02, "fpr"), row_ids(pool)
    )
    tight = select_ood(
        *scored(pool, stats, index), OodThresholds(4.0, 0.10, "fpr"), row_ids(pool)
    )
    assert set(tight.selected_indices).issubset(set(loose.selected_indices))


def test_select_ood_dimension_check():
    train, pool, _ = planted_pool()
    mahal, knn = scored(pool, fit_gaussian(train), build_index(train))
    thr = OodThresholds(3.0, 0.05, "fpr")
    with pytest.raises(DimensionMismatchError, match="disagree"):
        select_ood(mahal[:-1], knn, thr, row_ids(pool)[:-1])


# ---------------------------------------------------------------------------
# ranking


def test_dasa_order_hand_example():
    mahal = np.array([0.0, 10.0, 5.0, 3.0])
    knn = np.array([0.1, 0.2, 1.5, 0.05])
    # per-axis ranks: mahal [0,3,2,1], knn [1,2,3,0]; weaker axis [0,2,2,0]
    np.testing.assert_array_equal(dasa_order(mahal, knn), [1, 2, 0, 3])


def test_dasa_order_is_a_permutation():
    rng = np.random.default_rng(10)
    mahal = rng.random(500)
    knn = rng.random(500)
    order = dasa_order(mahal, knn)
    assert sorted(order) == list(range(500))
    np.testing.assert_array_equal(order, dasa_order(mahal, knn))


def test_dasa_order_combined_rank_is_non_increasing():
    rng = np.random.default_rng(11)
    mahal = rng.random(200)
    knn = rng.random(200)
    order = dasa_order(mahal, knn)
    rank_m = np.argsort(np.argsort(mahal))
    rank_k = np.argsort(np.argsort(knn))
    combined = np.minimum(rank_m, rank_k)[order]
    assert np.all(np.diff(combined) <= 0)


def test_dasa_order_breaks_ties_by_index():
    mahal = np.array([1.0, 1.0, 1.0])
    knn = np.array([0.5, 0.5, 0.5])
    # stable per-axis ranks make combined ranks [0,1,2]
    np.testing.assert_array_equal(dasa_order(mahal, knn), [2, 1, 0])


def test_dasa_top_row_is_far_on_both_axes():
    train, pool, far_rows = planted_pool()
    stats = fit_gaussian(train)
    index = build_index(train)
    report = select_ood(
        *scored(pool, stats, index), OodThresholds(1.0, 0.0, "fpr"), row_ids(pool)
    )
    order = dasa_order(report.mahal, report.knn)
    assert order[0] in set(far_rows)


# ---------------------------------------------------------------------------
# report file


def test_score_report_round_trip(tmp_path):
    train, pool, _ = planted_pool()
    stats = fit_gaussian(train)
    index = build_index(train)
    ids = tuple(f"p{i:03d}" for i in range(pool.shape[0]))
    report = select_ood(*scored(pool, stats, index), OodThresholds(3.0, 0.05, "fpr"), ids=ids)
    path = tmp_path / "scores.tsv"
    write_score_report(report, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id\td_mahal\td_knn\tflag_mahal\tflag_knn\tselected"
    cells = [line.split("\t") for line in lines[1:]]
    assert tuple(c[0] for c in cells) == report.ids
    back = np.array([[float(v) for v in c[1:]] for c in cells])
    np.testing.assert_allclose(back[:, 0], report.mahal, rtol=1e-5)
    np.testing.assert_allclose(back[:, 1], report.knn, rtol=1e-5)
    np.testing.assert_array_equal(back[:, 4].astype(bool), report.selected)
    np.testing.assert_array_equal(back[:, 2].astype(bool), report.flag_mahal)


def test_score_report_matches_one_joined_text(tmp_path):
    rng = np.random.default_rng(14)
    path = tmp_path / "scores.tsv"
    for rows in (0, 2 * BLOCK_ROWS + 1):
        mahal, knn = 10.0 * rng.exponential(size=rows), rng.uniform(0.0, 2.0, rows)
        flag_m, flag_k = mahal > 10.0, knn > 1.0
        report = SelectionReport(
            tuple(f"pool-{i:06d}" for i in range(rows)), mahal, knn, flag_m, flag_k, flag_m & flag_k
        )
        write_score_report(report, path)
        # the whole-report formula: every line in one list, joined once
        columns = zip(report.ids, mahal.tolist(), knn.tolist(), flag_m.tolist(),
                      flag_k.tolist(), (flag_m & flag_k).tolist())
        lines = ["id\td_mahal\td_knn\tflag_mahal\tflag_knn\tselected"]
        lines += ["%s\t%.6g\t%.6g\t%d\t%d\t%d" % row for row in columns]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_score_report_bytes(tmp_path):
    report = SelectionReport(
        ids=("a", "b", "c"),
        mahal=np.array([1.0, 123456.789, 2.5e-7]),
        knn=np.array([0.1234567, 0.0, 2.0]),
        flag_mahal=np.array([True, True, False]),
        flag_knn=np.array([True, False, True]),
        selected=np.array([True, False, False]),
    )
    path = tmp_path / "scores.tsv"
    write_score_report(report, path)
    assert path.read_bytes() == (
        b"id\td_mahal\td_knn\tflag_mahal\tflag_knn\tselected\n"
        b"a\t1\t0.123457\t1\t1\t1\n"
        b"b\t123457\t0\t1\t0\t0\n"
        b"c\t2.5e-07\t2\t0\t1\t0\n"
    )
