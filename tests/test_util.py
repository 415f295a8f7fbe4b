"""Seeded RNG derivation, row checks and blocks, order-statistic quantiles, hashing,
and forked parallel calls."""

import hashlib
import json
import math
import os
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from darl import util
from darl.errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteValueError,
    WorkerError,
)
from darl.util import (
    canonical_json,
    config_hash,
    finite_rows,
    order_stat_quantile,
    parallel,
    row_blocks,
    sha256_file,
    sub_rng,
)


def test_sub_rng_is_deterministic():
    a = sub_rng(7, "rows", "train").standard_normal(16)
    b = sub_rng(7, "rows", "train").standard_normal(16)
    np.testing.assert_array_equal(a, b)


def test_sub_rng_tag_paths_are_independent():
    base = sub_rng(7, "rows", "train").standard_normal(16)
    other_tag = sub_rng(7, "rows", "val").standard_normal(16)
    other_seed = sub_rng(8, "rows", "train").standard_normal(16)
    assert not np.array_equal(base, other_tag)
    assert not np.array_equal(base, other_seed)


def test_sub_rng_accepts_int_tags():
    a = sub_rng(3, "split", 0).random(4)
    b = sub_rng(3, "split", 1).random(4)
    assert not np.array_equal(a, b)


def test_finite_rows_makes_a_1d_array_one_row():
    rows = finite_rows([1, 2, 3], 3, "query")
    assert rows.shape == (1, 3) and rows.dtype == np.float64
    assert finite_rows(np.ones(4), None, "query").shape == (1, 4)
    assert finite_rows(np.ones((5, 2)), None, "query").shape == (5, 2)


def test_finite_rows_names_the_input_in_its_errors():
    with pytest.raises(DimensionMismatchError, match=r"^query has shape \(2, 4\)"):
        finite_rows(np.zeros((2, 4)), 3, "query")
    with pytest.raises(DimensionMismatchError, match="^query has shape"):
        finite_rows(np.zeros((2, 2, 2)), None, "query")
    with pytest.raises(DimensionMismatchError, match=r"^query has shape \(5, 0\)"):
        finite_rows(np.zeros((5, 0)), None, "query")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteValueError, match="^non-finite model input value$"):
            finite_rows(np.array([[0.0, bad]]), 2, "model input")


def test_finite_rows_keeps_float32_only_when_asked():
    x = np.ones((3, 2), dtype=np.float32)
    assert finite_rows(x, 2, "rows").dtype == np.float64
    kept = finite_rows(x, 2, "rows", widen=False)
    assert kept.dtype == np.float32 and np.shares_memory(kept, x)
    # other dtypes are promoted either way
    assert finite_rows(np.ones((3, 2), dtype=np.int64), 2, "rows", widen=False).dtype == np.float64
    assert finite_rows(np.ones((3, 2), dtype=np.float16), 2, "rows", widen=False).dtype == np.float64


@given(n=st.integers(0, 400), width=st.integers(1, 300))
@example(n=0, width=1)
@example(n=57 * 7 + 1, width=7)  # a one-row remainder
def test_row_blocks_cover_every_row_with_equal_blocks(n, width):
    blocks = list(row_blocks(n, width))
    if n == 0:
        assert blocks == []
        return
    assert all(b.stop - b.start == min(width, n) for b in blocks)
    assert sorted(set().union(*(range(n)[b] for b in blocks))) == list(range(n))
    # back to back from row 0; only the last block may overlap its predecessor
    assert [b.start for b in blocks[:-1]] == [i * width for i in range(len(blocks) - 1)]
    assert blocks[-1].stop == n


def test_order_stat_quantile_picks_kth_value():
    values = np.arange(1.0, 101.0)  # 1..100
    assert order_stat_quantile(values, 0.95) == 95.0
    assert order_stat_quantile(values, 1.0) == 100.0
    assert order_stat_quantile(values, 0.01) == 1.0


def test_order_stat_quantile_level_zero_is_minus_inf():
    assert order_stat_quantile(np.array([3.0, 1.0]), 0.0) == -math.inf


def test_order_stat_quantile_rejects_empty():
    with pytest.raises(ValueError):
        order_stat_quantile(np.array([]), 0.5)


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
    st.floats(0.01, 0.99),
)
def test_order_stat_quantile_oracle(values, level):
    v = np.array(values, dtype=np.float64)
    expected = np.sort(v)[min(v.size, max(1, math.ceil(level * v.size))) - 1]
    assert order_stat_quantile(v, level) == expected


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=300),
    st.floats(0.01, 0.5),
)
def test_quantile_bounds_strict_exceedance(values, alpha):
    # the (1 - alpha) order statistic leaves at most alpha * n strictly above
    v = np.array(values, dtype=np.float64)
    t = order_stat_quantile(v, 1.0 - alpha)
    assert np.count_nonzero(v > t) <= alpha * v.size


def _scalar_quantile(values, level: float) -> float:
    """Reference for one level: its own sort and Python's ``math.ceil``."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if level <= 0.0:
        return -math.inf
    t = level * v.size
    return float(v[min(v.size, max(1, math.ceil(t - 1e-9 * max(1.0, t)))) - 1])


# the threshold-fit percentiles and every f1 calibration grid up to 41 points
GRID_LEVELS = sorted(
    {p / 100.0 for p in range(1, 100)}
    | {(i + 1) / g for g in range(1, 42) for i in range(g)}
)


@given(
    st.integers(1, 3_000),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-0.5, 1.5), max_size=20),
)
@example(100, 0, [])
@example(2_000, 1, [])
@example(1_050, 2, [])
def test_order_stat_quantile_array_matches_scalar(n, seed, extra):
    # two decimals give heavy ties; n divisible by 100 or 21 hits exact t
    values = np.round(np.random.default_rng(seed).random(n), 2)
    levels = [0.0, -0.25, *GRID_LEVELS, *extra]
    got = order_stat_quantile(values, np.array(levels))
    assert isinstance(got, np.ndarray) and got.shape == (len(levels),)
    for level, q in zip(levels, got.tolist()):
        assert q == _scalar_quantile(values, level) == order_stat_quantile(values, level)


def test_canonical_json_is_sorted_and_compact():
    blob = canonical_json({"b": 1, "a": [1, 2]})
    assert blob == '{"a":[1,2],"b":1}'


def test_config_hash_is_stable_12_hex():
    h = config_hash({"x": 1})
    assert len(h) == 12
    assert h == config_hash({"x": 1})
    assert h != config_hash({"x": 2})


def test_sha256_file_matches_hashlib(tmp_path):
    p = tmp_path / "blob.bin"
    payload = b"darl" * 1000
    p.write_bytes(payload)
    assert sha256_file(p) == hashlib.sha256(payload).hexdigest()


def test_canonical_json_round_trips_nested_config():
    obj = {"plan": {"alpha_grid": [0.0, 0.5, 1.0]}, "seed": 7}
    assert json.loads(canonical_json(obj)) == obj


# ---------------------------------------------------------------------------
# parallel


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``parallel`` sees; 2 forks even on a one-CPU host."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(util, "available_cpus", lambda: n)

    return set_cpus


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail(error: Exception):
    raise error


def test_available_cpus_is_positive():
    assert util.available_cpus() >= 1


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_parallel_returns_results_in_input_order(cpus, n_cpus):
    cpus(n_cpus)
    assert parallel(*(partial(pow, i, 2) for i in range(7))) == [i * i for i in range(7)]
    assert parallel() == []
    assert_no_child_left()


def test_parallel_deals_tasks_round_robin_to_forked_workers(cpus):
    cpus(2)
    pids = parallel(*[os.getpid] * 5)
    assert pids[0::2] == [os.getpid()] * 3
    assert pids[1] == pids[3] != os.getpid()
    assert_no_child_left()


def test_parallel_runs_serially_with_one_cpu(cpus):
    cpus(1)
    assert parallel(os.getpid, os.getpid) == [os.getpid()] * 2


def test_parallel_runs_a_nested_call_serially(cpus):
    cpus(2)
    nested = partial(parallel, os.getpid, os.getpid)
    in_parent, in_child = parallel(nested, nested)
    assert in_parent == [os.getpid()] * 2
    assert in_child[0] == in_child[1] != os.getpid()
    assert_no_child_left()


def test_parallel_reraises_a_worker_error_in_the_parent(cpus):
    cpus(2)
    with pytest.raises(ConfigError) as info:
        parallel(int, partial(fail, ConfigError("rho", "must be small")), int)
    assert str(info.value) == "rho: must be small"
    assert info.value.field == "rho"
    assert "raised in worker process" in info.value.__notes__[0]
    assert_no_child_left()


def test_parallel_raises_the_first_failure_in_input_order(cpus):
    cpus(2)
    # this process fails at task 2; the child fails first, at task 1
    with pytest.raises(ValueError, match="task 1"):
        parallel(int, *(partial(fail, ValueError(f"task {i}")) for i in (1, 2, 3)))
    # a failure at task 0 kills the child at once: all its tasks come later
    start = time.perf_counter()
    with pytest.raises(ValueError, match="task 0"):
        parallel(partial(fail, ValueError("task 0")), partial(time.sleep, 60))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_parallel_names_the_exit_status_of_a_dead_worker(cpus):
    cpus(2)
    with pytest.raises(WorkerError, match="exit status 7 before sending"):
        parallel(int, partial(os._exit, 7))
    assert_no_child_left()


def test_parallel_reports_a_result_it_cannot_send(cpus):
    cpus(2)
    with pytest.raises(WorkerError, match="worker 1 cannot send its results"):
        parallel(int, lambda: lambda: None)
    assert_no_child_left()
