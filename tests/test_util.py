"""Seeded RNG derivation, order-statistic quantiles, and hashing helpers."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from darl.util import (
    canonical_json,
    config_hash,
    order_stat_quantile,
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
