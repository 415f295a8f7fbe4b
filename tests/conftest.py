"""Shared fixtures: small corpora and architectures sized for fast tests."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from darl.dataset import (
    EmbeddingMatrix,
    LabeledDataset,
    SyntheticConfig,
    generate_synthetic,
)
from darl.lpft import StagePlan
from darl.metrics import Metrics
from darl.model import ModelArch

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

TINY_CONFIG = SyntheticConfig(
    dims=8,
    id_cluster_count=3,
    ood_cluster_count=2,
    train_size=400,
    val_size=200,
    test_size=200,
    pool_size=1_200,
    pretrain_size=150,
    pretrain_extra_clusters=2,
    seed=5,
)

TINY_PLAN = StagePlan(
    pretrain_epochs=4,
    lp_epochs=6,
    ft_epochs=3,
    batch_size=32,
    seed=5,
)

TINY_ARCH = ModelArch(input_dims=8, hidden=(10, 6))


@pytest.fixture(scope="session")
def tiny_corpus():
    return generate_synthetic(TINY_CONFIG)


@pytest.fixture(scope="session")
def default_corpus():
    """The full-size corpus at default settings; generated once per run."""
    return generate_synthetic(SyntheticConfig())


def make_dataset(n: int, dims: int, seed: int, prefix: str = "row") -> LabeledDataset:
    """Random labeled dataset with all three grades present for n >= 3."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, dims)).astype(np.float32)
    grades = rng.integers(0, 3, size=n).astype(np.int8)
    grades[: min(n, 3)] = [0, 1, 2][: min(n, 3)]
    origin = rng.integers(0, 2, size=n).astype(np.int8)
    ids = tuple(f"{prefix}-{i:04d}" for i in range(n))
    return LabeledDataset(EmbeddingMatrix(data, ids), grades, origin)


def traced_peak(fn, *args) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_retained(fn, *args) -> int:
    """Bytes tracemalloc sees still allocated once ``fn(*args)`` has returned,
    its result included: what a cache of that result would hold."""
    tracemalloc.start()
    try:
        result = fn(*args)  # noqa: F841  (alive until measured)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def graded(f1_id: float, f1_ood: float, acc_id: float = 0.0, acc_ood: float = 0.0) -> dict:
    """The two ``Metrics`` fields of a hand-built results row."""
    return {
        "id_metrics": Metrics(macro_f1=f1_id, accuracy=acc_id, per_grade={}, n=0),
        "ood_metrics": Metrics(macro_f1=f1_ood, accuracy=acc_ood, per_grade={}, n=0),
    }
