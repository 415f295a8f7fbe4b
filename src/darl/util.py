"""Small shared helpers: seeded RNG derivation, order-statistic quantiles, hashing."""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from typing import Any

import numpy as np


def sub_rng(seed: int, *tags: str | int) -> np.random.Generator:
    """Derive an independent generator from a master seed and a tag path.

    Tags are folded in via CRC32 so the derivation is stable across runs and
    platforms; distinct tag paths give statistically independent streams.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, int):
            entropy.append(tag & 0xFFFFFFFF)
        else:
            entropy.append(zlib.crc32(tag.encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def order_stat_quantile(values: np.ndarray, level: float | np.ndarray):
    """Quantile as the ceil(level * n)-th order statistic.

    With threshold t = order_stat_quantile(v, 1 - a), the count of values
    strictly above t is at most a * n.  level <= 0 maps to -inf so a
    strict ``>`` rule flags everything.  An array of levels sorts the values
    once and returns an array of quantiles; a scalar level returns a float.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.size
    if n == 0:
        raise ValueError("quantile of empty sample")
    levels = np.asarray(level, dtype=np.float64)
    t = levels * n
    # tolerate float noise when level * n is an exact integer
    k = np.clip(np.ceil(t - 1e-9 * np.maximum(1.0, t)), 1, n).astype(np.intp)
    out = np.where(levels <= 0.0, -math.inf, v[k - 1])
    return float(out) if out.ndim == 0 else out


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for hashing and resolved-config dumps."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj: Any) -> str:
    """Short content hash of a JSON-serializable configuration."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:12]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
