"""Small shared helpers: seeded RNG derivation, config checks, row checks
and blocks, order-statistic quantiles, hashing, and forked parallel calls."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import sys
import types
import typing
import zlib
from typing import Any, Callable, Iterator

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteValueError, WorkerError


def sub_rng(seed: int, *tags: str) -> np.random.Generator:
    """Derive an independent generator from a master seed and a tag path.

    Tags are folded in via CRC32 so the derivation is stable across runs and
    platforms; distinct tag paths give statistically independent streams.
    """
    entropy = [int(seed) & 0xFFFFFFFF, *(zlib.crc32(tag.encode("utf-8")) for tag in tags)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def bounded(default, interval: str, nonempty: bool = False) -> Any:
    """A config field whose value, or each item of its tuple, lies in
    ``interval``, such as ``"[0, 1)"``, ``"(0, inf)"`` or ``"(0, 1/3)"``;
    ``nonempty`` also rejects an empty tuple."""
    ends = [end.strip().partition("/") for end in interval[1:-1].split(",")]
    lo, hi = (float(num) / float(den or 1) for num, _, den in ends)
    shut = [lo] * (interval[0] == "(") + [hi] * (interval[-1] == ")")  # open ends
    meta = {"interval": (interval, lo, hi, shut), "nonempty": nonempty}
    return dataclasses.field(default=default, metadata=meta)


# scalar annotation -> (what a value must be, its test)
_SCALARS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: type(v) is int and abs(v) <= sys.float_info.max
            or isinstance(v, float) and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
}


@functools.lru_cache(maxsize=None)
def _field_rules(cls) -> dict:
    """Field name -> (takes None, holds a tuple, what each item must be, its
    test); ``TypeError`` for an annotation that ``check_config`` cannot check."""
    hints, rules = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        kind, args = hints[f.name], typing.get_args(hints[f.name])
        # Optional[X] and X | None have different origins but the same args
        optional = typing.get_origin(kind) in (typing.Union, types.UnionType) \
            and types.NoneType in args
        if optional:
            kind = typing.Union[tuple(arg for arg in args if arg is not types.NoneType)]
            args = typing.get_args(kind)
        many = typing.get_origin(kind) is tuple and args[1:] == (Ellipsis,)
        item = args[0] if many else kind
        choices = typing.get_args(item) if typing.get_origin(item) is typing.Literal else ()
        if item in _SCALARS:
            rule = _SCALARS[item]
        elif dataclasses.is_dataclass(item):
            rule = f"a {item.__name__}", lambda v, t=item: isinstance(v, t)
        elif choices and all(isinstance(c, str) for c in choices):
            rule = " or ".join(map(repr, choices)), lambda v, t=choices: type(v) is str and v in t
        else:
            raise TypeError(f"{cls.__name__}.{f.name}: cannot check {hints[f.name]}")
        rules[f.name] = (optional, many, *rule)
    return rules


def check_config(config) -> None:
    """Check every field of a frozen config dataclass; a ``ConfigError``
    names the first bad field.

    bool is not int, an int within the float range is a float, a float is
    finite, a ``Literal`` of strings takes one of them, a section is its
    dataclass, a ``tuple[X, ...]`` takes a list or tuple of ``X`` and stores
    a tuple, and ``X | None`` (or ``Optional[X]``) takes None or an ``X``.
    A ``bounded`` value other than None, or each item, lies in its interval.
    Nothing else is converted: an int given for a float stays an int.
    """
    rules = _field_rules(type(config))
    for f in dataclasses.fields(config):
        value, (optional, many, kind, test) = getattr(config, f.name), rules[f.name]
        if optional and value is None:
            continue
        if many:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f.name, f"must be a list, got {value!r}")
            object.__setattr__(config, f.name, value := tuple(value))
            if f.metadata.get("nonempty") and not value:
                raise ConfigError(f.name, "must not be empty")
        interval, lo, hi, shut = f.metadata.get("interval", (None,) * 4)
        for item in value if many else (value,):
            if not test(item):
                raise ConfigError(f.name, f"must be {kind}, got {item!r}")
            if interval and not (lo <= item <= hi and item not in shut):
                raise ConfigError(f.name, f"must be in {interval}, got {item!r}")


def finite_rows(x, width: int | None, what: str, widen: bool = True) -> np.ndarray:
    """``x`` as finite 2-D rows of ``width`` columns (any positive width if
    ``None``).

    A 1-D array is one row.  Rows are float64; float32 rows stay float32
    when ``widen`` is off.  Both errors name ``what``.
    """
    rows = np.asarray(x)
    if widen or rows.dtype != np.float32:
        rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2 or width not in (None, rows.shape[1]) or not rows.shape[1]:
        raise DimensionMismatchError(
            f"{what} has shape {np.shape(x)}, expected (n, {width or 'dims >= 1'})"
        )
    if not np.all(np.isfinite(rows)):
        raise NonFiniteValueError(f"non-finite {what} value")
    return rows


BLOCK_ROWS = 4096  # rows per block where a pool-sized step works in blocks


def row_blocks(n: int, width: int) -> Iterator[slice]:
    """Slices of ``min(width, n)`` rows that together cover ``range(n)``.

    The last slice overlaps its predecessor instead of running short, so
    every block has the same row count, and no block has a single row
    unless ``width`` or ``n`` is 1.  BLAS's one-row kernel rounds
    differently, so this keeps a row's result independent of the width.
    """
    width = min(width, n)
    for start in range(0, n, max(width, 1)):
        start = min(start, n - width)
        yield slice(start, start + width)


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


def available_cpus() -> int:
    """CPUs this process may run on (1 where the platform cannot tell)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


# the tasks of the running parallel call, in this process and in its workers
_tasks: tuple = ()


def parallel(*tasks: Callable[[], Any]) -> list:
    """Call zero-argument tasks and return their results in input order.

    With ``os.fork`` and more than one available CPU, the tasks run in a
    pool of forked workers, one per CPU (at most one per task), while this
    process waits; each free worker takes the next task.  Workers receive
    only a task's index, so tasks may be closures; a task sees this
    process's state as of the call, and its side effects stay in its
    worker.  With one CPU, without ``os.fork``, or when called from inside
    a running parallel call, the tasks run in order in this process.

    A failure raises what a serial run would: the exception of the first
    failing task in input order.  A worker that dies, or a result that
    cannot be pickled, raises ``WorkerError``.  Every worker is killed and
    reaped before this returns or raises.
    """
    global _tasks
    workers = min(len(tasks), available_cpus())
    if workers < 2 or _tasks or not hasattr(os, "fork"):
        return [task() for task in tasks]
    # imported here: loading the pool adds ~10 ms to start-up, and most commands never use it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    _tasks = tasks  # set before the pool forks, so every worker inherits it
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_call, index) for index in range(len(tasks))]
        return [future.result() for future in futures]
    except BrokenProcessPool as exc:
        raise WorkerError("a worker process ended before sending its results") from exc
    finally:
        _tasks = ()
        # shutdown does not stop a running task; Python 3.14 names this kill_workers()
        for process in list(pool._processes.values()):
            process.kill()
        pool.shutdown(cancel_futures=True)


def _call(index: int):
    """Run task ``index`` in a worker; its result must pickle to come back."""
    result = _tasks[index]()
    try:
        pickle.dumps(result)
    except Exception as exc:
        raise WorkerError(f"task {index} returned a result that cannot be pickled: {exc!r}")
    return result
