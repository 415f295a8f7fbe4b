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
import signal
import sys
import typing
import zlib
from typing import Any, Callable, Iterator

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteValueError, WorkerError


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
    float: ("a finite number",
            lambda v: type(v) is int or isinstance(v, float) and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
}


@functools.lru_cache(maxsize=None)
def _field_rules(cls) -> dict:
    """Field name -> (holds a tuple, what each item must be, its test);
    ``TypeError`` for an annotation that ``check_config`` cannot check."""
    hints, rules = typing.get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        many = typing.get_origin(hints[f.name]) is tuple and args[1:] == (Ellipsis,)
        item = args[0] if many else hints[f.name]
        choices = typing.get_args(item) if typing.get_origin(item) is typing.Literal else ()
        if item in _SCALARS:
            rule = _SCALARS[item]
        elif dataclasses.is_dataclass(item):
            rule = f"a {item.__name__}", lambda v, t=item: isinstance(v, t)
        elif choices and all(isinstance(c, str) for c in choices):
            rule = " or ".join(map(repr, choices)), lambda v, t=choices: type(v) is str and v in t
        else:
            raise TypeError(f"{cls.__name__}.{f.name}: cannot check {hints[f.name]}")
        rules[f.name] = (many, *rule)
    return rules


def check_config(config) -> None:
    """Check every field of a frozen config dataclass; a ``ConfigError``
    names the first bad field.

    bool is not int, an int is a float, a float is finite, a ``Literal`` of
    strings takes one of them, a section is its dataclass, and a
    ``tuple[X, ...]`` takes a list or tuple of ``X`` and stores a tuple.  A
    ``bounded`` value, or each item, lies in its interval.  Nothing else is
    converted: an int given for a float stays an int.
    """
    rules = _field_rules(type(config))
    for f in dataclasses.fields(config):
        value, (many, kind, test) = getattr(config, f.name), rules[f.name]
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


# set while a parallel call is running in this process, and in its workers
_in_parallel = False


def parallel(*tasks: Callable[[], Any]) -> list:
    """Call zero-argument tasks and return their results in input order.

    With ``os.fork`` and more than one available CPU, the tasks are dealt
    round-robin to one worker per CPU (at most one per task): this process
    is worker 0, and every other worker is a forked child that pickles its
    results back through a pipe.  Only results cross a process boundary, so
    tasks may be closures; a task sees this process's state as of the call,
    and its side effects stay in its worker.  With one CPU, without
    ``os.fork``, or when called from inside a running parallel call, the
    tasks run in order in this process.

    A failure raises what a serial run would: the exception of the first
    failing task in input order.  A worker stops at its own first failure,
    and children that can only hold later tasks are killed.  Every child
    is reaped before this returns or raises.
    """
    global _in_parallel
    workers = min(len(tasks), available_cpus())
    if workers < 2 or _in_parallel or not hasattr(os, "fork"):
        return [task() for task in tasks]
    _flush_std_streams()  # so no child inherits (and repeats) buffered output
    children = {}  # worker -> (pid, read end of its pipe)
    _in_parallel = True
    try:
        for worker in range(1, workers):
            children[worker] = _fork_worker(tasks, worker, workers)
        results, failures = {}, {}  # task index -> result, or exception
        for worker in range(workers):
            if failures and min(failures) < worker:
                break  # this worker and the later ones hold only later tasks
            done, failure = (
                _receive(*children.pop(worker)) if worker else _run_share(tasks, 0, workers)
            )
            results.update(done)
            if failure is not None:
                failures[failure[0]] = failure[1]
        if failures:
            raise failures[min(failures)]
        return [results[index] for index in range(len(tasks))]
    finally:
        _in_parallel = False
        for pid, fd in children.values():
            _kill(pid, fd)


def _run_share(tasks, worker: int, workers: int):
    """Run one worker's tasks in order, stopping at the first failure.

    Returns the finished ``(index, result)`` pairs and the failure as
    ``(index, exception)``, or ``None``.
    """
    done = []
    for index in range(worker, len(tasks), workers):
        try:
            done.append((index, tasks[index]()))
        except Exception as exc:
            return done, (index, exc)
    return done, None


def _fork_worker(tasks, worker: int, workers: int) -> tuple[int, int]:
    """Fork a child that runs one worker's share; returns (pid, read fd)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:  # the child never returns into the caller
        os.close(read_fd)
        share = _run_share(tasks, worker, workers)
        if share[1]:  # the parent gets the exception, not this traceback
            import traceback

            error = share[1][1]
            error.add_note(
                f"raised in worker process {os.getpid()}:\n"
                + "".join(traceback.format_tb(error.__traceback__))
            )
        try:
            payload = pickle.dumps(share)
        except Exception as exc:  # an unpicklable result or exception
            index = share[1][0] if share[1] else worker
            payload = pickle.dumps(
                ([], (index, WorkerError(f"worker {worker} cannot send its results: {exc!r}")))
            )
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        try:
            _flush_std_streams()
        finally:
            os._exit(status)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _receive(pid: int, fd: int):
    """Read a child's pickled share to the end; the child is always reaped."""
    try:
        with os.fdopen(fd, "rb") as pipe:
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload:
        raise WorkerError(
            f"worker process {pid} ended with exit status "
            f"{os.waitstatus_to_exitcode(status)} before sending its results"
        )
    return pickle.loads(payload)


def _kill(pid: int, fd: int) -> None:
    """End and reap a child whose results are not needed."""
    os.close(fd)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
