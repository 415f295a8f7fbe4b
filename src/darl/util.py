"""Small shared helpers: seeded RNG derivation, row checks and blocks,
order-statistic quantiles, hashing, and forked parallel calls."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import signal
import sys
import zlib
from typing import Any, Callable, Iterator

import numpy as np

from .errors import DimensionMismatchError, NonFiniteValueError, WorkerError


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
