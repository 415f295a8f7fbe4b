"""In-memory span tracer for darl's layer boundaries, plus per-layer metrics.

``Tracer.begin_op`` wraps the public functions of every layer module and
binds each wrapper wherever the original is bound by name: the defining
module, every ``from .x import f`` binding in another darl module, and
module-level dicts such as the CLI's command table.  Each call records one
span (name, start, end, parent span) in memory.  ``end_op`` restores every
original binding and turns that operation's spans into the per-layer
metrics listed in ``LAYER_METRICS``; ``write`` stores all spans once, at the
end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# module name -> layer name; util is a helper, only its file hash counts (as cli)
LAYER_MODULES = {
    "darl.cli": "cli",
    "darl.harness": "harness",
    "darl.lpft": "lpft",
    "darl.model": "model",
    "darl.ood_select": "ood_select",
    "darl.metrics": "metrics",
    "darl.dataset": "dataset",
}
EXTRA_TARGETS = {
    ("darl.util", "sha256_file"): "cli.sha256_file",
    ("darl.harness", "_occ_models"): "harness._occ_models",
}

# pipeline stage name -> span of the CLI command that runs it
CLI_STAGES = {
    "gen-data": "cli.cmd_gen_data",
    "pretrain": "cli.cmd_train:pretrain",
    "fit-ood": "cli.cmd_fit_ood",
    "select": "cli.cmd_select",
    "lp": "cli.cmd_train:lp",
    "ft": "cli.cmd_train:ft",
    "sweep-alpha": "cli.cmd_sweep_alpha",
    "eval": "cli.cmd_eval",
    "hist": "cli.cmd_hist",
}

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    **{f"cli.stage_s.{stage}": "s" for stage in CLI_STAGES},
    "cli.stage_remainder_s": "s",
    "cli.hash_s": "s",
    "cli.hash_mb_per_s": "MB/s",
    "harness.prepare_s": "s",
    "harness.ladder_s": "s",
    "harness.occ_s": "s",
    "harness.evaluate_s": "s",
    "harness.prepare_hits": "count",
    "harness.prepare_misses": "count",
    "lpft.pretrain_s": "s",
    "lpft.probe_s": "s",
    "lpft.finetune_s": "s",
    "lpft.sweep_s": "s",
    "lpft.loop_self_us": "us",
    "model.steps": "count",
    "model.grad_us": "us",
    "model.adam_us": "us",
    "model.step_us": "us",
    "model.forward_rows_per_s": "rows/s",
    "model.forward_rows": "count",
    "model.ckpt_s": "s",
    "ood_select.knn_s": "s",
    "ood_select.knn_rows_per_s": "rows/s",
    "ood_select.knn_index_rows": "count",
    "ood_select.mahal_rows_per_s": "rows/s",
    "ood_select.fit_s": "s",
    "ood_select.selected_rows": "count",
    "metrics.fit_thresholds_ms": "ms",
    "metrics.fit_thresholds_calls": "count",
    "metrics.compute_ms": "ms",
    "dataset.generate_s": "s",
    "dataset.write_mb_per_s": "MB/s",
    "dataset.bytes_written": "bytes",
    "dataset.load_mb_per_s": "MB/s",
    "dataset.bytes_read": "bytes",
    "dataset.merge_s": "s",
    "trace.op_s_traced": "s",
    "trace.op_s_untraced": "s",
    "trace.overhead_s": "s",
}


def _size_of_path(index):
    return lambda args, kwargs, result: os.path.getsize(args[index])


def _rows_of_arg(index):
    return lambda args, kwargs, result: int(args[index].shape[0])


# span name -> (counter name, how many units one call adds)
COUNTERS = {
    "cli.sha256_file": ("hash_bytes", _size_of_path(0)),
    "dataset.write_embeddings": ("bytes_written", _size_of_path(1)),
    "dataset.write_labels": ("bytes_written", _size_of_path(1)),
    "dataset.load_embeddings": ("bytes_read", _size_of_path(0)),
    "dataset.load_labels": ("bytes_read", _size_of_path(0)),
    "model.forward_batch": ("forward_rows", _rows_of_arg(1)),
    "ood_select.knn_distance_batch": ("knn_rows", _rows_of_arg(1)),
    "ood_select.mahalanobis_batch": ("mahal_rows", _rows_of_arg(1)),
    "ood_select.select_ood": (
        "selected_rows", lambda args, kwargs, result: int(result.selected.sum())
    ),
}


def _is_target(value, module_name: str) -> bool:
    if inspect.isfunction(value):
        return value.__module__ == module_name
    # functools.lru_cache wrappers (harness.prepare, harness.ladder_models)
    wrapped = getattr(value, "__wrapped__", None)
    return inspect.isfunction(wrapped) and wrapped.__module__ == module_name


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._op_start = 0
        self._counts: Counter = Counter()
        self._max_index_rows = 0
        self._originals: dict = {}  # original callable -> wrapper
        self._rebound: list[tuple] = []  # (namespace, key, original)

    def begin_op(self) -> None:
        """Install the wrappers and start recording one operation."""
        self._op_start = len(self.spans)
        self._counts.clear()
        self._max_index_rows = 0
        self._install()

    def end_op(self, op_s: float, cache_counts: dict) -> dict:
        """Remove the wrappers and return this operation's per-layer metrics."""
        self._uninstall()
        spans = self.spans[self._op_start :]
        total = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)  # span index -> time covered by children
        for name, start, end, parent in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= self._op_start:
                child[parent] += end - start
        self_time = defaultdict(float)
        for offset, (name, start, end, _) in enumerate(spans):
            self_time[name] += (end - start) - child[self._op_start + offset]
        return layer_metrics(
            total, self_time, calls, self._counts, self._max_index_rows,
            op_s, cache_counts,
        )

    def write(self, path) -> None:
        """Write every recorded span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(["index", "name", "start_s", "end_s", "parent"]) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps([i, name, start, end, parent]) + "\n")

    def _install(self) -> None:
        for module_name, layer in LAYER_MODULES.items():
            module = sys.modules[module_name]
            for name, value in list(vars(module).items()):
                if not name.startswith("_") and _is_target(value, module_name):
                    self._wrap(value, f"{layer}.{name}")
        for (module_name, name), span_name in EXTRA_TARGETS.items():
            self._wrap(getattr(sys.modules[module_name], name), span_name)
        for module_name, module in list(sys.modules.items()):
            if module_name == "darl" or module_name.startswith("darl."):
                self._rebind(vars(module), module)

    def _uninstall(self) -> None:
        for namespace, key, original in reversed(self._rebound):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)
        self._rebound.clear()
        self._originals.clear()

    def _rebind(self, names: dict, module) -> None:
        for key, value in list(names.items()):
            if key.startswith("__"):
                continue
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    if self._bound(v):
                        self._rebound.append((value, k, v))
                        value[k] = self._originals[v]
            elif self._bound(value):
                self._rebound.append((module, key, value))
                setattr(module, key, self._originals[value])

    def _bound(self, value) -> bool:
        try:
            return value in self._originals
        except TypeError:  # unhashable values are never wrapped functions
            return False

    def _wrap(self, fn, name: str) -> None:
        if fn in self._originals:
            return
        tracer = self
        counter = COUNTERS.get(name)
        stage_named = name == "cli.cmd_train"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"{name}:{args[1].stage}" if stage_named else name
            stack = tracer._stack
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                tracer._counts[counter[0]] += counter[1](args, kwargs, result)
                if name == "ood_select.knn_distance_batch":
                    tracer._max_index_rows = max(tracer._max_index_rows, args[0].rows)
            return result

        self._originals[fn] = traced


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _per_call(total: dict, calls: Counter, name: str, scale: float) -> float:
    return total[name] / calls[name] * scale if calls[name] else 0.0


def layer_metrics(total, self_time, calls, counts, index_rows, op_s, cache_counts) -> dict:
    """Per-layer metrics of one traced operation (``trace.*`` filled later)."""
    stages = {stage: total[span] for stage, span in CLI_STAGES.items()}
    stage_sum = sum(stages.values())
    steps = calls["model.adam_step"]
    write_s = total["dataset.write_embeddings"] + total["dataset.write_labels"]
    load_s = total["dataset.load_embeddings"] + total["dataset.load_labels"]
    out = {f"cli.stage_s.{stage}": t for stage, t in stages.items()}
    out.update({
        "cli.stage_remainder_s": op_s - stage_sum if stage_sum > 0 else 0.0,
        "cli.hash_s": total["cli.sha256_file"],
        "cli.hash_mb_per_s": _rate(counts["hash_bytes"] / 1e6, total["cli.sha256_file"]),
        "harness.prepare_s": total["harness.prepare"],
        "harness.ladder_s": total["harness.ladder_models"],
        "harness.occ_s": total["harness._occ_models"],
        "harness.evaluate_s": total["harness.evaluate_model"],
        "harness.prepare_hits": cache_counts["prepare_hits"],
        "harness.prepare_misses": cache_counts["prepare_misses"],
        "lpft.pretrain_s": total["lpft.pretrain_backbone"],
        "lpft.probe_s": total["lpft.linear_probe"],
        "lpft.finetune_s": total["lpft.full_finetune"],
        "lpft.sweep_s": total["lpft.alpha_sweep"],
        "lpft.loop_self_us": _rate(self_time["lpft.run_training"] * 1e6, steps),
        "model.steps": steps,
        "model.grad_us": _per_call(total, calls, "model.loss_and_grad", 1e6),
        "model.adam_us": _per_call(total, calls, "model.adam_step", 1e6),
        "model.step_us": _rate(total["lpft.run_training"] * 1e6, steps),
        "model.forward_rows_per_s": _rate(counts["forward_rows"], total["model.forward_batch"]),
        "model.forward_rows": counts["forward_rows"],
        "model.ckpt_s": total["model.save_checkpoint"] + total["model.load_checkpoint"],
        "ood_select.knn_s": total["ood_select.knn_distance_batch"],
        "ood_select.knn_rows_per_s": _rate(
            counts["knn_rows"], total["ood_select.knn_distance_batch"]
        ),
        "ood_select.knn_index_rows": index_rows,
        "ood_select.mahal_rows_per_s": _rate(
            counts["mahal_rows"], total["ood_select.mahalanobis_batch"]
        ),
        "ood_select.fit_s": total["ood_select.fit_gaussian"]
        + total["ood_select.build_index"] + total["ood_select.calibrate_thresholds"],
        "ood_select.selected_rows": counts["selected_rows"],
        "metrics.fit_thresholds_ms": _per_call(total, calls, "metrics.fit_grade_thresholds", 1e3),
        "metrics.fit_thresholds_calls": calls["metrics.fit_grade_thresholds"],
        "metrics.compute_ms": _per_call(total, calls, "metrics.compute_metrics", 1e3),
        "dataset.generate_s": total["dataset.generate_synthetic"]
        + total["dataset.generate_pretrain_superset"],
        "dataset.write_mb_per_s": _rate(counts["bytes_written"] / 1e6, write_s),
        "dataset.bytes_written": counts["bytes_written"],
        "dataset.load_mb_per_s": _rate(counts["bytes_read"] / 1e6, load_s),
        "dataset.bytes_read": counts["bytes_read"],
        "dataset.merge_s": total["dataset.merge_datasets"],
    })
    return out
