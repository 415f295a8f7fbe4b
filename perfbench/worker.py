"""Benchmark worker: runs one darl workload's operations in this process.

Started by ``run.py`` in a fresh interpreter per workload, from the root of
a darl checkout, with ``src`` on ``PYTHONPATH`` and the BLAS thread count
already capped.  It times whole operations through darl's public entry
points (``darl.cli.main`` and ``darl.harness``), checks every operation's
outputs against reference digests, and writes its results as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULTS.json [--smoke] [--refs PATH]
    python3 perfbench/worker.py --probe          # import only (set-up time)
    python3 perfbench/worker.py --workload NAME --record-refs PATH \
        --seeds 0-31 [--smoke]                   # store reference digests
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import darl
from darl import cli, harness
from darl.dataset import SyntheticConfig
from darl.lpft import StagePlan

HERE = Path(__file__).resolve().parent
WORK = Path.cwd() / ".perfbench-work"
DEFAULT_REFS = HERE / "refs.json"
WORKLOADS = ("pipeline", "selection", "ladder")

# the harness caches that would otherwise turn a repeated ladder op into hits
CACHED = {
    "prepare": harness.prepare,
    "ladder_models": harness.ladder_models,
    "_occ_models": harness._occ_models,
}

# CLI config files: full size for the timed workloads, tiny for --smoke
CLI_CONFIGS = {
    "pipeline": {},
    "selection": {"corpus": {"pool_size": 200_000, "train_size": 20_000}},
}
SMOKE_CORPUS = {
    "dims": 8, "id_cluster_count": 3, "ood_cluster_count": 2,
    "train_size": 400, "val_size": 200, "test_size": 200, "pool_size": 1200,
    "pretrain_size": 150, "pretrain_extra_clusters": 2,
}
SMOKE_PLAN = {"pretrain_epochs": 4, "lp_epochs": 6, "ft_epochs": 3, "batch_size": 32}
SELECTION_STAGES = (["gen-data"], ["train", "--stage", "pretrain"], ["fit-ood"], ["select"])


class OpFailed(Exception):
    """An operation ran but its outputs are wrong or missing."""


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_path(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def origin_counts(tsv: Path) -> tuple[int, int]:
    """(rows, rows whose origin token is OOD) of a darl label TSV."""
    lines = tsv.read_text(encoding="utf-8").splitlines()[1:]
    return len(lines), sum(1 for line in lines if line.endswith("\tOOD"))


def selection_quality(selected: int, selected_ood: int, pool_ood: int) -> dict:
    return {
        "sel_precision": selected_ood / selected if selected else 0.0,
        "sel_recall": selected_ood / pool_ood if pool_ood else 0.0,
    }


def run_dir_selection_quality(run_dir: Path) -> dict:
    selected, selected_ood = origin_counts(run_dir / "data" / "d_aug.tsv")
    _, pool_ood = origin_counts(run_dir / "data" / "select_truth.tsv")
    return selection_quality(selected, selected_ood, pool_ood)


@dataclass
class Workload:
    """One workload: how to run an op, fingerprint its outputs, and score it."""

    name: str
    seed: int
    smoke: bool
    config_path: Path | None = None
    experiment: harness.ExperimentConfig | None = None

    @property
    def ref_key(self) -> str:
        return f"smoke-{self.name}" if self.smoke else self.name

    def prepare_run(self, work: Path) -> None:
        if self.name == "ladder":
            if self.smoke:
                self.experiment = harness.ExperimentConfig(
                    corpus=SyntheticConfig(**SMOKE_CORPUS), plan=StagePlan(**SMOKE_PLAN)
                )
            else:
                self.experiment = harness.ExperimentConfig()
            return
        config = dict(CLI_CONFIGS[self.name])
        if self.smoke:
            config = {"corpus": SMOKE_CORPUS, "plan": SMOKE_PLAN}
        self.config_path = work / f"{self.name}.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")

    def op(self, run_dir: Path):
        """The timed operation; returns what ``digest``/``quality`` need."""
        if self.name == "ladder":
            for fn in CACHED.values():
                fn.cache_clear()
            table = harness.run_ablation(self.experiment, self.seed)
            return table, harness.occ_effect(self.experiment, self.seed)
        common = ["--config", str(self.config_path), "--run-dir", str(run_dir),
                  "--seed", str(self.seed)]
        stages = [["pipeline"]] if self.name == "pipeline" else SELECTION_STAGES
        for stage in stages:
            code = cli.main(stage + common)
            if code != 0:
                raise OpFailed(f"darl {' '.join(stage)} exited with code {code}")
        return run_dir

    def digest(self, output, run_dir: Path) -> str:
        """Reference fingerprint of the op's outputs (see ``refs.json``)."""
        if self.name == "pipeline":
            manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
            for name, recorded in manifest.items():
                if sha256_path(run_dir / name) != recorded:
                    raise OpFailed(f"manifest entry {name} does not match the file")
            if "metrics.tsv" not in manifest or "hist.tsv" not in manifest:
                raise OpFailed("pipeline manifest lacks the eval/hist artifacts")
            return sha256_bytes(json.dumps(manifest, sort_keys=True).encode())
        if self.name == "selection":
            parts = [f"{name}={sha256_path(run_dir / name)}"
                     for name in ("score_report.tsv", "data/d_aug.emb", "data/d_aug.tsv")]
            return sha256_bytes("\n".join(parts).encode())
        table, effect = output
        path = run_dir / "ablation.tsv"
        run_dir.mkdir(parents=True, exist_ok=True)
        harness.write_ablation_tables([table], path, self.experiment)
        text = path.read_text(encoding="utf-8") + (
            f"occ\t{effect.seed}\t{effect.overlap_with:.4f}\t{effect.overlap_without:.4f}"
            f"\t{effect.wr_mid_with:.4f}\t{effect.wr_mid_without:.4f}\n"
        )
        return sha256_bytes(text.encode())

    def quality(self, output, run_dir: Path) -> dict:
        """The user-visible quality figures of one op (outside the timing)."""
        if self.name == "selection":
            return run_dir_selection_quality(run_dir)
        if self.name == "pipeline":
            rows = {}
            for line in (run_dir / "metrics.tsv").read_text(encoding="utf-8").splitlines():
                cells = line.split("\t")
                if cells[0] in ("id", "ood"):
                    rows[cells[0]] = float(cells[1])
            return {"f1_id": rows["id"], "f1_ood": rows["ood"],
                    **run_dir_selection_quality(run_dir)}
        table, _ = output
        deployed = table.rows[-1]
        prep = CACHED["prepare"](self.experiment, self.seed)
        selected = prep.report.selected
        is_ood = prep.select_truth.origin == 1
        return {
            "f1_id": deployed.f1_id,
            "f1_ood": deployed.f1_ood,
            **selection_quality(
                int(selected.sum()), int((selected & is_ood).sum()), int(is_ood.sum())
            ),
        }


@dataclass
class OpResult:
    seconds: float
    ok: bool
    traced: bool = False
    error: str = ""
    digest: str = ""
    quality: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


def cache_counts() -> dict:
    info = CACHED["prepare"].cache_info()
    return {"prepare_hits": info.hits, "prepare_misses": info.misses}


def run_op(workload: Workload, work: Path, index: int, tracer=None) -> OpResult:
    """One timed op; with a tracer, tracing is installed for this op alone."""
    run_dir = work / f"op-{index}"
    gc.collect()  # start every op from the same collector state
    layers = {}
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        try:
            output = workload.op(run_dir)
            seconds = time.perf_counter() - start
        finally:
            if tracer is not None:
                layers = tracer.end_op(time.perf_counter() - start, cache_counts())
        return OpResult(
            seconds, True, traced=tracer is not None,
            digest=workload.digest(output, run_dir),
            quality=workload.quality(output, run_dir), layers=layers,
        )
    except Exception as exc:  # any failure of one op is counted, not fatal
        error = traceback.format_exception_only(exc)[-1].strip()
        return OpResult(time.perf_counter() - start, False, traced=tracer is not None,
                        error=error)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_ops(workload: Workload, work: Path, deadline: float, tracer=None) -> list[OpResult]:
    """Run ops until the next one would likely end after ``deadline``.

    With a tracer, ops alternate untraced and traced (at least one of each),
    so that drift in machine speed falls on both sides of the overhead.
    """
    results = []
    while True:
        traced = tracer is not None and len(results) % 2 == 1
        results.append(run_op(workload, work, len(results), tracer if traced else None))
        typical = statistics.median(r.seconds for r in results)
        enough = tracer is None or len(results) >= 2
        if enough and time.perf_counter() + typical > deadline:
            return results


def platform_fingerprint() -> dict:
    """What bitwise reference digests depend on besides darl's own code."""
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    features = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    return {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "cpu_features": sha256_bytes(features.encode())[:16],
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "darl": darl.__version__,
    }


def load_refs(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def check_digests(results: list[OpResult], workload: Workload, refs: dict) -> str:
    """Mark ops whose digest differs from the reference; return the reference kind.

    Stored digests apply only on the platform they were recorded on.  With
    none for this seed or platform, every op must match the run's first op.
    """
    expected = None
    if refs.get("platform") == platform_fingerprint():
        expected = refs.get(workload.ref_key, {}).get(str(workload.seed))
    kind = "stored" if expected is not None else "first-op"
    for r in results:
        if not r.ok:
            continue
        if expected is None:
            expected = r.digest
        if r.digest != expected:
            r.ok = False
            r.error = f"output digest {r.digest[:12]} != reference {expected[:12]}"
    return kind


def median_of(results, key) -> dict:
    """Per-name median of a dict field over ops; the low median is a real sample."""
    names = sorted({n for r in results for n in getattr(r, key)})
    return {n: statistics.median_low(getattr(r, key)[n] for r in results
                                     if n in getattr(r, key)) for n in names}


def measure(args) -> dict:
    workload = Workload(args.workload, args.seed, args.smoke)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        workload.prepare_run(work)
        results = run_ops(workload, work, time.perf_counter() + args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}{'-smoke' if args.smoke else ''}.jsonl")
    reference = check_digests(results, workload, load_refs(Path(args.refs)))
    untraced = [r for r in results if not r.traced]
    traced = [r for r in results if r.traced]
    good = [r for r in untraced if r.ok]
    good_traced = [r for r in traced if r.ok]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "reference": reference,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "errors": [r.error for r in results if not r.ok],
        "op_times": [r.seconds for r in untraced],
        "op_s": statistics.median(r.seconds for r in good) if good else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality": median_of([r for r in results if r.ok], "quality"),
        "environment": environment(),
    }
    if args.trace:
        layers = median_of(good_traced, "layers")
        if good_traced and good:
            traced_s = statistics.median(r.seconds for r in good_traced)
            layers["trace.op_s_traced"] = traced_s
            layers["trace.op_s_untraced"] = out["op_s"]
            layers["trace.overhead_s"] = traced_s - out["op_s"]
        out["layers"] = layers
        out["traced_op_times"] = [r.seconds for r in traced]
    return out


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_refs(args) -> None:
    """Run one op per seed and store its digest as that seed's reference."""
    path = Path(args.record_refs)
    refs = load_refs(path)
    platform_now = platform_fingerprint()
    if refs.get("platform", platform_now) != platform_now:
        raise SystemExit(f"{path} holds digests from another platform")
    refs["platform"] = platform_now
    work = WORK / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for seed in parse_seeds(args.seeds):
            workload = Workload(args.workload, seed, args.smoke)
            workload.prepare_run(work)
            result = run_op(workload, work, 0)
            if not result.ok:
                raise SystemExit(f"seed {seed}: {result.error}")
            refs.setdefault(workload.ref_key, {})[str(seed)] = result.digest
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"{workload.ref_key} seed {seed}: {result.digest} "
                  f"({result.seconds:.2f} s)", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--refs", default=str(DEFAULT_REFS))
    parser.add_argument("--out")
    parser.add_argument("--record-refs", metavar="PATH")
    parser.add_argument("--seeds", default="0")
    args = parser.parse_args(argv)
    if args.probe:
        return 0
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):  # CLI progress
        if args.record_refs:
            record_refs(args)
            return 0
        result = measure(args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
