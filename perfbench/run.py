"""darl benchmark: time one workload from outside and print its metrics.

Run from the root of a darl checkout (the directory holding ``src/darl``):

    python3 perfbench/run.py --workload pipeline|selection|ladder|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Each workload runs in its own worker process (``worker.py``) with the BLAS
thread count capped at the number of usable cores, so set-up time and peak
memory belong to that workload alone.  ``--trace 0`` measures the end-to-end
metrics with no tracing installed; ``--trace 1`` adds a traced phase and
reports the per-layer metrics instead.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs tiny configs
in seconds (see ``selftest.py``).  Scratch files, traces and results go to
``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from tracer import LAYER_METRICS  # noqa: E402  (stdlib only; needs the line above)

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline", "selection", "ladder")
SETUP_SAMPLES = 5
# end-to-end metrics of --trace 0, with units (BENCHMARK.json lists the gated ones)
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# printed with the end-to-end metrics where the workload produces them
REPORTED = {
    "fail_frac": "ratio",
    "f1_id": "ratio",
    "f1_ood": "ratio",
    "sel_precision": "ratio",
    "sel_recall": "ratio",
}


def bench_env(root: Path, work: Path) -> dict:
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "TMPDIR": str(work / "tmp"),
        "OPENBLAS_NUM_THREADS": nproc,
        "OMP_NUM_THREADS": nproc,
        "MKL_NUM_THREADS": nproc,
    })
    return env


def source_identity(root: Path) -> dict:
    """The git sha when the checkout is a repository, and a hash of ``src``."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unavailable"
    except OSError:
        sha = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "darl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh interpreters that import numpy, scipy and darl."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--probe"],
                       env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def run_workload(args, workload: str, env: dict, work: Path, timeout: float) -> dict:
    setup = measure_setup(env)
    out = work / f"worker-{workload}-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), "--refs", args.refs]
    if args.smoke:
        cmd.append("--smoke")
    try:
        subprocess.run(cmd, env=env, check=True, timeout=timeout)
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)
    result["setup_samples"] = setup
    result["setup_s"] = statistics.median(setup)
    return result


def end_to_end(result: dict) -> dict:
    attempted, failed = result["attempted"], result["failed"]
    op_s = result["op_s"]
    if op_s is None:  # every op failed; report the time they took anyway
        op_s = statistics.median(result["op_times"])
    return {
        "setup_s": result["setup_s"],
        "op_s": op_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
        "fail_frac": failed / attempted,
        **result["quality"],
    }


def report(result: dict, metrics: dict, units: dict) -> list[str]:
    env = result["environment"]
    times = result["op_times"]
    lines = [
        f"workload {result['workload']}{' (smoke)' if result['smoke'] else ''} "
        f"seed {result['seed']}: {result['attempted']} ops, {result['failed']} failed, "
        f"reference digests {result['reference']}",
        f"  environment: git {env['git_sha'][:12]} src {env['src_sha256']} "
        f"nproc {env['nproc']} python {env['python']} numpy {env['numpy']} "
        f"scipy {env['scipy']} blas {env['blas_vendor']} ({env['blas_config']}) "
        f"threads {env['blas_threads']}",
        f"  untraced op times (s): {', '.join(f'{t:.3f}' for t in times)}",
    ]
    if "traced_op_times" in result:
        traced = ", ".join(f"{t:.3f}" for t in result["traced_op_times"])
        lines.append(f"  traced op times (s): {traced}")
    lines += [f"  error: {e}" for e in result["errors"]]
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "n/a (not produced by this workload)" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<28} {shown} {unit if value is not None else ''}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs that run in seconds")
    parser.add_argument("--refs", default=str(HERE / "refs.json"),
                        help="reference digests (default: %(default)s)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "darl" / "__init__.py").is_file():
        print("perfbench: run from the root of a darl checkout "
              "(no src/darl/__init__.py here)", file=sys.stderr)
        return 2
    work = root / ".perfbench-work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    (work / "results").mkdir(exist_ok=True)
    env = bench_env(root, work)
    identity = source_identity(root)
    started = time.perf_counter()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    units = LAYER_METRICS if args.trace else {**END_TO_END, **REPORTED}
    attempted = failed = 0
    metrics: dict = {}
    for workload in workloads:
        # one driver call must end within 180 s, set-up and worker included
        timeout = 170.0 - (time.perf_counter() - started)
        if args.workload == "all" or args.smoke:
            timeout = 900.0
        result = run_workload(args, workload, env, work, timeout)
        result["environment"].update(identity)
        values = result.get("layers", {}) if args.trace else end_to_end(result)
        print("\n".join(report(result, values, units)))
        result["metrics"] = {n: {"value": values[n], "unit": u}
                             for n, u in units.items() if n in values}
        name = f"{workload}{'-smoke' if args.smoke else ''}-trace{args.trace}.json"
        (work / "results" / name).write_text(json.dumps(result, indent=1), encoding="utf-8")
        attempted += result["attempted"]
        failed += result["failed"]
        gated = units if args.trace else END_TO_END
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({f"{prefix}{n}": {"value": values.get(n, 0.0), "unit": u}
                        for n, u in gated.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
