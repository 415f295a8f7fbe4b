"""Self-test of the benchmark on tiny configs; takes about a minute.

    python3 perfbench/selftest.py      # from the root of a darl checkout

For each workload, in smoke mode, it checks that:

- every end-to-end metric is printed with a unit, ``fail_frac`` is 0, and
  the workload's quality metrics are present;
- the traced run reports every per-layer metric with a unit;
- a deliberately altered reference digest makes the op fail, so that
  ``fail_frac`` rises above 0 and ``correct`` turns false;

and that the benchmark refuses to run, without printing a result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import run  # noqa: E402  (sibling module; needs the line above)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work" / "selftest"
SEED = 1
QUALITY = {
    "pipeline": ("f1_id", "f1_ood", "sel_precision", "sel_recall"),
    "selection": ("sel_precision", "sel_recall"),
    "ladder": ("f1_id", "f1_ood", "sel_precision", "sel_recall"),
}


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(SEED),
           "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def saved_result(workload: str, trace: int) -> dict:
    path = ROOT / ".perfbench-work" / "results" / f"{workload}-smoke-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_units(metrics: dict, names, where: str) -> list[str]:
    problems = []
    for name in names:
        entry = metrics.get(name)
        if entry is None or not entry.get("unit") or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{where}: metric {name} missing or without unit")
    return problems


def check_workload(workload: str) -> list[str]:
    problems = []
    where = f"{workload} (smoke)"
    result = last_json(bench("--workload", workload, "--smoke"))
    problems += check_units(result["metrics"], run.END_TO_END, where)
    saved = saved_result(workload, 0)["metrics"]
    problems += check_units(saved, ("fail_frac", *QUALITY[workload]), where)
    if not result["correct"] or saved.get("fail_frac", {}).get("value") != 0:
        problems.append(f"{where}: ops failed at this commit: {result}")

    traced = last_json(bench("--workload", workload, "--smoke", "--trace", "1"))
    problems += check_units(traced["metrics"], run.LAYER_METRICS, f"{where} traced")

    # a reference digest that cannot match must fail every op
    refs = WORK / "refs.json"
    refs.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--smoke",
         "--seeds", str(SEED), "--record-refs", str(refs)],
        env=run.bench_env(ROOT, ROOT / ".perfbench-work"), check=True, timeout=600,
        stdout=subprocess.DEVNULL,
    )
    table = json.loads(refs.read_text(encoding="utf-8"))
    digest = table[f"smoke-{workload}"][str(SEED)]
    table[f"smoke-{workload}"][str(SEED)] = ("0" if digest[0] != "0" else "1") + digest[1:]
    refs.write_text(json.dumps(table), encoding="utf-8")
    altered = last_json(bench("--workload", workload, "--smoke", "--refs", str(refs)))
    fail_frac = saved_result(workload, 0)["metrics"]["fail_frac"]["value"]
    if altered["correct"] or altered["failed"] == 0 or not fail_frac > 0:
        problems.append(f"{where}: altered reference digest went unnoticed: {altered}")
    return problems


def check_manifest() -> list[str]:
    """BENCHMARK.json lists exactly the metrics the benchmark emits."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.LAYER_METRICS)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        if listed != dict(emitted):
            problems.append(f"BENCHMARK.json {key} differs from the emitted metrics")
    return problems


def check_bare_directory() -> list[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "pipeline", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: expected a failure without output, got "
                f"exit {proc.returncode} and {proc.stdout!r}"]
    return []


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        problems = check_manifest() + check_bare_directory()
        for workload in run.WORKLOADS:
            problems += check_workload(workload)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
