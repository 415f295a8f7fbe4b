"""Checks on the package source: no dead imports, no private cross-module imports,
no import that every process pays for and few need."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "darl").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree: ast.Module):
    """(bound name, imported name, is package-internal) per import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, False
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            internal = node.level > 0 or (node.module or "").startswith("darl")
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, internal


def _used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = sorted(bound for bound, _, _ in _imports(tree) if bound not in used)
    assert unused == [], f"{path.name} imports names it never uses"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    private = sorted(
        name
        for _, name, internal in _imports(_tree(path))
        if internal and name.startswith("_") and not name.startswith("__")
    )
    assert private == [], f"{path.name} imports another module's private names"


def _public_api(path: Path):
    """(qualified name, bare name, is a method) of each public def and class."""
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, False
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def test_public_api_has_a_non_test_caller():
    # code that only tests reach, the acceptance gate included, is dead weight
    trees = [_tree(path) for path in SOURCES]
    attrs = {n.attr for t in trees for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    names = attrs | {n.name for t in trees for n in ast.walk(t) if isinstance(n, ast.alias)}
    names = names.union(*map(_used_names, trees))
    unused = sorted(
        qualified
        for path in SOURCES
        for qualified, name, is_method in _public_api(path)
        if name not in (attrs if is_method else names)
    )
    assert unused == [], "public API that only tests reach"


def test_cli_writes_only_through_the_run():
    # every run-directory write goes through _Run.save (a .tmp file renamed
    # into place), so an interrupted stage cannot leave a half-written artifact
    cli = next(path for path in SOURCES if path.name == "cli.py")
    run = next(
        node for node in _tree(cli).body
        if isinstance(node, ast.ClassDef) and node.name == "_Run"
    )
    lines = cli.read_text(encoding="utf-8").splitlines()
    outside = lines[: run.lineno - 1] + lines[run.end_lineno :]
    writes = re.compile(r"write_text|write_bytes|\bopen\(|os\.replace")
    assert [line for line in outside if writes.search(line)] == []


def _darl_modules(tree: ast.Module) -> set[str]:
    """The darl modules a source file imports from, by bare name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("darl")):
            module = (node.module or "").removeprefix("darl").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names if alias.name.startswith("darl")}
    return found


def test_model_and_ood_select_import_only_errors_and_util():
    # the scorer and the selector work on plain arrays; the data, training
    # and grading layers build on them, never the other way round
    leaves = {path.name: _darl_modules(_tree(path)) for path in SOURCES
              if path.name in ("model.py", "ood_select.py")}
    assert {name: found - {"errors", "util"} for name, found in leaves.items()} == {
        "model.py": set(), "ood_select.py": set()
    }


def _budget_reads(tree: ast.Module) -> list[str]:
    """``*_epochs``/``*_lr`` attributes read, and such names built for ``getattr``."""
    budget = re.compile(r"_(epochs|lr)$")
    reads = [
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and budget.search(n.attr)
    ]
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "getattr":
            named = call.args[1:2]
            reads += [
                ast.unparse(arg) for arg in named
                for part in ast.walk(arg)
                if isinstance(part, ast.Constant) and budget.search(str(part.value))
            ]
    return reads


def test_only_lpft_reads_a_stage_budget():
    # lpft.run_training looks up each stage's epochs and learning rate in
    # lpft.STAGES; a caller that picks a budget itself would bypass the table
    reads = {path.name: _budget_reads(_tree(path)) for path in SOURCES if path.name != "lpft.py"}
    assert {name: found for name, found in reads.items() if found} == {}


def test_only_evaluate_model_grades():
    # harness.evaluate_model fits grade thresholds on ID validation scores and
    # applies them unchanged to the other sets; the blend sweep, the ladder,
    # the budget sweep and `darl eval` grade through it, so no second copy of
    # that rule can drift from it
    grading = {"fit_grade_thresholds", "compute_metrics"}
    found = {}
    for path in SOURCES:
        if path.name == "metrics.py":
            continue
        tree = _tree(path)
        grader = set()
        if path.name == "harness.py":
            evaluate = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "evaluate_model"
            )
            grader = {id(node) for node in ast.walk(evaluate)}
        outside = [node for node in ast.walk(tree) if id(node) not in grader]
        named = {n.id for n in outside if isinstance(n, ast.Name)}
        named |= {n.attr for n in outside if isinstance(n, ast.Attribute)}
        if path.name != "harness.py":
            named |= {name for _, name, _ in _imports(tree)}
        if named & grading:
            found[path.name] = sorted(named & grading)
    assert found == {}


def test_only_distances_scores():
    # harness._distances is the one scorer, for calibration and selection
    # alike; it works in blocks and never holds the pool's representations,
    # so a second caller of either distance could not drift from it
    scoring = {"mahalanobis_batch", "knn_distance_batch"}
    callers = []
    for path in SOURCES:
        tree = _tree(path)
        scorer = set()
        if path.name == "harness.py":
            distances = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_distances"
            )
            scorer = {id(node) for node in ast.walk(distances)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in scorer:
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in scoring:
                    callers.append(f"{path.name}:{node.lineno} {name}")
    assert callers == []


def test_scipy_loads_at_the_first_mahalanobis_distance():
    # scipy.linalg is most of the CLI's start-up time and only
    # mahalanobis_batch uses it, so importing darl must not load scipy
    probe = "\n".join([
        "import sys",
        "import numpy as np",
        "import darl.cli, darl.harness",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        "from darl.ood_select import fit_gaussian, mahalanobis_batch",
        "mahalanobis_batch(fit_gaussian(np.eye(3)), np.zeros(3))",
        "print('scipy.linalg' in sys.modules)",
    ])
    assert _run_probe(probe) == ["[]", "True"]


def test_the_process_pool_loads_at_the_first_parallel_call():
    # concurrent.futures adds ~10 ms to start-up, and only util.parallel uses it
    probe = "\n".join([
        "import sys",
        "import darl.cli, darl.harness",
        "print('concurrent.futures' in sys.modules)",
    ])
    assert _run_probe(probe) == ["False"]


def _run_probe(probe: str) -> list[str]:
    """The stdout lines of ``python -c probe`` with ``darl`` importable."""
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()
