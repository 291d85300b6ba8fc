"""The benchmark's answer checker has its own unittest suite next to it; run
it here so a checker that drifts from the CLI output fails the test suite.
The tracer's table of wrapped functions is held to the package the same way."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_checker_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_tracer_targets_resolve():
    # `run.py --trace 1` wraps each TARGETS entry by name; read the table
    # from the source, without running or changing the tracer, and resolve
    # every entry the way its `install` does
    with open(os.path.join(REPO, "perfbench", "tracing.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    targets = ast.literal_eval(table)
    assert len(targets) == 24
    for name, (module_name, path, how) in targets.items():
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = inspect.getattr_static(owner, part)
        assert callable(inspect.getattr_static(owner, attr)), name
        assert how in ("span", "gen", "count"), name
