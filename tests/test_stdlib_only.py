"""The package runs on the standard library alone, and keeps exact rationals
on ints: no job loads ``fractions`` (nor the ``decimal`` and ``numbers``
modules that it imports)."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import evoalg

UNLOADED = ("fractions", "decimal", "numbers")


def test_every_import_is_stdlib_or_evoalg():
    package = pathlib.Path(evoalg.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    outside, unloaded = [], []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "evoalg" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
                if top in UNLOADED:
                    unloaded.append(f"{path.name}: {name}")
    assert outside == []
    assert unloaded == []


# Runs main in one process for each command the benchmark uses; pytest
# itself imports fractions, so the check needs a fresh interpreter.
JOBS_SCRIPT = r"""
import json, os, sys
from evoalg.cli import main

os.chdir(sys.argv[1])
Z7 = ("--field", "Q(zeta_7)")
jobs = [
    ("make", "--family", "complete:n=4", "--out", "k4.json"),
    ("aut", "--in", "k4.json"),
    ("make", "--family", "cycle:n=3,b=27/2*z^6;-1/3;2*z", *Z7, "--out", "c7.json"),
    ("aut", "--in", "c7.json"),
    ("make", "--family", "twoparam:n=4,a=1,b=3/2", "--out", "tpa.json"),
    ("make", "--family", "twoparam:n=4,a=2,b=5/2", "--out", "tpb.json"),
    ("iso", "--in", "tpa.json", "--b", "tpb.json"),
    ("make", "--family", "cycle:n=3", *Z7, "--out", "ones7.json"),
    ("make", "--family", "cycle:n=3,b=1/12*z;-27/2;8/9*z^3", *Z7, "--out", "scaled7.json"),
    ("iso", "--in", "ones7.json", "--b", "scaled7.json"),
    ("census", "--field", "GF(3)", "--n", "2"),
    ("verify", "--suite", "thm32"),
]
codes = []
for argv in jobs:
    codes.append(main(list(argv)))
    sys.stdout.flush()
loaded = sorted(m for m in ("fractions", "decimal", "numbers") if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_benchmark_commands_load_no_fractions(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(evoalg.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", JOBS_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    summary = json.loads(lines[-1])
    # iso exits 4 on a non-isomorphic pair and 0 on an isomorphic one
    assert summary["codes"] == [0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0]
    assert summary["loaded"] == []
    reports = [json.loads(line) for line in lines[:-1]]
    reports = [r for r in reports if r["command"] != "make"]
    assert [r["command"] for r in reports] == ["aut", "aut", "iso", "iso", "census", "verify"]
    assert reports[2]["status"] == "non-isomorphic"
    assert reports[3]["status"] == "isomorphic"
