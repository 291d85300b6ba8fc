"""Byte-identity guard for every benchmark job whose argv is fixed: the
sha256 of stdout of an in-process run, held to the benchmark's stdout
reference. Any change to a report's bytes, its key order or its exit code
fails here."""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from evoalg.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
REFERENCE = os.path.join(PERFBENCH, "reference.json")

# benchmark job label: argv; a seeded job's reference is a list indexed by
# the seed's input variant, and these runs take seed 0
JOBS = {
    "verify-thm22": ["verify", "--suite", "thm22"],
    "verify-thm41": ["verify", "--suite", "thm41"],
    "verify-thm32": ["verify", "--suite", "thm32"],
    "census-GF3-n3-threads1": ["census", "--field", "GF(3)", "--n", "3", "--threads", "1"],
    "census-GF7-n4-random": [
        "census", "--field", "GF(7)", "--n", "4", "--mode", "random:1500", "--seed", "0",
    ],
}

# the aut and iso jobs read input files that their workload's plan builds;
# iso-twoparam pairs are never isomorphic, so those jobs exit 4
PLANNED = {
    "aut": ["aut-K4", "aut-K5", "aut-K6", "aut-K5-GF7-moved", "aut-cycle4-Qz15"],
    "iso": ["iso-twoparam6", "iso-twoparam7", "iso-cycle3-Qz7", "iso-cycle4-Qz15"],
}


def _reference(label):
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)["jobs"][label]
    return want[0] if isinstance(want, list) else want


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _stdout_hash(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out.encode("utf-8")
    return code, hashlib.sha256(out).hexdigest()


@pytest.mark.parametrize("label", sorted(JOBS))
def test_stdout_matches_the_benchmark_reference(capsys, label):
    assert _stdout_hash(capsys, JOBS[label]) == (0, _reference(label))


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """Each workload's seed-0 input files, built once in a temporary
    directory as the benchmark builds them: workload -> (workdir, jobs)."""
    workloads = _workloads()
    built = {}
    cwd = os.getcwd()
    try:
        for workload, labels in PLANNED.items():
            plan = workloads.plan_for(workload, 0)
            workdir = str(tmp_path_factory.mktemp(workload))
            os.chdir(workdir)
            for argv in plan.makes:
                assert main(list(argv)) == 0
            for build in plan.derived:
                build(workdir)
            jobs = {job.label: job.argv for job in plan.jobs}
            assert sorted(jobs) == sorted(labels)
            built[workload] = (workdir, jobs)
    finally:
        os.chdir(cwd)
    return built


@pytest.mark.parametrize("label", [label for labels in PLANNED.values() for label in labels])
def test_planned_job_matches_the_benchmark_reference(planned, capsys, monkeypatch, label):
    workdir, jobs = planned[label.split("-", 1)[0]]
    monkeypatch.chdir(workdir)
    code = 4 if label.startswith("iso-twoparam") else 0
    assert _stdout_hash(capsys, jobs[label]) == (code, _reference(label))
