"""Byte-identity guard for `verify` and `census`: the sha256 of stdout of an
in-process run, held to the benchmark's stdout reference. Any change to a
report's bytes, its key order or its exit code fails here."""

import hashlib
import json
import os

import pytest

from evoalg.cli import main

REFERENCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "reference.json"
)

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


@pytest.mark.parametrize("label", sorted(JOBS))
def test_stdout_matches_the_benchmark_reference(capsys, label):
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)["jobs"][label]
    if isinstance(want, list):
        want = want[0]
    code = main(JOBS[label])
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, hashlib.sha256(out).hexdigest()) == (0, want)
