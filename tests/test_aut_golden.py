"""Byte-identity guard for `aut`: the sha256 of its stdout and its exit code
on fixed inputs, pinned from the implementation before monomial groups were
stored as permutations of the basis orbit. Any change to a report's bytes,
its key order or its exit code fails here."""

import hashlib
import json

import pytest

from evoalg.cli import main

MOVED_K5_GF7 = [
    ["0", "5", "5", "5", "3"],
    ["5", "0", "6", "6", "5"],
    ["2", "1", "0", "1", "2"],
    ["2", "1", "1", "0", "2"],
    ["3", "5", "5", "5", "0"],
]

# label: ((family, field) for `make` or None, matrix JSON or None, exit code,
# sha256 of stdout)
GOLDEN = {
    "K4": (
        ("complete:n=4", "Q"),
        None,
        0,
        "e7d42850ba326ebb09c700149ca0d88b27592e0703cf42421dfd011c48265511",
    ),
    "K5": (
        ("complete:n=5", "Q"),
        None,
        0,
        "55db7707527b531b54a437d96a8ab82dfe3f62f899f0433627c83029717c6959",
    ),
    "K6": (
        ("complete:n=6", "Q"),
        None,
        0,
        "318fa6b9316f6a265e6cdf3a41357e042fd55b785b31def4e1b7f0ad65ca0815",
    ),
    "K7": (
        ("complete:n=7", "Q"),
        None,
        0,
        "61a6146bdbc0d7ae4f52ac3b5323dac66bc700ee37db8b861823410eb0a25bbb",
    ),
    "cycle4-Qz15": (
        ("cycle:n=4,b=1/6*z^3;2/9*z^4;12*z^5;1/3*z^10", "Q(zeta_15)"),
        None,
        0,
        "f4df2e6a2f5c09b4a6c8e776e10e2d68a82eb3eec716695d6bfbcc32799bc888",
    ),
    "K5-GF7-moved": (
        None,
        {"field": "GF(7)", "entries": MOVED_K5_GF7},
        0,
        "9c94100f7b194ed8e4d6980dda51d1157103cf25d739fc2a20ef90617c3b76c5",
    ),
    # a partial group: the swap's cycle equation x^3 = 2 + z has an
    # irrational right-hand side and stays open
    "partial-Qz3": (
        None,
        {"field": "Q(zeta_3)", "entries": [["0", "1"], ["2 + z", "0"]]},
        3,
        "3c22fd37e327826c61aaf150cd06b4a5ff19d929375e2c332c1d31d7df890daa",
    ),
    # decided by a discrete log: the swap does not lift, since 1/2 has no
    # cube root mod 1000003, so Aut = D = C3
    "swap-GF1000003": (
        None,
        {"field": "GF(1000003)", "entries": [["0", "1"], ["2", "0"]]},
        0,
        "65bf991e76eaf2ae544c8461cb1c359c24f033eb81f603741140403ee2c94bfc",
    ),
}


def aut_bytes(tmp_path, capsys, label):
    make, matrix, _, _ = GOLDEN[label]
    path = tmp_path / f"{label}.json"
    if make is not None:
        family, field = make
        assert main(["make", "--family", family, "--field", field, "--out", str(path)]) == 0
    else:
        path.write_text(json.dumps({"n": len(matrix["entries"]), **matrix}))
    capsys.readouterr()
    code = main(["aut", "--in", str(path)])
    return code, capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_aut_stdout_is_byte_identical(tmp_path, capsys, label):
    code, out = aut_bytes(tmp_path, capsys, label)
    _, _, want_code, want_sha = GOLDEN[label]
    assert (code, hashlib.sha256(out).hexdigest()) == (want_code, want_sha)
