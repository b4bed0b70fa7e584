"""Report bytes pinned across commits.

Each case runs one CLI command with ``--json`` and compares the sha256 of
its stdout with a recorded value.  The input path (which differs per test
run) is replaced by a fixed placeholder before hashing, and any ``output``
field is null because no case writes a file.  A change that alters any
byte of these reports must update the hashes deliberately.
"""

import hashlib
import json

import pytest

from helpers import ALT4_10PT_GENS, SECTION4, alt4_columns, matrix_e, matrix_f
from tropgroups.cli import main

MATRICES = {
    "E": matrix_e,
    "F": matrix_f,
    "section4": lambda: SECTION4,
    "A4col": alt4_columns,
}

CASES = {
    "analyze-A4col": (["analyze", "{A4col}", "--json"], None),
    "analyze-E": (["analyze", "{E}", "--json"], None),
    "analyze-F": (["analyze", "{F}", "--json"], None),
    "analyze-section4": (["analyze", "{section4}", "--json"], None),
    "verify-F": (["verify", "{F}", "--json"], None),
    "closure-A4-10pt": (["closure", "--degree", "10", *ALT4_10PT_GENS, "--json"], None),
    "closure-bidegree-D4": (
        ["closure", "--bidegree", "4", "4", "(1,2,3,4)|(1,2,3,4)", "(2,4)|(2,4)", "--json"],
        None,
    ),
    "closure-bidegree-S4-4x6": (
        [
            "closure", "--bidegree", "4", "6",
            "(1,2,3,4)|(1,4,6,3)(2,5)", "(1,2)|(2,4)(3,5)", "--json",
        ],
        None,
    ),
    "construct-degree-S3": (
        ["construct", "{spec}", "--json"],
        {"degree": 3, "generators": ["(1,2,3)", "(1,2)"]},
    ),
}

EXPECTED = {
    "analyze-A4col": "656dc632b89c22509ed84bcee61a0bb82bd1a6ecbc6a049bb2183f61a91441b8",
    "analyze-E": "ec1ea043709f42c30b3859c5039893402040ac969b101bc205b86dc123852c3d",
    "analyze-F": "867d14a0742d4bab3ad9fa52f27adf9ab4f189132c5e7a921f682a89e2cef1bb",
    "analyze-section4": "f591976b7de54ac96cfef78622b5b63fb25ba27233465b4f5c2f80c44478e78c",
    "verify-F": "1b0b18d714f0063d033895dbf09d0e23a1217bd4030340730e407ad49f3daef6",
    "closure-A4-10pt": "bfee04f717f2a67270441ca11cdb0046e5bb7da56ab0cce89522781363fe29a9",
    "closure-bidegree-D4": "da532016615e4022b38da23b0858707aa22524f2171d593264cf3b8e9f66848a",
    "closure-bidegree-S4-4x6": "89e0e286da288247015ab7ece6931ca099fd1cd24b2be33165aae195dea2fff9",
    "construct-degree-S3": "b8eb77b3086f78a79b2b3f7c747664b6ef6f106499721eca27d8bbd89c5b61b8",
}

PLACEHOLDER = '"<input>"'


def report_digest(name, tmp_path, capsys):
    argv, spec = CASES[name]
    paths = {}
    for key, build in MATRICES.items():
        path = tmp_path / f"{key}.txt"
        path.write_text(build().to_text() + "\n")
        paths[key] = str(path)
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        paths["spec"] = str(path)
    argv = [arg.format(**paths) for arg in argv]
    capsys.readouterr()
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    for path in paths.values():
        out = out.replace(json.dumps(path), PLACEHOLDER)
    assert json.loads(out).get("output") is None
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(name, tmp_path, capsys):
    assert report_digest(name, tmp_path, capsys) == EXPECTED[name]
