"""Tests of the benchmark's own code: seeded inputs, oracles and output.

Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
import tropgroups  # noqa: E402


def _build(workload, seed, workdir):
    os.makedirs(workdir)
    reqs = workloads.build(workload, seed, str(workdir), tropgroups)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    argvs = [[a.replace(str(workdir), "<dir>") for a in r["argv"]] for r in reqs]
    return files, argvs


@pytest.mark.parametrize("workload", ["analyze", "roundtrip", "closure"])
def test_one_seed_gives_identical_inputs(tmp_path, workload):
    assert _build(workload, 7, tmp_path / "a") == _build(workload, 7, tmp_path / "b")


@pytest.mark.parametrize("workload", ["analyze", "roundtrip", "closure"])
def test_two_seeds_give_different_inputs(tmp_path, workload):
    files_a, argv_a = _build(workload, 7, tmp_path / "a")
    files_b, argv_b = _build(workload, 8, tmp_path / "b")
    assert len(argv_a) == len(argv_b)  # same work, relabelled
    assert (files_a, argv_a) != (files_b, argv_b)
    if files_a:
        assert sorted(files_a) == sorted(files_b)
        assert any(files_a[k] != files_b[k] for k in files_a)


def _p(text, n):
    return oracles.parse_cycles(text, n)


def test_group_orders_and_closures_by_hand():
    s4 = [_p("(1,2,3,4)", 4), _p("(1,2)", 4)]
    a4 = [_p("(1,2,3)", 4), _p("(1,2)(3,4)", 4)]
    assert oracles.group_order(4, s4) == 24
    assert oracles.group_order(4, a4) == 12
    assert oracles.closure_order(4, a4) == 24  # natural A4 closes to S4
    assert oracles.closure_order(4, s4) == 24
    assert oracles.closure_order(5, [_p("(1,2,3,4,5)", 5)]) == 5  # regular: closed
    a4_10 = [_p(g, 10) for g in workloads.A4_10_GENS]
    assert oracles.group_order(10, a4_10) == 12
    assert oracles.closure_order(10, a4_10) == 12
    assert oracles.closure_order(4, a4, cap=13) == 13  # stops at the cap


def test_paired_and_digraph_counts_by_hand():
    s3 = [_p("(1,2,3)", 3), _p("(1,2)", 3)]
    diag = list(zip(s3, s3))
    assert oracles.paired_order((3, 3), diag) == 6
    assert oracles.paired_closure_order((3, 3), diag) == 6
    cycle = {(i, (i + 1) % 4): "r" for i in range(4)}
    assert oracles.digraph_automorphisms(4, oracles.complete_edges(4, 4, cycle, loops=False)) == 4
    star = {(0, j): "r" for j in (1, 2, 3)}
    assert oracles.digraph_automorphisms(4, oracles.complete_edges(4, 4, star, loops=False)) == 6


def test_catalogue_closure_rules_hold():
    """The known results used above degree 8, checked by brute force on
    every catalogue group small enough for it."""
    for name, degree, gens, rule in workloads.CLOSURE_GROUPS:
        if name == "S2wrS6":
            continue  # 46080 elements: too slow to count here
        imgs = [_p(g, degree) for g in gens]
        if rule == "closed":
            assert oracles.closure_order(degree, imgs) == oracles.group_order(degree, imgs), name
    for name, degree, gens in workloads.IDEMPOTENT_GROUPS:
        imgs = [_p(g, degree) for g in gens]
        assert oracles.closure_order(degree, imgs) == oracles.group_order(degree, imgs), name


def test_scalars_products_and_approximants_by_hand():
    assert oracles.parse_scalar("9/10-2e1+e2") == (oracles.Fraction(9, 10), {1: -2, 2: 1})
    assert oracles.parse_scalar("-inf") is None
    e = [[oracles.parse_scalar(x) for x in row] for row in (["0", "-1+e1"], ["-1+e2", "0"])]
    assert oracles.is_idempotent(e)
    assert not oracles.is_idempotent([[oracles.parse_scalar("1")]])
    small = oracles.parse_matrix_text("0 0\n-inf 0\n")
    # N = -(0) - 1 = -1, so the -inf entry becomes 0 + (-1) + 0
    assert oracles.approximant_ok(small, oracles.parse_matrix_text("0 0\n-1 0\n"), 1)
    assert not oracles.approximant_ok(small, oracles.parse_matrix_text("0 0\n-2 0\n"), 1)


def test_paper_matrices_are_as_claimed():
    mats = {name: (rows, facts) for name, rows, facts in workloads.paper_matrices()}
    for name, (rows, facts) in mats.items():
        parsed = [[oracles.parse_scalar(x) for x in row] for row in rows]
        assert oracles.is_idempotent(parsed) == bool(facts.get("idempotent")), name
    assert len(mats["a4xa4_16x16"][0]) == 16 and len(mats["a4_4x12"][0][0]) == 12


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _run(ROOT, "--workload", "closure", "--seed", "3", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
