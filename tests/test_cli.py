import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import SECTION4, matrix_e, matrix_f
from tropgroups import components, pairsearch, spaces
from tropgroups.cli import main, verify_flags
from tropgroups.components import connected_components
from tropgroups.constructors import construct_idempotent
from tropgroups.matrix import TropMatrix, parse_matrix
from tropgroups.permgroups import PermGroup, parse_cycles, search_budget
from tropgroups.semiring import Value, format_scalar


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_section4(tmp_path, capsys):
    path = write(tmp_path, "a.txt", SECTION4.to_text() + "\n")
    code, out = run_cli(["analyze", path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["description"]["formula"] == "R x R"
    assert len(report["components"]) == 2
    assert report["reduction"]["kept_cols"] == [1, 2, 3]
    assert report["verification"]["classification_conditions"] is True


def test_analyze_erratum_f(tmp_path, capsys):
    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    code, out = run_cli(["analyze", path, "--json", "--assume-idempotent"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["description"]["formula"] == "(R x D4)"
    assert report["description"]["finite_order"] == 8


def test_analyze_identity3(tmp_path, capsys):
    path = write(tmp_path, "i3.txt", TropMatrix.identity(3).to_text() + "\n")
    code, out = run_cli(["analyze", path, "--json"], capsys)
    report = json.loads(out)
    assert report["description"]["formula"] == "R wr S_3"


def test_analyze_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 zebra\n")
    code, _ = run_cli(["analyze", path], capsys)
    assert code == 2
    code, _ = run_cli(["analyze", str(tmp_path / "missing.txt")], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"rows":2,"cols":2,"entries":5}',
        "0 1/0\n",
        '{"rows":2,"cols":2,"entries":[[1,2],[3,{}]]}',
        '{"entries":' + "[" * 100_000,
    ],
    ids=["entries-not-rows", "zero-denominator", "object-entry", "deep-nesting"],
)
def test_bad_matrix_input_exits_2_without_traceback(tmp_path, text):
    path = write(tmp_path, "bad.txt", text)
    proc = subprocess.run(
        [sys.executable, "-m", "tropgroups", "analyze", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["analyze", "{f}", "--json"], ["analyze", "{f}"], ["approximate", "{f}", "2", "--json"],
     ["closure", "--degree", "4", "(1,2,3,4)"]],
    ids=["analyze-json", "analyze", "approximate", "closure"],
)
def test_a_closed_stdout_exits_141_and_says_nothing(tmp_path, argv):
    """A stdout pipe whose reader has gone is no input error: the command
    exits 141 (128 + SIGPIPE), with nothing on stderr but its timing.  The
    read end is closed before the child starts, so every write fails."""
    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    read, write_end = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tropgroups", *(a.format(f=path) for a in argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert all(line.startswith("elapsed: ") for line in proc.stderr.splitlines()), proc.stderr


@pytest.mark.parametrize(
    "command, text, what",
    [
        ("analyze", '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}", "JSON matrix"),
        ("construct", "[" * 100_000 + "]" * 100_000, "construction spec"),
    ],
    ids=["matrix", "spec"],
)
def test_deeply_nested_json_exits_2_and_says_so(tmp_path, command, text, what):
    """A JSON input nested past the parser's recursion limit, a matrix or
    a construction spec, is a bad input like any other."""
    path = write(tmp_path, "deep.json", text)
    proc = subprocess.run(
        [sys.executable, "-m", "tropgroups", command, path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {what} is nested too deeply\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"vertices": 2, "edges": 5}, "edges must be a list"),
        ({"degree": 3, "generators": 7}, "generators must be a list"),
        ({"degree": 3, "generators": [5]}, "a generator must be a cycle string"),
        ({"vertices": 2, "edges": [[1, 2, [0]]]}, "an edge colour must be"),
        ({"degree": 3, "generators": ["(1,2)(2,1)"]}, "point 1 is in two cycles"),
        ({"omega": 2, "theta": 2, "edges": [[1, 3, "a"]]}, "edge (1, 3) out of range"),
        ({"vertices": 2, "edges": [[1, 1, "a"]]}, "edge (1, 1) is a loop"),
        ({"vertices": 2, "edges": [[1, 3, "a"]]}, "edge (1, 3) out of range"),
        ({"vertices": 2, "edges": [[1, 2, "a"], [1, 2, "b"]]}, "edge (1, 2) is listed twice"),
        (
            {"omega": 2, "theta": 2, "edges": [[2, 1, "a"], [1, 1, "a"], [2, 1, "a"]]},
            "edge (2, 1) is listed twice",
        ),
        ({"degree": 3, "vertices": 3}, "not ['vertices', 'degree']"),
        ({"degree": 3, "generator": ["(1,2,3)"]}, "unknown key 'generator': a 'degree' spec"),
        ({"vertices": 3, "edge": [[1, 2, "a"]]}, "unknown key 'edge': a 'vertices' spec"),
        (
            {"omega": 2, "theta": 2, "edges": [], "generators": ["(1,2)"]},
            "unknown key 'generators': a 'omega' spec takes ['edges', 'omega', 'theta']",
        ),
        (
            {"bidegree": [2, 2], "generators": [["(1,2)", "(1,2)"]], "edges": []},
            "unknown key 'edges': a 'bidegree' spec takes ['bidegree', 'generators']",
        ),
        ({"vertices": 0, "edges": []}, "need at least one vertex"),
        ({"omega": -1, "theta": 100000, "edges": []}, "both vertex sets must be nonempty"),
    ],
    ids=[
        "edges-not-list",
        "gens-not-list",
        "gen-not-string",
        "list-colour",
        "shared-point",
        "bipartite-edge-out-of-range",
        "digraph-loop",
        "digraph-edge-out-of-range",
        "digraph-edge-twice",
        "bipartite-edge-twice",
        "two-kinds",
        "degree-misspelt-key",
        "vertices-misspelt-key",
        "omega-foreign-key",
        "bidegree-foreign-key",
        "no-vertices",
        "negative-omega",
    ],
)
def test_bad_construction_spec_exits_2_without_traceback(tmp_path, spec, message):
    """Errors name the spec's edges 1-based, as the spec writes them, and
    a key the spec's kind does not take."""
    path = write(tmp_path, "spec.json", json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "tropgroups", "construct", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "spec",
    [
        {"omega": 3, "theta": 3,
         "edges": [[1, 1, "x"], [2, 2, "x"], [3, 3, "x"], [1, 2, "y"], [2, 3, "y"], [3, 1, "y"]]},
        {"bidegree": [3, 6], "generators": [["(1,2,3)", "(1,2,3)(4,5,6)"], ["(1,2)", "(1,4)(2,6)(3,5)"]]},
        # more live row orbits than column orbits: built on the reversed graph
        {"omega": 4, "theta": 3,
         "edges": [[1, 1, 8], [1, 2, 1], [1, 3, 2], [2, 2, 2], [2, 3, 1],
                   [3, 1, 10], [3, 2, 6], [3, 3, 10], [4, 1, 10], [4, 2, 3]]},
    ],
    ids=["omega-theta", "bidegree", "transposed"],
)
def test_a_bipartite_construct_searches_its_graph_once(tmp_path, capsys, monkeypatch, spec):
    """``construct`` checks its witness against the automorphism group the
    construction found, with no second search of the same graph."""
    from tropgroups import constructors, permgroups

    calls = []
    search = permgroups.coloured_bipartite_automorphisms

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    for module in (permgroups, constructors):
        monkeypatch.setattr(module, "coloured_bipartite_automorphisms", counted)
    path = write(tmp_path, "spec.json", json.dumps(spec))
    code, out = run_cli(["construct", path, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["verification"]["group_matches_target"]
    assert len(calls) == 1


def test_a_vertices_construct_searches_its_digraph_once(tmp_path, capsys, monkeypatch):
    """``construct`` on a ``vertices`` spec checks its witness against the
    automorphism group the construction found, with no second search of
    the same digraph."""
    from tropgroups import constructors, permgroups

    calls = []
    search = permgroups.coloured_automorphisms

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    for module in (permgroups, constructors):
        monkeypatch.setattr(module, "coloured_automorphisms", counted)
    spec = {"vertices": 5, "edges": [[i, i % 5 + 1, "a"] for i in range(1, 6)]}
    path = write(tmp_path, "spec.json", json.dumps(spec))
    code, out = run_cli(["construct", path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verification"]["group_matches_target"]
    assert report["description"]["factors"][0]["order"] == 5
    assert len(calls) == 1


def test_removed_flags_are_rejected(tmp_path, capsys):
    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    for argv in (
        ["--threads", "2", "analyze", path],
        ["analyze", path, "--max-order", "1"],
        ["closure", "--degree", "4", "(1,2,3,4)", "(1,2)", "--max-order", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_closure_takes_one_of_degree_and_bidegree(capsys):
    """A group given both a degree and a bidegree is bad input, as a
    construction spec that names two kinds is, whichever flag comes first."""
    for argv in (
        ["closure", "--degree", "4", "--bidegree", "2", "2", "(1,2)|(1,2)"],
        ["closure", "--bidegree", "2", "2", "--degree", "4", "(1,2)"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


def test_budget_exceeded_exit_code(tmp_path, capsys):
    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    code, _ = run_cli(["analyze", path, "--max-nodes", "1"], capsys)
    assert code == 3
    # --max-nodes bounds the orbital colouring and then the automorphism
    # search of plain and paired closures alike; the colouring spends one
    # node per cell, 4 * 3 plain and 4 * 4 paired
    for gens, cells in (
        (["--degree", "4", "(1,2,3,4)"], 12),
        (["--degree", "4", "(1,2,3,4)", "(1,2)"], 12),
        (["--bidegree", "4", "4", "(1,2,3,4)|(1,2,3,4)"], 16),
    ):
        for nodes, spend in ((1, "orbital colouring"), (cells, "automorphism search")):
            assert main(["closure", *gens, "--max-nodes", str(nodes)]) == 3, gens
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{spend} exceeded the budget of {nodes} nodes" in captured.err


def test_a_closure_too_large_for_the_budget_is_refused_before_its_set_up(capsys):
    """The orbital colouring of degree 100,000 would colour about 10^10
    pairs; it spends them first, so the request exits 3 at once and names
    the set-up spend."""
    assert main(["closure", "--degree", "100000", "(1,2)"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "orbital colouring exceeded the budget of 2000000 nodes" in captured.err


@pytest.mark.parametrize(
    "spec",
    [{"vertices": 100000, "edges": []}, {"omega": 100000, "theta": 100000, "edges": []}],
    ids=["vertices", "omega"],
)
def test_a_spec_too_large_for_the_budget_is_refused_before_its_colouring(tmp_path, spec):
    """A spec's colouring of about 10^10 cells spends them once its edges
    are read and before it builds any row, so ``construct`` exits 3 at
    once and names the spend."""
    path = write(tmp_path, "spec.json", json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "tropgroups", "construct", path],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert "spec colouring exceeded the budget of 2000000 nodes" in proc.stderr


def test_readme_names_every_cli_option():
    """The flags the CLI section of README.md names are the options the
    subcommands take: none missing, none stale."""
    import argparse
    import re
    from pathlib import Path

    from tropgroups import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", section))
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = [
        action.option_strings
        for sub in subparsers.choices.values()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]
    accepted = {flag for strings in options for flag in strings}
    assert {flag for flag in named if flag.startswith("--")} <= accepted
    assert all(named.intersection(strings) for strings in options), options


def test_one_budget_covers_every_search_of_a_request(tmp_path, capsys, monkeypatch):
    """--max-nodes bounds the pushes of all pair and automorphism searches
    of one request together with the cells of its orbital colourings:
    analyze F runs on exactly as many nodes as its searches push and its
    colourings colour, and one fewer stops it with the search named."""
    from tropgroups.permgroups import _AutomorphismSearch, search_budget

    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    pushes, cells = [], []
    with monkeypatch.context() as m:
        for cls in (pairsearch._PairSearch, _AutomorphismSearch):
            def counted(self, v, w, push=cls.push, kind=cls):
                pushes.append(kind)
                return push(self, v, w)

            m.setattr(cls, "push", counted)
        spend = search_budget.spend

        def counted_spend(self, search, nodes=1):
            if search == "orbital colouring":
                cells.append(nodes)
            return spend(self, search, nodes)

        m.setattr(search_budget, "spend", counted_spend)
        assert run_cli(["analyze", path, "--json"], capsys)[0] == 0
    total = len(pushes) + sum(cells)
    assert len(set(pushes)) == 2 and cells
    assert run_cli(["analyze", path, "--max-nodes", str(total)], capsys)[0] == 0
    assert main(["analyze", path, "--max-nodes", str(total - 1)]) == 3
    err = capsys.readouterr().err
    assert f"search exceeded the budget of {total - 1} nodes" in err


def test_one_budget_covers_every_search_of_a_verify_request(tmp_path, capsys, monkeypatch):
    """--max-nodes bounds every search and listing of a verify request on
    an idempotent together: verify F runs on exactly the nodes they spend,
    one fewer stops it with the search named, and the commutation search
    spends one node per push of its search state."""
    from tropgroups.permgroups import search_budget

    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    spends, pushes = [], []
    with monkeypatch.context() as m:
        spend, push = search_budget.spend, pairsearch._CommutingSearch.push

        def counted_spend(self, search, nodes=1):
            spends.append((search, nodes))
            return spend(self, search, nodes)

        m.setattr(search_budget, "spend", counted_spend)
        m.setattr(pairsearch._CommutingSearch, "push", lambda *a: pushes.append(a) or push(*a))
        assert run_cli(["verify", path, "--json"], capsys)[0] == 0
    total = sum(nodes for _, nodes in spends)
    assert {name for name, _ in spends} >= {"pair search", "commutation search"}
    assert len(pushes) == sum(nodes for name, nodes in spends if name == "commutation search")
    assert run_cli(["verify", path, "--max-nodes", str(total)], capsys)[0] == 0
    assert main(["verify", path, "--max-nodes", str(total - 1)]) == 3
    err = capsys.readouterr().err
    assert f"commutation search exceeded the budget of {total - 1} nodes" in err


@pytest.mark.parametrize(
    "rows",
    [
        [[-7, -4, -6, -4, -6], [-3, 0, -2, 0, -2], [-8, -5, -7, -5, -7], [-6, -3, -5, -3, -5],
         [-5, -2, -4, -2, -4]],
        [[0, 0], [0, 0]],
    ],
    ids=["rank-1", "all-zero"],
)
def test_verify_checks_commuting_units_on_full_rank_idempotents_only(tmp_path, capsys, rows):
    """An idempotent that is not full rank verifies with every flag true:
    its reduced block, [[-7]] and [[0]] here, need not be idempotent, so
    the commuting units, which need a full-rank idempotent, are not
    compared."""
    path = write(tmp_path, "e.txt", TropMatrix.from_rows(rows).to_text() + "\n")
    code, out = run_cli(["verify", path, "--json"], capsys)
    assert code == 0
    flags = json.loads(out)["verification"]
    assert all(flags.values())
    assert "idempotent_restrictions" not in flags


@pytest.mark.parametrize(
    "gens",
    [
        ["--degree", "3", "(1,2)(2,1)"],
        ["--degree", "3", "(1,2)(1,3)"],
        ["--bidegree", "3", "2", "(1,2,3)|()"],
        ["--bidegree", "2", "0", "(1,2)|()"],
        ["--bidegree", "0", "2", "()|(1,2)"],
        ["--degree", "12", "(1_0,2)"],
        ["--degree", "3", "(+1,2)"],
        ["--degree", "3", "(1,2,)"],
    ],
    ids=[
        "shared-point",
        "shared-point-product",
        "unfaithful-paired",
        "empty-right",
        "empty-left",
        "underscore-point",
        "signed-point",
        "empty-point",
    ],
)
def test_bad_group_input_exits_2_whatever_the_max_order(capsys, gens):
    """Cycles that share a point or have a point that is not a digit
    string, and a paired group with an element that is the identity on one
    side only, are bad input, also where the budget would not cover the
    2-closure search."""
    for cap in ([], ["--max-nodes", "1"]):
        code, out = run_cli(["closure", *gens, *cap], capsys)
        assert code == 2 and out == "", (gens, cap)


@pytest.mark.parametrize(
    "argv",
    [
        ["closure", "--bidegree", "2", "0", "(1,2)|()"],
        ["closure", "--bidegree", "2", "0"],
        ["construct", "{spec}"],
    ],
    ids=["closure-generators", "closure-no-generators", "construct"],
)
def test_an_empty_side_is_named_as_such(tmp_path, capsys, argv):
    """A paired group with no point on one side exits 2 naming the empty
    side, with or without generators, and not as an unfaithful action."""
    spec = write(tmp_path, "spec.json", json.dumps({"bidegree": [2, 0], "generators": [["(1,2)", "()"]]}))
    assert main([a.format(spec=spec) for a in argv]) == 2
    assert "both vertex sets must be nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_a_degree_below_1_is_named_as_such(capsys, degree):
    assert main(["closure", "--degree", degree]) == 2
    assert "need at least one vertex" in capsys.readouterr().err


def test_main_builds_one_parser(monkeypatch, capsys):
    from tropgroups import cli

    built = []
    build = cli._build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", counted)
    for _ in range(2):
        assert run_cli(["closure", "--degree", "3", "(1,2,3)", "--json"], capsys)[0] == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{path}", "--max-nodes", "-1"],
        ["analyze", "{path}", "--max-nodes", "0"],
        ["verify", "{path}", "--max-nodes", "0"],
        ["construct", "{spec}", "--max-nodes", "0"],
        ["closure", "--degree", "4", "(1,2,3,4)", "--max-nodes", "-5"],
        ["closure", "--degree", "4", "(1,2,3,4)", "--max-nodes", "0"],
    ],
)
def test_non_positive_budgets_are_bad_input(tmp_path, capsys, argv):
    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    spec = write(tmp_path, "s.json", json.dumps({"degree": 2, "generators": ["(1,2)"]}))
    argv = [a.format(path=path, spec=spec) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "at least 1" in err and "budget exceeded" not in err


def test_closure_cli(capsys):
    code, out = run_cli(
        ["closure", "--degree", "4", "(1,2,3)", "--json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 3
    assert report["closure_order"] == 3
    assert report["is_closed"] is True

    code, out = run_cli(["closure", "--degree", "2", "(1,2)", "--json"], capsys)
    report = json.loads(out)
    assert report["is_closed"] is True

    # A4 has order 12 and its plain and paired 2-closures S4 order 24
    for gens in (
        ["--degree", "4", "(1,2,3)", "(1,2)(3,4)"],
        ["--bidegree", "4", "4", "(1,2,3)|(1,2,3)", "(1,2)(3,4)|(1,2)(3,4)"],
    ):
        code, out = run_cli(["closure", *gens, "--json"], capsys)
        report = json.loads(out)
        assert (report["group_order"], report["closure_order"]) == (12, 24), gens
        assert report["is_closed"] is False

    code, out = run_cli(
        ["closure", "--bidegree", "2", "2", "(1,2)|(1,2)", "--json"], capsys
    )
    report = json.loads(out)
    assert report["paired"] is True
    assert report["is_closed"] is True

    code, _ = run_cli(["closure", "--degree", "3", "(1,2,3"], capsys)
    assert code == 2


def test_construct_matches_a_target_above_the_isomorphism_cap(tmp_path, capsys):
    """The factor of the S_n witness is the target itself, so the check
    needs neither its isomorphism test nor a listing of n! elements; and
    no vertex count bounds the searches behind it (n = 21)."""
    for n in (8, 21):
        gens = ["(" + ",".join(map(str, range(1, n + 1))) + ")", "(1,2)"]
        spec = write(tmp_path, f"s{n}.json", json.dumps({"degree": n, "generators": gens}))
        code, out = run_cli(["construct", spec, "--json"], capsys)
        assert code == 0, n
        report = json.loads(out)
        assert report["verification"]["group_matches_target"] is True
        assert report["description"]["formula"] == f"(R x S{n})"


def test_generic_circulant_above_twenty_points(tmp_path, capsys):
    """A circulant with distinct seeded entries is stabilized by its
    cyclic shifts only: analyze and verify both run on 21 rows and
    columns, 42 vertices for the paired 2-closure."""
    n = 21
    c = random.Random(21).sample(range(-100, 100), n)
    rows = [[c[(j - i) % n] for j in range(n)] for i in range(n)]
    path = write(tmp_path, "c21.json", json.dumps({"rows": n, "cols": n, "entries": rows}))
    code, out = run_cli(["analyze", path, "--json"], capsys)
    assert code == 0
    assert json.loads(out)["description"]["formula"] == f"(R x C{n})"
    code, out = run_cli(["verify", path, "--json"], capsys)
    assert code == 0
    assert all(json.loads(out)["verification"].values())


def test_generic_circulant_with_wide_codes(tmp_path, capsys):
    """A 40x40 circulant with distinct seeded entries, each with a
    fractional standard part and one to three fractional infinitesimal
    terms, so that every code packs up to six wide fields: analyze finds
    one factor of order 40 holding the cyclic shift, and verify sets
    every flag, inside 10,000 nodes (verify spends 8,821)."""
    n = 40
    rng = random.Random(40)

    def entry():
        terms = {
            t: Fraction(rng.randint(-99, 99) or 1, rng.choice([1, 2, 9]))
            for t in rng.sample(range(1, 6), rng.randint(1, 3))
        }
        std = Fraction(rng.randint(-(10**6), 10**6), rng.choice([1, 3, 7, 10007]))
        return format_scalar(Value(std, terms))

    c = [entry() for _ in range(n)]
    assert len(set(c)) == n
    rows = [[c[(j - i) % n] for j in range(n)] for i in range(n)]
    path = write(tmp_path, "c40.json", json.dumps({"rows": n, "cols": n, "entries": rows}))
    code, out = run_cli(["analyze", path, "--json", "--max-nodes", "10000"], capsys)
    assert code == 0
    (factor,) = json.loads(out)["description"]["factors"]
    assert factor["order"] == n
    shift = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    assert PermGroup.from_cycles(n, factor["generators"]).contains(parse_cycles(shift, n))
    code, out = run_cli(["verify", path, "--json", "--max-nodes", "10000"], capsys)
    assert code == 0
    assert all(json.loads(out)["verification"].values())


def test_construct_and_approximate(tmp_path, capsys):
    spec = write(
        tmp_path, "s2.json", json.dumps({"degree": 2, "generators": ["(1,2)"]})
    )
    out_path = str(tmp_path / "e.txt")
    code, out = run_cli(["construct", spec, "-o", out_path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "idempotent"
    matrix = parse_matrix(open(out_path).read())
    assert matrix.entries[0][1] == matrix.entries[1][0]

    trivial = write(tmp_path, "t2.json", json.dumps({"degree": 2, "generators": []}))
    code, out = run_cli(["construct", trivial, "--json"], capsys)
    assert json.loads(out)["matrix"]["entries"] == [["0", "0"], ["-inf", "0"]]

    small = write(tmp_path, "small.txt", "0 0\n-inf 0\n")
    code, out = run_cli(["approximate", small, "1", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["matrix"]["entries"] == [["0", "0"], ["-1", "0"]]
    code, out = run_cli(["approximate", small, "2", "--json"], capsys)
    assert json.loads(out)["matrix"]["entries"] == [["0", "0"], ["-2", "0"]]


def test_verify_erratum_e(tmp_path, capsys):
    path = write(tmp_path, "e.txt", matrix_e().to_text() + "\n")
    code, out = run_cli(["verify", path, "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert all(report["verification"].values())


def test_verify_flags_directly():
    flags = verify_flags(matrix_e())
    assert flags["idempotent_restrictions"] is True
    assert all(flags.values())


def test_verify_flags_report_only_multiple_eigenvalues_as_false(monkeypatch):
    """An error other than MultipleEigenvalues in the code-level cycle
    check is a fault of the program, not a false flag."""
    from tropgroups import cli

    def broken(sigma, codes):
        raise TypeError("broken cycle check")

    monkeypatch.setattr(cli, "cycle_mean", broken)
    with pytest.raises(TypeError):
        verify_flags(matrix_f())


def _flags_with_one_code_shifted(monkeypatch, side, at_fixed_point):
    """The false flags of F when every call of ``_sigma_units`` shifts by 1
    one scaling code on ``side`` ("P" or "Q") of the first unit pair it
    gives whose unit on that side moves a point, at a fixed point of that
    unit's pattern or at a moved point.  verify calls it for the factor's
    generators and for the commuting generators."""
    from tropgroups import cli
    from tropgroups.matrix import MonomialMatrix

    orig = cli._sigma_units
    shifted = []

    def bump(unit, i):
        # + 1 on the packed int is + 1 on its lowest field: a nonzero shift
        codes = list(unit.codes)
        codes[i] += 1
        return MonomialMatrix._derived(unit.sigma, codes, unit.basis)

    def perturbed(*args):
        units = orig(*args)
        for k, (p, q) in enumerate(units):
            pattern = (p if side == "P" else q).sigma
            fixed = [i for i, x in enumerate(pattern) if x == i]
            moved = [i for i, x in enumerate(pattern) if x != i]
            spots = fixed if at_fixed_point else moved
            if spots and moved:
                i = spots[0]
                bad = (bump(p, i), q) if side == "P" else (p, bump(q, i))
                shifted.append(bad)
                return [*units[:k], bad, *units[k + 1 :]]
        return units

    monkeypatch.setattr(cli, "_sigma_units", perturbed)
    broken = {name for name, ok in verify_flags(matrix_f()).items() if not ok}
    assert shifted, "no unit to perturb"
    return broken


@pytest.mark.parametrize("at_fixed_point", [True, False])
def test_verify_flags_catch_a_perturbed_sigma_element(monkeypatch, at_fixed_point):
    """Shift one P scaling code of one generator unit of F: every flag
    that reads P's codes turns false (the comparison with the commuting
    units reads the unit of a commuting generator), and position agreement
    only when the scaling sits at a fixed point of the pattern."""
    broken = {
        "pair_equations",
        "single_eigenvalue",
        "h_related",
        "idempotent_restrictions",
    }
    if at_fixed_point:
        broken.add("position_agreement")
    assert _flags_with_one_code_shifted(monkeypatch, "P", at_fixed_point) == broken


def test_verify_flags_catch_a_perturbed_q_scaling(monkeypatch):
    """Shift one Q scaling code of one generator unit of F: h_related,
    position agreement and the comparison with the commuting units read P
    only, so just the pair equations and the eigenvalue turn false."""
    assert _flags_with_one_code_shifted(monkeypatch, "Q", False) == {
        "pair_equations",
        "single_eigenvalue",
    }


def _symmetric_witness(n):
    """The idempotent that construct_idempotent builds for S_n, generated
    by (1,..,n) and (1,2)."""
    cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
    return construct_idempotent(PermGroup.from_cycles(n, [cycle, "(1,2)"]))


def _two_s3_blocks():
    """The S3 witness repeated as two diagonal blocks, -inf between them."""
    from tropgroups.constructors import assemble_blocks
    from tropgroups.semiring import NEG_INF

    return assemble_blocks([(_symmetric_witness(3), 2)], NEG_INF)


def test_verify_checks_the_sigma_of_every_member_of_a_class(monkeypatch):
    """Two S3 blocks form one class of two members: analyze reports
    (R x S3) wr S_2, verify sets every flag, and the idempotent check
    finds the Sigma of the member that is not the representative with
    ``_block_sigma`` of its own.  That Sigma cut down to the group of
    its first generator alone turns only ``idempotent_restrictions``
    false."""
    from tropgroups import cli
    from tropgroups.permgroups import PairedPermGroup

    a = _two_s3_blocks()
    an = cli.analyze_matrix(a)
    assert an.description.formula() == "(R x S3) wr S_2"
    (cls,) = an.partition.classes
    member = an.restrictions[cls.members[1]]
    assert cls.members[1] != cls.representative

    block_sigma, calls = cli._block_sigma, []

    def counted(r):
        calls.append(r)
        return block_sigma(r)

    def cut(r):
        group, units = block_sigma(r)
        return PairedPermGroup(group.degrees, group.generators[:1]), units

    monkeypatch.setattr(cli, "_block_sigma", counted)
    flags = verify_flags(a)
    assert len(flags) == 11 and all(flags.values()), flags
    assert calls == [member]
    monkeypatch.setattr(cli, "_block_sigma", cut)
    assert _false_flags(a) == {"idempotent_restrictions"}


@pytest.mark.parametrize("n", [9, 12])
def test_verify_checks_a_large_symmetric_group_on_generators(n):
    """verify lists neither Sigma nor the commuting units: the S_9 and
    S_12 witnesses (9! and 12! elements) verify with every flag true
    inside one budget of 100,000 nodes."""
    with search_budget(100_000):
        flags = verify_flags(_symmetric_witness(n))
    assert "idempotent_restrictions" in flags
    assert all(flags.values()), flags


def _false_flags(a):
    return {name for name, ok in verify_flags(a).items() if not ok}


def test_verify_flags_catch_seeded_mutations(monkeypatch):
    """Two faults seeded into the analysis that verify reads: a pair
    search whose first point keeps only its first image finds too small a
    Sigma, which only the comparison with the commuting units sees; a
    first eigenvector scaling of U shifted by 1 breaks the units of every
    generator that moves point 0, and the normal form built from it."""
    from tropgroups import stabilizer
    from tropgroups.matrix import MonomialMatrix
    from tropgroups.semiring import val

    from helpers import alt4_squared

    with monkeypatch.context() as m:
        candidates = pairsearch._PairSearch.candidates

        def fewer(self, point):
            found = candidates(self, point)
            return found[:1] if point == self.order[0] else found

        m.setattr(pairsearch._PairSearch, "candidates", fewer)
        for a in (matrix_f(), matrix_e(), _symmetric_witness(5)):
            assert _false_flags(a) == {"idempotent_restrictions"}, a

    units = stabilizer._eigenvector_units

    def shifted(*args):
        u, v = units(*args)
        return MonomialMatrix(u.sigma, (u.scalings[0] + val(1), *u.scalings[1:])), v

    # _block_sigma reads the units for the analysis and for verify's
    # other members of a class alike
    monkeypatch.setattr(stabilizer, "_eigenvector_units", shifted)
    assert _false_flags(matrix_f()) == {
        "eigenvector_normalisation",
        "h_related",
        "idempotent_restrictions",
        "pair_equations",
    }
    assert _false_flags(alt4_squared()) == {
        "eigenvector_normalisation",
        "h_related",
        "pair_equations",
    }


def test_reports_are_byte_identical(tmp_path):
    """A report on stdout depends neither on the run nor on the seed of
    str hashing, which orders sets and dicts of strings: analyze, verify
    and closure each print the same bytes under PYTHONHASHSEED 0, 1 and 0."""
    path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    closure = ["--bidegree", "4", "4", "(1,2,3)|(1,2,3)", "(1,2)(3,4)|(1,2)(3,4)"]
    for argv in (["analyze", path], ["verify", path], ["closure", *closure]):
        outs = set()
        for seed in ("0", "1", "0"):
            proc = subprocess.run(
                [sys.executable, "-m", "tropgroups", *argv, "--json"],
                capture_output=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            outs.add(proc.stdout)
        assert len(outs) == 1, argv


def test_each_stage_runs_once_per_command(tmp_path, monkeypatch, capsys):
    """Within one command no stage is called twice with the same arguments."""
    calls = []

    def counting(name, orig):
        def counted(*args, **kwargs):
            calls.append((name, args, tuple(sorted(kwargs.items()))))
            return orig(*args, **kwargs)

        return counted

    for module, name in (
        (spaces, "reduce_full_rank"),
        (components, "class_partition"),
        (pairsearch, "pair_solutions"),
    ):
        orig = getattr(module, name)
        wrapper = counting(name, orig)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "tropgroups":
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, wrapper)

    constructed = construct_idempotent(PermGroup.from_cycles(3, ["(1,2,3)"]))
    assert len(connected_components(constructed)) == 1
    f_path = write(tmp_path, "f.txt", matrix_f().to_text() + "\n")
    c_path = write(tmp_path, "c.txt", constructed.to_text() + "\n")
    for argv in (["analyze", f_path], ["verify", c_path], ["verify", f_path]):
        calls.clear()
        code, _ = run_cli(argv, capsys)
        assert code == 0
        assert {name for name, _, _ in calls} >= {"reduce_full_rank", "pair_solutions"}
        assert len(set(calls)) == len(calls), argv


def test_only_verify_builds_the_normal_form(tmp_path, capsys, monkeypatch):
    """B = U @ A @ V is built only where it is read: analyze of F, of the
    16x16 A4 x A4 matrix and of a block idempotent and a 'degree' construct
    build none, and verify of F builds one for its one class."""
    from tropgroups import stabilizer

    from helpers import alt4_squared

    built = []
    normal_form = stabilizer._normal_form

    def counted(a, u, v):
        built.append(a)
        return normal_form(a, u, v)

    monkeypatch.setattr(stabilizer, "_normal_form", counted)
    blocks = TropMatrix.from_rows(
        [[0, -1, "-inf"], [-1, 0, "-inf"], ["-inf", "-inf", 0]]
    )
    for name, a in (("f", matrix_f()), ("a4sq", alt4_squared()), ("blocks", blocks)):
        path = write(tmp_path, name + ".txt", a.to_text() + "\n")
        assert run_cli(["analyze", path, "--json"], capsys)[0] == 0
    spec = write(tmp_path, "s.json", json.dumps({"degree": 3, "generators": ["(1,2,3)"]}))
    assert run_cli(["construct", spec, "--json"], capsys)[0] == 0
    assert built == []
    assert all(verify_flags(matrix_f()).values())
    assert built == [matrix_f()]


def test_verify_checks_full_rank_once_per_matrix(monkeypatch):
    """On a connected matrix the one restriction is the reduction itself,
    so only the reduction calls has_full_rank."""
    from tropgroups import cli, stabilizer

    calls = []
    orig = spaces.has_full_rank

    def counted(a):
        calls.append(a)
        return orig(a)

    for mod in (cli, stabilizer):
        monkeypatch.setattr(mod, "has_full_rank", counted)
    flags = verify_flags(matrix_f())
    assert all(flags.values())
    assert calls == [matrix_f()]


def test_verify_checks_idempotency_once(monkeypatch):
    """F is idempotent and its one restriction is F itself, so only the
    input check multiplies."""
    from tropgroups import cli, matrix, stabilizer

    calls = []
    orig = matrix.is_idempotent

    def counted(a):
        calls.append(a)
        return orig(a)

    for mod in (cli, stabilizer):
        monkeypatch.setattr(mod, "is_idempotent", counted)
    flags = verify_flags(matrix_f())
    assert all(flags.values())
    assert calls == [matrix_f()]


def test_construct_checks_the_witness_idempotent_once(tmp_path, capsys, monkeypatch):
    from tropgroups import constructors, matrix, stabilizer

    calls = []
    orig = matrix.is_idempotent

    def counted(a):
        calls.append(a)
        return orig(a)

    for mod in (constructors, stabilizer):
        monkeypatch.setattr(mod, "is_idempotent", counted)
    spec = write(tmp_path, "s.json", json.dumps({"degree": 3, "generators": ["(1,2,3)", "(1,2)"]}))
    code, out = run_cli(["construct", spec, "--json"], capsys)
    assert code == 0
    assert len(calls) == 1


def test_the_sharpened_separation_witness(tmp_path, capsys):
    """A4 on the 6 pairs of {1..4}, paired with A4 on 4 points and its C3
    quotient: the 'bidegree' construct realises (R x A4) on a 6 x 7
    matrix; with its first row repeated as row 7 the matrix reduces to
    rows 1-6 and keeps the description and the classification
    conditions; verify sets every flag on both; and the 6-point action
    is not 2-closed (its 2-closure has order 24)."""
    from tropgroups.stabilizer import analyze_matrix, classification_conditions

    left, right = ["(1,4,2)(3,5,6)", "(2,5)(3,4)"], ["(1,2,3)(5,6,7)", "(1,2)(3,4)"]
    pairs = [list(p) for p in zip(left, right)]
    spec = write(tmp_path, "sep.json", json.dumps({"bidegree": [6, 7], "generators": pairs}))
    out_path = str(tmp_path / "sep.txt")
    code, out = run_cli(["construct", spec, "-o", out_path, "--json"], capsys)
    report = json.loads(out)
    assert code == 0 and report["verification"]["group_matches_target"] is True
    assert (report["matrix"]["rows"], report["matrix"]["cols"]) == (6, 7)
    desc = report["description"]
    assert (desc["formula"], desc["finite_order"]) == ("(R x A4)", 12)

    rows = open(out_path).read().splitlines()
    repeated = write(tmp_path, "sep7.txt", "\n".join(rows + rows[:1]) + "\n")
    an = analyze_matrix(parse_matrix(open(repeated).read()))
    assert an.kept_rows == tuple(range(6)) and an.kept_cols == tuple(range(7))
    assert (an.description.formula(), an.description.finite_order) == ("(R x A4)", 12)
    assert classification_conditions(an.description, 7, 7)
    for path in (out_path, repeated):
        code, out = run_cli(["verify", path, "--json"], capsys)
        assert code == 0 and all(json.loads(out)["verification"].values())

    code, out = run_cli(["closure", "--degree", "6", *left, "--json"], capsys)
    closure = json.loads(out)
    assert (closure["group_order"], closure["closure_order"]) == (12, 24)
    assert closure["is_closed"] is False
