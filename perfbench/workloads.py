"""Seeded inputs of the three workloads.

``build(workload, seed, workdir, tg)`` writes the input files into
``workdir`` and returns one round of requests: each a CLI argv plus the
facts its report is checked against afterwards.  ``tg`` is the imported
``tropgroups`` package; the ``analyze`` and ``roundtrip`` workloads call
its constructors to build their idempotent inputs.

The structures in each catalogue are fixed and the seed relabels them
(points, rows and columns, colour names, infinitesimal tags).  Every seed
therefore asks for the same amount of work, which keeps the spread
between runs with different seeds down to the host's own noise.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re

import oracles

# -- group catalogues (1-indexed cycle notation) ------------------------------


def _cyc(n):
    return "(" + ",".join(str(i) for i in range(1, n + 1)) + ")"


def _refl(n):
    """The reflection i -> 2 - i (mod n) of the n-gon."""
    return "".join(f"({i},{n + 2 - i})" for i in range(2, (n + 3) // 2) if i != n + 2 - i)


A4_10_GENS = ["(1,3,2)(5,10,7)(6,8,9)", "(1,4)(2,3)(6,10)(7,8)", "(1,3)(2,4)(5,9)(6,10)"]


def _wreath(m, k, base, top):
    """Imprimitive action of base wr top: k blocks of m points each.  The
    base generators act on the first block; the top group moves it."""
    gens = list(base)
    for t in top:
        img = oracles.parse_cycles(t, k)
        perm = [img[p // m] * m + p % m for p in range(m * k)]
        gens.append(oracles.format_cycles(perm))
    return gens


def _shift(gens, by):
    return [re.sub(r"\d+", lambda mm: str(int(mm.group()) + by), g) for g in gens]


# name, degree, generators, and "closed" where a known result gives the
# 2-closure above degree 8, the limit of the brute-force count: S_n and
# regular groups are 2-closed, S_m wr S_k (imprimitive) is the automorphism
# group of k disjoint copies of K_m, and A4 on 10 points is 2-closed.
CLOSURE_GROUPS = [
    ("C5", 5, [_cyc(5)], None),
    ("C7", 7, [_cyc(7)], None),
    ("C12", 12, [_cyc(12)], "closed"),
    ("D5", 5, [_cyc(5), _refl(5)], None),
    ("D6", 6, [_cyc(6), _refl(6)], None),
    ("D8", 8, [_cyc(8), _refl(8)], None),
    ("S4", 4, [_cyc(4), "(1,2)"], None),
    ("S5", 5, [_cyc(5), "(1,2)"], None),
    ("S6", 6, [_cyc(6), "(1,2)"], None),
    ("S8", 8, [_cyc(8), "(1,2)"], None),
    ("A4", 4, ["(1,2,3)", "(1,2)(3,4)"], None),
    ("A5", 5, ["(1,2,3,4,5)", "(1,2,3)"], None),
    ("A7", 7, ["(1,2,3,4,5,6,7)", "(1,2,3)"], None),
    ("A8", 8, ["(1,2,3)", "(2,3,4,5,6,7,8)"], None),
    ("S2wrS3", 6, _wreath(2, 3, ["(1,2)"], ["(1,2,3)", "(1,2)"]), None),
    ("S3wrS2", 6, _wreath(3, 2, ["(1,2,3)", "(1,2)"], ["(1,2)"]), None),
    ("C3wrC2", 6, _wreath(3, 2, ["(1,2,3)"], ["(1,2)"]), None),
    ("S2wrS4", 8, _wreath(2, 4, ["(1,2)"], ["(1,2,3,4)", "(1,2)"]), None),
    ("S4wrS2", 8, _wreath(4, 2, ["(1,2,3,4)", "(1,2)"], ["(1,2)"]), None),
    ("S3wrS3", 9, _wreath(3, 3, ["(1,2,3)", "(1,2)"], ["(1,2,3)", "(1,2)"]), "closed"),
    ("S2wrS6", 12, _wreath(2, 6, ["(1,2)"], [_cyc(6), "(1,2)"]), "closed"),
    ("S3xS3", 6, ["(1,2,3)", "(1,2)"] + _shift(["(1,2,3)", "(1,2)"], 3), None),
    ("C3xC4", 7, ["(1,2,3)", "(4,5,6,7)"], None),
    ("A4xC3", 7, ["(1,2,3)", "(1,2)(3,4)", "(5,6,7)"], None),
    ("D4xS2", 6, [_cyc(4), _refl(4), "(5,6)"], None),
    ("A4on10", 10, A4_10_GENS, "closed"),
]

# left group and how the right side is induced from it
PAIRED_GROUPS = [
    ("diagC4", 4, [_cyc(4)], "same"),
    ("diagD4", 4, [_cyc(4), _refl(4)], "same"),
    ("diagS3", 3, ["(1,2,3)", "(1,2)"], "same"),
    ("diagC5", 5, [_cyc(5)], "same"),
    ("S3regular", 3, ["(1,2,3)", "(1,2)"], "regular"),
    ("A4pairs", 4, ["(1,2,3)", "(1,2)(3,4)"], "pairs"),
    ("S4pairs", 4, [_cyc(4), "(1,2)"], "pairs"),
]

# 2-closed groups built into idempotents by the constructor
IDEMPOTENT_GROUPS = [
    ("S2", 2, ["(1,2)"]),
    ("S3", 3, ["(1,2,3)", "(1,2)"]),
    ("D4", 4, [_cyc(4), _refl(4)]),
    ("C5", 5, [_cyc(5)]),
    ("D5", 5, [_cyc(5), _refl(5)]),
    ("S3xS2", 5, ["(1,2,3)", "(1,2)", "(4,5)"]),
    ("C3wrC2", 6, _wreath(3, 2, ["(1,2,3)"], ["(1,2)"])),
]

# partial coloured digraphs: (vertices, [(i, j, colour index)]), 1-indexed
DIGRAPHS = [
    ("cycle4", 4, [(1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 1, 0)]),
    ("star4", 4, [(1, 2, 0), (1, 3, 0), (1, 4, 0)]),
    ("cycle5", 5, [(i, i % 5 + 1, 0) for i in range(1, 6)] + [(i % 5 + 1, i, 0) for i in range(1, 6)]),
    ("triangles6", 6, [(1, 2, 0), (2, 3, 0), (3, 1, 0), (4, 5, 1), (5, 6, 1), (6, 4, 1)]),
]

GROUP_BY_NAME = {spec[0]: spec for spec in IDEMPOTENT_GROUPS}
DIGRAPH_BY_NAME = {spec[0]: spec for spec in DIGRAPHS}

# coloured bipartite graphs: (omega, theta, [(i, j, colour index)])
BIPARTITE = [
    ("shift33", 3, 3, [(1, 1, 0), (2, 2, 0), (3, 3, 0), (1, 2, 1), (2, 3, 1), (3, 1, 1)]),
    ("rigid34", 3, 4, [(1, 1, 0), (2, 2, 0), (3, 3, 0), (1, 4, 1), (2, 4, 2)]),
    ("cycle44", 4, 4, [(i, i, 0) for i in range(1, 5)] + [(i, i % 4 + 1, 1) for i in range(1, 5)]),
]


def _regular(degree, gens):
    """Right regular action of a group, as cycle strings on |G| points."""
    imgs = [oracles.parse_cycles(g, degree) for g in gens]
    elems = [tuple(range(degree))]
    index = {elems[0]: 0}
    for x in elems:
        for g in imgs:
            y = tuple(g[x[i]] for i in range(degree))
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    return len(elems), [
        oracles.format_cycles([index[tuple(g[x[i]] for i in range(degree))] for x in elems])
        for g in imgs
    ]


CLOSURE_GROUPS += [
    ("D4regular", *_regular(4, [_cyc(4), _refl(4)]), None),
    ("A4regular", *_regular(4, ["(1,2,3)", "(1,2)(3,4)"]), "closed"),
]


def _induced(kind, degree, gens):
    """The right-hand action paired with the left group."""
    if kind == "same":
        return degree, list(gens)
    if kind == "regular":
        return _regular(degree, gens)
    pairs = list(itertools.combinations(range(degree), 2))
    pos = {p: k for k, p in enumerate(pairs)}
    out = []
    for g in gens:
        img = oracles.parse_cycles(g, degree)
        out.append(oracles.format_cycles([pos[tuple(sorted((img[a], img[b])))] for a, b in pairs]))
    return len(pairs), out


def _perm(rng, n):
    pi = list(range(n))
    rng.shuffle(pi)
    return pi


def _relabelled_pair(rng, degree, gens, kind):
    """A paired group with each side relabelled: (right degree, left, right)."""
    rdeg, rgens = _induced(kind, degree, gens)
    pi, rho = _perm(rng, degree), _perm(rng, rdeg)
    return rdeg, [oracles.relabel(g, pi) for g in gens], [oracles.relabel(h, rho) for h in rgens]


# -- matrices as text ---------------------------------------------------------


def _text(rows):
    return "\n".join(" ".join(row) for row in rows) + "\n"


def paper_matrices():
    """The paper's examples: (name, rows of scalar strings, facts)."""
    a, b, c = "-1+e1", "-1+e2", "-1+e3"
    e = [["0", a], [b, "0"]]
    f = [["0", a, c, a], [b, "0", b, c], [c, a, "0", a], [b, c, b, "0"]]
    s4 = [["0", "0", "-inf", "-inf"], ["-inf", "1", "-inf", "-inf"], ["-inf", "-inf", "1", "0"]]
    vals = ["1+e2", "2+e3", "3+e4", "4+e5"]
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    # column g holds (g . V)_i = V_{g^-1(i)}
    cols = [[vals[g.index(i)] for i in range(4)] for g in even]
    a4 = [[col[i] for col in cols] for i in range(4)]
    b16 = [row + ["0"] * 4 for row in a4] + [
        ["0"] * 12 + [a4[i][j] for i in range(4)] for j in range(12)
    ]
    # facts: finite order, idempotent, number of components
    return [
        ("E", e, {"order": 2, "idempotent": True}),
        ("F", f, {"order": 8, "idempotent": True}),
        ("section4", s4, {"order": 1, "r_rank": 2}),
        ("a4_4x12", a4, {"order": 12}),
        ("a4xa4_16x16", b16, {"order": 144, "factors": 1, "closure_exceeds": 144}),
    ]


def block_diagonal(blocks):
    """Block-diagonal assembly of text matrices with -inf fill."""
    width = sum(len(b[0]) for b in blocks)
    rows, c0 = [], 0
    for b in blocks:
        for row in b:
            rows.append(["-inf"] * c0 + list(row) + ["-inf"] * (width - c0 - len(row)))
        c0 += len(b[0])
    return rows


def _rows_of(matrix):
    return [line.split() for line in matrix.to_text().splitlines() if line.strip()]


# -- the workloads ------------------------------------------------------------


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _relabelled_group(rng, degree, gens):
    pi = _perm(rng, degree)
    return [oracles.relabel(g, pi) for g in gens]


def _relabelled_digraph(rng, n, edges):
    pi = _perm(rng, n)
    names = [f"c{rng.randrange(10**6)}x{k}" for k in range(3)]
    return {(pi[i - 1], pi[j - 1]): names[k] for i, j, k in edges}


def _group_block(tg, rng, spec, tag):
    name, degree, gens = spec
    gens = _relabelled_group(rng, degree, gens)
    group = tg.PermGroup.from_cycles(degree, gens)
    block = _rows_of(tg.construct_idempotent(group, tag_start=tag))
    return block, {"group": [degree, gens]}


def _digraph_block(tg, rng, spec, tag):
    name, n, edges = spec
    colours = _relabelled_digraph(rng, n, edges)
    digraph = tg.ColouredDigraph.from_partial(n, colours)
    block = _rows_of(tg.construct_idempotent(digraph, tag_start=tag))
    full = oracles.complete_edges(n, n, colours, loops=False)
    return block, {"digraph": [n, sorted(full.items())]}


# block assemblies: (group or digraph catalogue entry, multiplicity)
BLOCK_ASSEMBLIES = [
    [("S2", 2)],
    [("S2", 3)],
    [("S3", 1), ("cycle4", 1)],
    [("C5", 1), ("S2", 2)],
    [("trivial2", 1), ("one", 1)],
]


def _block_by_name(tg, rng, name, tag):
    if name == "trivial2":
        return [["0", "0"], ["-inf", "0"]], {"order": 1}
    if name == "one":
        return [["0"]], {"order": 1}
    if name in GROUP_BY_NAME:
        return _group_block(tg, rng, GROUP_BY_NAME[name], tag)
    return _digraph_block(tg, rng, DIGRAPH_BY_NAME[name], tag)


def _assembly(tg, rng, parts, tag0):
    """Block idempotent with repeated blocks and its per-block facts."""
    blocks, facts = [], []
    for k, (name, mult) in enumerate(parts):
        block, fact = _block_by_name(tg, rng, name, tag0 + 100 * k)
        blocks.extend([block] * mult)
        facts.append([fact, mult])
    order = list(range(len(blocks)))
    rng.shuffle(order)
    return block_diagonal([blocks[i] for i in order]), facts


# Relabelled copies of the paper's smaller matrices.  The counts put the
# median among the F requests and the 90th percentile among the 4x12
# requests, inside a group of like samples, instead of at a gap between
# two request types, where a percentile jumps from run to run.
PAPER_COPIES = {"E": 3, "section4": 4, "F": 5, "a4_4x12": 4}


def analyze_round(seed, workdir, tg):
    rng = random.Random(seed)
    reqs = []

    def add(name, rows, facts):
        path = _write(workdir, name + ".txt", _text(rows))
        argv = ["analyze", path, "--json"]
        if facts.get("idempotent"):
            argv.append("--assume-idempotent")
        reqs.append({"argv": argv, "check": dict(facts, kind="analyze", path=path)})

    for name, rows, facts in paper_matrices():
        add(name, rows, facts)
        for copy in range(1, PAPER_COPIES.get(name, 0) + 1):
            pr, pc = _perm(rng, len(rows)), _perm(rng, len(rows[0]))
            if facts.get("idempotent"):
                pc = pr  # the same relabelling of rows and columns
            add(f"{name}-relabelled{copy}", [[rows[i][j] for j in pc] for i in pr], facts)
    tag = rng.randrange(1, 50)
    for spec in IDEMPOTENT_GROUPS[1:]:
        block, fact = _group_block(tg, rng, spec, tag)
        add("group-" + spec[0], block, dict(blocks=[[fact, 1]], idempotent=True))
    for spec in DIGRAPHS:
        block, fact = _digraph_block(tg, rng, spec, tag)
        add("digraph-" + spec[0], block, dict(blocks=[[fact, 1]], idempotent=True))
    for k, parts in enumerate(BLOCK_ASSEMBLIES):
        rows, facts = _assembly(tg, rng, parts, tag)
        add(f"blocks-{k}", rows, dict(blocks=facts, idempotent=True))
    return reqs


def roundtrip_round(seed, workdir, tg):
    rng = random.Random(seed)
    reqs, written = [], []

    def construct(name, spec, facts):
        spec_path = _write(workdir, name + ".json", json.dumps(spec))
        out = os.path.join(workdir, name + ".out.txt")
        reqs.append({"argv": ["construct", spec_path, "-o", out, "--json"],
                     "check": dict(facts, kind="construct", output=out)})
        written.append(out)

    for name in ("S3", "D4", "D5", "S3xS2"):
        _, degree, gens = GROUP_BY_NAME[name]
        gens = _relabelled_group(rng, degree, gens)
        construct("degree-" + name, {"degree": degree, "generators": gens},
                  {"group": [degree, gens], "idempotent": True})
    for name, n, edges in DIGRAPHS[:3]:
        colours = _relabelled_digraph(rng, n, edges)
        spec = {"vertices": n, "edges": [[i + 1, j + 1, c] for (i, j), c in sorted(colours.items())]}
        full = oracles.complete_edges(n, n, colours, loops=False)
        construct("vertices-" + name, spec, {"digraph": [n, sorted(full.items())], "idempotent": True})
    for name, n, m, edges in BIPARTITE:
        pi, rho = _perm(rng, n), _perm(rng, m)
        names = [f"k{rng.randrange(10**6)}x{k}" for k in range(3)]
        colours = {(pi[i - 1], rho[j - 1]): names[k] for i, j, k in edges}
        spec = {"omega": n, "theta": m,
                "edges": [[i + 1, j + 1, c] for (i, j), c in sorted(colours.items())]}
        full = oracles.complete_edges(n, m, colours, loops=True)
        construct("bipartite-" + name, spec, {"bipartite": [n, m, sorted(full.items())]})
    for name, degree, gens, kind in PAIRED_GROUPS[:3]:
        rdeg, left, right = _relabelled_pair(rng, degree, gens, kind)
        construct("bidegree-" + name,
                  {"bidegree": [degree, rdeg], "generators": [list(p) for p in zip(left, right)]},
                  {"paired": [[degree, rdeg], left, right]})

    tag = rng.randrange(1, 50)
    for k, parts in enumerate(([("S2", 2)], [("S2", 1), ("S3", 1)], [("trivial2", 1), ("one", 1)])):
        rows, _ = _assembly(tg, rng, parts, tag)
        src = _write(workdir, f"blocks-{k}.txt", _text(rows))
        for m in (1, 2):
            out = os.path.join(workdir, f"blocks-{k}.approx{m}.txt")
            reqs.append({"argv": ["approximate", src, str(m), "-o", out, "--json"],
                         "check": {"kind": "approximate", "input": src, "m": m, "output": out}})
            written.append(out)
    for path in written:
        reqs.append({"argv": ["verify", path, "--json"], "check": {"kind": "verify"}})
    return reqs


def closure_round(seed, workdir, tg):
    del workdir, tg  # closure takes its generators on the command line
    rng = random.Random(seed)
    reqs = []
    for name, degree, gens, rule in CLOSURE_GROUPS:
        gens = _relabelled_group(rng, degree, gens)
        reqs.append({"argv": ["closure", "--degree", str(degree), *gens, "--json"],
                     "check": {"kind": "closure", "degree": degree, "generators": gens, "rule": rule}})
    for name, degree, gens, kind in PAIRED_GROUPS:
        rdeg, left, right = _relabelled_pair(rng, degree, gens, kind)
        reqs.append({"argv": ["closure", "--bidegree", str(degree), str(rdeg),
                              *(f"{g}|{h}" for g, h in zip(left, right)), "--json"],
                     "check": {"kind": "closure", "degrees": [degree, rdeg],
                               "left": left, "right": right}})
    return reqs


BUILDERS = {"analyze": analyze_round, "roundtrip": roundtrip_round, "closure": closure_round}


def build(workload, seed, workdir, tg):
    return BUILDERS[workload](seed, workdir, tg)
