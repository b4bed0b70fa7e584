"""Checks of one round of reports against the oracles.

Each request carries the facts its inputs were built from (``check``);
nothing here compares with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math

import oracles


def _factor_problems(desc):
    """The description's own arithmetic, and each factor's generators
    generating a group of the stated order."""
    out = []
    total = 1
    for f in desc["factors"]:
        gens = [oracles.parse_cycles(g, f["degree"]) for g in f["generators"]]
        if oracles.group_order(f["degree"], gens) != f["order"]:
            out.append(f"factor generators do not generate order {f['order']}")
        total *= f["order"] ** f["multiplicity"] * math.factorial(f["multiplicity"])
    if total != desc["finite_order"]:
        out.append(f"finite_order {desc['finite_order']} != product of factors {total}")
    return out


def _block_order(fact):
    if "order" in fact:
        return fact["order"]
    if "group" in fact:
        degree, gens = fact["group"]
        return oracles.group_order(degree, [oracles.parse_cycles(g, degree) for g in gens])
    n, pairs = fact["digraph"]
    return oracles.digraph_automorphisms(n, {tuple(k): v for k, v in pairs})


def _read(path):
    with open(path) as fh:
        return oracles.parse_matrix_text(fh.read())


def check_analyze(c, report):
    out = []
    desc = report["description"]
    if not report["verification"]["classification_conditions"]:
        out.append("classification_conditions is false")
    out += _factor_problems(desc)
    if c.get("idempotent") and not oracles.is_idempotent(_read(c["path"])):
        out.append("input given --assume-idempotent is not idempotent")
    if "blocks" in c:
        want = 1
        for fact, mult in c["blocks"]:
            want *= _block_order(fact) ** mult * math.factorial(mult)
        rank = sum(mult for _, mult in c["blocks"])
        if desc["r_rank"] != rank:
            out.append(f"r_rank {desc['r_rank']} != {rank} blocks")
    else:
        want = c["order"]
    if desc["finite_order"] != want:
        out.append(f"finite_order {desc['finite_order']} != {want}")
    if "r_rank" in c and desc["r_rank"] != c["r_rank"]:
        out.append(f"r_rank {desc['r_rank']} != {c['r_rank']}")
    if "factors" in c and len(desc["factors"]) != c["factors"]:
        out.append(f"{len(desc['factors'])} factors, expected {c['factors']}")
    if "closure_exceeds" in c:
        f = desc["factors"][0]
        gens = [oracles.parse_cycles(g, f["degree"]) for g in f["generators"]]
        bound = c["closure_exceeds"]
        if oracles.closure_order(f["degree"], gens, cap=bound + 1) <= bound:
            out.append(f"2-closure of the factor is not larger than {bound}")
    return out


def check_construct(c, report):
    out = []
    if not report["verification"]["group_matches_target"]:
        out.append("group_matches_target is false")
    written = _read(c["output"])
    if not oracles.same_matrix(written, oracles.parse_matrix_json(report["matrix"])):
        out.append("written matrix differs from the reported one")
    if c.get("idempotent") and not oracles.is_idempotent(written):
        out.append("constructed matrix is not idempotent")
    if "group" in c or "digraph" in c:
        want = _block_order(c)
    elif "bipartite" in c:
        n, m, pairs = c["bipartite"]
        want = oracles.count_bipartite_automorphisms(n, m, {tuple(k): v for k, v in pairs})
    else:
        (n, m), left, right = c["paired"]
        pairs = [(oracles.parse_cycles(g, n), oracles.parse_cycles(h, m)) for g, h in zip(left, right)]
        want = oracles.paired_closure_order((n, m), pairs)
    if report["description"]["finite_order"] != want:
        out.append(f"finite_order {report['description']['finite_order']} != {want}")
    return out


def check_approximate(c, report):
    out = []
    written = _read(c["output"])
    if not oracles.same_matrix(written, oracles.parse_matrix_json(report["matrix"])):
        out.append("written matrix differs from the reported one")
    if not oracles.approximant_ok(_read(c["input"]), written, c["m"]):
        out.append("approximant breaks its closed form or is not idempotent")
    return out


def check_verify(c, report):
    bad = sorted(k for k, v in report["verification"].items() if v is not True)
    return [f"verify flags false: {bad}"] if bad else []


def _preserves(colour, img_left, img_right):
    return all(colour[(img_left[i], img_right[j])] == col for (i, j), col in colour.items())


def check_closure(c, report):
    out = []
    if "degree" in c:
        n = c["degree"]
        gens = [oracles.parse_cycles(g, n) for g in c["generators"]]
        order = oracles.group_order(n, gens)
        if n <= 8:
            closure = oracles.closure_order(n, gens)
        elif c["rule"] == "closed":
            closure = order
        else:
            raise ValueError(f"no closure oracle for degree {n}")
        colour = oracles.orbitals(n, gens)
        cgens = [oracles.parse_cycles(g, n) for g in report["closure_generators"]]
        if not all(_preserves(colour, g, g) for g in cgens):
            out.append("a closure generator breaks an orbital")
        corder = oracles.group_order(n, cgens)
    else:
        n, m = c["degrees"]
        pairs = [(oracles.parse_cycles(g, n), oracles.parse_cycles(h, m))
                 for g, h in zip(c["left"], c["right"])]
        order = oracles.paired_order((n, m), pairs)
        closure = oracles.paired_closure_order((n, m), pairs)
        colour = oracles.paired_orbits((n, m), pairs)
        cpairs = []
        for token in report["closure_generators"]:
            g, h = token.split("|")
            cpairs.append((oracles.parse_cycles(g, n), oracles.parse_cycles(h, m)))
        if not all(_preserves(colour, g, h) for g, h in cpairs):
            out.append("a closure generator breaks a paired orbit")
        corder = oracles.paired_order((n, m), cpairs)
    if report["group_order"] != order:
        out.append(f"group_order {report['group_order']} != {order}")
    if report["closure_order"] != closure:
        out.append(f"closure_order {report['closure_order']} != {closure}")
    if corder != closure:
        out.append(f"closure generators generate order {corder}, not {closure}")
    if report["is_closed"] != (order == closure):
        out.append("is_closed disagrees with the orders")
    return out


CHECKS = {
    "analyze": check_analyze,
    "construct": check_construct,
    "approximate": check_approximate,
    "verify": check_verify,
    "closure": check_closure,
}


def check_round(reqs, first):
    """Problems found in the first round's reports, one string each."""
    problems = []
    for req, (rc, out) in zip(reqs, first):
        label = " ".join(req["argv"][:2])
        if rc != 0:
            problems.append(f"{label}: exit {rc}")
            continue
        try:
            report = json.loads(out)
            problems += [f"{label}: {p}" for p in CHECKS[req["check"]["kind"]](req["check"], report)]
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            problems.append(f"{label}: report not checkable: {type(exc).__name__}: {exc}")
    return problems
