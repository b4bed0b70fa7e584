"""Command-line surface: analyze | closure | construct | approximate | verify.

Reports are JSON objects printed to stdout with ``--json`` (sorted keys,
two-space indent) and are byte-identical across repeated runs; timing goes
to stderr only.  Exit codes: 0 success, 2 parse/input error, 3 search
budget exceeded, 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from contextlib import suppress
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .constructors import (
    _from_bipartite,
    _idempotent,
    finite_approximant,
    parse_construction_spec,
)
from .errors import SearchBudgetExceeded
from .matrix import (
    MultipleEigenvalues,
    TropMatrix,
    is_idempotent,
    load_json,
    parse_matrix,
)
from .pairsearch import _CommutingSearch, cycle_mean
from .permgroups import (
    DEFAULT_MAX_NODES,
    PairedPermGroup,
    Perm,
    PermGroup,
    base_and_orbit,
    format_cycles,
    paired_two_closure,
    parse_cycles,
    search_budget,
    two_closure,
)
from .semiring import format_scalar
from .spaces import h_related, has_full_rank
from .stabilizer import (
    analyze_matrix,
    classification_conditions,
    group_description,
    require_idempotent,
    _block_sigma,
    _sigma_units,
)

PARSE_ERROR = 2
BUDGET_ERROR = 3
BROKEN_PIPE = 141


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _to_json(report) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)``, with strings left to the C
    escaper (with an indent, the standard library encodes in Python).  The
    pieces go to one list, joined once."""
    out: list[str] = []
    _json_pieces(report, "\n", out.append)
    return "".join(out)


def _json_pieces(x, newline: str, put) -> None:
    t = type(x)
    if t is str:
        put(_quote(x))
    elif t is dict or t is list or t is tuple:
        if not x:
            put("{}" if t is dict else "[]")
            return
        inner = newline + "  "
        if t is dict:
            sep = "{" + inner
            for k in sorted(x):
                put(sep + _quote(k) + ": ")
                _json_pieces(x[k], inner, put)
                sep = "," + inner
            put(newline + "}")
        else:
            sep = "[" + inner
            for v in x:
                put(sep)
                _json_pieces(v, inner, put)
                sep = "," + inner
            put(newline + "]")
    elif x is None or t is bool:
        put("null" if x is None else "true" if x else "false")
    else:
        put(int.__repr__(x))


def _print_report(report: dict, as_json: bool, human_lines: list[str]) -> None:
    # flushed here, so that a closed stdout fails inside ``main``
    print(_to_json(report) if as_json else "\n".join(human_lines), flush=True)


def _read_matrix(path: str) -> tuple[TropMatrix, str]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_matrix(raw.decode()), _digest(raw)


def _unit_json(unit) -> dict:
    return {
        "sigma": format_cycles(Perm(unit.sigma)),
        "scalings": [format_scalar(s) for s in unit.scalings],
    }


def _component_json(part) -> list[dict]:
    place = {idx: (k, p) for k, cls in enumerate(part.classes)
             for idx, (p, _q) in zip(cls.members, cls.witnesses)}
    out = []
    for idx, comp in enumerate(part.components):
        cls_index, p = place[idx]
        out.append(
            {
                "rows": [i + 1 for i in comp.rows],
                "cols": [j + 1 for j in comp.cols],
                "class": cls_index,
                "witness": _unit_json(p),
            }
        )
    return out


def cmd_analyze(args) -> int:
    a, digest = _read_matrix(args.path)
    t0 = time.perf_counter()
    if args.assume_idempotent:
        require_idempotent(a)
    an = analyze_matrix(a)
    desc, z, part = an.description, an.reduced, an.partition
    conditions_ok = classification_conditions(desc, a.nrows, a.ncols)
    elapsed = time.perf_counter() - t0
    report = {
        "command": "analyze",
        "input": {
            "path": args.path,
            "sha256": digest,
            "rows": a.nrows,
            "cols": a.ncols,
        },
        "assume_idempotent": bool(args.assume_idempotent),
        "reduction": {
            "kept_rows": [i + 1 for i in an.kept_rows],
            "kept_cols": [j + 1 for j in an.kept_cols],
            "row_rank": z.nrows,
            "col_rank": z.ncols,
        },
        "components": _component_json(part),
        "description": desc.to_json_dict(),
        "verification": {"classification_conditions": conditions_ok},
    }
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    human = [
        f"{a.nrows}x{a.ncols} matrix, rank {z.nrows}x{z.ncols}, "
        f"{len(part.components)} component(s) in {len(part.classes)} class(es)",
        f"group: {desc.formula()}   (finite part order {desc.finite_order})",
    ]
    _print_report(report, args.json, human)
    return 0 if conditions_ok else 1


def _parse_gen_args(args) -> tuple:
    if args.bidegree:
        n, m = args.bidegree
        if n < 1 or m < 1:  # before the order: an empty side is no faithfulness question
            raise ValueError("both vertex sets must be nonempty")
        pairs = []
        for token in args.generators:
            if "|" not in token:
                raise ValueError(
                    "paired generators are written as 'left|right' cycle pairs"
                )
            left, right = token.split("|", 1)
            pairs.append((parse_cycles(left, n), parse_cycles(right, m)))
        return PairedPermGroup((n, m), pairs), True
    degree = args.degree
    if degree is None:
        raise ValueError("--degree or --bidegree is required")
    return PermGroup(degree, [parse_cycles(t, degree) for t in args.generators]), False


def cmd_closure(args) -> int:
    group, paired = _parse_gen_args(args)
    t0 = time.perf_counter()
    # the order first: a paired group that is not faithful stops before
    # the 2-closure search
    order = group.order()
    if paired:
        closure = paired_two_closure(group)
        gens = [
            f"{format_cycles(g)}|{format_cycles(h)}" for g, h in closure.generators
        ]
        degrees = list(group.degrees)
    else:
        closure = two_closure(group)
        gens = [format_cycles(g) for g in closure.generators]
        degrees = [group.degree]
    closure_order = closure.order()
    closed = order == closure_order
    elapsed = time.perf_counter() - t0
    report = {
        "command": "closure",
        "paired": paired,
        "degrees": degrees,
        "input_generators": list(args.generators),
        "group_order": order,
        "closure_order": closure_order,
        "closure_generators": gens,
        "is_closed": closed,
    }
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    human = [
        f"order {report['group_order']}, closure order {report['closure_order']}, "
        f"closed = {str(closed).lower()}",
        "closure generators: " + (" ".join(gens) if gens else "()"),
    ]
    _print_report(report, args.json, human)
    return 0


def cmd_construct(args) -> int:
    from .permgroups import groups_isomorphic

    with open(args.spec, "rb") as fh:
        raw = fh.read()
    spec = load_json(raw.decode(), "construction spec")
    kind, obj = parse_construction_spec(spec)
    t0 = time.perf_counter()
    if kind == "bipartite":
        matrix, aut = _from_bipartite(obj)
        target = aut.left_group()
    else:
        matrix, target = _idempotent(obj)
    # _idempotent has already checked that its witness is
    # idempotent, so neither kind needs maximal_subgroup's guard
    desc = group_description(matrix)
    matches = len(desc.factors) == 1 and groups_isomorphic(
        desc.factors[0].finite_part, target
    )
    elapsed = time.perf_counter() - t0
    text = matrix.to_text() + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    report = {
        "command": "construct",
        "input": {"path": args.spec, "sha256": _digest(raw)},
        "kind": kind,
        "matrix": matrix.to_json_dict(),
        "description": desc.to_json_dict(),
        "verification": {"group_matches_target": matches},
        "output": args.output,
    }
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    human = [text.rstrip("\n"), f"group: {desc.formula()}"]
    _print_report(report, args.json, human)
    return 0 if matches else 1


def cmd_approximate(args) -> int:
    a, digest = _read_matrix(args.path)
    f = finite_approximant(a, args.m)
    text = f.to_text() + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    report = {
        "command": "approximate",
        "input": {"path": args.path, "sha256": digest},
        "m": args.m,
        "matrix": f.to_json_dict(),
        "output": args.output,
    }
    _print_report(report, args.json, [text.rstrip("\n")])
    return 0


def _commutes_as_sigma(e: TropMatrix, sigma: PermGroup, u, v) -> bool:
    """Whether the units commuting with the idempotent E are its Sigma, of
    pattern group ``sigma`` and eigenvector units U, V: the commuting group,
    found by the base-and-orbit walk without a listing, has Sigma's order,
    each group's generators lie in the other, and each commuting generator
    scales as the Sigma unit of its pattern, which covers every unit, as
    both sides map patterns to units homomorphically."""
    search = _CommutingSearch(e)
    found, order = base_and_orbit(search, search.order, act=lambda f, i: f[0][i])
    comm = PermGroup(e.nrows, [Perm._of(s) for s, _ in found])
    # P @ E = E @ P makes (P, P) the stabilizer pair of P
    units = _sigma_units(e, [(g, g) for g in comm.generators], u, v)
    return (
        order == sigma.order()
        and all(map(sigma.contains, comm.generators))
        and all(map(comm.contains, sigma.generators))
        and all(p.scalings == lam for (p, _q), (_, lam) in zip(units, found))
    )


def verify_flags(a: TropMatrix) -> dict:
    """The full invariant suite on one matrix; every flag must be true.

    Every stage is read from one ``Analysis``, and every check of Sigma
    runs on the generators of each factor's pattern group, the one the
    analysis reported, as unit pairs (P, Q) over the block's basis
    (``_sigma_units``); no group is listed.  Generators suffice: each
    check is kept by products and inverses.  The pair equation
    P @ A = A @ Q and ``h_related(P @ A, A)`` on one product P @ A,
    eigenvalue 0 as a zero code sum on every cycle of P and of Q, position
    agreement as a zero scaling code at every fixed point, and the
    eigenvector normal form (``an.normalisations``, whose B only this
    check reads) run on each generator; closure is the order
    of the left patterns' group, which must be the factor's.  On a
    full-rank idempotent, the units commuting with each restriction form
    a group found by a search of its own (``_commutes_as_sigma``), checked
    last so that the commutation search is the last search to spend.
    """
    flags: dict[str, bool] = {}
    flags["format_round_trip"] = parse_matrix(a.to_text()) == a
    an = analyze_matrix(a)
    flags["reduction_full_rank"] = reduced_ok = has_full_rank(an.reduced)
    flags["restrictions_full_rank"] = all(
        reduced_ok if r == an.reduced else has_full_rank(r) for r in an.restrictions
    )

    pair_ok = eigen_ok = closure_ok = agree_ok = h_ok = norm_ok = True
    for cls, (u, v, b), factor in zip(
        an.partition.classes, an.normalisations, an.description.factors
    ):
        rep = an.restrictions[cls.representative]
        bc = b.codes
        closure_ok &= factor.paired.left_group().order() == factor.order
        for p, q in _sigma_units(rep, factor.paired.generators, u, v):
            s, t = p.sigma, q.sigma
            pa = p.left_apply(rep)
            pair_ok &= pa == q.right_apply(rep)
            try:
                eigen_ok &= not cycle_mean(s, p.codes)[1]
                eigen_ok &= not cycle_mean(t, q.codes)[1]
            except MultipleEigenvalues:
                eigen_ok = False
            agree_ok &= not any(c for i, (x, c) in enumerate(zip(s, p.codes)) if x == i)
            h_ok &= h_related(pa, rep)
            # in normal form the pair acts on B by plain permutations
            norm_ok &= all(
                tuple(map(bc[x].__getitem__, t)) == row for x, row in zip(s, bc)
            )
    flags["pair_equations"] = pair_ok
    flags["single_eigenvalue"] = eigen_ok
    flags["sigma_closure"] = closure_ok
    flags["position_agreement"] = agree_ok
    flags["h_related"] = h_ok
    flags["eigenvector_normalisation"] = norm_ok
    flags["classification_conditions"] = classification_conditions(
        an.description, a.nrows, a.ncols
    )

    # the commutation search takes full-rank idempotents; a reduced block need not be one
    if a.is_square() and an.reduced == a and is_idempotent(a):
        idem_ok = True
        for cls, units, factor in zip(
            an.partition.classes, an.units, an.description.factors
        ):
            for idx in cls.members:
                r = an.restrictions[idx]
                idem_ok &= r == a or is_idempotent(r)
                if idx == cls.representative:
                    (u, v), sigma = units, factor.finite_part
                else:
                    group, (u, v) = _block_sigma(r)
                    sigma = group.left_group()
                idem_ok &= _commutes_as_sigma(r, sigma, u, v)
        flags["idempotent_restrictions"] = idem_ok
    return flags


def cmd_verify(args) -> int:
    a, digest = _read_matrix(args.path)
    t0 = time.perf_counter()
    flags = verify_flags(a)
    elapsed = time.perf_counter() - t0
    report = {
        "command": "verify",
        "input": {
            "path": args.path,
            "sha256": digest,
            "rows": a.nrows,
            "cols": a.ncols,
        },
        "verification": flags,
    }
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    human = [f"{name}: {str(ok).lower()}" for name, ok in flags.items()]
    _print_report(report, args.json, human)
    return 0 if all(flags.values()) else 1


def _budget(text: str) -> int:
    """A search budget: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"a budget must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropgroups",
        description="Exact stabilizer groups of max-plus matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="group description of a matrix file")
    p.add_argument("path")
    p.add_argument("--assume-idempotent", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-nodes", type=_budget, default=DEFAULT_MAX_NODES)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("closure", help="2-closure of a permutation group")
    p.add_argument("generators", nargs="*", help="cycle notation; pairs as 'l|r'")
    sides = p.add_mutually_exclusive_group()
    sides.add_argument("--degree", type=int)
    sides.add_argument("--bidegree", type=int, nargs=2, metavar=("N", "M"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-nodes", type=_budget, default=DEFAULT_MAX_NODES)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("construct", help="witness matrix from a JSON spec")
    p.add_argument("spec")
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-nodes", type=_budget, default=DEFAULT_MAX_NODES)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("approximate", help="finite approximant of an idempotent")
    p.add_argument("path")
    p.add_argument("m", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("verify", help="run the invariant suite on a matrix")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-nodes", type=_budget, default=DEFAULT_MAX_NODES)
    p.set_defaults(func=cmd_verify)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    # built on the first call and kept: a parser is a web of reference
    # cycles that only the cyclic collector would free
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        with search_budget(getattr(args, "max_nodes", DEFAULT_MAX_NODES)):
            return args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except BrokenPipeError:  # the reader is gone: say nothing
        with suppress(OSError):  # a StringIO stdout has no descriptor
            fd = sys.stdout.fileno()
            # the flush at exit writes what stdout still buffers to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return BROKEN_PIPE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
