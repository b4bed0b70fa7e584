"""Computations made apart from the program, used to check its reports.

Nothing here imports ``tropgroups``.  Scalars are parsed from their text
form by this module's own grammar, max-plus products are computed here,
group orders come from ``sympy.combinatorics`` and 2-closures from a
brute-force search over orbital-preserving permutations.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# -- scalars and matrices ----------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(?:e(\d+))?")


def parse_scalar(text):
    """``-inf`` -> None; otherwise (standard part, {tag: coefficient})."""
    s = text.strip()
    if s.lower() == "-inf":
        return None
    std, tags, pos = Fraction(0), {}, 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or m.end() == pos or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"bad scalar {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(3) is not None:
            tag = int(m.group(3))
            tags[tag] = tags.get(tag, Fraction(0)) + sign * Fraction(m.group(2) or 1)
        else:
            std += sign * Fraction(m.group(2))
        pos = m.end()
    return std, {t: c for t, c in tags.items() if c}


def parse_matrix_text(text):
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append([parse_scalar(tok) for tok in line.split()])
    return rows


def parse_matrix_json(obj):
    return [[parse_scalar(tok) for tok in row] for row in obj["entries"]]


def as_vectors(*matrices):
    """Each finite entry as a tuple (std, c_t1, c_t2, ...) over the sorted
    union of tags of all the matrices, -inf as None.  Python's tuple order
    is then the lexicographic scalar order with the standard part dominant."""
    tags = sorted({t for rows in matrices for row in rows for x in row if x is not None for t in x[1]})

    def vec(x):
        return None if x is None else (x[0],) + tuple(x[1].get(t, Fraction(0)) for t in tags)

    return [[[vec(x) for x in row] for row in rows] for rows in matrices]


def _add(x, y):
    if x is None or y is None:
        return None
    return tuple(a + b for a, b in zip(x, y))


def maxplus_product(a, b):
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            best = None
            for k, x in enumerate(row):
                s = _add(x, b[k][j])
                if s is not None and (best is None or s > best):
                    best = s
            new.append(best)
        out.append(new)
    return out


def is_idempotent(rows):
    (v,) = as_vectors(rows)
    return len(v) == len(v[0]) and maxplus_product(v, v) == v


def approximant_ok(e_rows, f_rows, m):
    """The closed form of the finite approximant: finite entries of e are
    kept, each -inf entry becomes row-max + m*N + column-max, with
    N = -(sum of |finite entries|) - 1; the result is idempotent."""
    e, f = as_vectors(e_rows, f_rows)
    zero = (Fraction(0),) * len(next(x for row in e for x in row if x is not None))
    total = zero
    for row in e:
        for x in row:
            if x is not None:
                total = _add(total, x if x >= zero else tuple(-c for c in x))
    n_const = tuple(-c for c in total)
    n_const = (n_const[0] - 1,) + n_const[1:]
    repl = tuple(m * c for c in n_const)
    row_max = [max(x for x in row if x is not None) for row in e]
    col_max = [max(row[j] for row in e if row[j] is not None) for j in range(len(e[0]))]
    for i, row in enumerate(e):
        for j, x in enumerate(row):
            want = x if x is not None else _add(_add(row_max[i], repl), col_max[j])
            if f[i][j] != want:
                return False
    return maxplus_product(f, f) == f


def same_matrix(a_rows, b_rows):
    a, b = as_vectors(a_rows, b_rows)
    return a == b


# -- permutations in cycle notation ------------------------------------------

_CYCLE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text, degree):
    """1-indexed cycle notation -> 0-indexed image list."""
    img = list(range(degree))
    for body in _CYCLE.findall(text):
        pts = [int(p) - 1 for p in body.split(",") if p.strip()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a] = b
    return img


def format_cycles(img):
    seen, out = set(), []
    for start in range(len(img)):
        if start in seen or img[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = img[x]
        out.append("(" + ",".join(cyc) + ")")
    return "".join(out) or "()"


def relabel(text, pi):
    """Conjugate a cycle string by the point map pi (0-indexed list)."""
    return _CYCLE.sub(
        lambda m: "(" + ",".join(str(pi[int(p) - 1] + 1) for p in m.group(1).split(",")
                                 if p.strip()) + ")",
        text,
    )


# -- group orders (sympy) ----------------------------------------------------


def group_order(degree, generators):
    """Order of the group generated by 0-indexed image lists."""
    from sympy.combinatorics import Permutation, PermutationGroup

    gens = [Permutation(g) for g in generators] or [Permutation(list(range(degree)))]
    return int(PermutationGroup(gens).order())


def paired_order(degrees, pairs):
    """Order of a paired group: the generators act on the disjoint union."""
    n, _ = degrees
    return group_order(sum(degrees), [g + [n + x for x in h] for g, h in pairs])


# -- orbitals and brute-force 2-closures -------------------------------------


def _orbit_colouring(points, gens_apply):
    """Colour each item by its orbit under the generator maps."""
    colour = {}
    for p in points:
        if p in colour:
            continue
        cid = len(set(colour.values()))
        colour[p] = cid
        stack = [p]
        while stack:
            q = stack.pop()
            for g in gens_apply:
                r = g(q)
                if r not in colour:
                    colour[r] = cid
                    stack.append(r)
    return colour


def orbitals(degree, generators):
    """Orbit id of every ordered pair (i, j), diagonal included."""
    pts = [(i, j) for i in range(degree) for j in range(degree)]
    return _orbit_colouring(pts, [lambda q, g=g: (g[q[0]], g[q[1]]) for g in generators])


def paired_orbits(degrees, pairs):
    n, m = degrees
    pts = [(i, j) for i in range(n) for j in range(m)]
    return _orbit_colouring(pts, [lambda q, g=g, h=h: (g[q[0]], h[q[1]]) for g, h in pairs])


def count_colour_automorphisms(n, colour, cap=None):
    """Permutations pi of n points with colour[pi i, pi j] == colour[i, j]
    for every pair, counted by exhaustive backtracking (stops at cap)."""
    img = [-1] * n
    used = [False] * n
    count = 0

    def extend(k):
        nonlocal count
        if k == n:
            count += 1
            return cap is not None and count >= cap
        for w in range(n):
            if used[w] or colour[(w, w)] != colour[(k, k)]:
                continue
            if all(colour[(w, img[u])] == colour[(k, u)] and colour[(img[u], w)] == colour[(u, k)]
                   for u in range(k)):
                img[k], used[w] = w, True
                if extend(k + 1):
                    return True
                used[w] = False
        return False

    extend(0)
    return count


def closure_order(degree, generators, cap=None):
    return count_colour_automorphisms(degree, orbitals(degree, generators), cap)


def count_bipartite_automorphisms(n, m, colour):
    """Pairs (sigma, tau) with colour[sigma i, tau j] == colour[i, j],
    by exhaustive search over sigma and a column-wise match for tau."""
    rows = [sorted(map(repr, (colour[(i, j)] for j in range(m)))) for i in range(n)]
    count = 0
    for sigma in itertools.permutations(range(n)):
        if any(rows[sigma[i]] != rows[i] for i in range(n)):
            continue
        choices = [
            [w for w in range(m) if all(colour[(sigma[i], w)] == colour[(i, j)] for i in range(n))]
            for j in range(m)
        ]
        for tau in itertools.product(*choices):
            if len(set(tau)) == m:
                count += 1
    return count


def paired_closure_order(degrees, pairs):
    return count_bipartite_automorphisms(*degrees, paired_orbits(degrees, pairs))


def digraph_automorphisms(n, colour):
    """Vertex permutations preserving the colour of every ordered pair
    i != j, over all n! relabellings."""
    return sum(
        all(colour[(p[i], p[j])] == colour[(i, j)] for i in range(n) for j in range(n) if i != j)
        for p in itertools.permutations(range(n))
    )


def complete_edges(n, m, edges, loops):
    """A partial colouring completed with one fresh colour, the rule the
    construction specs use for missing edges."""
    missing = ("missing",)
    return {
        (i, j): edges.get((i, j), missing)
        for i in range(n)
        for j in range(m)
        if loops or i != j
    }
