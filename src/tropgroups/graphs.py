"""Coloured graph containers shared by the component and group machinery,
and the one graph traversal behind every orbit and connectivity check.

Vertices are 0-indexed here; all text/JSON I/O is 1-indexed.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence


def components(
    vertices: Iterable[Hashable], neighbours: Callable[[Hashable], Iterable[Hashable]]
) -> list[list]:
    """The vertex sets reachable from each vertex not yet reached, in the
    order of ``vertices``; each list starts at that vertex and goes on in
    breadth-first order.  For an undirected graph these are its connected
    components; for the action of a finite group's generators, its orbits.
    """
    seen: set = set()
    out = []
    for start in vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:
            for w in neighbours(v):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(comp)
    return out


def support_components(support: Sequence[Sequence[bool]]) -> list[tuple[list, list]]:
    """Connected components of the bipartite graph joining row i to column
    j wherever ``support[i][j]`` holds, as sorted (rows, columns) pairs in
    order of their least row (a component without rows comes last)."""
    n, m = len(support), len(support[0])

    def neighbours(v: int) -> list[int]:
        if v < n:
            return [n + j for j in range(m) if support[v][j]]
        return [i for i in range(n) if support[i][v - n]]

    return [
        (sorted(v for v in comp if v < n), sorted(v - n for v in comp if v >= n))
        for comp in components(range(n + m), neighbours)
    ]


class ColouredBipartiteGraph:
    """Directed bipartite graph, edges left->right, each with a colour.

    Used both for the finite-entry graph of a matrix (colours are scalar
    values) and for orbit colourings of paired group actions (colours are
    orbit ids).  Not necessarily complete.
    """

    __slots__ = ("n", "m", "edges")

    def __init__(self, n: int, m: int, edges: Mapping[tuple[int, int], Hashable]):
        if n < 1 or m < 1:
            raise ValueError("both vertex sets must be nonempty")
        for (i, j) in edges:
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError(f"edge ({i}, {j}) out of range")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", dict(edges))

    def __setattr__(self, name, value):
        raise AttributeError("ColouredBipartiteGraph is immutable")

    def colour(self, i: int, j: int):
        return self.edges.get((i, j))

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * self.m

    def completed(self) -> "ColouredBipartiteGraph":
        """Fill missing edges with one fresh colour; keeps the automorphisms."""
        if self.is_complete():
            return self
        fresh = ("_missing",)
        full = dict(self.edges)
        for i in range(self.n):
            for j in range(self.m):
                full.setdefault((i, j), fresh)
        return ColouredBipartiteGraph(self.n, self.m, full)

    def __eq__(self, other):
        return (
            isinstance(other, ColouredBipartiteGraph)
            and (self.n, self.m) == (other.n, other.m)
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"ColouredBipartiteGraph(n={self.n}, m={self.m}, edges={len(self.edges)})"


class ColouredDigraph:
    """Complete loopless digraph on n vertices with a colour per ordered pair."""

    __slots__ = ("n", "colours")

    def __init__(self, n: int, colours: Mapping[tuple[int, int], Hashable]):
        if n < 1:
            raise ValueError("need at least one vertex")
        want = {(i, j) for i in range(n) for j in range(n) if i != j}
        if set(colours) != want:
            raise ValueError("colouring must cover exactly the ordered pairs i != j")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "colours", dict(colours))

    def __setattr__(self, name, value):
        raise AttributeError("ColouredDigraph is immutable")

    @classmethod
    def from_partial(cls, n: int, colours: Mapping[tuple[int, int], Hashable]):
        """Complete a partial colouring with one fresh colour for the rest."""
        fresh = ("_missing",)
        full = dict(colours)
        for i in range(n):
            for j in range(n):
                if i != j:
                    full.setdefault((i, j), fresh)
        return cls(n, full)

    def colour(self, i: int, j: int):
        return self.colours[(i, j)]

    def __eq__(self, other):
        return (
            isinstance(other, ColouredDigraph)
            and self.n == other.n
            and self.colours == other.colours
        )

    def __repr__(self):
        ncolours = len(set(self.colours.values()))
        return f"ColouredDigraph(n={self.n}, colours={ncolours})"
