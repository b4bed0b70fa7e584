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
    """Complete loopless digraph on n vertices with a colour per ordered pair.

    The colouring is held as n rows of int colour ids, ``rows[i][j]`` the
    id of the pair (i, j) and -1 on the diagonal, and ``palette``, the
    colour of each id.  A digraph built from a mapping numbers its colours
    by first occurrence in row-major order; ``colours``, that mapping, and
    ``colour(i, j)`` are read off the rows.
    """

    __slots__ = ("n", "rows", "palette")

    def __init__(self, n: int, colours: Mapping[tuple[int, int], Hashable]):
        if n < 1:
            raise ValueError("need at least one vertex")
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        if len(colours) != len(pairs) or not all(map(colours.__contains__, pairs)):
            raise ValueError("colouring must cover exactly the ordered pairs i != j")
        ids: dict = {}
        rows = [
            [-1 if i == j else ids.setdefault(colours[(i, j)], len(ids)) for j in range(n)]
            for i in range(n)
        ]
        self._init(rows, tuple(ids))

    @classmethod
    def _of(cls, rows: list[list[int]], palette: Sequence[Hashable]) -> "ColouredDigraph":
        """The digraph of colour id rows already known to be valid."""
        out = object.__new__(cls)
        out._init(rows, palette)
        return out

    def _init(self, rows, palette) -> None:
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "palette", palette)

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

    @property
    def colours(self) -> dict:
        """A new dict of the colour of each ordered pair (i, j), i != j."""
        rows, palette = self.rows, self.palette
        pairs = ((i, j) for i in range(self.n) for j in range(self.n) if i != j)
        return {(i, j): palette[rows[i][j]] for i, j in pairs}

    def colour(self, i: int, j: int):
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise KeyError((i, j))
        return self.palette[self.rows[i][j]]

    def __eq__(self, other):
        if not isinstance(other, ColouredDigraph) or self.n != other.n:
            return False
        mine, theirs = self.palette, other.palette
        return all(
            mine[a] == theirs[b]
            for row, other_row in zip(self.rows, other.rows)
            for a, b in zip(row, other_row)
            if a >= 0  # -1 only on both diagonals
        )

    def __repr__(self):
        return f"ColouredDigraph(n={self.n}, colours={len(self.palette)})"
