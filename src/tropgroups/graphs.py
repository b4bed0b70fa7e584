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


class _ColouredRows:
    """A colouring held as n rows of m int colour ids, ``rows[i][j]`` the
    id of the edge (i, j) and -1 where there is none, and ``palette``, the
    colour of each id.  A graph built from a mapping numbers its colours
    by first occurrence in row-major order."""

    __slots__ = ("n", "m", "rows", "palette")

    @classmethod
    def _of(cls, rows: list[list[int]], palette: Sequence[Hashable]):
        """The graph of colour id rows already known to be valid."""
        out = object.__new__(cls)
        out._init(rows, palette)
        return out

    def _init(self, rows, palette) -> None:
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "m", len(rows[0]))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "palette", palette)

    def _number(self, n: int, m: int, colours: Mapping[tuple[int, int], Hashable]) -> None:
        """Hold the colours of the cells (i, j) of n x m in ``colours``."""
        ids: dict = {}
        rows = [
            [ids.setdefault(colours[i, j], len(ids)) if (i, j) in colours else -1
             for j in range(m)]
            for i in range(n)
        ]
        self._init(rows, tuple(ids))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _cells(self) -> dict:
        cells = ((i, j, c) for i, row in enumerate(self.rows) for j, c in enumerate(row))
        return {(i, j): self.palette[c] for i, j, c in cells if c >= 0}

    def _filled(self, loops: bool = True):
        """This graph with the colour ``("_missing",)`` on every edge it
        lacks, loops (i, i) only when ``loops``; itself if it lacks none.
        That colour keeps its id if the palette has it, else takes the
        last one."""
        missing = ("_missing",)
        palette = self.palette if missing in self.palette else (*self.palette, missing)
        fresh = palette.index(missing)
        rows = [
            [fresh if c < 0 and (loops or i != j) else c for j, c in enumerate(row)]
            for i, row in enumerate(self.rows)
        ]
        return self if rows == self.rows else self._of(rows, palette)

    def __eq__(self, other):
        if type(other) is not type(self) or (self.n, self.m) != (other.n, other.m):
            return False
        mine, theirs = self.palette, other.palette
        return all(
            a == b if a < 0 or b < 0 else mine[a] == theirs[b]
            for row, other_row in zip(self.rows, other.rows)
            for a, b in zip(row, other_row)
        )


class ColouredBipartiteGraph(_ColouredRows):
    """Directed bipartite graph, edges left->right, each with a colour.

    Used both for the finite-entry graph of a matrix (colours are scalar
    values) and for orbit colourings of paired group actions (colours are
    orbit ids).  Not necessarily complete.
    """

    __slots__ = ()

    def __init__(self, n: int, m: int, edges: Mapping[tuple[int, int], Hashable]):
        if n < 1 or m < 1:
            raise ValueError("both vertex sets must be nonempty")
        for (i, j) in edges:
            if not (i in range(n) and j in range(m)):  # a float end is in no cell
                raise ValueError(f"edge ({i}, {j}) out of range")
        self._number(n, m, edges)

    edges = property(_ColouredRows._cells, doc="A new dict of the colour of each edge (i, j).")

    def colour(self, i: int, j: int):
        """The colour of the edge (i, j), None where there is none."""
        if not (0 <= i < self.n and 0 <= j < self.m):
            raise KeyError((i, j))
        c = self.rows[i][j]
        return None if c < 0 else self.palette[c]

    def is_complete(self) -> bool:
        return all(-1 not in row for row in self.rows)

    def completed(self) -> "ColouredBipartiteGraph":
        """Fill missing edges with one fresh colour; keeps the automorphisms."""
        return self._filled()

    def __repr__(self):
        return f"ColouredBipartiteGraph(n={self.n}, m={self.m}, edges={len(self.edges)})"


class ColouredDigraph(_ColouredRows):
    """Complete loopless digraph on n vertices with a colour per ordered
    pair, its rows -1 on the diagonal only."""

    __slots__ = ()

    def __init__(self, n: int, colours: Mapping[tuple[int, int], Hashable]):
        self._hold(n, colours, n * (n - 1))

    def _hold(self, n: int, colours, pairs: int) -> None:
        """Hold ``colours``, a colouring of at least ``pairs`` of the
        ordered pairs i != j, and -1 on the pairs it leaves out."""
        if n < 1:
            raise ValueError("need at least one vertex")
        self._number(n, n, colours)
        held = sum(c >= 0 for row in self.rows for c in row)
        if held != len(colours) or held < pairs or any(self.rows[v][v] >= 0 for v in range(n)):
            raise ValueError("colouring must cover exactly the ordered pairs i != j")

    @classmethod
    def from_partial(cls, n: int, colours: Mapping[tuple[int, int], Hashable]):
        """Complete a partial colouring with one fresh colour for the rest."""
        partial = object.__new__(cls)
        partial._hold(n, colours, 0)
        return partial._filled(loops=False)

    colours = property(
        _ColouredRows._cells, doc="A new dict of the colour of each ordered pair (i, j), i != j."
    )

    def colour(self, i: int, j: int):
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise KeyError((i, j))
        return self.palette[self.rows[i][j]]

    def __repr__(self):
        return f"ColouredDigraph(n={self.n}, colours={len(self.palette)})"
