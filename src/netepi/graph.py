"""Weighted contact digraphs and their basic structural queries.

The adjacency convention follows the contact-direction used throughout the
package: entry ``a[i, j]`` is the contact strength from node j to node i,
so row i collects everything that can infect node i. Edge-list text uses
1-based indices; in memory everything is 0-based.

A graph is stored as edge arrays (``rows``, ``cols``, ``weights``) in
canonical row-major order, so every product with the adjacency matrix costs
O(n + nnz); ``matmat`` multiplies a lane-major (B, n) block of vectors at
once. The dense matrix is built only when ``adjacency`` is read, and the
strongly connected components only when ``components`` or
``irreducible_parts`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyInputError, GraphFormatError, InputError, ReducibleMatrixError


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable weighted digraph held as edge arrays; a[i, j] weighs edge j -> i.

    ``Graph(dense_matrix)`` converts a square nonnegative matrix;
    ``load_graph`` builds the edge arrays directly from edge-list text.
    """

    n: int
    rows: np.ndarray  # target node i of each edge, non-decreasing
    cols: np.ndarray  # source node j, increasing within a row
    weights: np.ndarray  # a[i, j], nonnegative

    def __init__(self, adjacency):
        a = np.asarray(adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphFormatError(f"adjacency must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise GraphFormatError("graph needs at least one node")
        _check_weights(a)
        rows, cols = np.nonzero(a)
        self._set(a.shape[0], rows, cols, a[rows, cols])

    def _set(self, n, rows, cols, weights, label_cache=None) -> None:
        for name, value in (("rows", rows), ("cols", cols), ("weights", weights)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "_blocks", {})  # B -> matmat index arrays
        # positive-weight support -> SCC labels, shared by graphs with these edges
        object.__setattr__(self, "_label_cache", {} if label_cache is None else label_cache)
        object.__setattr__(self, "_parts", {})  # last support -> irreducible_parts

    def with_weights(self, weights) -> Graph:
        """The same edges with new nonnegative weights, one per edge.

        The new graph shares this one's cache of component labels, so a
        support that either has seen costs no second SCC pass.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.shape != self.weights.shape:
            raise InputError(f"need {self.nnz} weights, got shape {weights.shape}")
        _check_weights(weights)
        return _edge_graph(self.n, self.rows, self.cols, weights, self._label_cache)

    @property
    def nnz(self) -> int:
        return self.weights.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x in O(n + nnz)."""
        return np.bincount(self.rows, self.weights * x[self.cols], minlength=self.n)

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Lane-major block product: row k of the (B, n) result is A @ X[k].

        X is a (B, n) block in any memory order; the cost is O(B (n + nnz)).
        One bincount over the flattened bins k * n + rows. bincount adds the
        terms of each bin in edge order, as matvec does, so row k equals
        matvec(X[k]) bit for bit.
        """
        b = x.shape[0]
        bins, gather, weights = self._block_index(b)
        flat = np.bincount(bins, weights * x.ravel()[gather], minlength=b * self.n)
        return flat.reshape(b, self.n)

    def _block_index(self, b: int):
        """Bins, gather positions and weights of matmat for B = b, built once per b."""
        if b not in self._blocks:
            offsets = np.arange(b)[:, None] * self.n
            self._blocks[b] = (
                (offsets + self.rows).ravel(),
                (offsets + self.cols).ravel(),
                np.tile(self.weights, b),
            )
        return self._blocks[b]

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """A.T @ x in O(n + nnz)."""
        return np.bincount(self.cols, self.weights * x[self.rows], minlength=self.n)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only dense n x n matrix, built on first access (small n, tests)."""
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.weights
        a.setflags(write=False)
        return a

    @cached_property
    def components(self) -> np.ndarray:
        """Strongly connected component label of each node, along positive-weight edges.

        One O(n + nnz) pass per distinct support, cached across the graphs
        with_weights derives from this one.
        """
        support = self.weights > 0
        return self._labels(support, np.packbits(support).tobytes())

    def _labels(self, support: np.ndarray, key: bytes) -> np.ndarray:
        if key not in self._label_cache:
            # a[i, j] > 0 is an edge j -> i
            labels = _scc_labels(self.n, self.cols[support], self.rows[support])
            labels.setflags(write=False)
            self._label_cache[key] = labels
        return self._label_cache[key]

    def irreducible_parts(self, live=None) -> list[tuple[np.ndarray, Graph]]:
        """(nodes, sub-graph) of each strongly connected component with an inner edge.

        The components follow the positive-weight edges into the nodes where
        the boolean mask live is True (default: every node): the support of
        diag(s) A for s positive exactly on live. Each sub-graph holds this
        graph's weights on the edges inside its component, renumbered to its
        nodes in order; a component of all n nodes is this graph itself.
        Components without an inner edge are single nodes with a zero
        diagonal, and are left out. The parts of the last support asked for
        are cached on this graph, so consecutive calls with one support, such
        as the blocks of an R(t) series between zero-set changes, build them
        once.
        """
        support = self.weights > 0
        if live is not None:
            support &= live[self.rows]
        key = np.packbits(support).tobytes()
        if key not in self._parts:
            self._parts.clear()
            labels = self._labels(support, key)
            row_labels = labels[self.rows]
            inner = support & (row_labels == labels[self.cols])  # edges within a component
            parts = []
            for c in np.flatnonzero(np.bincount(row_labels[inner])):
                nodes = np.flatnonzero(labels == c)
                if nodes.size == self.n:
                    parts.append((nodes, self))
                    continue
                local = np.empty(self.n, dtype=np.intp)
                local[nodes] = np.arange(nodes.size)
                edges = inner & (row_labels == c)
                rows, cols = local[self.rows[edges]], local[self.cols[edges]]
                parts.append((nodes, _edge_graph(nodes.size, rows, cols, self.weights[edges])))
            self._parts[key] = parts
        return self._parts[key]


def _edge_graph(n, rows, cols, weights, label_cache=None) -> Graph:
    """Graph from edge arrays that are already validated and canonical."""
    g = object.__new__(Graph)
    g._set(n, rows, cols, weights, label_cache)
    return g


def _check_weights(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w)):
        raise GraphFormatError("adjacency entries must be finite")
    if np.any(w < 0):
        raise GraphFormatError("adjacency entries must be nonnegative")


def load_graph(edge_list_text: str) -> Graph:
    """Parse edge-list text into a Graph.

    Each data line is ``i j w`` (1-based indices, positive weight) and sets
    a[i, j] = w. An optional header line ``n <count>`` fixes the node count;
    otherwise it is inferred as the largest index seen. Lines starting with
    '#' and blank lines are ignored. Duplicate (i, j) pairs are an error.
    """
    header_n = None
    rows, cols, weights, line_nos = [], [], [], []
    for line_no, raw in enumerate(edge_list_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if header_n is not None:
                raise GraphFormatError(f"line {line_no}: duplicate header")
            if rows:
                raise GraphFormatError(f"line {line_no}: header must precede edges")
            if len(parts) != 2:
                raise GraphFormatError(f"line {line_no}: header must be 'n <count>'")
            try:
                header_n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {line_no}: bad node count {parts[1]!r}") from None
            if header_n < 1:
                raise GraphFormatError(f"line {line_no}: node count must be positive")
            continue
        if len(parts) != 3:
            raise GraphFormatError(f"line {line_no}: expected 'i j w', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {line_no}: expected 'i j w', got {line!r}") from None
        if i < 1 or j < 1:
            raise GraphFormatError(f"line {line_no}: indices are 1-based, got {i} {j}")
        if not math.isfinite(w) or w <= 0:
            raise GraphFormatError(f"line {line_no}: weight must be positive, got {parts[2]}")
        rows.append(i - 1)
        cols.append(j - 1)
        weights.append(w)
        line_nos.append(line_no)

    if not rows:
        raise EmptyInputError("no edges in input")

    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    max_index = int(max(rows.max(), cols.max())) + 1
    if header_n is not None and max_index > header_n:
        bad = np.nonzero(np.maximum(rows, cols) >= header_n)[0][0]
        raise GraphFormatError(
            f"line {line_nos[bad]}: index exceeds declared node count {header_n}"
        )
    n = header_n if header_n is not None else max_index

    # Stable row-major sort; every occurrence of a pair after its first
    # sorts right behind an equal key.
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][np.diff(keys[order]) == 0]
    if repeats.size:
        k = repeats.min()
        raise GraphFormatError(
            f"line {line_nos[k]}: duplicate edge ({rows[k] + 1}, {cols[k] + 1})"
        )
    return _edge_graph(n, rows[order], cols[order], np.array(weights)[order])


def dump_graph(g: Graph) -> str:
    """Serialize a Graph back to edge-list text (exact round trip).

    Weights are written with repr so load_graph(dump_graph(g)) reproduces
    the adjacency matrix bit for bit. Zero-weight edges are not edges and
    are left out.
    """
    lines = [f"n {g.n}"]
    keep = g.weights > 0
    for i, j, w in zip(g.rows[keep].tolist(), g.cols[keep].tolist(), g.weights[keep].tolist()):
        lines.append(f"{i + 1} {j + 1} {w!r}")
    return "\n".join(lines) + "\n"


def graph_from_rows(rows) -> Graph:
    """Build a Graph from a matrix given as a list of rows (the JSON form)."""
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        raise GraphFormatError("matrix rows must be numeric and rectangular") from None
    return Graph(a)


def is_strongly_connected(g: Graph) -> bool:
    """True iff every node reaches every other node along positive-weight edges.

    Equivalently, the adjacency matrix is irreducible. For n = 1 this
    requires a positive self-loop (the 1x1 zero matrix is reducible).
    Reads g.components, one O(n + nnz) pass cached on g.
    """
    if g.n == 1:
        return bool(np.any(g.weights > 0))
    return not g.components.any()  # a single component is labelled 0


def _scc_labels(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Strongly connected components of the digraph with edges tails[k] -> heads[k].

    Iterative Tarjan (1972): one depth-first search in O(n + nnz) that labels
    each component, 0 first, as its root finishes.
    """
    order = np.argsort(tails, kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(tails, minlength=n)))).tolist()
    out = heads[order].tolist()
    index = [-1] * n  # discovery order
    low = [0] * n  # smallest discovery index reachable within the search tree
    label = [-1] * n
    next_edge = first[:n]
    on_path = []  # Tarjan's stack of visited, unlabelled nodes
    visited = components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        on_path.append(root)
        search = [root]
        while search:
            v = search[-1]
            k = next_edge[v]
            if k < first[v + 1]:
                next_edge[v] = k + 1
                w = out[k]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    on_path.append(w)
                    search.append(w)
                elif label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
                continue
            search.pop()
            if search and low[v] < low[search[-1]]:
                low[search[-1]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = on_path.pop()
                    label[w] = components
                    if w == v:
                        break
                components += 1
    return np.array(label, dtype=np.intp)


def require_strongly_connected(g: Graph) -> None:
    """Raise ReducibleMatrixError unless the graph is strongly connected."""
    if not is_strongly_connected(g):
        raise ReducibleMatrixError(
            "graph is not strongly connected (adjacency matrix is reducible)"
        )


def degree_vector(g: Graph) -> np.ndarray:
    """Row sums d = A @ 1; diag(d) is the degree matrix."""
    return np.bincount(g.rows, g.weights, minlength=g.n)
