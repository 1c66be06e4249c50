"""Weighted contact digraphs and their basic structural queries.

The adjacency convention follows the contact-direction used throughout the
package: entry ``a[i, j]`` is the contact strength from node j to node i,
so row i collects everything that can infect node i. Edge-list text uses
1-based indices; in memory everything is 0-based.

A graph is stored as edge arrays (``rows``, ``cols``, ``weights``) in
canonical row-major order, so every product with the adjacency matrix costs
O(n + nnz). ``block_product`` is the one product: it binds A X for a
lane-major (B, n) block of vectors once, and ``transpose`` gives the graph
of A' for products with the transpose. No dense matrix is ever built.

``load_graph`` parses in bulk with numpy, and a line scan names bad lines.
The strongly connected components are found only when ``irreducible_parts``
is called: a capped edge sweep from one node settles a strongly connected
support, and Tarjan's algorithm finds the components of any other; each
graph caches the parts of the last support it was asked about.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, GraphFormatError, InputError, ReducibleMatrixError

# Largest node count or index load_graph accepts: the row-major sort keys
# rows * n + cols of an n-node graph must fit in np.intp.
MAX_NODES = math.isqrt(np.iinfo(np.intp).max)

# Rounds of one edge sweep before irreducible_parts falls back to Tarjan.
# A round costs O(nnz), and a sweep takes one round more than the largest
# distance from its root. Over 50 roots of each seed-21 benchmark graph,
# both sweeps ended within 5 rounds at n = 20, 8 at n = 500 and n = 1000,
# and 11 at n = 1e5 (ring plus 5n random edges), where the two sweeps took
# 0.04, 0.2, 0.4 and 29 ms against 0.1, 1.5, 2.8 and 390 ms for Tarjan's
# pass (2-core VM, numpy 2.4). Where the rounds run out, they are wasted
# before Tarjan: 1.4 ms before 10.5 ms on a 20,000-node ring, and 35 ms
# before 152 ms at n = 1e5 on a ring with 5 chords per node to nodes 2 to
# 11 ahead, so 64 rounds cost at most about a fifth of the pass they
# precede.
REACH_ROUNDS = 64

# One edge-list data line for np.loadtxt: two integer indices and a weight.
_EDGE_ROW = np.dtype([("i", np.intp), ("j", np.intp), ("w", float)])
# ASCII characters where the line scan breaks lines and np.loadtxt sees blanks.
_SCAN_ONLY = "\v\f\x1c\x1d\x1e"


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

    def _set(self, n, rows, cols, weights) -> None:
        for name, value in (("rows", rows), ("cols", cols), ("weights", weights)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "_parts", {})  # last support -> irreducible_parts

    @property
    def nnz(self) -> int:
        return self.weights.shape[0]

    def block_product(self, b: int, scale=1.0):
        """The function X -> (scale[k] A) X[k], row by row, for (b, n) blocks X.

        scale is one factor or b, one per row; if b = 1, X may be an n-vector.
        The index arrays, the scaled weights and a scratch buffer for the
        terms are built once per binding, so a call is a gather into the
        scratch, a multiply and one bincount over the flattened bins
        k * n + rows. All of them belong to the returned function, not to
        the graph: bind one per thread. Each call returns a new array.
        bincount adds each row's terms in edge order whatever b and the
        memory order of X, with row k's weights scale[k] * weights, so row k
        equals block_product(1, scale[k])(X[k:k+1]) bit for bit.
        """
        n = self.n
        offsets = np.arange(b)[:, None] * n
        bins = (offsets + self.rows).ravel()
        gather = (offsets + self.cols).ravel()
        weights = (np.broadcast_to(scale, (b,))[:, None] * self.weights).ravel()
        terms = np.empty_like(weights)
        shape, size = (b, n), b * n
        shapes = {shape, (n,)} if b == 1 else {shape}

        def product(x: np.ndarray) -> np.ndarray:
            if x.shape not in shapes:
                raise InputError(f"block has shape {x.shape}, expected {shape}")
            # mode="clip" lets take write into terms unbuffered; the shape
            # check keeps every index in range.
            x.take(gather, None, terms, "clip")
            np.multiply(terms, weights, terms)
            return np.bincount(bins, terms, size).reshape(x.shape)

        return product

    def transpose(self) -> Graph:
        """The graph of A', its edges re-sorted into canonical row-major order."""
        order = np.lexsort((self.rows, self.cols))
        return _edge_graph(self.n, self.cols[order], self.rows[order], self.weights[order])

    def irreducible_parts(self, live=None) -> list[tuple[np.ndarray, Graph]]:
        """(nodes, sub-graph) of each strongly connected component with an inner edge.

        The components follow the positive-weight edges into the nodes where
        the boolean mask live is True (default: every node): the support of
        diag(s) A for s positive exactly on live. Each sub-graph holds this
        graph's weights on the edges inside its component, renumbered to its
        nodes in order; a component of all n nodes is this graph itself.
        Components without an inner edge are single nodes with a zero
        diagonal, and are left out. The parts of the last support asked for
        are cached on this graph, so a repeated question is answered once:
        the connectivity checks of the CLI and of sir_asymptotic, or
        dominant_eig's check and then an R(t) series whose nodes are all
        live. A cache miss runs the edge sweeps of _spanning_part, and
        Tarjan's algorithm only when they do not answer. The cache holds
        None for this graph itself, so a graph never refers to itself and is
        freed without the cycle collector.
        """
        support = self.weights > 0
        if live is not None:
            support &= live[self.rows]
        key = np.packbits(support).tobytes()
        if key not in self._parts:
            self._parts.clear()
            parts = _spanning_part(self, support, live)
            self._parts[key] = _component_parts(self, support) if parts is None else parts
        return [(nodes, self if sub is None else sub) for nodes, sub in self._parts[key]]


def _spanning_part(g: Graph, support: np.ndarray, live) -> list | None:
    """The cached parts of a support whose live nodes are strongly connected, else None.

    Sweeps from the first live node along the support's edges between live
    nodes, forward and backward, for at most REACH_ROUNDS rounds each.
    When both sweeps reach every live node, those nodes are one component
    and every other node is a single node without an inner edge, so the
    parts are that one component, built as _component_parts would build it.
    None means the sweeps did not decide: the live nodes are not strongly
    connected, or the rounds ran out.
    """
    inner = support if live is None else support & live[g.cols]
    rows, cols = g.rows[inner], g.cols[inner]
    if not rows.size:
        return []
    nodes = np.arange(g.n) if live is None else np.flatnonzero(live)
    # a[i, j] > 0 is an edge j -> i: forward runs cols -> rows.
    for tails, heads in ((cols, rows), (rows, cols)):
        if _reached(g.n, tails, heads, nodes[0]) != nodes.size:
            return None
    if nodes.size == g.n:
        return [(nodes, None)]
    local = np.cumsum(live) - 1  # each live node's index among the live nodes
    return [(nodes, _edge_graph(nodes.size, local[rows], local[cols], g.weights[inner]))]


def _reached(n: int, tails: np.ndarray, heads: np.ndarray, root) -> int | None:
    """Nodes reached from root along the edges tails[k] -> heads[k], or None.

    An edge-centric sweep (Roy, Mihailovic and Zwaenepoel, X-Stream, 2013):
    each round marks the heads of all edges whose tails are marked, so round
    d marks the nodes at distance d. The search ends at the first round that
    marks no new node, and gives None when REACH_ROUNDS rounds all did.
    Once more than half the nodes are marked, each round also drops the
    edges into marked nodes, which can mark nothing more.
    """
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    count = 1
    for _ in range(REACH_ROUNDS):
        seen[heads[seen[tails]]] = True
        count, last = int(np.count_nonzero(seen)), count
        if count == last:
            return count
        if 2 * count > n:
            fresh = ~seen[heads]
            tails, heads = tails[fresh], heads[fresh]
    return None


def _component_parts(g: Graph, support: np.ndarray) -> list:
    """The cached parts of any support, from one pass of Tarjan's algorithm."""
    # a[i, j] > 0 is an edge j -> i
    labels = _scc_labels(g.n, g.cols[support], g.rows[support])
    row_labels = labels[g.rows]
    # Stable sorts group the nodes and the edges inside a component by
    # label and keep their order within a group, so each sub-graph's
    # edges stay row-major, and no part pays an O(n + nnz) mask.
    by_label = np.argsort(labels, kind="stable")
    first = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    local = np.empty(g.n, dtype=np.intp)  # each node's index in its part
    local[by_label] = np.arange(g.n) - first[labels[by_label]]
    inner = np.flatnonzero(support & (row_labels == labels[g.cols]))
    inner = inner[np.argsort(row_labels[inner], kind="stable")]
    counts = np.bincount(row_labels[inner], minlength=first.size - 1)
    first_edge = np.concatenate(([0], np.cumsum(counts)))
    parts = []
    for c in np.flatnonzero(counts):
        nodes = by_label[first[c] : first[c + 1]]
        if nodes.size == g.n:
            parts.append((nodes, None))
            continue
        edges = inner[first_edge[c] : first_edge[c + 1]]
        rows, cols = local[g.rows[edges]], local[g.cols[edges]]
        parts.append((nodes, _edge_graph(nodes.size, rows, cols, g.weights[edges])))
    return parts


def _edge_graph(n, rows, cols, weights) -> Graph:
    """Graph from edge arrays that are already validated and canonical."""
    g = object.__new__(Graph)
    g._set(n, rows, cols, weights)
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
    '#' and blank lines are ignored. Duplicate (i, j) pairs are an error,
    and so is a node count or index above MAX_NODES. The text is parsed in
    bulk when it lies in the bulk parse's domain and passes its checks;
    otherwise a line-by-line scan parses it or names its first bad line.
    """
    g = _bulk_graph(edge_list_text)
    return _scan_graph(edge_list_text) if g is None else g


def _bulk_graph(text: str) -> Graph | None:
    """The Graph of text from one np.loadtxt call and vectorized checks, or None.

    None for text without a data line, text that fails a parse or a check,
    and text where np.loadtxt may split lines or tokens unlike _scan_graph:
    non-ASCII, a break from _SCAN_ONLY, or a '#' after other text on its
    line. Each CR becomes LF first, so lines break where str.splitlines
    breaks them for _scan_graph; a CRLF end leaves a blank line, which both
    skip. np.loadtxt reads numbers as int() and float() do or rejects them
    ("1_0", and "1.0" as an index), so _scan_graph accepts every text this
    accepts, with the same edges.
    """
    text = text.replace("\r", "\n")
    if not text.isascii() or any(c in text for c in _SCAN_ONLY):
        return None
    header, start = None, 0
    while True:  # blank and '#' lines and at most one header, up to the first data line
        if start == len(text):
            return None
        end = text.find("\n", start) + 1 or len(text)
        parts = text[start:end].split()
        if parts and parts[0][0] != "#":
            if parts[0] != "n" or header is not None:
                break
            if len(parts) != 2:
                return None
            header = parts[1]
        start = end
    if _inline_hash(text, text.find("#", start)):
        return None
    n = MAX_NODES
    if header is not None:
        try:
            n = int(header)
        except ValueError:
            return None
        if not 1 <= n <= MAX_NODES:
            return None
    try:
        edges = np.loadtxt(io.StringIO(text[start:]), dtype=_EDGE_ROW, comments="#", ndmin=1)
    except ValueError:
        return None
    i, j, w = edges["i"], edges["j"], edges["w"]
    top = int(max(i.max(), j.max()))
    if min(i.min(), j.min()) < 1 or top > n or not np.all(np.isfinite(w) & (w > 0)):
        return None
    if header is None:
        n = top
    rows, cols = i - 1, j - 1
    order, repeat = _row_major(n, rows, cols)
    if repeat >= 0:
        return None
    return _edge_graph(n, rows[order], cols[order], w[order])


def _row_major(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, int]:
    """The stable row-major order of the edges, and the first edge repeating a pair, or -1.

    Every occurrence of a pair after its first sorts right behind an equal key.
    """
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][np.diff(keys[order]) == 0]
    return order, int(repeats.min()) if repeats.size else -1


def _inline_hash(text: str, pos: int) -> bool:
    """True if the first '#' of a line, from the '#' at pos on, follows other text on its line."""
    while pos >= 0:
        if text[text.rfind("\n", 0, pos) + 1 : pos].strip():
            return True
        end = text.find("\n", pos)
        pos = -1 if end < 0 else text.find("#", end)
    return False


def _scan_graph(edge_list_text: str) -> Graph:
    """load_graph's reference parse: one line at a time, naming the first bad line."""
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
            if header_n > MAX_NODES:
                raise GraphFormatError(f"line {line_no}: node count exceeds {MAX_NODES}")
            continue
        if len(parts) != 3:
            raise GraphFormatError(f"line {line_no}: expected 'i j w', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(f"line {line_no}: expected 'i j w', got {line!r}") from None
        if not (1 <= i <= MAX_NODES and 1 <= j <= MAX_NODES):
            if i < 1 or j < 1:
                raise GraphFormatError(f"line {line_no}: indices are 1-based, got {i} {j}")
            raise GraphFormatError(f"line {line_no}: index exceeds {MAX_NODES}")
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

    order, k = _row_major(n, rows, cols)
    if k >= 0:
        raise GraphFormatError(
            f"line {line_nos[k]}: duplicate edge ({rows[k] + 1}, {cols[k] + 1})"
        )
    return _edge_graph(n, rows[order], cols[order], np.array(weights)[order])


def graph_from_rows(rows) -> Graph:
    """Build a Graph from a matrix given as a list of rows (the JSON form).

    Every entry must be a number; booleans, strings and nulls are errors that
    name the entry's 1-based row and column.
    """
    for i, row in enumerate(rows if isinstance(rows, list) else [], start=1):
        for j, v in enumerate(row if isinstance(row, list) else [], start=1):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise GraphFormatError(f"row {i}, column {j}: entry {v!r} is not a number")
    try:
        a = np.array(rows, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise GraphFormatError("adjacency entries must be finite") from None
    except (TypeError, ValueError):
        raise GraphFormatError("matrix rows must be numeric and rectangular") from None
    return Graph(a)


def is_strongly_connected(g: Graph) -> bool:
    """True iff every node reaches every other node along positive-weight edges.

    Equivalently, the adjacency matrix is irreducible, so every node has a
    positive in-edge (at n = 1, a positive self-loop): fewer positive edges
    than nodes answer False at once. Otherwise reads g.irreducible_parts(),
    one pass cached on g, by edge sweeps or else Tarjan's algorithm: the
    graph is strongly connected when its only part is g itself.
    """
    if np.count_nonzero(g.weights) < g.n:
        return False
    parts = g.irreducible_parts()
    return len(parts) == 1 and parts[0][1] is g


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
