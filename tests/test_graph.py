import gc
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netepi import (
    EmptyInputError,
    GraphFormatError,
    ModelParams,
    NetEpiError,
    degree_vector,
    dominant_eig,
    effective_matrix,
    graph_from_rows,
    initial_state,
    integrate,
    is_strongly_connected,
    load_graph,
)
from netepi import graph
from netepi.graph import MAX_NODES, Graph

from conftest import (
    complete_graph,
    dense,
    directed_ring,
    dump_graph,
    random_sc_graph,
    reweighted,
    symmetric_pair,
    two_node,
)


def test_load_two_node_pair():
    g = load_graph("1 2 1.0\n2 1 1.0")
    np.testing.assert_array_equal(dense(g), [[0.0, 1.0], [1.0, 0.0]])


def test_load_directed_three_cycle():
    # "i j w" sets a_ij: the influence of j on i.
    g = load_graph("1 2 1\n2 3 1\n3 1 1")
    np.testing.assert_array_equal(
        dense(g), [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    )


def test_load_empty_input():
    with pytest.raises(EmptyInputError):
        load_graph("")
    with pytest.raises(EmptyInputError):
        load_graph("# only a comment\n\n")


def test_load_header_and_comments():
    g = load_graph("# contact net\nn 3\n1 2 0.5\n2 1 2.5\n")
    assert g.n == 3
    assert dense(g)[0, 1] == 0.5
    assert not is_strongly_connected(g)  # node 3 is isolated


@pytest.mark.parametrize(
    "text",
    [
        "1 2\n",  # missing weight
        "1 2 x\n",  # bad weight literal
        "0 2 1.0\n",  # indices are 1-based
        "1 2 0.0\n",  # nonpositive weight
        "1 2 -1.0\n",  # negative weight
        "n 2\n1 3 1.0\n",  # index out of range
        "1 2 1.0\n1 2 2.0\n",  # duplicate edge
        "n 2\nn 2\n1 2 1.0\n",  # duplicate header
    ],
)
def test_load_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        load_graph(text)


@pytest.mark.parametrize(
    "text, line",
    [
        (f"n {MAX_NODES + 1}\n1 2 1.0\n", 1),
        ("n 99999999999999999999\n1 2 1.0\n", 1),
        ("n 2\n1 2 1.0\n# far\n99999999999999999999 1 1.0\n", 4),
        (f"1 {MAX_NODES + 1} 1.0\n", 1),
    ],
)
def test_load_rejects_counts_beyond_the_key_bound(text, line):
    with pytest.raises(GraphFormatError, match=f"line {line}: .* exceeds {MAX_NODES}$"):
        load_graph(text)
    # The bound itself still fits the row-major keys rows * n + cols.
    g = load_graph(f"{MAX_NODES} 1 1.0\n1 {MAX_NODES} 1.0\n")
    assert g.n == MAX_NODES and g.rows.tolist() == [0, MAX_NODES - 1]


def test_graph_from_rows_validates():
    with pytest.raises(GraphFormatError):
        graph_from_rows([[0, 1], [1]])
    with pytest.raises(GraphFormatError):
        graph_from_rows([[0, -1], [1, 0]])
    with pytest.raises(GraphFormatError, match="row 1, column 2: entry True is not a number"):
        graph_from_rows([[0, True], [True, 0]])
    with pytest.raises(GraphFormatError, match="row 2, column 1: entry '3' is not a number"):
        graph_from_rows([[0, 2], ["3", 0]])
    with pytest.raises(GraphFormatError, match="row 1, column 2: entry None is not a number"):
        graph_from_rows([[0, None], [None, 0]])
    with pytest.raises(GraphFormatError, match="must be finite"):
        graph_from_rows([[0, 10**400], [1, 0]])  # beyond the float range
    g = graph_from_rows([[0, 1], [1, 0]])
    assert g.n == 2


def test_strong_connectivity_examples():
    assert is_strongly_connected(symmetric_pair())
    assert not is_strongly_connected(Graph(np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert is_strongly_connected(directed_ring(3))
    # n = 1 needs a positive self-loop for irreducibility
    assert not is_strongly_connected(Graph(np.array([[0.0]])))
    assert is_strongly_connected(Graph(np.array([[0.7]])))


def test_degree_vector_examples():
    np.testing.assert_array_equal(degree_vector(symmetric_pair()), [1.0, 1.0])
    np.testing.assert_array_equal(degree_vector(complete_graph(4)), [3.0] * 4)
    np.testing.assert_array_equal(degree_vector(two_node()), [2.0, 8.0])


def test_round_trip_exact():
    g = two_node()
    assert np.array_equal(dense(load_graph(dump_graph(g))), dense(g))


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    chosen = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    weights = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    lines = [f"n {n}"] + [f"{i} {j} {w!r}" for (i, j), w in zip(sorted(chosen), weights)]
    return "\n".join(lines)


@given(edge_lists())
@settings(max_examples=100)
def test_round_trip_property(text):
    g = load_graph(text)
    g2 = load_graph(dump_graph(g))
    assert np.array_equal(dense(g), dense(g2))


def _closure(a: np.ndarray) -> np.ndarray:
    """Transitive closure: entry [i, j] is True iff a path of length >= 1 runs j -> i."""
    p = (a > 0).astype(int)
    closure = p.copy()
    for _ in range(a.shape[0]):
        closure = ((closure + closure @ p) > 0).astype(int)
    return closure > 0


def _brute_strongly_connected(a: np.ndarray) -> bool:
    """Transitive-closure oracle: every ordered pair linked by a length>=1 path."""
    n = a.shape[0]
    if n == 1:
        return bool(a[0, 0] > 0)
    off_diag = ~np.eye(n, dtype=bool)
    return bool(np.all(_closure(a)[off_diag]))


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=200)
def test_strong_connectivity_matches_brute_force(n, data):
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
    )
    a = np.array(bits, dtype=float).reshape(n, n)
    assert is_strongly_connected(Graph(a)) == _brute_strongly_connected(a)


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=200)
def test_irreducible_parts_match_mutual_reachability(n, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    a = np.array(bits, dtype=float).reshape(n, n)
    mask = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    live = None if mask is None else np.array(mask)
    if live is not None:
        a *= live[:, None]  # the support of diag(s) A keeps the edges into live nodes
    reach = _closure(a) | np.eye(n, dtype=bool)
    classes = {tuple(np.flatnonzero(reach[i] & reach[:, i]).tolist()) for i in range(n)}
    # Only a single node without a self-loop lacks an inner edge.
    expected = sorted(c for c in classes if len(c) > 1 or a[c[0], c[0]] > 0)
    g = Graph(np.array(bits, dtype=float).reshape(n, n))
    parts = g.irreducible_parts(live)
    assert sorted(tuple(nodes.tolist()) for nodes, _ in parts) == expected
    for nodes, sub in parts:
        np.testing.assert_array_equal(dense(sub), a[np.ix_(nodes, nodes)])
    # Where the frontier search answers, its part is Tarjan's, array for array.
    support = (g.weights > 0) & (True if live is None else live[g.rows])
    spanning = graph._spanning_part(g, support, live)
    if spanning is not None:
        tarjan = graph._component_parts(g, support)
        assert len(spanning) == len(tarjan)
        for (nodes, sub), (t_nodes, t_sub) in zip(spanning, tarjan):
            assert nodes.dtype == t_nodes.dtype and np.array_equal(nodes, t_nodes)
            assert (sub is None) == (t_sub is None)
            if sub is not None:
                assert sub.n == t_sub.n
                for name in ("rows", "cols", "weights"):
                    x, y = getattr(sub, name), getattr(t_sub, name)
                    assert x.dtype == y.dtype and np.array_equal(x, y)


def test_strongly_connected_supports_skip_tarjan(scc_passes):
    g = random_sc_graph(np.random.default_rng(5), n=30)
    assert is_strongly_connected(g)
    live = np.ones(30, dtype=bool)
    live[7] = False  # an SIR seed node: s = 0 there
    ((nodes, sub),) = g.irreducible_parts(live)
    assert scc_passes == [30, 30] and scc_passes.answers == ["frontier", "frontier"]
    np.testing.assert_array_equal(nodes, np.flatnonzero(live))
    np.testing.assert_array_equal(dense(sub), dense(g)[np.ix_(nodes, nodes)])


def test_frontier_rounds_are_capped():
    for n, answer in ((graph.REACH_ROUNDS, "frontier"), (graph.REACH_ROUNDS + 1, "tarjan")):
        # A ring of n nodes takes n - 1 rounds to reach every node and one to see no more.
        ring = load_graph(_ring_text(n))
        support = ring.weights > 0
        assert (graph._spanning_part(ring, support, None) is None) == (answer == "tarjan")
        assert is_strongly_connected(ring)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=300)
def test_sweep_reaches_the_closure_below_the_round_cap(n, cap, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    a = np.array(bits, dtype=bool).reshape(n, n)
    root = data.draw(st.integers(0, n - 1))
    forward = data.draw(st.booleans())
    # a[i, j] is an edge j -> i; backward searches follow the edges of a'.
    p = a if forward else a.T
    rows, cols = np.nonzero(p)
    reach = _closure(p)[:, root]
    reach[root] = True
    within, eccentricity = np.arange(n) == root, 0  # nodes at most eccentricity steps away
    while not np.array_equal(within, reach):
        within = within | np.any(p & within, axis=1)
        eccentricity += 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "REACH_ROUNDS", cap)
        count = graph._reached(n, cols, rows, root)
    # The sweep takes one round per step and one more to see no new node.
    assert count == (np.count_nonzero(reach) if eccentricity < cap else None)


def test_long_ring_exhausts_the_frontier_cap(scc_passes):
    times = []
    for _ in range(3):
        ring = load_graph(_ring_text(20_000))  # fresh: the parts are cached
        start = time.perf_counter()
        assert is_strongly_connected(ring)
        times.append(time.perf_counter() - start)
    assert scc_passes.answers == ["tarjan"] * 3
    # The REACH_ROUNDS rounds the search wastes cost about a tenth of Tarjan's pass.
    assert min(times) < 0.25


def test_each_graph_pays_its_own_scc_pass_per_support(scc_passes):
    a = dense(directed_ring(4))
    a[2, 0] = 1.0  # chord 0 -> 2: with ring edge 0 -> 1 zeroed, 4 positive edges remain
    g = Graph(a)  # edges in order (0, 3), (1, 0), (2, 0), (2, 1), (3, 2)
    assert is_strongly_connected(g)
    assert is_strongly_connected(g)
    g.irreducible_parts(np.ones(4, dtype=bool))  # the full support again: no pass
    assert len(scc_passes) == 1
    assert is_strongly_connected(reweighted(g, [2.0, 3.0, 4.0, 5.0, 6.0]))
    assert not is_strongly_connected(reweighted(g, [1.0, 0.0, 1.0, 1.0, 1.0]))
    assert not is_strongly_connected(reweighted(g, [2.0, 0.0, 2.0, 2.0, 2.0]))
    assert len(scc_passes) == 4  # one per reweighted graph, even on one support


def test_checked_graph_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        g = symmetric_pair()
        assert is_strongly_connected(g)  # its one part is g itself
        alive = weakref.ref(g)
        del g
        assert alive() is None
    finally:
        gc.enable()


def test_fewer_positive_edges_than_nodes_need_no_scc_pass(scc_passes):
    assert not is_strongly_connected(reweighted(directed_ring(4), [0.0, 1.0, 1.0, 1.0]))
    assert not is_strongly_connected(Graph(np.array([[0.0]])))
    assert scc_passes == []
    assert is_strongly_connected(Graph(np.array([[0.7]])))  # one positive self-loop
    assert scc_passes == [1]


# --- edge-list core ---------------------------------------------------------


@st.composite
def sparse_graphs(draw):
    """Random graphs, self-loops and n = 1 included, from edge-list text or a dense array."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
    weights = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    a = np.zeros((n, n))
    for (i, j), w in zip(chosen, weights):
        a[i - 1, j - 1] = w
    dense = Graph(a)
    if not chosen or draw(st.booleans()):
        return dense
    lines = [f"n {n}"] + [f"{i} {j} {w!r}" for (i, j), w in zip(chosen, weights)]
    g = load_graph("\n".join(lines))
    for name in ("rows", "cols", "weights"):
        assert np.array_equal(getattr(g, name), getattr(dense, name))
    return g


@given(sparse_graphs(), st.data())
@settings(max_examples=200)
def test_block_product_matches_dense_products(g, data):
    x = np.array(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=g.n, max_size=g.n))
    )
    a = dense(g)
    t = g.transpose()
    np.testing.assert_array_equal(dense(t), a.T)
    # Only the summation order differs from the dense product.
    eps = g.n * np.finfo(float).eps
    assert np.all(np.abs(g.block_product(1)(x[None])[0] - a @ x) <= eps * (a @ np.abs(x)))
    assert np.all(np.abs(t.block_product(1)(x[None])[0] - a.T @ x) <= eps * (a.T @ np.abs(x)))
    np.testing.assert_array_equal(g.block_product(1)(np.ones((1, g.n)))[0], degree_vector(g))
    for h in (g, t):
        keys = h.rows * h.n + h.cols
        assert np.all(np.diff(keys) > 0)  # canonical row-major order, no repeats


@given(sparse_graphs(), st.integers(min_value=1, max_value=5), st.booleans(), st.data())
@settings(max_examples=200)
def test_block_product_rows_equal_single_products(g, b, fortran, data):
    values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=g.n * b, max_size=g.n * b))
    x = np.array(values).reshape(b, g.n, order="F" if fortran else "C")
    single = g.block_product(1)
    for block in (g.block_product(b)(x), g.block_product(b)(x)):  # the second reuses the bins
        assert block.shape == (b, g.n)
        for k in range(b):
            assert np.array_equal(block[k], single(x[k : k + 1])[0])


def test_block_product_folds_the_scale_and_keeps_its_results():
    g = two_node()
    product = g.block_product(2, 0.5)
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    first = product(x)
    second = product(2.0 * x)  # reuses the scratch, not the first result
    np.testing.assert_array_equal(first, [[2.0, 4.0], [-1.0, 12.0]])
    np.testing.assert_array_equal(second, 2.0 * first)
    for bad in (np.ones((2, 3)), np.ones((1, 2)), np.ones(4), np.ones(2)):
        with pytest.raises(ValueError, match="block has shape"):
            product(bad)
    # One scale per row: each row as bound alone with its own scale; b = 1 also takes an n-vector.
    rows = g.block_product(2, [0.5, 3.0])(x)
    for k, scale in enumerate((0.5, 3.0)):
        single = g.block_product(1, scale)
        assert np.array_equal(rows[k], single(x[k : k + 1])[0])
        assert np.array_equal(rows[k], single(x[k]))


@given(sparse_graphs())
@settings(max_examples=200)
def test_dump_load_round_trip_sparse(g):
    if g.nnz == 0:
        with pytest.raises(EmptyInputError):
            load_graph(dump_graph(g))
        return
    g2 = load_graph(dump_graph(g))
    assert g2.n == g.n
    for name in ("rows", "cols", "weights"):
        assert np.array_equal(getattr(g2, name), getattr(g, name))


def test_reweighted_graphs_keep_every_edge():
    g = two_node()
    np.testing.assert_array_equal(dense(reweighted(g, [4.0, 1.0])), [[0.0, 4.0], [1.0, 0.0]])
    # diag(s) A keeps an edge into a node at s = 0, with weight 0, as reweighted does.
    h = effective_matrix(np.array([0.0, 0.5]), g)
    assert h.n == g.n and h.rows is g.rows and h.cols is g.cols
    np.testing.assert_array_equal(h.weights, [0.0, 4.0])


def test_duplicate_edge_reports_first_repeat_line():
    with pytest.raises(GraphFormatError, match="line 4: duplicate edge \\(2, 1\\)"):
        load_graph("1 2 1\n2 1 1\n1 1 1\n2 1 3\n1 2 5\n")


# Odd forms by the slot they take in an edge line [lead, i, blank, j, blank, w, tail].
_ODD_TOKENS = {
    (1, 3): ["+1", "01", "1_0", "1.0", "-1", "0", "\u0661", str(MAX_NODES + 1), "9" * 20],
    (5,): ["1_0", "nan", "inf", "-inf", "0", "-0", "1e-400", "5e-324", ".5", "+2"],
    (2, 4): ["\xa0", "\u2003", "\x1f", "\x0c", "\x0b", "\r"],  # non-ASCII, or ASCII line breaks
    (6,): [" # note", "#x", " 4", "\u2028# x"],
}
_ODD_LINES = ["n 0", "n x", "n +3", "n 3 4", "n", "n 9", "  # indented", "\u2028"]
_ODD_ENDS = ["\r", "\u2028", "\x0b", "\x1c"]


@st.composite
def edge_list_texts(draw):
    """Well-formed edge-list text with at most one odd form put in.

    The odd forms are those the bulk parse and the line scan could read
    differently. One per text, so it is not hidden behind another error.
    Duplicate edges still come up among indices up to 7.
    """
    index = st.integers(1, 7).map(str)
    weight = st.floats(min_value=5e-324, max_value=1e300).map(repr)
    blank = st.sampled_from([" ", "  ", "\t", " \t "])
    lead = st.sampled_from(["", " ", "\t"])
    edge = st.tuples(lead, index, blank, index, blank, weight, st.sampled_from(["", " ", "\t"]))
    comment = st.tuples(lead, st.sampled_from(["#", "# note", "## a # b", "#1 2 3"])).map("".join)
    other = comment | st.sampled_from(["", " ", "\t "])
    lines = [draw(st.sampled_from(["n 7", "n 8", " n\t7 "]))] if draw(st.booleans()) else []
    lines += draw(st.lists(edge.map(list) | other, max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    edges = [k for k, line in enumerate(lines) if isinstance(line, list)]
    odd = draw(st.sampled_from([None, "token", "token", "line", "end"]))
    if odd == "token" and edges:
        slots = draw(st.sampled_from(list(_ODD_TOKENS)))
        lines[draw(st.sampled_from(edges))][draw(st.sampled_from(slots))] = draw(
            st.sampled_from(_ODD_TOKENS[slots])
        )
    elif odd == "line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_ODD_LINES)))
        ends.append("\n")
    elif odd == "end" and lines:
        ends[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(_ODD_ENDS))
    text = "".join(
        ("".join(line) if isinstance(line, list) else line) + end for line, end in zip(lines, ends)
    )
    return text + draw(st.sampled_from(["", "1 2 1"]))


def _edges(g: Graph) -> tuple:
    return g.n, g.rows.dtype, g.rows.tolist(), g.cols.tolist(), g.weights.view(np.uint64).tolist()


def _outcome(parse, text) -> tuple:
    try:
        return _edges(parse(text))
    except NetEpiError as e:
        return type(e), str(e)


@given(edge_list_texts())
@settings(max_examples=500)
@example("1.0 2 1\n2 1 1\n")
@example("n 3\n1 2 1\n2 1 1_0\n# c\r\n3 1 1 # note\n")
@example("1 2 1\n2 1 1\n1 2 0.5\n")
@example("# c\r1 2 1\n2 1 1\n")
@example("1 2\x0c1\n2 1 1\n")
def test_bulk_parse_agrees_with_the_line_scan(text):
    scan = _outcome(graph._scan_graph, text)
    bulk = graph._bulk_graph(text)
    if bulk is not None:  # what the bulk path accepts, the scan accepts with equal arrays
        assert _edges(bulk) == scan
    assert _outcome(load_graph, text) == scan


@pytest.mark.parametrize(
    "text",
    [
        "1 2 1\n2 1 0.5\n",
        "# contact net\n\n  # indented\nn 3\n\t\n1\t2 1e-3\r\n2 1 2.5  \n# end # x\n3 1 1",
    ],
)
def test_bulk_parse_takes_comments_blank_lines_crlf_and_tabs(text):
    g = graph._bulk_graph(text)
    assert g is not None and _edges(g) == _outcome(graph._scan_graph, text)


_LF_TEXT = "n 4\n# contacts\n1 2 0.5\n\n2 3 1.5\n3 4 2e-3\n4 1 1\n"


def test_lf_crlf_and_cr_line_ends_parse_in_bulk_to_one_graph():
    lf = graph._bulk_graph(_LF_TEXT)
    for end in ("\r\n", "\r"):
        g = graph._bulk_graph(_LF_TEXT.replace("\n", end))
        assert g is not None and _edges(g) == _edges(lf)


def test_a_bad_line_keeps_its_number_under_every_line_end():
    bad = _LF_TEXT.replace("2 3 1.5", "2 3 x")
    messages = {_outcome(load_graph, bad.replace("\n", end)) for end in ("\n", "\r\n", "\r")}
    assert messages == {(GraphFormatError, "line 5: expected 'i j w', got '2 3 x'")}


def _ring_text(n: int, skip_first: bool = False) -> str:
    edges = [f"{(i + 1) % n + 1} {i + 1} 1.0" for i in range(n)]
    return "\n".join([f"n {n}"] + edges[skip_first:]) + "\n"


def test_directed_ring_connectivity_is_linear():
    times = []
    for _ in range(3):
        ring = load_graph(_ring_text(20_000))  # fresh: the parts are cached
        start = time.perf_counter()
        assert is_strongly_connected(ring)
        times.append(time.perf_counter() - start)
    # The ring is one search path of depth n. On a 2-core VM the O(n + nnz)
    # search takes about 16 ms; a search paying O(n) per level takes over a second.
    assert min(times) < 0.25
    assert not is_strongly_connected(load_graph(_ring_text(20_000, skip_first=True)))


def test_many_components_cost_linear_time():
    pairs = "".join(f"{i} {i + 1} 1.0\n{i + 1} {i} 1.0\n" for i in range(1, 40_000, 2))
    g = load_graph(pairs)
    start = time.perf_counter()
    assert not is_strongly_connected(g)
    elapsed = time.perf_counter() - start
    parts = g.irreducible_parts()
    assert len(parts) == 20_000 and all(sub.n == 2 and sub.nnz == 2 for _, sub in parts)
    # About 0.15 s on a 2-core VM; one O(n + nnz) mask per part takes about 2 s.
    assert elapsed < 1.0


def _sparse_edge_list(n: int, degree: float, seed: int) -> str:
    rng = np.random.default_rng(seed)
    nodes = np.arange(n)
    rows = np.concatenate(((nodes + 1) % n, rng.integers(0, n, int(degree * n))))
    cols = np.concatenate((nodes, rng.integers(0, n, int(degree * n))))
    keys = np.unique(rows * n + cols)
    rows, cols = keys // n, keys % n
    keep = rows != cols
    weights = rng.uniform(0.1, 2.0, keep.sum())
    lines = [f"n {n}"] + [
        f"{i + 1} {j + 1} {w!r}"
        for i, j, w in zip(rows[keep].tolist(), cols[keep].tolist(), weights.tolist())
    ]
    return "\n".join(lines) + "\n"


def test_memory_stays_linear_in_edges():
    text = _sparse_edge_list(5000, 5.0, seed=11)
    tracemalloc.start()
    try:
        g = load_graph(text)
        assert is_strongly_connected(g)
        trip = dominant_eig(g)
        integrate(
            initial_state("SIR", np.full(g.n, 0.01)),
            ModelParams("SIR", 2.0 / trip.lambda_max, 1.0),
            g,
            t_end=1e-3,
            dt=1e-3,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.nnz > 25_000
    # A dense 5000 x 5000 matrix alone takes 200 MB.
    assert peak < 20e6
