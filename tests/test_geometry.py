import collections
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thin_gasket.errors import BudgetError, DomainError
from thin_gasket.geometry import (_BYTES_PER_SLOT, _cell_hops, _cell_least_hops,
                                  _outer_ball_mass, boundary_cells, build_graph,
                                  geodesic_hops, graph_to_json, index_to_word,
                                  interior_letters, is_cell_index,
                                  neighborhood_vertex_ids, render_svg, word_to_index,
                                  words)
from thin_gasket.sequence import LevelSequence


# ---- Letters -------------------------------------------------------------


@pytest.mark.parametrize("l", range(5, 41))
def test_boundary_cells_enumeration(l):
    # the O(l^2) scan of the index triangle, in lexicographic order
    expected = [(i1, i2) for i1 in range(l) for i2 in range(l - i1)
                if i1 * i2 * (l - 1 - i1 - i2) == 0]
    got = boundary_cells(l)
    assert list(got) == expected
    assert len(got) == 3 * l - 3


@pytest.mark.parametrize("l", [5, 6, 9])
def test_interior_letters_are_away_from_corners(l):
    inner = interior_letters(l)
    ks = set(range(2, l - 2))
    for i in inner:
        assert max(i) in ks
    # each of the three sides contributes l - 4 interior letters
    assert len(inner) == 3 * (l - 4)
    assert set(inner) <= set(boundary_cells(l))


def test_is_cell_index():
    assert is_cell_index(5, (2, 0))
    assert is_cell_index(5, (2, 2))
    assert not is_cell_index(5, (1, 1))
    assert not is_cell_index(5, (5, 0))


# ---- Words ---------------------------------------------------------------


def test_word_enumeration_round_trip(ls576):
    n = 2
    ws = list(words(ls576, n))
    assert len(ws) == ls576.M(n) == 12 * 18
    for idx, w in enumerate(ws):
        assert word_to_index(ls576, w) == idx
        assert index_to_word(ls576, n, idx) == w


@given(st.integers(min_value=0, max_value=12 * 18 * 15 - 1))
def test_index_word_inverse(idx):
    ls = LevelSequence((5, 7, 6))
    w = index_to_word(ls, 3, idx)
    assert word_to_index(ls, w) == idx


# ---- Graphs --------------------------------------------------------------


def test_depth_one_graph_frozen_counts(ls5):
    g = build_graph(ls5, 1)
    assert (g.n_vertices, g.n_cells, g.n_edges) == (21, 12, 36)
    # corners sit at the lattice triangle corners, scaled by L_1 = 5
    assert tuple(g.vertices[g.corner_id(0)]) == (0, 0)
    assert tuple(g.vertices[g.corner_id(1)]) == (5, 0)
    assert tuple(g.vertices[g.corner_id(2)]) == (0, 5)


def test_depth_two_graph_frozen_counts(ls5):
    g = build_graph(ls5, 2)
    assert (g.n_vertices, g.n_cells, g.n_edges) == (237, 144, 432)


def _cells_of_vertex(g, v: int) -> np.ndarray:
    return np.flatnonzero((g.cells == v).any(axis=1))


@pytest.mark.parametrize("seq,depth", [((5,), 1), ((5,), 2), ((7,), 1),
                                       ((5, 6), 2)])
def test_cell_incidence_structure(seq, depth):
    g = build_graph(LevelSequence(seq, continuation="repeat-last"), depth)
    # every corner slot is accounted for and no vertex sits in 3+ cells,
    # so distinct cells can share at most one point
    counts = np.bincount(g.cells.ravel(), minlength=g.n_vertices)
    assert counts.min() >= 1
    assert counts.max() <= 2
    assert counts.sum() == 3 * g.n_cells
    pair_seen = collections.Counter()
    for v in range(g.n_vertices):
        for a, b in itertools.combinations(sorted(_cells_of_vertex(g, v)), 2):
            pair_seen[(a, b)] += 1
    assert not pair_seen or max(pair_seen.values()) == 1


def test_edges_are_cell_sides(ls5):
    g = build_graph(ls5, 2)
    sides = set()
    for c in g.cells:
        for a, b in itertools.combinations(sorted(int(v) for v in c), 2):
            sides.add((a, b))
    assert len(sides) == g.n_edges
    a = g.adjacency.tocoo()
    assert set(zip(a.row.tolist(), a.col.tolist())) == sides | {(b, a) for a, b in sides}


@pytest.mark.parametrize("depth", range(6))
def test_edges_match_unique_of_cell_sides(ls5, depth):
    g = build_graph(ls5, depth)
    sides = np.sort(g.cells[:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2), axis=1)
    codes = np.unique(sides[:, 0] * g.n_vertices + sides[:, 1])
    a = g.adjacency
    assert a.has_canonical_format
    # each side appears once as (u, v) and once as (v, u)
    pairs = np.sort(np.stack(a.nonzero(), axis=1).astype(np.int64), axis=1)
    got, twice = np.unique(pairs[:, 0] * g.n_vertices + pairs[:, 1], return_counts=True)
    assert np.array_equal(got, codes)
    assert np.all(twice == 2)
    assert g.n_edges == len(codes)


@pytest.mark.parametrize("seq,depth", [((5,), 5), ((5, 7, 6), 3), ((9, 58), 2)])
def test_each_side_counted_once(seq, depth):
    # cells meet only at corners: three distinct edges per cell, none twice
    g = build_graph(LevelSequence(seq, continuation="repeat-last"), depth)
    assert g.n_edges == 3 * g.n_cells
    assert np.all(g.adjacency.data == 1)


def test_graph_traced_peak_within_documented_figure(ls5):
    # build plus adjacency, against the per-slot figure the module docstring
    # and the BudgetError text state
    tracemalloc.start()
    try:
        g = build_graph(ls5, 5)
        g.adjacency
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _BYTES_PER_SLOT * 3 * g.n_cells


def test_graph_budget(ls5):
    # 3 M_5 = 746,496 corner slots fit the budget (depth 5 is built above);
    # 3 M_6 = 8,957,952 do not
    for depth in (6, 9):
        with pytest.raises(BudgetError):
            build_graph(ls5, depth)


# ---- Metric --------------------------------------------------------------


def test_corner_to_corner_distance_is_one(ls5):
    for depth in (1, 2):
        g = build_graph(ls5, depth)
        x, y = int(g.corner_id(0)), int(g.corner_id(1))
        # hops / L_n = 1, and the triangular quadratic form gives 1 = L_n^2 / L_n^2
        assert geodesic_hops(g, [x])[0, y] == g.L
        da, db = (int(t) for t in g.vertices[x] - g.vertices[y])
        assert da * da + da * db + db * db == g.L ** 2


@pytest.mark.parametrize("seq,depth", [((5,), 2), ((5, 7), 2)])
def test_metric_comparison_exhaustive_from_corner(seq, depth):
    g = build_graph(LevelSequence(seq, continuation="repeat-last"), depth)
    src = int(g.corner_id(2))
    hops = geodesic_hops(g, [src])[0]
    d = g.vertices - g.vertices[src]
    qf = d[:, 0] ** 2 + d[:, 0] * d[:, 1] + d[:, 1] ** 2
    h2 = hops.astype(object) ** 2
    ok = np.where(qf == 0, hops == 0, (h2 >= qf) & (h2 <= 36 * qf))
    assert bool(np.all(ok))


# ---- Neighborhoods -------------------------------------------------------


@pytest.mark.parametrize("seq,depth", [((5,), 1), ((5,), 2), ((6,), 1)])
def test_neighborhood_size_bounds(seq, depth):
    ls = LevelSequence(seq, continuation="repeat-last")
    g = build_graph(ls, depth)
    l_n = ls.level(depth)
    for w in words(ls, depth):
        hops = _cell_hops(g, w, range(l_n + 1))
        for k in range(l_n + 1):
            hood = np.flatnonzero(hops <= k)
            assert word_to_index(ls, w) in hood
            assert 2 * k + 1 <= len(hood) <= max(6 * k, 1)
            if k == 1:
                assert len(hood) <= 4


def _neighborhoods_by_set_bfs(g, w, k_max: int) -> list:
    """Sorted cell indices within k hops of w for k = 0..k_max, by a set
    BFS over the cells of each frontier cell's corners."""
    start = word_to_index(g.ls, w)
    seen = {start}
    frontier = [start]
    out = [sorted(seen)]
    for _ in range(k_max):
        nxt = []
        for c in frontier:
            for v in g.cells[c]:
                for c2 in _cells_of_vertex(g, int(v)):
                    if int(c2) not in seen:
                        seen.add(int(c2))
                        nxt.append(int(c2))
        frontier = nxt
        out.append(sorted(seen))
    return out


def _check_neighborhoods(g, w):
    l_n = g.ls.level(g.level)
    for k, cells in enumerate(_neighborhoods_by_set_bfs(g, w, l_n)):
        assert list(np.flatnonzero(_cell_hops(g, w, (k,)) <= k)) == cells
        assert np.array_equal(neighborhood_vertex_ids(g, w, k),
                              np.unique(g.cells[cells].ravel()))


@pytest.mark.parametrize("seq", [(5,), (5, 6), (6, 5)])
def test_neighborhoods_match_set_bfs(seq):
    ls = LevelSequence(seq, continuation="repeat-last")
    g = build_graph(ls, 2)
    for w in words(ls, 2):
        _check_neighborhoods(g, w)


@pytest.mark.parametrize("seq", [(5,), (5, 7, 6)])
def test_neighborhoods_match_set_bfs_at_depth_three(seq):
    ls = LevelSequence(seq, continuation="repeat-last")
    g = build_graph(ls, 3)
    l_n = ls.level(3)
    rng = np.random.default_rng(3)
    for idx in rng.choice(g.n_cells, size=25, replace=False):
        w = index_to_word(ls, 3, int(idx))
        _check_neighborhoods(g, w)
        # the vertices of the k-hop cell neighbourhood are the closed k-hop
        # vertex ball about w's corners
        ball = geodesic_hops(g, g.cells[idx]).min(axis=0)
        for k in range(l_n + 1):
            assert np.array_equal(neighborhood_vertex_ids(g, w, k),
                                  np.flatnonzero(ball <= k))


@pytest.mark.parametrize("seq,depth", [((5,), 1), ((5,), 3), ((5, 7, 6), 3)])
def test_cell_hops_at_radius_zero(seq, depth):
    # the BFS from w's corners reaches the cells at hop 1; radius 0 must
    # still report them, and every cell but w, as np.inf
    ls = LevelSequence(seq, continuation="repeat-last")
    g = build_graph(ls, depth)
    for idx in (0, g.n_cells // 2, g.n_cells - 1):
        expected = np.full(g.n_cells, np.inf)
        expected[idx] = 0
        for radii in ((0,), (), (0, 0)):
            assert np.array_equal(_cell_hops(g, index_to_word(ls, depth, idx), radii), expected)


def test_neighborhood_rejects_radius_past_level(ls5):
    g = build_graph(ls5, 1)
    with pytest.raises(DomainError):
        neighborhood_vertex_ids(g, ((0, 0),), 6)


def test_neighborhood_rejects_bad_radii_and_words(ls5):
    g = build_graph(ls5, 2)
    w = ((0, 0), (0, 1))
    for bad in (-1, 6, 1.5):
        with pytest.raises(DomainError, match="radius"):
            neighborhood_vertex_ids(g, w, bad)
        with pytest.raises(DomainError, match="radius"):
            _cell_hops(g, w, (1, bad))
    with pytest.raises(DomainError, match="word depth"):
        neighborhood_vertex_ids(g, w[:1], 1)
    g0 = build_graph(ls5, 0)
    assert list(_cell_hops(g0, (), (0,))) == [0]
    assert list(neighborhood_vertex_ids(g0, (), 0)) == [0, 1, 2]
    with pytest.raises(DomainError, match="single cell"):
        neighborhood_vertex_ids(g0, (), 1)


# ---- Masses --------------------------------------------------------------


def test_ball_mass_brackets(ls5):
    """The outer cover of B(x, s) against a BFS count of the cells with a
    corner at fewer than s L_n hops."""
    g = build_graph(ls5, 2)
    x = int(g.corner_id(0))
    hops = geodesic_hops(g, [x])[0]
    least = _cell_least_hops(g, hops)
    assert _outer_ball_mass(g, least, Fraction(2)) == 1
    fifth = _outer_ball_mass(g, least, Fraction(1, 5))
    assert 0 < fifth < 1
    for s in (Fraction(1, 25), Fraction(1, 5), Fraction(3, 25), Fraction(7, 50)):
        near = [c for c in range(g.n_cells) if min(hops[g.cells[c]]) < s * g.L]
        assert _outer_ball_mass(g, least, s) == Fraction(len(near), g.n_cells)


# ---- Export --------------------------------------------------------------


def test_graph_to_json_shape(ls5):
    g = build_graph(ls5, 1)
    d = graph_to_json(g)
    assert d["level"] == 1
    assert d["sequence_prefix"] == [5]
    assert len(d["vertices"]) == 21
    assert len(d["cells"]) == 12
    corners = d["cells"][0]["corners"]
    assert len(corners) == 3


def test_graph_to_json_matches_the_per_index_construction(ls576):
    g = build_graph(ls576, 2)
    cells = [{"word": [list(letter) for letter in index_to_word(ls576, 2, idx)],
              "corners": [int(c) for c in g.cells[idx]]} for idx in range(g.n_cells)]
    d = graph_to_json(g)
    assert json.dumps(d["cells"]) == json.dumps(cells)
    assert d["vertices"] == [[int(a), int(b)] for a, b in g.vertices]


def test_render_svg_deterministic(ls576):
    g = build_graph(ls576, 2)
    a = render_svg(g)
    b = render_svg(g)
    assert a == b
    assert a.startswith("<svg ")
    assert a.endswith("\n")
    assert a.count("<polygon") == g.n_cells
