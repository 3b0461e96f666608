import collections
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thin_gasket.errors import BudgetError, DomainError
from thin_gasket.geometry import (ApproximationGraph, ball_mass, boundary_cells,
                                  build_graph, cell_neighborhood, corner,
                                  euclidean_sq, geodesic_distance,
                                  geodesic_hops, graph_to_json, index_to_word,
                                  interior_letters, is_cell_index, render_svg,
                                  uniform_mass, word_count, word_to_index,
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
    assert len(ws) == word_count(ls576, n) == 12 * 18
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


@pytest.mark.parametrize("seq,depth", [((5,), 1), ((5,), 2), ((7,), 1),
                                       ((5, 6), 2)])
def test_cell_incidence_structure(seq, depth):
    g = build_graph(LevelSequence(seq, continuation="repeat-last"), depth)
    # every corner slot is accounted for and no vertex sits in 3+ cells,
    # so distinct cells can share at most one point
    counts = np.diff(g.vertex_cells.indptr)
    assert counts.min() >= 1
    assert counts.max() <= 2
    assert counts.sum() == 3 * g.n_cells
    pair_seen = collections.Counter()
    for v in range(g.n_vertices):
        for a, b in itertools.combinations(sorted(g.cells_of_vertex(v)), 2):
            pair_seen[(a, b)] += 1
    assert not pair_seen or max(pair_seen.values()) == 1


def test_edges_are_cell_sides(ls5):
    g = build_graph(ls5, 2)
    sides = set()
    for c in g.cells:
        for a, b in itertools.combinations(sorted(int(v) for v in c), 2):
            sides.add((a, b))
    assert len(sides) == g.n_edges


def test_graph_budget(ls5):
    with pytest.raises(BudgetError):
        build_graph(ls5, 9, max_corners=1000)


# ---- Metric --------------------------------------------------------------


def test_corner_to_corner_distance_is_one(ls5):
    for depth in (1, 2):
        g = build_graph(ls5, depth)
        x, y = int(g.corner_id(0)), int(g.corner_id(1))
        assert geodesic_distance(g, x, y) == 1
        assert euclidean_sq(g, x, y) == 1


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
        for k in range(l_n + 1):
            hood = cell_neighborhood(g, w, k)
            assert w in hood
            assert hood == sorted(hood)
            assert 2 * k + 1 <= len(hood) <= max(6 * k, 1)
            if k == 1:
                assert len(hood) <= 4


def test_neighborhood_rejects_radius_past_level(ls5):
    g = build_graph(ls5, 1)
    with pytest.raises(DomainError):
        cell_neighborhood(g, ((0, 0),), 6)


# ---- Masses --------------------------------------------------------------


def test_uniform_mass(ls576):
    mu = uniform_mass(ls576, 2)
    assert mu.uniform
    assert mu.total == 1
    assert mu.mass(((0, 0), (3, 0))) == Fraction(1, 12 * 18)


def test_ball_mass_brackets(ls5):
    g = build_graph(ls5, 2)
    x = int(g.corner_id(0))
    full = ball_mass(g, x, 2)
    assert full.inner == full.outer == 1
    fifth = ball_mass(g, x, Fraction(1, 5))
    assert 0 < fifth.inner <= fifth.outer < 1
    with pytest.raises(DomainError):
        ball_mass(g, x, 0)


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


def test_render_svg_deterministic(ls576):
    g = build_graph(ls576, 2)
    a = render_svg(g)
    b = render_svg(g)
    assert a == b
    assert a.startswith("<svg ")
    assert a.endswith("\n")
    assert a.count("<polygon") == g.n_cells
