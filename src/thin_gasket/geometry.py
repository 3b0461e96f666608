"""Finite-depth gasket geometry.

Depth-n approximations are built from words over per-level alphabets of
boundary cells.  Every vertex carries exact integer lattice coordinates
(a, b) meaning q_0 + (a (q_1 - q_0) + b (q_2 - q_0)) / L_n, so all incidence
and metric comparisons are exact integer arithmetic.  The graph metric
(BFS hops times 1/L_n) is the finite-depth proxy for the geodesic metric.

The graph is its cells.  Cells meet only at corners, so every edge is a
side of exactly one cell: the adjacency is read off the cell sides, with
three edges per cell, and a cell's k-hop neighbourhood (cells linked by
shared corners) has as its vertices the closed k-hop vertex ball about the
cell's corners.  scipy is imported only by the adjacency (built on first
use) and the BFS, so a graph that is never asked for its edges loads none.

Sizes are budgeted in corner slots, 3 M_n: build_graph refuses more than
MAX_CORNERS = 6e6 ((5,) builds to depth 5, 3 M_5 = 746,496).  A build and
its adjacency peak at about 54 traced bytes per slot (measured at (5,)
depth 5 and (40,) depth 3 with numpy 2.4 and scipy 1.17), budgeted as
_BYTES_PER_SLOT = 60: about 360 MB of working arrays at the full budget.
The cell cascade behind energy measures (forms.HarmonicSpec.cell_numerators)
refuses more than 2^27 slots.  Harmonic extension on V_n
(forms.HarmonicSpec.extend) scatters that cascade onto the cells, so it
reaches MAX_CORNERS in both precisions; exact pair resistances, by
cell-by-cell elimination, are bounded only by MAX_CORNERS too.  A
CellMeasure is plain arrays: per-cell masses in word enumeration order and
their total.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError, SequenceError
from .sequence import LevelSequence, cell_count, check_level

_ENC_SHIFT = 32
_COORD_LIMIT = 1 << 31

CORNER_OFFSETS = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64)

#: Corner slots (3 M_n) build_graph may assemble.
MAX_CORNERS = 6_000_000
# traced peak of a build and its adjacency, per corner slot, rounded up
_BYTES_PER_SLOT = 60


# ---- Alphabets ----------------------------------------------------------


@lru_cache(maxsize=None)
def boundary_cells(l: int) -> tuple[tuple[int, int], ...]:
    """All cell indices of one l-fold subdivision, lexicographic.

    A cell index (i1, i2) has nonnegative parts with i1 + i2 <= l - 1 and
    lies on the boundary of the index triangle: i1 * i2 * (l-1-i1-i2) = 0.
    For 0 < i1 < l-1 these are exactly i2 = 0 and i2 = l-1-i1.
    """
    check_level(l)
    out = [(0, i2) for i2 in range(l)]
    for i1 in range(1, l - 1):
        out += [(i1, 0), (i1, l - 1 - i1)]
    out.append((l - 1, 0))
    assert len(out) == cell_count(l)
    return tuple(out)


def is_cell_index(l: int, i) -> bool:
    i1, i2 = i
    return (
        i1 >= 0 and i2 >= 0 and i1 + i2 <= l - 1 and i1 * i2 * (l - 1 - i1 - i2) == 0
    )


@lru_cache(maxsize=None)
def interior_letters(l: int) -> tuple[tuple[int, int], ...]:
    """Cell indices whose largest part lies in {2, ..., l-3} (count 3l - 12).

    These are the letters at least two steps away from all three outer
    corners along their edge; they are the letters admissible in the
    singularity certificate.
    """
    check_level(l)
    return tuple(i for i in boundary_cells(l) if 2 <= max(i) <= l - 3)


@lru_cache(maxsize=None)
def _letter_index(l: int) -> dict:
    return {i: j for j, i in enumerate(boundary_cells(l))}


# ---- Words --------------------------------------------------------------


def word_to_index(ls: LevelSequence, word) -> int:
    """Mixed-radix rank of a word in product enumeration order."""
    idx = 0
    for k, letter in enumerate(word, start=1):
        l = ls.level(k)
        try:
            j = _letter_index(l)[tuple(letter)]
        except KeyError:
            raise SequenceError(f"{tuple(letter)} is not a cell index of level {l}")
        idx = idx * cell_count(l) + j
    return idx


def index_to_word(ls: LevelSequence, n: int, idx: int) -> tuple:
    letters = []
    for k in range(n, 0, -1):
        l = ls.level(k)
        m = cell_count(l)
        letters.append(boundary_cells(l)[idx % m])
        idx //= m
    return tuple(reversed(letters))


def words(ls: LevelSequence, n: int):
    """Iterate all depth-n words in product enumeration order."""
    import itertools
    alphabets = [boundary_cells(ls.level(k)) for k in range(1, n + 1)]
    return itertools.product(*alphabets)


# ---- Approximation graphs ------------------------------------------------


class ApproximationGraph:
    """Depth-n vertex/cell incidence with exact coordinates.

    vertices: (V, 2) int64 lattice numerators, sorted by (a, b).
    cells:    (M, 3) vertex ids, row w = corners (f_w(q0), f_w(q1), f_w(q2)),
              rows in product enumeration order of words.
    """

    def __init__(self, ls, level, L, vertices, cells, boundary):
        self.ls = ls
        self.level = level
        self.L = L
        self.vertices = vertices
        self.cells = cells
        self.boundary = boundary
        self._adj = None
        self._nbr = None
        self._hop_adj = None

    # -- sizes

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_edges(self) -> int:
        return self.adjacency.nnz // 2

    # -- lookups

    def corner_id(self, j: int) -> int:
        return int(self.boundary[j])

    @property
    def adjacency(self):
        """Vertex adjacency from the cell sides, each side once in each
        direction (int8 ones, a sorted scipy CSR matrix)."""
        if self._adj is None:
            from scipy import sparse

            # cells meet only at corners, so each edge is a side of one cell;
            # int32 is scipy's index dtype here, and halves the COO arrays
            c = self.cells.astype(np.int32)
            rows = np.repeat(c, 2, axis=1).ravel()
            cols = c[:, [1, 2, 0, 2, 0, 1]].ravel()
            data = np.ones(rows.shape[0], dtype=np.int8)
            self._adj = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self.n_vertices, self.n_vertices)
            )
        return self._adj

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr)

    @property
    def neighbor_table(self) -> np.ndarray:
        """(V, 4) neighbour table padded by repetition; built once per graph."""
        if self._nbr is None:
            self._nbr = _padded_neighbor_table(self.adjacency)
        return self._nbr

    @property
    def _hop_adjacency(self):
        """The vertex adjacency in the float64 CSR form csgraph takes without
        a copy."""
        if self._hop_adj is None:
            self._hop_adj = self.adjacency.astype(np.float64)
        return self._hop_adj

    def word(self, idx: int) -> tuple:
        return index_to_word(self.ls, self.level, idx)


def _padded_neighbor_table(adj) -> np.ndarray:
    """(V, 4) int32 table whose row v lists v's neighbours (sorted CSR
    order) repeated to width 4, so a uniform column is a uniform neighbour.

    Raises DomainError unless every degree divides 4; on gasket graphs the
    degrees are 2 (outer corners) or 4.
    """
    deg = np.diff(adj.indptr)
    bad = np.flatnonzero((deg == 0) | (4 % np.maximum(deg, 1) != 0))
    if bad.size:
        raise DomainError(f"vertex {int(bad[0])} has degree {int(deg[bad[0]])}, "
                          "which does not divide the table width 4")
    cols = adj.indptr[:-1, None] + np.arange(4) % deg[:, None]
    return adj.indices[cols].astype(np.int32)


def _corner_numerators(ls: LevelSequence, n: int) -> np.ndarray:
    """(M_n, 3, 2) integer corner numerators over denominator L_n."""
    base = np.zeros((1, 2), dtype=np.int64)
    L = ls.L(n)
    for k in range(1, n + 1):
        letters = np.asarray(boundary_cells(ls.level(k)), dtype=np.int64)
        mult = L // ls.L(k)
        base = (base[:, None, :] + letters[None, :, :] * mult).reshape(-1, 2)
    return base[:, None, :] + CORNER_OFFSETS[None, :, :]


def build_graph(ls: LevelSequence, n: int) -> ApproximationGraph:
    """Assemble the depth-n approximation graph.

    Fails with BudgetError when 3 M_n exceeds MAX_CORNERS or coordinates
    would overflow the fast integer encoding (L_n >= 2^31).
    """
    if n < 0:
        raise DomainError("depth must be nonnegative")
    ls.prefix(n)  # raises SequenceError when the prefix cannot cover depth n
    L = ls.L(n)
    M = ls.M(n)
    if 3 * M > MAX_CORNERS:
        raise BudgetError(
            f"depth {n} needs {3 * M} corner slots (> budget {MAX_CORNERS}); "
            f"about {3 * M * _BYTES_PER_SLOT / 1e6:.0f} MB of working arrays "
            f"at {_BYTES_PER_SLOT} bytes per slot"
        )
    if L >= _COORD_LIMIT:
        raise BudgetError(f"L_n = {L} overflows the 31-bit coordinate encoding")

    corners = _corner_numerators(ls, n)  # (M, 3, 2)
    codes = (corners[..., 0] << _ENC_SHIFT) | corners[..., 1]
    del corners  # freed before np.unique, the peak of the build
    enc, inverse = np.unique(codes.ravel(), return_inverse=True)
    cells = inverse.reshape(-1, 3).astype(np.int64)
    vertices = np.stack([enc >> _ENC_SHIFT, enc & ((1 << _ENC_SHIFT) - 1)], axis=1)

    boundary = np.searchsorted(enc, np.array([0, L << _ENC_SHIFT, L], dtype=np.int64))
    return ApproximationGraph(ls, n, L, vertices, cells, boundary)


# ---- Metric --------------------------------------------------------------


def geodesic_hops(g: ApproximationGraph, sources) -> np.ndarray:
    """BFS hop counts from the given source vertex ids, shape (S, V)."""
    from scipy.sparse import csgraph
    src = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    return csgraph.dijkstra(g._hop_adjacency, directed=True, unweighted=True, indices=src)


def _cell_least_hops(g: ApproximationGraph, hops: np.ndarray) -> np.ndarray:
    """Least hop count over each cell's corners, from (V,) BFS hop counts,
    so balls of several radii about one centre share one search and one
    pass over the cells."""
    h0, h1, h2 = hops[g.cells.T]
    return np.minimum(np.minimum(h0, h1), h2)


# ---- Cell neighborhoods --------------------------------------------------


def _cell_hops(g: ApproximationGraph, w, radii) -> np.ndarray:
    """Hop counts from cell w to every cell in the share-a-vertex adjacency,
    np.inf beyond the largest radius (0 for no radii).

    Cells meet only at corners, so a cell w' != w lies k >= 1 cell hops from
    w iff its nearest corner lies k - 1 vertex hops from w's corners: one
    vertex BFS from those corners, stopped at the largest radius less one,
    serves every radius.  Each radius k must satisfy 0 <= k <= l_n, and w
    must be a depth-n word.  The depth-0 graph's one cell is at hop 0 for
    any w.
    """
    n = g.level
    radii = list(radii)
    if n == 0:
        if any(k != 0 for k in radii):
            raise DomainError("depth-0 graph has a single cell; k must be 0")
        return np.zeros(1)
    l_n = g.ls.level(n)
    for k in radii:
        if not 0 <= k <= l_n:
            raise DomainError(f"neighborhood radius {k} outside [0, {l_n}]")
    start = word_to_index(g.ls, w)
    if len(tuple(w)) != n:
        raise DomainError(f"word depth {len(tuple(w))} != graph depth {n}")
    from scipy.sparse import csgraph
    top = max(radii, default=0)
    near = csgraph.dijkstra(g._hop_adjacency, directed=True, unweighted=True,
                            indices=g.cells[start], min_only=True, limit=max(top - 1, 0))
    hops = _cell_least_hops(g, near) + 1
    hops[hops > top] = np.inf  # radius 0: the BFS cannot stop short of w's corners
    hops[start] = 0
    return hops


def neighborhood_vertex_ids(g: ApproximationGraph, w, k: int) -> np.ndarray:
    """Vertex ids of the closed union of the k-hop cell neighborhood of w,
    which is the closed k-hop vertex ball about w's corners."""
    return np.unique(g.cells[_cell_hops(g, w, (k,)) <= k].ravel())


# ---- Measures ------------------------------------------------------------


class CellMeasure:
    """Per-cell masses on depth-`depth` cells, in word enumeration order: a
    float64 array, or an object array of Fractions.  total is their sum,
    summed here unless the caller passes it."""

    def __init__(self, ls, depth, masses, total=None):
        self.ls = ls
        self.depth = depth
        self.masses = masses
        # item() gives a Python float, or the Fraction of an object array
        self.total = masses.sum(keepdims=True).item() if total is None else total


def _outer_ball_mass(g: ApproximationGraph, least_hops: np.ndarray, s: Fraction) -> Fraction:
    """Mass of the depth-n cells with a corner at graph distance < s from
    the centre of least_hops (_cell_least_hops), for a positive radius s:
    the outer cell cover of the open ball B(x, s)."""
    thr = s * g.L
    # strict: hop < thr  <=>  hop <= (num - 1) // den
    cut = (thr.numerator - 1) // thr.denominator
    return Fraction(int(np.count_nonzero(least_hops <= cut)), g.n_cells)


# ---- Export --------------------------------------------------------------


def graph_to_json(g: ApproximationGraph) -> dict:
    """Plain-data description of the graph (exact integer coordinates)."""
    cells = []
    for idx in range(g.n_cells):
        cells.append(
            {
                "word": [list(letter) for letter in g.word(idx)],
                "corners": [int(c) for c in g.cells[idx]],
            }
        )
    return {
        "level": g.level,
        "sequence_prefix": list(g.ls.prefix(g.level)),
        "vertices": [[int(a), int(b)] for a, b in g.vertices],
        "cells": cells,
    }


def render_svg(g: ApproximationGraph, size: float = 600.0) -> str:
    """Deterministic SVG rendering: one filled triangle per cell."""
    if not 0 < size < math.inf:
        raise DomainError(f"render size must be positive and finite, got {size}")
    L = g.L
    h = size * math.sqrt(3.0) / 2.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.2f}" height="{h:.2f}" '
        f'viewBox="0 0 {size:.2f} {h:.2f}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
    ]
    pts = g.vertices.astype(np.float64)
    xs = (pts[:, 0] + 0.5 * pts[:, 1]) * (size / L)
    ys = h - pts[:, 1] * (size * math.sqrt(3.0) / 2.0 / L)
    for idx in range(g.n_cells):
        c = g.cells[idx]
        coords = " ".join(f"{xs[v]:.4f},{ys[v]:.4f}" for v in c)
        lines.append(f'<polygon points="{coords}" fill="#2f4a6b"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
