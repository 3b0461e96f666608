"""Finite-depth gasket geometry.

Depth-n approximations are built from words over per-level alphabets of
boundary cells.  Every vertex carries exact integer lattice coordinates
(a, b) meaning q_0 + (a (q_1 - q_0) + b (q_2 - q_0)) / L_n, so all incidence
and metric comparisons are exact integer arithmetic.  The graph metric
(BFS hops times 1/L_n) is the finite-depth proxy for the geodesic metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import BudgetError, DomainError, SequenceError
from .sequence import LevelSequence, cell_count, check_level

_ENC_SHIFT = 32
_COORD_LIMIT = 1 << 31

CORNER_OFFSETS = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64)


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


def word_count(ls: LevelSequence, n: int) -> int:
    return ls.M(n)


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


# ---- Lattice points and contractions ------------------------------------


@dataclass(frozen=True)
class LatticePoint:
    """Exact vertex coordinates (a, b) over denominator L_level."""

    level: int
    a: int
    b: int


def corner(j: int, level: int = 0, L: int = 1) -> LatticePoint:
    """Outer corner q_j expressed at the given level (L = L_level)."""
    if j == 0:
        return LatticePoint(level, 0, 0)
    if j == 1:
        return LatticePoint(level, L, 0)
    if j == 2:
        return LatticePoint(level, 0, L)
    raise DomainError(f"corner index must be 0, 1 or 2, got {j}")


def apply_contraction(ls: LevelSequence, word, p: LatticePoint) -> LatticePoint:
    """Image of p under the composed cell maps of `word`.

    p is interpreted in the sequence shifted past the word, i.e. its
    denominator is l_{|word|+1} * ... * l_{|word|+p.level}.  The result is a
    point at level |word| + p.level of the unshifted sequence.
    """
    word = tuple(tuple(i) for i in word)
    n = len(word)
    a, b = p.a, p.b
    # denominator of the current point within the shifted sequence
    d = 1
    for k in range(p.level):
        d *= ls.level(n + 1 + k)
    for j in range(n, 0, -1):
        l = ls.level(j)
        i1, i2 = word[j - 1]
        if not is_cell_index(l, (i1, i2)):
            raise SequenceError(f"{(i1, i2)} is not a cell index of level {l}")
        a += i1 * d
        b += i2 * d
        d *= l
    return LatticePoint(n + p.level, a, b)


# ---- Approximation graphs ------------------------------------------------


class ApproximationGraph:
    """Depth-n vertex/cell incidence with exact coordinates.

    vertices: (V, 2) int64 lattice numerators, sorted by (a, b).
    cells:    (M, 3) vertex ids, row w = corners (f_w(q0), f_w(q1), f_w(q2)),
              rows in product enumeration order of words.
    """

    def __init__(self, ls, level, L, vertices, enc, cells, boundary, edges):
        self.ls = ls
        self.level = level
        self.L = L
        self.vertices = vertices
        self._enc = enc
        self.cells = cells
        self.boundary = boundary
        self.edges = edges
        self._adj = None
        self._vertex_cells = None

    # -- sizes

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    # -- lookups

    def vertex_id(self, a: int, b: int) -> int:
        code = (int(a) << _ENC_SHIFT) | int(b)
        i = int(np.searchsorted(self._enc, code))
        if i >= self._enc.shape[0] or self._enc[i] != code:
            raise DomainError(f"({a}, {b}) is not a vertex at depth {self.level}")
        return i

    def vertex_ids(self, coords: np.ndarray) -> np.ndarray:
        codes = (coords[..., 0].astype(np.int64) << _ENC_SHIFT) | coords[..., 1]
        ids = np.searchsorted(self._enc, codes)
        if not np.all(self._enc[ids] == codes):
            raise DomainError("some coordinates are not vertices of this graph")
        return ids

    def corner_id(self, j: int) -> int:
        return int(self.boundary[j])

    @property
    def adjacency(self) -> sparse.csr_matrix:
        if self._adj is None:
            e = self.edges
            rows = np.concatenate([e[:, 0], e[:, 1]])
            cols = np.concatenate([e[:, 1], e[:, 0]])
            data = np.ones(rows.shape[0], dtype=np.int8)
            adj = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self.n_vertices, self.n_vertices)
            )
            adj.sort_indices()
            self._adj = adj
        return self._adj

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.adjacency.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        adj = self.adjacency
        return adj.indices[adj.indptr[v]: adj.indptr[v + 1]]

    @property
    def vertex_cells(self) -> sparse.csr_matrix:
        """Vertex -> incident cells incidence (V x M)."""
        if self._vertex_cells is None:
            m = self.n_cells
            rows = self.cells.ravel()
            cols = np.repeat(np.arange(m, dtype=np.int64), 3)
            data = np.ones(rows.shape[0], dtype=np.int8)
            inc = sparse.csr_matrix((data, (rows, cols)), shape=(self.n_vertices, m))
            inc.sort_indices()
            self._vertex_cells = inc
        return self._vertex_cells

    def cells_of_vertex(self, v: int) -> np.ndarray:
        inc = self.vertex_cells
        return inc.indices[inc.indptr[v]: inc.indptr[v + 1]]

    def corner_ids_at_depth(self, d: int) -> np.ndarray:
        """Vertex ids of all depth-d cell corners, shape (M_d, 3)."""
        if not 0 <= d <= self.level:
            raise DomainError(f"depth {d} outside [0, {self.level}]")
        coords = _corner_numerators(self.ls, d)
        coords = coords * (self.L // self.ls.L(d))
        return self.vertex_ids(coords)

    def word(self, idx: int) -> tuple:
        return index_to_word(self.ls, self.level, idx)


def _corner_numerators(ls: LevelSequence, n: int) -> np.ndarray:
    """(M_n, 3, 2) integer corner numerators over denominator L_n."""
    base = np.zeros((1, 2), dtype=np.int64)
    L = ls.L(n)
    Lk = 1
    for k in range(1, n + 1):
        l = ls.level(k)
        Lk *= l
        letters = np.asarray(boundary_cells(l), dtype=np.int64)
        mult = L // Lk
        base = (base[:, None, :] + letters[None, :, :] * mult).reshape(-1, 2)
    return base[:, None, :] + CORNER_OFFSETS[None, :, :]


def build_graph(ls: LevelSequence, n: int, max_corners: int = 6_000_000) -> ApproximationGraph:
    """Assemble the depth-n approximation graph.

    Fails with BudgetError when 3 M_n exceeds max_corners or coordinates
    would overflow the fast integer encoding (L_n >= 2^31).
    """
    if n < 0:
        raise DomainError("depth must be nonnegative")
    ls.prefix(n)  # raises SequenceError when the prefix cannot cover depth n
    L = ls.L(n)
    M = ls.M(n)
    if 3 * M > max_corners:
        raise BudgetError(
            f"depth {n} needs {3 * M} corner slots (> budget {max_corners}); "
            f"roughly {3 * M * 16 / 1e6:.0f} MB of working arrays"
        )
    if L >= _COORD_LIMIT:
        raise BudgetError(f"L_n = {L} overflows the 31-bit coordinate encoding")

    corners = _corner_numerators(ls, n)  # (M, 3, 2)
    codes = (corners[..., 0] << _ENC_SHIFT) | corners[..., 1]
    enc, inverse = np.unique(codes.ravel(), return_inverse=True)
    cells = inverse.reshape(-1, 3).astype(np.int64)
    vertices = np.stack([enc >> _ENC_SHIFT, enc & ((1 << _ENC_SHIFT) - 1)], axis=1)

    boundary = np.searchsorted(enc, np.array([0, L << _ENC_SHIFT, L], dtype=np.int64))

    pair_idx = np.array([[0, 1], [0, 2], [1, 2]])
    pairs = cells[:, pair_idx].reshape(-1, 2)
    pairs = np.sort(pairs, axis=1)
    edge_codes = pairs[:, 0] * vertices.shape[0] + pairs[:, 1]
    edge_codes = np.unique(edge_codes)
    edges = np.stack(
        [edge_codes // vertices.shape[0], edge_codes % vertices.shape[0]], axis=1
    )

    return ApproximationGraph(ls, n, L, vertices, enc, cells, boundary, edges)


# ---- Metric --------------------------------------------------------------


def geodesic_hops(g: ApproximationGraph, sources) -> np.ndarray:
    """BFS hop counts from the given source vertex ids, shape (S, V)."""
    src = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    d = csgraph.dijkstra(g.adjacency, directed=True, unweighted=True, indices=src)
    return d


def geodesic_distance(g: ApproximationGraph, x: int, y: int) -> Fraction:
    """Graph distance between vertices: hops / L_n, exact."""
    hops = geodesic_hops(g, [x])[0, y]
    if not np.isfinite(hops):
        raise DomainError("vertices are not connected")  # never for valid graphs
    return Fraction(int(hops), g.L)


def euclidean_sq(g: ApproximationGraph, x: int, y: int) -> Fraction:
    """Exact squared Euclidean distance via the triangular quadratic form."""
    da = int(g.vertices[x, 0]) - int(g.vertices[y, 0])
    db = int(g.vertices[x, 1]) - int(g.vertices[y, 1])
    return Fraction(da * da + da * db + db * db, g.L * g.L)


def metric_ratio_bounds_ok(hops: int, qf: int, upper: int = 6) -> bool:
    """Exact check of 1 <= (hops/L) / |x-y| <= upper given hops and the
    integer quadratic form value qf = da^2 + da db + db^2 (same L scale)."""
    if qf == 0:
        return hops == 0
    return hops * hops >= qf and hops * hops <= upper * upper * qf


# ---- Cell neighborhoods --------------------------------------------------


def cell_neighborhood(g: ApproximationGraph, w, k: int) -> list:
    """Words of all cells within k hops of w in the share-a-vertex adjacency.

    k must satisfy 0 <= k <= l_n.  The result includes w itself and is
    sorted in word enumeration order.
    """
    n = g.level
    if n == 0:
        if k != 0:
            raise DomainError("depth-0 graph has a single cell; k must be 0")
        return [tuple()]
    l_n = g.ls.level(n)
    if not 0 <= k <= l_n:
        raise DomainError(f"neighborhood radius {k} outside [0, {l_n}]")
    start = word_to_index(g.ls, w)
    if len(tuple(w)) != n:
        raise DomainError(f"word depth {len(tuple(w))} != graph depth {n}")
    seen = {start}
    frontier = [start]
    for _ in range(k):
        nxt = []
        for c in frontier:
            for v in g.cells[c]:
                for c2 in g.cells_of_vertex(int(v)):
                    c2 = int(c2)
                    if c2 not in seen:
                        seen.add(c2)
                        nxt.append(c2)
        frontier = nxt
        if not frontier:
            break
    return [g.word(i) for i in sorted(seen)]


def neighborhood_vertex_ids(g: ApproximationGraph, w, k: int) -> np.ndarray:
    """Vertex ids of the closed union of the k-hop cell neighborhood of w."""
    cells = cell_neighborhood(g, w, k)
    idx = [word_to_index(g.ls, c) for c in cells]
    return np.unique(g.cells[idx].ravel())


# ---- Measures ------------------------------------------------------------


class CellMeasure:
    """A mass assignment on depth-`depth` cells.

    Uniform instances carry no array; others store per-cell masses in word
    enumeration order (floats or Fractions).
    """

    def __init__(self, ls, depth, masses=None, total=None, kind="uniform"):
        self.ls = ls
        self.depth = depth
        self.masses = masses
        self.kind = kind
        if total is None:
            if masses is None:
                total = Fraction(1)
            elif isinstance(masses, np.ndarray):
                total = float(masses.sum())
            else:
                total = sum(masses, Fraction(0) if masses and isinstance(masses[0], Fraction) else 0)
        self.total = total

    @property
    def uniform(self) -> bool:
        return self.masses is None

    def mass_by_index(self, idx: int):
        if self.uniform:
            return Fraction(1, self.ls.M(self.depth))
        return self.masses[idx]

    def mass(self, word):
        return self.mass_by_index(word_to_index(self.ls, word))


def uniform_mass(ls: LevelSequence, n: int) -> CellMeasure:
    """The self-similar uniform measure at depth n: every cell gets 1/M_n."""
    ls.prefix(n)
    return CellMeasure(ls, n, None, Fraction(1), kind="uniform")


@dataclass(frozen=True)
class BallMass:
    """Outer/inner cell-cover mass bracketing the measure of a metric ball."""

    value: Fraction
    outer: Fraction
    inner: Fraction
    radius: Fraction
    cells_outer: int
    cells_inner: int


def ball_mass(g: ApproximationGraph, x: int, s) -> BallMass:
    """Bracket m(B(x, s)) by depth-n cell covers of the open graph ball.

    outer: cells with at least one corner at distance < s from x;
    inner: cells with all three corners at distance < s.
    """
    s = Fraction(s)
    if s <= 0:
        raise DomainError("ball radius must be positive")
    thr = s * g.L
    # strict: hop < thr  <=>  hop <= (num - 1) // den
    cut = (thr.numerator - 1) // thr.denominator
    hops = geodesic_hops(g, [x])[0]
    cell_hops = hops[g.cells]  # (M, 3)
    outer_mask = cell_hops.min(axis=1) <= cut
    inner_mask = cell_hops.max(axis=1) <= cut
    M = g.n_cells
    outer = Fraction(int(outer_mask.sum()), M)
    inner = Fraction(int(inner_mask.sum()), M)
    return BallMass(outer, outer, inner, s, int(outer_mask.sum()), int(inner_mask.sum()))


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


def render_svg(g: ApproximationGraph, size: float = 600.0, fill: str = "#2f4a6b",
               background: str = "#ffffff") -> str:
    """Deterministic SVG rendering: one filled triangle per cell."""
    L = g.L
    h = size * math.sqrt(3.0) / 2.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.2f}" height="{h:.2f}" '
        f'viewBox="0 0 {size:.2f} {h:.2f}">',
        f'<rect width="100%" height="100%" fill="{background}"/>',
    ]
    pts = g.vertices.astype(np.float64)
    xs = (pts[:, 0] + 0.5 * pts[:, 1]) * (size / L)
    ys = h - pts[:, 1] * (size * math.sqrt(3.0) / 2.0 / L)
    for idx in range(g.n_cells):
        c = g.cells[idx]
        coords = " ".join(f"{xs[v]:.4f},{ys[v]:.4f}" for v in c)
        lines.append(f'<polygon points="{coords}" fill="{fill}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
