"""Nearest-neighbor random walks on approximation graphs.

The walker moves to a uniformly random graph neighbor each step; the
simulator advances it k steps at a time through jump tables over the
vertices that are not targets.  Its draws are, bit for bit, those of
`rng.integers(0, 4**k, size=n, dtype=np.uint16)` called once per block on
one Philox stream per chunk of walkers, n the walkers still active, but
read straight from the stream's raw 64-bit output (see `_Words`).  Commute
times between two vertices have exact expectation
2 |E| R_unit(x, y) = 6 M_n R_unit(x, y), which ties the simulator back to
the resistance solvers; the check compares the empirical mean against that
prediction in standard-error units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import ApproximationGraph, _cell_hops, word_to_index
from .rand import stream
from .resistance import ResistanceSolver, corner_resistance

# A k-step jump table holds F * 4^k entries over the F free vertices; k is
# the largest block length <= _MAX_BLOCK that keeps it within _TABLE_ENTRIES
# (about 1 MB of int32), and at least 1.
_TABLE_ENTRIES = 1 << 18
_MAX_BLOCK = 5

# Commute checks refuse runs whose predicted walker-steps (trials times the
# predicted commute time) exceed this; criterion 10 needs about 6.8e8.
_WORK_BUDGET = 2_000_000_000

# Walkers simulated per chunk, each chunk on its own random stream.
_CHUNK = 100_000

# Raw uint64 draws per refill of a word source: 1 MB, 2^19 words.
_REFILL = 1 << 17

# A commute check passes when its z-score is within this many stderr.
_Z_MAX = 4.0


@dataclass(frozen=True)
class WalkConfig:
    trials: int = 100_000
    max_steps: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1 or self.max_steps < 1:
            raise DomainError(f"walks need trials and max_steps >= 1, "
                              f"got trials={self.trials}, max_steps={self.max_steps}")


@dataclass(frozen=True)
class HittingStats:
    mean: float
    stderr: float
    trials: int
    capped: int
    min_steps: int
    max_steps: int


def _block_length(n_free: int) -> int:
    k = _MAX_BLOCK
    while k > 1 and n_free * 4 ** k > _TABLE_ENTRIES:
        k -= 1
    return k


class _Words:
    """The words `rng.integers(0, 4**k, size=n, dtype=np.uint16)` returns,
    call by call, read from bulk raw output of rng's bit generator.

    On a range of 4^k numpy's bounded draw never rejects.  The bit
    generator's `next_uint32` hands out the low then the high half of each
    raw uint64 (a spare half carries over to the next call); a call of size
    n takes ceil(n/2) of them, splits each into its low then its high 16
    bits, keeps the first n and returns the top 2k bits of each.  So the raw
    stream, read as little-endian uint16, is the words in order, one word
    skipped after a call of odd size.  Refills draw _REFILL raw values at a
    time, or more when one call needs more.
    """

    def __init__(self, rng: np.random.Generator, k: int):
        self._raw = rng.bit_generator.random_raw
        self._drop = 16 - 2 * k
        self._buf = np.empty(0, dtype=np.uint16)
        self._at = 0

    def take(self, n: int) -> np.ndarray:
        used = n + (n & 1)
        if self._at + used > self._buf.size:
            rest = self._buf[self._at:]
            raw = self._raw(max(_REFILL, -(-(used - rest.size) // 4)))
            halves = raw.astype("<u8", copy=False).view("<u2")
            self._buf = np.concatenate([rest, halves >> self._drop])
            self._at = 0
        words = self._buf[self._at:self._at + n]
        self._at += used
        return words


def _jump_table(nbr: np.ndarray, target_mask: np.ndarray, k: int):
    """k-step jump table over the F free vertices (those not in target_mask),
    one row of 4^k entries per free vertex, found at row offset f << 2k.

    Entry (f << 2k) | word, for free index f and a word of k 2-bit digits
    with the first step in the low bits, is the row offset of the free
    vertex the walk ends on, or (F << 2k) + s - 1 when it first hits a
    target at step s (1 <= s <= k).  Returns the flat int32 table and the
    vertex -> row offset map (F << 2k on targets).
    """
    free = np.flatnonzero(~target_mask)
    n_free = free.size
    index = np.full(target_mask.size, n_free, dtype=np.int32)
    index[free] = np.arange(n_free, dtype=np.int32)
    # one step in free indices; row F is an absorbing "hit" state
    step = np.vstack([index[nbr[free]], np.full((1, 4), n_free, dtype=np.int32)])
    words = np.arange(4 ** k)
    cur = np.arange(n_free, dtype=np.int32)[:, None]
    absorbed = np.zeros((n_free, words.size), dtype=np.int32)
    for j in range(k):
        cur = step[cur, (words >> 2 * j) & 3]
        absorbed += cur == n_free
    # a walk first hit at step s is absorbed for k - s + 1 of the k steps
    table = np.where(cur == n_free, (n_free << 2 * k) + k - absorbed, cur << 2 * k)
    return table.ravel(), index << 2 * k


def simulate_hitting(g: ApproximationGraph, start: int, target_mask: np.ndarray,
                     cfg: WalkConfig, tag: int = 1):
    """Per-trial step counts until the walk started at `start` first sits on
    a target vertex.  Returns (steps array, capped count).

    Walkers advance k steps per block through a jump table.  Chunk c of
    _CHUNK walkers draws from stream(cfg.seed, (tag << 32) | c), and each
    block takes, in trial order, one word below 4^k per active walker: the
    words of `integers(0, 4**k, size=active, dtype=np.uint16)` on that
    stream, read from its raw output by `_Words`.  A word's 2-bit digits
    (low bits first) pick columns of the padded neighbour table, so every
    step is a uniform neighbour.  A trial is capped iff it has not hit by
    cfg.max_steps; its count is then max_steps.
    """
    if not 0 <= start < g.n_vertices:
        raise DomainError("start vertex out of range")
    if target_mask[start]:
        return np.zeros(cfg.trials, dtype=np.int64), 0
    n_free = int(np.count_nonzero(~target_mask))
    k = _block_length(n_free)
    table, rows = _jump_table(g.neighbor_table, target_mask, k)
    hit_row = n_free << 2 * k  # row offsets from here on are hits
    index = np.empty(min(_CHUNK, cfg.trials), dtype=np.int64)
    chunks = []
    capped = 0
    remaining = cfg.trials
    chunk_idx = 0
    while remaining > 0:
        m = min(_CHUNK, remaining)
        words = _Words(stream(cfg.seed, (tag << 32) | chunk_idx), k)
        steps = np.zeros(m, dtype=np.int64)
        walker = np.arange(m, dtype=np.int32)
        pos = np.full(m, rows[start], dtype=np.int32)
        base = 0
        while walker.size and base < cfg.max_steps:
            pos = table[np.bitwise_or(pos, words.take(walker.size),
                                      out=index[:walker.size])]
            hit = (pos >= hit_row).nonzero()[0]
            if hit.size:
                steps[walker[hit]] = base + 1 + (pos[hit] - hit_row)
                keep = np.ones(walker.size, dtype=bool)
                keep[hit] = False
                walker, pos = walker[keep], pos[keep]
            base += k
        late = np.flatnonzero(steps > cfg.max_steps)  # hit inside the last block
        steps[walker] = cfg.max_steps
        steps[late] = cfg.max_steps
        capped += walker.size + late.size
        chunks.append(steps)
        remaining -= m
        chunk_idx += 1
    return np.concatenate(chunks), capped


def _stats(steps: np.ndarray, capped: int) -> HittingStats:
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(steps.size)) if steps.size > 1 else 0.0
    return HittingStats(mean, stderr, int(steps.size), capped,
                        int(steps.min()), int(steps.max()))


def commute_time_check(g: ApproximationGraph, x: int | None = None,
                       y: int | None = None, cfg: WalkConfig = WalkConfig()) -> dict:
    """Empirical commute time x -> y -> x against 6 M_n R_unit(x, y).

    The prediction is exact (rational) when x and y are outer corners,
    from the corner resistance identity R_n(q_j, q_k) = 2/3.  It is computed
    before any walk: a run whose predicted commute time reaches max_steps,
    or whose trials times that time exceed _WORK_BUDGET walker-steps, raises
    DomainError instead of running for hours.
    """
    if x is None:
        x = int(g.corner_id(0))
    if y is None:
        y = int(g.corner_id(1))
    if not (0 <= x < g.n_vertices and 0 <= y < g.n_vertices):
        raise DomainError("commute endpoint out of range")
    if x == y:
        raise DomainError("commute endpoints must differ")
    m_n = g.ls.M(g.level)
    corners = {int(g.corner_id(j)): j for j in range(3)}
    predicted_exact = None
    if x in corners and y in corners:
        r_xy = corner_resistance(g.ls, g.level, corners[x], corners[y]).value
        predicted_exact = 6 * m_n * r_xy / g.ls.R(g.level)
        predicted = float(predicted_exact)
    else:
        solver = ResistanceSolver(g)
        predicted = 6.0 * m_n * solver.unit_resistance(x, y)
    if predicted >= cfg.max_steps:
        raise DomainError(f"predicted commute time {predicted:.4g} steps is not "
                          f"below max_steps={cfg.max_steps}")
    if cfg.trials * predicted > _WORK_BUDGET:
        raise DomainError(f"{cfg.trials} trials of a predicted {predicted:.4g}-step "
                          f"commute exceed the budget of {_WORK_BUDGET:.0e} "
                          "walker-steps")
    mask_y = np.zeros(g.n_vertices, dtype=bool)
    mask_y[y] = True
    mask_x = np.zeros(g.n_vertices, dtype=bool)
    mask_x[x] = True
    fwd, cap1 = simulate_hitting(g, x, mask_y, cfg, tag=1)
    bwd, cap2 = simulate_hitting(g, y, mask_x, cfg, tag=2)
    st = _stats(fwd + bwd, cap1 + cap2)
    z = (st.mean - predicted) / st.stderr if st.stderr > 0 else 0.0
    return {"depth": g.level, "x": x, "y": y, "trials": cfg.trials,
            "empirical_mean": st.mean, "stderr": st.stderr,
            "predicted": predicted,
            "predicted_exact": predicted_exact,
            "z_score": z, "capped": st.capped,
            "passed": abs(z) <= _Z_MAX and st.capped == 0}


def exit_time_profile(g: ApproximationGraph, w, radii,
                      cfg: WalkConfig = WalkConfig()) -> list:
    """Mean exit times from growing cell neighborhoods of w.

    The walk starts at corner 0 of cell w and runs until it leaves
    the union of cells within radius k.  Radius 0 has exit time 0 by
    definition (the point itself is the boundary).  Means are reported for
    offline comparison against the quadratic-in-k time scaling.
    """
    idx = word_to_index(g.ls, w)
    start = int(g.cells[idx][0])
    radii = list(radii)
    hops = _cell_hops(g, w, radii)  # one BFS serves every radius
    out = []
    for k in radii:
        if k == 0:
            out.append({"k": 0, "mean": 0.0, "stderr": 0.0, "trials": 0,
                        "capped": 0, "n_cells": 1, "note": "by definition"})
            continue
        within = hops <= k
        n_cells = int(within.sum())
        inside = np.unique(g.cells[within].ravel())
        mask = np.ones(g.n_vertices, dtype=bool)
        mask[inside] = False  # targets are the vertices outside the union
        if not mask.any():
            out.append({"k": int(k), "mean": float("inf"), "stderr": 0.0,
                        "trials": 0, "capped": cfg.trials,
                        "n_cells": n_cells, "note": "neighborhood covers the graph"})
            continue
        steps, capped = simulate_hitting(g, start, mask, cfg, tag=100 + int(k))
        st = _stats(steps, capped)
        out.append({"k": int(k), "mean": st.mean, "stderr": st.stderr,
                    "trials": st.trials, "capped": st.capped, "n_cells": n_cells})
    return out
