"""Nearest-neighbor random walks on approximation graphs.

The walker moves to a uniformly random graph neighbor each step.  Commute
times between two vertices have exact expectation 2 |E| R_unit(x, y) =
6 M_n R_unit(x, y), which ties the simulator back to the resistance
solvers; the check compares the empirical mean against that prediction in
standard-error units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .geometry import (ApproximationGraph, cell_neighborhood,
                       neighborhood_vertex_ids, word_to_index)
from .rand import stream
from .resistance import ResistanceSolver


@dataclass(frozen=True)
class WalkConfig:
    trials: int = 100_000
    max_steps: int = 10_000_000
    seed: int = 0
    chunk: int = 100_000

    def __post_init__(self):
        if self.trials < 1 or self.chunk < 1:
            raise DomainError(f"walks need trials >= 1 and chunk >= 1, "
                              f"got trials={self.trials}, chunk={self.chunk}")


@dataclass(frozen=True)
class HittingStats:
    mean: float
    stderr: float
    trials: int
    capped: int
    min_steps: int
    max_steps: int


def _neighbor_table(g: ApproximationGraph):
    adj = g.adjacency
    deg = np.diff(adj.indptr)
    width = int(deg.max())
    nbr = np.zeros((g.n_vertices, width), dtype=np.int64)
    for v in range(g.n_vertices):
        row = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
        nbr[v, :row.size] = row
    return nbr, deg.astype(np.int64)


def simulate_hitting(g: ApproximationGraph, start: int, target_mask: np.ndarray,
                     cfg: WalkConfig, tag: int = 1):
    """Per-trial step counts until the walk started at `start` first sits on
    a target vertex.  Returns (steps array, capped count)."""
    if not 0 <= start < g.n_vertices:
        raise DomainError("start vertex out of range")
    nbr, deg = _neighbor_table(g)
    chunks = []
    capped = 0
    remaining = cfg.trials
    chunk_idx = 0
    while remaining > 0:
        m = min(cfg.chunk, remaining)
        rng = stream(cfg.seed, (tag << 32) | chunk_idx)
        pos = np.full(m, start, dtype=np.int64)
        steps = np.zeros(m, dtype=np.int64)
        active = np.nonzero(~target_mask[pos])[0]
        step = 0
        while active.size:
            step += 1
            if step > cfg.max_steps:
                capped += active.size
                steps[active] = cfg.max_steps
                break
            p = pos[active]
            r = rng.integers(0, deg[p])
            moved = nbr[p, r]
            pos[active] = moved
            steps[active] = step
            active = active[~target_mask[moved]]
        chunks.append(steps)
        remaining -= m
        chunk_idx += 1
    return np.concatenate(chunks), capped


def _stats(steps: np.ndarray, capped: int) -> HittingStats:
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(steps.size)) if steps.size > 1 else 0.0
    return HittingStats(mean, stderr, int(steps.size), capped,
                        int(steps.min()), int(steps.max()))


def hitting_time(g: ApproximationGraph, start: int, targets,
                 cfg: WalkConfig = WalkConfig()) -> HittingStats:
    mask = np.zeros(g.n_vertices, dtype=bool)
    mask[np.atleast_1d(np.asarray(targets, dtype=np.int64))] = True
    steps, capped = simulate_hitting(g, start, mask, cfg, tag=1)
    return _stats(steps, capped)


def commute_time_check(g: ApproximationGraph, x: int | None = None,
                       y: int | None = None, cfg: WalkConfig = WalkConfig(),
                       z_max: float = 4.0) -> dict:
    """Empirical commute time x -> y -> x against 6 M_n R_unit(x, y).

    The prediction is exact (rational) when x and y are outer corners,
    from the corner resistance identity R_n(q_j, q_k) = 2/3.
    """
    if x is None:
        x = int(g.corner_id(0))
    if y is None:
        y = int(g.corner_id(1))
    if not (0 <= x < g.n_vertices and 0 <= y < g.n_vertices):
        raise DomainError("commute endpoint out of range")
    if x == y:
        raise DomainError("commute endpoints must differ")
    mask_y = np.zeros(g.n_vertices, dtype=bool)
    mask_y[y] = True
    mask_x = np.zeros(g.n_vertices, dtype=bool)
    mask_x[x] = True
    fwd, cap1 = simulate_hitting(g, x, mask_y, cfg, tag=1)
    bwd, cap2 = simulate_hitting(g, y, mask_x, cfg, tag=2)
    total = fwd + bwd
    st = _stats(total, cap1 + cap2)

    m_n = g.ls.M(g.level)
    corners = {int(g.corner_id(j)) for j in range(3)}
    predicted_exact = None
    if x in corners and y in corners:
        # R_n(q_j, q_k) = 2/3 at every depth, so R_unit = (2/3) / R_n
        predicted_exact = 6 * m_n * Fraction(2, 3) / g.ls.R(g.level)
        predicted = float(predicted_exact)
    else:
        solver = ResistanceSolver(g)
        predicted = 6.0 * m_n * solver.unit_resistance(x, y)
    z = (st.mean - predicted) / st.stderr if st.stderr > 0 else 0.0
    return {"depth": g.level, "x": x, "y": y, "trials": cfg.trials,
            "empirical_mean": st.mean, "stderr": st.stderr,
            "predicted": predicted,
            "predicted_exact": predicted_exact,
            "z_score": z, "capped": st.capped,
            "passed": abs(z) <= z_max and st.capped == 0}


def exit_time_profile(g: ApproximationGraph, w, radii,
                      cfg: WalkConfig = WalkConfig(), corner: int = 0) -> list:
    """Mean exit times from growing cell neighborhoods of w.

    The walk starts at the given corner of cell w and runs until it leaves
    the union of cells within radius k.  Radius 0 has exit time 0 by
    definition (the point itself is the boundary).  Means are reported for
    offline comparison against the quadratic-in-k time scaling.
    """
    idx = word_to_index(g.ls, w)
    start = int(g.cells[idx][corner])
    out = []
    for k in radii:
        if k == 0:
            out.append({"k": 0, "mean": 0.0, "stderr": 0.0, "trials": 0,
                        "capped": 0, "n_cells": 1, "note": "by definition"})
            continue
        n_cells = len(cell_neighborhood(g, w, k))
        inside = neighborhood_vertex_ids(g, w, k)
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
