from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from thin_gasket.errors import DomainError
from thin_gasket.geometry import (_padded_neighbor_table, build_graph,
                                  neighborhood_vertex_ids, word_to_index)
from thin_gasket import walks
from thin_gasket.rand import stream
from thin_gasket.sequence import LevelSequence
from thin_gasket.walks import (WalkConfig, _Words, _block_length, _stats,
                               commute_time_check, exit_time_profile,
                               simulate_hitting)


def _graph(seq, depth):
    return build_graph(LevelSequence(seq, continuation="repeat-last"), depth)


def _hitting_stats(g, start, target, cfg):
    mask = np.zeros(g.n_vertices, dtype=bool)
    mask[target] = True
    return _stats(*simulate_hitting(g, start, mask, cfg, tag=1))


def test_hitting_time_triangle_mean():
    g = _graph((5,), 0)
    cfg = WalkConfig(trials=40_000, seed=3)
    stats = _hitting_stats(g, int(g.corner_id(0)), int(g.corner_id(1)), cfg)
    # on a triangle the expected hitting time of one fixed corner is 2
    assert stats.mean == pytest.approx(2.0, abs=5 * stats.stderr)
    assert stats.capped == 0
    assert stats.min_steps >= 1
    assert stats.trials == 40_000


def test_hitting_time_reproducible():
    g = _graph((5,), 1)
    cfg = WalkConfig(trials=5_000, seed=11)
    a = _hitting_stats(g, 0, int(g.corner_id(1)), cfg)
    b = _hitting_stats(g, 0, int(g.corner_id(1)), cfg)
    assert a == b


def test_commute_time_exact_predictions():
    exact = {0: Fraction(4), 1: Fraction(496, 3), 2: Fraction(61504, 9)}
    for depth, value in exact.items():
        g = _graph((5,), depth)
        trials = 4_000 if depth == 2 else 20_000
        rep = commute_time_check(g, cfg=WalkConfig(trials=trials, seed=17))
        assert rep["predicted_exact"] == value
        assert rep["predicted"] == pytest.approx(float(value), rel=1e-12)
        assert rep["passed"], rep["z_score"]
        assert abs(rep["z_score"]) < 4.0


def test_commute_prediction_scales_with_time_factor():
    g0 = _graph((5,), 0)
    g1 = _graph((5,), 1)
    cfg = WalkConfig(trials=200, seed=1)
    r0 = commute_time_check(g0, cfg=cfg)
    r1 = commute_time_check(g1, cfg=cfg)
    # one subdivision multiplies the commute time by t_5 = 124/3
    assert r1["predicted_exact"] == r0["predicted_exact"] * Fraction(124, 3)


def test_exit_time_profile_shape():
    g = _graph((5,), 2)
    rows = exit_time_profile(g, ((0, 0), (0, 0)), radii=(1, 2, 3),
                             cfg=WalkConfig(trials=800, seed=9))
    assert [row["k"] for row in rows] == [1, 2, 3]
    means = [row["mean"] for row in rows]
    assert all(b > a for a, b in zip(means, means[1:]))
    assert rows[0]["n_cells"] == 3
    for row in rows:
        assert row["trials"] == 800
        assert row["mean"] > 0


def test_exit_time_profile_refuses_fractional_radius():
    g = _graph((5,), 2)
    for bad in (1.5, np.float64(2.0)):
        with pytest.raises(DomainError, match=f"radius {bad} is not an integer"):
            exit_time_profile(g, ((0, 0), (0, 0)), [bad], cfg=WalkConfig(trials=10))
    rows = exit_time_profile(g, ((0, 0), (0, 0)), [np.int64(1)], cfg=WalkConfig(trials=10))
    assert rows[0]["k"] == 1


def test_walk_config_validation():
    g = _graph((5,), 0)
    with pytest.raises(Exception):
        commute_time_check(g, x=0, y=0, cfg=WalkConfig(trials=10, seed=0))
    for bad in (0, -1):
        with pytest.raises(DomainError):
            WalkConfig(max_steps=bad)


# ---- The block-stepped kernel against a one-step reference -----------------


def _reference_hitting(g, start, target_mask, cfg, tag, chunk):
    """One step at a time over a loop-built padded neighbour table, consuming
    the kernel's draws: per chunk of walkers one stream, and per block one
    uint16 below 4^k per active walker, read as 2-bit digits low bits
    first."""
    adj = g.adjacency
    nbr = np.zeros((g.n_vertices, 4), dtype=np.int64)
    for v in range(g.n_vertices):
        row = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
        nbr[v] = [row[j % row.size] for j in range(4)]
    k = _block_length(int(np.count_nonzero(~target_mask)))
    chunks, capped = [], 0
    for chunk_idx, first in enumerate(range(0, cfg.trials, chunk)):
        m = min(chunk, cfg.trials - first)
        rng = stream(cfg.seed, (tag << 32) | chunk_idx)
        pos = np.full(m, start, dtype=np.int64)
        steps = np.zeros(m, dtype=np.int64)
        active = np.arange(m) if not target_mask[start] else np.arange(0)
        base = 0
        while active.size and base < cfg.max_steps:
            words = rng.integers(0, 4 ** k, size=active.size, dtype=np.uint16)
            alive = np.ones(active.size, dtype=bool)
            for j in range(k):
                if base + j + 1 > cfg.max_steps:
                    break
                i = np.flatnonzero(alive)
                w = active[i]
                pos[w] = nbr[pos[w], (words[i] >> (2 * j)) & 3]
                hit = target_mask[pos[w]]
                steps[w[hit]] = base + j + 1
                alive[i[hit]] = False
            active = active[alive]
            base += k
        steps[active] = cfg.max_steps
        capped += active.size
        chunks.append(steps)
    return np.concatenate(chunks), capped


def _mask(g, targets):
    mask = np.zeros(g.n_vertices, dtype=bool)
    mask[list(targets)] = True
    return mask


def _commute_cases():
    for depth, trials in ((0, 3_000), (1, 2_000), (2, 300)):
        g = _graph((5,), depth)
        q0, q1 = int(g.corner_id(0)), int(g.corner_id(1))
        cfg = WalkConfig(trials=trials, seed=17)
        yield f"commute-d{depth}-fwd", g, q0, _mask(g, [q1]), cfg, 1, 700
        yield f"commute-d{depth}-bwd", g, q1, _mask(g, [q0]), cfg, 2, 700


def _exit_mask(g, w, radius):
    mask = np.ones(g.n_vertices, dtype=bool)
    mask[neighborhood_vertex_ids(g, w, radius)] = False
    return int(g.cells[word_to_index(g.ls, w)][0]), mask


def _cap_cases():
    """Exits from a radius-1 neighbourhood (6 free vertices, k = 5) capped
    at 1, 7 and 13 steps, so the cap falls inside a block."""
    g = _graph((5,), 2)
    start, mask = _exit_mask(g, ((0, 0), (0, 0)), 1)
    for cap in (1, 7, 13):
        cfg = WalkConfig(trials=500, max_steps=cap, seed=5)
        yield f"cap-{cap}", g, start, mask, cfg, 1, 200


def _edge_cases():
    g = _graph((5,), 2)
    start, mask = _exit_mask(g, ((0, 0), (0, 0)), 2)
    yield "exit-radius-2", g, start, mask, WalkConfig(trials=2_000, seed=9), 102, walks._CHUNK
    q1 = int(g.corner_id(1))
    yield "start-on-target", g, q1, _mask(g, [q1]), WalkConfig(trials=50, seed=4), 1, walks._CHUNK
    # one chunk of 1,000 walkers takes 678,356 words (odd-size padding
    # included), more than the 524,288 of one refill
    q0 = int(g.corner_id(0))
    yield ("commute-d2-past-refill", g, q0, _mask(g, [q1]), WalkConfig(trials=1_000, seed=17),
           1, walks._CHUNK)
    # random targets: a tenth of the vertices gives k = 3 at depth 3 and k = 1
    # at depth 4; 70% at depth 3 gives k = 4 and 60% at depth 4 gives k = 2
    for depth, share in ((3, 0.1), (4, 0.1), (3, 0.7), (4, 0.6)):
        g = _graph((5,), depth)
        mask = np.random.default_rng(depth).random(g.n_vertices) < share
        mask[0] = False
        name = "sparse" if share < 0.5 else "dense"
        yield (f"{name}-targets-d{depth}", g, 0, mask, WalkConfig(trials=1_000, seed=8), 1,
               walks._CHUNK)


@pytest.mark.parametrize("case", [*_commute_cases(), *_edge_cases(), *_cap_cases()],
                         ids=lambda case: case[0])
def test_kernel_matches_one_step_reference(case, monkeypatch):
    _, g, start, mask, cfg, tag, chunk = case
    # small chunks put several streams into one run
    monkeypatch.setattr(walks, "_CHUNK", chunk)
    steps, capped = simulate_hitting(g, start, mask, cfg, tag=tag)
    ref_steps, ref_capped = _reference_hitting(g, start, mask, cfg, tag, chunk)
    assert steps.dtype == ref_steps.dtype
    assert np.array_equal(steps, ref_steps)
    assert capped == ref_capped


def test_reference_cases_cover_every_block_length():
    cases = [*_commute_cases(), *_edge_cases(), *_cap_cases()]
    ks = {_block_length(int(np.count_nonzero(~mask))) for _, _, _, mask, *_ in cases}
    assert ks == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_words_match_bounded_integers(k, monkeypatch):
    """The kernel's words against numpy's bounded draw on the same stream,
    call by call: sizes 1, odd and even, on refills of 8 raw values (32
    words), some calls longer than one refill."""
    monkeypatch.setattr(walks, "_REFILL", 8)
    words = _Words(stream(21, k), k)
    rng = stream(21, k)
    for n in (1, 2, 1, 7, 8, 33, 1, 40, 5, 100, 6, 1, 64, 3, 2):
        got = words.take(n)
        assert got.dtype == np.uint16
        assert np.array_equal(got, rng.integers(0, 4 ** k, size=n, dtype=np.uint16))


def test_block_length_keeps_tables_in_budget():
    free = (1, 236, 257, 1025, 4097, 16384, 16385, 10 ** 6)
    assert [_block_length(f) for f in free] == [5, 5, 4, 3, 2, 2, 1, 1]


def test_cap_cases_split_hits_and_caps(monkeypatch):
    for _, g, start, mask, cfg, tag, chunk in _cap_cases():
        monkeypatch.setattr(walks, "_CHUNK", chunk)
        assert _block_length(int(np.count_nonzero(~mask))) == 5
        steps, capped = simulate_hitting(g, start, mask, cfg, tag=tag)
        assert steps.max() == cfg.max_steps
        if cfg.max_steps == 1:
            assert capped == cfg.trials
        else:
            assert 0 < capped < cfg.trials
            assert capped <= np.count_nonzero(steps == cfg.max_steps)


@pytest.mark.parametrize("dense", [
    np.ones((4, 4)) - np.eye(4),  # K4: every degree 3
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),  # an isolated vertex
], ids=["degree-3", "degree-0"])
def test_neighbor_table_rejects_unpaddable_degree(dense):
    with pytest.raises(DomainError):
        _padded_neighbor_table(sparse.csr_matrix(dense))
