"""Normalised node cut: from-scratch values and incremental state updates."""

import builtins
import math
import random

import pytest

from nodecut import (
    NotAMember,
    NotANeighbor,
    SubgraphState,
    ZeroInternalDegree,
    load_edge_list,
    psi,
    run_all_seeds,
    sigma_and_k_in,
)
from nodecut.psi import MOVE_TOL
from conftest import (
    KARATE_NODES,
    indices_of,
    random_connected_graph,
    random_connected_subgraph,
    random_weighted_graph,
)


def test_psi_seed_link_karate(karate):
    # node 1 has degree 16, node 12 degree 1: sigma = 15/16, k_in = 2
    assert psi(karate, indices_of(karate, {"1", "12"})) == pytest.approx(15 / 32, abs=1e-15)


def test_psi_whole_graph_is_exactly_zero(karate):
    assert psi(karate, set(range(karate.n))) == 0.0


def test_psi_small_triple_karate(karate):
    value = psi(karate, indices_of(karate, {"3", "10", "34"}))
    assert value == pytest.approx((9 / 10 + 16 / 17) / 4, abs=1e-15)
    assert round(value, 3) == 0.460


def test_psi_undefined_without_internal_links(karate):
    with pytest.raises(ZeroInternalDegree):
        psi(karate, {0})
    with pytest.raises(ZeroInternalDegree):
        # nodes 15 and 16 are not adjacent
        psi(karate, indices_of(karate, {"15", "16"}))


def test_make_state_path():
    g = load_edge_list("1 2\n2 3")
    s = SubgraphState(g, indices_of(g, {"1", "2"}))
    assert s.sigma == pytest.approx(0.5, abs=1e-15)
    assert s.k_in == 2.0
    assert s.psi == pytest.approx(0.25, abs=1e-15)
    assert s.frontier == {g.index_of("3")}


def test_make_state_karate_c1(karate):
    s = SubgraphState(karate, indices_of(karate, KARATE_NODES["C1"]))
    assert s.psi == pytest.approx(3 / 136, abs=1e-12)
    assert round(s.psi, 3) == 0.022


def test_psi_weighted_hand_example():
    g = load_edge_list("1 2 2\n2 3 1", weighted=True)
    # node 2: in 2, out 1, degree 3; k_in = 4
    assert psi(g, indices_of(g, {"1", "2"})) == pytest.approx((2 * 1 / 3) / 4, abs=1e-15)


def test_delta_sigma_add_path():
    g = load_edge_list("1 2\n2 3\n3 4")
    s = SubgraphState(g, indices_of(g, {"1", "2"}))
    # node 3 keeps one of its two links inside: sigma 1/2 over k_in 4
    after = s.psi_after_add(g.index_of("3"))
    assert after == pytest.approx(psi(g, indices_of(g, {"1", "2", "3"})), abs=1e-15)
    assert after == pytest.approx(0.125, abs=1e-15)


def test_delta_sigma_add_star_matches_recompute():
    g = load_edge_list("hub a\nhub b\nhub c\nhub d")
    c = indices_of(g, {"hub", "a"})
    s = SubgraphState(g, c)
    for leaf in ("b", "c", "d"):
        i = g.index_of(leaf)
        assert s.psi_after_add(i) == pytest.approx(psi(g, c | {i}), abs=1e-15)


def test_delta_sigma_add_karate_c7_neighbors(karate):
    c = indices_of(karate, KARATE_NODES["C7"])
    s = SubgraphState(karate, c)
    for i in sorted(s.frontier):
        assert s.psi_after_add(i) == pytest.approx(psi(karate, c | {i}), abs=1e-12)


def test_delta_sigma_remove_path():
    g = load_edge_list("1 2\n2 3")
    s = SubgraphState(g, set(range(3)))
    after = s.psi_after_remove(g.index_of("3"))
    assert after == pytest.approx(psi(g, indices_of(g, {"1", "2"})), abs=1e-15)
    assert after == pytest.approx(0.25, abs=1e-15)


def test_delta_sigma_remove_karate_c2(karate):
    c = indices_of(karate, KARATE_NODES["C2"])
    s = SubgraphState(karate, c)
    i = karate.index_of("10")
    assert s.psi_after_remove(i) == pytest.approx(psi(karate, c - {i}), abs=1e-12)


def test_remove_is_inverse_of_add(karate):
    c = indices_of(karate, KARATE_NODES["C2"])
    s = SubgraphState(karate, c)
    for i in sorted(c):
        if s.psi_after_remove(i) is None:
            continue
        before_psi, before_sigma, before_kin = s.psi, s.sigma, s.k_in
        s.apply_remove(i)
        # removing then re-adding is a net zero change
        assert s.psi_after_add(i) == pytest.approx(before_psi, abs=1e-12)
        s.apply_add(i)
        assert s.sigma == pytest.approx(before_sigma, abs=1e-12)
        assert s.k_in == pytest.approx(before_kin, abs=1e-12)
        assert s.nodes() == frozenset(c)


def test_apply_add_path_reaches_zero():
    g = load_edge_list("1 2\n2 3")
    s = SubgraphState(g, indices_of(g, {"1", "2"}))
    s.apply_add(g.index_of("3"))
    assert s.psi == 0.0
    assert s.frontier == set()


def test_grow_c7_matches_scratch_state(karate):
    c = set(indices_of(karate, KARATE_NODES["C7"]))
    s = SubgraphState(karate, c)
    for j, _, _ in karate.adj[karate.index_of("1")]:
        if j in c:
            continue
        s.apply_add(j)
        c.add(j)
        fresh = SubgraphState(karate, c)
        assert s.sigma == pytest.approx(fresh.sigma, rel=1e-12, abs=1e-12)
        assert s.k_in == pytest.approx(fresh.k_in, rel=1e-12)
        assert s.frontier == fresh.frontier
        assert s.in_w == pytest.approx(fresh.in_w, abs=1e-12)


def test_move_argument_validation(karate):
    s = SubgraphState(karate, indices_of(karate, {"1", "12"}))
    one, fifteen = karate.index_of("1"), karate.index_of("15")  # 15 is not adjacent to {1, 12}
    for move in (s.psi_after_add, s.apply_add):
        for x in (one, fifteen):
            with pytest.raises(NotANeighbor):
                move(x)
    for move in (s.psi_after_remove, s.apply_remove):
        with pytest.raises(NotAMember):
            move(fifteen)
    with pytest.raises(ZeroInternalDegree):
        s.apply_remove(karate.index_of("12"))  # would leave no internal link
    assert s.nodes() == indices_of(karate, {"1", "12"})


def test_psi_below_one_and_boundary_only_terms(karate):
    rng = random.Random(2)
    for _ in range(50):
        c = random_connected_subgraph(rng, karate, rng.randrange(2, 20))
        value = psi(karate, c)
        assert 0.0 <= value < 1.0
        boundary_sigma = 0.0
        for i in c:
            k_in = sum(w for j, w, _ in karate.adj[i] if j in c)
            k_out = karate.degrees[i] - k_in
            if k_out > 0:
                boundary_sigma += k_in * k_out / karate.degrees[i]
        assert sigma_and_k_in(karate, c)[0] == pytest.approx(boundary_sigma, abs=1e-12)


@pytest.mark.parametrize("weighted", [False, True])
def test_incremental_matches_scratch_random_walk(weighted):
    rng = random.Random(31 if weighted else 13)
    for trial in range(4):
        n = rng.randrange(8, 20)
        g = (
            random_weighted_graph(rng, n, n)
            if weighted
            else random_connected_graph(rng, n, n)
        )
        u, v = g.link_ends[rng.randrange(g.m)]
        s = SubgraphState(g, {u, v})
        for _ in range(300):
            if rng.random() < 0.55 and s.frontier:
                s.apply_add(rng.choice(sorted(s.frontier)))
            else:
                cands = [i for i in sorted(s.members) if s.psi_after_remove(i) is not None]
                if not cands:
                    continue
                s.apply_remove(rng.choice(cands))
            sigma, k_in = sigma_and_k_in(g, s.members)
            assert s.sigma == pytest.approx(sigma, rel=1e-9, abs=1e-9)
            assert s.k_in == pytest.approx(k_in, rel=1e-9)


def _check_cached_deltas(s):
    """Every cached delta is, bit for bit, the delta a fresh computation gives."""
    for i, d in enumerate(s.delta):
        if d is None:
            continue
        if i in s.members:
            assert d == s._remove_delta(i)
        else:
            assert i in s.frontier
            assert d == s._add_delta(i)


@pytest.mark.parametrize("weighted", [False, True])
def test_cached_deltas_match_fresh_random_walk(weighted):
    rng = random.Random(37 if weighted else 17)
    for trial in range(4):
        n = rng.randrange(8, 24)
        g = (
            random_weighted_graph(rng, n, 2 * n)
            if weighted
            else random_connected_graph(rng, n, 2 * n)
        )
        u, v = g.link_ends[rng.randrange(g.m)]
        s = SubgraphState(g, {u, v})
        for step in range(300):
            value = s.psi
            # on odd steps best_add runs twice, the second time from the deltas it cached
            best_first = s.best_add() if step % 2 else None
            adds = [(s.psi_after_add(x) - value, x) for x in sorted(s.frontier)]
            best = min(adds)[0] if adds else float("inf")
            tied = [x for d, x in adds if d <= best + MOVE_TOL]  # in node order
            assert s.best_add() == (best, tied)
            assert best_first in (None, (best, tied))
            removes = s.remove_scores()
            assert removes == [
                (after - value, x)
                for x in sorted(s.members)
                if (after := s.psi_after_remove(x)) is not None
            ]
            assert all(s.delta[x] is not None for _, x in adds + removes)
            _check_cached_deltas(s)
            r = rng.random()
            if r < 0.1:
                kept = list(s.delta)
                s.recompute()
                # a refresh drops deltas but changes none; on unit weights it changes
                # no in_w, so it drops none
                assert all(d in (None, k) for d, k in zip(s.delta, kept))
                if not weighted:
                    assert s.delta == kept
            elif r < 0.6 and adds:
                s.apply_add(rng.choice(adds)[1])
            elif removes:
                s.apply_remove(rng.choice(removes)[1])
            _check_cached_deltas(s)  # what survived the move is still exact


@pytest.mark.parametrize(
    "make, n, extra",
    [(random_connected_graph, 200, 400), (random_weighted_graph, 90, 180)],
    ids=["reference", "weighted"],
)
def test_recompute_keeps_only_exact_deltas(monkeypatch, make, n, extra):
    """After every recompute() of a sweep, each delta it kept is exact. On
    unit weights some are kept; a weighted recompute() is a rebuild and keeps none."""
    g = make(random.Random(7), n, extra)
    recompute = SubgraphState.recompute
    kept = []

    def checked(state):
        exact = recompute(state)
        _check_cached_deltas(state)
        kept.append(sum(d is not None for d in state.delta))
        return exact

    monkeypatch.setattr(SubgraphState, "recompute", checked)
    run_all_seeds(g)
    assert (sum(kept) > 0) == g.unit_weighted


def test_whole_graph_cut_is_zero_whatever_sum_the_interpreter_has(monkeypatch):
    """Degrees add up like in_w does, so the whole graph keeps in_w == degrees
    and psi exactly 0.0 even where builtin sum() is compensated (Python 3.12+)."""
    builtin_sum = builtins.sum

    def compensated_sum(values, start=0):
        values = list(values)
        if values and all(isinstance(v, float) for v in values):
            return start + math.fsum(values)
        return builtin_sum(values, start)

    rng = random.Random(4)
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "sum", compensated_sum)
        g = random_weighted_graph(rng, 20, 30)
    assert any(math.fsum(w for _, w, _ in adj) != k for adj, k in zip(g.adj, g.degrees))
    whole = SubgraphState(g, range(g.n))
    assert whole.in_w == list(g.degrees)
    assert whole.psi == 0.0
    assert sigma_and_k_in(g, range(g.n))[0] == 0.0


def test_recompute_resets_drift(karate):
    c = indices_of(karate, KARATE_NODES["C3"])
    s = SubgraphState(karate, c)
    exact = s.recompute()
    assert exact == pytest.approx(psi(karate, c), abs=0.0)


@pytest.mark.parametrize("make", [random_connected_graph, random_weighted_graph], ids=["unit", "weighted"])
def test_recompute_depends_on_the_node_set_alone(make):
    """The same node set, built fresh or reached through a larger set by adds
    and removes, is the same state after recompute, float for float: every
    sum, the frontier, each delta the walk's scoring left cached (on unit
    weights; a weighted recompute() drops them all), and every score.
    """
    g = make(random.Random(2), 24, 30)
    cached = 0
    for seed in range(10):
        target = random_connected_subgraph(random.Random(seed), g, 5)
        fresh = SubgraphState(g, target)
        walked = SubgraphState(g, target)
        added = []
        while walked.frontier:
            x = min(walked.frontier)
            walked.apply_add(x)
            added.append(x)
        for x in reversed(added):
            walked.apply_remove(x)
            walked.best_add()  # cache deltas for recompute to keep or drop
            walked.remove_scores()
        assert walked.members == fresh.members
        walked.recompute()
        for field in ("in_w", "in_cnt", "frontier", "links_in", "k_in", "sigma", "psi"):
            assert getattr(walked, field) == getattr(fresh, field), field
        for i, d in enumerate(walked.delta):
            if d is not None:
                assert d == (fresh._remove_delta(i) if i in fresh.members else fresh._add_delta(i))
                cached += 1
        assert walked.best_add() == fresh.best_add() and walked.remove_scores() == fresh.remove_scores()
    assert bool(cached) == g.unit_weighted
