"""Greedy descent runs: move selection, pruning, escapes, and full sweeps."""

import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nodecut import (
    Community,
    SubgraphState,
    TieBreakPolicy,
    Trajectory,
    build_polyhierarchy,
    is_connected,
    load_edge_list,
    prune,
    psi,
    run_all_seeds,
    run_from_seed,
    verify_local_minimum,
)
from nodecut import greedy
from nodecut.greedy import Steps, _ranked, _removal_order, _select, _Sweep
from nodecut.psi import MOVE_TOL
from conftest import (
    KARATE_NODES,
    KARATE_PSI,
    KARATE_SEED_COUNTS,
    OSCILLATING,
    TWO_TRIANGLES,
    fuzz_graph,
    indices_of,
    labels_of,
    random_connected_graph,
    random_weighted_graph,
    spread_weighted_graph,
)

K4 = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"

# state {2,3,4,5,7} below: removing 5 is the most downhill move but splits the
# subgraph; removing 7 is downhill and legal, so pruning must start with 7
PRUNE_GRAPH = "1 2\n1 3\n3 4\n1 5\n5 6\n5 7\n1 7\n2 4\n2 5\n2 6\n3 6\n6 7\n"


def brute_best_addition(g, members):
    value = psi(g, members)
    best = None
    for x in sorted({j for i in members for j, _, _ in g.adj[i]} - members):
        delta = psi(g, members | {x}) - value
        if best is None or delta < best[1] - 1e-12:
            best = (x, delta)
    return best


def _reference_add_scores(state):
    """(psi change if added, node) for every frontier node, in node order,
    each scored afresh through psi_after_add."""
    value = state.psi
    return [(state.psi_after_add(x) - value, x) for x in sorted(state.frontier)]


def reference_select(g, cands, rng, rank=0):
    """The addition a run makes, picked from a full _reference_add_scores list.

    rank 0 takes the best, ties within MOVE_TOL drawn from in node order
    under the random policy and broken by label otherwise; a higher rank
    takes that place in the (delta, label) order, clamped to the last.
    """
    if rank:
        ordered = sorted(cands, key=lambda c: (c[0], g.rank[c[1]]))
        return ordered[min(rank, len(ordered) - 1)]
    best = min(cands)[0]
    tied = [c for c in cands if c[0] <= best + MOVE_TOL]
    if rng is not None and len(tied) > 1:
        return tied[rng.randrange(len(tied))]
    return min(tied, key=lambda c: g.rank[c[1]])


def test_best_addition_path():
    g = load_edge_list("1 2\n2 3")
    s = SubgraphState(g, indices_of(g, {"1", "2"}))
    delta, tied = s.best_add()
    node = _select(g, tied, None)
    assert g.labels[node] == "3"
    assert delta == pytest.approx(-0.25, abs=1e-12)


def test_best_addition_k4_tie_breaks_by_label():
    g = load_edge_list(K4)
    s = SubgraphState(g, indices_of(g, {"1", "2"}))
    _, tied = s.best_add()
    assert labels_of(g, tied) == {"3", "4"}
    assert g.labels[_select(g, tied, None)] == "3"


def test_best_addition_karate_33_34_matches_brute_force(karate):
    members = set(indices_of(karate, {"33", "34"}))
    s = SubgraphState(karate, members)
    delta, tied = s.best_add()
    node = _select(karate, tied, None)
    expect_node, expect_delta = brute_best_addition(karate, members)
    assert node == expect_node
    assert delta == pytest.approx(expect_delta, abs=1e-12)
    assert delta < 0  # the first descent step of this seed goes downhill


def test_prune_no_op_at_local_minimum(karate):
    s = SubgraphState(karate, indices_of(karate, KARATE_NODES["C4"]))
    assert prune(s) == []
    assert labels_of(karate, s.members) == KARATE_NODES["C4"]


def test_prune_skips_disconnecting_removal():
    g = load_edge_list(PRUNE_GRAPH)
    members = indices_of(g, {"2", "3", "4", "5", "7"})
    s = SubgraphState(g, set(members))
    value = s.psi
    five = g.index_of("5")
    assert s.psi_after_remove(five) < value  # downhill ...
    assert not is_connected(g, set(members) - {five})  # ... but disconnecting
    removed = prune(s)
    assert removed, "a legal downhill removal exists"
    assert g.labels[removed[0]] == "7"  # most-downhill node 5 was skipped
    assert is_connected(g, s.members)
    for x in sorted(s.members):  # postcondition: nothing legal left to remove
        after = s.psi_after_remove(x)
        if after is not None and after < s.psi - 1e-12:
            assert not is_connected(g, s.members - {x})


def _random_states(g, rng, moves):
    """States of a random walk of adds and removes from a random seed link."""
    u, v = g.link_ends[rng.randrange(g.m)]
    s = SubgraphState(g, {u, v})
    for _ in range(moves):
        removable = [x for x in sorted(s.members) if s.psi_after_remove(x) is not None]
        if s.frontier and (rng.random() < 0.6 or not removable):
            s.apply_add(rng.choice(sorted(s.frontier)))
        elif removable:
            s.apply_remove(rng.choice(removable))
        yield s


def _reference_removal_order(state):
    """Every removal in (delta, label) order, each scored afresh."""
    cands = [
        (after - state.psi, x)
        for x in sorted(state.members)
        if (after := state.psi_after_remove(x)) is not None
    ]
    return sorted(cands, key=lambda c: (c[0], state.g.rank[c[1]]))


def _tie_groups(cands):
    """cands cut into runs whose deltas lie within MOVE_TOL of the run's first."""
    groups = []
    for c in cands:
        if groups and c[0] <= groups[-1][0][0] + MOVE_TOL:
            groups[-1].append(c)
        else:
            groups.append([c])
    return groups


@pytest.mark.parametrize("make", [random_connected_graph, random_weighted_graph], ids=["unit", "weighted"])
def test_removal_order_draws_only_within_downhill_ties(make):
    """Deterministic: exactly the removals below -MOVE_TOL of the full
    (delta, label) order. Random: that same list with each tie group of two
    or more shuffled, one draw per such group, so no removal that prune
    cannot take is ever ordered or drawn for."""
    rng = random.Random(41)
    downhill = draws = 0
    for trial in range(6):
        g = make(rng, rng.randrange(10, 30), 30)
        for i, s in enumerate(_random_states(g, rng, 60)):
            full = _reference_removal_order(s)
            prefix = list(itertools.takewhile(lambda c: c[0] < -MOVE_TOL, full))
            assert _removal_order(s, None) == prefix
            downhill += len(prefix)
            policy = TieBreakPolicy("random", trial)
            got_rng, want_rng = policy.rng_for(i), policy.rng_for(i)
            want = []
            ties = 0
            for group in _tie_groups(prefix):
                if len(group) > 1:
                    want_rng.shuffle(group)
                    ties += 1
                want += group
            assert _removal_order(s, got_rng) == want
            assert got_rng.draws == want_rng.draws == ties
            draws += ties
    assert downhill and draws


def test_escape_step_adds_min_increase(karate):
    members = set(indices_of(karate, KARATE_NODES["C4"]))
    s = SubgraphState(karate, members)
    value = s.psi
    cands = {x: s.psi_after_add(x) for x in s.frontier}
    node = _select(karate, s.best_add()[1], None)
    s.apply_add(node)
    assert s.members == members | {node}
    assert cands[node] >= value
    assert cands[node] == pytest.approx(min(cands.values()), abs=1e-12)


def test_escape_step_single_candidate(karate):
    """A revisit's escape rank clamps to the last candidate."""
    x = karate.index_of("17")
    s = SubgraphState(karate, set(range(karate.n)) - {x})
    assert _select(karate, s.best_add()[1], None) == x
    assert _ranked(s, 3) == x


def seed_minima_names(karate, u, v, policy=None):
    traj = run_from_seed(karate, karate.find_link(u, v), policy)
    by_nodes = {indices_of(karate, nodes): name for name, nodes in KARATE_NODES.items()}
    return [by_nodes.get(m, "?") for m in traj.minima]


def test_named_trajectories(karate):
    assert seed_minima_names(karate, "1", "5") == ["C4", "C3"]
    assert seed_minima_names(karate, "33", "34") == ["C2", "C1"]
    assert seed_minima_names(karate, "25", "26") == ["C5", "C2", "C1"]
    assert seed_minima_names(karate, "1", "2") == ["C1"]


def test_seed_identical_to_its_minimum(karate):
    traj = run_from_seed(karate, karate.find_link("1", "12"))
    assert labels_of(karate, traj.minima[0]) == {"1", "12"}


def test_trajectory_replay_and_termination(karate):
    for pair in (("1", "5"), ("25", "26"), ("3", "28")):
        traj = run_from_seed(karate, karate.find_link(*pair))
        u, v = traj.seed
        state = SubgraphState(karate, {u, v})
        for _, action, node, value, size in traj.steps:
            if action == "add":
                state.apply_add(node)
            elif action == "remove":
                state.apply_remove(node)
            assert len(state.members) == size
            assert state.psi == pytest.approx(value, abs=1e-9)
        assert traj.covers_graph
        assert traj.final_psi == 0.0
        assert state.nodes() == traj.final_nodes


def test_recorded_minima_are_certified(karate):
    for lid in range(0, karate.m, 7):
        traj = run_from_seed(karate, lid)
        assert traj.minima, "every karate seed records at least one minimum"
        for nodes in traj.minima:
            assert verify_local_minimum(karate, nodes)
            assert is_connected(karate, nodes)


def test_descent_phases_strictly_decrease(karate):
    traj = run_from_seed(karate, karate.find_link("33", "34"))
    values = [v for _, action, _, v, _ in traj.steps]
    actions = [action for _, action, _, _, _ in traj.steps]
    # between start and the first recorded minimum every move goes downhill
    first_record = actions.index("record-minimum")
    descent = values[:first_record]
    assert all(b < a - 1e-12 for a, b in zip(descent, descent[1:]))


def test_run_all_seeds_karate_table(karate, karate_result, karate_named):
    from nodecut import boundary_nodes

    assert len(karate_result.communities) == 7
    assert Community._fields == ("nodes", "psi", "boundary", "seed_count", "stability")
    for name, community in karate_named.items():
        assert community.psi == pytest.approx(KARATE_PSI[name], abs=5e-4)
        assert community.seed_count == KARATE_SEED_COUNTS[name]
        assert community.boundary == frozenset(boundary_nodes(karate, community.nodes))
    assert karate_result.histogram == {1: 27, 2: 42, 3: 9}
    assert all(len(t.minima) >= 1 for t in karate_result.trajectories)


def test_stability_ordering(karate_result):
    ordered = karate_result.communities
    assert ordered[0].stability is None  # nothing below the best community
    assert all(c.stability is not None for c in ordered[1:])
    assert all(0.0 < c.stability <= 1.0 for c in ordered[1:])


def test_stability_definition(karate, karate_result):
    """Shortest Jaccard distance to any community with a strictly lower cut value.

    The two triangles are minima of equal psi, so neither has a lower one.
    """
    weighted = random_weighted_graph(random.Random(1), 20, 20)
    results = (karate_result, run_all_seeds(weighted), run_all_seeds(load_edge_list(TWO_TRIANGLES)))
    for result, expect_count in zip(results, (7, 14, 2)):
        communities = result.communities
        assert len(communities) == expect_count
        for c in communities:
            lower = [o.nodes for o in communities if o.psi < c.psi]
            if not lower:
                assert c.stability is None
                continue
            expected = min(1.0 - len(c.nodes & o) / len(c.nodes | o) for o in lower)
            assert c.stability == pytest.approx(expected, abs=1e-12)


def test_random_policy_still_finds_the_seven(karate):
    """random(144) finds the seven and one more certified minimum, which the
    deterministic sweep never records."""
    res = run_all_seeds(karate, TieBreakPolicy("random", 144))
    assert all(verify_local_minimum(karate, c.nodes) for c in res.communities)
    found = {labels_of(karate, c.nodes): c for c in res.communities}
    eighth = frozenset("1 2 5 6 7 11 12 17 18 22".split())
    assert set(found) == set(KARATE_NODES.values()) | {eighth}
    assert (found[eighth].psi, found[eighth].seed_count) == (0.1875, 5)
    assert res.histogram == {1: 27, 2: 37, 3: 14}


def test_deterministic_runs_are_identical(karate):
    a = run_all_seeds(karate)
    b = run_all_seeds(karate)
    assert [c.nodes for c in a.communities] == [c.nodes for c in b.communities]
    assert [t.steps for t in a.trajectories] == [t.steps for t in b.trajectories]


def test_jobs_do_not_change_results(karate):
    weighted = random_weighted_graph(random.Random(1), 20, 20)
    for g, policy in ((karate, TieBreakPolicy()), (weighted, TieBreakPolicy("random", 1))):
        serial = run_all_seeds(g, policy)
        parallel = run_all_seeds(g, policy, jobs=2)
        assert [t.steps for t in serial.trajectories] == [t.steps for t in parallel.trajectories]
        assert [(c.nodes, c.psi, c.seed_count, c.stability) for c in serial.communities] == [
            (c.nodes, c.psi, c.seed_count, c.stability) for c in parallel.communities
        ]


# small-fuzz graphs on which some seeds used to settle back on the same set
# after every escape, at every rank, until the phase budget ran out
STUCK_FUZZ_KS = (824, 1255, 1578, 2159, 2699)


@pytest.mark.parametrize("mode", ["deterministic", "random"])
def test_every_escape_makes_progress(mode):
    graphs = [load_edge_list(OSCILLATING, weighted=True)] + [fuzz_graph(k, 6, 16) for k in STUCK_FUZZ_KS]
    for k, g in enumerate(graphs):
        res = run_all_seeds(g, TieBreakPolicy(mode, k))
        assert [t.failure for t in res.trajectories] == [None] * g.m
        assert all(t.covers_graph for t in res.trajectories)


def test_disconnected_runs_confined_to_components():
    g = load_edge_list("1 2\n2 3\n4 5\n5 6\n6 4")
    res = run_all_seeds(g)
    for traj in res.trajectories:
        assert not traj.covers_graph
        assert traj.final_psi == 0.0
        assert is_connected(g, traj.final_nodes)


def test_a_run_that_exhausts_its_budget_returns_its_trajectory(monkeypatch):
    """Six OSCILLATING seeds need more than four escape phases; with a budget
    of four they stop as failed, keeping what they recorded."""
    monkeypatch.setattr(greedy, "_phase_budget", lambda g: 4)
    g = load_edge_list(OSCILLATING, weighted=True)
    res = run_all_seeds(g)
    assert len(res.trajectories) == 15
    failed = [t for t in res.trajectories if t.failure is not None]
    assert [tuple(sorted(g.link_label_pair(t.link_id), key=int)) for t in failed] == [
        ("1", "8"),
        ("1", "10"),
        ("6", "8"),
        ("8", "9"),
        ("8", "10"),
        ("9", "10"),
    ]
    for t in failed:
        assert t.failure.endswith("no progress after 5 phases")
        assert t.minima and not t.covers_graph
        assert t.final_nodes in t.minima and t.final_psi == psi(g, t.final_nodes)
    assert sum(res.histogram.values()) == 15
    assert len(res.communities) == 3


@settings(max_examples=60)
@given(
    st.integers(4, 40),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.sampled_from([None, 0, 1]),
)
@example(n=32, seed=0, weighted=False, rng_seed=0)  # a replay from a state already at its settled set
def test_shared_phase_cache_changes_no_trajectory(n, seed, weighted, rng_seed):
    """Every seed run with one shared phase cache, descent memo and intern
    table equals the uncached run, float for float, under the deterministic
    policy (rng_seed None) and the random one."""
    rng = random.Random(seed)
    make = random_weighted_graph if weighted else random_connected_graph
    g = make(rng, n, rng.randrange(0, 2 * n))
    policy = None if rng_seed is None else TieBreakPolicy("random", rng_seed)
    sweep = _Sweep({}, {}, {})
    cached = [run_from_seed(g, link_id, policy, sweep) for link_id in range(g.m)]
    assert cached == [run_from_seed(g, link_id, policy) for link_id in range(g.m)]


def test_phase_cache_keys_on_the_escape_rank():
    """A revisit escapes at a higher rank than the first visit, so it must not
    replay the phase cached for the first visit of the same settled set."""
    rng = random.Random(262)
    n = rng.randrange(4, 41)
    g = random_weighted_graph(rng, n, rng.randrange(0, 2 * n))
    sweep = _Sweep({}, {}, {})
    cached = [run_from_seed(g, link_id, None, sweep) for link_id in range(g.m)]
    assert any(rank for _, rank in sweep.cache), "some run revisits a settled set"
    assert cached == [run_from_seed(g, link_id) for link_id in range(g.m)]


def test_a_miss_after_a_replayed_phase_rebuilds_the_state(karate):
    """A replayed phase leaves the live state at the earlier settled set; the
    next phase, if not cached, must start from the set the replay ended on."""
    link_id = karate.find_link("25", "26")
    sweep = _Sweep({}, {}, {})
    plain = run_from_seed(karate, link_id, None, sweep)
    second = list(sweep.cache)[1]  # the phase after the first one, in run order
    del sweep.cache[second]
    # a fresh memo, so the first descent runs live and leaves the state at its settled set
    assert run_from_seed(karate, link_id, None, sweep._replace(memo={})) == plain
    assert second in sweep.cache


def test_a_replayed_phase_chains_the_cache_rows_themselves(karate):
    """A run that replays a cached phase chains the cache's row list, not a copy."""
    sweep = _Sweep({}, {}, {})
    runs = [run_from_seed(karate, link_id, None, sweep) for link_id in range(karate.m)]
    phases = [rows for rows, *_ in sweep.cache.values()]
    chained = [rows for t in runs for rows in t.steps.chain if any(rows is p for p in phases)]
    # the run that computes a phase chains its list once; every replay chains it again
    assert len(chained) > len(phases)
    assert runs == [run_from_seed(karate, link_id) for link_id in range(karate.m)]


def test_a_sweep_stores_shared_rows_once():
    g = random_connected_graph(random.Random(3), 60, 120)
    trajectories = run_all_seeds(g).trajectories
    stored = {id(rows): len(rows) for t in trajectories for rows in t.steps.chain}
    assert 2 * sum(stored.values()) < sum(len(t.steps) for t in trajectories)  # 3,904 of 10,933


def test_steps_read_as_numbered_rows(karate_result):
    """Steps number the chained rows 1, 2, ..., compare equal to the list of
    those rows either way round, and survive a pickle round trip."""
    for t in karate_result.trajectories:
        rows = list(t.steps)
        assert [step for step, *_ in rows] == list(range(1, len(t.steps) + 1))
        assert t.steps == rows and rows == t.steps
        assert t.steps[-1] == rows[-1] and t.steps != rows[:-1]
    copy = pickle.loads(pickle.dumps(karate_result.trajectories))
    assert all(type(t.steps) is Steps for t in copy)
    assert copy == karate_result.trajectories


def fresh_phase(g, key, rank, rng):
    """The phase after settled set key at escape rank, computed from a fresh
    state one selected move at a time, as the cache stores it."""
    state = SubgraphState(g, key)
    rows = []

    def log(action, x):
        rows.append((action, x, state.psi, len(state.members)))

    def downhill():
        scores = _reference_add_scores(state)
        return bool(scores) and min(scores)[0] < -MOVE_TOL

    def add(rank=0):
        _, x = reference_select(g, _reference_add_scores(state), rng, rank)
        state.apply_add(x)
        log("add", x)

    add(rank)
    while state.frontier and not downhill():
        add()
    while True:
        while downhill():
            add()
        if not prune(state, rng, on_move=log) or not downhill():
            break
    exact = state.recompute()
    return rows, state.nodes(), exact, not state.frontier


def assert_phases_draw_nothing(g, cache):
    """Each cached phase is what any generator computes from its settled set
    and rank, and computing it leaves the generator untouched."""
    for (key, rank), phase in cache.items():
        for rng_seed in ("a", "b"):
            gen = random.Random(rng_seed)
            before = gen.getstate()
            assert fresh_phase(g, key, rank, gen) == phase
            assert gen.getstate() == before


def test_random_policy_caches_only_phases_that_draw_nothing():
    """Under the random policy a stored phase drew nothing from its run's
    generator, so every generator computes it the same way from its settled
    set and leaves the generator untouched; replaying it changes no run."""
    rng = random.Random(5)
    g = random_weighted_graph(rng, 30, 45)
    policy = TieBreakPolicy("random", 1)
    sweep = _Sweep({}, {}, {})
    cached = [run_from_seed(g, link_id, policy, sweep) for link_id in range(g.m)]
    assert sweep.cache, "weighted scores seldom tie, so most phases draw nothing"
    assert_phases_draw_nothing(g, sweep.cache)
    assert cached == [run_from_seed(g, link_id, policy) for link_id in range(g.m)]


def test_phases_that_draw_are_recomputed_by_every_run(karate):
    """Unit weights tie often: almost all of karate's phases under the random
    policy draw, so they are not stored, and every run follows its own
    generator. The cache holds only phases that drew nothing: each is the
    same from its settled set whatever the generator."""
    policy = TieBreakPolicy("random", 1)
    sweep = _Sweep({}, {}, {})
    cached = [run_from_seed(karate, link_id, policy, sweep) for link_id in range(karate.m)]
    assert len(sweep.cache) == 1
    assert_phases_draw_nothing(karate, sweep.cache)
    assert cached == [run_from_seed(karate, link_id, policy) for link_id in range(karate.m)]


def memo_sweep(g, policy):
    """Every seed run of g with one shared sweep, and the sweep's descent memo."""
    sweep = _Sweep({}, {}, {})
    return [run_from_seed(g, link_id, policy, sweep) for link_id in range(g.m)], sweep.memo


@pytest.mark.parametrize(
    "policy", [TieBreakPolicy(), TieBreakPolicy("random", 1)], ids=["det", "rng"]
)
def test_the_descent_memo_replays_first_descents(karate, policy):
    """On unit weights a run whose first descent reaches a stored state appends
    that descent's rows themselves; on weighted graphs the memo stays empty."""
    runs, memo = memo_sweep(karate, policy)
    assert memo
    earlier = set()
    replays = 0
    for t in runs:
        first = t.steps.chain[0]
        replays += any(id(row) in earlier for row in first)
        earlier.update(map(id, first))
    assert replays
    assert runs == [run_from_seed(karate, link_id, policy) for link_id in range(karate.m)]
    weighted = random_weighted_graph(random.Random(5), 30, 45)
    runs, memo = memo_sweep(weighted, policy)
    assert memo == {}
    assert runs == [run_from_seed(weighted, link_id, policy) for link_id in range(weighted.m)]


def rest_of_descent(g, memo_key, rng):
    """The rows, settled set, exact psi and frontier flag of a descent
    from the state memo_key names, computed from a fresh state at its member
    set and sigma one selected move at a time."""
    kind, mask, sigma = memo_key
    state = SubgraphState(g, [i for i in range(g.n) if mask >> i & 1])
    state.sigma = sigma
    rows = []

    def log(action, x):
        rows.append((action, x, state.psi, len(state.members)))

    def downhill():
        scores = _reference_add_scores(state)
        return bool(scores) and min(scores)[0] < -MOVE_TOL

    going = True
    if kind == "remove":  # the run was pruning: go on, then descend only if downhill
        prune(state, rng, on_move=log)
        going = downhill()
    while going:
        while downhill():
            _, x = reference_select(g, _reference_add_scores(state), rng)
            state.apply_add(x)
            log("add", x)
        going = bool(prune(state, rng, on_move=log)) and downhill()
    exact = state.recompute()
    return rows, state.nodes(), exact, not state.frontier


@pytest.mark.parametrize(
    "policy", [TieBreakPolicy(), TieBreakPolicy("random", 1)], ids=["det", "rng"]
)
def test_a_memo_state_fixes_the_rest_of_its_descent(karate, policy):
    """On unit weights (kind of the last move, member set, sigma) fixes the rest
    of a descent, float for float; under the random policy a state is
    stored only if nothing was drawn from it on, so the rest leaves any
    generator untouched."""
    graphs = [karate, random_connected_graph(random.Random(8), 40, 60)]
    for g in graphs:
        _, memo = memo_sweep(g, policy)
        for memo_key, ((rows, end, nodes, exact, done), at) in memo.items():
            gen = None if policy.mode == "deterministic" else random.Random("other")
            before = gen and gen.getstate()
            assert rest_of_descent(g, memo_key, gen) == (rows[at:end], nodes, exact, done)
            assert gen is None or gen.getstate() == before


def test_the_descent_memo_serves_later_descents(karate):
    """A descent after an escape reads the memo as a first descent does: on
    karate some run replays memo rows after its first settled set, that is
    after its first phase-cache lookup."""
    lookups = []  # (table, hit) for each read of the phase cache and the memo

    class Logged(dict):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def get(self, key, default=None):
            found = super().get(key, default)
            lookups.append((self.name, found is not None))
            return found

    sweep = _Sweep(Logged("cache"), Logged("memo"), {})
    runs, later_replays = [], 0
    for link_id in range(karate.m):
        lookups.clear()
        runs.append(run_from_seed(karate, link_id, None, sweep))
        tables = [name for name, _ in lookups]
        if "cache" in tables:
            later_replays += ("memo", True) in lookups[tables.index("cache") :]
    assert later_replays
    assert runs == [run_from_seed(karate, link_id) for link_id in range(karate.m)]


def test_a_sweep_keeps_one_object_per_settled_set():
    g = random_connected_graph(random.Random(3), 60, 120)
    trajectories = run_all_seeds(g).trajectories
    sets = [nodes for t in trajectories for nodes in (*t.minima, t.final_nodes)]
    assert len({id(nodes) for nodes in sets}) == len(set(sets))


@pytest.mark.parametrize(
    "policy", [TieBreakPolicy(), TieBreakPolicy("random", 1)], ids=["det", "rng"]
)
def test_each_state_is_scored_once(karate, monkeypatch, policy):
    """No node's sigma delta is computed twice without a move or recompute in
    between, and cached deltas make most scores free.

    best_add and remove_scores recompute deltas inline: each stale delta they
    fill counts as one computation, and a cached one they replace as a repeat.
    """
    computed, repeats, evaluations, scores = set(), [], [], []

    def count(kind, i):
        if (kind, i) in computed:
            repeats.append((kind, karate.labels[i]))
        computed.add((kind, i))
        evaluations.append(i)

    def counted(kind, method):
        def wrapper(state, i):
            count(kind, i)
            return method(state, i)

        return wrapper

    def best_add(method):
        def wrapper(state):
            before = {i: state.delta[i] for i in state.frontier}
            best, tied = method(state)
            for i, d in before.items():
                if d is None:
                    count("add", i)
                elif state.delta[i] is not d:  # a cached delta computed again
                    repeats.append(("add", karate.labels[i]))
            scores.extend(before)
            return best, tied

        return wrapper

    def remove_scores(method):
        def wrapper(state):
            before = {i: state.delta[i] for i in state.members}
            out = method(state)
            for _, i in out:
                if before[i] is None:
                    count("remove", i)
                elif state.delta[i] is not before[i]:  # a cached delta computed again
                    repeats.append(("remove", karate.labels[i]))
            scores.extend(out)
            return out

        return wrapper

    def clearing(method):
        def wrapper(state, *args):
            computed.clear()
            return method(state, *args)

        return wrapper

    monkeypatch.setattr(SubgraphState, "_add_delta", counted("add", SubgraphState._add_delta))
    monkeypatch.setattr(SubgraphState, "_remove_delta", counted("remove", SubgraphState._remove_delta))
    monkeypatch.setattr(SubgraphState, "remove_scores", remove_scores(SubgraphState.remove_scores))
    monkeypatch.setattr(SubgraphState, "best_add", best_add(SubgraphState.best_add))
    for name in ("apply_add", "apply_remove", "recompute"):
        monkeypatch.setattr(SubgraphState, name, clearing(getattr(SubgraphState, name)))
    for link_id in range(karate.m):
        computed.clear()
        run_from_seed(karate, link_id, policy)
    assert evaluations
    assert not repeats
    assert len(evaluations) < len(scores)


def _reference_best_add(state):
    scores = _reference_add_scores(state)
    if not scores:
        return float("inf"), []
    best = min(scores)[0]
    return best, [x for delta, x in scores if delta <= best + MOVE_TOL]


def _reference_remove_scores(state):
    value = state.psi
    return [
        (after - value, x)
        for x in sorted(state.members)
        if (after := state.psi_after_remove(x)) is not None
    ]


@pytest.mark.parametrize(
    "policy", [TieBreakPolicy(), TieBreakPolicy("random", 4)], ids=["det", "rng"]
)
def test_cached_scoring_matches_a_reference_scorer(monkeypatch, policy):
    """Sweeps scored from cached deltas equal, float for float, sweeps that
    score every candidate afresh through the public psi_after_* methods, on
    every step: best additions and removals. Ranked escapes score through
    psi_after_add either way."""
    rng = random.Random(23)
    graphs = [random_connected_graph(rng, n, n) for n in (12, 18, 24)]
    graphs += [random_weighted_graph(rng, n, n) for n in (12, 18, 24)]
    cached = [run_all_seeds(g, policy) for g in graphs]
    monkeypatch.setattr(SubgraphState, "best_add", _reference_best_add)
    monkeypatch.setattr(SubgraphState, "remove_scores", _reference_remove_scores)
    for g, got in zip(graphs, cached):
        want = run_all_seeds(g, policy)
        assert got.trajectories == want.trajectories
        assert got.communities == want.communities


def test_tie_break_policy_validation():
    with pytest.raises(ValueError):
        TieBreakPolicy("sometimes")
    assert TieBreakPolicy().rng_for(3) is None
    rng_a = TieBreakPolicy("random", 1).rng_for(3)
    rng_b = TieBreakPolicy("random", 1).rng_for(3)
    assert rng_a.random() == rng_b.random()


def test_records_keep_their_value_semantics(karate, karate_result):
    """Equality, hashing, pickling, immutability and defaults of the five records."""
    communities = karate_result.communities
    dag = build_polyhierarchy(karate, communities, [f"C{i + 1}" for i in range(len(communities))])
    frozen = [TieBreakPolicy("random", 3), communities[0]]
    holding_lists = [karate_result.trajectories[0], karate_result, dag]
    for record in frozen + holding_lists:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    for record in frozen:
        assert hash(pickle.loads(pickle.dumps(record))) == hash(record)
    for record in holding_lists:
        with pytest.raises(TypeError):
            hash(record)
    assert communities[0] != communities[1]
    assert TieBreakPolicy() == TieBreakPolicy(mode="deterministic", rng_seed=0)
    assert TieBreakPolicy("random", 1) != TieBreakPolicy("random", 2)
    whole = Community(nodes=frozenset({0}), psi=0.0, boundary=frozenset())
    assert (whole.seed_count, whole.stability) == (0, None)
    run = Trajectory(0, (0, 1), [], [], frozenset({0, 1}), 0.0, True)
    assert run.failure is None


# large-fuzz graphs (spreads 1.9e11-8.4e11) on which random-policy sweeps
# used to record uncertified sets: a removal tie group straddled -MOVE_TOL
SPREAD_FUZZ_KS = (25, 95, 537, 587)


def test_random_small_graphs_terminate_and_certify():
    rng = random.Random(99)
    sweeps = []
    for trial in range(10):
        g = random_connected_graph(rng, rng.randrange(4, 14), rng.randrange(0, 10))
        sweeps.append((g, TieBreakPolicy("random", trial)))
    sweeps += [(fuzz_graph(k, 17, 40), TieBreakPolicy("random", k)) for k in SPREAD_FUZZ_KS]
    for g, policy in sweeps:
        res = run_all_seeds(g, policy)
        for traj in res.trajectories:
            assert traj.covers_graph
        for c in res.communities:
            assert verify_local_minimum(g, c.nodes)


def _corpus_graph(k):
    """Graph k of the kernel corpus: n = 10 + k nodes and n extra links,
    unit, weighted or spread-weighted (spread 1e9) as k % 3 is 0, 1 or 2."""
    rng, n = random.Random(k), 10 + k
    if k % 3 == 0:
        return random_connected_graph(rng, n, n)
    if k % 3 == 1:
        return random_weighted_graph(rng, n, n)
    return spread_weighted_graph(rng, n, n, 1.0, 1e9)


# sha256 of every trajectory row of run_all_seeds on the 24 corpus graphs,
# psi as float.hex: under the deterministic policy, and under
# TieBreakPolicy("random", k) on graph k. They pin every move, score and
# recorded float of the seed-run kernel: a change to one is a change of
# output, not a speed-up or a refactoring.
CORPUS_TRAJECTORY_SHA256 = {
    "det": "d93b64f270df3580ef1105c01a6e99db878a137f8ff619b41dc9b5bb4a8d8495",
    "rng": "c4310006ef412923e9add6e421099e7ff6064b9f9aafc33f41eb7fc88322e79a",
}


def _corpus_sha256(policy_for) -> str:
    h = hashlib.sha256()
    for k in range(24):
        g = _corpus_graph(k)
        for traj in run_all_seeds(g, policy_for(k)).trajectories:
            for _, action, node, value, size in traj.steps:
                h.update(f"{traj.link_id} {action} {node} {value.hex()} {size}\n".encode())
    return h.hexdigest()


def test_corpus_trajectories_keep_their_floats():
    assert _corpus_sha256(lambda k: TieBreakPolicy()) == CORPUS_TRAJECTORY_SHA256["det"]


def test_corpus_rng_trajectories_keep_their_floats():
    assert _corpus_sha256(lambda k: TieBreakPolicy("random", k)) == CORPUS_TRAJECTORY_SHA256["rng"]
