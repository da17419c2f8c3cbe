"""Greedy search for local minima of the normalised node cut.

Each run starts from one seed link and alternates three phases until the
seed's whole component is covered:

  descent  add the external neighbor giving the largest cut reduction, while
           any reduction exists;
  pruning  once no addition helps, repeatedly remove the member whose
           exclusion most reduces the cut, skipping removals that would
           disconnect the subgraph or leave it without links; if pruning
           freed up a downhill addition, descend again;
  escape   at a local minimum (recorded), add the neighbor with the smallest
           cut increase, repeating until some addition is downhill again.

Every addition and every downhill test reads SubgraphState.best_add(), one
unsorted pass over the frontier that returns the best score and its tie set;
a revisit's ranked escape sorts psi_after_add() scores, and pruning
remove_scores(). The state caches each node's sigma delta, so after a move
only the nodes within two hops of the moved node are rescored; every score
is the same float a fresh psi_after_add / psi_after_remove call gives.

Ties. Under the deterministic policy an addition takes the smallest node
label among the candidates within MOVE_TOL of the best, while the downhill
removals, delta < -MOVE_TOL, are tried in exact (delta, label) order, so a
removal whose delta is lower by less than MOVE_TOL wins over a smaller
label. Under the random policy an addition is drawn uniformly from the same
tie set, and the same downhill removals are shuffled within groups whose
deltas lie within MOVE_TOL of the group's first; no other removal is
ordered or drawn for. Revisiting a recorded minimum escalates the escape
move to the next-ranked candidate, and each visit past the last rank adds
one more best addition, so every escape makes progress. A run stops after
max(10 * n, 100) escape phases, a backstop: its Trajectory keeps every step
and minimum so far, ends at its last settled set and carries a failure message.

Phase cache. Runs from different seeds fall into the same hollows and then
replay the same escapes. A run settles with recompute(), after which its
sums, and so every score, depend on the settled node set K alone, so under
the deterministic policy the phase that follows (the escape and the descent
and pruning into the next settled set) depends only on K and the escape
rank, the run's earlier visit count for K. run_all_seeds therefore shares
one dict per sweep mapping (K, rank) to that phase: its step rows without
step numbers, the next settled set, its exact psi and whether its frontier
is empty. A run replays a cached phase by chaining the cache's row list into
its Steps, not a copy, and computes and stores a missing one, first
rebuilding the state at K if a replayed phase left it elsewhere. Visits,
records and the phase budget are kept per run either way, so a cached
trajectory equals the uncached one, float for float.

Descent memo. The phase cache cannot share a run's first descent, from the
seed link, nor a descent in a phase it has not stored, yet on unit weights
most descents soon step onto a state an earlier descent passed through.
With unit weights every in_w, k_in and link count is an integer-valued
float, so they, the frontier and every cached delta are exact functions of
the member set whatever moves led to it; only sigma carries the rounding of
its history. So the state after a move of a descent, keyed by the kind of
that move (after an add the run tests additions first, after a removal it
goes on pruning), the member set as an int bitmask and sigma, fixes the
rest of the descent float for float. run_all_seeds shares one such memo per
sweep: a descent that reaches a stored state appends the rest of the stored
descent's rows (the same row tuples) and takes its settled set, exact psi
and frontier flag, and the run rebuilds its state at that set before its
next computed phase. On weighted graphs in_w depends on the order of the sums that made it, and an
in_w in the key would cost more than the hits save, so the memo is neither
read nor filled there. The sweep also interns settled sets, so every run
keeps the same object for the same set.

The random policy draws from the run's generator only to break a tie of two
or more candidates, and ties are a function of the state. So a phase that
drew nothing from (K, rank) in one run draws nothing in any run, and leaves
its generator where it found it: such a phase is stored and replayed as
under the deterministic policy. A phase that drew is never stored; every run
that reaches it computes it with its own generator. Likewise a descent's
state enters the memo only if nothing was drawn from it to the end of the
descent. The generator counts its draws, so a run tells either case from
two counts.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Sequence

from .graph import Community, Graph, boundary_nodes, is_connected, minimum_sort_key
from .psi import MOVE_TOL, SubgraphState, psi

__all__ = [
    "TieBreakPolicy",
    "Trajectory",
    "Steps",
    "DetectionResult",
    "prune",
    "run_from_seed",
    "run_all_seeds",
    "merge_trajectories",
]


class TieBreakPolicy(namedtuple("TieBreakPolicy", "mode rng_seed")):
    """How tied moves are resolved; deterministic mode ignores rng_seed.

    mode is "deterministic" or "random"; any other mode raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, mode: str = "deterministic", rng_seed: int = 0):
        if mode not in ("deterministic", "random"):
            raise ValueError(f"unknown tie-break mode {mode!r}")
        return super().__new__(cls, mode, rng_seed)

    def rng_for(self, link_id: int) -> random.Random | None:
        """Per-seed-link generator, independent of run scheduling."""
        if self.mode == "deterministic":
            return None
        return _CountingRandom(f"{self.rng_seed}:{link_id}")


class _CountingRandom(random.Random):
    """A run's tie-break generator that counts its draws: the calls of the
    two methods greedy breaks ties with."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)

    def shuffle(self, x):
        self.draws += 1
        super().shuffle(x)


class Trajectory(
    namedtuple("Trajectory", "link_id seed steps minima final_nodes final_psi covers_graph failure", defaults=(None,))
):
    """Move log of one seed run.

    seed is the (u, v) node pair of link link_id. steps holds (step, action,
    node, psi, size) with action one of "add", "remove", "record-minimum";
    node is None on record rows. A run's steps are a Steps chain. minima
    lists recorded node sets in order of first discovery. The run ends at
    final_nodes with cut value final_psi; covers_graph is whether that is
    every node. failure is None, or the message of a run that exhausted its
    phase budget.
    """

    __slots__ = ()


# A step row without its step number: (action, node, psi, size).
_Row = tuple[str, int | None, float, int]
# A cached phase: (its rows, next settled set, its psi, frontier empty).
_Phase = tuple[list[_Row], frozenset[int], float, bool]
# A descent, as the descent memo keeps it: (the rows it was logged in, their
# count at its end, its settled set, that set's psi, frontier empty). A memo
# entry is (descent, row count at the state): the rest is rows[at:count].
_Descent = tuple[list[_Row], int, frozenset[int], float, bool]


class _Sweep(namedtuple("_Sweep", "cache memo interned")):
    """The tables the runs of one sweep over a graph share: the phase cache,
    mapping (settled set, escape rank) to a _Phase; the descent memo, mapping
    (kind of the last move, member bitmask, sigma) to (a _Descent, the row
    count at that state); and the intern table, mapping each settled set to
    the one object of it that every run keeps."""

    __slots__ = ()


class Steps(Sequence):
    """Read-only (step, action, node, psi, size) rows of one run, numbered
    in order over chain, a list of row lists without step numbers.

    The chain holds the run's own rows and, for each phase the run replayed,
    the phase cache's own list, so runs share the rows of common phases.
    Equality is by rows, against another Steps or a plain list.
    """

    __slots__ = ("chain", "_len")

    def __init__(self, chain: list[list[_Row]]):
        self.chain = chain
        self._len = sum(map(len, chain))

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        step = 0
        for rows in self.chain:
            for row in rows:
                step += 1
                yield (step, *row)

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other):
        if isinstance(other, (Steps, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Steps({list(self)!r})"


class DetectionResult(namedtuple("DetectionResult", "communities trajectories histogram")):
    """Aggregated outcome of running every seed link: the merged communities,
    one Trajectory per seed link, and how many runs recorded each number of minima."""

    __slots__ = ()


def _select(g: Graph, tied: list[int], rng: random.Random | None) -> int:
    """The best addition among the tie set of best_add (node order): its one
    node, else a draw from the run's generator, else the smallest label."""
    if len(tied) == 1:
        return tied[0]
    if rng is not None:
        return tied[rng.randrange(len(tied))]
    return min(tied, key=g.rank.__getitem__)


def _ranked(state: SubgraphState, rank: int) -> int:
    """The addition at place rank of the (delta, label) order, clamped to the last."""
    rank_of, value = state.g.rank, state.psi
    ordered = sorted((state.psi_after_add(x) - value, rank_of[x], x) for x in state.frontier)
    return ordered[min(rank, len(ordered) - 1)][2]


def _removal_order(state: SubgraphState, rng: random.Random | None) -> list[tuple[float, int]]:
    """The downhill removals, delta < -MOVE_TOL, most-downhill first, as
    (delta, node): the only removals prune reads.

    They come in (delta, label) order. Under the random policy each tie
    group of two or more, removals whose deltas lie within MOVE_TOL of the
    group's first, is then shuffled, so every draw permutes removals that
    prune may take.
    """
    rank = state.g.rank
    cands = [c for c in state.remove_scores() if c[0] < -MOVE_TOL]
    cands.sort(key=lambda c: (c[0], rank[c[1]]))
    if rng is None:
        return cands
    i = 0
    while i < len(cands):
        j = i + 1
        while j < len(cands) and cands[j][0] <= cands[i][0] + MOVE_TOL:
            j += 1
        if j - i > 1:  # shuffling one candidate draws nothing
            group = cands[i:j]
            rng.shuffle(group)
            cands[i:j] = group
        i = j
    return cands


def prune(
    state: SubgraphState,
    rng: random.Random | None = None,
    on_move=None,
) -> list[int]:
    """Remove members while some connectivity-preserving removal is downhill.

    Call only when no addition is downhill. Returns removed nodes in order.
    """
    removed = []
    while True:
        legal = (x for _, x in _removal_order(state, rng) if is_connected(state.g, state.members - {x}))
        choice = next(legal, None)
        if choice is None:
            return removed
        state.apply_remove(choice)
        removed.append(choice)
        if on_move is not None:
            on_move("remove", choice)


def _phase_budget(g: Graph) -> int:  # escape phases before a run stops as failed
    return max(10 * g.n, 100)


class _Replay(Exception):
    """Raised when a descent reaches a state the descent memo holds; args[0]
    is that state's entry."""


def run_from_seed(
    g: Graph,
    link_id: int,
    policy: TieBreakPolicy | None = None,
    sweep: _Sweep | None = None,
) -> Trajectory:
    """Run the full descent/prune/escape search from one seed link.

    A run that exhausts its phase budget returns like any other, with the
    budget message in failure (see the module docstring).

    sweep holds the tables that the runs of one sweep over g share (see the
    module docstring); without one the run gets fresh tables. A run never
    reads a phase it stored: the rank in the key is the set's earlier visit
    count. It may read a memo entry it stored, but an entry fixes the rest
    of its descent float for float, whoever stored it. So a run with fresh
    tables runs as if it shared nothing.
    Under the random policy only phases that drew nothing from the run's
    generator are stored; the memo is read and filled only on a unit-weight g.
    """
    policy = policy or TieBreakPolicy()
    cache, memo, interned = sweep or _Sweep({}, {}, {})
    rng = policy.rng_for(link_id)
    u, v = g.link_ends[link_id]
    state = SubgraphState(g, {u, v})
    own: list[_Row] = []  # the rows this run logs since it last chained a list
    chain: list[list[_Row]] = []
    minima: list[frozenset[int]] = []
    visits: dict[frozenset[int], int] = {}
    phases = 0
    max_phases = _phase_budget(g)
    trail = None  # (memo key, row count, draws so far) after each move of a descent
    mask = 0  # the members as a bitmask, kept while trail is

    def drawn() -> int:
        return 0 if rng is None else rng.draws

    def log(action, node):
        nonlocal mask
        own.append((action, node, state.psi, len(state.members)))
        if trail is not None:
            mask ^= 1 << node
            key = (action, mask, state.sigma)
            entry = memo.get(key)
            if entry is not None:
                raise _Replay(entry)
            trail.append((key, len(own), drawn()))

    def add(x):
        """Add x and score the additions after it, as best_add's (delta, tie set)."""
        state.apply_add(x)
        log("add", x)
        return state.best_add()

    def settle(best) -> tuple[frozenset[int], float, bool]:
        """Descend, prune, re-descend; return the settled set, its exact psi
        and whether its frontier is empty; on unit weights, through the memo."""
        nonlocal state, trail, mask
        if g.unit_weighted:
            trail = []
            mask = sum(1 << i for i in state.members)
        try:
            while True:
                while best[0] < -MOVE_TOL:
                    best = add(_select(g, best[1], rng))
                if not prune(state, rng, on_move=log):
                    break
                best = state.best_add()
                if not best[0] < -MOVE_TOL:
                    break
            exact = state.recompute()  # recorded values never carry incremental drift
            nodes = state.nodes()
            settled = interned.setdefault(nodes, nodes), exact, not state.frontier
        except _Replay as replay:
            descent, at = replay.args[0]
            own.extend(descent[0][at : descent[1]])
            settled = descent[2:]
            state = None  # the live state stopped short of the settled set
        if trail:
            descent = (own, len(own), *settled)
            last = drawn()
            for state_key, at, draws in trail:
                if draws == last:  # nothing was drawn from this state on
                    memo[state_key] = (descent, at)
        trail = None
        return settled

    key, exact, done = settle(state.best_add())
    failure = None
    while True:
        seen = visits.get(key, 0)
        visits[key] = seen + 1
        if seen == 0 and exact > 0.0:
            minima.append(key)
            own.append(("record-minimum", None, exact, len(key)))
        if done:
            break
        phases += 1
        if phases > max_phases:
            failure = f"seed {g.link_label_pair(link_id)}: no progress after {phases} phases"
            break
        if own:  # the phase's rows get a list of their own, which the cache may share
            chain.append(own)
            own = []
        phase = cache.get((key, seen))
        if phase is not None:
            rows, key, exact, done = phase
            chain.append(rows)
            continue
        if state is None or state.members != key:
            state = SubgraphState(g, key)  # a replay left the live state behind
        before = drawn()
        # climb out of the hollow, then fall into the next one
        width = len(state.frontier)
        best = add(_ranked(state, seen) if seen else _select(g, state.best_add()[1], rng))
        for _ in range(seen - (width - 1)):  # visits past the last rank force further adds
            best = add(_select(g, best[1], rng)) if best[1] else best
        while best[1] and not best[0] < -MOVE_TOL:
            best = add(_select(g, best[1], rng))
        settled = settle(best)
        # a phase that broke a tie with a draw may go another way in another run
        if drawn() == before:
            cache[key, seen] = (own, *settled)
            chain.append(own)
            own = []
        key, exact, done = settled
    if own:
        chain.append(own)
    return Trajectory(
        link_id=link_id,
        seed=(u, v),
        steps=Steps(chain),
        minima=minima,
        final_nodes=key,
        final_psi=exact,
        covers_graph=len(key) == g.n,
        failure=failure,
    )


def run_all_seeds(
    g: Graph, policy: TieBreakPolicy | None = None, jobs: int = 1
) -> DetectionResult:
    """Run every link as a seed, sharing one phase cache, descent memo and
    settled-set intern table, and merge the recorded minima.

    Minima are deduplicated by exact node set; seed_count is the number of
    runs, failed ones included, that recorded each one. The whole-graph
    ground state is never a community. On a disconnected graph each run
    stays inside its seed's component. jobs is accepted for compatibility
    and has no effect: every sweep runs in this process.
    """
    policy = policy or TieBreakPolicy()
    sweep = _Sweep({}, {}, {})
    return merge_trajectories(g, [run_from_seed(g, lid, policy, sweep) for lid in range(g.m)])


def merge_trajectories(g: Graph, trajectories: list[Trajectory]) -> DetectionResult:
    """Deduplicate recorded minima by node set and derive community records.

    A failed run's minima count like any other's. Communities come in
    minimum_sort_key order. A community's stability is its shortest Jaccard
    distance, (|A u B| - |A n B|) / |A u B|, to any community with a
    strictly lower cut value, or None when there is none.
    """
    counts: dict[frozenset[int], int] = {}
    for traj in trajectories:
        for nodes in traj.minima:
            counts[nodes] = counts.get(nodes, 0) + 1
    scored = sorted(
        ((psi(g, nodes), nodes) for nodes in counts), key=lambda p: minimum_sort_key(g, *p)
    )

    # node sets as int bitsets; the communities of strictly lower psi are
    # the prefix of scored before the first one whose psi equals value
    masks = [sum(1 << i for i in nodes) for _, nodes in scored]
    communities: list[Community] = []
    lower = 0
    for (value, nodes), mask in zip(scored, masks):
        while scored[lower][0] < value:
            lower += 1
        # |A ^ B| is the integer |A u B| - |A n B|
        distances = [(mask ^ m).bit_count() / (mask | m).bit_count() for m in masks[:lower]]
        communities.append(
            Community(
                nodes=nodes,
                psi=value,
                boundary=frozenset(boundary_nodes(g, nodes)),
                seed_count=counts[nodes],
                stability=min(distances, default=None),
            )
        )

    histogram: dict[int, int] = {}
    for traj in trajectories:
        histogram[len(traj.minima)] = histogram.get(len(traj.minima), 0) + 1
    return DetectionResult(communities=communities, trajectories=trajectories, histogram=histogram)
