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

Every step scores all candidate moves through SubgraphState.add_scores() and
remove_scores(). The state caches each node's sigma delta, so after a move
only the nodes within two hops of the moved node are rescored; every score is
the same float a fresh psi_after_add / psi_after_remove call gives.

Ties. Under the deterministic policy an addition takes the smallest node
label among the candidates within MOVE_TOL of the best, while removals are
tried in exact (delta, label) order, so a removal whose delta is lower by
less than MOVE_TOL wins over a smaller label. Under the random policy an
addition is drawn uniformly from the same tie set, and removals are
shuffled within groups whose deltas lie within MOVE_TOL of the group's
first. Revisiting an already-recorded minimum escalates the escape move to
the next-ranked candidate. A run that cannot make progress stops after
max(10 * n, 100) escape phases: its Trajectory keeps every step and minimum
so far, ends at its last settled set and carries a failure message.

Phase cache. Runs from different seeds fall into the same hollows and then
replay the same escapes. A run settles with recompute(), after which the
state depends on the settled node set K alone, so under the deterministic
policy the phase that follows (the escape and the descent and pruning into
the next settled set) depends only on K and the escape rank, the run's
earlier visit count for K. run_all_seeds therefore shares one dict per
sweep (per worker under jobs > 1) mapping (K, rank) to that phase: its step
rows without step numbers, the next settled set, its exact psi and whether
its frontier is empty. A run replays a cached phase with its own step numbers
and computes and stores a missing one, first rebuilding the state at K if a
replayed phase left it elsewhere. Visits, records and the phase budget are
kept per run either way, so a cached trajectory equals the uncached one,
float for float.

The random policy draws from the run's generator only to break a tie of two
or more candidates, and ties are a function of the state. So a phase that
drew nothing from (K, rank) in one run draws nothing in any run, and leaves
its generator where it found it: such a phase is stored and replayed as
under the deterministic policy. A phase that drew is never stored; every run
that reaches it computes it with its own generator.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .graph import Community, Graph, Record, boundary_nodes, induced_links, is_connected, minimum_sort_key
from .psi import MOVE_TOL, SubgraphState, psi

__all__ = [
    "TieBreakPolicy",
    "Trajectory",
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
        return random.Random(f"{self.rng_seed}:{link_id}")


class Trajectory(Record):
    """Move log of one seed run.

    steps holds (step, action, node, psi, size) with action one of
    "add", "remove", "record-minimum"; node is None on record rows.
    minima lists recorded node sets in order of first discovery. failure is
    None, or the message of a run that exhausted its phase budget.
    """

    __slots__ = ("link_id", "seed", "steps", "minima", "final_nodes", "final_psi", "covers_graph", "failure")

    def __init__(
        self,
        link_id: int,
        seed: tuple[int, int],
        steps: list[tuple[int, str, int | None, float, int]],
        minima: list[frozenset[int]],
        final_nodes: frozenset[int],
        final_psi: float,
        covers_graph: bool,
        failure: str | None = None,
    ):
        self.link_id = link_id
        self.seed = seed
        self.steps = steps
        self.minima = minima
        self.final_nodes = final_nodes
        self.final_psi = final_psi
        self.covers_graph = covers_graph
        self.failure = failure


# A cached phase: (rows without step numbers, next settled set, its psi, frontier empty).
_Phase = tuple[list[tuple[str, int | None, float, int]], frozenset[int], float, bool]


class DetectionResult(Record):
    """Aggregated outcome of running every seed link."""

    __slots__ = ("communities", "trajectories", "histogram")

    def __init__(
        self,
        communities: list[Community],
        trajectories: list[Trajectory],
        histogram: dict[int, int] | None = None,
    ):
        self.communities = communities
        self.trajectories = trajectories
        self.histogram = {} if histogram is None else histogram


def _select(
    g: Graph, cands: list[tuple[float, int]], rng: random.Random | None, rank: int = 0
) -> tuple[float, int]:
    """Pick a (delta, node) candidate from a pre-scored list.

    rank 0 takes the best, ties within MOVE_TOL broken per policy; a higher
    rank takes that place in the (delta, label) order, clamped to the last.
    """
    if rank:
        ordered = sorted(cands, key=lambda c: (c[0], g.rank[c[1]]))
        return ordered[min(rank, len(ordered) - 1)]
    best = min(cands)[0]
    tied = [c for c in cands if c[0] <= best + MOVE_TOL]
    if rng is not None and len(tied) > 1:
        return tied[rng.randrange(len(tied))]
    return min(tied, key=lambda c: g.rank[c[1]])


def _downhill(cands: list[tuple[float, int]]) -> bool:
    return bool(cands) and min(cands)[0] < -MOVE_TOL


def _removal_order(state: SubgraphState, rng: random.Random | None) -> list[tuple[float, int]]:
    """Removal candidates most-downhill first; ties shuffled or label-ordered."""
    cands = state.remove_scores()
    if rng is None:
        cands.sort(key=lambda c: (c[0], state.g.rank[c[1]]))
        return cands
    cands.sort(key=lambda c: c[0])  # stable: keeps index order inside tie groups
    ordered: list[tuple[float, int]] = []
    i = 0
    while i < len(cands):
        j = i
        while j < len(cands) and cands[j][0] <= cands[i][0] + MOVE_TOL:
            j += 1
        group = cands[i:j]
        rng.shuffle(group)
        ordered.extend(group)
        i = j
    return ordered


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
        choice = None
        for delta, x in _removal_order(state, rng):
            if delta >= -MOVE_TOL:
                break
            if is_connected(state.g, state.members - {x}):
                choice = x
                break
        if choice is None:
            return removed
        state.apply_remove(choice)
        removed.append(choice)
        if on_move is not None:
            on_move("remove", choice)


def run_from_seed(
    g: Graph,
    link_id: int,
    policy: TieBreakPolicy | None = None,
    cache: dict[tuple[frozenset[int], int], _Phase] | None = None,
) -> Trajectory:
    """Run the full descent/prune/escape search from one seed link.

    A run that exhausts its phase budget returns like any other, with the
    budget message in failure (see the module docstring).

    cands holds the current state's addition scores and is rebuilt after
    every add, removing prune and recompute; each rebuild recomputes only
    the deltas those moves made stale.
    cache, shared by the runs of one sweep over g, maps (settled set, escape
    rank) to the phase that follows (see the module docstring); under the
    random policy only phases that drew nothing from the run's generator are
    stored.
    """
    policy = policy or TieBreakPolicy()
    rng = policy.rng_for(link_id)
    u, v = g.link_ends[link_id]
    state = SubgraphState(g, {u, v})
    steps: list[tuple[int, str, int | None, float, int]] = []
    minima: list[frozenset[int]] = []
    visits: dict[frozenset[int], int] = {}
    phases = 0
    max_phases = max(10 * g.n, 100)

    def log(action, node):
        steps.append((len(steps) + 1, action, node, state.psi, len(state.members)))

    def add(cands, rank=0):
        _, x = _select(g, cands, rng, rank)
        state.apply_add(x)
        log("add", x)
        return state.add_scores()

    def settle(cands) -> tuple[frozenset[int], float, bool]:
        """Descend, prune, re-descend; return the settled set, its exact psi
        and whether its frontier is empty."""
        while True:
            while _downhill(cands):
                cands = add(cands)
            if not prune(state, rng, on_move=log):
                break
            cands = state.add_scores()
            if not _downhill(cands):
                break
        exact = state.recompute()  # recorded values never carry incremental drift
        return state.nodes(), exact, not state.frontier

    key, exact, done = settle(state.add_scores())
    failure = None
    while True:
        seen = visits.get(key, 0)
        visits[key] = seen + 1
        if seen == 0 and exact > 0.0:
            minima.append(key)
            steps.append((len(steps) + 1, "record-minimum", None, exact, len(key)))
        if done:
            break
        phases += 1
        if phases > max_phases:
            failure = f"seed {g.link_label_pair(link_id)}: no progress after {phases} phases"
            break
        phase = cache.get((key, seen)) if cache is not None else None
        if phase is not None:
            rows, key, exact, done = phase
            steps.extend((n, *row) for n, row in enumerate(rows, len(steps) + 1))
            continue
        if state.members != key:
            state = SubgraphState(g, key)  # a cached phase left the live state behind
        start = len(steps)
        before = rng.getstate() if rng is not None else None
        # climb out of the hollow, then fall into the next one
        cands = add(state.add_scores(), rank=seen)
        while cands and not _downhill(cands):
            cands = add(cands)
        settled = settle(cands)
        # a phase that broke a tie with a draw may go another way in another run
        if cache is not None and (rng is None or rng.getstate() == before):
            cache[key, seen] = ([row[1:] for row in steps[start:]], *settled)
        key, exact, done = settled
    return Trajectory(
        link_id=link_id,
        seed=(u, v),
        steps=steps,
        minima=minima,
        final_nodes=key,
        final_psi=exact,
        covers_graph=len(key) == g.n,
        failure=failure,
    )


_WORKER: dict = {}


def _init_worker(g: Graph, policy: TieBreakPolicy):
    _WORKER["g"] = g
    _WORKER["policy"] = policy
    _WORKER["cache"] = {}


def _run_link(link_id: int) -> Trajectory:
    return run_from_seed(_WORKER["g"], link_id, _WORKER["policy"], _WORKER["cache"])


def run_all_seeds(
    g: Graph, policy: TieBreakPolicy | None = None, jobs: int = 1
) -> DetectionResult:
    """Run every link as a seed and merge the recorded minima.

    Minima are deduplicated by exact node set; seed_count is the number of
    runs, failed ones included, that recorded each one. The whole-graph
    ground state is never a community. On a disconnected graph each run
    stays inside its seed's component. Result order and content do not
    depend on jobs.
    """
    policy = policy or TieBreakPolicy()
    # the pool starts every worker it is given, so never more than there are seeds
    workers = min(jobs, g.m)
    if workers > 1:
        # imported here: concurrent.futures costs every --jobs 1 process its start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(g, policy)
        ) as pool:
            trajectories = list(
                pool.map(_run_link, range(g.m), chunksize=max(1, g.m // (4 * workers)))
            )
    else:
        cache: dict[tuple[frozenset[int], int], _Phase] = {}
        trajectories = [run_from_seed(g, lid, policy, cache) for lid in range(g.m)]
    return merge_trajectories(g, trajectories)


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
                links=frozenset(induced_links(g, nodes)),
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
