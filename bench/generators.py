"""Seeded graph generators for the benchmark corpus.

Both generators depend only on the standard library, so a seed gives the same
edge list on every Python installation:

* planted_overlapping: an unweighted graph with planted overlapping
  communities in the style of the LFR benchmark (Lancichinetti, Fortunato and
  Radicchi, arXiv:0805.4770): power-law degrees and community sizes, a mixing
  fraction mu of each node's links leaving its communities, and a set of
  nodes that belong to several communities;
* random_weighted: a random spanning tree plus extra random links with
  weights in [0.25, 2.25), the construction the test suite uses.

Every generated graph is simple (no self-loop, no repeated link) and
connected; both properties are checked before an edge list is returned.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

__all__ = [
    "GeneratedGraph",
    "planted_overlapping",
    "random_weighted",
    "sha256_text",
]


@dataclass(frozen=True)
class GeneratedGraph:
    """Edge-list text of one generated graph and the facts the benchmark records."""

    name: str
    text: str
    n: int
    m: int
    weighted: bool

    @property
    def sha256(self) -> str:
        return sha256_text(self.text)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _power_law_int(rng: random.Random, lo: int, hi: int, exponent: float) -> int:
    """Integer in [lo, hi] with P(k) proportional to k**-exponent (inverse transform)."""
    a = 1.0 - exponent
    u = rng.random()
    x = ((hi + 1) ** a - lo**a) * u + lo**a
    return min(hi, max(lo, int(x ** (1.0 / a))))


def _components(n: int, links: set[tuple[int, int]]) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in links:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j in nbrs[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _connect(rng: random.Random, n: int, links: set[tuple[int, int]]) -> None:
    """Join every component to the first one with a single random link."""
    comps = _components(n, links)
    for comp in comps[1:]:
        u = rng.choice(comps[0])
        v = rng.choice(comp)
        links.add((min(u, v), max(u, v)))


def _edge_text(links, weights=None) -> str:
    lines = []
    for u, v in sorted(links):
        pair = f"{u + 1} {v + 1}"
        lines.append(pair if weights is None else f"{pair} {weights[(u, v)]:.6f}")
    return "\n".join(lines) + "\n"


def _check_simple_connected(n: int, links: set[tuple[int, int]]) -> None:
    if any(u >= v for u, v in links):
        raise ValueError("generated link is a self-loop or not normalised")
    if len(_components(n, links)) != 1:
        raise ValueError("generated graph is disconnected")


def _community_sizes(rng, slots, cmin, cmax, tau2) -> list[int]:
    """Power-law sizes in [cmin, cmax] that sum exactly to slots."""
    while True:
        sizes = []
        while sum(sizes) < slots:
            sizes.append(_power_law_int(rng, cmin, cmax, tau2))
        excess = sum(sizes) - slots
        for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
            cut = min(excess, sizes[i] - cmin)
            sizes[i] -= cut
            excess -= cut
        if excess == 0:
            return sizes


def _memberships(rng, n, sizes, overlap_nodes, per_overlap):
    """Community ids per node; overlap nodes join per_overlap distinct communities."""
    order = list(range(n))
    rng.shuffle(order)
    for _ in range(100):
        capacity = list(sizes)
        member_of: list[list[int]] = [[] for _ in range(n)]
        ok = True
        for rank, node in enumerate(order):
            need = per_overlap if rank < overlap_nodes else 1
            open_ = [c for c in range(len(sizes)) if capacity[c] > 0]
            if len(open_) < need:
                ok = False
                break
            # largest remaining capacity first keeps the last nodes assignable
            open_.sort(key=lambda c: (-capacity[c], rng.random()))
            chosen = open_[:need] if rank < overlap_nodes else [rng.choice(open_[: max(1, len(open_) // 2)])]
            for c in chosen:
                capacity[c] -= 1
                member_of[node].append(c)
        if ok:
            return member_of
        rng.shuffle(order)
    raise ValueError("could not assign community memberships")


def _pair_stubs(rng, stubs, links, allowed) -> None:
    """Pair a shuffled stub list into new links; a stub with no allowed partner is dropped."""
    rng.shuffle(stubs)
    while stubs:
        u = stubs.pop()
        for idx in range(len(stubs) - 1, max(-1, len(stubs) - 50), -1):
            v = stubs[idx]
            key = (min(u, v), max(u, v))
            if u != v and key not in links and allowed(u, v):
                links.add(key)
                stubs.pop(idx)
                break


def planted_overlapping(
    seed: int | str,
    n: int,
    *,
    min_degree: int = 3,
    max_degree: int = 14,
    tau1: float = 2.5,
    mu: float = 0.2,
    min_community: int = 8,
    max_community: int = 24,
    tau2: float = 1.5,
    overlap_nodes: int | None = None,
    per_overlap: int = 2,
    name: str = "planted",
) -> GeneratedGraph:
    """LFR-style unweighted graph with planted overlapping communities.

    Degrees follow a power law with exponent tau1 on [min_degree, max_degree]
    and community sizes one with exponent tau2 on [min_community,
    max_community]. A share 1 - mu of each node's links is wired inside its
    communities (split evenly when it has several) and the rest between
    nodes with no community in common. overlap_nodes (default n // 10) nodes
    belong to per_overlap communities. Stubs that cannot be paired without a
    self-loop or repeated link are dropped, and components left apart are
    joined by one random link each.
    """
    rng = random.Random(f"planted:{seed}:{n}")
    if overlap_nodes is None:
        overlap_nodes = n // 10
    degrees = [_power_law_int(rng, min_degree, max_degree, tau1) for _ in range(n)]
    sizes = _community_sizes(
        rng, n + overlap_nodes * (per_overlap - 1), min_community, max_community, tau2
    )
    member_of = _memberships(rng, n, sizes, overlap_nodes, per_overlap)
    members: list[list[int]] = [[] for _ in sizes]
    for node, cs in enumerate(member_of):
        for c in cs:
            members[c].append(node)

    links: set[tuple[int, int]] = set()
    for c, nodes in enumerate(members):
        stubs = []
        for node in nodes:
            share = round((1.0 - mu) * degrees[node] / len(member_of[node]))
            stubs.extend([node] * min(share, len(nodes) - 1))
        _pair_stubs(rng, stubs, links, lambda u, v: True)

    internal = [0] * n
    for u, v in links:
        internal[u] += 1
        internal[v] += 1
    groups = [set(cs) for cs in member_of]
    stubs = []
    for node in range(n):
        stubs.extend([node] * max(0, degrees[node] - internal[node]))
    _pair_stubs(rng, stubs, links, lambda u, v: not (groups[u] & groups[v]))
    _connect(rng, n, links)
    _check_simple_connected(n, links)
    return GeneratedGraph(
        name=name,
        text=_edge_text(links),
        n=n,
        m=len(links),
        weighted=False,
    )


def random_weighted(seed: int | str, n: int, extra: int, name: str = "weighted") -> GeneratedGraph:
    """Random spanning tree on n nodes plus extra random links, weights in [0.25, 2.25)."""
    rng = random.Random(f"weighted:{seed}:{n}:{extra}")
    links: set[tuple[int, int]] = set()
    for i in range(1, n):
        links.add((rng.randrange(i), i))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in links]
    rng.shuffle(pairs)
    links.update(pairs[:extra])
    weights = {key: 0.25 + 2.0 * rng.random() for key in sorted(links)}
    _check_simple_connected(n, links)
    return GeneratedGraph(
        name=name, text=_edge_text(links, weights), n=n, m=len(links), weighted=True
    )
