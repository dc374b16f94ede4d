"""Retweet and follower networks, connected components, and two-way bisection.

The follow graph is held once, over one user table: ``users`` is a sorted
tuple of distinct names and user ``k`` is ``users[k]``, so ids ascend with
the names they stand for. The graph is a compressed sparse row (CSR)
layout keyed by followee: the followers of user ``j`` are the ascending,
distinct ids ``follower_idx[follower_ptr[j]:follower_ptr[j + 1]]``. Exposure
ledgers and the simulator work on these ids; a loop over ids in ascending
order visits users in sorted-name order, which keeps output bytes equal to
those of code that sorts names.

The bisection is a self-contained multilevel partitioner: heavy-edge-matching
coarsening, greedy initial growing, and Fiduccia-Mattheyses-style refinement
with a balance constraint. It is deterministic for a fixed seed.

Each level is refined by one routine, ``_refine``. A pass scans the gains
and the cut once, moves nodes off a side over the balance cap, then makes FM
moves; rebalancing and FM share one move rule. Growing and each move pick
the next node from a min-heap keyed ``(-gain, v)``: among the admissible
nodes of maximal gain (or attachment), the lowest index, the node a full
scan would pick. The output bytes depend on that tie-break. A changed gain
or side pushes a fresh entry, and an entry whose node changed sides, got
locked or no longer has that gain is dropped when it surfaces. A pass keeps
one heap per side; FM skips a side that no node may leave, and sets aside
the entries above a side's balance cap while it looks for that side's best
admissible entry. A move then costs O(deg log m) amortized instead of a
scan of all nodes.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .csvio import read_csv
from .ingest import Cascade


@dataclass(frozen=True)
class RetweetNetwork:
    """Undirected co-retweet graph: one edge per user pair with any retweet.

    Node ``k`` is ``nodes[k]``, a sorted tuple of distinct user ids into a
    sorted user table, so node ids ascend with the users' names; ``adj[k]``
    holds the neighbour node ids of node ``k``, ascending and never ``k``.
    """

    nodes: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(
        cls, pairs: Iterable[tuple[int, int]], nodes: Iterable[int] = ()
    ) -> "RetweetNetwork":
        """The network on the pairs' endpoints plus ``nodes``; a pair may come
        in either order and more than once, but never as a self-loop."""
        pairs = list(pairs)
        table = tuple(sorted({u for e in pairs for u in e}.union(nodes)))
        index = {u: k for k, u in enumerate(table)}
        rows: list[set[int]] = [set() for _ in table]
        for a, b in pairs:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            rows[index[a]].add(index[b])
            rows[index[b]].add(index[a])
        return cls(table, tuple(tuple(sorted(row)) for row in rows))

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as an ascending user pair, pairs ascending."""
        nodes = self.nodes
        return [(nodes[k], nodes[j]) for k, row in enumerate(self.adj) for j in row if j > k]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.adj)) // 2


def table_id(users: Sequence[str], name: str) -> int:
    """Id of ``name`` in a sorted user table; ValueError for any other name."""
    k = bisect_left(users, name)
    if k == len(users) or users[k] != name:
        raise ValueError(f"user {name!r} is not in the user table")
    return k


@dataclass(frozen=True, eq=False)
class FollowerNetwork:
    """Directed follow graph: a followee-keyed CSR over one sorted user table.

    An edge (follower, followee) means the follower subscribes to the
    followee; exposure travels followee -> follower, so the followers of a
    user are exactly the audience their tweets and retweets reach. User
    ``k`` is ``users[k]``; the followers of user ``j`` are the ids
    ``follower_idx[follower_ptr[j]:follower_ptr[j + 1]]``, ascending and
    distinct. Equality compares the table and both arrays by value.
    """

    users: tuple[str, ...]
    follower_ptr: np.ndarray = field(repr=False)
    follower_idx: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        users = self.users
        if any(a >= b for a, b in zip(users, users[1:])):
            raise ValueError("users must be sorted and distinct")
        if len(self.follower_ptr) != len(users) + 1:
            raise ValueError("follower_ptr needs one entry per user plus one")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FollowerNetwork):
            return NotImplemented
        return (
            self.users == other.users
            and np.array_equal(self.follower_ptr, other.follower_ptr)
            and np.array_equal(self.follower_idx, other.follower_idx)
        )

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[str, str]], universe: Iterable[str]
    ) -> tuple["FollowerNetwork", int]:
        """Build from (follower, followee) pairs; returns (net, dropped count).

        The table is the sorted universe. Self-loops and edges leaving the
        universe are dropped and counted; duplicate edges are merged without
        being counted.
        """
        edges = list(edges)
        users = tuple(sorted(universe))
        index = {u: k for k, u in enumerate(users)}
        pairs = np.array(
            [(index.get(a, -1), index.get(b, -1)) for a, b in edges], dtype=np.int64
        ).reshape(-1, 2)
        follower, followee = pairs[:, 0], pairs[:, 1]
        keep = (follower >= 0) & (followee >= 0) & (follower != followee)
        n = len(users)
        # followee-major keys sort by followee, then follower; keys are >= 0
        keys = np.sort(followee[keep] * n + follower[keep])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=ptr[1:])
        return cls(users, ptr, keys % n), len(edges) - int(keep.sum())

    @property
    def n_edges(self) -> int:
        return len(self.follower_idx)


@dataclass(frozen=True, eq=False)
class Bisection:
    """A two-way split of a retweet network: ``side[k]`` is node ``k``'s
    group, 0 or 1, with the cut size and the larger group's share."""

    side: np.ndarray
    cut_size: int
    balance: float


def build_retweet_network(cascades: Sequence[Cascade], eligible: np.ndarray) -> RetweetNetwork:
    """Undirected network over the eligible users appearing in the cascades,
    on ids into the user table the cascades are on, which ``eligible`` masks."""
    nodes: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for cascade in cascades:
        author = cascade.author
        retweeters = cascade.retweeters[eligible[cascade.retweeters]].tolist()
        nodes.update(retweeters)
        if author >= 0 and eligible[author]:
            nodes.add(author)
            pairs += [(author, u) for u in retweeters if u != author]
    return RetweetNetwork.from_edges(pairs, nodes)


def connected_components(net: RetweetNetwork) -> list[list[int]]:
    """The node ids of each component, components in order of smallest id."""
    seen = [False] * net.n_nodes
    components: list[list[int]] = []
    for start in range(net.n_nodes):
        if not seen[start]:
            seen[start] = True
            comp = [start]
            for u in comp:  # breadth first: comp grows while it is read
                for v in net.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
            components.append(comp)
    return components


def largest_component(net: RetweetNetwork) -> RetweetNetwork:
    """Induced subgraph on the largest component; ties by smallest member id."""
    keep = sorted(max(connected_components(net), key=len, default=[]))
    new_id = {k: i for i, k in enumerate(keep)}
    return RetweetNetwork(
        tuple(net.nodes[k] for k in keep),
        tuple(tuple(new_id[j] for j in net.adj[k]) for k in keep),
    )


def build_follower_network(
    path: str | Path, universe: Iterable[str]
) -> tuple[FollowerNetwork, int]:
    """Read an edge CSV with header ``follower,followee`` restricted to universe."""
    with read_csv(path) as (header, rows):
        if header is None or header[:2] != ["follower", "followee"]:
            raise ValueError(f"{path}: expected header 'follower,followee'")

        def pairs() -> Iterator[tuple[str, str]]:
            for row in rows:
                if len(row) < 2:
                    raise ValueError(f"{path}: short row {row!r}")
                yield row[0], row[1]

        return FollowerNetwork.from_edges(pairs(), universe)


# ---------------------------------------------------------------------------
# Multilevel bisection
# ---------------------------------------------------------------------------

_COARSE_TARGET = 24


def allowed_group_size(total_weight: int, balance_tol: float) -> int:
    """Largest admissible side weight: max of the tolerance cap and the
    minimum achievable for unit weights."""
    cap = int(total_weight * (0.5 + balance_tol) + 1e-9)
    return max(cap, (total_weight + 1) // 2)


def _match_heavy_edges(
    adj: list[dict[int, int]], rng: random.Random
) -> list[int]:
    """Heavy-edge matching; returns coarse id per node."""
    n = len(adj)
    order = list(range(n))
    rng.shuffle(order)
    mate = [-1] * n
    for v in order:
        if mate[v] != -1:
            continue
        best = -1
        best_w = 0
        for u, w in adj[v].items():
            if mate[u] == -1 and (w > best_w or (w == best_w and (best == -1 or u < best))):
                best, best_w = u, w
        if best != -1:
            mate[v] = best
            mate[best] = v
    coarse_id = [-1] * n
    nxt = 0
    for v in range(n):
        if coarse_id[v] != -1:
            continue
        coarse_id[v] = nxt
        if mate[v] != -1:
            coarse_id[mate[v]] = nxt
        nxt += 1
    return coarse_id


def _coarsen(
    adj: list[dict[int, int]], node_w: list[int], coarse_id: list[int]
) -> tuple[list[dict[int, int]], list[int]]:
    n_coarse = max(coarse_id) + 1
    c_adj: list[dict[int, int]] = [{} for _ in range(n_coarse)]
    c_w = [0] * n_coarse
    for v, cv in enumerate(coarse_id):
        c_w[cv] += node_w[v]
        for u, w in adj[v].items():
            cu = coarse_id[u]
            if cu != cv:
                c_adj[cv][cu] = c_adj[cv].get(cu, 0) + w
    return c_adj, c_w


def _grow_partition(
    adj: list[dict[int, int]],
    node_w: list[int],
    start: int,
    allowed: int,
) -> list[int]:
    """Greedy region growing from a start node toward half the total weight."""
    n = len(adj)
    total = sum(node_w)
    side = [1] * n
    side[start] = 0
    w_a = node_w[start]
    attach: dict[int, int] = dict(adj[start])
    heap = [(-a, u) for u, a in attach.items()]
    heapify(heap)
    while w_a < total // 2:
        while heap:
            a, best = heappop(heap)
            # w_a only grows: a node that breaks the cap now never fits again
            if attach.get(best) == -a and w_a + node_w[best] <= allowed:
                break
        else:
            break
        attach.pop(best)
        side[best] = 0
        w_a += node_w[best]
        for u, w in adj[best].items():
            if side[u] == 1:
                attach[u] = attach.get(u, 0) + w
                heappush(heap, (-attach[u], u))
    return side


def _gains(adj: list[dict[int, int]], side: list[int]) -> tuple[list[int], int]:
    """Each node's gain, how much the cut falls if it alone switches sides,
    and the cut, from one scan."""
    gains = []
    twice_cut = 0
    for v, nbrs in enumerate(adj):
        s = side[v]
        g = ext = 0
        for u, w in nbrs.items():
            if side[u] == s:
                g -= w
            else:
                g += w
                ext += w
        gains.append(g)
        twice_cut += ext
    return gains, twice_cut // 2


def _refine(
    adj: list[dict[int, int]],
    node_w: list[int],
    side: list[int],
    allowed: int,
) -> int:
    """Rebalance, then FM refinement: sequences of locked moves, keeping the
    best prefix, for at most 30 passes.

    While a side is over the balance cap, its max-gain node moves off it.
    Returns the final cut weight. The final state admits no single-node move
    that both respects the balance cap and strictly reduces the cut.
    """
    n = len(adj)
    min_w = min(node_w)
    for _ in range(30):
        gains, cut = _gains(adj, side)
        w_side = [0, 0]
        heaps: list[list[tuple[int, int]]] = [[], []]
        for v, s in enumerate(side):
            w_side[s] += node_w[v]
            heaps[s].append((-gains[v], v))
        for heap in heaps:
            heapify(heap)
        locked = [False] * n

        def move(v: int) -> None:
            """Switch v's side, keeping the weights, the cut and the unlocked
            nodes' gains and heap entries exact."""
            nonlocal cut
            s = side[v]
            side[v] = 1 - s
            w_side[s] -= node_w[v]
            w_side[1 - s] += node_w[v]
            cut -= gains[v]
            gains[v] = -gains[v]
            if not locked[v]:
                heappush(heaps[1 - s], (-gains[v], v))
            for u, w in adj[v].items():
                if not locked[u]:
                    gains[u] += 2 * w if side[u] == s else -2 * w
                    heappush(heaps[side[u]], (-gains[u], u))

        # only a first pass can start over the cap: FM moves keep to it
        while max(w_side) > allowed:
            heavy = 0 if w_side[0] >= w_side[1] else 1
            heap = heaps[heavy]
            g, v = heappop(heap)
            while side[v] != heavy or gains[v] != -g:
                g, v = heappop(heap)
            move(v)

        start = best_cut = cut
        moves: list[int] = []
        best_len = 0
        while True:
            pick = None
            for s in (0, 1):
                # a node v may leave side s iff node_w[v] <= cap
                cap = min(allowed - w_side[1 - s], w_side[s] - 1)
                if cap < min_w:
                    continue
                heap = heaps[s]
                aside = []
                while heap:
                    g, v = heap[0]
                    # a node the rebalance moved may leave a matching entry
                    if locked[v] or side[v] != s or gains[v] != -g:
                        heappop(heap)
                    elif node_w[v] > cap:
                        aside.append(heappop(heap))
                    else:
                        if pick is None or heap[0] < pick:
                            pick = heap[0]
                        break
                for entry in aside:
                    heappush(heap, entry)
            if pick is None:
                break
            v = pick[1]
            locked[v] = True
            moves.append(v)
            move(v)
            if cut < best_cut:
                best_cut = cut
                best_len = len(moves)
        for v in moves[best_len:]:
            side[v] = 1 - side[v]
        if best_cut >= start:
            break
    return best_cut


def bisect_partition(
    net: RetweetNetwork, balance_tol: float = 0.1, seed: int = 0
) -> Bisection:
    """Bisect a connected network into two groups with a near-minimal cut.

    Multilevel scheme: coarsen by heavy-edge matching, grow an initial
    region on the coarsest graph (several seeded starts), then rebalance and
    refine with FM passes at every level from the coarsest down. The finest
    level honors the balance cap ``allowed_group_size(n, balance_tol)``; the
    starts and the coarser levels take a cap one node weight looser. Group 0
    is the group holding the lexicographically smallest node id.
    """
    n = net.n_nodes
    if n < 2:
        raise ValueError("not bisectable")
    if len(connected_components(net)) != 1:
        raise ValueError("network must be connected; take largest_component first")
    adj = [dict.fromkeys(row, 1) for row in net.adj]

    rng = random.Random(seed)
    levels: list[tuple[list[dict[int, int]], list[int]]] = [(adj, [1] * n)]
    maps: list[list[int]] = []
    while len(levels[-1][0]) > _COARSE_TARGET:
        cur_adj, cur_w = levels[-1]
        coarse_id = _match_heavy_edges(cur_adj, rng)
        if max(coarse_id) + 1 > 0.95 * len(cur_adj):
            break
        maps.append(coarse_id)
        levels.append(_coarsen(cur_adj, cur_w, coarse_id))

    def cap(weights: list[int], strict: bool) -> int:
        """The balance cap, or one node weight looser when not strict."""
        total = sum(weights)
        allowed = allowed_group_size(total, balance_tol)
        return allowed if strict else max(allowed, total // 2 + max(weights))

    top = len(maps)
    c_adj, c_w = levels[top]
    n_c = len(c_adj)
    allowed_c = cap(c_w, strict=False)
    starts = list(range(n_c)) if n_c <= _COARSE_TARGET else rng.sample(range(n_c), 10)
    best_side = None
    best_cut = None
    for start in starts:
        side = _grow_partition(c_adj, c_w, start, allowed_c)
        if len(set(side)) < 2:
            continue
        cut = _refine(c_adj, c_w, side, allowed_c)
        if best_cut is None or cut < best_cut:
            best_cut = cut
            best_side = side
    if best_side is None:
        # degenerate coarse graph; split by index order
        best_side = [0 if i < n_c // 2 else 1 for i in range(n_c)]
    side = best_side

    for level in range(top, -1, -1):
        if level < top:
            side = [side[c] for c in maps[level]]
        level_adj, level_w = levels[level]
        allowed = cap(level_w, strict=level == 0)
        cut = _refine(level_adj, level_w, side, allowed)  # level 0's is the result's

    if side[0] == 1:
        side = [1 - s for s in side]
    balance = max(sum(side), n - sum(side)) / n
    return Bisection(np.array(side, dtype=np.int8), cut, balance)


def to_dot(net: RetweetNetwork, side: np.ndarray, users: Sequence[str]) -> str:
    """DOT serialization: node ``k`` is ``users[nodes[k]]``, colored by ``side[k]``."""
    colors = {0: "#e08214", 1: "#7fbf7b"}

    def quoted(u: str) -> str:
        return '"' + u.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph retweet_network {", "  node [style=filled];"]
    for u, g in zip(net.nodes, side.tolist()):
        lines.append(f'  {quoted(users[u])} [fillcolor="{colors[g]}"];')
    for a, b in net.edges():
        lines.append(f"  {quoted(users[a])} -- {quoted(users[b])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
