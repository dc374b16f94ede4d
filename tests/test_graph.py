"""Network construction and bisection, checked against exhaustive oracles."""

import hashlib
import itertools
import re
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from echospread.csvio import write_csv
from echospread.graph import (
    FollowerNetwork,
    RetweetNetwork,
    _grow_partition,
    _refine,
    allowed_group_size,
    bisect_partition,
    build_retweet_network,
    connected_components,
    largest_component,
    to_dot,
)
from echospread.ingest import TweetRecord
from helpers import (
    StringCascade,
    follower_sets,
    followers_of,
    id_cascade,
    reference_build_retweet_network,
    reference_connected_components,
    reference_fm_refine,
    reference_from_edges,
    reference_grow_partition,
    reference_largest_component,
    reference_rebalance,
    reference_to_dot,
)


def net_from_pairs(pairs):
    return RetweetNetwork.from_edges(pairs)


def cascade(tweet_id, author, retweeters):
    """A cascade on names."""
    origin = TweetRecord(tweet_id, author, 0, "climate")
    rts = tuple(
        TweetRecord(f"{tweet_id}-r{i}", u, i + 1, "rt", retweet_of=tweet_id)
        for i, u in enumerate(retweeters)
    )
    return StringCascade(origin, rts)


def retweet_network(cascades, eligible):
    """``build_retweet_network`` on the string cascades put on the table of
    their users, with the users named in ``eligible`` eligible, and that table."""
    users = sorted({u for c in cascades for u in (c.origin.user_id, *c.retweeters())})
    mask = np.array([u in eligible for u in users], dtype=bool)
    return build_retweet_network([id_cascade(c, users) for c in cascades], mask), users


def named(net, users):
    """A network on ids into the table ``users``, with each id replaced by its name."""
    return RetweetNetwork(tuple(users[k] for k in net.nodes), net.adj)


def on_ids(net):
    """A network on names as the network on ids into its node table, ``net.nodes``."""
    return RetweetNetwork(tuple(range(net.n_nodes)), net.adj)


def groups_of(net, result):
    """Each node's group by name."""
    return dict(zip(net.nodes, result.side.tolist()))


def members(net, result, group):
    return {u for u, g in groups_of(net, result).items() if g == group}


def group_sizes(result):
    n1 = int(result.side.sum())
    return (len(result.side) - n1, n1)


def enumerate_min_cut(net, balance_tol):
    """Oracle: exhaustive scan of all admissible bisections."""
    nodes = sorted(net.nodes)
    n = len(nodes)
    allowed = allowed_group_size(n, balance_tol)
    best = None
    best_groups = []
    for size in range(n - allowed, allowed + 1):
        if size == 0 or size == n:
            continue
        for side0 in itertools.combinations(nodes, size):
            s0 = set(side0)
            cut = sum(1 for a, b in net.edges() if (a in s0) != (b in s0))
            if best is None or cut < best:
                best = cut
                best_groups = [s0]
            elif cut == best:
                best_groups.append(s0)
    return best, best_groups


def assert_locally_optimal(net, result, balance_tol):
    groups = groups_of(net, result)
    n = len(groups)
    allowed = allowed_group_size(n, balance_tol)
    adj = {u: [net.nodes[j] for j in row] for u, row in zip(net.nodes, net.adj)}
    sizes = [n - sum(groups.values()), sum(groups.values())]
    for u in sorted(groups):
        g = groups[u]
        if sizes[1 - g] + 1 > allowed or sizes[g] - 1 == 0:
            continue
        same = sum(1 for v in adj[u] if groups[v] == g)
        cross = len(adj[u]) - same
        assert cross <= same, f"moving {u} reduces the cut by {cross - same}"


class TestRetweetNetwork:
    def test_multiplicity_collapses_to_one_edge(self):
        cascades = [cascade("t1", "v", ["u", "u", "u"])]
        net = named(*retweet_network(cascades, {"u", "v"}))
        assert net.edges() == [("u", "v")]

    def test_mutual_retweets_single_edge(self):
        cascades = [cascade("t1", "u", ["v"]), cascade("t2", "v", ["u"])]
        net = named(*retweet_network(cascades, {"u", "v"}))
        assert net.edges() == [("u", "v")]

    def test_ineligible_users_excluded(self):
        cascades = [cascade("t1", "a", ["b", "c"])]
        net = named(*retweet_network(cascades, {"a", "b"}))
        assert net.nodes == ("a", "b")
        assert net.edges() == [("a", "b")]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            RetweetNetwork.from_edges([("a", "a")])

    def test_from_edges_takes_either_order_repeats_and_lone_nodes(self):
        net = RetweetNetwork.from_edges([("b", "a"), ("a", "b"), ("c", "a")], nodes=["d", "a"])
        assert net.nodes == ("a", "b", "c", "d")
        assert net.adj == ((1, 2), (0,), (0,), ())
        assert net.edges() == [("a", "b"), ("a", "c")]
        assert (net.n_nodes, net.n_edges) == (4, 2)
        assert net == RetweetNetwork.from_edges([("a", "c"), ("a", "b")], nodes=["d"])


# Names whose sorted order is not the order of first appearance ("B" < "a",
# "u10" < "u2"), and names DOT must escape.
NAMES = ["a", "b", "B", "u1", "u10", "u2", 'q"x', "s\\t", "sp ace"]


def csv_bytes(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "retweet_edges.csv"
        write_csv(path, ["a", "b"], rows)
        return path.read_bytes()


class TestRetweetNetworkReference:
    """The id network against the frozenset network in tests/helpers.py."""

    @given(
        spec=st.lists(
            st.tuples(st.sampled_from(NAMES), st.lists(st.sampled_from(NAMES), max_size=6)),
            max_size=12,
        ),
        eligible=st.sets(st.sampled_from(NAMES)),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_frozenset_network(self, spec, eligible):
        cascades = [cascade(f"t{i}", author, rts) for i, (author, rts) in enumerate(spec)]
        ids, users = retweet_network(cascades, eligible)
        net = named(ids, users)
        ref = reference_build_retweet_network(cascades, eligible)
        assert list(net.nodes) == sorted(ref.nodes)
        assert net.edges() == sorted(ref.edges)
        for k, row in enumerate(net.adj):
            assert list(row) == sorted(set(row)) and k not in row
        components = [{net.nodes[k] for k in c} for c in connected_components(net)]
        assert components == reference_connected_components(ref)
        comp, ref_comp = largest_component(net), reference_largest_component(ref)
        assert list(comp.nodes) == sorted(ref_comp.nodes)
        assert comp.edges() == sorted(ref_comp.edges)
        assert csv_bytes(comp.edges()) == csv_bytes(sorted(ref_comp.edges))
        if net.n_nodes >= 2:
            groups = {u: k % 2 for k, u in enumerate(net.nodes)}
            side = np.array([groups[u] for u in net.nodes], dtype=np.int8)
            comp_side = np.array([groups[u] for u in comp.nodes], dtype=np.int8)
            assert to_dot(ids, side, users) == reference_to_dot(ref, groups)
            assert to_dot(largest_component(ids), comp_side, users) == reference_to_dot(
                ref_comp, groups
            )


class TestLargestComponent:
    def test_picks_bigger_component(self):
        net = net_from_pairs(
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("x", "y"), ("y", "z")]
        )
        assert largest_component(net).nodes == tuple("abcde")

    def test_identity_on_connected(self):
        net = net_from_pairs([("a", "b"), ("b", "c")])
        assert largest_component(net) == net

    def test_tie_breaks_to_smallest_member(self):
        net = net_from_pairs([("m", "n"), ("a", "z")])
        assert largest_component(net).nodes == ("a", "z")

    def test_idempotent(self):
        net = net_from_pairs([("a", "b"), ("x", "y"), ("y", "z")])
        once = largest_component(net)
        assert largest_component(once) == once

    def test_empty_network(self):
        net = RetweetNetwork.from_edges([])
        assert largest_component(net) == net

    def test_components_cover_nodes(self):
        net = net_from_pairs([("a", "b"), ("x", "y")])
        comps = connected_components(net)
        assert [[net.nodes[k] for k in c] for c in comps] == [["a", "b"], ["x", "y"]]


class TestFollowerNetwork:
    def test_duplicate_rows_collapse(self):
        net, dropped = FollowerNetwork.from_edges(
            [("a", "b"), ("a", "b"), ("b", "c")], {"a", "b", "c"}
        )
        assert net.n_edges == 2
        assert dropped == 0

    def test_unknown_endpoint_dropped_and_counted(self):
        net, dropped = FollowerNetwork.from_edges([("a", "x")], {"a", "b"})
        assert net.n_edges == 0
        assert dropped == 1

    def test_views_consistent(self):
        net, _ = FollowerNetwork.from_edges(
            [("a", "b"), ("c", "b"), ("b", "a")], {"a", "b", "c"}
        )
        assert followers_of(net, "b") == ("a", "c")
        assert followers_of(net, "a") == ("b",)
        assert followers_of(net, "c") == ()
        assert followers_of(net, "ghost") == ()
        assert net.n_edges == 3

    def test_equality_is_by_value(self):
        edges = [("a", "b"), ("c", "b"), ("b", "a")]
        net, _ = FollowerNetwork.from_edges(edges, {"a", "b", "c"})
        again, _ = FollowerNetwork.from_edges(edges[::-1] + edges, {"a", "b", "c"})
        assert net.follower_idx is not again.follower_idx
        assert net == again
        assert net != FollowerNetwork.from_edges(edges[1:], {"a", "b", "c"})[0]
        assert net != FollowerNetwork.from_edges(edges, {"a", "b", "c", "d"})[0]


ENDPOINTS = ["a", "b", "B", "u1", "u10", "u2", "x"]


class TestFollowerNetworkReference:
    @given(
        edges=st.lists(
            st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS)), max_size=40
        ),
        universe=st.one_of(st.none(), st.sets(st.sampled_from(ENDPOINTS + ["ghost"]))),
    )
    @settings(max_examples=300)
    def test_equals_string_network(self, edges, universe):
        if universe is None:  # the edge endpoints
            universe = {u for e in edges for u in e}
        net, dropped = FollowerNetwork.from_edges(edges, universe)
        ref, ref_dropped = reference_from_edges(edges, universe)
        assert dropped == ref_dropped
        assert follower_sets(net) == ref.followers
        assert net.n_edges == ref.n_edges
        for u in ENDPOINTS + ["ghost"]:
            assert frozenset(followers_of(net, u)) == ref.followers_of(u)
        assert net.users == tuple(sorted(universe))


def two_triangles():
    return net_from_pairs(
        [("a1", "a2"), ("a2", "a3"), ("a1", "a3"),
         ("b1", "b2"), ("b2", "b3"), ("b1", "b3"),
         ("a3", "b1")]
    )


class TestBisect:
    def test_two_triangles_cut_is_bridge(self):
        net = two_triangles()
        oracle_cut, oracle_groups = enumerate_min_cut(net, 0.2)
        assert oracle_cut == 1
        result = bisect_partition(net, balance_tol=0.2, seed=0)
        assert result.cut_size == 1
        assert members(net, result, 0) in [set(g) for g in oracle_groups] or members(
            net, result, 1
        ) in [set(g) for g in oracle_groups]
        assert members(net, result, 0) == {"a1", "a2", "a3"}

    def test_k4_any_even_split(self):
        net = net_from_pairs([(f"n{i}", f"n{j}") for i in range(4) for j in range(i + 1, 4)])
        oracle_cut, _ = enumerate_min_cut(net, 0.0)
        assert oracle_cut == 4
        result = bisect_partition(net, balance_tol=0.0, seed=1)
        assert result.cut_size == 4
        assert group_sizes(result) == (2, 2)

    def test_single_node_not_bisectable(self):
        net = RetweetNetwork.from_edges([], nodes=["a"])
        with pytest.raises(ValueError, match="not bisectable"):
            bisect_partition(net)

    def test_disconnected_rejected(self):
        net = net_from_pairs([("a", "b"), ("x", "y")])
        with pytest.raises(ValueError, match="connected"):
            bisect_partition(net)

    def test_two_nodes(self):
        net = net_from_pairs([("a", "b")])
        result = bisect_partition(net)
        assert result.cut_size == 1
        assert group_sizes(result) == (1, 1)

    def test_group_zero_holds_smallest_id(self):
        net = two_triangles()
        result = bisect_partition(net, balance_tol=0.2, seed=3)
        assert groups_of(net, result)["a1"] == 0

    def test_deterministic_for_seed(self):
        net = two_triangles()
        a = bisect_partition(net, balance_tol=0.2, seed=7)
        b = bisect_partition(net, balance_tol=0.2, seed=7)
        assert groups_of(net, a) == groups_of(net, b)
        assert a.cut_size == b.cut_size

    def test_cut_size_matches_recount(self):
        net = two_triangles()
        result = bisect_partition(net, balance_tol=0.2, seed=0)
        groups = groups_of(net, result)
        recount = sum(1 for a, b in net.edges() if groups[a] != groups[b])
        assert result.cut_size == recount


def planted_two_blocks(rng, n_per=50, p_in=0.3, p_out=0.002):
    left = [f"l{i:02d}" for i in range(n_per)]
    right = [f"r{i:02d}" for i in range(n_per)]
    pairs = []
    for block in (left, right):
        for i in range(n_per):
            for j in range(i + 1, n_per):
                if rng.random() < p_in:
                    pairs.append((block[i], block[j]))
    cross = 0
    for a in left:
        for b in right:
            if rng.random() < p_out:
                pairs.append((a, b))
                cross += 1
    return net_from_pairs(pairs), set(left), set(right), cross


def hub_and_spoke(rng, n, hubs):
    """The shape of a retweet network: a few hub authors and n - hubs
    retweeters, each linked to 1-3 hubs, mostly of its own block (parity).
    Each hub absorbs one retweeter in a heavy-edge matching, so with hubs
    under 5% of n the bisection does not coarsen."""
    pairs = set()
    for i in range(hubs, n):
        own = range(i % 2, hubs, 2) or range(hubs)
        for _ in range(int(rng.integers(1, 4))):
            pool = own if rng.random() >= 0.05 else range(hubs)
            pairs.add((f"h{pool[int(rng.integers(len(pool)))]:02d}", f"s{i:05d}"))
    return net_from_pairs(pairs)


class TestPlantedPartition:
    def test_recovers_planted_blocks(self):
        rng = np.random.default_rng(11)
        net, left, right, cross = planted_two_blocks(rng)
        if cross == 0 or len(connected_components(net)) > 1:
            pytest.skip("generator produced a disconnected draw")
        result = bisect_partition(net, balance_tol=0.1, seed=0)
        side0 = members(net, result, 0)
        agreement = max(len(side0 & left), len(side0 & right)) / len(left)
        assert agreement == 1.0
        assert result.cut_size == cross


class TestLocalOptimality:
    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=6, max_value=14))
    @settings(max_examples=40, deadline=None)
    def test_no_single_move_improves(self, seed, n):
        rng = np.random.default_rng(seed)
        pairs = [
            (f"v{i:02d}", f"v{j:02d}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        if not pairs:
            return
        net = largest_component(net_from_pairs(pairs))
        if net.n_nodes < 2:
            return
        result = bisect_partition(net, balance_tol=0.1, seed=seed)
        assert_locally_optimal(net, result, 0.1)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=30, max_value=120),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_single_move_improves_at_scale(self, seed, n, hubs):
        rng = np.random.default_rng(seed)
        if hubs:  # single level: too few hubs to coarsen
            net = hub_and_spoke(rng, n, hubs=max(1, n // 25))
        else:  # dense blocks: coarsened, refined level by level
            net = planted_two_blocks(rng, n_per=n // 2, p_in=0.2, p_out=0.01)[0]
        net = largest_component(net)
        result = bisect_partition(net, balance_tol=0.1, seed=seed)
        assert_locally_optimal(net, result, 0.1)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_matches_enumeration_on_small_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        pairs = [
            (f"v{i}", f"v{j}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        if not pairs:
            return
        net = largest_component(net_from_pairs(pairs))
        if net.n_nodes < 2:
            return
        oracle_cut, _ = enumerate_min_cut(net, 0.1)
        result = bisect_partition(net, balance_tol=0.1, seed=seed)
        assert result.cut_size >= oracle_cut
        n = net.n_nodes
        allowed = allowed_group_size(n, 0.1)
        assert max(group_sizes(result)) <= allowed


def weighted_graph(rng, n, unit):
    """Random adjacency with edge weights 1-3 and node weights 1-4 (or
    unit), as at the coarse levels of a bisection."""
    adj = [{} for _ in range(n)]
    p = rng.random()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i][j] = adj[j][i] = int(rng.integers(1, 4))
    node_w = [1] * n if unit else [int(w) for w in rng.integers(1, 5, size=n)]
    return adj, node_w


def groups_digest(net, result):
    rows = "".join(f"{u},{g}\n" for u, g in sorted(groups_of(net, result).items()))
    return hashlib.sha256(rows.encode()).hexdigest()[:16]


def refine_case(seed, n, unit):
    """A random graph and sides, with a cap ``bisect_partition`` passes:
    ``allowed_group_size`` at unit weights, and at least ``total // 2`` plus
    the largest node weight at the coarse levels."""
    rng = np.random.default_rng(seed)
    adj, node_w = weighted_graph(rng, n, unit)
    side = [int(s) for s in rng.integers(0, 2, size=n)]
    total = sum(node_w)
    if unit:
        allowed = allowed_group_size(total, float(rng.choice([0.0, 0.05, 0.1, 0.3])))
    else:
        allowed = total // 2 + max(node_w) + int(rng.integers(0, total // 2 + 1))
    return adj, node_w, side, allowed


# moving node 0 (gain 6, weight 4) off side 0 puts side 1 over the cap
HEAVY_SIDE_FLIP = ([{3: 3, 4: 3}, {}, {}, {0: 3}, {0: 3}], [4, 1, 1, 1, 1], [0, 0, 0, 1, 1], 5)
# the rebalance moves node 0, of gain 0, off side 1: side 1's heap keeps a
# (0, 0) entry that matches node 0's negated gain, and FM must skip it
STALE_ZERO_GAIN = (
    [{2: 1, 5: 1}, {3: 1, 4: 1, 5: 1, 6: 1}, {0: 1}, {1: 1, 4: 1, 5: 1},
     {1: 1, 3: 1, 5: 1}, {0: 1, 1: 1, 3: 1, 4: 1}, {1: 1}],
    [1] * 7,
    [1, 1, 1, 1, 1, 0, 1],
    4,
)


class TestHeapSelection:
    """The heaps pick the node the linear scans in tests/helpers.py pick:
    among the admissible nodes of maximal gain, the lowest index."""

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=40),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_grow_equals_the_scan(self, seed, n, unit):
        rng = np.random.default_rng(seed)
        adj, node_w = weighted_graph(rng, n, unit)
        # from no admissible move to no cap at all
        allowed = int(rng.integers(0, sum(node_w) + 1))
        start = int(rng.integers(n))
        assert _grow_partition(adj, node_w, start, allowed) == reference_grow_partition(
            adj, node_w, start, allowed
        )

    @given(
        st.builds(
            refine_case,
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=2, max_value=40),
            st.booleans(),
        )
    )
    @example(HEAVY_SIDE_FLIP)
    @example(STALE_ZERO_GAIN)
    @settings(max_examples=300, deadline=None)
    def test_refine_equals_rebalance_then_fm_scans(self, case):
        adj, node_w, side, allowed = case
        heap_side, scan_side = side[:], side[:]
        cut = _refine(adj, node_w, heap_side, allowed)
        reference_rebalance(adj, node_w, scan_side, allowed)
        assert cut == reference_fm_refine(adj, node_w, scan_side, allowed)
        assert heap_side == scan_side

    @pytest.mark.parametrize(
        "build, digest, cut",
        [
            (  # 60 dense nodes: coarsened twice
                lambda: planted_two_blocks(
                    np.random.default_rng(3), n_per=30, p_in=0.3, p_out=0.01
                )[0],
                "0d8f42828ae05382",
                10,
            ),
            (  # 600 nodes, 8 hubs: matching shrinks it too little to coarsen
                lambda: hub_and_spoke(np.random.default_rng(5), 600, hubs=8),
                "e14e6c47c7215ffd",
                240,
            ),
            (two_triangles, "9870a3be3cc9443a", 1),
        ],
        ids=["coarsens", "hub-and-spoke", "two-triangles"],
    )
    def test_groups_pinned(self, build, digest, cut):
        net = largest_component(build())
        result = bisect_partition(net, balance_tol=0.1, seed=2)
        assert (groups_digest(net, result), result.cut_size) == (digest, cut)


class TestScaling:
    def test_hub_and_spoke_4000_nodes_within_budget(self):
        # on a 2-core Xeon the linear scans took 50-60 s, the heaps about 1 s
        net = largest_component(hub_and_spoke(np.random.default_rng(4000), 4000, hubs=16))
        assert net.n_nodes > 3900
        t0 = time.perf_counter()
        result = bisect_partition(net, balance_tol=0.1, seed=0)
        elapsed = time.perf_counter() - t0
        assert max(group_sizes(result)) <= allowed_group_size(net.n_nodes, 0.1)
        assert elapsed < 15.0, f"bisecting {net.n_nodes} nodes took {elapsed:.1f} s"


class TestBalance:
    def test_balance_respects_tolerance(self):
        rng = np.random.default_rng(5)
        pairs = [
            (f"v{i:02d}", f"v{j:02d}")
            for i in range(30)
            for j in range(i + 1, 30)
            if rng.random() < 0.2
        ]
        net = largest_component(net_from_pairs(pairs))
        result = bisect_partition(net, balance_tol=0.1, seed=2)
        allowed = allowed_group_size(net.n_nodes, 0.1)
        assert max(group_sizes(result)) <= allowed

    def test_allowed_group_size_floor(self):
        assert allowed_group_size(4, 0.0) == 2
        assert allowed_group_size(5, 0.0) == 3
        assert allowed_group_size(10, 0.1) == 6
        assert allowed_group_size(6, 0.1) == 3


class TestDotExport:
    def test_contains_nodes_edges_and_colors(self):
        net = two_triangles()
        result = bisect_partition(net, balance_tol=0.2, seed=0)
        dot = to_dot(on_ids(net), result.side, net.nodes)
        assert dot.startswith("graph")
        assert '"a1" -- "a2";' in dot
        assert "fillcolor" in dot

    def test_ids_with_quotes_backslashes_and_spaces_round_trip(self):
        ids = ['a"b', "c\\d", "e f", "g\\", '"', "plain"]
        net = net_from_pairs([(ids[i], ids[i + 1]) for i in range(len(ids) - 1)])
        groups = {u: i % 2 for i, u in enumerate(ids)}
        side = np.array([groups[u] for u in net.nodes], dtype=np.int8)
        dot = to_dot(on_ids(net), side, net.nodes)

        # A DOT quoted ID: '"', then characters other than '"' and '\', or
        # a backslash escape, then '"'.
        quoted = r'"((?:[^"\\]|\\.)*)"'

        def unquote(body):
            return re.sub(r"\\(.)", r"\1", body)

        lines = dot.splitlines()
        assert lines[0] == "graph retweet_network {" and lines[-1] == "}"
        nodes, edges = {}, set()
        for line in lines[2:-1]:
            node = re.fullmatch(rf'  {quoted} \[fillcolor="(#[0-9a-f]{{6}})"\];', line)
            edge = re.fullmatch(rf"  {quoted} -- {quoted};", line)
            assert node or edge, line
            if node:
                nodes[unquote(node.group(1))] = node.group(2)
            else:
                edges.add((unquote(edge.group(1)), unquote(edge.group(2))))
        assert set(nodes) == set(ids)
        assert edges == set(net.edges())
        assert {nodes[u] for u in ids if groups[u] == 0} == {"#e08214"}
