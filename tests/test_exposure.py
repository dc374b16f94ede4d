"""Exposure ledgers under the two timeline display rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    StringCascade,
    id_cascade,
    named,
    reference_build_exposure_ledger,
    reference_from_edges,
    reference_ledger,
)
from echospread.exposure import build_exposure_ledger, choose_scope
from echospread.graph import FollowerNetwork
from echospread.ingest import TweetRecord


def make_cascade(author, events, tweet_id="T"):
    """events: list of (user, timestamp) retweets of one origin at t=0; the
    cascade on names."""
    origin = TweetRecord(tweet_id, author, 0, "climate", lang="en")
    rts = tuple(
        TweetRecord(f"{tweet_id}-{u}", u, t, "rt", retweet_of=tweet_id)
        for u, t in events
    )
    rts = tuple(sorted(rts, key=lambda r: (r.timestamp, r.tweet_id)))
    return StringCascade(origin, rts)


def ledger_of(cascade, net, *args, **kwargs):
    """``build_exposure_ledger`` on the string cascade put on ``net``'s table."""
    return build_exposure_ledger(id_cascade(cascade, net.users), net, *args, **kwargs)


def group_array(users, groups):
    """The groups by name as the int8 array over the table ``users``, -1 for
    a user in neither group."""
    return np.array([groups.get(u, -1) for u in users], dtype=np.int8)


def scope_over(net, users, author, group=0):
    """``users`` in ``group`` and the author in the other one: the user groups
    over ``net``'s table and ``group``."""
    groups = {u: group for u in users}
    groups[author] = 1 - group
    return scope_of(net, groups, group)


def scope_of(net, groups, group):
    return group_array(net.users, groups), group


def follow_net(edges, cascade):
    """The follow graph over the edge endpoints and the cascade's users."""
    universe = {u for e in edges for u in e} | {cascade.origin.user_id}
    universe |= {rt.user_id for rt in cascade.retweets}
    net, _ = FollowerNetwork.from_edges(edges, universe)
    return net


class TestDisplayRuleFixtures:
    def test_direct_pathway_only(self):
        # scenario 1: p follows the origin author; nobody retweets
        cascade = make_cascade("o", [])
        net = follow_net([("p", "o")], cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, ["p"], "o")))
        assert led.exposed == frozenset({"p"})
        assert led.successes == frozenset()
        assert led.failures == frozenset({"p"})
        assert led.attribution["p"] == "o"

    def test_origin_follower_sees_no_retweet_notifications(self):
        # scenario 2: p follows the author and two retweeting followees;
        # the appearance is the original tweet alone
        cascade = make_cascade("o", [("i1", 1), ("i2", 2)])
        net = follow_net(
            [("p", "o"), ("p", "i1"), ("p", "i2"), ("i1", "o"), ("i2", "o")], cascade
        )
        led = named(
            ledger_of(cascade, net, *scope_over(net, ["p", "i1", "i2"], "o"))
        )
        assert led.exposed == frozenset({"p", "i1", "i2"})
        assert led.successes == frozenset({"i1", "i2"})
        assert led.failures == frozenset({"p"})
        assert led.attribution["p"] == "o"
        assert led.attribution["i1"] == "o"
        assert led.attribution["i2"] == "o"

    def test_indirect_pathway_via_single_retweeter(self):
        # scenario 3: p follows only retweeter i3
        cascade = make_cascade("o", [("i3", 1)])
        net = follow_net([("i3", "o"), ("p", "i3")], cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, ["p", "i3"], "o")))
        assert led.exposed == frozenset({"p", "i3"})
        assert led.failures == frozenset({"p"})
        assert led.attribution["p"] == "i3"

    def test_first_retweeting_followee_wins(self):
        # scenario 4: p follows retweeters a (t=3) and d (t=7), not the origin
        cascade = make_cascade("o", [("a", 3), ("d", 7)])
        net = follow_net([("a", "o"), ("d", "o"), ("p", "a"), ("p", "d")], cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, ["p", "a", "d"], "o")))
        assert led.exposed == frozenset({"p", "a", "d"})
        assert led.failures == frozenset({"p"})
        assert led.attribution["p"] == "a"


class TestSuccessPathways:
    def test_retweeter_needs_preceding_event(self):
        # u retweets before its only followee w does: no modeled pathway
        cascade = make_cascade("o", [("u", 1), ("w", 5)])
        net = follow_net([("u", "w"), ("w", "o")], cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, ["u", "w"], "o")))
        assert led.successes == frozenset({"w"})
        assert led.unexposed_successes == frozenset({"u"})
        assert "u" not in led.exposed

    def test_equal_timestamp_breaks_by_tweet_id(self):
        # T-a sorts before T-b at the same timestamp, so b may cite a
        cascade = make_cascade("o", [("a", 1), ("b", 1)])
        net = follow_net([("a", "o"), ("b", "a")], cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, ["a", "b"], "o")))
        assert led.successes == frozenset({"a", "b"})
        assert led.attribution["b"] == "a"

    def test_include_unexposed_retweeters_flag(self):
        cascade = make_cascade("o", [("u", 1)])
        net = follow_net([("x", "o")], cascade)
        scope = scope_over(net, ["u", "x"], "o")
        led = named(ledger_of(cascade, net, *scope))
        assert led.successes == frozenset()
        assert led.unexposed_successes == frozenset({"u"})
        led_inc = named(
            ledger_of(cascade, net, *scope, include_unexposed_retweeters=True)
        )
        assert led_inc.successes == frozenset({"u"})
        assert "included_unexposed_retweeters" in led_inc.flags

    def test_author_self_retweet_ignored(self):
        cascade = make_cascade("o", [("o", 1), ("u", 2)])
        net = follow_net([("u", "o")], cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, ["u"], "o")))
        assert led.successes == frozenset({"u"})
        assert "o" not in led.exposed


class TestGroupRestriction:
    def test_out_of_group_users_disregarded(self):
        # x (other group) retweets; p follows only x, so p is not exposed
        cascade = make_cascade("o", [("x", 1), ("m", 2)])
        groups = {"p": 0, "m": 0, "x": 1, "o": 1}
        net = follow_net([("x", "o"), ("p", "x"), ("m", "o")], cascade)
        led = named(ledger_of(cascade, net, *scope_of(net, groups, 0)))
        assert "x" not in led.exposed
        assert "p" not in led.exposed
        assert led.successes == frozenset({"m"})

    def test_unclassified_users_not_trials(self):
        cascade = make_cascade("o", [("m", 1)])
        groups = {"m": 0, "q": 0, "o": 1}
        net = follow_net([("m", "o"), ("ghost", "o"), ("q", "o")], cascade)
        led = named(ledger_of(cascade, net, *scope_of(net, groups, 0)))
        assert led.exposed == frozenset({"m", "q"})


class TestMainGroup:
    @staticmethod
    def choose(cascade, zeros, ones):
        """``choose_scope`` over the table of the cascade's users and the
        grouped ones, with ``zeros`` in group 0 and ``ones`` in group 1."""
        groups = {u: 0 for u in zeros} | {u: 1 for u in ones}
        users = sorted({cascade.origin.user_id, *cascade.retweeters(), *groups})
        return choose_scope(id_cascade(cascade, users), group_array(users, groups))

    def test_majority_wins(self):
        retweeters = [(f"a{i}", i + 1) for i in range(12)] + [
            (f"s{i}", 20 + i) for i in range(3)
        ]
        cascade = make_cascade("o", retweeters)
        assert self.choose(cascade, [f"a{i}" for i in range(12)], [f"s{i}" for i in range(3)]) == 0

    def test_tie_uses_author_group(self):
        cascade = make_cascade("o", [("a0", 1), ("a1", 2), ("s0", 3), ("s1", 4)])
        assert self.choose(cascade, ["a0", "a1"], ["s0", "s1", "o"]) == 1

    def test_tie_with_unclassified_author_falls_back(self):
        cascade = make_cascade("o", [("a0", 1), ("s0", 2)])
        assert self.choose(cascade, ["a0"], ["s0"]) == 0

    def test_no_classified_retweeters_is_unscorable(self):
        cascade = make_cascade("o", [("ghost", 1)])
        with pytest.raises(ValueError, match="unscorable"):
            self.choose(cascade, ["a0"], ["s0"])


USERS = [f"u{i}" for i in range(7)]


@st.composite
def scenarios(draw):
    author = "auth"
    everyone = USERS + [author]
    edges = []
    for follower in USERS:
        for followee in everyone:
            if follower != followee and draw(st.booleans()):
                edges.append((follower, followee))
    n_rt = draw(st.integers(min_value=0, max_value=5))
    retweeters = draw(
        st.lists(st.sampled_from(USERS), min_size=n_rt, max_size=n_rt, unique=True)
    )
    events = [(u, draw(st.integers(min_value=1, max_value=9))) for u in retweeters]
    return author, edges, events


class TestLedgerProperties:
    @given(scenarios())
    @settings(max_examples=200)
    def test_partition_of_exposed(self, scenario):
        author, edges, events = scenario
        cascade = make_cascade(author, events)
        net = follow_net(edges, cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, USERS, author)))
        assert led.successes | led.failures == led.exposed
        assert not led.successes & led.failures
        assert len(led.exposed) == len(led.successes) + len(led.failures)
        assert author not in led.exposed
        assert led.unexposed_successes.isdisjoint(led.exposed)

    @given(scenarios())
    @settings(max_examples=200)
    def test_removing_follow_edge_never_enlarges_exposure(self, scenario):
        author, edges, events = scenario
        if not edges:
            return
        cascade = make_cascade(author, events)
        net = follow_net(edges, cascade)
        full = named(ledger_of(cascade, net, *scope_over(net, USERS, author)))
        smaller = follow_net(edges[1:], cascade)
        reduced = named(
            ledger_of(cascade, smaller, *scope_over(smaller, USERS, author))
        )
        assert reduced.exposed <= full.exposed

    @given(scenarios())
    @settings(max_examples=200)
    def test_successes_have_a_pathway(self, scenario):
        author, edges, events = scenario
        cascade = make_cascade(author, events)
        net = follow_net(edges, cascade)
        led = named(ledger_of(cascade, net, *scope_over(net, USERS, author)))
        order = [rt.user_id for rt in cascade.retweets]
        for s in led.successes:
            followees = {b for a, b in edges if a == s}
            earlier = set(order[: order.index(s)])
            assert author in followees or followees & earlier

    @given(scenarios())
    @settings(max_examples=100)
    def test_exposed_stay_in_main_group(self, scenario):
        author, edges, events = scenario
        cascade = make_cascade(author, events)
        net = follow_net(edges, cascade)
        user_groups, group = scope_over(net, USERS, author)
        led = named(ledger_of(cascade, net, user_groups, group))
        for u in led.exposed:
            assert user_groups[net.users.index(u)] == group


MIXED = [f"m{i}" for i in range(6)]


@st.composite
def mixed_scenarios(draw):
    """Cascades over a graph whose users fall in either group or in none.

    The author may be unclassified or in either group and may retweet their
    own tweet; a user may retweet more than once. ``g0`` and ``g1`` keep
    both groups nonempty. Now and then the origin is a stub, whose author
    ``""`` has no followers and is -1 on the table, as for a retweet of a
    missing origin in the pipeline.
    """
    author = draw(st.sampled_from(["auth", "auth", "auth", ""]))
    everyone = MIXED + ["g0", "g1", "auth"]
    main = draw(st.sampled_from([0, 1]))
    groups = {"g0": 0, "g1": 1}
    for u in MIXED + ["auth"]:
        g = draw(st.sampled_from([main, main, 1 - main, None]))
        if g is not None:
            groups[u] = g
    edges = [
        (a, b) for a in everyone for b in everyone if a != b and draw(st.booleans())
    ]
    retweets = draw(
        st.lists(
            st.tuples(st.sampled_from(everyone), st.integers(min_value=0, max_value=6)),
            max_size=8,
        )
    )
    origin = TweetRecord("T", author, 0, "climate", lang="en")
    rts = sorted(
        (
            TweetRecord(f"T-{i}", u, t, "rt", retweet_of="T")
            for i, (u, t) in enumerate(retweets)
        ),
        key=lambda r: (r.timestamp, r.tweet_id),
    )
    cascade = StringCascade(origin, tuple(rts), stub_origin=author == "")
    return cascade, edges, groups, main, draw(st.booleans())


class TestReferenceLedger:
    @given(mixed_scenarios())
    @settings(max_examples=400)
    def test_equals_reference_on_every_field(self, scenario):
        cascade, edges, groups, main, include = scenario
        net = follow_net(edges, cascade)
        led = named(ledger_of(cascade, net, *scope_of(net, groups, main), include))
        assert led == reference_ledger(cascade, edges, groups, main, include)

    @given(mixed_scenarios())
    @settings(max_examples=400)
    def test_equals_string_ledger_on_every_field(self, scenario):
        cascade, edges, groups, main, include = scenario
        universe = {"auth", "g0", "g1", *MIXED}
        net, _ = FollowerNetwork.from_edges(edges, universe)
        ref_net, _ = reference_from_edges(edges, universe)
        led = named(ledger_of(cascade, net, *scope_of(net, groups, main), include))
        assert led == reference_build_exposure_ledger(cascade, ref_net, groups, main, include)


class TestUserTable:
    def test_stub_origin_outside_the_table_has_no_followers(self):
        # a retweet of a missing origin: the stub's author is -1
        stub = TweetRecord("T", "", 1, "rt", lang="en")
        retweets = (
            TweetRecord("T-a", "a", 1, "rt", retweet_of="T"),
            TweetRecord("T-b", "b", 2, "rt", retweet_of="T"),
        )
        cascade = StringCascade(stub, retweets, stub_origin=True)
        edges = [("b", "a"), ("c", "a"), ("d", "c")]
        net, _ = FollowerNetwork.from_edges(edges, {"a", "b", "c", "d"})
        groups = {"a": 0, "b": 0, "c": 0, "d": 1}
        user_groups = group_array(net.users, groups)
        on_table = id_cascade(cascade, net.users)
        assert on_table.author == -1
        group = choose_scope(on_table, user_groups)
        led = named(build_exposure_ledger(on_table, net, user_groups, group))
        ref_net, _ = reference_from_edges(edges, {"a", "b", "c", "d"})
        assert led == reference_build_exposure_ledger(cascade, ref_net, groups, group)
        assert led.successes == frozenset({"b"})
        assert led.failures == frozenset({"c"})
        assert led.unexposed_successes == frozenset({"a"})

    @pytest.mark.parametrize("group", [-1, 2])
    def test_group_other_than_0_or_1_is_rejected(self, group):
        cascade = make_cascade("o", [("i", 1)])
        net = follow_net([("i", "o")], cascade)
        user_groups, _ = scope_over(net, ["i"], "o")
        with pytest.raises(ValueError, match="group must be 0 or 1"):
            ledger_of(cascade, net, user_groups, group)

    def test_scope_over_another_table_is_rejected(self):
        cascade = make_cascade("o", [("i", 1)])
        net = follow_net([("i", "o"), ("p", "i")], cascade)
        other = follow_net([("i", "o")], cascade)
        with pytest.raises(ValueError, match="do not match the follow table"):
            ledger_of(cascade, net, *scope_over(other, ["p", "i"], "o"))
