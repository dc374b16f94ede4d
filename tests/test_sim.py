"""Simulator tests: forced-structure cases, round-trips, recovery sanity,
and bit equality with the string-set simulator in tests/helpers.py."""

import csv
import dataclasses
import io
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echospread import sim
from echospread.graph import FollowerNetwork, build_follower_network
from echospread.ingest import build_cascades, chain_roots, filter_corpus, parse_records
from echospread.sim import (
    ActivitySpec,
    GraphSpec,
    RecoveryRow,
    SimConfig,
    SyntheticWorld,
    follower_csr,
    generate_activities,
    generate_network,
    generate_world,
    recovery_experiment,
    seed_pool,
    simulate_cascade,
    simulate_corpus,
    world_groups,
    write_recovery_csv,
    write_world,
)
from echospread.exposure import build_exposure_ledger
from echospread.virality import Boundary, mle_virality
from helpers import (
    follower_sets,
    followers_of,
    named,
    reference_generate_network,
    reference_seed_pool,
    reference_simulate_cascade,
    reference_world,
)


def hand_world(edges, activities, seed=0):
    """World with explicit edges and activities for forced-structure cases."""
    users = tuple(sorted({u for e in edges for u in e} | set(activities)))
    index = {u: k for k, u in enumerate(users)}
    mask = np.zeros((len(users), len(users)), dtype=bool)
    for follower, followee in edges:
        assert follower != followee
        mask[index[follower], index[followee]] = True
    config = SimConfig(
        graph=GraphSpec(n=len(users)), r_values=(1.0,), master_seed=seed
    )
    return SyntheticWorld(
        config=config,
        follow=FollowerNetwork(users, *follower_csr(mask)),
        alpha=np.array([activities[u] for u in users], dtype=float),
    )


def edge_pairs(follower_ptr, follower_idx):
    """(follower, followee) index pairs of a CSR, row-major."""
    followee = np.repeat(np.arange(len(follower_ptr) - 1), np.diff(follower_ptr))
    return sorted(zip(follower_idx.tolist(), followee.tolist()))


def csr_edges(world):
    """The world's edges as name pairs in the generator's row-major order."""
    users = world.users
    return tuple(
        (users[i], users[j])
        for i, j in edge_pairs(world.follow.follower_ptr, world.follow.follower_idx)
    )


class TestConfigValidation:
    def test_unknown_graph_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GraphSpec(kind="small-world", n=10, p=0.1)

    def test_tiny_network_rejected(self):
        with pytest.raises(ValueError, match="two nodes"):
            GraphSpec(n=1, p=0.1)

    def test_degenerate_probability(self):
        with pytest.raises(ValueError, match="degenerate"):
            GraphSpec(n=10, p=1.5)
        with pytest.raises(ValueError, match="degenerate"):
            GraphSpec(kind="planted-two-block", n=10, p_in=0.5, p_out=None)

    def test_bad_planted_r(self):
        with pytest.raises(ValueError, match="planted r"):
            SimConfig(r_values=(1.2,))

    def test_bad_activity(self):
        with pytest.raises(ValueError, match="uniform"):
            ActivitySpec(kind="uniform", lo=0.0, hi=1.0)


class TestGenerateNetwork:
    def test_complete_directed_graph(self):
        config = SimConfig(graph=GraphSpec(n=4, p=1.0))
        follower_ptr, follower_idx, labels = generate_network(config)
        edges = edge_pairs(follower_ptr, follower_idx)
        assert len(edges) == 12
        assert labels is None
        assert all(a != b for a, b in edges)

    def test_empty_graph(self):
        config = SimConfig(graph=GraphSpec(n=6, p=0.0))
        follower_ptr, follower_idx, _ = generate_network(config)
        assert edge_pairs(follower_ptr, follower_idx) == []
        assert follower_ptr.tolist() == [0] * 7

    def test_planted_blocks_no_cross_edges(self):
        config = SimConfig(
            graph=GraphSpec(kind="planted-two-block", n=20, p_in=0.8, p_out=0.0)
        )
        follower_ptr, follower_idx, labels = generate_network(config)
        assert labels is not None and set(labels.values()) == {0, 1}
        block = [labels[u] for u in sorted(labels)]
        edges = edge_pairs(follower_ptr, follower_idx)
        assert edges and all(block[a] == block[b] for a, b in edges)

    def test_deterministic(self):
        config = SimConfig(graph=GraphSpec(n=30, p=0.2), master_seed=7)
        first, second = generate_network(config), generate_network(config)
        assert first[2] == second[2]
        assert all(np.array_equal(a, b) for a, b in zip(first[:2], second[:2]))

    @pytest.mark.parametrize("kind", ["directed-random", "planted-two-block"])
    @pytest.mark.parametrize("n", [2, 7, 100, 257, 513])
    @pytest.mark.parametrize("block", [1, 64, None])
    def test_row_blocks_equal_one_shot_draw(self, monkeypatch, kind, n, block):
        if block is not None:
            monkeypatch.setattr(sim, "_ROW_BLOCK", block)
        config = SimConfig(
            graph=GraphSpec(kind=kind, n=n, p=0.3, p_in=0.4, p_out=0.1),
            master_seed=n,
        )
        edges, labels = reference_generate_network(config)
        world = generate_world(config)
        assert csr_edges(world) == edges
        assert world.block_labels == labels

    def test_users_must_be_sorted(self):
        world = hand_world([("b", "a")], {"a": 1.0, "b": 1.0})
        follow = world.follow
        with pytest.raises(ValueError, match="sorted"):
            FollowerNetwork(("b", "a"), follow.follower_ptr, follow.follower_idx)

    def test_array_fields_stay_out_of_equality(self):
        config = SimConfig(graph=GraphSpec(n=30, p=0.2), master_seed=7)
        first, second = generate_world(config), generate_world(config)
        assert first.follow.follower_idx is not second.follow.follower_idx
        assert first.alpha is not second.alpha
        assert first == second
        assert dataclasses.replace(first, alpha=first.alpha / 2) != first
        other = generate_world(SimConfig(graph=GraphSpec(n=30, p=0.2), master_seed=8))
        assert other.follow != first.follow and other != first


class TestGenerateActivities:
    def test_normalized_to_unit_max(self):
        config = SimConfig(graph=GraphSpec(n=50, p=0.1))
        acts = generate_activities(config)
        assert acts.dtype == np.float64 and acts.shape == (50,)
        assert acts.max() == 1.0
        assert np.all((acts > 0) & (acts <= 1))

    def test_lognormal_supported(self):
        config = SimConfig(
            graph=GraphSpec(n=50, p=0.1),
            activity=ActivitySpec(kind="lognormal", mu=0.0, sigma=1.0),
        )
        acts = generate_activities(config)
        assert acts.max() == 1.0

    def test_deterministic(self):
        config = SimConfig(graph=GraphSpec(n=40, p=0.1), master_seed=3)
        assert np.array_equal(generate_activities(config), generate_activities(config))


class TestSimulateCascade:
    def test_zero_r_means_zero_retweets(self):
        world = generate_world(SimConfig(graph=GraphSpec(n=40, p=0.3)))
        for idx in range(5):
            sim = named(simulate_cascade(world, world.users[0], 0.0, idx))
            assert sim.successes == frozenset()
            assert len(sim.records) == 1
            assert sim.failures == sim.exposed

    def test_star_certain_activation(self):
        k = 5
        edges = [(f"f{i}", "hub") for i in range(k)]
        acts = {f"f{i}": 1.0 for i in range(k)} | {"hub": 1.0}
        world = hand_world(edges, acts)
        sim = named(simulate_cascade(world, "hub", 1.0, 0))
        assert len(sim.successes) == k
        assert sim.failures == frozenset()
        assert all(r.timestamp == 1 for r in sim.records[1:])

    def test_line_graph_rounds(self):
        edges = [("b", "a"), ("c", "b")]
        world = hand_world(edges, {"a": 1.0, "b": 1.0, "c": 1.0})
        sim = simulate_cascade(world, "a", 1.0, 0)
        stamps = {r.user_id: r.timestamp for r in sim.records[1:]}
        assert stamps == {"b": 1, "c": 2}

    def test_seed_never_exposed(self):
        edges = [("b", "a"), ("a", "b")]
        world = hand_world(edges, {"a": 1.0, "b": 1.0})
        sim = named(simulate_cascade(world, "a", 1.0, 0))
        assert "a" not in sim.exposed

    def test_each_user_at_most_one_trial(self):
        world = generate_world(SimConfig(graph=GraphSpec(n=60, p=0.25)))
        for idx in range(8):
            sim = named(simulate_cascade(world, seed_pool(world)[0], 0.6, idx))
            assert sim.successes & sim.failures == frozenset()
            assert sim.successes | sim.failures == sim.exposed
            users = [r.user_id for r in sim.records[1:]]
            assert len(users) == len(set(users)) == len(sim.successes)

    def test_unknown_seed_user_rejected(self):
        world = hand_world([("b", "a")], {"a": 1.0, "b": 1.0})
        for seed_user in ("c", "0", "ab"):
            with pytest.raises(ValueError, match="unknown seed user"):
                simulate_cascade(world, seed_user, 0.5, 0)

    def test_r_above_model_ceiling_rejected(self):
        world = generate_world(SimConfig(graph=GraphSpec(n=10, p=0.5)))
        with pytest.raises(ValueError, match="max activity"):
            simulate_cascade(world, world.users[0], 1.5, 0)

    def test_deterministic_per_index(self):
        world = generate_world(SimConfig(graph=GraphSpec(n=50, p=0.2)))
        a = simulate_cascade(world, world.users[1], 0.4, 9)
        b = simulate_cascade(world, world.users[1], 0.4, 9)
        assert a == b
        c = simulate_cascade(world, world.users[1], 0.4, 10)
        assert c.records != a.records or named(c).exposed != named(a).exposed

    def test_equality_compares_arrays_by_value(self):
        world = generate_world(SimConfig(graph=GraphSpec(n=50, p=0.2)))
        a = simulate_cascade(world, world.users[1], 0.6, 3)
        copy = dataclasses.replace(
            a, retweeters=a.retweeters.copy(), rounds=a.rounds.copy(), failures=a.failures.copy()
        )
        assert copy.retweeters is not a.retweeters and copy == a
        assert len(a.retweeters) > 1
        assert dataclasses.replace(a, retweeters=a.retweeters[::-1].copy()) != a
        assert dataclasses.replace(a, rounds=a.rounds + 1) != a
        assert dataclasses.replace(a, failures=a.failures[:-1]) != a


class TestSeedPool:
    def test_top_decile_by_follower_count(self):
        config = SimConfig(graph=GraphSpec(n=50, p=0.2), master_seed=2)
        world = generate_world(config)
        pool = seed_pool(world)
        assert len(pool) == 5
        worst = min(len(followers_of(world.follow, u)) for u in pool)
        outside = max(
            len(followers_of(world.follow, u))
            for u in world.users
            if u not in pool
        )
        assert worst >= outside

    def test_uniform_pool_is_everyone(self):
        config = SimConfig(graph=GraphSpec(n=30, p=0.2), seed_pool="uniform")
        world = generate_world(config)
        assert seed_pool(world) == world.users


class TestRoundTrip:
    """Emitted logs re-ingested and re-ledgered reproduce (E, S, F) exactly."""

    @pytest.mark.parametrize("master_seed", [0, 1, 2])
    def test_ledger_matches_simulation(self, tmp_path, master_seed):
        config = SimConfig(
            graph=GraphSpec(n=40, p=0.2),
            r_values=(0.5, 0.1),
            cascades_per_r=4,
            master_seed=master_seed,
        )
        world = generate_world(config)
        sims, truth = simulate_corpus(world)
        paths = write_world(world, sims, truth, tmp_path)

        records, report = parse_records(paths["tweets"])
        assert report.malformed == 0
        kept, roots = filter_corpus(records)
        assert len(kept) == len(records)
        cascades, _ = build_cascades(kept, roots, world.users)
        follow, dropped = build_follower_network(paths["edges"], set(world.users))
        assert dropped == 0
        groups = world_groups(world)
        by_id = {c.tweet_id: c for c in cascades}
        assert set(by_id) == {s.tweet_id for s in sims}
        for sim in map(named, sims):
            ledger = named(build_exposure_ledger(by_id[sim.tweet_id], follow, groups, 0))
            assert ledger.exposed == sim.exposed
            assert ledger.successes == sim.successes
            assert ledger.failures == sim.failures
            assert ledger.unexposed_successes == frozenset()

    def test_truth_file_layout(self, tmp_path):
        config = SimConfig(
            graph=GraphSpec(n=10, p=0.4), r_values=(0.25,), cascades_per_r=2
        )
        world = generate_world(config)
        sims, truth = simulate_corpus(world)
        paths = write_world(world, sims, truth, tmp_path)
        lines = paths["truth"].read_text().strip().splitlines()
        assert lines[0] == "tweet_id,planted_r,seed_user"
        assert lines[1].startswith("sim00000,0.25,")


class TestSimulateCorpus:
    def test_counts_and_determinism(self):
        config = SimConfig(
            graph=GraphSpec(n=30, p=0.2), r_values=(0.2, 0.6), cascades_per_r=3
        )
        world = generate_world(config)
        sims, truth = simulate_corpus(world)
        assert len(sims) == 6 == len(truth)
        assert [s.tweet_id for s in sims] == [f"sim{i:05d}" for i in range(6)]
        assert [s.planted_r for s in sims] == [0.2] * 3 + [0.6] * 3
        sims2, truth2 = simulate_corpus(world)
        assert sims == sims2 and truth == truth2


class TestRecovery:
    def test_certain_regime_hits_upper_boundary(self):
        k = 6
        edges = [(f"f{i}", "hub") for i in range(k)]
        acts = {f"f{i}": 1.0 for i in range(k)} | {"hub": 1.0}
        world = hand_world(edges, acts)
        records = simulate_cascade(world, "hub", 1.0, 0).records
        cascades, _ = build_cascades(records, chain_roots(records), world.users)
        ledger = build_exposure_ledger(cascades[0], world.follow, world_groups(world), 0)
        est = mle_virality(ledger, world.alpha)
        assert est.boundary is Boundary.UPPER_BOUNDARY
        assert est.r_hat == 1.0

    def test_repeated_planted_r_is_one_row(self):
        config = SimConfig(
            graph=GraphSpec(n=40, p=0.3), r_values=(0.3, 0.3), cascades_per_r=4
        )
        rows, _ = recovery_experiment(config)
        assert len(rows) == 1
        assert rows[0].planted_r == 0.3
        assert rows[0].cascades == 8

    def test_all_null_cascades_counted_unscorable(self):
        config = SimConfig(
            graph=GraphSpec(n=30, p=0.3), r_values=(0.0,), cascades_per_r=5
        )
        rows, _ = recovery_experiment(config)
        assert rows[0].unscorable == 5
        assert np.isnan(rows[0].median_rel_error)

    def test_moderate_world_recovers_r(self):
        config = SimConfig(
            graph=GraphSpec(n=250, p=0.4),
            r_values=(0.3,),
            cascades_per_r=25,
            master_seed=4,
        )
        rows, world = recovery_experiment(config)
        row = rows[0]
        assert row.cascades == 25
        assert row.mean_exposed > 50
        assert row.median_rel_error < 0.25
        assert row.p90_rel_error >= row.median_rel_error

    def median_star_error(self, spokes, r, reps=30):
        """Hub with `spokes` followers: |E| is exactly the hub degree."""
        edges = [(f"f{i:04d}", "hub") for i in range(spokes)]
        acts = {f"f{i:04d}": 1.0 for i in range(spokes)} | {"hub": 1.0}
        world = hand_world(edges, acts)
        groups = world_groups(world)
        errors = []
        for idx in range(reps):
            records = simulate_cascade(world, "hub", r, idx).records
            cascades, _ = build_cascades(records, chain_roots(records), world.users)
            ledger = build_exposure_ledger(cascades[0], world.follow, groups, 0)
            assert len(ledger.exposed) == spokes
            est = mle_virality(ledger, world.alpha)
            errors.append(abs(est.r_hat - r) / r)
        return float(np.median(errors))

    def test_error_shrinks_with_more_exposures(self):
        err_100 = self.median_star_error(100, 0.3)
        err_1000 = self.median_star_error(1000, 0.3)
        assert err_1000 < err_100

    def test_recovery_csv_layout(self, tmp_path):
        rows = [
            RecoveryRow(
                planted_r=0.2,
                cascades=10,
                unscorable=1,
                median_rel_error=0.05,
                p90_rel_error=0.12,
                mean_exposed=310.0,
            )
        ]
        path = tmp_path / "recovery.csv"
        write_recovery_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "planted_r,cascades,unscorable,median_rel_error,"
            "p90_rel_error,mean_exposed"
        )
        assert lines[1] == "0.2,10,1,0.05,0.12,310"


# Bit equality with the string-set simulator (tests/helpers.py): ids that
# are not zero-padded, so string order is not numeric order.
NAMES = ("a", "b", "hub", "f1", "f2", "f9", "f10", "f11", "f100", "u2", "u10", "Z")
user_names = st.lists(
    st.one_of(st.sampled_from(NAMES), st.text("af019", min_size=1, max_size=3)),
    min_size=2,
    max_size=16,
    unique=True,
)
unit_activity = st.floats(0.0, 1.0, exclude_min=True)


def reference_edges_csv(edges):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["follower", "followee"])
    writer.writerows(edges)
    return buf.getvalue().encode("utf-8")


def written_edges_csv(world):
    with tempfile.TemporaryDirectory() as tmp:
        return write_world(world, [], [], tmp)["edges"].read_bytes()


class TestStringSetOracle:
    def test_knife_edge_activities(self):
        """Each follower's activity sits on its own uniform: a tie fails, one
        ulp above succeeds. Any other draw order, or a product rounded to
        float32, flips some of the fates."""
        names = sorted(f"f{i}" for i in range(40))
        draws = np.random.default_rng([3, 2, 0]).random(len(names))
        acts = {
            name: float(np.nextafter(u, 2.0)) if i % 2 else float(u)
            for i, (name, u) in enumerate(zip(names, draws))
        }
        world = hand_world([(f, "hub") for f in names], acts | {"hub": 1.0}, seed=3)
        sim = named(simulate_cascade(world, "hub", 1.0, 0))
        assert sim.successes == {name for i, name in enumerate(names) if i % 2}
        assert sim.exposed == set(names)

    @pytest.mark.parametrize("master_seed", [0, 5])
    def test_derived_records_equal_the_reference_records(self, master_seed):
        """Multi-round cascades: the records built from ids and round stamps
        are the records the string-set simulator builds as it goes."""
        config = SimConfig(
            graph=GraphSpec(n=120, p=0.05), r_values=(0.9,), master_seed=master_seed
        )
        world = generate_world(config)
        edges, _ = reference_generate_network(config)
        ref = reference_world(config, world.users, edges, dict(zip(world.users, world.alpha)))
        rounds = set()
        for index, seed_user in enumerate(seed_pool(world)):
            sim = simulate_cascade(world, seed_user, 0.9, index)
            expected = reference_simulate_cascade(ref, seed_user, 0.9, index).records
            assert sim.records == expected
            rounds.update(rec.timestamp for rec in expected)
        assert len(rounds) > 2

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), users=user_names, master_seed=st.integers(0, 2**32 - 1))
    def test_hand_world_cascades(self, data, users, master_seed):
        pairs = data.draw(
            st.lists(st.tuples(st.sampled_from(users), st.sampled_from(users)), max_size=60)
        )
        edges = [(a, b) for a, b in pairs if a != b]
        acts = {u: data.draw(unit_activity) for u in users}
        world = hand_world(edges, acts, seed=master_seed)
        ref = reference_world(world.config, world.users, edges, acts)
        assert follower_sets(world.follow) == ref.follow.followers
        for _ in range(3):
            seed_user = data.draw(st.sampled_from(users))
            r = data.draw(st.floats(0.0, 1.0 / max(acts.values())))
            index = data.draw(st.integers(0, 99_999))
            assert named(simulate_cascade(world, seed_user, r, index)) == (
                reference_simulate_cascade(ref, seed_user, r, index)
            )

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["directed-random", "planted-two-block"]),
        n=st.integers(2, 80),
        probs=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
        activity=st.sampled_from(
            [ActivitySpec(), ActivitySpec(kind="lognormal", sigma=1.5)]
        ),
        pool=st.sampled_from(["top-decile", "uniform"]),
        master_seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_world(self, data, kind, n, probs, activity, pool, master_seed):
        p, p_in, p_out = probs
        config = SimConfig(
            graph=GraphSpec(kind=kind, n=n, p=p, p_in=p_in, p_out=p_out),
            activity=activity,
            master_seed=master_seed,
            seed_pool=pool,
        )
        world = generate_world(config)
        edges, labels = reference_generate_network(config)
        ref = reference_world(config, world.users, edges, dict(zip(world.users, world.alpha)))
        assert follower_sets(world.follow) == ref.follow.followers
        assert world.block_labels == labels
        assert world.follow.n_edges == len(edges)
        assert seed_pool(world) == reference_seed_pool(ref)
        assert written_edges_csv(world) == reference_edges_csv(edges)
        r_max = 1.0 / world.alpha.max()
        for index in range(3):
            seed_user = data.draw(st.sampled_from(seed_pool(world)))
            r = data.draw(st.floats(0.0, r_max))
            assert named(simulate_cascade(world, seed_user, r, index)) == (
                reference_simulate_cascade(ref, seed_user, r, index)
            )
