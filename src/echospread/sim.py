"""Synthetic worlds with planted virality for recovery experiments.

Cascades follow the same single-trial display-rule model the estimator
assumes: synchronous rounds, one Bernoulli(alpha_u * r) draw per exposed
user, round index as timestamp. The simulator therefore doubles as the
ground-truth oracle for the estimation pipeline.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .exposure import GroupScope, build_exposure_ledger
from .graph import FollowerNetwork, PartitionAssignment
from .ingest import TweetRecord, build_cascades, write_records_jsonl
from .virality import Boundary, mle_virality


@dataclass(frozen=True)
class GraphSpec:
    kind: str = "directed-random"
    n: int = 100
    p: float | None = 0.1
    p_in: float | None = None
    p_out: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in {"directed-random", "planted-two-block"}:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.n < 2:
            raise ValueError("need at least two nodes")
        probs = (
            (self.p,) if self.kind == "directed-random" else (self.p_in, self.p_out)
        )
        for prob in probs:
            if prob is None or not 0.0 <= prob <= 1.0:
                raise ValueError(f"degenerate edge probability {prob!r}")


@dataclass(frozen=True)
class ActivitySpec:
    kind: str = "uniform"
    lo: float = 0.2
    hi: float = 1.0
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in {"uniform", "lognormal"}:
            raise ValueError(f"unknown activity kind {self.kind!r}")
        if self.kind == "uniform" and not 0.0 < self.lo <= self.hi:
            raise ValueError("uniform activity needs 0 < lo <= hi")
        if self.kind == "lognormal" and self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class SimConfig:
    graph: GraphSpec = GraphSpec()
    activity: ActivitySpec = ActivitySpec()
    r_values: tuple[float, ...] = (0.1,)
    cascades_per_r: int = 10
    master_seed: int = 0
    seed_pool: str = "top-decile"

    def __post_init__(self) -> None:
        object.__setattr__(self, "r_values", tuple(float(r) for r in self.r_values))
        for r in self.r_values:
            if not 0.0 <= r <= 1.0:
                raise ValueError("planted r must lie in (0, 1]; 0 allowed for nulls")
        if self.cascades_per_r < 1:
            raise ValueError("cascades_per_r must be positive")
        if self.seed_pool not in {"top-decile", "uniform"}:
            raise ValueError(f"unknown seed_pool {self.seed_pool!r}")


@dataclass(frozen=True)
class SyntheticWorld:
    config: SimConfig
    users: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    activities: Mapping[str, float]
    follow: FollowerNetwork
    block_labels: Mapping[str, int] | None = None


@dataclass(frozen=True)
class SimCascade:
    tweet_id: str
    seed_user: str
    planted_r: float
    records: tuple[TweetRecord, ...]
    exposed: frozenset[str]
    successes: frozenset[str]
    failures: frozenset[str]


@dataclass(frozen=True)
class RecoveryRow:
    planted_r: float
    cascades: int
    unscorable: int
    median_rel_error: float
    p90_rel_error: float
    mean_exposed: float


def _user_ids(n: int) -> tuple[str, ...]:
    width = max(4, len(str(n - 1)))
    return tuple(f"u{i:0{width}d}" for i in range(n))


def generate_network(
    config: SimConfig,
) -> tuple[tuple[tuple[str, str], ...], dict[str, int] | None]:
    """Directed edges (follower, followee); planted blocks also get labels."""
    spec = config.graph
    users = _user_ids(spec.n)
    rng = np.random.default_rng([config.master_seed, 0])
    labels: dict[str, int] | None = None
    if spec.kind == "directed-random":
        mask = rng.random((spec.n, spec.n)) < spec.p
    else:
        half = spec.n // 2
        blocks = np.array([0] * half + [1] * (spec.n - half))
        same = blocks[:, None] == blocks[None, :]
        probs = np.where(same, spec.p_in, spec.p_out)
        mask = rng.random((spec.n, spec.n)) < probs
        labels = {u: int(b) for u, b in zip(users, blocks)}
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    edges = tuple((users[i], users[j]) for i, j in zip(rows, cols))
    return edges, labels


def generate_activities(config: SimConfig) -> dict[str, float]:
    """Per-user activity, normalized so the maximum is exactly 1."""
    spec = config.activity
    users = _user_ids(config.graph.n)
    rng = np.random.default_rng([config.master_seed, 1])
    if spec.kind == "uniform":
        vals = rng.uniform(spec.lo, spec.hi, size=len(users))
    else:
        vals = rng.lognormal(spec.mu, spec.sigma, size=len(users))
    vals = vals / vals.max()
    return {u: float(v) for u, v in zip(users, vals)}


def generate_world(config: SimConfig) -> SyntheticWorld:
    edges, labels = generate_network(config)
    users = _user_ids(config.graph.n)
    follow, dropped = FollowerNetwork.from_edges(edges, set(users))
    if dropped:
        raise RuntimeError("generated edges must all be valid")
    return SyntheticWorld(
        config=config,
        users=users,
        edges=edges,
        activities=generate_activities(config),
        follow=follow,
        block_labels=labels,
    )


def seed_pool(world: SyntheticWorld) -> tuple[str, ...]:
    """Candidate cascade seeds: top-decile follower counts by default."""
    if world.config.seed_pool == "uniform":
        return world.users
    ranked = sorted(
        world.users, key=lambda u: (-len(world.follow.followers_of(u)), u)
    )
    k = max(1, len(ranked) // 10)
    return tuple(ranked[:k])


def simulate_cascade(
    world: SyntheticWorld, seed_user: str, r: float, cascade_index: int
) -> SimCascade:
    """One synchronous-round cascade; each exposed user draws exactly once.

    Round 0 exposes the seed's followers; an activation in exposure round t
    is stamped t+1 and exposes its not-yet-exposed followers next round.
    """
    alpha_max = max(world.activities.values())
    if r > 1.0 / alpha_max + 1e-12:
        raise ValueError("planted r exceeds 1/max activity")
    rng = np.random.default_rng([world.config.master_seed, 2, cascade_index])
    tweet_id = f"sim{cascade_index:05d}"
    exposed: set[str] = set()
    successes: list[str] = []
    failures: set[str] = set()
    records = [
        TweetRecord(
            tweet_id=tweet_id,
            user_id=seed_user,
            timestamp=0,
            text=f"climate cascade {tweet_id} #ClimateCrisis",
            lang="en",
        )
    ]
    frontier = [seed_user]
    t = 0
    seq = 0
    while frontier:
        newly = sorted(
            set().union(*(world.follow.followers_of(u) for u in frontier))
            - exposed
            - {seed_user}
        )
        frontier = []
        for u in newly:
            exposed.add(u)
            if rng.random() < world.activities[u] * r:
                successes.append(u)
                frontier.append(u)
                records.append(
                    TweetRecord(
                        tweet_id=f"{tweet_id}-r{seq:05d}",
                        user_id=u,
                        timestamp=t + 1,
                        text=f"RT @{seed_user}: climate cascade {tweet_id}",
                        retweet_of=tweet_id,
                        lang="en",
                    )
                )
                seq += 1
            else:
                failures.add(u)
        t += 1
    return SimCascade(
        tweet_id=tweet_id,
        seed_user=seed_user,
        planted_r=r,
        records=tuple(records),
        exposed=frozenset(exposed),
        successes=frozenset(successes),
        failures=frozenset(failures),
    )


def simulate_corpus(
    world: SyntheticWorld,
) -> tuple[list[SimCascade], list[tuple[str, float, str]]]:
    """All configured cascades plus the ground-truth rows."""
    pool = seed_pool(world)
    seed_rng = np.random.default_rng([world.config.master_seed, 3])
    sims: list[SimCascade] = []
    truth: list[tuple[str, float, str]] = []
    index = 0
    for r in world.config.r_values:
        for _ in range(world.config.cascades_per_r):
            seed_user = pool[int(seed_rng.integers(len(pool)))]
            sim = simulate_cascade(world, seed_user, r, index)
            sims.append(sim)
            truth.append((sim.tweet_id, r, seed_user))
            index += 1
    return sims, truth


def write_world(
    world: SyntheticWorld,
    sims: Sequence[SimCascade],
    truth: Sequence[tuple[str, float, str]],
    out_dir: str | Path,
) -> dict[str, Path]:
    """Emit tweets.jsonl, edges.csv, and truth.csv in the pipeline schemas."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tweets = out / "tweets.jsonl"
    write_records_jsonl((rec for sim in sims for rec in sim.records), tweets)
    edges_path = out / "edges.csv"
    with open(edges_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["follower", "followee"])
        for follower, followee in world.edges:
            writer.writerow([follower, followee])
    truth_path = out / "truth.csv"
    with open(truth_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tweet_id", "planted_r", "seed_user"])
        for tweet_id, r, seed_user in truth:
            writer.writerow([tweet_id, f"{r:.12g}", seed_user])
    return {"tweets": tweets, "edges": edges_path, "truth": truth_path}


def world_scope(world: SyntheticWorld) -> GroupScope:
    """Every simulated user in one scoring group; sentinel keeps group 1 legal."""
    groups = {u: 0 for u in world.users}
    groups["__outside__"] = 1
    return GroupScope(PartitionAssignment(groups=groups), main_group=0)


def recovery_experiment(config: SimConfig) -> tuple[list[RecoveryRow], SyntheticWorld]:
    """Score simulated cascades with the true graph and planted activities.

    Relative error |r_hat - r| / r is summarized per planted r; cascades
    with zero successes cannot be scored and are counted separately.
    """
    world = generate_world(config)
    sims, _ = simulate_corpus(world)
    scope = world_scope(world)
    rows: list[RecoveryRow] = []
    by_r: dict[float, list[SimCascade]] = {}
    for sim in sims:
        by_r.setdefault(sim.planted_r, []).append(sim)
    for r in config.r_values:
        errors: list[float] = []
        exposures: list[int] = []
        unscorable = 0
        for sim in by_r[r]:
            cascades, _ = build_cascades(list(sim.records))
            ledger = build_exposure_ledger(cascades[0], world.follow, scope)
            exposures.append(len(ledger.exposed))
            est = mle_virality(ledger, world.activities)
            if est.boundary is Boundary.ZERO_SUCCESSES:
                unscorable += 1
            else:
                errors.append(abs(est.r_hat - r) / r)
        rows.append(
            RecoveryRow(
                planted_r=r,
                cascades=len(by_r[r]),
                unscorable=unscorable,
                median_rel_error=float(np.median(errors)) if errors else float("nan"),
                p90_rel_error=float(np.percentile(errors, 90)) if errors else float("nan"),
                mean_exposed=float(np.mean(exposures)),
            )
        )
    return rows, world


def write_recovery_csv(rows: Sequence[RecoveryRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "planted_r",
                "cascades",
                "unscorable",
                "median_rel_error",
                "p90_rel_error",
                "mean_exposed",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    f"{row.planted_r:.12g}",
                    row.cascades,
                    row.unscorable,
                    f"{row.median_rel_error:.12g}",
                    f"{row.p90_rel_error:.12g}",
                    f"{row.mean_exposed:.12g}",
                ]
            )
