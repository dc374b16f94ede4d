"""Synthetic worlds with planted virality for recovery experiments.

Cascades follow the same single-trial display-rule model the estimator
assumes: synchronous rounds, one Bernoulli(alpha_u * r) draw per exposed
user, round index as timestamp. The simulator therefore doubles as the
ground-truth oracle for the estimation pipeline.

A world holds its follow graph once, as the ``FollowerNetwork`` that the
exposure ledger reads: interned integers over a sorted user table, so
integer order is string order, and a compressed sparse row (CSR) layout
keyed by followee, built from the edge mask without a copy (see
``graph``). The activity array aligned with the table is derived once,
when the world is built. A simulated cascade keeps its outcome as ids into
the same table, and its tweet records are built only when they are read.

The output bytes rest on one stream invariant: a cascade draws exactly one
uniform per exposed user, in ascending id order, and takes each round's
draws as one batch from its own PCG64 stream. Because ids ascend with the
strings they stand for, this is the draw order of a simulator that sorts
user names, and a batch of k uniforms equals k single draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .csvio import write_csv
from .exposure import build_exposure_ledger
from .graph import FollowerNetwork, table_id
from .ingest import TweetRecord, build_cascades, chain_roots, write_records_jsonl
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
        for key in ("lo", "hi", "mu", "sigma"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
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
        if not self.r_values:
            raise ValueError("r_values must be nonempty")
        for r in self.r_values:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"r_values must be within [0, 1], got planted r {r}")
        if self.cascades_per_r < 1:
            raise ValueError("cascades_per_r must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be at least 0, got {self.master_seed}")
        if self.seed_pool not in {"top-decile", "uniform"}:
            raise ValueError(f"unknown seed_pool {self.seed_pool!r}")


@dataclass(frozen=True, eq=False)
class SyntheticWorld:
    """A world whose follow graph is one followee-keyed CSR, held in ``follow``,
    and whose activities are ``alpha``, float64 over the same user table.
    Equality compares ``alpha`` by value."""

    config: SimConfig
    follow: FollowerNetwork
    alpha: np.ndarray = field(repr=False)
    block_labels: Mapping[str, int] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SyntheticWorld):
            return NotImplemented
        return (self.config, self.follow, self.block_labels) == (
            other.config, other.follow, other.block_labels
        ) and np.array_equal(self.alpha, other.alpha)

    @property
    def users(self) -> tuple[str, ...]:
        return self.follow.users


@dataclass(frozen=True, eq=False)
class SimCascade:
    """One simulated cascade, its users held as ids into the world's table.

    ``retweeters`` are the activated users in activation order and
    ``rounds`` the round stamp of each; ``failures`` are the exposed users
    who did not retweet, ascending. ``successes`` and ``exposed`` are sorted
    id arrays derived from them, and ``records``, the cascade's tweet log, is
    built on each access, so it exists only while one use of it lasts.
    Equality compares the arrays by value.
    """

    tweet_id: str
    seed_user: str
    planted_r: float
    users: tuple[str, ...] = field(repr=False)
    retweeters: np.ndarray
    rounds: np.ndarray
    failures: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimCascade):
            return NotImplemented
        return (
            (self.tweet_id, self.seed_user, self.planted_r, self.users)
            == (other.tweet_id, other.seed_user, other.planted_r, other.users)
            and np.array_equal(self.retweeters, other.retweeters)
            and np.array_equal(self.rounds, other.rounds)
            and np.array_equal(self.failures, other.failures)
        )

    @property
    def successes(self) -> np.ndarray:
        return np.sort(self.retweeters)

    @property
    def exposed(self) -> np.ndarray:
        """Every trial user, ascending: ``successes`` and ``failures`` merged."""
        return np.sort(np.concatenate([self.retweeters, self.failures]))

    @property
    def records(self) -> tuple[TweetRecord, ...]:
        """The seed's tweet, then one retweet per activation in activation
        order, stamped with its round."""
        tweet_id = self.tweet_id
        text = f"RT @{self.seed_user}: climate cascade {tweet_id}"
        origin = TweetRecord(
            tweet_id=tweet_id,
            user_id=self.seed_user,
            timestamp=0,
            text=f"climate cascade {tweet_id} #ClimateCrisis",
            lang="en",
        )
        retweets = (
            TweetRecord(
                tweet_id=f"{tweet_id}-r{k:05d}",
                user_id=self.users[u],
                timestamp=t,
                text=text,
                retweet_of=tweet_id,
                lang="en",
            )
            for k, (u, t) in enumerate(zip(self.retweeters.tolist(), self.rounds.tolist()))
        )
        return (origin, *retweets)


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


# Rows of uniforms drawn at once, so the n x n float matrix is never held.
_ROW_BLOCK = 256


def follower_csr(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(follower_ptr, follower_idx) of a square mask; mask[i, j]: i follows j."""
    followee, follower = np.nonzero(mask.T)
    ptr = np.zeros(len(mask) + 1, dtype=np.int64)
    np.cumsum(np.bincount(followee, minlength=len(mask)), out=ptr[1:])
    return ptr, follower


def generate_network(
    config: SimConfig,
) -> tuple[np.ndarray, np.ndarray, dict[str, int] | None]:
    """Follower CSR of the generated graph; planted blocks also get labels.

    Edge (i, j) is present when uniform [i, j] of one row-major n x n draw
    falls below its probability. The draw is taken in row blocks; the
    generator fills in C order, so the values equal a one-shot draw's.
    """
    spec = config.graph
    n = spec.n
    rng = np.random.default_rng([config.master_seed, 0])
    blocks = np.repeat([0, 1], [n // 2, n - n // 2])
    mask = np.empty((n, n), dtype=bool)
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, min(start + _ROW_BLOCK, n))
        if spec.kind == "directed-random":
            probs = spec.p
        else:
            same = blocks[rows, None] == blocks[None, :]
            probs = np.where(same, spec.p_in, spec.p_out)
        mask[rows] = rng.random((rows.stop - start, n)) < probs
    np.fill_diagonal(mask, False)
    labels: dict[str, int] | None = None
    if spec.kind == "planted-two-block":
        labels = {u: int(b) for u, b in zip(_user_ids(n), blocks)}
    return (*follower_csr(mask), labels)


def generate_activities(config: SimConfig) -> np.ndarray:
    """Per-user activity over ``_user_ids(n)``, normalized so the maximum is
    exactly 1. A lognormal draw whose largest value overflows or underflows
    cannot be normalized and is rejected."""
    spec = config.activity
    rng = np.random.default_rng([config.master_seed, 1])
    if spec.kind == "uniform":
        vals = rng.uniform(spec.lo, spec.hi, size=config.graph.n)
    else:
        vals = rng.lognormal(spec.mu, spec.sigma, size=config.graph.n)
    peak = float(vals.max())
    if not (math.isfinite(peak) and peak > 0.0):
        raise ValueError(
            f"mu and sigma must be such that the largest activity drawn is finite "
            f"and positive; mu={spec.mu}, sigma={spec.sigma} drew {peak}"
        )
    return vals / peak


def generate_world(config: SimConfig) -> SyntheticWorld:
    follower_ptr, follower_idx, labels = generate_network(config)
    return SyntheticWorld(
        config=config,
        follow=FollowerNetwork(_user_ids(config.graph.n), follower_ptr, follower_idx),
        alpha=generate_activities(config),
        block_labels=labels,
    )


def seed_pool(world: SyntheticWorld) -> tuple[str, ...]:
    """Candidate cascade seeds: top-decile follower counts by default."""
    if world.config.seed_pool == "uniform":
        return world.users
    # A stable sort of ascending ids ranks ties by name, as users are sorted.
    ranked = np.argsort(-np.diff(world.follow.follower_ptr), kind="stable")
    k = max(1, len(world.users) // 10)
    return tuple(world.users[i] for i in ranked[:k].tolist())


def simulate_cascade(
    world: SyntheticWorld, seed_user: str, r: float, cascade_index: int
) -> SimCascade:
    """One synchronous-round cascade; each exposed user draws exactly once.

    Round 0 exposes the seed's followers; an activation in exposure round t
    is stamped t+1 and exposes its not-yet-exposed followers next round.
    When no one is left to expose, the users seen less the seed and the
    retweeters are the failures, ascending.
    """
    if r > 1.0 / float(world.alpha.max()) + 1e-12:
        raise ValueError("planted r exceeds 1/max activity")
    users = world.users
    try:
        seed = table_id(users, seed_user)
    except ValueError:
        raise ValueError(f"unknown seed user {seed_user!r}") from None
    ptr, idx = world.follow.follower_ptr, world.follow.follower_idx
    rng = np.random.default_rng([world.config.master_seed, 2, cascade_index])
    seen = np.zeros(len(users), dtype=bool)
    seen[seed] = True
    activated: list[np.ndarray] = []
    frontier = [seed]
    while frontier:
        reach = np.zeros(len(users), dtype=bool)
        reach[np.concatenate([idx[ptr[u] : ptr[u + 1]] for u in frontier])] = True
        reach[seen] = False
        newly = np.flatnonzero(reach)
        seen[newly] = True
        hits = newly[rng.random(len(newly)) < world.alpha[newly] * r]
        activated.append(hits)
        frontier = hits.tolist()
    retweeters = np.concatenate(activated)
    seen[seed] = False
    seen[retweeters] = False
    return SimCascade(
        tweet_id=f"sim{cascade_index:05d}",
        seed_user=seed_user,
        planted_r=r,
        users=users,
        retweeters=retweeters,
        rounds=np.repeat(np.arange(1, len(activated) + 1), [len(h) for h in activated]),
        failures=np.flatnonzero(seen),
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
    users, ptr, idx = world.users, world.follow.follower_ptr, world.follow.follower_idx
    followee = np.repeat(np.arange(len(users)), np.diff(ptr))
    order = np.lexsort((followee, idx))
    write_csv(
        edges_path,
        ["follower", "followee"],
        ((users[i], users[j]) for i, j in zip(idx[order].tolist(), followee[order].tolist())),
    )
    truth_path = out / "truth.csv"
    write_csv(
        truth_path,
        ["tweet_id", "planted_r", "seed_user"],
        ([tweet_id, f"{r:.12g}", seed_user] for tweet_id, r, seed_user in truth),
    )
    return {"tweets": tweets, "edges": edges_path, "truth": truth_path}


def world_groups(world: SyntheticWorld) -> np.ndarray:
    """Every simulated user in one scoring group, group 0."""
    return np.zeros(len(world.users), dtype=np.int8)


def recovery_experiment(config: SimConfig) -> tuple[list[RecoveryRow], SyntheticWorld]:
    """Score simulated cascades with the true graph and planted activities.

    Relative error |r_hat - r| / r is summarized per planted r; cascades
    with zero successes cannot be scored and are counted separately.
    """
    world = generate_world(config)
    sims, _ = simulate_corpus(world)
    groups = world_groups(world)
    rows: list[RecoveryRow] = []
    by_r: dict[float, list[SimCascade]] = {}
    for sim in sims:
        by_r.setdefault(sim.planted_r, []).append(sim)
    for r in dict.fromkeys(config.r_values):
        errors: list[float] = []
        exposures: list[int] = []
        unscorable = 0
        for sim in by_r[r]:
            records = sim.records
            cascades, _ = build_cascades(records, chain_roots(records), world.users)
            ledger = build_exposure_ledger(cascades[0], world.follow, groups, 0)
            exposures.append(len(ledger.exposed))
            est = mle_virality(ledger, world.alpha)
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
    write_csv(
        path,
        ["planted_r", "cascades", "unscorable", "median_rel_error", "p90_rel_error",
         "mean_exposed"],
        (
            [f"{row.planted_r:.12g}", row.cascades, row.unscorable,
             f"{row.median_rel_error:.12g}", f"{row.p90_rel_error:.12g}",
             f"{row.mean_exposed:.12g}"]
            for row in rows
        ),
    )
