"""Planted two-block world for the benchmark, generated without echospread.

The generator implements the model the package simulates (a two-block
follower graph and single-trial Bernoulli(alpha * r) cascades in synchronous
rounds) in plain numpy, without importing echospread, so a change to
``echospread.sim`` cannot change the inputs that a parent commit and its
change are measured on. Users of the other block than the origin's retweet
with odds scaled by ``cross_affinity``: without it a supercritical cascade
that leaks across floods both blocks and no two sides remain.

Everything is a function of the seed. User, cascade, label and in-block
follow counts are fixed, and every seed has as many cascades at each planted
r, so from seed to seed mostly the shapes of the cascades vary.

Inputs written (the pipeline's schemas):

    tweets.jsonl      cascades, off-topic chatter, a few foreign-language
                      and reply records, and a few truncated lines
    edges.csv         follower,followee
    labels_c1..c3.csv three coder sheets over the cascade originals
    config.json       the pipeline config pointing at the files above
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURES = ("endorses_action", "humor", "links_evidence", "crowd_size")
# Per-block Bernoulli rates of the true content features of an original.
FEATURE_RATES = ((0.7, 0.2, 0.5, 0.4), (0.25, 0.45, 0.35, 0.15))
CODER_FLIP = (0.0, 0.06, 0.1)
BLOCK_TAGS = ("#ClimateCrisis", "#ClimateHoax")
BLOCK_WORDS = (
    ("action", "renewables", "strike", "science", "future", "solar", "justice",
     "emissions", "march", "transition", "wind", "youth"),
    ("taxes", "alarmism", "freedom", "models", "weather", "money", "elites",
     "panic", "cold", "agenda", "cost", "lies"),
)
SHARED_WORDS = ("today", "people", "news", "policy", "world", "debate")
CHATTER_WORDS = ("coffee", "weekend", "football", "music", "lunch", "traffic",
                 "movie", "garden", "train", "birthday", "rain", "book")


@dataclass(frozen=True)
class WorldSpec:
    users: int = 400              # split into two equal blocks
    follows_in: int = 16          # followees per user inside its own block
    cross_share: float = 0.1      # share of users following one user across
    cross_affinity: float = 0.05  # retweet odds factor across blocks
    cascades: int = 80            # half seeded in each block
    authors_per_block: int = 8    # cascade seeds: the most-followed users
    r_levels: tuple[float, ...] = (0.2, 0.4, 0.6)
    chatter_max: int = 50         # off-topic tweets of the most active user
    bridges: int = 8              # cross-block retweets outside the model
    noise_records: int = 40       # foreign-language and reply records
    malformed_lines: int = 20     # truncated JSON lines


@dataclass(frozen=True)
class WorldInfo:
    records: int
    lines: int
    users: int
    follow_edges: int
    cascades: int
    retweets: int


def _user_ids(n: int) -> list[str]:
    return [f"u{i:05d}" for i in range(n)]


def _follow_edges(spec: WorldSpec, rng: np.random.Generator) -> np.ndarray:
    """(follower, followee) index pairs; each user follows a fixed number of
    distinct users in its own block, and a few users one across."""
    half = spec.users // 2
    pairs = []
    for u in range(spec.users):
        own = 0 if u < half else half
        other = half - own
        inside = rng.choice(half - 1, size=spec.follows_in, replace=False)
        inside = inside + (inside >= u - own)  # skip u itself
        pairs.extend((u, own + int(v)) for v in inside)
        if rng.random() < spec.cross_share:
            pairs.append((u, other + int(rng.integers(half))))
    return np.array(sorted(pairs), dtype=np.int64)


def _record(tweet_id, user, ts, text, retweet_of=None, reply_to=None, lang="en"):
    return {
        "tweet_id": tweet_id,
        "user_id": user,
        "timestamp": int(ts),
        "text": text,
        "retweet_of": retweet_of,
        "reply_to": reply_to,
        "lang": lang,
    }


def _origin_text(block: int, features: np.ndarray, rng: np.random.Generator,
                 mention: str) -> str:
    words = list(rng.choice(BLOCK_WORDS[block], size=4, replace=False))
    words += list(rng.choice(SHARED_WORDS, size=2, replace=False))
    text = "climate " + " ".join(words) + " " + BLOCK_TAGS[block]
    if features[2]:
        text += " https://example.org/report"
    # Hashtag and mention counts are regressors too; keep them independent of
    # the coded features so the design is not collinear.
    if rng.random() < 0.3:
        text += f" with @{mention}"
    if rng.random() < 0.3:
        text += " #" + str(rng.choice(BLOCK_WORDS[block]))
    return text


def generate(spec: WorldSpec, seed: int, out: Path) -> WorldInfo:
    """Write one world under ``out`` and describe it."""
    rng = np.random.default_rng([seed, 7])
    out.mkdir(parents=True, exist_ok=True)
    users = _user_ids(spec.users)
    half = spec.users // 2
    edges = _follow_edges(spec, rng)
    followers: list[list[int]] = [[] for _ in range(spec.users)]
    for follower, followee in edges:
        followers[followee].append(int(follower))

    # Planned activity drives both the cascade draws and the chatter volume,
    # so the program's record-count activities roughly track it.
    alpha = rng.uniform(0.2, 1.0, size=spec.users)
    alpha /= alpha.max()
    block_of = np.arange(spec.users) >= half

    records: list[dict] = []
    for u in range(spec.users):
        for k in range(int(round(alpha[u] * spec.chatter_max))):
            words = rng.choice(CHATTER_WORDS, size=5)
            records.append(_record(f"c{u:05d}-{k:02d}", users[u],
                                   int(rng.integers(0, 10**6)), " ".join(words)))

    authors = []
    for block in (0, 1):
        lo = block * half
        by_reach = sorted(range(lo, lo + half), key=lambda v: (-len(followers[v]), v))
        authors.append(by_reach[: spec.authors_per_block])

    originals: list[tuple[str, int, np.ndarray]] = []
    n_retweets = 0
    for c in range(spec.cascades):
        block = c % 2
        seed_user = authors[block][(c // 2) % spec.authors_per_block]
        # Virality carries planted content effects: r = r_levels[endorses_action
        # + links_evidence]. Levels take turns, so every seed has as many
        # cascades at each r; the other two features follow the block's rates.
        level = (c // 2) % len(spec.r_levels)
        features = (rng.random(len(FEATURES)) < FEATURE_RATES[block]).astype(int)
        features[0] = level // 2 if level != 1 else rng.integers(2)
        features[2] = level - features[0]
        r = spec.r_levels[level]
        tweet_id = f"t{c:05d}"
        ts0 = 10_000 * (c + 1)
        mention = users[int(rng.integers(spec.users))]
        text = _origin_text(block, features, rng, mention)
        records.append(_record(tweet_id, users[seed_user], ts0, text))
        originals.append((tweet_id, block, features, users[seed_user], text))

        exposed = np.zeros(spec.users, dtype=bool)
        exposed[seed_user] = True
        frontier = [seed_user]
        rnd = 0
        while frontier:
            newly = sorted({f for v in frontier for f in followers[v] if not exposed[f]})
            exposed[newly] = True
            draws = rng.random(len(newly))
            p = alpha[newly] * r * np.where(block_of[newly] == block, 1.0,
                                            spec.cross_affinity)
            frontier = [f for f, d, pf in zip(newly, draws, p) if d < pf]
            jitter = rng.integers(0, 50, size=len(frontier))
            for f, j in zip(frontier, jitter):
                records.append(_record(
                    f"{tweet_id}-r{n_retweets:06d}", users[f], ts0 + 60 * (rnd + 1) + j,
                    f"RT @{users[seed_user]}: {text}", retweet_of=tweet_id))
                n_retweets += 1
            rnd += 1

    # Without a retweet across the blocks the retweet network falls apart in
    # two components and the partitioner splits one side; a few bridges,
    # alternately into each block, keep it whole for every seed.
    for k in range(spec.bridges):
        c = 2 * int(rng.integers(spec.cascades // 2)) + k % 2
        tweet_id, block, _, author, text = originals[c]
        user = users[(1 - block) * half + int(rng.integers(half))]
        records.append(_record(f"{tweet_id}-x{k:02d}", user, 10_000 * (c + 1) + 5_000,
                               f"RT @{author}: {text}", retweet_of=tweet_id))

    for k in range(spec.noise_records):
        u = users[int(rng.integers(spec.users))]
        if k % 2:
            records.append(_record(f"n{k:04d}", u, int(rng.integers(0, 10**6)),
                                   "el clima cambia #ClimateCrisis", lang="es"))
        else:
            target = originals[int(rng.integers(len(originals)))][0]
            records.append(_record(f"n{k:04d}", u, int(rng.integers(0, 10**6)),
                                   "climate reply, not a retweet", reply_to=target))

    order = rng.permutation(len(records))
    lines = [json.dumps(records[i], sort_keys=True) for i in order]
    for k, pos in enumerate(sorted(rng.choice(len(lines), spec.malformed_lines,
                                              replace=False))):
        lines.insert(int(pos) + k, lines[int(pos) + k][: 40])

    with open(out / "tweets.jsonl", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(out / "edges.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["follower", "followee"])
        writer.writerows((users[a], users[b]) for a, b in edges)
    for coder, flip in enumerate(CODER_FLIP, start=1):
        with open(out / f"labels_c{coder}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["tweet_id", *FEATURES])
            for tweet_id, _, features, _, _ in originals:
                flips = rng.random(len(FEATURES)) < flip
                writer.writerow([tweet_id, *(features ^ flips).tolist()])
    config = {
        "tweets": "tweets.jsonl",
        "edges": "edges.csv",
        "labels": ["labels_c1.csv", "labels_c2.csv", "labels_c3.csv"],
        "seed": seed,
        "balance_tol": 0.1,
        "min_author_tweets": 3,
        "folds": 5,
        "top_k": 30,
        "threshold": 0,
        "lambda_grid": 10,
        "group_only_features": {"activist": ["crowd_size"]},
    }
    (out / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return WorldInfo(
        records=len(records),
        lines=len(lines),
        users=spec.users,
        follow_edges=len(edges),
        cascades=spec.cascades,
        retweets=n_retweets,
    )
