"""Per-cascade exposure ledgers under the platform's two display rules.

Rule 1: followers of the origin author see only the original tweet, never a
retweet notification for it. Rule 2: everyone else sees at most the first
retweeting followee's notification. Together they imply each exposed user
gets exactly one timeline appearance, hence one Bernoulli trial.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .graph import FollowerNetwork, PartitionAssignment
from .ingest import Cascade


@dataclass(frozen=True)
class GroupScope:
    """The group a cascade mainly spreads in, with the assignment behind it."""

    assignment: PartitionAssignment
    main_group: int
    tie_fallback: bool = False

    def __post_init__(self) -> None:
        if self.main_group not in (0, 1):
            raise ValueError("main_group must be 0 or 1")


@dataclass(frozen=True)
class ExposureLedger:
    """Who was exposed to one cascade, who retweeted, and who did not.

    ``successes`` and ``failures`` partition ``exposed``; retweeters with no
    modeled exposure pathway are reported in ``unexposed_successes`` and sit
    outside the trial set unless they were explicitly included. Attribution
    maps each exposed user to the user whose event exposed them first (the
    origin author wins whenever followed, per Rule 1).
    """

    tweet_id: str
    origin_author: str
    group: int
    exposed: frozenset[str]
    successes: frozenset[str]
    failures: frozenset[str]
    unexposed_successes: frozenset[str]
    attribution: Mapping[str, str] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.successes & self.failures:
            raise ValueError("successes and failures overlap")
        if self.successes | self.failures != self.exposed:
            raise ValueError("exposed must equal successes plus failures")
        if self.origin_author in self.exposed:
            raise ValueError("origin author cannot be a trial")


def classified_counts(cascade: Cascade, assignment: PartitionAssignment) -> list[int]:
    """Unique retweeters per group, the origin author and unclassified users
    left out."""
    counts = [0, 0]
    seen: set[str] = set()
    for rt in cascade.retweets:
        u = rt.user_id
        if u in seen or u == cascade.origin.user_id:
            continue
        seen.add(u)
        g = assignment.groups.get(u)
        if g is not None:
            counts[g] += 1
    return counts


def main_group(cascade: Cascade, assignment: PartitionAssignment) -> int:
    """The main group of ``choose_scope``."""
    return choose_scope(cascade, assignment).main_group


def choose_scope(cascade: Cascade, assignment: PartitionAssignment) -> GroupScope:
    """Pick the group holding strictly more classified retweeters.

    Ties go to the origin author's group; if the author is unclassified too,
    group 0 is the deterministic fallback, recorded in ``tie_fallback``.
    """
    counts = classified_counts(cascade, assignment)
    if counts[0] == 0 and counts[1] == 0:
        raise ValueError(f"unscorable: cascade {cascade.tweet_id} has no classified retweeters")
    if counts[0] != counts[1]:
        return GroupScope(assignment, main_group=0 if counts[0] > counts[1] else 1)
    author_group = assignment.groups.get(cascade.origin.user_id)
    if author_group is None:
        return GroupScope(assignment, main_group=0, tie_fallback=True)
    return GroupScope(assignment, main_group=author_group)


def build_exposure_ledger(
    cascade: Cascade,
    follow: FollowerNetwork,
    scope: GroupScope,
    include_unexposed_retweeters: bool = False,
) -> ExposureLedger:
    """Single-trial exposure bookkeeping for one cascade within its main group.

    Exposure travels from the origin author and from main-group retweeters to
    their followers. ``first`` maps each main-group user to the position, in
    ``sources = [author, *events]``, of the earliest event that reaches them;
    the author comes first, so Rule 1 wins every tie. A retweeter counts as a
    success only when that event precedes their own retweet; a failure counts
    as exposed if any event in the whole cascade reaches them. Users outside
    the main group and their follow edges are disregarded, as is the origin
    author as a trial.
    """
    author = cascade.origin.user_id
    groups = scope.assignment.groups
    g = scope.main_group

    events = list(
        dict.fromkeys(
            rt.user_id
            for rt in cascade.retweets
            if rt.user_id != author and groups.get(rt.user_id) == g
        )
    )
    sources = [author, *events]

    first: dict[str, int] = {}
    seen = {author}
    for pos, source in enumerate(sources):
        fresh = follow.followers_of(source) - seen
        seen |= fresh
        for w in fresh:
            if groups.get(w) == g:
                first[w] = pos

    retweeters = set(events)
    successes = {u for k, u in enumerate(events) if first.get(u, k + 1) <= k}
    unexposed = retweeters - successes
    failures = first.keys() - retweeters
    attribution = {w: sources[pos] for w, pos in first.items() if w not in unexposed}

    flags: tuple[str, ...] = ()
    if include_unexposed_retweeters and unexposed:
        successes |= unexposed
        flags = ("included_unexposed_retweeters",)

    return ExposureLedger(
        tweet_id=cascade.tweet_id,
        origin_author=author,
        group=g,
        exposed=frozenset(successes | failures),
        successes=frozenset(successes),
        failures=frozenset(failures),
        unexposed_successes=frozenset(unexposed),
        attribution=attribution,
        flags=flags,
    )


def write_ledger_csv(ledgers: Iterable[ExposureLedger], path: str | Path) -> None:
    """Dump per-cascade trial counts, sorted by tweet id."""
    rows = sorted(ledgers, key=lambda led: led.tweet_id)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["tweet_id", "exposed", "successes", "failures", "unexposed_successes", "flags"]
        )
        for led in rows:
            writer.writerow(
                [
                    led.tweet_id,
                    len(led.exposed),
                    len(led.successes),
                    len(led.failures),
                    len(led.unexposed_successes),
                    ";".join(led.flags),
                ]
            )
