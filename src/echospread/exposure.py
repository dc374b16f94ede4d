"""Per-cascade exposure ledgers under the platform's two display rules.

Rule 1: followers of the origin author see only the original tweet, never a
retweet notification for it. Rule 2: everyone else sees at most the first
retweeting followee's notification. Together they imply each exposed user
gets exactly one timeline appearance, hence one Bernoulli trial.

Cascades, the follow graph and the partition share one sorted user table
(see ``graph``), so a ledger is built on ids alone: ``successes``,
``failures`` and ``unexposed_successes`` are sorted int64 id arrays,
``exposed`` is the first two merged, attribution is one source id per
exposed user, and the ledger keeps the table for names. It is built by
walking the followee-keyed CSR with a boolean ``seen`` and an integer
``first`` over the table, so its cost follows the exposed audience rather
than string sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import FollowerNetwork
from .ingest import Cascade, classified_counts


@dataclass(frozen=True, eq=False)
class ExposureLedger:
    """Who was exposed to one cascade, who retweeted, and who did not.

    Users are ids into ``users``, the follow graph's table, held as sorted
    int64 arrays. ``successes`` and ``failures`` partition ``exposed``;
    retweeters with no modeled exposure pathway are reported in
    ``unexposed_successes`` and sit outside the trial set unless they were
    explicitly included. ``attribution[i]`` is the id of the user whose
    event exposed ``exposed[i]`` first (the origin author wins whenever
    followed, per Rule 1), or -1 for an included unexposed retweeter.
    ``author`` is the origin author's id, -1 for a stub origin.
    """

    tweet_id: str
    author: int
    group: int
    users: tuple[str, ...] = field(repr=False)
    successes: np.ndarray
    failures: np.ndarray
    unexposed_successes: np.ndarray
    attribution: np.ndarray
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        trials = self.exposed
        if np.any(trials[1:] == trials[:-1]):
            raise ValueError("successes and failures overlap")
        if self.author in trials:
            raise ValueError("origin author cannot be a trial")

    @property
    def exposed(self) -> np.ndarray:
        """Every trial user, ascending: ``successes`` and ``failures`` merged."""
        return np.sort(np.concatenate([self.successes, self.failures]))


LEDGER_COLUMNS = ["tweet_id", "exposed", "successes", "failures", "unexposed_successes", "flags"]


def ledger_row(ledger: ExposureLedger) -> list:
    """The ledger's ``ledgers.csv`` row under ``LEDGER_COLUMNS``: its trial counts."""
    return [ledger.tweet_id, len(ledger.exposed), len(ledger.successes),
            len(ledger.failures), len(ledger.unexposed_successes), ";".join(ledger.flags)]


def choose_scope(cascade: Cascade, groups: np.ndarray) -> int:
    """The main group: the one holding strictly more classified retweeters.

    Ties go to the origin author's group; if the author is unclassified too,
    group 0 is the deterministic fallback. A cascade with no classified
    retweeter cannot be scored and raises ValueError.
    """
    counts = classified_counts(cascade, groups)
    if counts[0] == 0 and counts[1] == 0:
        raise ValueError(f"unscorable: cascade {cascade.tweet_id} has no classified retweeters")
    if counts[0] != counts[1]:
        return 0 if counts[0] > counts[1] else 1
    return max(int(groups[cascade.author]), 0) if cascade.author >= 0 else 0


def build_exposure_ledger(
    cascade: Cascade,
    follow: FollowerNetwork,
    user_groups: np.ndarray,
    group: int,
    include_unexposed_retweeters: bool = False,
) -> ExposureLedger:
    """Single-trial exposure bookkeeping for one cascade within its main group.

    Exposure travels from the origin author and from main-group retweeters to
    their followers. ``first`` holds, for each main-group user, the position
    in ``sources = [author, *events]`` of the earliest event that reaches
    them, or -1; the author comes first, so Rule 1 wins every tie. A
    retweeter counts as a success only when that event precedes their own
    retweet; a failure counts as exposed if any event in the whole cascade
    reaches them. Users outside the main group and their follow edges are
    disregarded, as is the origin author as a trial. A stub origin's author
    (-1) has no followers. The cascade and ``user_groups``, the partition,
    are over the follow graph's table; ``group`` is the main group.
    """
    ptr, idx = follow.follower_ptr, follow.follower_idx
    users = follow.users
    n = len(users)
    if group not in (0, 1):
        raise ValueError("group must be 0 or 1")
    if len(user_groups) != n:
        raise ValueError("the user groups do not match the follow table")
    in_group = user_groups == group
    author = cascade.author
    ids = cascade.retweeters
    sources = np.concatenate([[author], ids[(ids != author) & in_group[ids]]])

    seen = np.zeros(n, dtype=bool)
    n_seen = 0
    if author >= 0:
        seen[author] = True
        n_seen = 1
    first = np.full(n, -1, dtype=np.int64)
    for pos, source in enumerate(sources.tolist()):
        if n_seen == n:
            break
        if source < 0:
            continue
        reach = idx[ptr[source] : ptr[source + 1]]
        fresh = reach[~seen[reach]]
        seen[fresh] = True
        n_seen += len(fresh)
        first[fresh[in_group[fresh]]] = pos

    retweeters = sources[1:]
    hit = first[retweeters]
    late = (hit < 0) | (hit > np.arange(len(retweeters)))
    unexposed = np.sort(retweeters[late])
    first[unexposed] = -1  # an unexposed retweeter has no attributed exposure
    failed = first >= 0
    failed[retweeters] = False
    success = np.zeros(n, dtype=bool)
    success[retweeters[~late]] = True

    flags: tuple[str, ...] = ()
    if include_unexposed_retweeters and unexposed.size:
        success[unexposed] = True
        flags = ("included_unexposed_retweeters",)
    at = first[success | failed]

    return ExposureLedger(
        tweet_id=cascade.tweet_id,
        author=author,
        group=group,
        users=users,
        successes=np.flatnonzero(success),
        failures=np.flatnonzero(failed),
        unexposed_successes=unexposed,
        attribution=np.where(at >= 0, sources[at], -1),
        flags=flags,
    )
