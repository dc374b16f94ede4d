"""Tweet-record ingestion: parsing, corpus filtering, and cascade assembly.

Input is a JSONL file with one record per (re)tweet:

    {"tweet_id": str, "user_id": str, "timestamp": int, "text": str,
     "retweet_of": str|null, "reply_to": str|null, "lang": str|null}

A cascade is one original tweet plus the users who retweeted it, in the
order of their first retweet, held as ids into the sorted table of the
corpus's users.

One chain rule serves filtering, the seed hashtag pairs and cascades: the
root of a record is the last record on its ``retweet_of`` chain that is in
the corpus (the record itself for an original or for a retweet of an absent
tweet), and a record whose chain runs into a cycle has no root. A retweet
carries its root's content, so it is topical, matches a seed pair and joins
a cascade through its root; a record without a root does none of these.
``filter_corpus`` walks the whole corpus with ``chain_roots`` and returns the
kept records' roots, which the seed pairs and the cascades take.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

HASHTAG_RE = re.compile(r"#\w+")


@dataclass(frozen=True, slots=True)
class TweetRecord:
    """One log line: an original tweet or a retweet event."""

    tweet_id: str
    user_id: str
    timestamp: int
    text: str
    retweet_of: str | None = None
    reply_to: str | None = None
    lang: str | None = None

    def __post_init__(self) -> None:
        for value in (self.tweet_id, self.user_id, self.text):
            if not isinstance(value, str):
                raise ValueError("tweet_id, user_id and text must be strings")
        if isinstance(self.timestamp, bool) or not isinstance(self.timestamp, int):
            raise ValueError("timestamp must be an integer")
        for value in (self.retweet_of, self.reply_to, self.lang):
            if value is not None and not isinstance(value, str):
                raise ValueError("retweet_of, reply_to and lang must be strings or null")
        if not self.tweet_id:
            raise ValueError("tweet_id must be nonempty")
        if self.retweet_of is not None and self.retweet_of == self.tweet_id:
            raise ValueError(f"record {self.tweet_id} retweets itself")
        if self.retweet_of == "":
            raise ValueError(f"record {self.tweet_id} has an empty retweet_of")
        if self.timestamp < 0:
            raise ValueError(f"record {self.tweet_id} has negative timestamp")


# The corpus rule. A record is topical when its chain root is in English and
# its text contains TOPIC, case-insensitively. A user is eligible when they
# posted or retweeted a record whose root carries one hashtag token holding
# both stems of a seed pair, e.g. #ClimateCrisis matches ("climate", "crisis").
TOPIC = "climate"
LANGS = frozenset({"en"})
# The seed hashtag pair that marks the skeptic side of the debate.
SKEPTIC_PAIR = ("climate", "hoax")
SEED_PAIRS = (("climate", "crisis"), SKEPTIC_PAIR)


@dataclass(frozen=True, eq=False)
class Cascade:
    """An origin tweet and its retweeters, as ids into a sorted user table.

    ``retweeters`` holds one id per retweeting user, ordered by their
    earliest retweet event's (timestamp, tweet_id). ``author`` is -1 for a
    stub origin, a tweet absent from the corpus that its retweets reference;
    a stub's ``text`` is its first retweet's. ``timestamp_inversion`` marks
    cascades where some retweet carries a timestamp earlier than the origin
    (the event is kept; the origin always precedes it in cascade order).
    """

    tweet_id: str
    text: str
    author: int
    retweeters: np.ndarray = field(repr=False)
    timestamp_inversion: bool = False


def classified_counts(cascade: Cascade, groups: np.ndarray) -> list[int]:
    """Retweeters per group, the origin author and unclassified users left
    out; ``groups`` is the partition over the cascade's user table."""
    g = groups[cascade.retweeters[cascade.retweeters != cascade.author]]
    return [int(np.count_nonzero(g == 0)), int(np.count_nonzero(g == 1))]


@dataclass
class ParseReport:
    lines: int = 0
    parsed: int = 0
    malformed: int = 0
    duplicates: int = 0


@dataclass
class CascadeReport:
    cascades: int = 0
    stub_origins: int = 0
    collapsed_duplicates: int = 0
    dropped_cycles: int = 0
    inversions: int = 0


_REQUIRED = ("tweet_id", "user_id", "timestamp", "text")
_OPTIONAL = ("retweet_of", "reply_to", "lang")
# Fields whose values repeat across a corpus; ``parse_records`` keeps one copy
# of each distinct string.
_SHARED = ("user_id", "retweet_of", "reply_to", "lang")


def _record_from_obj(obj: object) -> TweetRecord:
    """A record from a JSON object; ``TweetRecord`` checks the field types.
    An empty ``user_id`` is malformed."""
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    for key in _REQUIRED:
        if key not in obj:
            raise ValueError(f"missing field {key}")
    if obj["user_id"] == "":
        raise ValueError("user_id must be nonempty")
    return TweetRecord(
        tweet_id=obj["tweet_id"],
        user_id=obj["user_id"],
        timestamp=obj["timestamp"],
        text=obj["text"],
        retweet_of=obj.get("retweet_of"),
        reply_to=obj.get("reply_to"),
        lang=obj.get("lang"),
    )


def parse_records(path: str | Path) -> tuple[list[TweetRecord], ParseReport]:
    """Parse a JSONL tweet file, skipping malformed lines and duplicate ids.

    The first occurrence of a tweet_id wins; later ones are dropped and
    counted. A line that is not valid UTF-8 is malformed like one that is not
    valid JSON. Unreadable files raise OSError. Equal ``_SHARED`` strings are
    one object across the records of one call.
    """
    report = ParseReport()
    records: list[TweetRecord] = []
    seen: set[str] = set()
    shared: dict[str, str] = {}
    with open(path, "rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            report.lines += 1
            try:
                obj = json.loads(line.decode("utf-8"))
                if isinstance(obj, dict):
                    for key in _SHARED:
                        value = obj.get(key)
                        if isinstance(value, str):
                            obj[key] = shared.setdefault(value, value)
                rec = _record_from_obj(obj)
            except ValueError:  # bad UTF-8, bad JSON or a bad field
                report.malformed += 1
                continue
            if rec.tweet_id in seen:
                report.duplicates += 1
                continue
            seen.add(rec.tweet_id)
            records.append(rec)
            report.parsed += 1
    return records, report


def write_records_jsonl(records: Iterable[TweetRecord], path: str | Path) -> None:
    """Write records in the input schema, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {key: getattr(rec, key) for key in _REQUIRED + _OPTIONAL}
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def compute_activities(records: Sequence[TweetRecord]) -> dict[str, int]:
    """Per-user activity counts over the pre-filter corpus: every original
    and retweet a user produced counts once. A user absent from the records
    has no entry and must be treated as activity zero (never a valid trial)."""
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.user_id] = counts.get(rec.user_id, 0) + 1
    return counts


def chain_roots(
    records: Sequence[TweetRecord], exclude_replies: bool = False
) -> list[TweetRecord | None]:
    """The root of each of ``records``, whose tweet ids must be distinct, in
    order: the last record on its ``retweet_of`` chain that is among
    ``records``. None when the chain runs into a cycle or, with
    ``exclude_replies``, holds a reply.

    Each walk stops at the first record already resolved and then resolves
    every record it passed, so the cost is linear in the corpus even on long
    retweet-of-retweet chains.
    """
    by_id = {rec.tweet_id: rec for rec in records}
    if len(by_id) != len(records):
        raise ValueError("chain_roots needs distinct tweet ids")
    roots: dict[str, TweetRecord | None] = {}
    for rec in records:
        chain: list[str] = []
        cur = rec
        root = None
        # A record on the current walk maps to None until the walk ends, so
        # meeting it again reads as the cycle it is.
        while cur.tweet_id not in roots:
            roots[cur.tweet_id] = None
            chain.append(cur.tweet_id)
            if exclude_replies and cur.reply_to is not None:
                break
            parent = by_id.get(cur.retweet_of) if cur.retweet_of is not None else None
            if parent is None:
                root = cur
                break
            cur = parent
        else:
            root = roots[cur.tweet_id]
        for tweet_id in chain:
            roots[tweet_id] = root
    return [roots[rec.tweet_id] for rec in records]


def seed_pair_users(
    records: Sequence[TweetRecord], roots: Sequence[TweetRecord | None], users: Sequence[str]
) -> dict[tuple[str, str], np.ndarray]:
    """Per pair of ``SEED_PAIRS``, a bool mask over the sorted table ``users``
    of every record's user: who posted or retweeted a record matching it.

    ``roots`` are the records' ``chain_roots``. A record matches through its
    root's text, since a retweet shares its origin's content; a record
    without a root matches nothing.
    """
    index = {u: k for k, u in enumerate(users)}
    matches = {pair: np.zeros(len(users), dtype=bool) for pair in SEED_PAIRS}
    matched: dict[str, list[np.ndarray]] = {}
    for rec, root in zip(records, roots):
        if root is None:
            continue
        hits = matched.get(root.tweet_id)
        if hits is None:
            tags = HASHTAG_RE.findall(root.text.lower())
            hits = matched[root.tweet_id] = [
                mask
                for (base, qualifier), mask in matches.items()
                if any(base in tag and qualifier in tag for tag in tags)
            ]
        for mask in hits:
            mask[index[rec.user_id]] = True
    return matches


def filter_corpus(records: Sequence[TweetRecord]) -> tuple[list[TweetRecord], list[TweetRecord]]:
    """The topical records, in input order, and the ``chain_roots`` of each.

    ``records`` must have distinct tweet ids, as ``parse_records`` returns
    them. A record is topical when its chain has a root and holds no reply,
    and the root's language is in ``LANGS`` and its text contains ``TOPIC``
    case-insensitively. So a retweet whose origin is present is kept exactly
    when the origin is, and one whose origin is absent is tested on its own
    fields. Every record on a kept record's chain is kept too, so the roots
    are the same in the topical records as in ``records``, and filtering is
    idempotent.
    """
    roots = chain_roots(records, exclude_replies=True)
    keep = [k for k, root in enumerate(roots)
            if root is not None and root.lang in LANGS and TOPIC in root.text.lower()]
    return [records[k] for k in keep], [roots[k] for k in keep]


def build_cascades(
    records: Sequence[TweetRecord], roots: Sequence[TweetRecord | None], users: Sequence[str]
) -> tuple[list[Cascade], CascadeReport]:
    """Assemble one cascade per origin tweet from filtered records and their
    ``chain_roots``, over the sorted user table ``users``, which holds every
    record's user.

    A retweet joins the cascade of its chain root, or of the absent tweet
    that root retweets; a retweet without a root (a cycle) is dropped and
    counted. Repeated retweets by one user collapse to the earliest event.
    Retweets whose origin record is absent make a stub origin cascade. The
    cascades come in tweet-id order.
    """
    report = CascadeReport()
    index = {u: k for k, u in enumerate(users)}
    grouped: dict[str, list[TweetRecord]] = {}
    for rec, root in zip(records, roots):
        if rec.retweet_of is None:
            continue
        if root is None:
            report.dropped_cycles += 1
            continue
        origin_id = root.tweet_id if root.retweet_of is None else root.retweet_of
        grouped.setdefault(origin_id, []).append(rec)

    def collapse(events: list[TweetRecord]) -> list[TweetRecord]:
        best: dict[str, TweetRecord] = {}
        for ev in sorted(events, key=lambda r: (r.timestamp, r.tweet_id)):
            if ev.user_id not in best:
                best[ev.user_id] = ev
            else:
                report.collapsed_duplicates += 1
        return list(best.values())

    def ids(retweets: list[TweetRecord]) -> np.ndarray:
        return np.array([index[r.user_id] for r in retweets], dtype=np.int64)

    cascades: list[Cascade] = []
    for rec in records:
        if rec.retweet_of is not None:
            continue
        retweets = collapse(grouped.pop(rec.tweet_id, []))
        inverted = any(r.timestamp < rec.timestamp for r in retweets)
        cascades.append(Cascade(rec.tweet_id, rec.text, index[rec.user_id], ids(retweets),
                                timestamp_inversion=inverted))
        report.inversions += int(inverted)

    for origin_id, events in grouped.items():
        retweets = collapse(events)
        cascades.append(Cascade(origin_id, retweets[0].text, -1, ids(retweets)))
        report.stub_origins += 1

    cascades.sort(key=lambda c: c.tweet_id)
    report.cascades = len(cascades)
    return cascades, report
