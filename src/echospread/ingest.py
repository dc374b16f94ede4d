"""Tweet-record ingestion: parsing, corpus filtering, and cascade assembly.

Input is a JSONL file with one record per (re)tweet:

    {"tweet_id": str, "user_id": str, "timestamp": int, "text": str,
     "retweet_of": str|null, "reply_to": str|null, "lang": str|null}

A cascade is one original tweet plus the time-ordered retweet events that
reference it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

HASHTAG_RE = re.compile(r"#\w+")


@dataclass(frozen=True)
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
        if not self.tweet_id:
            raise ValueError("tweet_id must be nonempty")
        if self.retweet_of is not None and self.retweet_of == self.tweet_id:
            raise ValueError(f"record {self.tweet_id} retweets itself")
        if self.timestamp < 0:
            raise ValueError(f"record {self.tweet_id} has negative timestamp")


@dataclass(frozen=True)
class CorpusFilter:
    """Topical filter plus the hashtag rule that defines eligible users.

    A user is eligible when they posted or retweeted any record whose text
    carries a single hashtag token containing both stems of one seed pair
    (case-insensitive), e.g. #ClimateCrisis matches ("climate", "crisis").
    """

    substring: str = "climate"
    lang_allow: frozenset[str] = frozenset({"en"})
    exclude_replies: bool = True
    seed_hashtag_pairs: tuple[tuple[str, str], ...] = (
        ("climate", "crisis"),
        ("climate", "hoax"),
    )

    def __post_init__(self) -> None:
        if not self.substring:
            raise ValueError("substring must be nonempty")
        lowered = tuple((a.lower(), b.lower()) for a, b in self.seed_hashtag_pairs)
        object.__setattr__(self, "seed_hashtag_pairs", lowered)
        object.__setattr__(self, "lang_allow", frozenset(self.lang_allow))


@dataclass(frozen=True)
class Cascade:
    """An origin tweet and its retweet events, sorted by (timestamp, tweet_id).

    ``stub_origin`` marks cascades whose origin record was absent from the
    corpus and had to be synthesized. ``timestamp_inversion`` marks cascades
    where some retweet carries a timestamp earlier than the origin (the event
    is kept; the origin always precedes it in cascade order).
    """

    origin: TweetRecord
    retweets: tuple[TweetRecord, ...]
    stub_origin: bool = False
    timestamp_inversion: bool = False

    @property
    def tweet_id(self) -> str:
        return self.origin.tweet_id

    def retweeters(self) -> tuple[str, ...]:
        return tuple(r.user_id for r in self.retweets)


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


def _record_from_obj(obj: object) -> TweetRecord:
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    for key in _REQUIRED:
        if key not in obj:
            raise ValueError(f"missing field {key}")
    if not isinstance(obj["tweet_id"], str) or not isinstance(obj["user_id"], str):
        raise ValueError("ids must be strings")
    ts = obj["timestamp"]
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise ValueError("timestamp must be an integer")
    if not isinstance(obj["text"], str):
        raise ValueError("text must be a string")
    extras = {}
    for key in _OPTIONAL:
        val = obj.get(key)
        if val is not None and not isinstance(val, str):
            raise ValueError(f"{key} must be a string or null")
        extras[key] = val
    return TweetRecord(
        tweet_id=obj["tweet_id"],
        user_id=obj["user_id"],
        timestamp=ts,
        text=obj["text"],
        **extras,
    )


def parse_records(path: str | Path) -> tuple[list[TweetRecord], ParseReport]:
    """Parse a JSONL tweet file, skipping malformed lines and duplicate ids.

    The first occurrence of a tweet_id wins; later ones are dropped and
    counted. A line that is not valid UTF-8 is malformed like one that is not
    valid JSON. Unreadable files raise OSError.
    """
    report = ParseReport()
    records: list[TweetRecord] = []
    seen: set[str] = set()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            report.lines += 1
            try:
                rec = _record_from_obj(json.loads(line.decode("utf-8")))
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


def _first_by_id(records: Iterable[TweetRecord]) -> dict[str, TweetRecord]:
    by_id: dict[str, TweetRecord] = {}
    for rec in records:
        by_id.setdefault(rec.tweet_id, rec)
    return by_id


def seed_pair_users(
    records: Iterable[TweetRecord], pairs: Sequence[tuple[str, str]]
) -> dict[tuple[str, str], set[str]]:
    """Users who posted or retweeted a record matching each seed pair.

    For retweets the origin's text is checked when the origin record is in
    the corpus, since the retweet shares the origin's content.
    """
    by_id = _first_by_id(records)
    matches: dict[tuple[str, str], set[str]] = {
        (a.lower(), b.lower()): set() for a, b in pairs
    }
    for rec in by_id.values():
        cur = rec
        hops: set[str] = set()
        while (
            cur.retweet_of is not None
            and cur.retweet_of in by_id
            and cur.tweet_id not in hops
        ):
            hops.add(cur.tweet_id)
            cur = by_id[cur.retweet_of]
        lowered = cur.text.lower()
        for tag in HASHTAG_RE.findall(lowered):
            for base, qualifier in matches:
                if base in tag and qualifier in tag:
                    matches[(base, qualifier)].add(rec.user_id)
    return matches


def filter_corpus(
    records: Sequence[TweetRecord], corpus_filter: CorpusFilter | None = None
) -> tuple[list[TweetRecord], set[str]]:
    """Keep topical records and collect the eligible user set.

    A record is topical when it is not a reply (if replies are excluded),
    its language is allowed, and its content text contains the filter
    substring case-insensitively. A retweet whose origin record is present
    in the input is retained exactly when the origin is retained, since it
    carries the origin's content; with the origin absent the retweet's own
    fields are tested. Eligible users are collected from the topical
    records. Both rules make filtering idempotent.
    """
    f = corpus_filter if corpus_filter is not None else CorpusFilter()
    by_id = _first_by_id(records)
    needle = f.substring.lower()

    def own_pass(rec: TweetRecord) -> bool:
        if f.lang_allow and (rec.lang is None or rec.lang not in f.lang_allow):
            return False
        return needle in rec.text.lower()

    status: dict[str, bool] = {}

    def retained(rec: TweetRecord) -> bool:
        chain: list[TweetRecord] = []
        on_chain: set[str] = set()
        cur = rec
        while True:
            if cur.tweet_id in status:
                verdict = status[cur.tweet_id]
                break
            if cur.tweet_id in on_chain:
                verdict = False
                break
            chain.append(cur)
            on_chain.add(cur.tweet_id)
            if f.exclude_replies and cur.reply_to is not None:
                verdict = False
                break
            parent = by_id.get(cur.retweet_of) if cur.retweet_of is not None else None
            if parent is None:
                verdict = own_pass(cur)
                break
            cur = parent
        for link in chain:
            status[link.tweet_id] = verdict
        return verdict

    topical = [rec for rec in by_id.values() if retained(rec)]

    pair_users = seed_pair_users(topical, f.seed_hashtag_pairs)
    eligible: set[str] = set()
    for users in pair_users.values():
        eligible |= users
    return topical, eligible


def _resolve_origin(
    record: TweetRecord, by_id: Mapping[str, TweetRecord]
) -> str | None:
    """Follow a retweet_of chain to the ultimate origin id; None on a cycle."""
    seen = {record.tweet_id}
    target = record.retweet_of
    while target in by_id and by_id[target].retweet_of is not None:
        if target in seen:
            return None
        seen.add(target)
        target = by_id[target].retweet_of
    if target in seen:
        return None
    return target


def build_cascades(
    records: Sequence[TweetRecord],
) -> tuple[list[Cascade], CascadeReport]:
    """Assemble one cascade per origin tweet from filtered records.

    Retweet chains are resolved to their ultimate origin; unresolvable
    cycles are dropped and counted. Repeated retweets by one user collapse
    to the earliest event. Retweets whose origin record is absent get a
    synthesized stub origin and the cascade is flagged.
    """
    report = CascadeReport()
    by_id = _first_by_id(records)
    grouped: dict[str, list[TweetRecord]] = {}
    for rec in by_id.values():
        if rec.retweet_of is None:
            continue
        origin_id = _resolve_origin(rec, by_id)
        if origin_id is None:
            report.dropped_cycles += 1
            continue
        grouped.setdefault(origin_id, []).append(rec)

    def collapse(events: list[TweetRecord]) -> tuple[TweetRecord, ...]:
        best: dict[str, TweetRecord] = {}
        for ev in sorted(events, key=lambda r: (r.timestamp, r.tweet_id)):
            if ev.user_id not in best:
                best[ev.user_id] = ev
            else:
                report.collapsed_duplicates += 1
        return tuple(sorted(best.values(), key=lambda r: (r.timestamp, r.tweet_id)))

    cascades: list[Cascade] = []
    for rec in by_id.values():
        if rec.retweet_of is not None:
            continue
        retweets = collapse(grouped.pop(rec.tweet_id, []))
        inverted = any(r.timestamp < rec.timestamp for r in retweets)
        cascades.append(
            Cascade(rec, retweets, timestamp_inversion=inverted)
        )
        report.inversions += int(inverted)

    for origin_id in sorted(grouped):
        retweets = collapse(grouped[origin_id])
        first = retweets[0]
        stub = TweetRecord(
            tweet_id=origin_id,
            user_id="",
            timestamp=first.timestamp,
            text=first.text,
            lang=first.lang,
        )
        cascades.append(Cascade(stub, retweets, stub_origin=True))
        report.stub_origins += 1

    report.cascades = len(cascades)
    return cascades, report
