"""Descriptive corpus statistics: characteristic words and cross-group spread."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .csvio import write_csv
from .ingest import Cascade, classified_counts

URL_RE = re.compile(r"[a-z][a-z0-9+.\-]*://\S+")
TOKEN_RE = re.compile(r"[#@]?\w+")


@dataclass(frozen=True)
class WordDiffRow:
    token: str
    n_self: int
    n_other: int

    @property
    def diff(self) -> int:
        return self.n_self - self.n_other


@dataclass(frozen=True)
class SpreadCount:
    tweet_id: str
    retweeters_activist: int
    retweeters_skeptic: int

    def __post_init__(self) -> None:
        if self.retweeters_activist < 0 or self.retweeters_skeptic < 0:
            raise ValueError("retweeter counts must be nonnegative")


@dataclass(frozen=True)
class SpreadSummary:
    threshold: int
    qualifying: int


def _strip_plural(token: str) -> str:
    """Crude plural folding: behind a flag, off by default."""
    prefix = ""
    word = token
    if word and word[0] in "#@":
        prefix, word = word[0], word[1:]
    if len(word) > 3 and word.endswith("ies"):
        word = word[:-3] + "y"
    elif len(word) > 3 and word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    return prefix + word


def tokenize(text: str, stemmer: bool = False) -> list[str]:
    """Lowercase tokens: word-character runs, '#'/'@' kept as prefixes.

    Scheme-prefixed URLs are removed before tokenizing.
    """
    lowered = URL_RE.sub(" ", text.lower())
    tokens = TOKEN_RE.findall(lowered)
    if stemmer:
        tokens = [_strip_plural(t) for t in tokens]
    return tokens


def _tweet_counts(texts: Iterable[str], stemmer: bool) -> dict[str, int]:
    counts: dict[str, int] = {}
    for text in texts:
        for token in set(tokenize(text, stemmer)):
            counts[token] = counts.get(token, 0) + 1
    return counts


def word_diff_table(
    group_a_texts: Sequence[str],
    group_b_texts: Sequence[str],
    top_k: int = 30,
    stemmer: bool = False,
) -> tuple[list[WordDiffRow], list[WordDiffRow]]:
    """Tokens ranked by cross-group tweet-count difference, each direction.

    A token counts at most once per tweet. Returns (A-characteristic,
    B-characteristic) tables, each sorted by diff descending then token
    ascending, truncated to top_k.
    """
    counts_a = _tweet_counts(group_a_texts, stemmer)
    counts_b = _tweet_counts(group_b_texts, stemmer)
    vocabulary = sorted(set(counts_a) | set(counts_b))

    def table(self_counts: Mapping[str, int], other_counts: Mapping[str, int]):
        rows = [
            WordDiffRow(
                token=t,
                n_self=self_counts.get(t, 0),
                n_other=other_counts.get(t, 0),
            )
            for t in vocabulary
        ]
        rows.sort(key=lambda r: (-r.diff, r.token))
        return rows[:top_k]

    return table(counts_a, counts_b), table(counts_b, counts_a)


def cross_group_counts(
    cascades: Sequence[Cascade],
    groups: np.ndarray,
    threshold: int = 10,
    activist_group: int = 0,
) -> tuple[list[SpreadCount], SpreadSummary]:
    """Per-tweet classified retweeter counts per group, in the cascades'
    order, plus how many tweets exceed the threshold in both groups;
    ``groups`` is the partition over the cascades' user table."""
    counts: list[SpreadCount] = []
    qualifying = 0
    for cascade in cascades:
        per_group = classified_counts(cascade, groups)
        activist = per_group[activist_group]
        skeptic = per_group[1 - activist_group]
        counts.append(
            SpreadCount(
                tweet_id=cascade.tweet_id,
                retweeters_activist=activist,
                retweeters_skeptic=skeptic,
            )
        )
        if activist > threshold and skeptic > threshold:
            qualifying += 1
    return counts, SpreadSummary(threshold=threshold, qualifying=qualifying)


def write_words_csv(rows: Iterable[WordDiffRow], path: str | Path) -> None:
    write_csv(
        path,
        ["token", "n_self", "n_other", "diff"],
        ([row.token, row.n_self, row.n_other, row.diff] for row in rows),
    )


def write_spread_csv(counts: Iterable[SpreadCount], path: str | Path) -> None:
    write_csv(
        path,
        ["tweet_id", "retweeters_activist", "retweeters_skeptic"],
        ([c.tweet_id, c.retweeters_activist, c.retweeters_skeptic] for c in counts),
    )
