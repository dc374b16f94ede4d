"""Multi-coder binary labels: adjudication, agreement, and feature assembly.

Semantic tweet features arrive as per-coder CSV sheets (manual coding is the
interface; nothing here classifies text). Hashtag and mention counts are
machine-extracted. The regression feature matrix combines adjudicated
labels, mark counts, author indicators, and log-virality responses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .csvio import read_csv, write_csv
from .ingest import HASHTAG_RE
from .virality import Boundary, ViralityEstimate

MENTION_RE = re.compile(r"@\w+")
# The prefix of every author-indicator column name, which the lasso report
# reads to summarize the author block.
AUTHOR_PREFIX = "author:"
# The machine-extracted count columns that follow the label features.
MARK_COLUMNS = ("hashtags", "mentions")


@dataclass(frozen=True)
class CoderSheet:
    """One coder's binary labels over a declared feature list."""

    coder_id: str
    features: tuple[str, ...]
    rows: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        for j, feature in enumerate(self.features):
            if not feature or feature in self.features[:j]:
                raise ValueError(f"{self.coder_id}: feature {feature!r} is empty or repeated")
            if feature in MARK_COLUMNS or feature.startswith(AUTHOR_PREFIX):
                raise ValueError(f"{self.coder_id}: feature {feature!r} is a reserved column name")
        width = len(self.features)
        for tweet_id, values in self.rows.items():
            if len(values) != width:
                raise ValueError(f"{self.coder_id}: row {tweet_id} has wrong width")
            if any(v not in (0, 1) for v in values):
                raise ValueError(f"{self.coder_id}: row {tweet_id} has non-binary label")

    @classmethod
    def from_csv(cls, path: str | Path) -> "CoderSheet":
        """The sheet in ``labels_<coder>.csv``, named ``<coder>``."""
        path = Path(path)
        with read_csv(path) as (header, reader):
            if not header or header[0] != "tweet_id" or len(header) < 2:
                raise ValueError(f"{path}: expected header 'tweet_id,<features...>'")
            features = tuple(header[1:])
            rows: dict[str, tuple[int, ...]] = {}
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"{path}: ragged row {row!r}")
                if not row[0]:
                    raise ValueError(f"{path}: empty tweet_id in {row!r}")
                if row[0] in rows:
                    raise ValueError(f"{path}: duplicate tweet_id {row[0]}")
                if any(v not in ("0", "1") for v in row[1:]):
                    raise ValueError(f"{path}: label other than 0 or 1 in {row!r}")
                rows[row[0]] = tuple(int(v) for v in row[1:])
        return cls(coder_id=path.stem.removeprefix("labels_"), features=features, rows=rows)


@dataclass(frozen=True)
class VoteResult:
    """Adjudicated labels with the unanimity rate and any tie cells."""

    features: tuple[str, ...]
    rows: Mapping[str, tuple[int, ...]]
    consensus_rate: float
    ties: tuple[tuple[str, str], ...] = ()


def _check_aligned(sheets: Sequence[CoderSheet]) -> None:
    if len(sheets) < 2:
        raise ValueError("need at least two coder sheets")
    coders = [sheet.coder_id for sheet in sheets]
    for coder in coders:
        if coders.count(coder) > 1:
            raise ValueError(f"coder {coder} has more than one sheet")
    first = sheets[0]
    for sheet in sheets[1:]:
        if sheet.features != first.features:
            raise ValueError(
                f"feature lists differ: {first.coder_id}={first.features} "
                f"vs {sheet.coder_id}={sheet.features}"
            )
        if sheet.rows.keys() != first.rows.keys():
            missing = sorted(first.rows.keys() - sheet.rows.keys())
            extra = sorted(sheet.rows.keys() - first.rows.keys())
            raise ValueError(
                f"tweet sets differ between {first.coder_id} and {sheet.coder_id}: "
                f"missing={missing[:5]} extra={extra[:5]}"
            )


def corpus_sheets(
    sheets: Sequence[CoderSheet], tweet_ids: Collection[str]
) -> tuple[list[CoderSheet], int]:
    """The aligned sheets cut to the rows whose tweet is in ``tweet_ids``,
    and how many rows each sheet loses."""
    _check_aligned(sheets)
    kept = [CoderSheet(sheet.coder_id, sheet.features,
                       {t: v for t, v in sheet.rows.items() if t in tweet_ids})
            for sheet in sheets]
    return kept, len(sheets[0].rows) - len(kept[0].rows)


def majority_vote(sheets: Sequence[CoderSheet]) -> VoteResult:
    """Per-cell majority label; even ties resolve to 0 and are flagged."""
    _check_aligned(sheets)
    features = sheets[0].features
    n_coders = len(sheets)
    rows: dict[str, tuple[int, ...]] = {}
    ties: list[tuple[str, str]] = []
    unanimous = 0
    total = 0
    for tweet_id in sorted(sheets[0].rows):
        votes = [sheet.rows[tweet_id] for sheet in sheets]
        adjudicated = []
        for j, feature in enumerate(features):
            ones = sum(v[j] for v in votes)
            total += 1
            if ones == 0 or ones == n_coders:
                unanimous += 1
            if ones * 2 == n_coders:
                ties.append((tweet_id, feature))
                adjudicated.append(0)
            else:
                adjudicated.append(1 if ones * 2 > n_coders else 0)
        rows[tweet_id] = tuple(adjudicated)
    rate = unanimous / total if total else 1.0
    return VoteResult(
        features=features, rows=rows, consensus_rate=rate, ties=tuple(ties)
    )


def krippendorff_alpha(sheets: Sequence[CoderSheet]) -> float:
    """Nominal-metric Krippendorff's alpha over all (tweet, feature) cells.

    Computed pairwise: each cell is a unit whose coder values contribute
    ordered-pair disagreements weighted by 1/(m-1). Zero expected
    disagreement (all values identical) defines alpha as 1.0.
    """
    _check_aligned(sheets)
    features = sheets[0].features
    total_values = 0
    ones = 0
    observed = 0.0
    for tweet_id in sheets[0].rows:
        for j in range(len(features)):
            values = [sheet.rows[tweet_id][j] for sheet in sheets]
            m = len(values)
            unit_ones = sum(values)
            ones += unit_ones
            total_values += m
            disagreements = 2 * unit_ones * (m - unit_ones)
            observed += disagreements / (m - 1)
    if total_values == 0:
        return 1.0
    zeros = total_values - ones
    d_o = observed / total_values
    d_e = 2 * ones * zeros / (total_values * (total_values - 1))
    if d_e == 0.0:
        return 1.0
    return 1.0 - d_o / d_e


def extract_marks(text: str) -> tuple[int, int]:
    """Counts of '#'-prefixed and '@'-prefixed word-character runs."""
    return len(HASHTAG_RE.findall(text)), len(MENTION_RE.findall(text))


@dataclass(frozen=True)
class FeatureMatrix:
    """The rows of one group's log-virality regression, as
    ``features_<group>.csv`` holds them.

    ``columns`` are the kept label features, then the mark counts;
    ``values`` holds one row of those per tweet. ``read_features_csv``
    builds the design (author indicators and penalty groups) from the CSV.
    """

    group: int
    tweet_ids: tuple[str, ...]
    author_ids: tuple[str, ...]
    columns: tuple[str, ...]
    values: tuple[tuple[int, ...], ...]
    y: np.ndarray
    excluded_zero_successes: int = 0
    excluded_thin_authors: int = 0

    @property
    def n(self) -> int:
        return len(self.tweet_ids)


def build_feature_matrix(
    vote: VoteResult,
    marks: Mapping[str, tuple[int, int]],
    estimates: Sequence[ViralityEstimate],
    authors: Mapping[str, str],
    group: int,
    min_author_tweets: int = 3,
    group_only_features: Mapping[int, tuple[str, ...]] | None = None,
) -> FeatureMatrix:
    """Assemble one group's matrix from labels, marks, and virality scores.

    Scorable labeled tweets of the group (boundary not zero_successes) are
    restricted to authors contributing at least min_author_tweets of them;
    features declared for the other group are dropped from the columns.
    """
    group_only = group_only_features or {}
    drop = {
        f for g, feats in group_only.items() if g != group for f in feats
    } - set(group_only.get(group, ()))
    kept_idx = [j for j, f in enumerate(vote.features) if f not in drop]

    by_id = {e.tweet_id: e for e in estimates}
    scorable: list[tuple[str, ViralityEstimate]] = []
    excluded_zero = 0
    for tweet_id in sorted(vote.rows):
        est = by_id.get(tweet_id)
        if est is None or est.group != group:
            continue
        if est.boundary is Boundary.ZERO_SUCCESSES or est.r_hat is None:
            excluded_zero += 1
            continue
        if tweet_id not in authors:
            raise ValueError(f"no author known for labeled tweet {tweet_id}")
        scorable.append((tweet_id, est))

    counts: dict[str, int] = {}
    for tweet_id, _ in scorable:
        counts[authors[tweet_id]] = counts.get(authors[tweet_id], 0) + 1
    rows = [(t, e) for t, e in scorable if counts[authors[t]] >= min_author_tweets]
    return FeatureMatrix(
        group=group,
        tweet_ids=tuple(t for t, _ in rows),
        author_ids=tuple(authors[t] for t, _ in rows),
        columns=tuple(vote.features[j] for j in kept_idx) + MARK_COLUMNS,
        values=tuple(
            tuple(vote.rows[t][j] for j in kept_idx) + marks.get(t, (0, 0))
            for t, _ in rows
        ),
        y=np.array([e.ln_r for _, e in rows], dtype=float),
        excluded_zero_successes=excluded_zero,
        excluded_thin_authors=len(scorable) - len(rows),
    )


def _design(
    value_columns: Sequence[str], values, author_ids: Sequence[str]
) -> tuple[np.ndarray, tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """X, penalty groups and column names of one design.

    Columns: the value columns, then one indicator per distinct author in
    sorted order. Each value column is a penalty group of its own and the
    author columns form one.
    """
    authors = sorted(set(author_ids))
    n, p_val = len(author_ids), len(value_columns)
    author_col = {a: p_val + i for i, a in enumerate(authors)}
    X = np.zeros((n, p_val + len(authors)))
    X[:, :p_val] = np.array(values, dtype=float).reshape(n, p_val)
    X[np.arange(n), [author_col[a] for a in author_ids]] = 1.0
    groups = tuple((j,) for j in range(p_val))
    if authors:
        groups += (tuple(author_col.values()),)
    return X, groups, tuple(value_columns) + tuple(AUTHOR_PREFIX + a for a in authors)


# The leading columns of features_<group>.csv; the value columns and ln_r follow.
FEATURE_KEYS = ["tweet_id", "author_id", "group"]


def write_features_csv(matrix: FeatureMatrix, path: str | Path) -> None:
    """The matrix rows, which ``read_features_csv`` turns into the design."""
    write_csv(
        path,
        FEATURE_KEYS + list(matrix.columns) + ["ln_r"],
        (
            [tweet_id, matrix.author_ids[i], matrix.group]
            + [("%g" % v) for v in matrix.values[i]]
            + [f"{matrix.y[i]:.12g}"]
            for i, tweet_id in enumerate(matrix.tweet_ids)
        ),
    )


def read_features_csv(
    path: str | Path,
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """X, y, penalty groups and column names of a features CSV: the value
    columns plus author indicators built from the author_id column. Rows
    must match the header's width and be in the writer's order, strictly
    ascending ``tweet_id``: the CV folds follow row positions. Every value
    and ``ln_r`` cell must be a finite number."""
    with read_csv(path) as (header, reader):
        if header is None or header[:3] != FEATURE_KEYS or header[-1:] != ["ln_r"]:
            raise ValueError(f"unexpected header in {path}: {header}")
        rows = list(reader)
    values = []
    for prev, row in zip([None] + rows, rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row!r} has {len(row)} cells, not {len(header)}")
        if prev is not None and row[0] <= prev[0]:
            raise ValueError(f"{path}: tweet_id {row[0]!r} is repeated or out of order")
        try:
            cells = [float(v) for v in row[3:]]
        except ValueError:
            cells = [math.nan]
        if not all(map(math.isfinite, cells)):
            raise ValueError(f"{path}: tweet_id {row[0]!r} has a cell that is not a finite number")
        values.append(cells)
    X, groups, columns = _design(
        header[3:-1], [cells[:-1] for cells in values], [row[1] for row in rows]
    )
    return X, np.array([cells[-1] for cells in values]), groups, columns
