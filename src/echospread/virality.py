"""User activities and per-tweet virality inference.

Under the independent cascade model an exposed user u retweets tweet T with
probability alpha_u * r_T, so the cascade log-likelihood given an exposure
ledger with successes S and failures F is

    l(r) = |S| ln r + sum_{u in S} ln alpha_u + sum_{w in F} ln(1 - alpha_w r)

with derivative l'(r) = |S|/r - sum_F alpha_w / (1 - alpha_w r), which is
strictly decreasing on (0, r_max). The maximizer is therefore the unique
root of l' when one exists inside the domain, else the upper boundary
r_max = 1 / max activity over the exposed set.

Activities reach the estimator as one float array aligned with the follow
graph's user table. The output bytes rest on one invariant: table ids
ascend with user names, so ``alpha[failures]`` holds the failures in
sorted-name order and l'(r) sums its terms in that order, the order of an
estimator that sorts names.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .csvio import by_key, read_rows, write_csv

if TYPE_CHECKING:
    from .exposure import ExposureLedger


class Boundary(enum.Enum):
    INTERIOR = "interior"
    UPPER_BOUNDARY = "upper_boundary"
    ZERO_SUCCESSES = "zero_successes"


VIRALITY_COLUMNS = [
    "tweet_id", "group", "successes", "failures", "exposed", "r_hat", "ln_r", "boundary"
]


@dataclass(frozen=True)
class ViralityEstimate:
    """MLE virality for one cascade; r_hat is None when S is empty."""

    tweet_id: str
    group: int
    successes: int
    failures: int
    exposed: int
    r_hat: float | None
    ln_r: float | None
    boundary: Boundary
    dropped_zero_activity: int = 0


def activity_array(
    counts: Mapping[str, int], users: Sequence[str], raw: bool = False
) -> np.ndarray:
    """Alpha over a user table: each user's count, 0 for a user without one.

    Unless ``raw``, the counts are divided by the largest count in the whole
    of ``counts``; float64 division is correctly rounded, as Python's is.
    """
    if any(c < 0 for c in counts.values()):
        raise ValueError("raw activity must be nonnegative")
    alpha = np.array([counts.get(u, 0) for u in users], dtype=np.float64)
    max_raw = max(counts.values(), default=0)
    if not raw and max_raw:
        alpha /= max_raw
    return alpha


def _dlog_likelihood(r: float, n_success: int, alpha_f: np.ndarray) -> float:
    """l'(r); -inf when any failure term's Bernoulli parameter reaches 1."""
    denom = 1.0 - alpha_f * r
    if np.any(denom <= 0.0):
        return -math.inf
    return n_success / r - float(np.sum(alpha_f / denom))


def mle_virality(ledger: ExposureLedger, alpha: np.ndarray) -> ViralityEstimate:
    """Maximize the cascade likelihood by bisection on its derivative.

    ``alpha`` holds each activity of the ledger's user table, 0 for a user
    with no activity; only its length is checked, so it must be built over
    the ``users`` of the ``FollowerNetwork`` the ledger came from. Trial
    users with zero activity cannot occur under the model and are dropped
    (counted in dropped_zero_activity). The bracket [lo, r_max] is narrowed
    until its relative width falls below 1e-14 or after 200 halvings,
    comfortably inside the 1e-10 contract.
    """
    if len(alpha) != len(ledger.users):
        raise ValueError("alpha must hold one activity per user of the ledger's table")
    alpha_s = alpha[ledger.successes]
    alpha_s = alpha_s[alpha_s > 0.0]
    alpha_f = alpha[ledger.failures]
    alpha_f = alpha_f[alpha_f > 0.0]
    dropped = len(ledger.successes) + len(ledger.failures) - len(alpha_s) - len(alpha_f)
    n_s = len(alpha_s)
    n_f = len(alpha_f)

    def estimate(r_hat: float | None, boundary: Boundary) -> ViralityEstimate:
        return ViralityEstimate(
            tweet_id=ledger.tweet_id,
            group=ledger.group,
            successes=n_s,
            failures=n_f,
            exposed=n_s + n_f,
            r_hat=r_hat,
            ln_r=math.log(r_hat) if r_hat is not None else None,
            boundary=boundary,
            dropped_zero_activity=dropped,
        )

    if n_s == 0:
        return estimate(None, Boundary.ZERO_SUCCESSES)

    r_max = 1.0 / float(max(alpha_s.max(), alpha_f.max(initial=0.0)))
    if n_f == 0:
        return estimate(r_max, Boundary.UPPER_BOUNDARY)

    if _dlog_likelihood(r_max, n_s, alpha_f) >= 0.0:
        return estimate(r_max, Boundary.UPPER_BOUNDARY)

    lo, hi = r_max * 1e-15, r_max
    for _ in range(200):
        if hi - lo <= hi * 1e-14:
            break
        mid = 0.5 * (lo + hi)
        if _dlog_likelihood(mid, n_s, alpha_f) > 0.0:
            lo = mid
        else:
            hi = mid
    return estimate(0.5 * (lo + hi), Boundary.INTERIOR)


def write_virality_csv(estimates: Iterable[ViralityEstimate], path: str | Path) -> None:
    """One row per estimate, in the order given (the virality stage's is
    tweet-id order)."""
    write_csv(
        path,
        VIRALITY_COLUMNS,
        (
            [est.tweet_id, est.group, est.successes, est.failures, est.exposed,
             "" if est.r_hat is None else f"{est.r_hat:.12g}",
             "" if est.ln_r is None else f"{est.ln_r:.12g}",
             est.boundary.value]
            for est in estimates
        ),
    )


# a number as ``.12g`` writes it
_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")


def read_virality_csv(path: str | Path) -> list[ViralityEstimate]:
    """The estimates of a ``write_virality_csv`` file, in row order, one per tweet id.

    A bad cell is a ValueError naming the file and the tweet id: ``group``
    must be 0 or 1, the counts ASCII digits, ``boundary`` a ``Boundary``
    value, and ``r_hat`` and ``ln_r`` empty exactly for zero successes and
    otherwise finite numbers in the writer's form, ``ln_r`` the log of
    ``r_hat`` within ``1e-9 * max(1, abs(ln_r))``.
    """
    estimates = []
    rows = by_key(path, read_rows(path, VIRALITY_COLUMNS))
    for tweet_id, (group, *counts, r_hat, ln_r, boundary) in rows.items():
        try:
            if group not in ("0", "1"):
                raise ValueError(f"group {group!r} is not 0 or 1")
            if not all(c.isascii() and c.isdigit() for c in counts):
                raise ValueError(f"counts {counts} are not all nonnegative integers")
            kind = Boundary(boundary)
            cells = [v for v in (r_hat, ln_r) if v]
            expected = 0 if kind is Boundary.ZERO_SUCCESSES else 2
            if len(cells) != expected or not all(map(_NUMBER.fullmatch, cells)):
                raise ValueError(f"r_hat {r_hat!r} and ln_r {ln_r!r} do not fit {boundary}")
            values = [float(v) for v in cells]
            if values and not (
                all(map(math.isfinite, values)) and values[0] > 0
                and abs(values[1] - math.log(values[0])) <= 1e-9 * max(1.0, abs(values[1]))
            ):
                raise ValueError(f"ln_r {ln_r!r} is not the log of r_hat {r_hat!r}")
        except ValueError as error:
            raise ValueError(f"{path}: tweet {tweet_id!r}: {error}") from error
        r, ln = values or (None, None)
        estimates.append(ViralityEstimate(tweet_id, int(group), *map(int, counts), r, ln, kind))
    return estimates
