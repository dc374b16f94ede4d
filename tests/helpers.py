"""Shared test utilities: id ledgers built from names, id ledgers and
simulated cascades mapped back to names, cascades held on names and put on
a user table, the first record of each tweet id and the topical records
among them, the string-keyed follow graph,
exposure ledger and MLE as reference copies, random ledgers, a reference
exposure ledger, an exhaustive likelihood oracle, per-group references for
the group-lasso prox, KKT residual and penalty, the ISTA-only group-lasso
solver, the frozenset retweet network with its components and DOT export,
the linear-scan bisection steps, the string-set simulator, and
ingest's record builder, filter, seed-pair scan and cascade builder as they
were before they shared one chain walk."""

import math
from dataclasses import dataclass, field
from functools import singledispatch
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from echospread.exposure import ExposureLedger
from echospread.graph import FollowerNetwork, table_id
from echospread.ingest import (
    _OPTIONAL,
    _REQUIRED,
    HASHTAG_RE,
    LANGS,
    SEED_PAIRS,
    TOPIC,
    Cascade,
    CascadeReport,
    TweetRecord,
    build_cascades,
    chain_roots,
    filter_corpus,
    seed_pair_users,
)
from echospread.lasso import ConvergenceError, _kkt_residual, _penalty, _prox
from echospread.sim import SimCascade, SimConfig, _user_ids
from echospread.virality import Boundary, ViralityEstimate, _dlog_likelihood, mle_virality


# Id ledgers from names, and back.


def id_ledger(
    successes,
    failures,
    users=None,
    unexposed=(),
    tweet_id="t",
    group=0,
):
    """An id ledger with the given trials by name, over the sorted table of
    ``users`` (default: the trial and unexposed users); no attribution and
    no origin author in the table."""
    table = tuple(sorted(set(users if users is not None else [])
                         | set(successes) | set(failures) | set(unexposed)))
    index = {u: k for k, u in enumerate(table)}

    def ids(names):
        return np.array(sorted(index[u] for u in names), dtype=np.int64)

    return ExposureLedger(
        tweet_id=tweet_id,
        author=-1,
        group=group,
        users=table,
        successes=ids(successes),
        failures=ids(failures),
        unexposed_successes=ids(unexposed),
        attribution=np.full(len(set(successes) | set(failures)), -1, dtype=np.int64),
    )


def alpha_of(ledger, act):
    """Activities by name as the array aligned with the ledger's table."""
    return np.array([act.get(u, 0.0) for u in ledger.users], dtype=float)


def reference_activity_values(counts: Mapping[str, int], raw: bool = False) -> dict[str, float]:
    """Alpha per user as the pipeline once derived it from activity counts,
    through ``normalize_activities`` and ``activity_values``: each count over
    the largest count (default), or the raw count as a float."""
    max_raw = max(counts.values(), default=0)
    normalized = {u: (c / max_raw if max_raw else 0.0) for u, c in counts.items()}
    if raw:
        return {u: float(c) for u, c in counts.items()}
    return normalized


@singledispatch
def named(ledger: ExposureLedger) -> "ReferenceLedger":
    """An id ledger in names: every user set, the attribution map, the flags."""
    users = ledger.users

    def names(ids):
        return frozenset(users[k] for k in ids.tolist())

    return ReferenceLedger(
        tweet_id=ledger.tweet_id,
        origin_author=users[ledger.author] if ledger.author >= 0 else "",
        group=ledger.group,
        exposed=names(ledger.exposed),
        successes=names(ledger.successes),
        failures=names(ledger.failures),
        unexposed_successes=names(ledger.unexposed_successes),
        attribution={
            users[w]: users[s]
            for w, s in zip(ledger.exposed.tolist(), ledger.attribution.tolist())
            if s >= 0
        },
        flags=ledger.flags,
    )


@named.register(SimCascade)
def _(sim: SimCascade) -> "ReferenceSimCascade":
    """A simulated cascade in names: its derived records and its user sets."""
    users = sim.users

    def names(ids):
        return frozenset(users[k] for k in ids.tolist())

    return ReferenceSimCascade(
        tweet_id=sim.tweet_id,
        seed_user=sim.seed_user,
        planted_r=sim.planted_r,
        records=sim.records,
        exposed=names(sim.exposed),
        successes=names(sim.successes),
        failures=names(sim.failures),
    )


# Cascades held on names, as ``ingest.Cascade`` was before it held ids into
# the user table, and the two put side by side.


@dataclass(frozen=True)
class StringCascade:
    """An origin tweet and its retweet events, sorted by (timestamp, tweet_id).

    ``stub_origin`` marks cascades whose origin record was absent from the
    corpus and had to be synthesized, with the empty name as its author.
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

    def view(self) -> "CascadeView":
        """The cascade as an id cascade holds it, in names: a user's later
        retweets are dropped, as ``build_cascades`` collapses them."""
        return CascadeView(self.tweet_id, self.origin.text, self.origin.user_id,
                           tuple(dict.fromkeys(self.retweeters())), self.timestamp_inversion)


class CascadeView(NamedTuple):
    """What an id cascade holds, in names; a stub origin's author is ""."""

    tweet_id: str
    text: str
    author: str
    retweeters: tuple[str, ...]
    timestamp_inversion: bool


def id_cascade(cascade: StringCascade, users: Sequence[str]) -> Cascade:
    """A string cascade on the sorted user table ``users``."""
    index = {u: k for k, u in enumerate(users)}
    view = cascade.view()
    return Cascade(
        view.tweet_id, view.text, -1 if cascade.stub_origin else index[view.author],
        np.array([index[u] for u in view.retweeters], dtype=np.int64), view.timestamp_inversion,
    )


def cascade_view(cascade: Cascade, users: Sequence[str]) -> CascadeView:
    """An id cascade on the table ``users``, in names."""
    return CascadeView(
        cascade.tweet_id, cascade.text, users[cascade.author] if cascade.author >= 0 else "",
        tuple(users[k] for k in cascade.retweeters.tolist()), cascade.timestamp_inversion,
    )


def _first_by_id(records: Iterable[TweetRecord]) -> dict[str, TweetRecord]:
    """The first record of each tweet id, in the records' order, as
    ``parse_records`` keeps them."""
    by_id: dict[str, TweetRecord] = {}
    for rec in records:
        by_id.setdefault(rec.tweet_id, rec)
    return by_id


def topical_records(records: Sequence[TweetRecord]) -> list[TweetRecord]:
    """``filter_corpus``'s topical records over the first occurrence of each
    tweet id."""
    return filter_corpus(list(_first_by_id(records).values()))[0]


def named_cascades(records: Sequence[TweetRecord]) -> tuple[list[CascadeView], CascadeReport]:
    """``build_cascades`` over the first occurrence of each tweet id, on the
    table of the records' users, in names."""
    records = list(_first_by_id(records).values())
    users = sorted({r.user_id for r in records})
    cascades, report = build_cascades(records, chain_roots(records), users)
    return [cascade_view(c, users) for c in cascades], report


def named_seed_pair_users(records: Sequence[TweetRecord]) -> dict[tuple[str, str], set[str]]:
    """``seed_pair_users`` over the first occurrence of each tweet id, on the
    table of the records' users, in names."""
    records = list(_first_by_id(records).values())
    users = sorted({r.user_id for r in records})
    masks = seed_pair_users(records, chain_roots(records), users)
    return {pair: {users[k] for k in np.flatnonzero(mask)} for pair, mask in masks.items()}


def follower_sets(net: FollowerNetwork) -> dict[str, frozenset[str]]:
    """Each user's followers by name, for users with any."""
    ptr, idx, users = net.follower_ptr, net.follower_idx, net.users
    return {
        users[j]: frozenset(users[k] for k in idx[ptr[j] : ptr[j + 1]].tolist())
        for j in range(len(users))
        if ptr[j] < ptr[j + 1]
    }


def followers_of(net: FollowerNetwork, user: str) -> tuple[str, ...]:
    """A user's followers by name, ascending; none for a user outside the table."""
    try:
        j = table_id(net.users, user)
    except ValueError:
        return ()
    ids = net.follower_idx[net.follower_ptr[j] : net.follower_ptr[j + 1]]
    return tuple(net.users[k] for k in ids.tolist())


# The string-keyed follow graph, exposure ledger and MLE, kept as they were
# before users became ids into one table.


@dataclass(frozen=True)
class ReferenceLedger:
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


@dataclass(frozen=True)
class ReferenceFollowerNetwork:
    """Directed follow graph, held as one view: each user's followers."""

    followers: Mapping[str, frozenset[str]]

    def followers_of(self, user: str) -> frozenset[str]:
        return self.followers.get(user, frozenset())

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self.followers.values())


def reference_from_edges(
    edges: Iterable[tuple[str, str]],
    universe: set[str] | frozenset[str] | None = None,
) -> tuple[ReferenceFollowerNetwork, int]:
    """Build from (follower, followee) pairs; returns (net, dropped count).

    Self-loops, duplicates, and edges leaving the universe are dropped;
    only out-of-universe and self-loop edges are counted as dropped.
    """
    followers: dict[str, set[str]] = {}
    dropped = 0
    for follower, followee in edges:
        if follower == followee:
            dropped += 1
            continue
        if universe is not None and (
            follower not in universe or followee not in universe
        ):
            dropped += 1
            continue
        followers.setdefault(followee, set()).add(follower)
    return ReferenceFollowerNetwork({u: frozenset(v) for u, v in followers.items()}), dropped


def reference_build_exposure_ledger(
    cascade: StringCascade,
    follow: ReferenceFollowerNetwork,
    groups: Mapping[str, int],
    g: int,
    include_unexposed_retweeters: bool = False,
) -> ReferenceLedger:
    """Single-trial exposure bookkeeping for one cascade within its main group.

    Exposure travels from the origin author and from main-group retweeters to
    their followers. ``first`` maps each main-group user to the position, in
    ``sources = [author, *events]``, of the earliest event that reaches them;
    the author comes first, so Rule 1 wins every tie. A retweeter counts as a
    success only when that event precedes their own retweet; a failure counts
    as exposed if any event in the whole cascade reaches them. Users outside
    the main group and their follow edges are disregarded, as is the origin
    author as a trial. ``groups`` maps users to groups; ``g`` is the main one.
    """
    author = cascade.origin.user_id

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

    return ReferenceLedger(
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


def reference_mle_virality(
    ledger: ReferenceLedger, act: Mapping[str, float], max_iter: int = 200
) -> ViralityEstimate:
    """Maximize the cascade likelihood by bisection on its derivative.

    Trial users with zero activity cannot occur under the model and are
    dropped (counted in dropped_zero_activity). The bracket [lo, r_max] is
    narrowed until its relative width falls below 1e-14 or max_iter halves,
    comfortably inside the 1e-10 contract.
    """
    successes = sorted(u for u in ledger.successes if act.get(u, 0.0) > 0.0)
    failures = sorted(w for w in ledger.failures if act.get(w, 0.0) > 0.0)
    dropped = len(ledger.successes) + len(ledger.failures) - len(successes) - len(failures)
    n_s = len(successes)
    n_f = len(failures)

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

    alpha_exposed = np.array([act[u] for u in successes + failures])
    r_max = 1.0 / float(alpha_exposed.max())
    if n_f == 0:
        return estimate(r_max, Boundary.UPPER_BOUNDARY)

    alpha_f = np.array([act[w] for w in failures])
    if _dlog_likelihood(r_max, n_s, alpha_f) >= 0.0:
        return estimate(r_max, Boundary.UPPER_BOUNDARY)

    lo, hi = r_max * 1e-15, r_max
    for _ in range(max_iter):
        if hi - lo <= hi * 1e-14:
            break
        mid = 0.5 * (lo + hi)
        if _dlog_likelihood(mid, n_s, alpha_f) > 0.0:
            lo = mid
        else:
            hi = mid
    return estimate(0.5 * (lo + hi), Boundary.INTERIOR)


# Random ledgers and the likelihood oracles.


def random_ledger(
    rng,
    max_exposed=20,
    min_max_alpha=0.3,
    require_failures=False,
    min_alpha=0.0,
    allow_zero_successes=False,
):
    """Random exposure ledger with activities uniform on (min_alpha, 1].

    Redraws until the largest trial activity is at least min_max_alpha,
    which caps r_max at 1/min_max_alpha and keeps the 1e-5 grid oracle
    tractable. A ledger has at least one success unless
    allow_zero_successes is set. Returns the ledger and its activities as
    the array aligned with its table.
    """
    while True:
        n_e = int(rng.integers(1, max_exposed + 1))
        lo = 1 if require_failures else 0
        if require_failures and n_e < 2:
            continue
        n_f = int(rng.integers(lo, n_e + 1 if allow_zero_successes else n_e))
        n_s = n_e - n_f
        alphas = min_alpha + (1.0 - min_alpha) * (1.0 - rng.random(n_e))
        if alphas.max() < min_max_alpha:
            continue
        successes = [f"s{i}" for i in range(n_s)]
        failures = [f"f{i}" for i in range(n_f)]
        act = dict(zip(successes + failures, alphas.tolist()))
        ledger = id_ledger(successes, failures)
        return ledger, alpha_of(ledger, act)


def interior_random_ledger(rng, max_exposed=20):
    """Random ledger whose MLE is interior (resampled until it is)."""
    while True:
        ledger, alpha = random_ledger(rng, max_exposed, require_failures=True)
        if mle_virality(ledger, alpha).boundary is Boundary.INTERIOR:
            return ledger, alpha


def _loglik_on_grid(rs, n_success, alphas_f):
    with np.errstate(divide="ignore"):
        vals = n_success * np.log(rs) if n_success else np.zeros_like(rs)
    if alphas_f.size:
        margin = 1.0 - np.outer(alphas_f, rs)
        bad = (margin <= 0.0).any(axis=0)
        safe = np.where(margin > 0.0, margin, 1.0)
        vals = vals + np.where(bad, -np.inf, np.log(safe).sum(axis=0))
    return vals


def grid_oracle(ledger, alpha, step=1e-5, coarsen=100):
    """Argmax of the cascade log-likelihood over the grid {k*step}.

    The grid runs from r = 0 to r_max, so a ledger with no successes
    returns 0.0. Exhaustive coarse scan every `coarsen` grid points, then
    an exhaustive fine scan of the straddling window; by strict concavity
    this returns the same point as a full scan. Set coarsen=1 for the
    naive full scan.
    """
    n_s = len(ledger.successes)
    alphas_f = np.sort(alpha[ledger.failures])
    r_max = 1.0 / float(alpha[ledger.exposed].max())
    top = int(r_max / step) + 1
    while top * step > r_max:  # the last grid point inside [0, r_max]
        top -= 1
    idx = np.arange(0, top + 1, coarsen)
    if idx[-1] != top:
        idx = np.append(idx, top)
    vals = _loglik_on_grid(idx * step, n_s, alphas_f)
    k0 = idx[int(np.argmax(vals))]
    if coarsen == 1:
        return k0 * step
    lo = max(0, k0 - coarsen)
    hi = min(top, k0 + coarsen)
    window = np.arange(lo, hi + 1)
    vals = _loglik_on_grid(window * step, n_s, alphas_f)
    return window[int(np.argmax(vals))] * step


def reference_ledger(cascade, edges, groups, g, include_unexposed_retweeters=False):
    """The exposure ledger straight from raw (follower, followee) edges.

    Three loops, each following the display rules literally: the earliest
    exposing source of every main-group user (the origin author's audience
    claimed first, Rule 1), each retweeter's own followees scanned for the
    author or an earlier main-group retweeter, and the exposed users who
    did not retweet. A self-loop carries no exposure. ``groups`` maps users
    to groups; ``g`` is the main one.
    """
    author = cascade.origin.user_id
    followees, followers = {}, {}
    for follower, followee in edges:
        if follower != followee:
            followees.setdefault(follower, set()).add(followee)
            followers.setdefault(followee, set()).add(follower)

    events = []
    for rt in cascade.retweets:
        u = rt.user_id
        if u != author and u not in events and groups.get(u) == g:
            events.append(u)

    first_source = {}
    for source in [author, *events]:
        for w in followers.get(source, ()):
            if w != author and groups.get(w) == g and w not in first_source:
                first_source[w] = source

    successes, unexposed, attribution = set(), set(), {}
    for k, u in enumerate(events):
        mine = followees.get(u, set())
        source = author if author in mine else next(
            (events[j] for j in range(k) if events[j] in mine), None
        )
        if source is None:
            unexposed.add(u)
        else:
            successes.add(u)
            attribution[u] = source

    failures = set()
    for w, source in first_source.items():
        if w not in events:
            failures.add(w)
            attribution[w] = source

    flags = ()
    if include_unexposed_retweeters and unexposed:
        successes |= unexposed
        flags = ("included_unexposed_retweeters",)
    return ReferenceLedger(
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


def reference_prox(v, thresholds):
    """Block soft threshold, one group at a time: thresholds holds
    (columns, threshold) pairs."""
    out = v.copy()
    for idx, thr in thresholds:
        block = v[idx]
        norm = float(np.linalg.norm(block))
        if norm <= thr:
            out[idx] = 0.0
        else:
            out[idx] = (1.0 - thr / norm) * block
    return out


def reference_kkt_residual(Gb, c, beta, lam, garr, weights):
    """Largest violation of the group-lasso optimality conditions, one group
    at a time."""
    res = c - Gb
    worst = 0.0
    for idx, w in zip(garr, weights):
        r_g = res[idx]
        b_g = beta[idx]
        norm = float(np.linalg.norm(b_g))
        if norm > 0.0:
            worst = max(worst, float(np.linalg.norm(r_g - lam * w * b_g / norm)))
        else:
            worst = max(worst, max(0.0, float(np.linalg.norm(r_g)) - lam * w))
    return worst


def reference_penalty(b, lam, garr, weights):
    """lam * sum_g w_g ||b_g||, summed group by group."""
    return lam * sum(
        w * float(np.linalg.norm(b[idx])) for idx, w in zip(garr, weights)
    )


def reference_solve_std(G, c, lam, layout, beta0, tol, max_iter, kkt_tol):
    """The group-lasso solver before the Newton finish: monotone ISTA alone,
    stopping once the objective settles and the best iterate is certified."""
    beta = beta0.copy()
    Gb = G @ beta
    smooth = 0.5 * float(beta @ Gb) - float(c @ beta)
    obj = smooth + _penalty(beta, lam, layout)
    best_res = _kkt_residual(Gb, c, beta, lam, layout)
    best_beta, best_obj, best_it = beta.copy(), obj, 0
    step = 1.0
    for it in range(1, max_iter + 1):
        grad = Gb - c
        while True:
            z = _prox(beta - step * grad, layout, step * lam)
            dz = z - beta
            Gz = G @ z
            smooth_z = 0.5 * float(z @ Gz) - float(c @ z)
            quad = smooth + float(grad @ dz) + float(dz @ dz) / (2.0 * step)
            if smooth_z <= quad + 1e-12:
                break
            step *= 0.5
        new_obj = smooth_z + _penalty(z, lam, layout)
        if new_obj > obj + 1e-9:
            raise ConvergenceError(
                f"objective increased at iteration {it}", z, math.inf
            )
        rel = (obj - new_obj) / max(1.0, abs(new_obj))
        beta, Gb, smooth, obj = z, Gz, smooth_z, new_obj
        step *= 1.25
        residual = _kkt_residual(Gb, c, beta, lam, layout)
        if residual < best_res:
            best_res, best_beta, best_obj, best_it = residual, beta.copy(), obj, it
        if rel < tol and best_res <= kkt_tol:
            return best_beta, best_obj, best_it
    if best_res <= kkt_tol:
        return best_beta, best_obj, best_it
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (KKT residual {best_res:.3g})",
        best_beta,
        best_res,
    )


# The retweet network as frozensets of canonical name pairs, kept as it was
# before it was held on node ids.


def _canon(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class ReferenceRetweetNetwork:
    """Undirected co-retweet graph: one edge per user pair with any retweet."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            if a > b:
                raise ValueError("edges must be stored in canonical order")

    def adjacency(self) -> dict[str, set[str]]:
        adj: dict[str, set[str]] = {u: set() for u in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj


def reference_build_retweet_network(
    cascades: Sequence[StringCascade], users: set[str] | frozenset[str]
) -> ReferenceRetweetNetwork:
    """Undirected network over eligible users appearing in the cascades."""
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for cascade in cascades:
        author = cascade.origin.user_id
        if author in users:
            nodes.add(author)
        for rt in cascade.retweets:
            u = rt.user_id
            if u not in users:
                continue
            nodes.add(u)
            if author in users and author != u:
                edges.add(_canon(author, u))
    return ReferenceRetweetNetwork(frozenset(nodes), frozenset(edges))


def reference_connected_components(net: ReferenceRetweetNetwork) -> list[set[str]]:
    adj = net.adjacency()
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in sorted(net.nodes):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    frontier.append(v)
        seen |= comp
        components.append(comp)
    return components


def reference_largest_component(net: ReferenceRetweetNetwork) -> ReferenceRetweetNetwork:
    """Induced subgraph on the largest component; ties by smallest member id."""
    if not net.nodes:
        return net
    components = reference_connected_components(net)
    size = max(len(c) for c in components)
    # break size ties toward the component holding the smallest user id
    best = min((c for c in components if len(c) == size), key=min)
    edges = frozenset(e for e in net.edges if e[0] in best)
    return ReferenceRetweetNetwork(frozenset(best), edges)


def reference_to_dot(net: ReferenceRetweetNetwork, groups: Mapping[str, int]) -> str:
    """DOT serialization of the network, each node colored by its group."""
    colors = {0: "#e08214", 1: "#7fbf7b"}

    def quoted(u: str) -> str:
        return '"' + u.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph retweet_network {", "  node [style=filled];"]
    for u in sorted(net.nodes):
        lines.append(f'  {quoted(u)} [fillcolor="{colors[groups[u]]}"];')
    for a, b in sorted(net.edges):
        lines.append(f"  {quoted(a)} -- {quoted(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The bisection steps as linear scans, one full scan per move.


def reference_grow_partition(
    adj: list[dict[int, int]],
    node_w: list[int],
    start: int,
    allowed: int,
) -> list[int]:
    """Greedy region growing from a start node toward half the total weight."""
    n = len(adj)
    total = sum(node_w)
    side = [1] * n
    side[start] = 0
    w_a = node_w[start]
    attach: dict[int, int] = dict(adj[start])
    while w_a < total // 2:
        candidates = [u for u in attach if w_a + node_w[u] <= allowed]
        if not candidates:
            break
        best = min(candidates, key=lambda u: (-attach[u], u))
        attach.pop(best)
        side[best] = 0
        w_a += node_w[best]
        for u, w in adj[best].items():
            if side[u] == 1:
                attach[u] = attach.get(u, 0) + w
    return side


def reference_gains(adj: list[dict[int, int]], side: list[int]) -> list[int]:
    """How much the cut falls if each node alone switches sides."""
    return [
        sum(w if side[u] != side[v] else -w for u, w in nbrs.items())
        for v, nbrs in enumerate(adj)
    ]


def reference_cut(adj: list[dict[int, int]], side: list[int]) -> int:
    """The weight of the edges whose ends are on different sides, each once."""
    return sum(
        w for v, nbrs in enumerate(adj) for u, w in nbrs.items() if u > v and side[u] != side[v]
    )


def reference_rebalance(
    adj: list[dict[int, int]],
    node_w: list[int],
    side: list[int],
    allowed: int,
) -> None:
    """Move max-gain nodes off the heavy side until the balance cap holds."""
    w_side = [0, 0]
    for v, s in enumerate(side):
        w_side[s] += node_w[v]
    gains = reference_gains(adj, side)
    while max(w_side) > allowed:
        heavy = 0 if w_side[0] >= w_side[1] else 1
        movable = [v for v in range(len(side)) if side[v] == heavy]
        v = min(movable, key=lambda x: (-gains[x], x))
        side[v] = 1 - heavy
        w_side[heavy] -= node_w[v]
        w_side[1 - heavy] += node_w[v]
        gains[v] = -gains[v]
        for u, w in adj[v].items():
            gains[u] += 2 * w if side[u] == heavy else -2 * w


def reference_fm_refine(
    adj: list[dict[int, int]],
    node_w: list[int],
    side: list[int],
    allowed: int,
    max_passes: int = 30,
) -> int:
    """FM refinement: sequences of locked moves, keeping the best prefix.

    Returns the final cut weight. The final state admits no single-node move
    that both respects the balance cap and strictly reduces the cut.
    """
    n = len(adj)
    cut = reference_cut(adj, side)
    for _ in range(max_passes):
        w_side = [0, 0]
        for v, s in enumerate(side):
            w_side[s] += node_w[v]
        gains = reference_gains(adj, side)
        locked = [False] * n
        moves: list[int] = []
        cur = cut
        best_cut = cut
        best_len = 0
        while True:
            best_v = -1
            best_g = None
            for v in range(n):
                if locked[v]:
                    continue
                s = side[v]
                if w_side[1 - s] + node_w[v] > allowed:
                    continue
                if w_side[s] - node_w[v] <= 0:
                    continue
                if best_g is None or gains[v] > best_g:
                    best_v, best_g = v, gains[v]
            if best_v == -1:
                break
            s = side[best_v]
            side[best_v] = 1 - s
            w_side[s] -= node_w[best_v]
            w_side[1 - s] += node_w[best_v]
            cur -= best_g
            locked[best_v] = True
            moves.append(best_v)
            for u, w in adj[best_v].items():
                if not locked[u]:
                    gains[u] += 2 * w if side[u] == s else -2 * w
            if cur < best_cut:
                best_cut = cur
                best_len = len(moves)
        for v in moves[best_len:]:
            side[v] = 1 - side[v]
        if best_cut >= cut:
            break
        cut = best_cut
    return cut


# The simulator on string sets: edges as (follower, followee) tuples, the
# follow graph as the string-keyed reference network, one draw per user.


@dataclass(frozen=True)
class ReferenceSimCascade:
    """A cascade as the simulator kept it before ids: records built eagerly,
    outcomes as name sets."""

    tweet_id: str
    seed_user: str
    planted_r: float
    records: tuple[TweetRecord, ...]
    exposed: frozenset[str]
    successes: frozenset[str]
    failures: frozenset[str]


@dataclass(frozen=True)
class ReferenceWorld:
    config: SimConfig
    users: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    activities: Mapping[str, float]
    follow: ReferenceFollowerNetwork


def reference_world(config, users, edges, activities):
    follow, dropped = reference_from_edges(edges, set(users))
    assert dropped == 0
    return ReferenceWorld(config, tuple(users), tuple(edges), dict(activities), follow)


def reference_generate_network(
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


def reference_seed_pool(world: ReferenceWorld) -> tuple[str, ...]:
    """Candidate cascade seeds: top-decile follower counts by default."""
    if world.config.seed_pool == "uniform":
        return world.users
    ranked = sorted(
        world.users, key=lambda u: (-len(world.follow.followers_of(u)), u)
    )
    k = max(1, len(ranked) // 10)
    return tuple(ranked[:k])


def reference_simulate_cascade(
    world: ReferenceWorld, seed_user: str, r: float, cascade_index: int
) -> ReferenceSimCascade:
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
    return ReferenceSimCascade(
        tweet_id=tweet_id,
        seed_user=seed_user,
        planted_r=r,
        records=tuple(records),
        exposed=frozenset(exposed),
        successes=frozenset(successes),
        failures=frozenset(failures),
    )


# Ingest as it was before one memoized chain walk served filtering, seed
# pairs and cascades: three walks, of which the seed-pair hop loop matched a
# record on a cycle against the cycle member it revisited first; and the
# record builder that checked every field itself (with the empty user id,
# a stub origin's absent author, added to what it rejects).


def reference_record_from_obj(obj: object) -> TweetRecord:
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    for key in _REQUIRED:
        if key not in obj:
            raise ValueError(f"missing field {key}")
    if not isinstance(obj["tweet_id"], str) or not isinstance(obj["user_id"], str):
        raise ValueError("ids must be strings")
    if obj["user_id"] == "":
        raise ValueError("user_id must be nonempty")
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


def reference_seed_pair_users(
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


def reference_filter_corpus(records: Sequence[TweetRecord]) -> tuple[list[TweetRecord], set[str]]:
    """Keep topical records and collect the eligible user set.

    A record is topical when it is not a reply, its language is in
    ``LANGS``, and its content text contains ``TOPIC`` case-insensitively.
    A retweet whose origin record is present in the input is retained
    exactly when the origin is retained, since it carries the origin's
    content; with the origin absent the retweet's own fields are tested.
    Eligible users are collected from the topical records. Both rules make
    filtering idempotent.
    """
    by_id = _first_by_id(records)

    def own_pass(rec: TweetRecord) -> bool:
        if rec.lang is None or rec.lang not in LANGS:
            return False
        return TOPIC in rec.text.lower()

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
            if cur.reply_to is not None:
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

    pair_users = reference_seed_pair_users(topical, SEED_PAIRS)
    eligible: set[str] = set()
    for users in pair_users.values():
        eligible |= users
    return topical, eligible


def reference_resolve_origin(
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


def reference_build_cascades(
    records: Sequence[TweetRecord],
) -> tuple[list[StringCascade], CascadeReport]:
    """Assemble one cascade per origin tweet from filtered records.

    Retweet chains are resolved to their ultimate origin; unresolvable
    cycles are dropped and counted. Repeated retweets by one user collapse
    to the earliest event. Retweets whose origin record is absent get a
    synthesized stub origin and the cascade is flagged. The cascades come in
    tweet-id order.
    """
    report = CascadeReport()
    by_id = _first_by_id(records)
    grouped: dict[str, list[TweetRecord]] = {}
    for rec in by_id.values():
        if rec.retweet_of is None:
            continue
        origin_id = reference_resolve_origin(rec, by_id)
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

    cascades: list[StringCascade] = []
    for rec in by_id.values():
        if rec.retweet_of is not None:
            continue
        retweets = collapse(grouped.pop(rec.tweet_id, []))
        inverted = any(r.timestamp < rec.timestamp for r in retweets)
        cascades.append(
            StringCascade(rec, retweets, timestamp_inversion=inverted)
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
        cascades.append(StringCascade(stub, retweets, stub_origin=True))
        report.stub_origins += 1

    report.cascades = len(cascades)
    return sorted(cascades, key=lambda c: c.origin.tweet_id), report
