"""Acceptance gate: ten pinned criteria over the full stack.

Covers the virality MLE against a 1e-5 grid search and analytic oracles,
its equivariance and monotonicity laws, planted-parameter recovery at scale,
the display-rule exposure fixtures, the graph bisection oracle, the group
lasso against closed forms and KKT certificates, end-to-end planted-effect
sign recovery, pipeline byte-determinism, and agreement statistics against
a coincidence-matrix oracle. Each criterion prints one pass/fail line in
the terminal summary; tolerances and runtime budgets are pinned here.

The grid search is the coarse-to-fine scan `helpers.grid_oracle`: by strict
concavity of the log-likelihood it returns the same grid point as the
exhaustive scan, which `test_windowed_oracle_equals_naive_full_scan` in
`test_virality.py` checks on this criterion's range of ledgers.
"""

import functools
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from conftest import record_acceptance
from helpers import alpha_of, grid_oracle, id_ledger, named

from echospread.exposure import build_exposure_ledger
from echospread.graph import (
    FollowerNetwork,
    RetweetNetwork,
    bisect_partition,
)
from echospread.ingest import TweetRecord, build_cascades, chain_roots
from echospread.labels import CoderSheet, krippendorff_alpha
from echospread.lasso import (
    LassoConfig,
    fit_cv,
    fit_group_lasso,
    kkt_residual_from_fit,
    lambda_max,
)
from echospread.sim import (
    ActivitySpec,
    GraphSpec,
    SimConfig,
    generate_world,
    recovery_experiment,
    simulate_cascade,
    world_groups,
)
from echospread.virality import Boundary, mle_virality

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIG = FIXTURES / "config.json"


def criterion(number: int, description: str):
    """Record a single pass/fail line for one acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            status = "FAIL"
            try:
                fn(*args, **kwargs)
                status = "PASS"
            finally:
                record_acceptance(
                    number, f"[{status}] criterion {number:02d}: {description}"
                )

        return run

    return wrap


def make_ledger(users, n_successes, tweet_id="t"):
    return id_ledger(users[:n_successes], users[n_successes:], tweet_id=tweet_id)


def mle(ledger, act):
    """The MLE with activities given by name."""
    return mle_virality(ledger, alpha_of(ledger, act))


def random_ledger(rng, max_exposed=20):
    n = int(rng.integers(1, max_exposed + 1))
    users = [f"u{i}" for i in range(n)]
    act = {u: float(rng.uniform(0.05, 1.0)) for u in users}
    return make_ledger(users, int(rng.integers(0, n + 1))), act


def interior_ledger(rng, lo=6, hi=24):
    """Random ledger redrawn until the MLE lands strictly inside the domain."""
    while True:
        n = int(rng.integers(lo, hi + 1))
        users = [f"u{i}" for i in range(n)]
        act = {u: float(rng.uniform(0.1, 0.9)) for u in users}
        ledger = make_ledger(users, int(rng.integers(1, n)))
        est = mle(ledger, act)
        if est.boundary is Boundary.INTERIOR:
            return ledger, act, est


@criterion(1, "virality MLE matches 1e-5 grid search within 1e-3 on 1000 ledgers, <10s")
def test_criterion_01_mle_matches_grid_search():
    rng = np.random.default_rng(11)
    cases = [random_ledger(rng) for _ in range(1000)]
    start = time.perf_counter()
    worst = 0.0
    for ledger, act in cases:
        est = mle(ledger, act)
        r_mle = 0.0 if est.r_hat is None else est.r_hat
        worst = max(worst, abs(r_mle - grid_oracle(ledger, alpha_of(ledger, act))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-3, f"worst |mle - grid| = {worst:.2e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


@criterion(2, "equal-activity closed form to 1e-9; three-trial ledger yields 2/3")
def test_criterion_02_analytic_mle_cases():
    rng = np.random.default_rng(202)
    for _ in range(100):
        alpha = float(rng.uniform(0.2, 1.0))
        n_s = int(rng.integers(1, 31))
        n_f = int(rng.integers(1, 31))
        users = [f"u{i}" for i in range(n_s + n_f)]
        act = {u: alpha for u in users}
        est = mle(make_ledger(users, n_s), act)
        closed = n_s / (alpha * (n_s + n_f))
        assert abs(est.r_hat - closed) <= 1e-9

    est = mle(make_ledger(["u", "v", "w"], 2), {"u": 1.0, "v": 1.0, "w": 1.0})
    assert abs(est.r_hat - 2.0 / 3.0) <= 1e-6


@criterion(3, "activity-rescale equivariance, failure monotonicity, success invariance")
def test_criterion_03_equivariance_and_monotonicity():
    rng = np.random.default_rng(303)
    for _ in range(100):
        ledger, act, est = interior_ledger(rng)
        for c in (0.5, 2.0, 10.0):
            scaled = mle(ledger, {u: c * a for u, a in act.items()})
            assert abs(scaled.r_hat - est.r_hat / c) <= 1e-9

    for _ in range(500):
        ledger, act, est = interior_ledger(rng)
        extra = f"w{len(ledger.exposed)}"
        names = named(ledger)
        worse = make_ledger([*names.successes, *names.failures, extra], len(names.successes))
        worse_est = mle(worse, {**act, extra: float(rng.uniform(0.1, 0.9))})
        assert worse_est.r_hat < est.r_hat

    for _ in range(100):
        ledger, act, est = interior_ledger(rng)
        low = min(named(ledger).successes, key=act.get)
        perturbed = mle(ledger, {**act, low: act[low] * 0.9})
        assert abs(perturbed.r_hat - est.r_hat) <= 1e-12


@criterion(4, "planted-r recovery, 2000 nodes: median<=0.10, p90<=0.25, <60s")
def test_criterion_04_synthetic_recovery():
    config = SimConfig(
        graph=GraphSpec(kind="directed-random", n=2000, p=0.3),
        activity=ActivitySpec(kind="uniform", lo=0.2, hi=1.0),
        r_values=(0.05, 0.1, 0.2, 0.4),
        cascades_per_r=200,
        master_seed=4,
    )
    start = time.perf_counter()
    rows, _ = recovery_experiment(config)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    for row in rows:
        assert row.unscorable == 0
        assert row.mean_exposed >= 300.0
        assert row.median_rel_error <= 0.10, f"r={row.planted_r}: {row.median_rel_error}"
        assert row.p90_rel_error <= 0.25, f"r={row.planted_r}: {row.p90_rel_error}"


def scenario_ledger(follow_edges, retweets):
    users = sorted({u for e in follow_edges for u in e} | {u for u, _ in retweets} | {"o"})
    follow, dropped = FollowerNetwork.from_edges(follow_edges, set(users))
    assert dropped == 0
    records = [TweetRecord(tweet_id="t1", user_id="o", timestamp=0, text="x", lang="en")]
    for k, (user, ts) in enumerate(retweets):
        records.append(
            TweetRecord(
                tweet_id=f"t1-r{k}",
                user_id=user,
                timestamp=ts,
                text="rt",
                retweet_of="t1",
                lang="en",
            )
        )
    cascades, _ = build_cascades(records, chain_roots(records), follow.users)
    groups = np.zeros(len(follow.users), dtype=np.int8)
    return named(build_exposure_ledger(cascades[0], follow, groups, 0))


@criterion(5, "display-rule fixtures reproduce exact exposure sets and attribution")
def test_criterion_05_exposure_rule_fixtures():
    # follower of the origin, nobody retweets: one failed trial, from the origin
    led = scenario_ledger([("p", "o")], [])
    assert (led.successes, led.failures) == (frozenset(), frozenset({"p"}))
    assert dict(led.attribution) == {"p": "o"}

    # follower of origin and of two retweeters: origin claims the exposure
    led = scenario_ledger(
        [("p", "o"), ("p", "i1"), ("p", "i2"), ("i1", "o"), ("i2", "o")],
        [("i1", 1), ("i2", 2)],
    )
    assert led.successes == frozenset({"i1", "i2"})
    assert led.failures == frozenset({"p"})
    assert dict(led.attribution) == {"i1": "o", "i2": "o", "p": "o"}

    # exposure only through a single retweeting followee
    led = scenario_ledger([("i", "o"), ("p", "i")], [("i", 1)])
    assert led.successes == frozenset({"i"})
    assert led.failures == frozenset({"p"})
    assert dict(led.attribution) == {"i": "o", "p": "i"}

    # two retweeting followees: only the first one's notification shows
    led = scenario_ledger(
        [("i1", "o"), ("i2", "o"), ("p", "i1"), ("p", "i2")],
        [("i1", 1), ("i2", 2)],
    )
    assert led.successes == frozenset({"i1", "i2"})
    assert led.failures == frozenset({"p"})
    assert dict(led.attribution) == {"i1": "o", "i2": "o", "p": "i1"}

    assert led.exposed == led.successes | led.failures
    assert led.unexposed_successes == frozenset()


@criterion(6, "two-triangle bridge cut is exactly 1; planted blocks on >=18/20 seeds")
def test_criterion_06_partitioner():
    nodes = ("a0", "a1", "a2", "b0", "b1", "b2")
    edges = frozenset(
        {
            ("a0", "a1"),
            ("a0", "a2"),
            ("a1", "a2"),
            ("b0", "b1"),
            ("b0", "b2"),
            ("b1", "b2"),
            ("a0", "b0"),
        }
    )
    net = RetweetNetwork.from_edges(edges, nodes)

    cuts = {}
    for side in itertools.combinations(nodes, 3):
        if "a0" not in side:
            continue
        side = frozenset(side)
        cuts[side] = sum((a in side) != (b in side) for a, b in edges)
    best = min(cuts.values())
    winners = [side for side, cut in cuts.items() if cut == best]
    assert best == 1 and winners == [frozenset({"a0", "a1", "a2"})]

    split = bisect_partition(net)
    side = dict(zip(net.nodes, split.side.tolist()))
    grouped = {u for u in nodes if side[u] == side["a0"]}
    assert grouped == {"a0", "a1", "a2"}
    assert split.cut_size == 1

    good = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        users = [f"n{i:02d}" for i in range(100)]
        block = {u: (0 if i < 50 else 1) for i, u in enumerate(users)}
        planted = set()
        for i in range(100):
            for j in range(i + 1, 100):
                p = 0.3 if block[users[i]] == block[users[j]] else 0.002
                if rng.random() < p:
                    planted.add((users[i], users[j]))
        planted_net = RetweetNetwork.from_edges(planted, users)
        groups = dict(zip(planted_net.nodes, bisect_partition(planted_net).side.tolist()))
        agree = sum(groups[u] == block[u] for u in users)
        good += max(agree, 100 - agree) >= 95
    assert good >= 18, f"only {good}/20 seeds recovered"


def lasso_problem(seed, n=80, groups=((0, 1, 2), (3, 4, 5), (6, 7), (8, 9, 10, 11))):
    rng = np.random.default_rng(seed)
    p = max(max(g) for g in groups) + 1
    X = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    beta[6:] = 0.0
    y = 1.5 + X @ beta + rng.normal(scale=0.3, size=n)
    return X, y, groups


@criterion(7, "group lasso: OLS limit, lambda_max zeros, closed form, KKT<=1e-6")
def test_criterion_07_group_lasso():
    X, y, groups = lasso_problem(7)
    fit = fit_group_lasso(X, y, groups, 0.0)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(len(y)), X]), y, rcond=None)
    np.testing.assert_allclose(fit.intercept, coef[0], atol=1e-6)
    np.testing.assert_allclose(fit.beta, coef[1:], atol=1e-6)

    lam_top = lambda_max(X, y, groups)
    for lam in (lam_top, 2.0 * lam_top):
        assert np.all(fit_group_lasso(X, y, groups, lam).beta == 0.0)

    rng = np.random.default_rng(77)
    n, p = 60, 8
    base = rng.normal(size=(n, p))
    q, _ = np.linalg.qr(base - base.mean(axis=0))
    Xo = q * np.sqrt(n)
    yo = rng.normal(size=n)
    ortho_groups = ((0, 1, 2), (3, 4), (5, 6, 7))
    lam = 0.4 * lambda_max(Xo, yo, ortho_groups)
    fit_o = fit_group_lasso(Xo, yo, ortho_groups, lam)
    yc = yo - yo.mean()
    c = Xo.T @ yc / n
    expected = np.zeros(p)
    for g in ortho_groups:
        block = c[list(g)]
        norm = np.linalg.norm(block)
        shrink = max(0.0, 1.0 - lam * np.sqrt(len(g)) / norm) if norm else 0.0
        expected[list(g)] = shrink * block
    np.testing.assert_allclose(fit_o.beta, expected, atol=1e-6)

    for seed in (0, 1, 2):
        Xk, yk, gk = lasso_problem(seed)
        top = lambda_max(Xk, yk, gk)
        for frac in (0.9, 0.5, 0.1, 0.01):
            fit_k = fit_group_lasso(Xk, yk, gk, frac * top)
            assert kkt_residual_from_fit(Xk, yk, gk, fit_k) <= 1e-6
        fit_best = fit_cv(Xk, yk, gk, LassoConfig(lambda_grid=30, folds=4))
        assert kkt_residual_from_fit(Xk, yk, gk, fit_best) <= 1e-6


@criterion(8, "planted feature effects: all signs recovered in >=90% of 50 reps")
def test_criterion_08_planted_effect_recovery():
    beta_true = np.array([0.10, -0.15, 0.15, 0.0, 0.0, 0.0])
    planted = [j for j in range(6) if beta_true[j] != 0.0]
    groups = tuple((j,) for j in range(6))
    config = LassoConfig(lambda_grid=60, folds=5, seed=0)
    wins = 0
    reps = 50
    for rep in range(reps):
        rng = np.random.default_rng([8, rep])
        n_tweets = 240
        X = rng.integers(0, 2, size=(n_tweets, 6)).astype(float)
        ln_r = -1.2 + X @ beta_true + rng.normal(0.0, 0.05, size=n_tweets)
        world = generate_world(
            SimConfig(
                graph=GraphSpec(kind="directed-random", n=220, p=1.0),
                activity=ActivitySpec(kind="uniform", lo=0.4, hi=1.0),
                r_values=tuple(float(r) for r in np.exp(ln_r)),
                cascades_per_r=1,
                master_seed=rep,
            )
        )
        user_groups = world_groups(world)
        pool = sorted(world.users)
        y = np.empty(n_tweets)
        usable = np.ones(n_tweets, dtype=bool)
        for i, r in enumerate(world.config.r_values):
            seed_user = pool[int(rng.integers(len(pool)))]
            sim = simulate_cascade(world, seed_user, r, i)
            records = sim.records
            cascades, _ = build_cascades(records, chain_roots(records), world.users)
            ledger = build_exposure_ledger(cascades[0], world.follow, user_groups, 0)
            est = mle_virality(ledger, world.alpha)
            if est.boundary is Boundary.INTERIOR:
                y[i] = est.ln_r
            else:
                usable[i] = False
        fit = fit_cv(X[usable], y[usable], groups, config)
        wins += all(np.sign(fit.beta[j]) == np.sign(beta_true[j]) for j in planted)
    assert wins >= int(np.ceil(0.9 * reps)), f"{wins}/{reps} reps recovered all signs"


@criterion(9, "pipeline byte-identical across reruns and worker counts {1,8}")
def test_criterion_09_pipeline_determinism(tmp_path):
    def run(out, hash_seed, extra=()):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "echospread.cli",
                "run",
                "--config",
                str(CONFIG),
                "--out",
                str(out),
                *extra,
            ],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}

    first = run(tmp_path / "one", "101")
    again = run(tmp_path / "two", "202")
    pooled = run(tmp_path / "pool", "303", extra=("--workers", "8"))
    assert first == again
    assert first == pooled


def coincidence_alpha(sheets):
    """Nominal alpha from an explicitly assembled coincidence matrix."""
    pairs: dict[tuple[int, int], float] = {}
    for tweet_id in sheets[0].rows:
        for j in range(len(sheets[0].features)):
            values = [sheet.rows[tweet_id][j] for sheet in sheets]
            m = len(values)
            for a in range(m):
                for b in range(m):
                    if a != b:
                        key = (values[a], values[b])
                        pairs[key] = pairs.get(key, 0.0) + 1.0 / (m - 1)
    marginals: dict[int, float] = {}
    for (c, _), weight in pairs.items():
        marginals[c] = marginals.get(c, 0.0) + weight
    total = sum(marginals.values())
    if total == 0:
        return 1.0
    observed = sum(pairs.get((c, c), 0.0) for c in marginals) / total
    expected = sum(nc * (nc - 1.0) for nc in marginals.values()) / (total * (total - 1.0))
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


@criterion(10, "krippendorff alpha matches coincidence oracle to 1e-12; perfect=1.0")
def test_criterion_10_agreement_statistics():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        n_coders = int(rng.integers(2, 5))
        n_tweets = int(rng.integers(1, 26))
        features = tuple(f"f{j}" for j in range(int(rng.integers(1, 4))))
        tweet_ids = [f"t{i}" for i in range(n_tweets)]
        sheets = [
            CoderSheet(
                coder_id=f"c{k}",
                features=features,
                rows={
                    tid: tuple(int(v) for v in rng.integers(0, 2, size=len(features)))
                    for tid in tweet_ids
                },
            )
            for k in range(n_coders)
        ]
        assert abs(krippendorff_alpha(sheets) - coincidence_alpha(sheets)) <= 1e-12

    rows = {"t0": (1, 0), "t1": (0, 1), "t2": (1, 1)}
    identical = [
        CoderSheet(coder_id=f"c{k}", features=("f0", "f1"), rows=dict(rows))
        for k in range(3)
    ]
    assert krippendorff_alpha(identical) == 1.0

    constant = [
        CoderSheet(coder_id=f"c{k}", features=("f0",), rows={"t0": (1,), "t1": (1,)})
        for k in range(2)
    ]
    assert krippendorff_alpha(constant) == 1.0
