"""Activity computation and MLE virality against independent oracles."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    alpha_of,
    grid_oracle,
    id_ledger,
    interior_random_ledger,
    named,
    random_ledger,
    reference_activity_values,
    reference_mle_virality,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from echospread.ingest import TweetRecord, compute_activities
from echospread.virality import (
    Boundary,
    ViralityEstimate,
    activity_array,
    mle_virality,
    read_virality_csv,
    write_virality_csv,
)


def ledger_from_counts(n_s, n_f, alpha_s, alpha_f):
    successes = [f"s{i}" for i in range(n_s)]
    failures = [f"f{i}" for i in range(n_f)]
    act = {u: alpha_s for u in successes} | {w: alpha_f for w in failures}
    led = id_ledger(successes, failures)
    return led, alpha_of(led, act)


class TestActivities:
    def test_counts_tweets_and_retweets(self):
        records = [
            TweetRecord(f"t{i}", "u", i, "hi") for i in range(5)
        ] + [
            TweetRecord(f"r{i}", "u", i, "rt", retweet_of="x") for i in range(3)
        ]
        acts = compute_activities(records)
        assert acts["u"] == 8

    def test_normalized_by_global_max(self):
        records = [TweetRecord(f"a{i}", "heavy", i, "x") for i in range(40)]
        records += [TweetRecord(f"b{i}", "light", i, "x") for i in range(8)]
        alpha = activity_array(compute_activities(records), ("heavy", "light"))
        assert alpha[0] == 1.0
        np.testing.assert_allclose(alpha[1], 0.2)

    def test_absent_user_has_no_entry(self):
        acts = compute_activities([TweetRecord("t", "u", 0, "x")])
        assert "ghost" not in acts

    def test_raw_mode_values(self):
        acts = {"u": 8, "top": 40}
        assert activity_array(acts, ("u",))[0] == 0.2
        assert activity_array(acts, ("u",), raw=True)[0] == 8.0

    def test_activity_validation(self):
        with pytest.raises(ValueError):
            activity_array({"u": -1}, ("u",))

    @given(
        st.dictionaries(
            st.sampled_from([f"u{i}" for i in range(12)]),
            st.one_of(st.just(0), st.integers(min_value=0, max_value=10**6)),
        ),
        st.lists(st.sampled_from([f"u{i}" for i in range(14)]), unique=True).map(sorted),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_array_is_bit_equal_to_reference(self, counts, users, raw):
        """Zero counts, all-zero dicts, table users absent from the counts."""
        ref = reference_activity_values(counts, raw=raw)
        expected = np.array([ref.get(u, 0.0) for u in users], dtype=float)
        assert activity_array(counts, users, raw=raw).tobytes() == expected.tobytes()


class TestFrozenCases:
    def test_one_success_one_failure_unit_activity(self):
        led, act = ledger_from_counts(1, 1, 1.0, 1.0)
        est = mle_virality(led, act)
        assert est.boundary is Boundary.INTERIOR
        np.testing.assert_allclose(est.r_hat, 0.5, atol=1e-9)
        np.testing.assert_allclose(grid_oracle(led, act), 0.5, atol=2e-5)

    def test_two_successes_one_failure_unit_activity(self):
        led, act = ledger_from_counts(2, 1, 1.0, 1.0)
        est = mle_virality(led, act)
        np.testing.assert_allclose(est.r_hat, 2.0 / 3.0, atol=1e-6)
        np.testing.assert_allclose(grid_oracle(led, act), 2.0 / 3.0, atol=2e-5)

    def test_equal_activity_closed_form_example(self):
        led, act = ledger_from_counts(3, 9, 0.5, 0.5)
        est = mle_virality(led, act)
        np.testing.assert_allclose(est.r_hat, 0.5, atol=1e-9)
        assert est.ln_r == pytest.approx(math.log(0.5))


class TestClosedForm:
    def test_hundred_random_equal_activity_ledgers(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            alpha = float(1.0 - rng.random())
            n_s = int(rng.integers(1, 12))
            n_f = int(rng.integers(1, 12))
            led, act = ledger_from_counts(n_s, n_f, alpha, alpha)
            expected = n_s / (alpha * (n_s + n_f))
            est = mle_virality(led, act)
            assert est.boundary is Boundary.INTERIOR
            np.testing.assert_allclose(est.r_hat, expected, atol=1e-9)
            # stationarity: l'(r_hat) = 0 analytically
            resid = n_s / expected - n_f * alpha / (1 - alpha * expected)
            np.testing.assert_allclose(resid, 0.0, atol=1e-6)


class TestBoundaries:
    def test_no_failures_hits_upper_boundary(self):
        led, act = ledger_from_counts(3, 0, 0.5, 0.5)
        est = mle_virality(led, act)
        assert est.boundary is Boundary.UPPER_BOUNDARY
        np.testing.assert_allclose(est.r_hat, 2.0)

    def test_weak_failures_hit_upper_boundary(self):
        led, act = ledger_from_counts(1, 1, 1.0, 0.01)
        est = mle_virality(led, act)
        assert est.boundary is Boundary.UPPER_BOUNDARY
        np.testing.assert_allclose(est.r_hat, 1.0)

    def test_zero_successes_flagged(self):
        led, act = ledger_from_counts(0, 4, 0.5, 0.5)
        est = mle_virality(led, act)
        assert est.boundary is Boundary.ZERO_SUCCESSES
        assert est.r_hat is None and est.ln_r is None

    def test_zero_activity_trials_dropped(self):
        led = id_ledger(["s0", "s1"], ["f0", "f1"])
        act = {"s0": 0.8, "s1": 0.0, "f0": 0.4, "f1": 0.0}
        est = mle_virality(led, alpha_of(led, act))
        assert est.dropped_zero_activity == 2
        assert (est.successes, est.failures) == (1, 1)

    def test_r_hat_never_exceeds_r_max(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            led, act = random_ledger(rng)
            est = mle_virality(led, act)
            if est.r_hat is None:
                continue
            r_max = 1.0 / max(act[u] for u in led.exposed)
            assert est.r_hat <= r_max + 1e-12


class TestOracleAgreement:
    def test_bisection_matches_grid_on_random_ledgers(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            led, act = random_ledger(rng)
            est = mle_virality(led, act)
            oracle = grid_oracle(led, act)
            assert abs(est.r_hat - oracle) <= 1e-3

    def test_windowed_oracle_equals_naive_full_scan(self):
        rng = np.random.default_rng(321)
        cases = [random_ledger(rng, max_exposed=8) for _ in range(10)]
        # Acceptance criterion 01's range: ledgers with no successes, and
        # activities down to 0.05, so r_max reaches 20 (a 2e6-point scan).
        # Few trials per ledger keep the naive scan's matrix small.
        cases += [
            random_ledger(
                rng,
                max_exposed=3,
                min_max_alpha=0.0,
                min_alpha=0.05,
                allow_zero_successes=True,
            )
            for _ in range(20)
        ]
        cases += [
            ledger_from_counts(0, 3, 0.05, 0.05),
            ledger_from_counts(1, 2, 0.05, 0.05),
            ledger_from_counts(2, 0, 0.05, 0.05),
        ]
        for led, act in cases:
            fast = grid_oracle(led, act)
            naive = grid_oracle(led, act, coarsen=1)
            assert fast == naive
        # both ends of [0, r_max] are grid points
        assert grid_oracle(*ledger_from_counts(0, 3, 0.05, 0.05)) == 0.0
        assert grid_oracle(*ledger_from_counts(2, 0, 0.05, 0.05)) == 1.0 / 0.05


class TestEquivariance:
    def test_activity_rescale_inverts_r_hat(self):
        rng = np.random.default_rng(99)
        for c in (0.5, 2.0, 10.0):
            led, act = interior_random_ledger(rng)
            base = mle_virality(led, act).r_hat
            est = mle_virality(led, act * c)
            np.testing.assert_allclose(est.r_hat, base / c, atol=1e-9, rtol=1e-9)

    def test_adding_failure_strictly_decreases(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            led, act = interior_random_ledger(rng)
            before = mle_virality(led, act).r_hat
            names = named(led)
            extra = f"f{len(led.failures)}x"
            act2 = dict(zip(led.users, act.tolist())) | {extra: float(1.0 - rng.random())}
            led2 = id_ledger(names.successes, names.failures | {extra})
            after = mle_virality(led2, alpha_of(led2, act2)).r_hat
            assert after < before

    def test_success_activity_perturbation_is_irrelevant(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            led, act = interior_random_ledger(rng)
            base = mle_virality(led, act).r_hat
            act2 = act.copy()
            for u in led.successes:
                act2[u] = act[u] * float(rng.uniform(0.1, 1.0))
            est = mle_virality(led, act2)
            assert abs(est.r_hat - base) <= 1e-12


class TestViralityCsv:
    def estimates(self):
        """Estimates of two interior ledgers and a zero-success one over
        one table, as the virality stage makes them."""
        table = ("f0", "f1", "f2", "s0", "s1")
        return [
            mle_virality(
                id_ledger([f"s{i}" for i in range(n_s)], [f"f{i}" for i in range(n_f)],
                          users=table, tweet_id=tid),
                np.full(len(table), 0.6),
            )
            for tid, n_s, n_f in [("t1", 2, 1), ("t2", 1, 2), ("t3", 0, 3)]
        ]

    def test_csv_format(self, tmp_path):
        estimates = self.estimates()
        out = tmp_path / "virality.csv"
        write_virality_csv(estimates, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tweet_id,group,successes,failures,exposed,r_hat,ln_r,boundary"
        assert len(lines) == 4
        assert lines[3].startswith("t3,0,0,3,3,,,zero_successes")

    def test_csv_reads_back_to_the_estimates_as_written(self, tmp_path):
        estimates = self.estimates()
        out = tmp_path / "virality.csv"
        write_virality_csv(reversed(estimates), out)
        again = read_virality_csv(out)
        assert [e.tweet_id for e in again] == ["t1", "t2", "t3"]
        for got, est in zip(again, estimates):
            assert (got.group, got.successes, got.failures, got.exposed, got.boundary) == (
                est.group, est.successes, est.failures, est.exposed, est.boundary
            )
            for value, written in ((got.r_hat, est.r_hat), (got.ln_r, est.ln_r)):
                assert value == (None if written is None else float(f"{written:.12g}"))
        assert again[2].r_hat is None and again[2].boundary is Boundary.ZERO_SUCCESSES

    @given(st.floats(min_value=5e-324, allow_infinity=False))
    @settings(max_examples=300)
    def test_any_written_estimate_reads_back(self, r):
        """Every ``.12g`` cell the writer makes passes the read-back's form and
        log checks, subnormal and huge ``r_hat`` included."""
        est = ViralityEstimate("t1", 0, 1, 1, 2, r, math.log(r), Boundary.INTERIOR)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "virality.csv"
            write_virality_csv([est], path)
            (got,) = read_virality_csv(path)
        assert got.r_hat == float(f"{r:.12g}")


# Names whose sorted order differs from their numeric order.
NAMES = [f"u{i}" for i in range(60)] + ["A", "b", "Zed", "u010"]


@st.composite
def mle_cases(draw):
    """A ledger by name and activities: normalized or raw counts, some zero,
    some users without any activity; any mix of successes and failures."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=48, unique=True))
    if draw(st.booleans()):
        value = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    else:
        value = st.integers(0, 400).map(float)
    act = {u: draw(value) for u in names if draw(st.integers(0, 9))}
    roles = [draw(st.sampled_from("ssff-")) for _ in names]
    successes = [u for u, r in zip(names, roles) if r == "s"]
    failures = [u for u, r in zip(names, roles) if r == "f"]
    return id_ledger(successes, failures, users=names), act


class TestStringReference:
    @given(mle_cases())
    @settings(max_examples=400, deadline=None)
    def test_estimate_is_bit_equal_to_string_mle(self, case):
        led, act = case
        est = mle_virality(led, alpha_of(led, act))
        assert est == reference_mle_virality(named(led), act)

    def test_many_interior_ledgers_are_bit_equal(self):
        """About one interior estimate in a hundred moves by an ulp when the
        failure terms are summed in another order, so 800 ledgers of 9-64
        trials show a change of order that the drawn cases may miss."""
        rng = np.random.default_rng(4)
        for _ in range(800):
            n = int(rng.integers(9, 65))
            names = [f"u{i}" for i in range(n)]
            n_s = int(rng.integers(1, n // 2 + 1))
            act = dict(zip(names, (1.0 - rng.random(n)).tolist()))
            led = id_ledger(names[:n_s], names[n_s:])
            est = mle_virality(led, alpha_of(led, act))
            assert est == reference_mle_virality(named(led), act)

    def test_alpha_must_align_with_the_table(self):
        led, alpha = ledger_from_counts(1, 1, 0.5, 0.5)
        with pytest.raises(ValueError, match="one activity per user"):
            mle_virality(led, alpha[:1])
