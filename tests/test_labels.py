"""Coder sheets, adjudication, agreement statistics, and the feature matrix."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echospread.labels import (
    CoderSheet,
    _design,
    build_feature_matrix,
    extract_marks,
    krippendorff_alpha,
    majority_vote,
    read_features_csv,
    write_features_csv,
)
from echospread.virality import Boundary, ViralityEstimate


def sheet(coder_id, features, rows):
    return CoderSheet(coder_id=coder_id, features=tuple(features), rows=rows)


def alpha_oracle(sheets):
    """Direct coincidence-matrix formulation of nominal alpha."""
    o = np.zeros((2, 2))
    for tweet_id in sheets[0].rows:
        for j in range(len(sheets[0].features)):
            values = [s.rows[tweet_id][j] for s in sheets]
            m = len(values)
            n_c = [values.count(0), values.count(1)]
            for c in (0, 1):
                for k in (0, 1):
                    o[c, k] += n_c[c] * (n_c[k] - (1 if c == k else 0)) / (m - 1)
    total = o.sum()
    if total == 0:
        return 1.0
    margins = o.sum(axis=1)
    d_o = (o[0, 1] + o[1, 0]) / total
    d_e = 2 * margins[0] * margins[1] / (total * (total - 1))
    if d_e == 0:
        return 1.0
    return 1.0 - d_o / d_e


class TestCoderSheet:
    def test_from_csv(self, tmp_path):
        path = tmp_path / "labels_alice.csv"
        path.write_text("tweet_id,humor,links\nt1,1,0\nt2,0,1\n", encoding="utf-8")
        cs = CoderSheet.from_csv(path)
        assert cs.coder_id == "alice"
        assert cs.features == ("humor", "links")
        assert cs.rows["t1"] == (1, 0)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            sheet("a", ["f"], {"t1": (2,)})

    def test_rejects_ragged_row(self):
        with pytest.raises(ValueError):
            sheet("a", ["f", "g"], {"t1": (1,)})

    @pytest.mark.parametrize("cell", [" 1", "1 ", "+1", "-0", "01", "1.0"])
    def test_rejects_cell_other_than_0_or_1(self, tmp_path, cell):
        path = tmp_path / "labels_a.csv"
        path.write_text(f"tweet_id,f,g\nt1,0,{cell}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="other than 0 or 1"):
            CoderSheet.from_csv(path)

    def test_rejects_empty_tweet_id(self, tmp_path):
        path = tmp_path / "labels_a.csv"
        path.write_text("tweet_id,f\nt1,1\n,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"labels_a\.csv: empty tweet_id"):
            CoderSheet.from_csv(path)

    def test_rejects_duplicate_csv_rows(self, tmp_path):
        path = tmp_path / "labels_a.csv"
        path.write_text("tweet_id,f\nt1,1\nt1,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate"):
            CoderSheet.from_csv(path)

    @pytest.mark.parametrize(
        "features, named",
        [
            (["f", ""], ""),
            (["crowd_size", "f", "crowd_size"], "crowd_size"),
            (["hashtags"], "hashtags"),
            (["mentions"], "mentions"),
            (["humor", "author:humor"], "author:humor"),
        ],
        ids=["empty", "repeated", "hashtags", "mentions", "author-prefix"],
    )
    def test_rejects_feature_name_the_design_cannot_hold(self, features, named):
        with pytest.raises(ValueError, match=re.escape(f"feature {named!r}")):
            sheet("a", features, {"t1": (0,) * len(features)})


class TestMajorityVote:
    def make_sheets(self, *vectors):
        features = ("f1", "f2")
        return [
            sheet(f"c{i}", features, {"t1": v[0], "t2": v[1]})
            for i, v in enumerate(vectors)
        ]

    def test_two_of_three_wins(self):
        sheets = self.make_sheets(
            [(1, 0), (1, 1)], [(1, 0), (1, 1)], [(0, 0), (0, 1)]
        )
        result = majority_vote(sheets)
        assert result.rows["t1"] == (1, 0)
        assert result.rows["t2"] == (1, 1)

    def test_unanimous_consensus_rate(self):
        sheets = self.make_sheets([(1, 0), (0, 1)], [(1, 0), (0, 1)])
        result = majority_vote(sheets)
        assert result.consensus_rate == 1.0
        assert result.ties == ()

    def test_even_tie_resolves_to_zero_with_flag(self):
        sheets = self.make_sheets([(1, 0), (0, 0)], [(0, 0), (0, 0)])
        result = majority_vote(sheets)
        assert result.rows["t1"] == (0, 0)
        assert ("t1", "f1") in result.ties

    def test_mismatched_tweet_sets_fatal(self):
        a = sheet("a", ("f",), {"t1": (1,)})
        b = sheet("b", ("f",), {"t2": (1,)})
        with pytest.raises(ValueError, match="tweet sets differ"):
            majority_vote([a, b])

    def test_repeated_coder_fatal(self):
        a = sheet("c1", ("f",), {"t1": (1,)})
        b = sheet("c2", ("f",), {"t1": (0,)})
        with pytest.raises(ValueError, match="coder c1 has more than one sheet"):
            majority_vote([a, b, a])
        with pytest.raises(ValueError, match="coder c1 has more than one sheet"):
            krippendorff_alpha([a, b, a])

    def test_one_sheet_fatal(self):
        a = sheet("a", ("f",), {"t1": (1,)})
        with pytest.raises(ValueError, match="at least two coder sheets"):
            majority_vote([a])
        with pytest.raises(ValueError, match="at least two coder sheets"):
            krippendorff_alpha([a])

    def test_mismatched_features_fatal(self):
        a = sheet("a", ("f",), {"t1": (1,)})
        b = sheet("b", ("g",), {"t1": (1,)})
        with pytest.raises(ValueError, match="feature lists differ"):
            majority_vote([a, b])

    @given(st.permutations(range(3)))
    def test_permutation_invariant(self, order):
        sheets = self.make_sheets(
            [(1, 0), (1, 1)], [(1, 1), (0, 1)], [(0, 0), (0, 0)]
        )
        base = majority_vote(sheets)
        shuffled = majority_vote([sheets[i] for i in order])
        assert base.rows == shuffled.rows
        assert base.consensus_rate == shuffled.consensus_rate


class TestKrippendorffAlpha:
    def test_perfect_agreement_is_exactly_one(self):
        rows = {"t1": (1, 0), "t2": (0, 1)}
        sheets = [sheet("a", ("f1", "f2"), rows), sheet("b", ("f1", "f2"), rows)]
        assert krippendorff_alpha(sheets) == 1.0

    def test_hand_computed_disagreement_case(self):
        # two coders, four items: (0,1),(1,0),(0,1),(1,0)
        a = sheet("a", ("f",), {"t1": (0,), "t2": (1,), "t3": (0,), "t4": (1,)})
        b = sheet("b", ("f",), {"t1": (1,), "t2": (0,), "t3": (1,), "t4": (0,)})
        alpha = krippendorff_alpha([a, b])
        np.testing.assert_allclose(alpha, -0.75, atol=1e-12)
        np.testing.assert_allclose(alpha_oracle([a, b]), -0.75, atol=1e-12)

    def test_all_same_value_everywhere(self):
        rows = {"t1": (1,), "t2": (1,)}
        sheets = [sheet("a", ("f",), rows), sheet("b", ("f",), rows)]
        assert krippendorff_alpha(sheets) == 1.0

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150)
    def test_matches_coincidence_oracle(self, n_coders, n_tweets, n_feats, seed):
        rng = np.random.default_rng(seed)
        features = tuple(f"f{j}" for j in range(n_feats))
        tweet_ids = [f"t{i}" for i in range(n_tweets)]
        sheets = [
            sheet(
                f"c{k}",
                features,
                {
                    t: tuple(int(v) for v in rng.integers(0, 2, size=n_feats))
                    for t in tweet_ids
                },
            )
            for k in range(n_coders)
        ]
        impl = krippendorff_alpha(sheets)
        oracle = alpha_oracle(sheets)
        assert abs(impl - oracle) <= 1e-12

    def test_one_iff_identical(self):
        rows_a = {"t1": (1, 0), "t2": (0, 0)}
        rows_b = {"t1": (1, 0), "t2": (0, 1)}
        identical = [sheet("a", ("f1", "f2"), rows_a), sheet("b", ("f1", "f2"), rows_a)]
        differing = [sheet("a", ("f1", "f2"), rows_a), sheet("b", ("f1", "f2"), rows_b)]
        assert krippendorff_alpha(identical) == 1.0
        assert krippendorff_alpha(differing) != 1.0


class TestExtractMarks:
    def test_counts_hashtags_and_mentions(self):
        assert extract_marks("Join us #ActOnClimate #ClimateStrike @GretaThunberg") == (2, 1)

    def test_bare_marks_not_counted(self):
        assert extract_marks("100% # @ none") == (0, 0)

    def test_embedded_email_artifact(self):
        assert extract_marks("email me@example.com") == (0, 1)

    def test_invariant_to_surrounding_text(self):
        assert extract_marks("xx #tag yy")[0] == extract_marks("zz #tag qq")[0]


def make_estimate(tweet_id, group=0, r_hat=0.25, boundary=Boundary.INTERIOR):
    ln = None if r_hat is None else float(np.log(r_hat))
    return ViralityEstimate(
        tweet_id=tweet_id,
        group=group,
        successes=0 if r_hat is None else 3,
        failures=5,
        exposed=5 if r_hat is None else 8,
        r_hat=r_hat,
        ln_r=ln,
        boundary=boundary,
    )


class TestFeatureMatrix:
    def build(self, min_author_tweets=3):
        from echospread.labels import VoteResult

        tweets = [f"t{i}" for i in range(8)]
        rows = {t: (i % 2, (i // 2) % 2) for i, t in enumerate(tweets)}
        vote = VoteResult(
            features=("humor", "links"), rows=rows, consensus_rate=1.0
        )
        marks = {t: (i, 1) for i, t in enumerate(tweets)}
        authors = {t: ("big" if i < 5 else "small") for i, t in enumerate(tweets)}
        estimates = [make_estimate(t) for t in tweets[:7]] + [
            make_estimate("t7", r_hat=None, boundary=Boundary.ZERO_SUCCESSES)
        ]
        return vote, marks, estimates, authors, min_author_tweets

    def test_thin_authors_dropped(self):
        vote, marks, estimates, authors, k = self.build()
        matrix = build_feature_matrix(vote, marks, estimates, authors, group=0)
        # t7 is zero-success; author "small" keeps only t5, t6 -> below 3
        assert set(matrix.author_ids) == {"big"}
        assert matrix.n == 5
        assert matrix.excluded_zero_successes == 1
        assert matrix.excluded_thin_authors == 2

    def design(self, tmp_path):
        """The design the lasso fits: the matrix through its CSV."""
        vote, marks, estimates, authors, _ = self.build()
        matrix = build_feature_matrix(
            vote, marks, estimates, authors, group=0, min_author_tweets=2
        )
        out = tmp_path / "features.csv"
        write_features_csv(matrix, out)
        return read_features_csv(out)

    def test_one_hot_authors(self, tmp_path):
        X, _, _, columns = self.design(tmp_path)
        assert columns[-2:] == ("author:big", "author:small")
        assert np.all(X[:, -2:].sum(axis=1) == 1)

    def test_author_columns_have_support(self, tmp_path):
        X, _, _, _ = self.design(tmp_path)
        per_author = X[:, -2:].sum(axis=0)
        assert np.all(per_author >= 2)

    def test_group_only_features_dropped_elsewhere(self):
        vote, marks, estimates, authors, _ = self.build()
        matrix = build_feature_matrix(
            vote,
            marks,
            estimates,
            authors,
            group=0,
            min_author_tweets=1,
            group_only_features={1: ("links",)},
        )
        assert matrix.columns == ("humor", "hashtags", "mentions")
        assert all(len(row) == 3 for row in matrix.values)

    def test_group_spec_shapes(self, tmp_path):
        X, _, groups, _ = self.design(tmp_path)
        sizes = sorted(len(g) for g in groups)
        # humor, links, hashtags, mentions singles + one author block of 2
        assert sizes == [1, 1, 1, 1, 2]
        covered = sorted(j for g in groups for j in g)
        assert covered == list(range(X.shape[1]))

    def test_response_is_log_virality(self):
        vote, marks, estimates, authors, _ = self.build()
        matrix = build_feature_matrix(
            vote, marks, estimates, authors, group=0, min_author_tweets=1
        )
        np.testing.assert_allclose(matrix.y, np.log(0.25))

    def test_csv_mirror(self, tmp_path):
        vote, marks, estimates, authors, _ = self.build()
        matrix = build_feature_matrix(
            vote, marks, estimates, authors, group=0, min_author_tweets=2
        )
        out = tmp_path / "features.csv"
        write_features_csv(matrix, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tweet_id,author_id,group,humor,links,hashtags,mentions,ln_r"
        assert len(lines) == matrix.n + 1

    @pytest.mark.parametrize("min_author_tweets", [1, 2, 3, 9])
    def test_csv_round_trip_rebuilds_the_design(self, tmp_path, min_author_tweets):
        vote, marks, estimates, authors, _ = self.build()
        matrix = build_feature_matrix(
            vote, marks, estimates, authors, group=0,
            min_author_tweets=min_author_tweets, group_only_features={1: ("links",)},
        )
        out = tmp_path / "features.csv"
        write_features_csv(matrix, out)
        X, y, groups, columns = read_features_csv(out)
        X_ref, groups_ref, columns_ref = _design(
            matrix.columns, matrix.values, matrix.author_ids
        )
        assert X.tobytes() == X_ref.tobytes() and X.shape == X_ref.shape
        assert groups == groups_ref
        assert columns == columns_ref
        np.testing.assert_array_equal(y, [float(f"{v:.12g}") for v in matrix.y])
