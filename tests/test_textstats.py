"""Tokenizer, characteristic-word tables, and cross-group spread counts."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from echospread.ingest import Cascade
from echospread.textstats import (
    SpreadCount,
    cross_group_counts,
    tokenize,
    word_diff_table,
    write_spread_csv,
    write_words_csv,
)


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Climate CRISIS") == ["climate", "crisis"]

    def test_strips_scheme_urls(self):
        tokens = tokenize("read https://example.com/a?b=1 now")
        assert tokens == ["read", "now"]

    def test_keeps_hashtag_and_mention_prefixes(self):
        assert tokenize("#ClimateStrike with @greta") == [
            "#climatestrike",
            "with",
            "@greta",
        ]

    def test_splits_on_punctuation(self):
        assert tokenize("act-now, folks!") == ["act", "now", "folks"]

    def test_stemmer_folds_plurals(self):
        assert tokenize("protesters kids cities", stemmer=True) == [
            "protester",
            "kid",
            "city",
        ]

    def test_stemmer_off_by_default(self):
        assert tokenize("kids") == ["kids"]


class TestWordDiffTable:
    def test_manual_count_oracle(self):
        a = ["climate crisis now", "crisis means act"]
        b = ["climate hoax"]
        table_a, table_b = word_diff_table(a, b)
        first = table_a[0]
        assert (first.token, first.n_self, first.n_other, first.diff) == (
            "crisis",
            2,
            0,
            2,
        )
        assert table_b[0].token == "hoax"

    def test_token_counted_once_per_tweet(self):
        table_a, _ = word_diff_table(["crisis crisis crisis"], [])
        row = next(r for r in table_a if r.token == "crisis")
        assert row.n_self == 1

    def test_ties_rank_alphabetically(self):
        table_a, _ = word_diff_table(["apple zebra"], [])
        assert [r.token for r in table_a[:2]] == ["apple", "zebra"]

    def test_top_k_truncates(self):
        texts = [" ".join(f"w{i:02d}" for i in range(50))]
        table_a, _ = word_diff_table(texts, [], top_k=30)
        assert len(table_a) == 30

    def test_empty_corpus(self):
        table_a, table_b = word_diff_table([], [])
        assert table_a == [] and table_b == []

    @given(
        st.lists(
            st.text(alphabet="ab #", min_size=0, max_size=12), min_size=0, max_size=8
        ),
        st.lists(
            st.text(alphabet="ab #", min_size=0, max_size=12), min_size=0, max_size=8
        ),
    )
    @settings(max_examples=100)
    def test_antisymmetric_diffs(self, a, b):
        table_a, table_b = word_diff_table(a, b, top_k=10_000)
        diffs_a = {r.token: r.diff for r in table_a}
        diffs_b = {r.token: r.diff for r in table_b}
        assert diffs_a.keys() == diffs_b.keys()
        for token, diff in diffs_a.items():
            assert diff == -diffs_b[token]

    @given(
        st.lists(
            st.text(alphabet="xy z", min_size=0, max_size=10), min_size=0, max_size=6
        )
    )
    @settings(max_examples=60)
    def test_counts_bounded_by_corpus_size(self, texts):
        table_a, _ = word_diff_table(texts, [], top_k=10_000)
        for row in table_a:
            assert 0 <= row.n_self <= len(texts)
            assert row.n_other == 0


TABLE = tuple(sorted([f"a{i}" for i in range(15)] + [f"s{i}" for i in range(15)] + ["ghost"]))


def cascade_with_retweeters(tweet_id, author, users):
    """A cascade on ``TABLE``."""
    index = {u: k for k, u in enumerate(TABLE)}
    return Cascade(tweet_id, "climate", index[author],
                   np.array([index[u] for u in users], dtype=np.int64))


class TestCrossGroupCounts:
    def groups(self):
        """The a-users in group 0, the s-users in group 1, ghost in neither."""
        return np.array([{"a": 0, "s": 1}.get(u[0], -1) for u in TABLE], dtype=np.int8)

    def test_threshold_qualification(self):
        users = [f"a{i}" for i in range(12)] + [f"s{i}" for i in range(11)]
        cascades = [cascade_with_retweeters("t1", "a14", users)]
        counts, summary = cross_group_counts(cascades, self.groups())
        assert counts[0].retweeters_activist == 12
        assert counts[0].retweeters_skeptic == 11
        assert summary.qualifying == 1

    def test_exactly_threshold_does_not_qualify(self):
        users = [f"a{i}" for i in range(10)] + [f"s{i}" for i in range(11)]
        cascades = [cascade_with_retweeters("t1", "s0", users)]
        _, summary = cross_group_counts(cascades, self.groups())
        assert summary.qualifying == 0

    def test_single_sided_spread(self):
        users = [f"a{i}" for i in range(4)]
        cascades = [cascade_with_retweeters("t1", "s0", users)]
        counts, _ = cross_group_counts(cascades, self.groups())
        assert (counts[0].retweeters_activist, counts[0].retweeters_skeptic) == (4, 0)

    def test_activist_group_remapping(self):
        users = ["a0", "s0", "s1"]
        cascades = [cascade_with_retweeters("t1", "a9", users)]
        counts, _ = cross_group_counts(cascades, self.groups(), activist_group=1)
        assert (counts[0].retweeters_activist, counts[0].retweeters_skeptic) == (2, 1)

    def test_unclassified_retweeters_ignored(self):
        users = ["a0", "ghost"]
        cascades = [cascade_with_retweeters("t1", "s0", users)]
        counts, _ = cross_group_counts(cascades, self.groups())
        assert counts[0].retweeters_activist == 1


class TestCsvWriters:
    def test_words_csv(self, tmp_path):
        table_a, _ = word_diff_table(["climate crisis"], ["climate hoax"])
        out = tmp_path / "words_activist.csv"
        write_words_csv(table_a, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "token,n_self,n_other,diff"
        assert "crisis,1,0,1" in lines

    def test_spread_csv(self, tmp_path):
        out = tmp_path / "spread.csv"
        write_spread_csv(
            [SpreadCount(tweet_id="t1", retweeters_activist=3, retweeters_skeptic=0)],
            out,
        )
        lines = out.read_text().strip().splitlines()
        assert lines == [
            "tweet_id,retweeters_activist,retweeters_skeptic",
            "t1,3,0",
        ]
