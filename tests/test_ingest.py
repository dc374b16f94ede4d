"""Parsing, corpus filtering, and cascade assembly."""

import json
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from echospread import ingest
from echospread.graph import build_retweet_network
from echospread.ingest import (
    SEED_PAIRS,
    TweetRecord,
    build_cascades,
    chain_roots,
    filter_corpus,
    parse_records,
    write_records_jsonl,
)
from helpers import (
    _first_by_id,
    named_cascades,
    named_seed_pair_users,
    reference_build_cascades,
    reference_filter_corpus,
    reference_record_from_obj,
    reference_seed_pair_users,
    topical_records,
)


def rec(tweet_id, user_id="u", timestamp=0, text="climate talk", **kw):
    kw.setdefault("lang", "en")
    return TweetRecord(tweet_id, user_id, timestamp, text, **kw)


def obj(tweet_id, user_id="u", timestamp=0, text="climate talk", **kw):
    base = {
        "tweet_id": tweet_id,
        "user_id": user_id,
        "timestamp": timestamp,
        "text": text,
        "retweet_of": None,
        "reply_to": None,
        "lang": "en",
    }
    base.update(kw)
    return base


def eligible_users(records):
    """The eligible users as ``ingest`` counts them: the seed-pair users of
    the topical records."""
    return set().union(*named_seed_pair_users(topical_records(records)).values())


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")
    return path


class TestTweetRecord:
    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            rec("")

    def test_rejects_self_retweet(self):
        with pytest.raises(ValueError):
            rec("t1", retweet_of="t1")

    def test_rejects_empty_retweet_of(self):
        """A stub origin takes ``retweet_of`` as its tweet id."""
        with pytest.raises(ValueError, match="empty retweet_of"):
            rec("t1", retweet_of="")

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            rec("t1", timestamp=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("tweet_id", 1), ("user_id", None), ("timestamp", True), ("timestamp", 1.5),
         ("text", 0), ("retweet_of", 4), ("reply_to", False), ("lang", ["en"])],
    )
    def test_rejects_a_field_of_the_wrong_type(self, field, value):
        with pytest.raises(ValueError):
            replace(rec("t1"), **{field: value})


class TestParseRecords:
    def test_equal_strings_are_shared_within_a_call(self, tmp_path):
        """Records hold slots, and equal ``user_id``, ``retweet_of``,
        ``reply_to`` and ``lang`` values of one call are one object."""
        objs = [
            obj("t1", user_id="u1"),
            obj("t2", user_id="u1", retweet_of="t1", reply_to="t1"),
            obj("t3", user_id="u1", retweet_of="t1", reply_to="t1"),
        ]
        records, _ = parse_records(write_jsonl(tmp_path / "t.jsonl", objs))
        assert not hasattr(records[0], "__dict__")
        for key in ("user_id", "retweet_of", "reply_to", "lang"):
            assert getattr(records[1], key) is getattr(records[2], key)
        assert records[0].user_id is records[2].user_id
        again, _ = parse_records(tmp_path / "t.jsonl")
        assert again == records and again[0].user_id is not records[0].user_id

    def test_three_valid_lines(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", [obj(f"t{i}") for i in range(3)])
        records, report = parse_records(path)
        assert len(records) == 3
        assert (report.malformed, report.duplicates) == (0, 0)
        assert report.parsed == 3

    def test_truncated_line_counted(self, tmp_path):
        lines = [json.dumps(obj(f"t{i}")) for i in range(5)]
        lines[2] = lines[2][:20]
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        records, report = parse_records(path)
        assert len(records) == 4
        assert report.malformed == 1

    def test_invalid_utf8_line_counted(self, tmp_path):
        first = json.dumps(obj("t1", text="climaté"), ensure_ascii=False)
        last = json.dumps(obj("t2"))
        path = tmp_path / "t.jsonl"
        path.write_bytes(first.encode("utf-8") + b"\n\xff\n" + last.encode("utf-8") + b"\n")
        records, report = parse_records(path)
        assert [r.tweet_id for r in records] == ["t1", "t2"]
        assert records[0].text == "climaté"
        assert (report.lines, report.parsed, report.malformed) == (3, 2, 1)

    def test_duplicate_id_first_wins(self, tmp_path):
        path = write_jsonl(
            tmp_path / "t.jsonl",
            [obj("t1", text="first"), obj("t1", text="second")],
        )
        records, report = parse_records(path)
        assert len(records) == 1
        assert records[0].text == "first"
        assert report.duplicates == 1

    def test_schema_violations_counted(self, tmp_path):
        bad = [
            obj("t1", timestamp="soon"),
            obj("", text="empty id"),
            {"user_id": "u"},
            obj("t3"),
        ]
        path = write_jsonl(tmp_path / "t.jsonl", bad)
        records, report = parse_records(path)
        assert [r.tweet_id for r in records] == ["t3"]
        assert report.malformed == 3

    def test_empty_user_id_is_malformed_not_a_stub_author(self, tmp_path):
        """The record with the empty name is skipped, so its retweeters and
        those of an absent tweet both make stub origins, with no author."""
        path = write_jsonl(
            tmp_path / "t.jsonl",
            [
                obj("t0", user_id=""),
                obj("t1", user_id="a", retweet_of="t0"),
                obj("t2", user_id="b", retweet_of="absent"),
            ],
        )
        records, report = parse_records(path)
        assert [r.tweet_id for r in records] == ["t1", "t2"]
        assert (report.lines, report.parsed, report.malformed) == (3, 2, 1)
        users = sorted({r.user_id for r in records})
        cascades, _ = build_cascades(records, chain_roots(records), users)
        assert [(c.tweet_id, c.author) for c in cascades] == [("absent", -1), ("t0", -1)]
        eligible = np.ones(len(users), dtype=bool)
        assert build_retweet_network(cascades, eligible).edges() == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            parse_records(tmp_path / "absent.jsonl")

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(obj("t1")) + "\n\n\n", encoding="utf-8")
        records, report = parse_records(path)
        assert len(records) == 1
        assert report.lines == 1


class TestFilterCorpus:
    def test_case_insensitive_substring(self):
        topical = topical_records([rec("t1", text="The CLIMATE emergency")])
        assert [r.tweet_id for r in topical] == ["t1"]

    def test_off_topic_dropped(self):
        topical = topical_records([rec("t1", text="kittens are soft")])
        assert topical == []

    def test_reply_excluded(self):
        topical = topical_records([rec("t1", reply_to="t0", lang="en")])
        assert topical == []

    def test_disallowed_lang_dropped(self):
        topical = topical_records([rec("t1", lang="de"), rec("t2", lang="en")])
        assert [r.tweet_id for r in topical] == ["t2"]

    def test_missing_lang_dropped_under_allow_list(self):
        topical = topical_records([rec("t1", lang=None)])
        assert topical == []

    def test_retweet_follows_origin_retention(self):
        records = [
            rec("o1", user_id="a", text="climate update", lang="en"),
            rec("r1", user_id="b", text="RT @a: climate up...", retweet_of="o1", lang="en"),
        ]
        topical = topical_records(records)
        assert {r.tweet_id for r in topical} == {"o1", "r1"}

    def test_retweet_of_reply_dropped(self):
        records = [
            rec("o1", user_id="a", text="climate update", reply_to="x", lang="en"),
            rec("r1", user_id="b", text="RT @a: climate update", retweet_of="o1", lang="en"),
        ]
        topical = topical_records(records)
        assert topical == []

    def test_repeated_tweet_id_raises(self):
        """The roots align with the records, so each record needs its own id;
        ``parse_records`` keeps the first occurrence of each."""
        with pytest.raises(ValueError, match="distinct tweet ids"):
            filter_corpus([rec("o"), rec("r", retweet_of="o"), rec("o", user_id="v")])

    def test_orphan_retweet_tested_on_own_fields(self):
        topical = topical_records(
            [rec("r1", text="RT @a: climate update", retweet_of="gone", lang="en")]
        )
        assert [r.tweet_id for r in topical] == ["r1"]

    def test_eligible_via_climatehoax_hashtag(self):
        records = [
            rec("t1", user_id="skeptic1", text="all lies #ClimateHoax"),
            rec("t2", user_id="bystander", text="climate news"),
        ]
        assert eligible_users(records) == {"skeptic1"}

    def test_stems_must_share_one_hashtag_token(self):
        records = [
            rec("t1", user_id="a", text="climate stuff #hoax"),
            rec("t2", user_id="b", text="climate #climatecrisis"),
        ]
        assert eligible_users(records) == {"b"}

    def test_retweeter_of_tagged_origin_is_eligible(self):
        records = [
            rec("o1", user_id="a", text="#ClimateCrisis is here"),
            rec("r1", user_id="b", text="RT @a: #ClimateCr...", retweet_of="o1"),
        ]
        assert eligible_users(records) == {"a", "b"}


class TestSeedPairUsers:
    def test_pairs_collected_separately(self):
        records = [
            rec("t1", user_id="a", text="#climatecrisis"),
            rec("t2", user_id="b", text="#ClimateHoax"),
        ]
        users = named_seed_pair_users(records)
        assert users[("climate", "crisis")] == {"a"}
        assert users[("climate", "hoax")] == {"b"}


class TestChainRoots:
    def test_roots_follow_the_records_order(self):
        records = [
            rec("r2", retweet_of="r1"),
            rec("o"),
            rec("r1", retweet_of="o"),
            rec("x", retweet_of="y"),
            rec("y", retweet_of="x"),
        ]
        roots = chain_roots(records)
        assert [None if r is None else r.tweet_id for r in roots] == ["o", "o", "o", None, None]

    def test_repeated_tweet_id_raises(self):
        """The roots align with the records, so each record needs its own id;
        callers take first occurrences before they walk."""
        with pytest.raises(ValueError, match="distinct tweet ids"):
            chain_roots([rec("o"), rec("r", retweet_of="o"), rec("o", user_id="v")])


class TestBuildCascades:
    def test_retweets_sorted_by_time(self):
        records = [
            rec("o", user_id="a", timestamp=0),
            rec("ru", user_id="u", timestamp=5, retweet_of="o"),
            rec("rv", user_id="v", timestamp=3, retweet_of="o"),
        ]
        cascades, _ = named_cascades(records)
        assert len(cascades) == 1
        assert cascades[0].retweeters == ("v", "u")

    def test_duplicate_retweeter_collapses_to_earliest(self):
        records = [
            rec("o", user_id="a", timestamp=0),
            rec("r1", user_id="u", timestamp=9, retweet_of="o"),
            rec("r2", user_id="u", timestamp=3, retweet_of="o"),
            rec("r3", user_id="v", timestamp=5, retweet_of="o"),
        ]
        cascades, report = named_cascades(records)
        assert cascades[0].retweeters == ("u", "v")  # u's event at 3 precedes v's
        assert report.collapsed_duplicates == 1

    def test_stub_origin_flagged(self):
        records = [rec("r1", user_id="u", timestamp=4, text="rt climate", retweet_of="gone")]
        cascades, report = build_cascades(records, chain_roots(records), ["u"])
        assert len(cascades) == 1
        assert cascades[0].author == -1
        assert cascades[0].tweet_id == "gone"
        assert cascades[0].text == "rt climate"
        assert cascades[0].retweeters.tolist() == [0]
        assert report.stub_origins == 1

    def test_chain_resolves_to_ultimate_origin(self):
        records = [
            rec("o", user_id="a", timestamp=0),
            rec("r1", user_id="b", timestamp=1, retweet_of="o"),
            rec("r2", user_id="c", timestamp=2, retweet_of="r1"),
        ]
        cascades, _ = named_cascades(records)
        assert len(cascades) == 1
        assert cascades[0].retweeters == ("b", "c")

    def test_cycle_dropped_and_counted(self):
        records = [
            rec("x", user_id="a", timestamp=0, retweet_of="y"),
            rec("y", user_id="b", timestamp=1, retweet_of="x"),
        ]
        cascades, report = named_cascades(records)
        assert cascades == []
        assert report.dropped_cycles == 2

    def test_timestamp_inversion_flagged_but_kept(self):
        records = [
            rec("o", user_id="a", timestamp=5),
            rec("r1", user_id="u", timestamp=1, retweet_of="o"),
        ]
        cascades, report = named_cascades(records)
        assert cascades[0].timestamp_inversion
        assert cascades[0].retweeters == ("u",)
        assert report.inversions == 1

    def test_zero_retweet_original_is_a_cascade(self):
        records = [rec("o", user_id="a")]
        cascades, _ = build_cascades(records, chain_roots(records), ["a"])
        assert len(cascades) == 1
        assert (cascades[0].author, cascades[0].retweeters.tolist()) == (0, [])


USERS = [f"u{i}" for i in range(6)]
TEXTS = [
    "climate crisis now",
    "The CLIMATE emergency",
    "#ClimateHoax nonsense",
    "kittens",
    "warm weather #climatecrisis",
]


@st.composite
def corpora(draw, wide=False):
    """Originals and retweets of them. With ``wide``, a retweet may also be a
    reply, carry its own text, or target a missing origin or another retweet
    (chains, and cycles when two retweets target each other), and a tweet id
    may appear again with another user and text."""
    n_orig = draw(st.integers(min_value=1, max_value=5))
    records = []
    for i in range(n_orig):
        records.append(
            TweetRecord(
                tweet_id=f"o{i}",
                user_id=draw(st.sampled_from(USERS)),
                timestamp=draw(st.integers(min_value=0, max_value=40)),
                text=draw(st.sampled_from(TEXTS)),
                reply_to=draw(st.sampled_from([None, None, None, "z"])),
                lang=draw(st.sampled_from(["en", "en", "de", None])),
            )
        )
    n_rt = draw(st.integers(min_value=0, max_value=10))
    for j in range(n_rt):
        targets = [f"o{i}" for i in range(n_orig)]
        if wide:
            targets += ["gone"] + [f"r{k}" for k in range(n_rt) if k != j]
        records.append(
            TweetRecord(
                tweet_id=f"r{j}",
                user_id=draw(st.sampled_from(USERS)),
                timestamp=draw(st.integers(min_value=0, max_value=40)),
                text=draw(st.sampled_from(TEXTS)) if wide else "RT: see original",
                retweet_of=draw(st.sampled_from(targets)),
                reply_to=draw(st.sampled_from([None, None, "z"])) if wide else None,
                lang=draw(st.sampled_from(["en", "en", None])),
            )
        )
    if wide:
        for again in draw(st.lists(st.sampled_from(records), max_size=3)):
            records.insert(
                draw(st.integers(min_value=0, max_value=len(records))),
                replace(again, user_id=draw(st.sampled_from(USERS)),
                        text=draw(st.sampled_from(TEXTS))),
            )
    return records


class TestCorpusProperties:
    @given(corpora(wide=True))
    @settings(max_examples=300)
    def test_filter_is_idempotent(self, records):
        topical = topical_records(records)
        again = topical_records(topical)
        assert again == topical
        assert eligible_users(topical) == eligible_users(records)

    @given(corpora())
    @settings(max_examples=150)
    def test_retweets_reference_their_cascade_origin(self, records):
        """Without chains, a cascade's retweeters are the users of the
        retweets of its origin, ordered by their earliest such retweet."""
        cascades, _ = named_cascades(records)
        for cascade in cascades:
            events = sorted((r.timestamp, r.tweet_id, r.user_id) for r in records
                            if r.retweet_of == cascade.tweet_id)
            assert cascade.retweeters == tuple(dict.fromkeys(u for _, _, u in events))

    @given(corpora())
    @settings(max_examples=150)
    def test_event_count_bounded_by_topical_records(self, records):
        # all retweet targets exist in the corpus, so no stub inflation
        topical = topical_records(records)
        cascades, _ = named_cascades(topical)
        total = sum(1 + len(c.retweeters) for c in cascades)
        assert total <= len(topical)

    @given(corpora())
    @settings(max_examples=100)
    def test_no_retweeter_twice_per_cascade(self, records):
        cascades, _ = named_cascades(records)
        for cascade in cascades:
            names = cascade.retweeters
            assert len(names) == len(set(names))


# Ids are prefixed so that no record can retweet itself; an empty user id is
# malformed.
any_record = st.builds(
    TweetRecord,
    tweet_id=st.text().map(lambda s: "t" + s),
    user_id=st.text(min_size=1),
    timestamp=st.integers(min_value=0, max_value=2**70),
    text=st.text(),
    retweet_of=st.none() | st.text().map(lambda s: "o" + s),
    reply_to=st.none() | st.text(),
    lang=st.none() | st.text(),
)


class TestRecordsRoundTrip:
    @given(st.lists(any_record, unique_by=lambda r: r.tweet_id))
    @settings(max_examples=150, deadline=None)
    def test_written_records_parse_back_equal(self, tmp_path_factory, records):
        """Writing then parsing is the identity, so ``ingest`` may hand its
        filtered records on instead of parsing ``filtered.jsonl`` again."""
        path = tmp_path_factory.mktemp("roundtrip") / "records.jsonl"
        write_records_jsonl(records, path)
        parsed, report = parse_records(path)
        assert parsed == records
        assert report.parsed == report.lines == len(records)


def has_cycle(records):
    """Whether some ``retweet_of`` chain among the first occurrences of each
    tweet id runs into a cycle."""
    by_id = {}
    for r in records:
        by_id.setdefault(r.tweet_id, r)
    for rec in by_id.values():
        seen = set()
        cur = rec
        while cur is not None and cur.tweet_id not in seen:
            seen.add(cur.tweet_id)
            cur = by_id.get(cur.retweet_of)
        if cur is not None:
            return True
    return False


class TestChainReference:
    """Filtering, seed pairs and cascades on one chain walk against their
    separate walks in ``tests/helpers.py``."""

    @given(corpora(wide=True))
    @settings(max_examples=400)
    def test_topical_records_and_cascades_equal_reference(self, records):
        topical = topical_records(records)
        ref_topical, ref_eligible = reference_filter_corpus(records)
        assert topical == ref_topical
        assert set().union(*named_seed_pair_users(topical).values()) == ref_eligible
        for corpus in (records, topical):
            cascades, report = named_cascades(corpus)
            ref_cascades, ref_report = reference_build_cascades(corpus)
            assert cascades == [c.view() for c in ref_cascades]
            assert report == ref_report

    @given(corpora(wide=True))
    @settings(max_examples=400)
    def test_filter_roots_are_the_chain_roots_of_the_topical_records(self, records):
        """Every record on a kept record's chain is kept too, so the filter's
        walk gives each kept record the root that a walk of the kept records
        gives it, with or without replies excluded."""
        topical, roots = filter_corpus(list(_first_by_id(records).values()))
        assert topical == topical_records(records)
        for exclude_replies in (False, True):
            walked = chain_roots(topical, exclude_replies)
            assert len(roots) == len(walked)
            assert all(a is b for a, b in zip(roots, walked))

    @given(corpora(wide=True))
    @settings(max_examples=400)
    def test_seed_pairs_equal_reference_without_a_cycle(self, records):
        topical = topical_records(records)
        assert named_seed_pair_users(topical) == reference_seed_pair_users(topical, SEED_PAIRS)
        if not has_cycle(records):
            assert named_seed_pair_users(records) == reference_seed_pair_users(records, SEED_PAIRS)

    def test_record_on_or_into_a_cycle_matches_no_seed_pair(self):
        records = [
            rec("o", user_id="a", text="#ClimateHoax"),
            rec("x", user_id="b", text="#ClimateHoax", retweet_of="y"),
            rec("y", user_id="c", text="#ClimateHoax", retweet_of="x"),
            rec("z", user_id="d", text="#ClimateHoax", retweet_of="x"),
        ]
        assert named_seed_pair_users(records)[("climate", "hoax")] == {"a"}
        assert [r.tweet_id for r in topical_records(records)] == ["o"]
        cascades, report = named_cascades(records)
        assert [c.tweet_id for c in cascades] == ["o"]
        assert report.dropped_cycles == 3

    def test_long_chain_is_linear(self):
        """A retweet-of-retweet chain of 4,000 records, deepest first: each
        function walks it once (a walk per record took seconds)."""
        n = 4000
        records = [
            rec(f"t{k}", user_id=f"u{k}", timestamp=k, text="#ClimateCrisis",
                retweet_of=f"t{k - 1}" if k else None)
            for k in reversed(range(n))
        ]
        start = time.perf_counter()
        topical = topical_records(records)
        users = named_seed_pair_users(records)
        cascades, report = named_cascades(records)
        assert time.perf_counter() - start < 1.0
        assert len(topical) == n
        assert len(users[("climate", "crisis")]) == n
        assert [len(c.retweeters) for c in cascades] == [n - 1]
        assert report.dropped_cycles == 0


def field_values():
    return st.one_of(
        st.text(max_size=3), st.integers(min_value=-2, max_value=2), st.booleans(),
        st.none(), st.floats(allow_nan=False, width=16), st.lists(st.integers(), max_size=1),
    )


@st.composite
def json_lines(draw):
    """One JSONL line: mostly objects with right or wrong field types, some
    with keys missing, some not objects at all."""
    kind = draw(st.sampled_from(["object", "object", "object", "other"]))
    if kind == "other":
        return json.dumps(draw(field_values()))
    base = obj(
        draw(st.sampled_from(["t1", "t2", "", 7])),
        user_id=draw(st.sampled_from(["u", "", 3, None])),
        timestamp=draw(st.sampled_from([0, 5, -1, True, 1.5, "9"])),
        text=draw(st.sampled_from(["climate", 0, None])),
        retweet_of=draw(st.sampled_from([None, "t1", "t2", 4])),
        reply_to=draw(st.sampled_from([None, "t0", False])),
        lang=draw(st.sampled_from([None, "en", ["en"]])),
    )
    for key in draw(st.lists(st.sampled_from(sorted(base)), max_size=2)):
        if draw(st.booleans()):
            base.pop(key, None)
        else:
            base[key] = draw(field_values())
    return json.dumps(base)


class TestParseReference:
    @given(st.lists(json_lines(), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_parse_equals_reference_record_builder(self, tmp_path_factory, lines):
        """``TweetRecord`` checking the fields accepts and rejects exactly the
        lines the old field-by-field record builder did."""
        path = tmp_path_factory.mktemp("lines") / "t.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        records, report = parse_records(path)
        with mock.patch.object(ingest, "_record_from_obj", reference_record_from_obj):
            ref_records, ref_report = parse_records(path)
        assert records == ref_records
        assert report == ref_report
