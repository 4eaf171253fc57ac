import json
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarnet.errors import EventParseError
from polarnet.ingest import (
    DEFAULT_DOWNTIME,
    PostRecord,
    RawEvent,
    StatsAccumulator,
    build_post_records,
    filter_corpus,
    parse_event,
    parse_stream,
    sample_corpus,
    serialize_event,
)

UTC = timezone.utc


def ev(action="create", collection="app.bsky.feed.post", did="did:plc:alice",
       time="2025-01-03T12:00:00Z", **payload):
    obj = {"action": action, "collection": collection, "did": did, "time": time}
    obj.update(payload)
    return json.dumps(obj)


def post(uri, author="did:plc:a", text="hello world", langs=("en",),
         created="2025-01-03T12:00:00+00:00", reposts=1):
    return PostRecord(uri, author, text, tuple(langs),
                      datetime.fromisoformat(created), reposts)


class TestParseEvent:
    def test_post_line(self):
        e = parse_event(ev(text="hello world", langs=["en"], uri="at://p/1"))
        assert e.action == "create"
        assert e.collection == "post"
        assert e.text == "hello world"
        assert e.langs == ("en",)
        assert e.timestamp == datetime(2025, 1, 3, 12, tzinfo=UTC)

    def test_delete_flagged_non_create(self):
        e = parse_event(ev(action="delete"))
        assert not e.is_create

    def test_truncated_line_carries_offset(self):
        with pytest.raises(EventParseError) as exc:
            parse_event('{"action": "create", "colle', offset=7)
        assert exc.value.offset == 7

    def test_unknown_collection_retained_as_other(self):
        e = parse_event(ev(collection="app.bsky.feed.threadgate"))
        assert e.collection == "other"
        assert e.wire_collection == "app.bsky.feed.threadgate"

    def test_unknown_action_rejected(self):
        with pytest.raises(EventParseError):
            parse_event(ev(action="upsert"))

    def test_empty_author_rejected(self):
        with pytest.raises(EventParseError):
            parse_event(ev(did=""))

    def test_stream_continues_past_bad_line(self):
        lines = [ev(uri="at://p/1"), "{broken", ev(uri="at://p/2")]
        errors = []
        events = list(parse_stream(lines, errors))
        assert [e.uri for e in events] == ["at://p/1", "at://p/2"]
        assert len(errors) == 1 and errors[0].offset == 1


events_strategy = st.builds(
    RawEvent,
    action=st.sampled_from(["create", "update", "delete"]),
    collection=st.sampled_from(["post", "repost", "like", "block", "follow", "profile"]),
    author=st.text(st.characters(categories=("Ll", "Nd")), min_size=1, max_size=12).map(
        lambda s: "did:plc:" + s
    ),
    timestamp=st.datetimes(
        min_value=datetime(2024, 12, 17), max_value=datetime(2025, 5, 31)
    ).map(lambda d: d.replace(tzinfo=UTC, microsecond=0)),
    uri=st.one_of(st.none(), st.text(min_size=1, max_size=20).map(lambda s: "at://" + s)),
    text=st.one_of(st.none(), st.text(max_size=80)),
    langs=st.lists(st.sampled_from(["en", "pt", "ja", "de"]), max_size=3).map(tuple),
    subject=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
    wire_collection=st.just(""),
)


@given(events_strategy)
def test_parse_serialize_roundtrip(event):
    line = serialize_event(event)
    again = parse_event(line)
    assert parse_event(serialize_event(again)) == again
    assert again.action == event.action
    assert again.collection == event.collection
    assert again.timestamp == event.timestamp
    assert again.text == event.text
    assert again.langs == event.langs


class TestActivityStats:
    def test_hand_counted_day(self):
        lines = [
            ev(did="did:plc:a", uri="at://p/1"),
            ev(did="did:plc:a", uri="at://p/2"),
            ev(did="did:plc:b", uri="at://p/3"),
        ]
        stats = StatsAccumulator(downtime={}).add_all(parse_stream(lines)).finalize()
        posts = stats.per_type["post"]
        assert posts.total_actions == 3
        assert posts.daily_average_authors == 2.0
        assert stats.observed_days == 1.0

    def test_author_distinct_per_day(self):
        lines = [
            ev(time="2025-01-03T01:00:00Z"),
            ev(time="2025-01-03T23:00:00Z"),
            ev(time="2025-01-04T01:00:00Z"),
        ]
        stats = StatsAccumulator(downtime={}).add_all(parse_stream(lines)).finalize()
        assert stats.per_type["post"].total_author_days == 2

    def test_update_delete_excluded(self):
        lines = [ev(), ev(action="update"), ev(action="delete")]
        stats = StatsAccumulator(downtime={}).add_all(parse_stream(lines)).finalize()
        assert stats.per_type["post"].total_actions == 1
        assert stats.non_create_events == 2

    def test_empty_stream_zeroed(self):
        stats = StatsAccumulator().add_all([]).finalize()
        assert stats.per_type["like"].total_actions == 0
        assert stats.per_type["like"].daily_average_actions == 0.0
        assert stats.observed_days == 0.0

    def test_reorder_invariance(self):
        lines = [
            ev(did="did:plc:a", time="2025-01-03T01:00:00Z"),
            ev(did="did:plc:b", time="2025-01-04T01:00:00Z", collection="app.bsky.feed.like"),
            ev(did="did:plc:c", time="2025-01-03T05:00:00Z"),
        ]
        forward = StatsAccumulator(downtime={}).add_all(parse_stream(lines)).finalize()
        backward = StatsAccumulator(downtime={}).add_all(parse_stream(reversed(lines))).finalize()
        assert forward.per_type == backward.per_type
        assert forward.daily == backward.daily

    def test_downtime_weighting(self):
        # window 2025-03-30 .. 2025-04-02 includes a 13h-lost day and two
        # fully lost days: observed = 1 + 11/24 + 0 + 0
        lines = [ev(time="2025-03-30T01:00:00Z"), ev(time="2025-04-02T23:00:00Z")]
        stats = StatsAccumulator().add_all(parse_stream(lines)).finalize()
        assert stats.observed_days == pytest.approx(1 + 11 / 24)

    def test_default_downtime_totals_69_hours(self):
        lost = sum((1.0 - f) * 24 for f in DEFAULT_DOWNTIME.values())
        assert lost == pytest.approx(69.0)

    @given(st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_shard_merge_matches_whole_stream(self, split):
        lines = [
            ev(did=f"did:plc:u{i % 3}", time=f"2025-01-0{1 + i % 5}T0{i % 10}:00:00Z",
               collection=c)
            for i, c in enumerate(
                ["app.bsky.feed.post", "app.bsky.feed.like", "app.bsky.feed.repost"] * 4
            )
        ]
        whole = StatsAccumulator(downtime={}).add_all(parse_stream(lines)).finalize()
        left = StatsAccumulator(downtime={}).add_all(parse_stream(lines[:split]))
        right = StatsAccumulator(downtime={}).add_all(parse_stream(lines[split:]))
        left.merge(right)
        merged = left.finalize()
        assert merged.per_type == whole.per_type
        assert merged.daily == whole.daily
        # merge order does not matter
        other = StatsAccumulator(downtime={}).add_all(parse_stream(lines[split:]))
        other.merge(StatsAccumulator(downtime={}).add_all(parse_stream(lines[:split])))
        assert other.finalize().per_type == whole.per_type


class TestBuildPostRecords:
    def test_repost_count_from_stream(self):
        lines = [
            ev(did="did:plc:a", uri="at://p/1", text="hello", langs=["en"]),
            ev(did="did:plc:b", collection="app.bsky.feed.repost", subject="at://p/1"),
            ev(did="did:plc:c", collection="app.bsky.feed.repost", subject="at://p/1"),
            ev(did="did:plc:d", collection="app.bsky.feed.repost", subject="at://gone"),
        ]
        posts, reposts = build_post_records(parse_stream(lines))
        assert posts["at://p/1"].repost_count == 2
        assert len(reposts) == 3


class TestFilterCorpus:
    def test_short_text_excluded(self):
        assert filter_corpus([post("p1", text="hiya", reposts=3)]) == []

    def test_boundary_inclusive(self):
        kept = filter_corpus([post("p1", text="hello", reposts=1)])
        assert len(kept) == 1

    def test_zero_reposts_excluded(self):
        assert filter_corpus([post("p1", text="x" * 200, reposts=0)]) == []

    def test_language_any_tag(self):
        p = post("p1", langs=("pt", "en"))
        assert filter_corpus([p]) == [p]
        assert filter_corpus([post("p2", langs=("pt",))]) == []

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 8)), max_size=30))
    def test_idempotent(self, shapes):
        posts = [
            post(f"p{i}", text="x" * chars, reposts=reposts)
            for i, (reposts, chars) in enumerate(shapes)
        ]
        once = filter_corpus(posts)
        assert filter_corpus(once) == once


class TestSampleCorpus:
    def test_exact_size_and_reproducible(self):
        posts = [post(f"p{i}") for i in range(1000)]
        a = sample_corpus(posts, 0.03, seed=7)
        b = sample_corpus(posts, 0.03, seed=7)
        assert len(a) == 30
        assert a == b

    def test_fraction_one_identity(self):
        posts = [post(f"p{i}") for i in range(17)]
        assert sample_corpus(posts, 1.0, seed=1) == posts

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            sample_corpus([post("p0")], 0.0, seed=1)
        with pytest.raises(ValueError):
            sample_corpus([post("p0")], 1.2, seed=1)

    def test_size_is_rounded_fraction(self):
        posts = [post(f"p{i}") for i in range(43652)]
        sampled = sample_corpus(posts, 0.03, seed=3)
        assert len(sampled) == round(0.03 * 43652)

    def test_coverage_frequency(self):
        # Per-post inclusion over disjoint seeds stays within a 3-sigma
        # binomial band around the sampling fraction.
        posts = [post(f"p{i}") for i in range(200)]
        fraction, trials = 0.25, 400
        hits = {p.uri: 0 for p in posts}
        for seed in range(trials):
            for p in sample_corpus(posts, fraction, seed=seed):
                hits[p.uri] += 1
        sigma = (fraction * (1 - fraction) / trials) ** 0.5
        for uri, count in hits.items():
            assert abs(count / trials - fraction) <= 3.0 * sigma

    def test_stratified_by_day(self):
        posts = [
            post(f"p{i}", created=f"2025-01-0{1 + i % 2}T10:00:00+00:00")
            for i in range(100)
        ]
        sampled = sample_corpus(posts, 0.1, seed=5, stratify_by_day=True)
        by_day = {}
        for p in sampled:
            by_day[p.created_at.date()] = by_day.get(p.created_at.date(), 0) + 1
        assert by_day == {date(2025, 1, 1): 5, date(2025, 1, 2): 5}
