import dataclasses
import json
import tracemalloc
from datetime import date, datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import DirectEvent, DirectParseError, add_all, parse_event_direct
from polarnet import pipeline
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
from polarnet.pipeline import read_events
from polarnet.synthetic import make_event_stream

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


def _row(event):
    # repr per field, so a list for a tuple or a non-UTC zone shows as a difference
    return tuple(repr(getattr(event, name)) for name in RawEvent._fields)


def assert_matches_oracle(lines):
    """parse_stream agrees with parse_event_direct on every line: the same
    events field by field and the same errors with the same offsets."""
    errors = []
    got = [_row(e) for e in parse_stream(lines, errors)]
    want, want_errors = [], []
    for offset, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            want.append(_row(parse_event_direct(line, offset)))
        except DirectParseError as exc:
            want_errors.append((exc.offset, exc.reason, str(exc)))
    assert got == want
    assert [(e.offset, e.reason, str(e)) for e in errors] == want_errors
    return len(got), len(errors)


# Each line differs from a valid post in one field, or is not an event at all.
ADVERSARIAL = [
    "[]", "1", '"x"', "null", "true", "{}", "", "   ", "\t", "{", '{"action": "create",',
    *(ev(action=a) for a in (None, "", 1, 0.5, True, "Create", "upsert", " create")),
    *(ev(collection=c) for c in (None, "", 1, ["app.bsky.feed.post"], "app.bsky.feed.threadgate",
                                  "app.bsky.feed.Post", "post")),
    *(ev(did=d) for d in (None, "", 7, {"id": "x"}, " ")),
    *(ev(time=t) for t in (None, "", 20250103, ["2025-01-03T12:00:00Z"],
                           "2025-01-03T12:00:00", "2025-01-03T12:00:00z", "2025-01-03T12:00:00Z",
                           "2025-01-03T22:30:00-05:00", "2025-01-04T02:00:00+05:00",
                           "2025-01-03", "2025-01-03T12:00:00.123456+00:00", "2025-13-40T99:00:00Z",
                           "Z", "z", "yesterday", "2025-01-03T12:00:00ZZ")),
    *(ev(langs=l) for l in ("en", {"en": 1}, None, [], [1, 2.5, True, None], ["en", "pt"],
                            [["en"]], 0, 3, "", False, {})),
    *(ev(uri=u, text=t, subject=u) for u, t in ((1, 2), ([], {}), (None, None), ("", ""))),
    *(json.dumps({k: v for k, v in json.loads(ev()).items() if k != missing})
      for missing in ("action", "collection", "did", "time")),
    ev() + " trailing",
    ev(extra={"nested": [1, 2]}),
]


def parses(line):
    try:
        parse_event_direct(line)
    except DirectParseError:
        return False
    return True


class TestParserOracle:
    def test_adversarial_lines(self):
        events, errors = assert_matches_oracle(ADVERSARIAL)
        assert events and errors  # both outcomes are exercised

    def test_zone_offset_crossing_midnight_lands_on_the_utc_day(self):
        e = parse_event(ev(time="2025-01-04T02:00:00+05:00"))
        assert e.timestamp == datetime(2025, 1, 3, 21, tzinfo=UTC)
        assert e.timestamp.tzinfo is UTC

    def test_synthetic_stream_with_malformed_lines(self):
        lines, _ = make_event_stream(seed=5, n_events=3000)
        spliced = list(lines)
        for i, bad in enumerate(ADVERSARIAL):
            spliced.insert(97 * i + 13, bad)
        events, errors = assert_matches_oracle(spliced)
        assert events == 3000 + sum(parses(bad) for bad in ADVERSARIAL)
        assert errors > 30

    @given(st.lists(st.one_of(
        st.fixed_dictionaries({}, optional={
            "action": st.one_of(st.sampled_from(["create", "update", "delete", "upsert", ""]),
                                st.none(), st.integers(), st.text(max_size=8)),
            "collection": st.one_of(st.sampled_from([
                "app.bsky.feed.post", "app.bsky.feed.repost", "app.bsky.feed.like",
                "app.bsky.graph.block", "app.bsky.graph.follow", "app.bsky.actor.profile",
                "app.bsky.feed.threadgate", ""]), st.none(), st.integers()),
            "did": st.one_of(st.text(max_size=10), st.none(), st.integers()),
            "time": st.one_of(
                st.builds(
                    lambda d, zone: d.isoformat() + zone,
                    st.datetimes(min_value=datetime(2000, 1, 1), max_value=datetime(2100, 1, 1)),
                    st.sampled_from(["", "Z", "z", "+00:00", "+05:00", "-11:30", "+14:00", "X"])),
                st.text(max_size=12), st.none(), st.integers()),
            "langs": st.one_of(
                st.lists(st.one_of(st.text(max_size=3), st.integers(), st.none(), st.booleans()),
                         max_size=3),
                st.text(max_size=3), st.none(), st.integers(),
                st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)),
            "uri": st.one_of(st.text(max_size=8), st.none(), st.integers()),
            "text": st.one_of(st.text(max_size=8), st.none()),
            "subject": st.one_of(st.text(max_size=8), st.none()),
        }).map(json.dumps),
        st.sampled_from(["", " ", "[]", "1", '"x"', "null", "{"]),
    ), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_generated_lines(self, lines):
        assert_matches_oracle(lines)


class TestParserRobustness:
    """Lines that made the parser raise something other than EventParseError,
    which no caller catches, so one such line stopped the whole ingest."""

    @pytest.mark.parametrize("action", [[], ["create"], {"create": 1}])
    def test_unhashable_action_is_a_parse_error(self, action):
        with pytest.raises(TypeError):
            parse_event_direct(ev(action=action))
        with pytest.raises(EventParseError) as exc:
            parse_event(ev(action=action), offset=4)
        assert (exc.value.offset, exc.value.reason) == (4, f"unknown action {action!r}")

    @pytest.mark.parametrize("raw", ["0001-01-01T00:00:00+05:00", "9999-12-31T23:00:00-05:00"])
    def test_out_of_range_instant_is_a_parse_error(self, raw):
        with pytest.raises(OverflowError):
            parse_event_direct(ev(time=raw))
        with pytest.raises(EventParseError) as exc:
            parse_event(ev(time=raw), offset=2)
        assert (exc.value.offset, exc.value.reason) == (2, f"bad timestamp {raw!r}")

    def test_stream_counts_them_and_continues(self):
        errors = []
        lines = [ev(action=[]), ev(time="0001-01-01T00:00:00+05:00"), ev(uri="at://p/1")]
        assert [e.uri for e in parse_stream(lines, errors)] == ["at://p/1"]
        assert [e.offset for e in errors] == [0, 1]


class TestRawEventContract:
    FULL = dict(action="create", collection="post", author="did:plc:a",
                timestamp=datetime(2025, 1, 3, 12, tzinfo=UTC), uri="at://p/1", text="hi",
                langs=("en", "pt"), subject="at://p/0", wire_collection="app.bsky.feed.post")

    def test_fields_match_the_oracle_record(self):
        assert RawEvent._fields == tuple(f.name for f in dataclasses.fields(DirectEvent))

    def test_keyword_defaults(self):
        e = RawEvent(action="delete", collection="like", author="did:plc:a",
                     timestamp=self.FULL["timestamp"])
        assert (e.uri, e.text, e.langs, e.subject, e.wire_collection) == (None, None, (), None, "")
        assert RawEvent(**self.FULL) == RawEvent(*self.FULL.values())

    def test_is_create(self):
        assert RawEvent(**self.FULL).is_create
        assert not RawEvent(**{**self.FULL, "action": "update"}).is_create

    def test_assignment_raises(self):
        e = RawEvent(**self.FULL)
        with pytest.raises(AttributeError):
            e.text = "changed"
        assert e.text == "hi"

    def test_hashable(self):
        a, b = RawEvent(**self.FULL), RawEvent(**self.FULL)
        assert hash(a) == hash(b) and len({a, b}) == 1

    def test_serialize_round_trip_keeps_every_field(self):
        for wire in ("app.bsky.feed.post", "app.bsky.feed.threadgate"):
            e = RawEvent(**{**self.FULL, "wire_collection": wire,
                            "collection": "post" if wire.endswith("post") else "other"})
            assert parse_event(serialize_event(e)) == e


def write_dump(path, filler):
    """50 posts and 50 reposts of them, then ``filler`` likes from 10 authors
    over 3 days: the filler adds nothing to the posts or to the activity
    stats' own state, which is per (kind, day, author)."""
    lines = [ev(did=f"did:plc:a{i % 5}", uri=f"at://p/{i}", text=f"post number {i}",
                langs=["en"]) for i in range(50)]
    lines += [ev(did=f"did:plc:r{i % 7}", collection="app.bsky.feed.repost",
                 subject=f"at://p/{i}") for i in range(50)]
    lines += [ev(did=f"did:plc:f{i % 10}", collection="app.bsky.feed.like",
                 time=f"2025-01-0{1 + i % 3}T{i % 24:02d}:00:00Z", subject=f"at://p/{i % 50}")
              for i in range(filler)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadEvents:
    def test_memory_flat_in_filler_lines(self, tmp_path):
        small = write_dump(tmp_path / "small.jsonl", 2_000)
        large = write_dump(tmp_path / "large.jsonl", 20_000)
        results = []
        peaks = [traced_peak(lambda p=p: results.append(read_events([p])))
                 for p in (small, large)]
        assert [r[2]["at://p/0"].repost_count for r in results] == [1, 1]
        assert results[1][0].per_type["like"].total_actions == 20_000
        assert peaks[1] / peaks[0] < 1.5, peaks

    def test_errors_counted_per_dump(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text("\n".join([ev(uri="at://p/1"), "{", ev(action="upsert")]) + "\n")
        b.write_text("\n".join(["[]", ev(collection="app.bsky.feed.repost",
                                           subject="at://p/1")]) + "\n")
        stats, parse_errors, posts, reposts = read_events([a, b])
        assert parse_errors == 3
        assert posts["at://p/1"].repost_count == 1 and len(reposts) == 1
        assert stats.per_type["post"].total_actions == 1

    def test_every_dump_closed_when_a_later_line_raises(self, tmp_path, monkeypatch):
        paths = [write_dump(tmp_path / f"{n}.jsonl", 10) for n in ("a", "b")]
        opened = []

        def parse(fh, errors):
            opened.append(fh)
            return parse_stream(fh, errors)

        def fail_at(n):
            def build(events):
                for i, _ in enumerate(events):
                    if i == n:
                        raise RuntimeError("later line")
            return build

        monkeypatch.setattr(pipeline, "parse_stream", parse)
        for n in (5, 150):  # inside the first dump, inside the second
            monkeypatch.setattr(pipeline, "build_post_records", fail_at(n))
            try:
                read_events(paths)
            except RuntimeError:
                # checked while the traceback still holds every frame, so
                # garbage collection cannot be what closed the dumps
                assert opened and all(fh.closed for fh in opened), n
            else:
                pytest.fail("the build error was swallowed")
            opened.clear()


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
        stats = add_all(StatsAccumulator(downtime={}), parse_stream(lines)).finalize()
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
        stats = add_all(StatsAccumulator(downtime={}), parse_stream(lines)).finalize()
        assert stats.per_type["post"].total_author_days == 2

    def test_update_delete_excluded(self):
        lines = [ev(), ev(action="update"), ev(action="delete")]
        stats = add_all(StatsAccumulator(downtime={}), parse_stream(lines)).finalize()
        assert stats.per_type["post"].total_actions == 1
        assert stats.non_create_events == 2

    def test_empty_stream_zeroed(self):
        stats = add_all(StatsAccumulator(), []).finalize()
        assert stats.per_type["like"].total_actions == 0
        assert stats.per_type["like"].daily_average_actions == 0.0
        assert stats.observed_days == 0.0

    def test_reorder_invariance(self):
        lines = [
            ev(did="did:plc:a", time="2025-01-03T01:00:00Z"),
            ev(did="did:plc:b", time="2025-01-04T01:00:00Z", collection="app.bsky.feed.like"),
            ev(did="did:plc:c", time="2025-01-03T05:00:00Z"),
        ]
        forward = add_all(StatsAccumulator(downtime={}), parse_stream(lines)).finalize()
        backward = add_all(StatsAccumulator(downtime={}), parse_stream(reversed(lines))).finalize()
        assert forward.per_type == backward.per_type
        assert forward.window == backward.window

    def test_downtime_weighting(self):
        # window 2025-03-30 .. 2025-04-02 includes a 13h-lost day and two
        # fully lost days: observed = 1 + 11/24 + 0 + 0
        lines = [ev(time="2025-03-30T01:00:00Z"), ev(time="2025-04-02T23:00:00Z")]
        stats = add_all(StatsAccumulator(), parse_stream(lines)).finalize()
        assert stats.observed_days == pytest.approx(1 + 11 / 24)

    def test_default_downtime_totals_69_hours(self):
        lost = sum((1.0 - f) * 24 for f in DEFAULT_DOWNTIME.values())
        assert lost == pytest.approx(69.0)


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
