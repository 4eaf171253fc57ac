import http.client
import json
import os
import random
import socket
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarnet.annotate import (
    DEFAULT_TOPICS,
    NON_POLITICAL,
    THEMES,
    annotate_stances,
    annotate_themes,
    annotate_topics,
    sample_user_posts,
    stance_store,
    theme_distribution,
    theme_request,
    theme_store,
    topic_store,
)
from conftest import fixture_config
from polarnet.cli import main
from polarnet.config import ProviderConfig
from polarnet.errors import AnnotationError, ConfigError, StageError, TransportError
from polarnet.ingest import PostRecord
from polarnet.pipeline import (
    annotate_topic_stances,
    read_events,
    run_pipeline,
)
from polarnet.providers import (
    PROVIDER_TOKEN_ENV,
    RETRIES,
    AnnotationRequest,
    HttpProvider,
    MockProvider,
    annotate_in_order,
    annotate_with_retry,
    provider_from_spec,
)
from polarnet.templates import load_template, template_hash

UTC = timezone.utc
TOPIC_BY_ID = {t.id: t for t in DEFAULT_TOPICS}


def post(uri, text, author="did:plc:a"):
    return PostRecord(uri, author, text, ("en",), datetime(2025, 1, 5, tzinfo=UTC), 1)


class FlakyProvider:
    """Returns junk a fixed number of times, then a valid label."""

    IN_FLIGHT = 1

    def __init__(self, junk_rounds, good_label):
        self.junk_rounds = junk_rounds
        self.good_label = good_label
        self.calls = 0

    def annotate(self, request):
        self.calls += 1
        if self.calls <= self.junk_rounds:
            return "??" + self.good_label
        return self.good_label


class ConcurrentProvider(MockProvider):
    """MockProvider's labels after a random pause, several calls at once.

    ``fail_text`` raises TransportError for that post; ``junk_text`` always
    answers outside the label set for that post.
    """

    IN_FLIGHT = 4

    def __init__(self, seed=0, fail_text=None, junk_text=None):
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self.fail_text = fail_text
        self.junk_text = junk_text
        self.calls = []
        self.active = 0
        self.peak = 0

    def annotate(self, request):
        text = request.context.get("text")
        with self.lock:
            self.calls.append(text)
            self.active += 1
            self.peak = max(self.peak, self.active)
            pause = self.rng.uniform(0.0, 0.004)
        try:
            time.sleep(pause)
            if text is not None and text == self.fail_text:
                raise TransportError("endpoint went away")
            if text is not None and text == self.junk_text:
                return "??"
            return super().annotate(request)
        finally:
            with self.lock:
                self.active -= 1


def label_themes(posts, tmp_path, provider=None):
    store = theme_store(tmp_path / "themes.jsonl")
    annotate_themes(posts, provider or MockProvider(), store)
    return store.mapping()


def label_topics(posts, tmp_path, provider=None):
    provider = provider or MockProvider()
    themes = label_themes(posts, tmp_path, provider)
    store = topic_store(tmp_path / "topics.jsonl")
    annotate_topics(posts, themes, provider, store)
    return themes, store.mapping()


def label_stance(user, sample, topic, tmp_path):
    store = stance_store(tmp_path / "stances.jsonl")
    annotate_stances({user: sample}, topic, MockProvider(), store, k=len(sample))
    return store.mapping()


class TestMockProvider:
    def test_tariff_maps_to_economy(self, tmp_path):
        labels = label_themes([post("p1", "new tariff schedule dropped")], tmp_path)
        assert labels["p1"] == "Economy, Trade & Labor"

    def test_no_cue_is_non_political(self, tmp_path):
        labels = label_themes([post("p1", "my cat sat on the keyboard")], tmp_path)
        assert labels["p1"] == NON_POLITICAL

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            theme_request(post("p1", ""))

    def test_zelensky_maps_to_russia_ukraine(self, tmp_path):
        _, topics = label_topics([post("p1", "Zelensky spoke about kyiv today")], tmp_path)
        assert topics["p1"] == "russia_ukraine"

    def test_no_topic_cue_falls_to_other(self, tmp_path):
        p = post("p1", "the indictment was unsealed at the courthouse")
        themes, topics = label_topics([p], tmp_path)
        assert themes["p1"] == "Law, Crime & Justice"
        assert topics["p1"] == "other"

    def test_apolitical_post_has_no_topic(self, tmp_path):
        provider = ConcurrentProvider()
        themes, topics = label_topics([post("p1", "sunset pics from the beach")], tmp_path,
                                      provider)
        assert themes["p1"] == NON_POLITICAL
        # the topic pass never asks about a non-political post
        assert topics == {}
        assert len(provider.calls) == 1

    def test_stance_majority_cue(self, tmp_path):
        topic = TOPIC_BY_ID["russia_ukraine"]
        sample = [post(f"p{i}", "slava-ukraini, always") for i in range(7)]
        sample += [post(f"q{i}", "thinking about trains") for i in range(3)]
        labels = label_stance("did:plc:u", sample, topic, tmp_path)
        assert labels == {("did:plc:u", "russia_ukraine"): "for"}

    def test_stance_no_cue_is_neutral(self, tmp_path):
        topic = TOPIC_BY_ID["russia_ukraine"]
        sample = [post("p1", "sharing a recipe")]
        assert label_stance("u", sample, topic, tmp_path)[("u", topic.id)] == "neutral"

    def test_stance_anti_majority(self, tmp_path):
        topic = TOPIC_BY_ID["trump_administration"]
        sample = [post(f"p{i}", "resist-agenda rally tonight") for i in range(5)]
        assert label_stance("u", sample, topic, tmp_path)[("u", topic.id)] == "against"


class TestRetries:
    def test_invalid_labels_retried_then_accepted(self):
        provider = FlakyProvider(RETRIES - 1, NON_POLITICAL)
        request = AnnotationRequest("theme_v1", {"text": "x"}, THEMES)
        assert annotate_with_retry(provider, request) == NON_POLITICAL
        assert provider.calls == RETRIES

    def test_exhausted_retries_raise(self):
        provider = FlakyProvider(99, NON_POLITICAL)
        request = AnnotationRequest("theme_v1", {"text": "x"}, THEMES)
        with pytest.raises(AnnotationError):
            annotate_with_retry(provider, request)

    def test_batch_records_unlabeled(self, tmp_path):
        store = theme_store(tmp_path / "themes.jsonl")
        outcome = annotate_themes(
            [post("p1", "anything")], FlakyProvider(99, NON_POLITICAL), store
        )
        assert outcome.labeled == 0
        assert outcome.skipped[0][0] == "p1"


class TestConcurrentAnnotation:
    @staticmethod
    def label_all(posts, reposts, provider, out):
        annotate_themes(posts, provider, theme_store(out / "themes.jsonl"))
        themes = theme_store(out / "themes.jsonl").mapping()
        annotate_topics(posts, themes, provider, topic_store(out / "topics.jsonl"))
        topic_map = topic_store(out / "topics.jsonl").mapping()
        by_uri = {p.uri: p for p in posts}
        for spec in DEFAULT_TOPICS:
            annotate_topic_stances(spec, by_uri, reposts, topic_map, provider, out, 10, 3)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_stores_match_sequential_mock(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        _, _, posts, reposts = read_events([event_path])
        posts = sorted(posts.values(), key=lambda p: p.uri)[:400]
        provider = ConcurrentProvider(seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to shake out ordering bugs
        try:
            concurrent = self.label_all(posts, reposts, provider, tmp_path / "concurrent")
        finally:
            sys.setswitchinterval(interval)
        sequential = self.label_all(posts, reposts, MockProvider(), tmp_path / "sequential")
        assert provider.peak > 1
        assert len(concurrent) == 2 + len(DEFAULT_TOPICS)
        assert sum(b.count(b"\n") for b in sequential.values()) > len(posts)
        assert concurrent == sequential

    @pytest.mark.parametrize("fail_at", [0, 7, 39])
    def test_transport_error_stops_within_one_round(self, tmp_path, fail_at):
        posts = [post(f"p{i:03d}", f"tariff news {i}") for i in range(40)]
        provider = ConcurrentProvider(seed=fail_at, fail_text=f"tariff news {fail_at}")
        store = theme_store(tmp_path / "themes.jsonl")
        with pytest.raises(TransportError):
            annotate_themes(posts, provider, store)
        assert len(provider.calls) <= fail_at + ConcurrentProvider.IN_FLIGHT
        # labels answered before the failing item are kept, in input order
        assert [r["post_uri"] for r in store.load()] == [p.uri for p in posts[:fail_at]]

    def test_invalid_labels_retried_then_skipped(self, tmp_path):
        posts = [post(f"p{i:03d}", f"kyiv update {i}") for i in range(20)]
        provider = ConcurrentProvider(junk_text="kyiv update 5")
        store = theme_store(tmp_path / "themes.jsonl")
        outcome = annotate_themes(posts + [post("p999", "")], provider, store)
        assert provider.calls.count("kyiv update 5") == RETRIES
        assert len(provider.calls) == 19 + RETRIES
        assert outcome.labeled == 19
        assert sorted(uri for uri, _ in outcome.skipped) == ["p005", "p999"]
        assert "has empty text" in dict(outcome.skipped)["p999"]
        assert [r["post_uri"] for r in store.load()] == [
            p.uri for p in posts if p.uri != "p005"
        ]


class TestThemeDistribution:
    # Aggregate counts for the published per-theme breakdown; the political
    # block sums to 5,522,980 of 43,652,579 posts.
    REPORTED = {
        NON_POLITICAL: 38_129_599,
        "Civil Rights": 1_509_130,
        "Defense & International Affairs": 1_560_553,
        "Economy, Trade & Labor": 693_207,
        "Government Operations & Administration": 332_586,
        "Infrastructure & Environment": 209_171,
        "Law, Crime & Justice": 891_571,
        "Science, Technology & Energy": 131_114,
        "Social Policy": 195_648,
    }

    def test_published_breakdown(self):
        dist = theme_distribution(self.REPORTED)
        assert dist.total == 43_652_579
        assert dist.political_total == 5_522_980
        assert dist.political_total / dist.total == pytest.approx(0.127, abs=5e-4)
        assert dist.share_of_political["Civil Rights"] == pytest.approx(0.273, abs=5e-4)
        assert dist.share_of_political["Defense & International Affairs"] == pytest.approx(
            0.283, abs=5e-4
        )

    def test_all_non_political_is_degenerate(self):
        dist = theme_distribution({NON_POLITICAL: 10})
        assert dist.political_total == 0
        assert dist.share_of_political == {}

    def test_even_split(self):
        dist = theme_distribution({"Civil Rights": 5, "Social Policy": 5})
        assert dist.share_of_political == pytest.approx(
            {**{t: 0.0 for t in dist.share_of_political}, "Civil Rights": 0.5, "Social Policy": 0.5}
        )

    def test_out_of_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            theme_distribution({"Sports": 3})

    @given(st.lists(st.sampled_from(THEMES), min_size=1, max_size=60))
    def test_shares_sum_to_one_and_order_invariant(self, themes):
        dist = theme_distribution(Counter(themes))
        assert abs(sum(dist.share_of_all.values()) - 1.0) < 1e-9
        if dist.political_total:
            assert abs(sum(dist.share_of_political.values()) - 1.0) < 1e-9
        reordered = theme_distribution(Counter(reversed(themes)))
        assert reordered.share_of_all == dist.share_of_all


class TestSampleUserPosts:
    def test_small_corpus_returned_whole(self):
        corpus = [post(f"p{i}", "t") for i in range(3)]
        assert len(sample_user_posts("u", corpus, k=10, seed=1)) == 3

    def test_exactly_k_reproducible(self):
        corpus = [post(f"p{i:03d}", "t") for i in range(100)]
        a = sample_user_posts("u", corpus, k=10, seed=4)
        b = sample_user_posts("u", corpus, k=10, seed=4)
        assert len(a) == 10 and a == b

    def test_different_seeds_same_size(self):
        corpus = [post(f"p{i:03d}", "t") for i in range(40)]
        a = sample_user_posts("u", corpus, k=10, seed=1)
        b = sample_user_posts("u", corpus, k=10, seed=2)
        assert len(a) == len(b) == 10

    def test_order_independent(self):
        corpus = [post(f"p{i:03d}", "t") for i in range(40)]
        a = sample_user_posts("u", corpus, k=10, seed=9)
        b = sample_user_posts("u", list(reversed(corpus)), k=10, seed=9)
        assert a == b

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            sample_user_posts("u", [], k=10, seed=0)


class TestLabelStore:
    def test_round_trip_and_mapping(self, tmp_path):
        store = stance_store(tmp_path / "stances.jsonl")
        with store.writing():
            store.append("did:plc:u1", "for", "abc123", "2025-01-05T00:00:00+00:00",
                         topic="russia_ukraine")
            store.append("did:plc:u2", "neutral", "abc123", "2025-01-05T00:00:00+00:00",
                         topic="russia_ukraine")
        assert store.mapping() == {
            ("did:plc:u1", "russia_ukraine"): "for",
            ("did:plc:u2", "russia_ukraine"): "neutral",
        }
        raw = (tmp_path / "stances.jsonl").read_text().splitlines()
        assert json.loads(raw[0])["template_hash"] == "abc123"

    def test_writing_replaces_a_linked_store(self, tmp_path):
        # a store in a run directory may be a hard link to a sibling's
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('{"post_uri":"p0","label":"Non-Political"}\n', encoding="utf-8")
        os.link(a, b)
        before = a.read_bytes()
        store = theme_store(b)
        with store.writing():
            store.append("p1", NON_POLITICAL, "h", "2025-01-05T00:00:00+00:00")
        assert a.read_bytes() == before
        assert [r["post_uri"] for r in store.load()] == ["p1"]

    def test_out_of_vocabulary_rejected(self, tmp_path):
        store = theme_store(tmp_path / "themes.jsonl")
        with store.writing(), pytest.raises(ValueError):
            store.append("p1", "Sports", "h", "2025-01-05T00:00:00+00:00")

    def test_concurrent_appends_stay_line_atomic(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        store = theme_store(tmp_path / "themes.jsonl")

        def write(i):
            store.append(f"p{i:04d}", NON_POLITICAL, "h", "2025-01-05T00:00:00+00:00")

        with store.writing(), ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(200)))
        records = store.load()
        assert len(records) == 200
        assert {r["post_uri"] for r in records} == {f"p{i:04d}" for i in range(200)}

    def test_template_hash_is_stable(self):
        assert template_hash("theme_v1") == template_hash("theme_v1")
        assert template_hash("theme_v1") != template_hash("stance_v1")

    def test_render_template_substitutes(self):
        text = load_template("stance_v1").format(
            topic="russia_ukraine",
            texts="- a\n- b",
            for_label="supports_ukraine",
            neutral_label="neutral",
            against_label="supports_russia",
        )
        assert "supports_ukraine" in text and "russia_ukraine" in text


class _Endpoint(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.seen.append((self.headers.get("Authorization"), body))
        payload = json.dumps(self.server.reply(body)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Endpoint)
    server.seen = []
    server.reply = lambda body: {"label": body["label_set"][0]}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class _RawEndpoint:
    """A loopback socket that reads each request whole, then answers it with
    the raw bytes ``reply`` and closes the connection."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(0.1)  # how often serve() looks at self.stop
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}/annotate"
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self.serve, daemon=True)
        self.thread.start()

    def serve(self):
        while not self.stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            conn.settimeout(5)
            try:
                with conn, conn.makefile("rb") as fh:
                    length = 0
                    for line in iter(fh.readline, b"\r\n"):
                        name, _, value = line.decode("latin-1").partition(":")
                        if name.lower() == "content-length":
                            length = int(value)
                    fh.read(length)
                    conn.sendall(self.reply)
                    conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # a client that went away; serve the next one

    def close(self):
        self.stop.set()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.sock.close()


# replies that http.client rejects with an HTTPException, not an OSError
BROKEN_REPLIES = {
    "BadStatusLine": b"HELLO\r\n\r\n",
    "IncompleteRead": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                      b"Content-Length: 100\r\n\r\n{\"label\": ",
}


@pytest.fixture(params=sorted(BROKEN_REPLIES))
def broken_endpoint(request):
    server = _RawEndpoint(BROKEN_REPLIES[request.param])
    yield request.param, server
    server.close()


class TestHttpProvider:
    def test_contract_round_trip(self, endpoint):
        url = f"http://127.0.0.1:{endpoint.server_address[1]}/annotate"
        provider = HttpProvider(url, token="sekrit")
        request = AnnotationRequest("theme_v1", {"text": "hi"}, THEMES)
        label = provider.annotate(request)
        assert label == THEMES[0]
        auth, body = endpoint.seen[0]
        assert auth == "Bearer sekrit"
        assert body == {
            "template_id": "theme_v1",
            "context": {"text": "hi"},
            "label_set": list(THEMES),
        }

    def test_labels_in_request_order(self, endpoint):
        url = f"http://127.0.0.1:{endpoint.server_address[1]}/annotate"
        provider = HttpProvider(url)
        # the endpoint answers each request's first label
        requests = [
            AnnotationRequest("theme_v1", {"text": f"t{i}"}, THEMES[i % 9:] + THEMES[:i % 9])
            for i in range(30)
        ]
        labels = list(annotate_in_order(provider, requests))
        assert labels == [THEMES[i % 9] for i in range(30)]
        assert sorted(body["context"]["text"] for _, body in endpoint.seen) == sorted(
            f"t{i}" for i in range(30)
        )

    def test_unreachable_is_transport_error(self):
        provider = HttpProvider("http://127.0.0.1:9/annotate", timeout=0.5)
        with pytest.raises(TransportError):
            provider.annotate(AnnotationRequest("theme_v1", {"text": "x"}, THEMES))

    @pytest.mark.parametrize("reply", [["for"], "for", None, {"label": 1}, {}])
    def test_malformed_reply_is_transport_error(self, endpoint, reply):
        endpoint.reply = lambda body: reply
        provider = HttpProvider(f"http://127.0.0.1:{endpoint.server_address[1]}/annotate")
        with pytest.raises(TransportError, match="malformed provider response"):
            provider.annotate(AnnotationRequest("theme_v1", {"text": "x"}, THEMES))

    def test_broken_http_reply_is_transport_error(self, broken_endpoint):
        error, server = broken_endpoint
        with pytest.raises(TransportError, match="annotation endpoint failed") as exc:
            HttpProvider(server.url, timeout=5).annotate(
                AnnotationRequest("theme_v1", {"text": "x"}, THEMES))
        assert isinstance(exc.value.__cause__, http.client.HTTPException)
        assert type(exc.value.__cause__).__name__ == error

    def test_broken_http_reply_fails_the_run_in_one_line(self, broken_endpoint, event_fixture,
                                                         tmp_path, capsys):
        _, server = broken_endpoint
        dump = tmp_path / "events.jsonl"  # the head of the fixture, to keep the calls few
        dump.write_text("".join(event_fixture[0].read_text().splitlines(True)[:1000]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"inputs": [str(dump)], "out_dir": str(tmp_path / "runs"),
                                      "seed": 1,
                                      "provider": {"kind": "http", "url": server.url}}))
        assert main(["run", "--config", str(config), "--stages", "ingest,annotate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'annotate': ") and err.count("\n") == 1, err

    def test_malformed_reply_fails_the_annotate_stage(self, endpoint, event_fixture, tmp_path):
        endpoint.reply = lambda body: ["for"]
        url = f"http://127.0.0.1:{endpoint.server_address[1]}/annotate"
        config = replace(fixture_config(event_fixture[0], tmp_path),
                         provider=ProviderConfig(kind="http", url=url))
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["ingest", "annotate"])
        assert exc.value.stage == "annotate"
        assert "malformed provider response" in exc.value.reason

    def test_cli_annotate_sends_bearer_token(self, endpoint, event_fixture, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv(PROVIDER_TOKEN_ENV, "sekrit")
        dump = tmp_path / "events.jsonl"  # the head of the fixture, to keep the calls few
        dump.write_text("".join(event_fixture[0].read_text().splitlines(True)[:1000]))
        url = f"http://127.0.0.1:{endpoint.server_address[1]}/annotate"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"inputs": [str(dump)], "out_dir": str(tmp_path / "runs"),
                                      "seed": 1, "provider": {"kind": "http", "url": url}}))
        assert main(["run", "--config", str(config), "--stages", "ingest,annotate"]) == 0
        assert endpoint.seen
        assert {auth for auth, _ in endpoint.seen} == {"Bearer sekrit"}

    def test_provider_from_spec(self):
        assert isinstance(provider_from_spec("mock"), MockProvider)
        assert isinstance(provider_from_spec("http://x/y"), HttpProvider)
        with pytest.raises(ConfigError):
            provider_from_spec("ftp://nope")
