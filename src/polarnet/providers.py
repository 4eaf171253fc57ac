"""Annotation providers.

A provider answers one AnnotationRequest with one label out of the
request's closed label set. The HTTP provider speaks a small JSON
contract; the mock provider is a deterministic keyword scanner used for
tests, fixtures, and offline runs.
"""

from __future__ import annotations

import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Protocol, Union

from .errors import AnnotationError, ConfigError, TransportError


@dataclass(frozen=True)
class AnnotationRequest:
    template_id: str
    context: dict
    label_set: tuple[str, ...]


# provider calls per item while it returns labels outside the closed set
RETRIES = 3

PROVIDER_TOKEN_ENV = "POLARNET_PROVIDER_TOKEN"


class AnnotationProvider(Protocol):
    """Answers one request with one label.

    ``IN_FLIGHT`` is how many calls ``annotate_in_order`` keeps running at
    once; 1 calls the provider one request at a time.
    """

    IN_FLIGHT: int

    def annotate(self, request: AnnotationRequest) -> str: ...


def annotate_with_retry(provider: AnnotationProvider, request: AnnotationRequest) -> str:
    """Call the provider, rejecting labels outside the closed set.

    The provider is called up to ``RETRIES`` times while its labels are
    invalid; exhausting them raises AnnotationError so the caller can
    record the item as unlabeled. Transport failures are not retried here.
    """
    last = None
    for _ in range(RETRIES):
        label = provider.annotate(request)
        if label in request.label_set:
            return label
        last = label
    raise AnnotationError(
        f"provider returned {last!r}, not in label set {list(request.label_set)}"
    )


def _label_or_error(
    provider: AnnotationProvider, request: AnnotationRequest
) -> Union[str, AnnotationError]:
    try:
        return annotate_with_retry(provider, request)
    except AnnotationError as exc:
        return exc


def annotate_in_order(
    provider: AnnotationProvider, requests: Iterable[AnnotationRequest]
) -> Iterator[Union[str, AnnotationError]]:
    """Yield each request's label, or the AnnotationError it ended in, in input order.

    Up to ``provider.IN_FLIGHT`` calls run at once on worker threads; a
    request is sent only once the one ``IN_FLIGHT`` places before it has
    been answered. Any other exception, such as TransportError, propagates
    at the first failing request in input order, after the calls still
    running have returned, so a dead endpoint costs one round of calls.
    """
    slots = provider.IN_FLIGHT
    if slots <= 1:
        for request in requests:
            yield _label_or_error(provider, request)
        return
    pending: deque = deque()
    pool = ThreadPoolExecutor(max_workers=slots, thread_name_prefix="annotate")
    try:
        for request in requests:
            if len(pending) == slots:
                yield pending.popleft().result()
            pending.append(pool.submit(_label_or_error, provider, request))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


# Keyword cues the mock provider keys on. The fixture generator embeds these
# tokens in synthetic post text, which makes the whole annotation stage a
# pure function of (corpus, seed) when the mock is selected.

THEME_CUES = {
    "tariff": "Economy, Trade & Labor",
    "minimum-wage": "Economy, Trade & Labor",
    "ottawa": "Economy, Trade & Labor",
    "maple-trade": "Economy, Trade & Labor",
    "ceasefire": "Defense & International Affairs",
    "zelensky": "Defense & International Affairs",
    "kyiv": "Defense & International Affairs",
    "gaza": "Defense & International Affairs",
    "westbank": "Defense & International Affairs",
    "pride": "Civil Rights",
    "trans-rights": "Civil Rights",
    "voting-rights": "Civil Rights",
    "inclusion": "Civil Rights",
    "hiring-quota": "Civil Rights",
    "diversity-office": "Civil Rights",
    "courthouse": "Law, Crime & Justice",
    "indictment": "Law, Crime & Justice",
    "police": "Law, Crime & Justice",
    "executive-order": "Government Operations & Administration",
    "whitehouse": "Government Operations & Administration",
    "oval-office": "Government Operations & Administration",
    "civil-service": "Government Operations & Administration",
    "wildfire": "Infrastructure & Environment",
    "palisades": "Infrastructure & Environment",
    "evacuation": "Infrastructure & Environment",
    "transit": "Infrastructure & Environment",
    "chatbot": "Science, Technology & Energy",
    "neural-net": "Science, Technology & Energy",
    "reactor": "Science, Technology & Energy",
    "bytedance": "Science, Technology & Energy",
    "scroll-ban": "Science, Technology & Energy",
    "starlink": "Science, Technology & Energy",
    "spacex": "Science, Technology & Energy",
    "doge-memo": "Government Operations & Administration",
    "medicaid": "Social Policy",
    "tuition": "Social Policy",
    "foodstamps": "Social Policy",
}

TOPIC_CUES = {
    "whitehouse": "trump_administration",
    "executive-order": "trump_administration",
    "oval-office": "trump_administration",
    "starlink": "elon_musk",
    "spacex": "elon_musk",
    "doge-memo": "elon_musk",
    "ottawa": "us_canada_relations",
    "tariff": "us_canada_relations",
    "maple-trade": "us_canada_relations",
    "palisades": "la_wildfires",
    "wildfire": "la_wildfires",
    "evacuation": "la_wildfires",
    "hiring-quota": "dei_programs",
    "inclusion": "dei_programs",
    "diversity-office": "dei_programs",
    "bytedance": "tiktok_ban",
    "scroll-ban": "tiktok_ban",
    "gaza": "israel_palestine",
    "westbank": "israel_palestine",
    "zelensky": "russia_ukraine",
    "kyiv": "russia_ukraine",
    "pride": "lgbtq_rights",
    "trans-rights": "lgbtq_rights",
    "chatbot": "ai",
    "neural-net": "ai",
}

STANCE_CUES = {
    "trump_administration": ("mandate-won", "resist-agenda"),
    "elon_musk": ("rocket-genius", "unplug-musk"),
    "us_canada_relations": ("strong-north", "annex-talk"),
    "la_wildfires": ("rebuild-together", "blame-mismanagement"),
    "dei_programs": ("equity-works", "merit-only"),
    "tiktok_ban": ("ban-it-now", "keep-scrolling"),
    "israel_palestine": ("free-palestine", "stand-with-israel"),
    "russia_ukraine": ("slava-ukraini", "z-victory"),
    "lgbtq_rights": ("love-wins", "traditional-values"),
    "ai": ("ship-models", "pause-ai"),
}


class MockProvider:
    """Deterministic provider: scans text for cue tokens.

    Themes and topics take the first cue found in cue-table order; stances
    use a majority vote of pro vs anti cues over the sampled posts, with
    neutral on a tie or when no cue appears.
    """

    IN_FLIGHT = 1  # CPU-bound: threads would only add switching

    def annotate(self, request: AnnotationRequest) -> str:
        if request.template_id == "theme_v1":
            return self._scan(request.context["text"], THEME_CUES, "Non-Political")
        if request.template_id == "topic_v1":
            return self._scan(request.context["text"], TOPIC_CUES, "other")
        if request.template_id == "stance_v1":
            return self._stance(request)
        raise AnnotationError(f"mock has no rule for template {request.template_id!r}")

    @staticmethod
    def _scan(text: str, cues: dict, default: str) -> str:
        lowered = text.lower()
        for token, label in cues.items():
            if token in lowered:
                return label
        return default

    @staticmethod
    def _stance(request: AnnotationRequest) -> str:
        ctx = request.context
        pro_cue, anti_cue = STANCE_CUES.get(ctx["topic"], ("", ""))
        pro = anti = 0
        for text in ctx["texts"]:
            lowered = text.lower()
            if pro_cue and pro_cue in lowered:
                pro += 1
            if anti_cue and anti_cue in lowered:
                anti += 1
        if pro > anti:
            return ctx["for_label"]
        if anti > pro:
            return ctx["against_label"]
        return ctx["neutral_label"]


class HttpProvider:
    """Client for the JSON annotation endpoint.

    Request body: {"template_id", "context", "label_set"}; expected
    response: {"label": "<one of label_set>"}. Endpoint and bearer token
    come from configuration or the documented environment variables.
    """

    # Calls kept in flight by annotate_in_order: a call mostly waits on the
    # network, so overlapping them hides the round trip. Against a loopback
    # endpoint serving two requests at once, 4 ran the pipeline faster than
    # 8; 8 simultaneous connects also overflow the default listen backlog
    # of Python's http.server (5), and a dropped connect is retried only
    # after a second.
    IN_FLIGHT = 4

    def __init__(self, url: str, token: Optional[str] = None, timeout: float = 30.0):
        self.url = url
        self.token = token
        self.timeout = timeout

    def annotate(self, request: AnnotationRequest) -> str:
        body = json.dumps(
            {
                "template_id": request.template_id,
                "context": request.context,
                "label_set": list(request.label_set),
            }
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        # imported here, so that a run with the mock provider loads no HTTP
        # or TLS modules
        import http.client
        import urllib.request

        req = urllib.request.Request(self.url, data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (OSError, http.client.HTTPException, json.JSONDecodeError) as exc:
            # urllib.error.URLError is an OSError; the repr keeps a raw reply
            # line such as BadStatusLine's on the error's one line
            raise TransportError(f"annotation endpoint failed: {exc!r}") from exc
        label = payload.get("label") if isinstance(payload, dict) else None
        if not isinstance(label, str):
            raise TransportError(f"malformed provider response: {payload!r}")
        return label


def check_endpoint_url(url: str, name: str) -> None:
    """Refuse an endpoint URL that is not http(s); ``name`` is the setting's."""
    if not url.startswith(("http://", "https://")):
        raise ConfigError(f"{name} must be an http(s) URL, got {url!r}")


def provider_from_spec(spec: str) -> AnnotationProvider:
    """Build a provider from a config's spec string: "mock" or an endpoint URL.

    An HTTP provider sends the bearer token from ``POLARNET_PROVIDER_TOKEN``.
    """
    if spec == "mock":
        return MockProvider()
    check_endpoint_url(spec, "provider")
    return HttpProvider(spec, token=os.environ.get(PROVIDER_TOKEN_ENV))
