"""The four benchmark workloads: what each dump holds.

Each workload is one closed loop with a single client in one process (plus
the loopback stub for ``remote_annotate``). Sizes are set so that one cold
run takes a few seconds on a 2-core machine. Why each workload was chosen
is its ``why`` in ``BENCHMARK.json``; ``README.md`` lists which layer each
one loads and which metrics it should move.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import DumpSpec, TopicPlan

TOPIC_IDS = (
    "russia_ukraine", "trump_administration", "tiktok_ban", "ai", "elon_musk",
    "israel_palestine", "dei_programs", "lgbtq_rights", "la_wildfires",
    "us_canada_relations",
)

# Filler weights. The per-kind split is a synthetic assumption with no
# measured source. The only target is the total: likes, follows, blocks,
# deletes and profile updates make up about 90% of firehose's lines.
FILLER = {"like": 62, "follow": 14, "block": 3, "delete": 8, "update": 8,
          "signup": 3, "other": 2}


def _topics(n: int, participants: int, uniform_odd: bool = False,
            reposts: float = 4.0) -> tuple[TopicPlan, ...]:
    """n camp-concentrated topics; with uniform_odd, odd-numbered ones repost
    uniformly instead."""
    return tuple(
        TopicPlan(TOPIC_IDS[i], participants, 0.0 if uniform_odd and i % 2 else 0.9, reposts)
        for i in range(n)
    )


# Dense camp-concentrated networks. On some seeds the detector misses the
# planted two camps on one of them; camp_nmi shows it.
DENSE = tuple(TopicPlan(t, 25, 0.95, 10.0) for t in TOPIC_IDS[6:9])


@dataclass(frozen=True)
class Workload:
    name: str
    dump: DumpSpec
    provider: str = "mock"  # mock | http (loopback stub)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "firehose",
            DumpSpec(users=30_000, topics=_topics(2, 30), apolitical_posts=500,
                     lines=40_000, filler_mix=FILLER),
        ),
        Workload(
            "polarized",
            DumpSpec(users=4_000, topics=_topics(6, 45, uniform_odd=True, reposts=5.0)
                     + DENSE,
                     apolitical_posts=300, lines=6_000, filler_mix=FILLER),
        ),
        Workload(
            "reanalysis",
            DumpSpec(users=20_000, topics=_topics(6, 30), apolitical_posts=4_000,
                     lines=12_000, filler_mix=FILLER),
        ),
        Workload(
            "remote_annotate",
            DumpSpec(users=2_000, topics=_topics(2, 20), apolitical_posts=40,
                     lines=800, filler_mix=FILLER),
            provider="http",
        ),
    )
}
