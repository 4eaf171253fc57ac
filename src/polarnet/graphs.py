"""Topic interaction networks.

Builds the user-post bipartite structure for one topic and window,
projects it onto directed user-user multigraphs (one parallel edge per
interaction event), and handles fast binary persistence for large graphs.
"""

from __future__ import annotations

import csv
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .files import open_new
from .ingest import PostRecord, RepostEvent

# format tag plus "E": the file holds one record per edge event
_MAGIC = b"PNETG1\x00E"


@dataclass(frozen=True)
class EdgeRecord:
    source: str
    target: str
    timestamp: datetime


@dataclass(frozen=True)
class BipartiteEdge:
    user: str
    post_uri: str
    kind: str  # authorship | repost
    timestamp: datetime


@dataclass
class BipartiteInteractions:
    """User-post interactions for one (topic, window)."""

    topic: str
    window: Optional[tuple[datetime, datetime]]
    edges: list[BipartiteEdge]
    dangling_references: int = 0


@dataclass
class TopicNetwork:
    """Directed user multigraph for one (topic, window, interaction type).

    Parallel edges are kept: ``multiplicity`` maps ordered user pairs to
    their edge count and is the source of truth for all metrics. The
    per-event list is kept when the graph was built from events, so that
    ``save_graph`` and ``export_csv`` write their timestamps; a graph read
    back by ``load_graph`` has none.
    """

    topic: str
    interaction: str
    window: Optional[tuple[datetime, datetime]]
    nodes: set
    multiplicity: Counter
    events: Optional[list[EdgeRecord]] = None
    suppressed_self_edges: int = 0

    @property
    def edge_count(self) -> int:
        return sum(self.multiplicity.values())

    @classmethod
    def from_events(
        cls,
        topic: str,
        interaction: str,
        window,
        events: Iterable[EdgeRecord],
    ) -> "TopicNetwork":
        events = list(events)
        mult = Counter((e.source, e.target) for e in events)
        nodes = {e.source for e in events} | {e.target for e in events}
        return cls(topic, interaction, window, nodes, mult, events)


@dataclass
class NetworkStats:
    nodes: int
    edges: int
    average_degree: float


def _in_window(ts: datetime, window) -> bool:
    if window is None:
        return True
    start, end = window
    return start <= ts < end


def build_bipartite(
    posts: Mapping[str, PostRecord],
    reposts: Iterable[RepostEvent],
    topic_labels: Mapping[str, str],
    topic: str,
    window: Optional[tuple[datetime, datetime]] = None,
) -> BipartiteInteractions:
    """Assemble the bipartite structure for one topic.

    Keeps authorship edges for posts labeled with the topic, plus repost
    edges pointing at those posts. Interactions referencing posts
    outside this topic corpus are dropped and tallied.
    """
    topic_posts = {
        uri: p
        for uri, p in posts.items()
        if topic_labels.get(uri) == topic and _in_window(p.created_at, window)
    }
    edges: list[BipartiteEdge] = []
    dangling = 0
    for uri, p in topic_posts.items():
        edges.append(BipartiteEdge(p.author, uri, "authorship", p.created_at))
    for r in reposts:
        if not _in_window(r.timestamp, window):
            continue
        if r.subject_uri not in topic_posts:
            dangling += 1
            continue
        edges.append(BipartiteEdge(r.reposter, r.subject_uri, "repost", r.timestamp))
    return BipartiteInteractions(
        topic=topic,
        window=window,
        edges=edges,
        dangling_references=dangling,
    )


def project_reposts(b: BipartiteInteractions) -> TopicNetwork:
    """Project repost interactions onto a directed user multigraph.

    Every repost event becomes one edge from the reposter to the original
    author, so repeated reposts yield parallel edges. Self-reposts are
    suppressed and tallied. The node set is exactly the users incident to
    at least one retained edge.
    """
    authors = {e.post_uri: e.user for e in b.edges if e.kind == "authorship"}
    events: list[EdgeRecord] = []
    suppressed = 0
    for e in b.edges:
        if e.kind != "repost":
            continue
        author = authors.get(e.post_uri)
        if author is None:
            continue
        if author == e.user:
            # interactions with one's own post carry no inter-user signal
            suppressed += 1
            continue
        events.append(EdgeRecord(e.user, author, e.timestamp))
    net = TopicNetwork.from_events(b.topic, "reposts", b.window, events)
    net.suppressed_self_edges = suppressed
    return net


def network_stats(g: TopicNetwork) -> NetworkStats:
    """Node count, edge multiset cardinality, and average degree 2|E|/|V|."""
    n = len(g.nodes)
    m = g.edge_count
    return NetworkStats(nodes=n, edges=m, average_degree=(2.0 * m / n) if n else 0.0)


# Persistence: a compact binary edge list plus a node-id dictionary, with a
# CSV export for interoperability. Timestamps are stored as epoch
# microseconds so reloads are bit-exact.


def write_nodes_tsv(nodes: Iterable, path: Union[str, Path]) -> list:
    ordered = sorted(nodes)
    with open_new(path, encoding="utf-8") as fh:
        for i, node in enumerate(ordered):
            fh.write(f"{i}\t{node}\n")
    return ordered


def read_nodes_tsv(path: Union[str, Path]) -> list:
    """The node ids of a ``nodes.tsv``, whose lines are numbered 0, 1, 2, ..."""
    nodes = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            idx, tab, node = line.rstrip("\n").partition("\t")
            if not tab or idx != str(len(nodes)):
                raise ValueError(f"{path}: line {len(nodes) + 1} is not node {len(nodes)} "
                                 f"followed by a tab and its id")
            nodes.append(node)
    return nodes


def _epoch_us(ts: datetime) -> int:
    return int(ts.timestamp() * 1_000_000)


def save_graph(g: TopicNetwork, path: Union[str, Path], node_index: Mapping) -> None:
    """Write ``g.events``, one record per edge; every pipeline graph is built from events."""
    with open_new(path, "xb") as fh:
        fh.write(_MAGIC + struct.pack("<I", len(g.events)))
        for e in g.events:
            fh.write(
                struct.pack("<IIq", node_index[e.source], node_index[e.target],
                            _epoch_us(e.timestamp))
            )


def load_graph(
    path: Union[str, Path],
    nodes: Sequence,
    topic: str,
    interaction: str,
    window=None,
) -> TopicNetwork:
    """Read a graph file's edge multiset over ``nodes``, its ``nodes.tsv`` ids.

    Every stage that loads a graph reads only its multiplicities, so the
    edges' timestamps are not decoded and the network has no ``events``.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path} is not a graph file")
    offset = len(_MAGIC) + 4
    count = struct.unpack_from("<I", data, len(_MAGIC))[0] if len(data) >= offset else None
    if count is None or len(data) != offset + 16 * count:
        raise ValueError(f"{path} is {len(data)} bytes, not the length its edge count "
                         f"gives; it is truncated or has trailing bytes")
    records = struct.iter_unpack("<IIq", memoryview(data)[offset:])
    try:
        multiplicity = Counter((nodes[s], nodes[t]) for s, t, _us in records)
    except IndexError:
        records = struct.iter_unpack("<IIq", memoryview(data)[offset:])
        edge, node = next((i, max(s, t)) for i, (s, t, _us) in enumerate(records)
                          if max(s, t) >= len(nodes))
        raise ValueError(f"{path}: edge {edge} names node {node}, but there "
                         f"are only {len(nodes)} nodes") from None
    return TopicNetwork(topic, interaction, window, set(nodes), multiplicity)


def export_csv(g: TopicNetwork, path: Union[str, Path]) -> None:
    with open_new(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "target", "timestamp"])
        for e in g.events:
            writer.writerow([e.source, e.target, e.timestamp.isoformat()])


def window_dirname(window: Optional[tuple[datetime, datetime]]) -> str:
    if window is None:
        return "all"
    start, end = window
    last_month = end.replace(day=1)
    # end is exclusive; the directory name shows the last covered month
    if last_month.month == 1:
        last_month = last_month.replace(year=last_month.year - 1, month=12)
    else:
        last_month = last_month.replace(month=last_month.month - 1)
    return f"{start:%Y-%m}_{last_month:%Y-%m}"
