"""Pipeline configuration.

One JSON config drives a full run. Every stochastic stage draws its seed
from the single master seed. The hash of the semantic config fields names
the run directory and is stamped into ``report/summary.json``; each
stage's cache key covers only the fields that stage reads.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Optional, Union

from .annotate import DEFAULT_TOPICS, TopicSpec
from .crosstopic import NMI_NORMALIZATIONS
from .errors import ConfigError
from .ingest import DEFAULT_DOWNTIME
from .providers import check_endpoint_url

STAGES = ("ingest", "annotate", "graph", "groups", "metrics", "crosstopic", "report")

PROVIDER_URL_ENV = "POLARNET_PROVIDER_URL"


@dataclass
class ProviderConfig:
    kind: str = "mock"  # mock | http
    url: Optional[str] = None

    def spec_string(self) -> str:
        if self.kind == "mock":
            return "mock"
        url = os.environ.get(PROVIDER_URL_ENV) or self.url
        if not url:
            raise ConfigError("http provider requires a url (or POLARNET_PROVIDER_URL)")
        return url


@dataclass
class FilterConfig:
    min_reposts: int = 1
    min_chars: int = 5
    lang: str = "en"


@dataclass
class SampleConfig:
    fraction: float = 1.0
    stratify_by_day: bool = False


@dataclass
class DetectionConfig:
    max_groups: int = 5
    runs: int = 15
    iters: int = 50
    collapse_multigraph: bool = False


@dataclass
class MetricFlags:
    include_neutral: bool = False
    simpson_include_neutral: bool = False
    hypergraph_threshold: float = 0.2
    hypergraph_inclusive: bool = False
    nmi_normalization: str = "mean"


@dataclass
class PipelineConfig:
    inputs: list[str]
    out_dir: str
    seed: int
    window: Optional[tuple[datetime, datetime]] = None
    filters: FilterConfig = field(default_factory=FilterConfig)
    sample: SampleConfig = field(default_factory=SampleConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    topics: tuple[TopicSpec, ...] = DEFAULT_TOPICS
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    metrics: MetricFlags = field(default_factory=MetricFlags)
    stance_sample_k: int = 10
    annotate_on: str = "filtered"  # filtered | sampled
    downtime: dict = field(default_factory=lambda: dict(DEFAULT_DOWNTIME))

    def topic_by_id(self, topic_id: str) -> TopicSpec:
        for t in self.topics:
            if t.id == topic_id:
                return t
        raise ConfigError(f"unknown topic {topic_id!r}")


def _parse_date(raw: str) -> datetime:
    try:
        value = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ConfigError(f"bad date {raw!r}") from exc
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    return value


def load_config(path: Union[str, Path]) -> PipelineConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


# each section field's annotation -> (what to call it, the JSON values it takes)
_JSON_TYPES = {
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "bool": ("true or false", (bool,)),
    "str": ("a string", (str,)),
    "Optional[str]": ("a string or null", (str, type(None))),
}


def _has_type(value, annotation: str) -> bool:
    if isinstance(value, bool):  # a bool is an int to isinstance, never to a config
        return annotation == "bool"
    return isinstance(value, _JSON_TYPES[annotation][1])


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    for key in ("inputs", "out_dir", "seed"):
        if key not in raw:
            raise ConfigError(f"config is missing required field {key!r}")
    if not isinstance(raw["seed"], int):
        raise ConfigError("seed must be an integer (stochastic stages require it)")
    inputs = raw["inputs"]
    if not isinstance(inputs, list) or not all(isinstance(p, str) for p in inputs):
        raise ConfigError("inputs must be a list of path or glob strings")

    window = None
    if raw.get("window"):
        w = raw["window"]
        try:
            window = (_parse_date(w["start"]), _parse_date(w["end"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"window needs 'start' and 'end' dates: {exc!r}") from exc

    topics = DEFAULT_TOPICS
    if raw.get("topics"):
        try:
            topics = tuple(
                TopicSpec(t["id"], t.get("name", t["id"]),
                          t["for_name"], t["against_name"])
                for t in raw["topics"]
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad topic entry: {exc}") from exc

    def section(name, cls):
        data = raw.get(name, {})
        if not isinstance(data, dict):
            raise ConfigError(f"{name} must be an object")
        for f in fields(cls):
            if f.name in data and not _has_type(data[f.name], f.type):
                raise ConfigError(f"{name}.{f.name} must be {_JSON_TYPES[f.type][0]}, "
                                  f"got {data[f.name]!r}")
        # stored as float, so 1 and 1.0 are one setting and hash alike
        floats = {f.name for f in fields(cls) if f.type == "float"}
        try:
            return cls(**{k: float(v) if k in floats else v for k, v in data.items()})
        except TypeError as exc:
            raise ConfigError(f"bad {name} section: {exc}") from exc

    sample = section("sample", SampleConfig)
    if not 0.0 < sample.fraction <= 1.0:
        raise ConfigError("sample.fraction must be in (0, 1]")

    provider = section("provider", ProviderConfig)
    if provider.kind not in ("mock", "http"):
        raise ConfigError(f"provider.kind must be 'mock' or 'http', got {provider.kind!r}")
    if provider.kind == "http" and provider.url is not None:
        # POLARNET_PROVIDER_URL, a deployment setting, is checked when annotate runs
        check_endpoint_url(provider.url, "provider.url")

    metrics = section("metrics", MetricFlags)
    if not 0.0 < metrics.hypergraph_threshold < 1.0:
        raise ConfigError("metrics.hypergraph_threshold must be in (0, 1)")
    if metrics.nmi_normalization not in NMI_NORMALIZATIONS:
        raise ConfigError(f"metrics.nmi_normalization must be one of "
                          f"{', '.join(NMI_NORMALIZATIONS)}, got {metrics.nmi_normalization!r}")

    downtime = dict(DEFAULT_DOWNTIME)
    if "downtime" in raw:
        downtime = {}
        try:
            for entry in raw["downtime"]:
                day = date.fromisoformat(entry["date"])
                hours = entry["observed_hours"]
                if not (_has_type(hours, "float") and 0 <= hours <= 24):
                    raise ConfigError(f"downtime[].observed_hours must be a number in "
                                      f"[0, 24], got {hours!r}")
                downtime[day] = hours / 24.0
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"downtime must list {{'date', 'observed_hours'}} entries: {exc!r}"
            ) from exc

    annotate_on = raw.get("annotate_on", "filtered")
    if annotate_on not in ("filtered", "sampled"):
        raise ConfigError("annotate_on must be 'filtered' or 'sampled'")

    stance_sample_k = raw.get("stance_sample_k", 10)
    if not (_has_type(stance_sample_k, "int") and stance_sample_k >= 1):
        raise ConfigError(f"stance_sample_k must be an integer of at least 1, "
                          f"got {stance_sample_k!r}")

    return PipelineConfig(
        inputs=list(inputs),
        out_dir=str(raw["out_dir"]),
        seed=raw["seed"],
        window=window,
        filters=section("filters", FilterConfig),
        sample=sample,
        provider=provider,
        topics=topics,
        detection=section("detection", DetectionConfig),
        metrics=metrics,
        stance_sample_k=stance_sample_k,
        annotate_on=annotate_on,
        downtime=downtime,
    )


def config_to_dict(config: PipelineConfig) -> dict:
    """Inverse of config_from_dict, for stamping configs into run dirs."""
    return {
        "inputs": config.inputs,
        "out_dir": config.out_dir,
        "seed": config.seed,
        "window": (
            {"start": config.window[0].isoformat(), "end": config.window[1].isoformat()}
            if config.window
            else None
        ),
        "filters": vars(config.filters),
        "sample": vars(config.sample),
        "provider": vars(config.provider),
        "topics": [vars(t) for t in config.topics],
        "detection": vars(config.detection),
        "metrics": vars(config.metrics),
        "stance_sample_k": config.stance_sample_k,
        "annotate_on": config.annotate_on,
        "downtime": [
            {"date": d.isoformat(), "observed_hours": f * 24.0}
            for d, f in sorted(config.downtime.items())
        ],
    }


def semantic_fields(config: PipelineConfig) -> dict:
    """The config as JSON-ready values, by top-level field, without out_dir:
    where a run is written does not change what it computes."""
    return {
        "inputs": sorted(config.inputs),
        "seed": config.seed,
        "window": [d.isoformat() for d in config.window] if config.window else None,
        "filters": vars(config.filters),
        "sample": vars(config.sample),
        "provider": vars(config.provider),
        "topics": [vars(t) for t in config.topics],
        "detection": vars(config.detection),
        "metrics": vars(config.metrics),
        "stance_sample_k": config.stance_sample_k,
        "annotate_on": config.annotate_on,
        "downtime": {d.isoformat(): f for d, f in sorted(config.downtime.items())},
    }


def config_hash(config: PipelineConfig) -> str:
    """Hash of the semantic fields, so identical runs land on identical
    hashes wherever they are written."""
    blob = json.dumps(semantic_fields(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def stage_seed(master_seed: int, stage: str) -> int:
    """Stable per-stage seed derived from the master seed."""
    digest = hashlib.sha256(f"{master_seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
