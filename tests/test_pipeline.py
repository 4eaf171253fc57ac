import json
import socket
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import fixture_config
from polarnet.config import (
    PROVIDER_URL_ENV,
    STAGES,
    ProviderConfig,
    config_hash,
    load_config,
    stage_seed,
)
from polarnet.errors import ConfigError, HashMismatchError, StageError
from polarnet import pipeline
from polarnet.pipeline import run_dir_for, run_pipeline


def walk_files(root: Path, skip=("manifests",)):
    for path in sorted(root.rglob("*")):
        if path.is_file() and not any(part in skip for part in path.relative_to(root).parts):
            yield path.relative_to(root)


@pytest.fixture(scope="module")
def completed_run(event_fixture, tmp_path_factory):
    event_path, truth = event_fixture
    out_root = tmp_path_factory.mktemp("run")
    config = fixture_config(event_path, out_root)
    manifests = run_pipeline(config)
    return config, run_dir_for(config), manifests, truth


class TestFullRun:
    def test_all_stages_ran(self, completed_run):
        _, _, manifests, _ = completed_run
        assert [m.stage for m in manifests] == [
            "ingest", "annotate", "graph", "groups", "metrics", "crosstopic", "report",
        ]
        assert not any(m.cached for m in manifests)

    def test_report_sections_complete(self, completed_run):
        _, run_dir, _, _ = completed_run
        summary = json.loads((run_dir / "report" / "summary.json").read_text())
        assert all(v == "ok" for v in summary["sections"].values()), summary

    def test_expected_artifacts_exist(self, completed_run):
        _, run_dir, _, _ = completed_run
        for rel in [
            "stats/activity_stats.json",
            "stats/activity_daily.csv",
            "corpus/filtered.jsonl",
            "corpus/reposts.jsonl",
            "labels/themes.jsonl",
            "labels/topics.jsonl",
            "labels/stances_russia_ukraine.jsonl",
            "graphs/stats.json",
            "graphs/russia_ukraine/2025-01_2025-03/reposts.graph",
            "graphs/russia_ukraine/2025-01_2025-03/nodes.tsv",
            "groups/russia_ukraine/partition.tsv",
            "groups/russia_ukraine/partition.json",
            "metrics/stance_report.csv",
            "metrics/structural_report.csv",
            "crosstopic/overlap.csv",
            "crosstopic/hyperedges.json",
            "crosstopic/alignment_content.csv",
            "crosstopic/alignment_structural.csv",
            "report/table4_stance.csv",
            "report/table5_structural.csv",
            "report/summary.json",
            "config.json",
        ]:
            assert (run_dir / rel).exists(), rel

    def test_config_hash_stamped_in_artifacts(self, completed_run):
        config, run_dir, _, _ = completed_run
        chash = config_hash(config)
        for rel in ["stats/activity_stats.json", "graphs/stats.json",
                    "metrics/stance_report.json", "crosstopic/hyperedges.json",
                    "report/summary.json"]:
            payload = json.loads((run_dir / rel).read_text())
            assert payload["config_hash"] == chash, rel

    def test_partition_diagnostics_recorded(self, completed_run):
        config, run_dir, _, _ = completed_run
        meta = json.loads((run_dir / "groups" / "russia_ukraine" / "partition.json").read_text())
        assert len(meta["runs"]) == config.detection.runs
        assert meta["dl"] <= min(r["dl"] for r in meta["runs"]) + 1e-9
        assert meta["seed"] == stage_seed(config.seed, "groups.russia_ukraine")

    def test_polarized_topics_detect_structure(self, completed_run):
        _, run_dir, _, _ = completed_run
        payload = json.loads((run_dir / "metrics" / "structural_report.json").read_text())
        rows = {r["topic"]: r for r in payload["rows"]}
        assert rows["russia_ukraine"]["n_groups"] >= 2
        assert rows["trump_administration"]["n_groups"] >= 2
        assert rows["tiktok_ban"]["n_groups"] == 1
        assert rows["russia_ukraine"]["mean_aei"] > 0.5

    def test_stance_recovery_tracks_ground_truth(self, completed_run):
        _, run_dir, _, truth = completed_run
        payload = json.loads((run_dir / "metrics" / "stance_report.json").read_text())
        rows = {r["topic"]: r for r in payload["rows"]}
        # polarized topics keep a clear majority camp and beat the
        # unstructured ones on every structural score
        for topic in ("russia_ukraine", "trump_administration"):
            assert rows[topic]["fraction_a"] > 0.5
            assert rows[topic]["aei"] > rows["tiktok_ban"]["aei"]
            assert rows[topic]["assortativity"] > rows["tiktok_ban"]["assortativity"]

    def test_report_table_layouts(self, completed_run):
        _, run_dir, _, _ = completed_run
        t4 = (run_dir / "report" / "table4_stance.csv").read_text().splitlines()
        assert t4[0] == ("topic,pct_a,pct_neutral,pct_b,simpson,assortativity,"
                         "aei,coleman_a,coleman_b,dominant_stance")
        t5 = (run_dir / "report" / "table5_structural.csv").read_text().splitlines()
        assert t5[0] == "topic,mean_aei,max_aei,min_aei,n_groups,max_ds,min_ds"
        single_block_rows = [line for line in t5[1:] if ",1," in line]
        assert single_block_rows, "fixture should produce a single-group topic"
        for row in single_block_rows:
            topic = row.split(",")[0]
            assert row == f"{topic},--,--,--,1,--,--"

    def test_rerun_is_fully_cached(self, completed_run):
        config, run_dir, _, _ = completed_run
        before = {rel: (run_dir / rel).read_bytes() for rel in walk_files(run_dir)}
        manifests = run_pipeline(config)
        assert all(m.cached for m in manifests)
        after = {rel: (run_dir / rel).read_bytes() for rel in walk_files(run_dir)}
        assert before == after


class TestDeterminism:
    def test_two_runs_byte_identical(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path / "root")
        run_pipeline(config, run_root=tmp_path / "a")
        run_pipeline(config, run_root=tmp_path / "b")
        dir_a = run_dir_for(config, tmp_path / "a")
        dir_b = run_dir_for(config, tmp_path / "b")
        files_a = list(walk_files(dir_a))
        files_b = list(walk_files(dir_b))
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel

    def test_different_seed_changes_hash(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        a = fixture_config(event_path, tmp_path, seed=1)
        b = fixture_config(event_path, tmp_path, seed=2)
        assert config_hash(a) != config_hash(b)

    def test_out_dir_does_not_change_hash(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        a = fixture_config(event_path, tmp_path / "x")
        b = fixture_config(event_path, tmp_path / "y")
        assert config_hash(a) == config_hash(b)


class TestFailFast:
    def test_missing_upstream_names_producing_stage(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["metrics"])
        assert "graph" in str(exc.value)

    def test_groups_requires_annotate(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config, stages=["ingest"])
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["graph"])
        assert "annotate" in str(exc.value)

    def test_metrics_without_partitions_names_groups(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config, stages=["ingest", "annotate", "graph"])
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["metrics"])
        assert "groups" in str(exc.value)

    def test_unknown_stage_rejected(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        with pytest.raises(StageError):
            run_pipeline(config, stages=["polish"])

    def test_tampered_artifact_refused_with_diff(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config, stages=["ingest", "annotate"])
        run_dir = run_dir_for(config)
        corpus = run_dir / "corpus" / "filtered.jsonl"
        corpus.write_text(corpus.read_text() + "\n", encoding="utf-8")
        with pytest.raises(HashMismatchError) as exc:
            run_pipeline(config, stages=["graph"])
        assert "filtered.jsonl" in str(exc.value)

    def test_no_input_files(self, tmp_path):
        config = fixture_config(tmp_path / "nothing.jsonl", tmp_path)
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["ingest"])
        assert exc.value.stage == "ingest"

    def test_unreachable_provider_names_annotate(self, event_fixture, tmp_path, monkeypatch):
        monkeypatch.delenv(PROVIDER_URL_ENV, raising=False)
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # the port is closed again, so every request is refused
        event_path, _ = event_fixture
        config = replace(
            fixture_config(event_path, tmp_path),
            provider=ProviderConfig(kind="http", url=f"http://127.0.0.1:{port}/annotate"),
        )
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["ingest", "annotate"])
        assert exc.value.stage == "annotate"
        assert "TransportError" in exc.value.reason

    def test_provider_without_url_stays_config_error(self, event_fixture, tmp_path, monkeypatch):
        monkeypatch.delenv(PROVIDER_URL_ENV, raising=False)
        event_path, _ = event_fixture
        config = replace(fixture_config(event_path, tmp_path), provider=ProviderConfig(kind="http"))
        with pytest.raises(ConfigError):
            run_pipeline(config, stages=["ingest", "annotate"])

    def test_missing_output_is_stage_error(self, event_fixture, tmp_path, monkeypatch):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        monkeypatch.setitem(pipeline._STAGE_FNS, "report",
                            lambda config, run_dir: [run_dir / "report" / "never_written.csv"])
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["ingest", "report"])
        assert exc.value.stage == "report"
        assert "never_written.csv" in exc.value.reason

    def test_stale_earlier_stage_refused(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        lines = event_path.read_text(encoding="utf-8").splitlines()
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        (dumps / "a.jsonl").write_text("\n".join(lines[:6000]) + "\n", encoding="utf-8")
        config = fixture_config(dumps / "*.jsonl", tmp_path / "runs")
        run_pipeline(config)
        (dumps / "b.jsonl").write_text("\n".join(lines[6000:]) + "\n", encoding="utf-8")
        for stages, stale in ((["report"], "ingest"), (["ingest", "report"], "annotate")):
            with pytest.raises(StageError) as exc:
                run_pipeline(config, stages=stages)
            assert exc.value.stage == "report"
            assert f"run stage '{stale}' again" in exc.value.reason
        manifests = run_pipeline(config)
        assert [m.cached for m in manifests] == [True] + [False] * 6
        summary = json.loads((run_dir_for(config) / "report" / "summary.json").read_text())
        assert all(v == "ok" for v in summary["sections"].values()), summary

    def test_stage_run_before_a_later_optional_stage_stays_current(
        self, event_fixture, tmp_path
    ):
        # crosstopic ran before metrics had a manifest; metrics' outputs were
        # not among its inputs, so a later partial run still accepts it
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config, stages=["ingest", "annotate", "graph", "groups", "crosstopic"])
        run_pipeline(config, stages=["metrics"])
        manifests = run_pipeline(config, stages=["report"])
        assert [(m.stage, m.cached) for m in manifests] == [("report", False)]
        summary = json.loads((run_dir_for(config) / "report" / "summary.json").read_text())
        assert all(v == "ok" for v in summary["sections"].values()), summary

    def test_moved_dumps_refuse_a_run_without_ingest(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        (dumps / "a.jsonl").write_bytes(event_path.read_bytes())
        config = fixture_config(dumps / "*.jsonl", tmp_path / "runs")
        run_pipeline(config, stages=["ingest", "annotate"])
        (dumps / "a.jsonl").rename(tmp_path / "a.jsonl")
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["graph"])
        assert exc.value.stage == "ingest"
        assert "no input files match" in exc.value.reason


class TestCacheDecisions:
    def test_report_reruns_after_partial_run(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config, stages=["ingest", "report"])
        manifests = run_pipeline(config)
        assert [m.cached for m in manifests] == [True] + [False] * 6
        summary = json.loads((run_dir_for(config) / "report" / "summary.json").read_text())
        assert all(v == "ok" for v in summary["sections"].values()), summary

    def test_new_dump_matching_glob_reruns_ingest(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        lines = event_path.read_text(encoding="utf-8").splitlines()
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        (dumps / "a.jsonl").write_text("\n".join(lines[:5000]) + "\n", encoding="utf-8")
        config = fixture_config(dumps / "*.jsonl", tmp_path / "glob")
        run_pipeline(config, stages=["ingest"])
        (dumps / "b.jsonl").write_text("\n".join(lines[5000:]) + "\n", encoding="utf-8")
        [manifest] = run_pipeline(config, stages=["ingest"])
        assert not manifest.cached
        assert sorted(manifest.inputs) == [str(dumps / "a.jsonl"), str(dumps / "b.jsonl")]
        whole = fixture_config(event_path, tmp_path / "whole")
        run_pipeline(whole, stages=["ingest"])
        rel = Path("corpus") / "filtered.jsonl"
        assert (run_dir_for(config) / rel).read_bytes() == (run_dir_for(whole) / rel).read_bytes()

    def test_each_file_hashed_once_per_call(self, event_fixture, tmp_path, monkeypatch):
        calls = Counter()
        real = pipeline.file_hash

        def counting(path):
            calls[str(path)] += 1
            return real(path)

        monkeypatch.setattr(pipeline, "file_hash", counting)
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        for cached in (False, True):
            calls.clear()
            manifests = run_pipeline(config)
            assert all(m.cached == cached for m in manifests)
            assert str(event_path) in calls
            assert set(calls.values()) == {1}, calls.most_common(3)

    def test_tampered_upstream_refuses_cached_stage(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config)
        corpus = run_dir_for(config) / "corpus" / "filtered.jsonl"
        corpus.write_text(corpus.read_text() + "\n", encoding="utf-8")
        with pytest.raises(HashMismatchError) as exc:
            run_pipeline(config, stages=["metrics"])
        assert exc.value.stage == "metrics"
        assert "corpus/filtered.jsonl" in str(exc.value)


class TestParseErrors:
    def test_malformed_lines_counted(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        lines = event_path.read_text(encoding="utf-8").splitlines()
        malformed = ["{not json", '{"kind": "unknown"}', "[]"]
        dump = tmp_path / "events.jsonl"
        # blank lines are skipped, not counted
        mixed = (lines[:100] + [malformed[0], ""] + lines[100:5000] + [malformed[1]]
                 + lines[5000:] + [malformed[2]])
        dump.write_text("\n".join(mixed) + "\n", encoding="utf-8")
        counts = []
        for path in (event_path, dump):
            config = fixture_config(path, tmp_path / path.stem)
            run_pipeline(config, stages=["ingest"])
            stats_path = run_dir_for(config) / "stats" / "activity_stats.json"
            counts.append(json.loads(stats_path.read_text())["parse_errors"])
        assert counts == [0, len(malformed)]


class TestConfig:
    def test_load_validates_required_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"inputs": ["x"]}')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_seed_must_be_integer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"inputs": ["x"], "out_dir": "o", "seed": "42"}')
        with pytest.raises(ConfigError):
            load_config(path)

    def test_stage_seeds_differ_by_stage(self):
        assert stage_seed(42, "ingest.sample") != stage_seed(42, "groups.ai")
        assert stage_seed(42, "groups.ai") == stage_seed(42, "groups.ai")

    def test_config_json_round_trip(self, event_fixture, tmp_path):
        from polarnet.config import config_from_dict, config_to_dict

        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        again = config_from_dict(config_to_dict(config))
        assert config_hash(again) == config_hash(config)

    def test_documented_example_config_loads(self):
        docs = Path(__file__).parent.parent / "docs"
        config = load_config(docs / "config_example.json")
        assert len(config.topics) == 10
        assert config.detection.runs == 15 and config.detection.iters == 50
        assert config.metrics.hypergraph_threshold == 0.2
        lost_hours = sum((1.0 - f) * 24 for f in config.downtime.values())
        assert lost_hours == pytest.approx(69.0)

    def test_documented_event_schema_matches_parser(self):
        docs = Path(__file__).parent.parent / "docs"
        schema = json.loads((docs / "event_schema.json").read_text())
        assert set(schema["required"]) == {"action", "collection", "did", "time"}
        assert set(schema["properties"]) >= {"uri", "text", "langs", "subject"}


class TestDegenerateConfigs:
    def test_topics_without_posts_are_skipped(self, event_fixture, tmp_path):
        from polarnet.config import config_from_dict

        event_path, _ = event_fixture
        # the default ten-topic set: six have no posts in the fixture
        config = config_from_dict(
            {"inputs": [str(event_path)], "out_dir": str(tmp_path), "seed": 1}
        )
        run_pipeline(config)
        run_dir = run_dir_for(config)
        gstats = json.loads((run_dir / "graphs" / "stats.json").read_text())
        empty = [t for t, s in gstats["topics"].items() if s["edges"] == 0]
        assert len(empty) == 6
        rows = (run_dir / "metrics" / "stance_report.csv").read_text().splitlines()
        assert len(rows) - 1 == 4

    def test_single_topic_crosstopic_skips(self, event_fixture, tmp_path):
        from polarnet.config import config_from_dict

        event_path, _ = event_fixture
        config = config_from_dict(
            {
                "inputs": [str(event_path)],
                "out_dir": str(tmp_path),
                "seed": 1,
                "topics": [
                    {"id": "russia_ukraine", "name": "Russia-Ukraine",
                     "for_name": "supports_ukraine", "against_name": "supports_russia"}
                ],
            }
        )
        run_pipeline(config)
        run_dir = run_dir_for(config)
        assert (run_dir / "crosstopic" / "skipped.json").exists()
        summary = json.loads((run_dir / "report" / "summary.json").read_text())
        assert summary["sections"]["crosstopic"] == "missing"

    def test_no_post_kept_still_completes(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        base = fixture_config(event_path, tmp_path)
        config = replace(base, filters=replace(base.filters, min_reposts=100_000))
        manifests = run_pipeline(config)
        assert [m.stage for m in manifests] == list(STAGES)
        labels = run_dir_for(config) / "labels"
        assert (labels / "themes.jsonl").read_bytes() == b""
        assert (labels / "topics.jsonl").read_bytes() == b""

    def test_sampled_corpus_feeds_annotation(self, event_fixture, tmp_path):
        from polarnet.config import config_from_dict
        from conftest import FIXTURE_TOPICS

        event_path, _ = event_fixture
        config = config_from_dict(
            {
                "inputs": [str(event_path)],
                "out_dir": str(tmp_path),
                "seed": 1,
                "topics": FIXTURE_TOPICS,
                "sample": {"fraction": 0.5},
                "annotate_on": "sampled",
            }
        )
        run_pipeline(config, stages=["ingest", "annotate"])
        run_dir = run_dir_for(config)
        sampled = (run_dir / "corpus" / "sampled.jsonl").read_text().splitlines()
        filtered = (run_dir / "corpus" / "filtered.jsonl").read_text().splitlines()
        assert len(sampled) == round(0.5 * len(filtered))
        themes = (run_dir / "labels" / "themes.jsonl").read_text().splitlines()
        assert len(themes) == len(sampled)


class TestPartialReport:
    def test_report_marks_missing_sections(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config, stages=["ingest", "report"])
        run_dir = run_dir_for(config)
        summary = json.loads((run_dir / "report" / "summary.json").read_text())
        assert summary["sections"]["activity"] == "ok"
        assert summary["sections"]["stance"] == "missing"
        assert summary["sections"]["crosstopic"] == "missing"
        assert (run_dir / "report" / "table1_activity.csv").exists()
        assert not (run_dir / "report" / "table4_stance.csv").exists()
