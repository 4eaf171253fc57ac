import fnmatch
import hashlib
import json
import logging
import os
import re
import shutil
import socket
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import FIXTURE_TOPICS, fixture_config
from polarnet.config import (
    PROVIDER_URL_ENV,
    STAGES,
    PipelineConfig,
    ProviderConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    stage_seed,
)
from polarnet.errors import ConfigError, HashMismatchError, StageError
from polarnet import pipeline
from polarnet.pipeline import run_dir_for, run_pipeline
from polarnet.report import write_json

OLD_NS = 1_000_000_000_000_000_000  # 2001, far from now whatever the clock's grain


@pytest.fixture
def hashed(monkeypatch):
    """How often ``pipeline.file_hash`` was called on each path."""
    calls = Counter()
    real = pipeline.file_hash

    def counting(path):
        calls[str(path)] += 1
        return real(path)

    monkeypatch.setattr(pipeline, "file_hash", counting)
    return calls


@pytest.fixture
def aged_dump(event_fixture, tmp_path, monkeypatch):
    """A copy of the fixture dump with its mtime set back to 2001, and a
    pipeline clock ahead by five racy windows, so that the copy's ctime (the
    copy's own, which nothing can set back) is outside the racy window."""
    event_path, _ = event_fixture
    dump = tmp_path / "dumps" / "events.jsonl"
    dump.parent.mkdir()
    shutil.copyfile(event_path, dump)
    os.utime(dump, ns=(OLD_NS, OLD_NS))
    monkeypatch.setattr(pipeline, "_now_ns", lambda: time.time_ns() + 5 * pipeline.RACY_NS)
    return dump


def recorded_signatures(config) -> dict:
    manifest = run_dir_for(config) / "manifests" / "ingest.json"
    return json.loads(manifest.read_text())["signatures"]


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
            "metrics/stance_report.json",
            "metrics/structural_report.json",
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

    def test_only_the_report_stamps_the_config_hash(self, completed_run):
        # upstream artifacts depend only on what their stage reads, so a
        # sibling run directory can reuse them; the whole config is recorded
        # in config.json, the run directory's name and the summary
        config, run_dir, _, _ = completed_run
        summary = json.loads((run_dir / "report" / "summary.json").read_text())
        assert summary["config_hash"] == config_hash(config) == run_dir.name
        unstamped = ["stats/activity_stats.json", "graphs/stats.json",
                     "metrics/stance_report.json", "metrics/structural_report.json",
                     "crosstopic/hyperedges.json"]
        unstamped += [str(p.relative_to(run_dir)) for p in run_dir.glob("groups/*/*.json")]
        assert len(unstamped) == 5 + 4
        for rel in unstamped:
            assert "config_hash" not in json.loads((run_dir / rel).read_text()), rel
        manifest = json.loads((run_dir / "manifests" / "report.json").read_text())
        assert manifest["key"] == pipeline.stage_key("report", pipeline.config_json(config),
                                                     manifest["inputs"])

    def test_no_stage_reads_the_repost_csvs(self, completed_run):
        # the stages that read graph outputs declare the files they open,
        # not all of graphs/
        _, _, manifests, _ = completed_run
        inputs = {m.stage: m.inputs for m in manifests}
        for stage in ("groups", "metrics", "crosstopic"):
            assert inputs[stage], stage
            assert not [rel for rel in inputs[stage] if rel.endswith("/reposts.csv")], stage

    def test_partition_diagnostics_recorded(self, completed_run):
        config, run_dir, _, _ = completed_run
        meta = json.loads((run_dir / "groups" / "russia_ukraine" / "partition.json").read_text())
        assert len(meta["runs"]) == config.detection.runs
        assert meta["dl"] <= min(r["dl"] for r in meta["runs"]) + 1e-9
        assert meta["seed"] == stage_seed(config.seed, "groups.russia_ukraine")

    def test_one_block_dl_recorded_and_not_below_the_found_dl(self, completed_run):
        from polarnet.groups import description_length

        config, run_dir, _, _ = completed_run
        evidence = {}
        for path in sorted(run_dir.glob("groups/*/partition.json")):
            meta = json.loads(path.read_text())
            topic = meta["topic"]
            [graph_dir] = (run_dir / "graphs" / topic).iterdir()
            g = pipeline.load_topic_graph(graph_dir, topic)
            one_block = description_length(g, {n: 0 for n in g.nodes},
                                           config.detection.collapse_multigraph)
            assert meta["dl_one_block"] == pytest.approx(one_block, abs=1e-9)
            assert meta["dl"] <= meta["dl_one_block"]
            evidence[topic] = meta["dl_one_block"] - meta["dl"]
        assert sorted(evidence) == sorted(t["id"] for t in FIXTURE_TOPICS)
        assert evidence["russia_ukraine"] > 0 and evidence["trump_administration"] > 0
        assert evidence["tiktok_ban"] == 0

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


# Runs the config (JSON, argv[1]) in the run root argv[2], then prints the
# unrounded NMI of every pair of its topics' content groupings, which the
# alignment CSVs round to 6 decimals.
HASH_SEED_RUN = """
import json, sys
from pathlib import Path
from polarnet.config import config_from_dict
from polarnet.crosstopic import nmi_alignment
from polarnet.pipeline import read_assignment, run_dir_for, run_pipeline
config, root = config_from_dict(json.loads(sys.argv[1])), Path(sys.argv[2])
run_pipeline(config, run_root=root)
paths = sorted(run_dir_for(config, root).glob("groups/*/content.tsv"))
content = [read_assignment(p) for p in paths]
print([repr(nmi_alignment(x, y)) for i, x in enumerate(content) for y in content[i + 1:]])
"""


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

    def test_outputs_do_not_depend_on_the_hash_seed(self, completed_run, tmp_path):
        # include_neutral scores three stance groups, so a sum over a set of
        # them would run in string-hash order; with a new threshold too, each
        # run re-runs metrics, crosstopic and report over a copy of the
        # completed run's stages
        base = completed_run[0]
        raw = config_to_dict(base)
        raw["metrics"] = dict(raw["metrics"], include_neutral=True, hypergraph_threshold=0.5)
        src = str(Path(__file__).parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        seen = set()
        for seed in ("1", "2", "3", "4"):
            root = in_root_of(base, tmp_path / seed)
            proc = subprocess.run(
                [sys.executable, "-c", HASH_SEED_RUN, json.dumps(raw), str(root)],
                env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            run_dir = run_dir_for(config_from_dict(raw), root)
            seen.add((proc.stdout, tuple((str(rel), (run_dir / rel).read_bytes())
                                         for rel in walk_files(run_dir))))
        assert len(seen) == 1

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
        monkeypatch.setitem(pipeline._STAGE_FNS, "report", lambda config, run_dir, inputs: [
            run_dir / "report" / "never_written.csv"])
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

    @pytest.mark.parametrize("legacy", [False, True])
    def test_partial_and_full_runs_agree_on_an_upstream_key(self, event_fixture, tmp_path,
                                                            legacy):
        # a manifest with another key, or written before stage keys (a
        # config hash and no key), is out of date for a partial run as for
        # a full one
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config)
        path = run_dir_for(config) / "manifests" / "metrics.json"
        manifest = json.loads(path.read_text())
        if legacy:
            manifest["config_hash"] = config_hash(config)
            del manifest["key"]
        else:
            manifest["key"] = "0" * 64
        write_json(path, manifest)
        with pytest.raises(StageError) as exc:
            run_pipeline(config, stages=["report"])
        assert exc.value.stage == "report"
        assert exc.value.reason.endswith("run stage 'metrics' again")
        assert ran(run_pipeline(config)) == ["metrics"]

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

    def test_rerun_leaves_only_the_outputs_its_manifests_list(self, event_fixture, tmp_path):
        # the dump rewritten without the tiktok_ban and ai cue tokens leaves
        # those topics without a network: the first run's graphs, groups and
        # joint tables for them must not outlive it, nor reach the bundle
        event_path, _ = event_fixture
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        text = event_path.read_text(encoding="utf-8")
        (dumps / "events.jsonl").write_text(text, encoding="utf-8")
        config = fixture_config(dumps / "*.jsonl", tmp_path / "runs")
        run_pipeline(config)
        run_dir = run_dir_for(config)
        assert len(list((run_dir / "report").glob("joint_*.csv"))) == 6
        (dumps / "events.jsonl").write_text(
            re.sub("bytedance|scroll-ban|chatbot|neural-net", "", text), encoding="utf-8")
        assert ran(run_pipeline(config)) == list(STAGES)
        stats = json.loads((run_dir / "graphs" / "stats.json").read_text())
        assert [t for t, s in stats["topics"].items() if s["edges"]] == [
            "russia_ukraine", "trump_administration"]
        listed = {"config.json"}
        for stage in STAGES:
            listed |= set(json.loads((run_dir / "manifests" / f"{stage}.json").read_text())[
                "outputs"])
        assert {str(rel) for rel in walk_files(run_dir)} == listed
        assert [p.name for p in (run_dir / "report").glob("joint_*.csv")] == [
            "joint_russia_ukraine__trump_administration.csv"]

    def test_each_file_hashed_once_per_call(self, aged_dump, tmp_path, hashed):
        # the dump is hashed for the cold call's ingest key; the cached call
        # takes its hash from ingest's manifest, by its stat signature
        config = fixture_config(aged_dump, tmp_path / "runs")
        for cached in (False, True):
            hashed.clear()
            manifests = run_pipeline(config)
            assert all(m.cached == cached for m in manifests)
            assert (str(aged_dump) in hashed) != cached
            assert set(hashed.values()) == {1}, hashed.most_common(3)

    def test_ingest_parses_the_dumps_its_key_hashed(self, event_fixture, tmp_path,
                                                    monkeypatch):
        calls = []
        real = pipeline.input_files

        def counting(patterns):
            calls.append(patterns)
            return real(patterns)

        monkeypatch.setattr(pipeline, "input_files", counting)
        event_path, _ = event_fixture
        [manifest] = run_pipeline(fixture_config(event_path, tmp_path), stages=["ingest"])
        assert not manifest.cached
        assert calls == [[str(event_path)]]

    def test_config_stamp_written_only_when_its_content_changes(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        stamp = run_dir_for(config) / "config.json"
        old = 1_000_000_000_000_000_000  # 2001, far from now whatever the clock's grain
        os.utime(stamp, ns=(old, old))
        [manifest] = run_pipeline(config, stages=["ingest"])
        assert manifest.cached
        assert stamp.stat().st_mtime_ns == old
        # same run directory, another spelling of out_dir: the stamp follows it
        respelled = replace(config, out_dir=str(tmp_path / "runs") + "/")
        assert run_dir_for(respelled) == run_dir_for(config)
        run_pipeline(respelled, stages=["ingest"])
        assert stamp.stat().st_mtime_ns != old
        assert json.loads(stamp.read_text()) == config_to_dict(respelled)

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


def overwrite_one_byte(dump: Path) -> None:
    with dump.open("r+b") as fh:
        fh.seek(10)
        byte = fh.read(1)
        fh.seek(10)
        fh.write(bytes([byte[0] ^ 1]))  # ASCII stays ASCII


class TestDumpSignatures:
    """A dump is hashed again only when its stat signature moved, or when
    it was last modified inside the racy window."""

    def test_cached_runs_read_no_dump(self, aged_dump, tmp_path, hashed):
        config = fixture_config(aged_dump, tmp_path / "runs")
        run_pipeline(config)
        st = aged_dump.stat()
        assert recorded_signatures(config) == {str(aged_dump): [
            st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]}
        for stages in (None, ["report"], ["metrics", "crosstopic"]):
            hashed.clear()
            manifests = run_pipeline(config, stages=stages)
            assert all(m.cached for m in manifests), stages
            assert str(aged_dump) not in hashed, stages
            assert hashed, stages  # run-directory outputs are still hashed
            assert set(hashed.values()) == {1}, (stages, hashed.most_common(3))

    def test_new_run_dir_takes_the_hash_a_sibling_signed(self, aged_dump, tmp_path, hashed):
        config = fixture_config(aged_dump, tmp_path / "runs")
        run_pipeline(config)
        changed = replace(config, metrics=replace(config.metrics, hypergraph_threshold=0.5))
        hashed.clear()
        manifests = run_pipeline(changed)
        assert ran(manifests) == ["crosstopic", "report"]
        assert str(aged_dump) not in hashed
        assert manifests[0].inputs == {str(aged_dump): pipeline.file_hash(aged_dump)}
        assert recorded_signatures(changed) == recorded_signatures(config)

    @pytest.mark.parametrize("index", range(5), ids=["dev", "ino", "size", "mtime", "ctime"])
    def test_sibling_signature_must_match_in_every_field(self, aged_dump, tmp_path, hashed,
                                                         index):
        config = fixture_config(aged_dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        path = run_dir_for(config) / "manifests" / "ingest.json"
        manifest = json.loads(path.read_text())
        manifest["signatures"][str(aged_dump)][index] += 1
        path.write_text(json.dumps(manifest), encoding="utf-8")
        changed = replace(config, metrics=replace(config.metrics, hypergraph_threshold=0.5))
        hashed.clear()
        run_pipeline(changed, stages=["ingest"])
        assert hashed[str(aged_dump)] == 1

    def test_cached_rerun_reads_no_sibling_manifest(self, aged_dump, tmp_path, monkeypatch):
        config = fixture_config(aged_dump, tmp_path / "runs")
        changed = replace(config, metrics=replace(config.metrics, hypergraph_threshold=0.5))
        run_pipeline(config)
        run_pipeline(changed)
        loaded = []
        real = pipeline._load_manifest

        def recording(run_dir, stage):
            loaded.append(Path(run_dir))
            return real(run_dir, stage)

        monkeypatch.setattr(pipeline, "_load_manifest", recording)
        for c in (config, changed):
            loaded.clear()
            assert all(m.cached for m in run_pipeline(c))
            assert set(loaded) == {run_dir_for(c)}

    @pytest.mark.parametrize("edit", ["append", "same-size", "mtime-restored"])
    def test_edited_dump_is_hashed_and_reruns_ingest(self, aged_dump, tmp_path, hashed, edit):
        config = fixture_config(aged_dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        before = aged_dump.stat()
        if edit == "append":
            first = aged_dump.read_bytes().split(b"\n", 1)[0]
            with aged_dump.open("ab") as fh:
                fh.write(first + b"\n")
        else:
            overwrite_one_byte(aged_dump)
        if edit == "mtime-restored":
            os.utime(aged_dump, ns=(before.st_atime_ns, before.st_mtime_ns))
            after = aged_dump.stat()
            assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        hashed.clear()
        [manifest] = run_pipeline(config, stages=["ingest"])
        assert not manifest.cached
        assert hashed[str(aged_dump)] == 1
        assert manifest.inputs[str(aged_dump)] == pipeline.file_hash(aged_dump)

    @pytest.mark.parametrize("age_windows, rehashed", [(0.5, True), (1.5, False)])
    def test_edit_inside_the_racy_window(self, event_fixture, tmp_path, monkeypatch, hashed,
                                         age_windows, rehashed):
        # On a file system whose timestamps are coarser than the time between
        # two writes, a second write can keep the dump's whole signature. It
        # is modelled by a signature that keeps the timestamps the dump had
        # when ingest hashed it. A dump hashed within the racy window of its
        # last change got no signature, so the edit is found; one hashed
        # later did, and the edit is the limit the README states.
        event_path, _ = event_fixture
        dump = tmp_path / "events.jsonl"
        shutil.copyfile(event_path, dump)
        hashed_at = dump.stat()
        changed_ns = max(hashed_at.st_mtime_ns, hashed_at.st_ctime_ns)
        monkeypatch.setattr(pipeline, "_now_ns",
                            lambda: changed_ns + int(age_windows * pipeline.RACY_NS))
        monkeypatch.setattr(pipeline, "_signature", lambda st: [
            st.st_dev, st.st_ino, st.st_size, hashed_at.st_mtime_ns, hashed_at.st_ctime_ns])
        config = fixture_config(dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        assert bool(recorded_signatures(config)) != rehashed
        overwrite_one_byte(dump)
        hashed.clear()
        [manifest] = run_pipeline(config, stages=["ingest"])
        assert manifest.cached != rehashed
        assert (str(dump) in hashed) == rehashed

    def test_same_content_swapped_in_is_hashed_and_stays_cached(self, aged_dump, tmp_path,
                                                                 hashed):
        config = fixture_config(aged_dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        copy = aged_dump.with_name("copy.tmp")
        shutil.copyfile(aged_dump, copy)
        os.utime(copy, ns=(OLD_NS, OLD_NS))
        os.replace(copy, aged_dump)
        for rehashed in (True, False):
            hashed.clear()
            [manifest] = run_pipeline(config, stages=["ingest"])
            assert manifest.cached
            assert (str(aged_dump) in hashed) == rehashed
        assert recorded_signatures(config)[str(aged_dump)][1] == aged_dump.stat().st_ino

    @pytest.mark.parametrize("dated", ["now", "future"])
    def test_dump_changed_just_before_the_run_is_hashed_on_every_rerun(
        self, event_fixture, tmp_path, hashed, dated
    ):
        # the real clock and racy window: the dump's ctime is now, and its
        # 1000 lines keep the three runs well inside the window
        event_path, _ = event_fixture
        dump = tmp_path / "events.jsonl"
        lines = event_path.read_text(encoding="utf-8").splitlines(keepends=True)
        dump.write_text("".join(lines[:1000]), encoding="utf-8")
        if dated == "future":
            future = time.time_ns() + 3600 * 10**9
            os.utime(dump, ns=(future, future))
        config = fixture_config(dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        for _ in range(2):
            hashed.clear()
            [manifest] = run_pipeline(config, stages=["ingest"])
            assert manifest.cached
            assert hashed[str(dump)] == 1
        assert recorded_signatures(config) == {}

    def test_manifest_without_signatures_stays_cached_and_gains_them(self, aged_dump,
                                                                      tmp_path, hashed):
        # an ingest manifest written before signatures were recorded
        config = fixture_config(aged_dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        path = run_dir_for(config) / "manifests" / "ingest.json"
        manifest = json.loads(path.read_text())
        del manifest["signatures"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        for rehashed in (True, False):
            hashed.clear()
            [m] = run_pipeline(config, stages=["ingest"])
            assert m.cached
            assert (str(aged_dump) in hashed) == rehashed
        assert str(aged_dump) in recorded_signatures(config)

    def test_verifying_ingest_records_its_signatures(self, event_fixture, tmp_path,
                                                     monkeypatch, hashed):
        # ingest ran while the dump was racy; a later stage's check of it
        # records the signature, so the next check reads no dump
        event_path, _ = event_fixture
        dump = tmp_path / "events.jsonl"
        shutil.copyfile(event_path, dump)
        changed_ns = max(dump.stat().st_mtime_ns, dump.stat().st_ctime_ns)
        monkeypatch.setattr(pipeline, "_now_ns", lambda: changed_ns + pipeline.RACY_NS // 2)
        config = fixture_config(dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest", "report"])
        assert recorded_signatures(config) == {}
        monkeypatch.setattr(pipeline, "_now_ns", lambda: changed_ns + 5 * pipeline.RACY_NS)
        for rehashed in (True, False):
            hashed.clear()
            [m] = run_pipeline(config, stages=["report"])
            assert m.cached
            assert (str(dump) in hashed) == rehashed


class TestManifestFiles:
    def test_unreadable_manifest_names_its_stage_and_path(self, event_fixture, tmp_path):
        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        run_pipeline(config, stages=["ingest"])
        path = run_dir_for(config) / "manifests" / "ingest.json"
        for text in (path.read_text()[:40], "[]"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(StageError) as exc:
                run_pipeline(config, stages=["ingest"])
            assert exc.value.stage == "ingest"
            assert str(path) in exc.value.reason

    def test_interrupted_manifest_write_keeps_the_old_manifest(self, event_fixture, tmp_path,
                                                               monkeypatch):
        event_path, _ = event_fixture
        dump = tmp_path / "events.jsonl"
        shutil.copyfile(event_path, dump)
        config = fixture_config(dump, tmp_path / "runs")
        run_pipeline(config, stages=["ingest"])
        manifests = run_dir_for(config) / "manifests"
        old = (manifests / "ingest.json").read_bytes()
        real = pipeline.write_json

        def interrupted(path, payload):
            if path.parent != manifests:
                return real(path, payload)
            real(path, payload)
            path.write_bytes(path.read_bytes()[:40])
            raise OSError("interrupted")

        monkeypatch.setattr(pipeline, "write_json", interrupted)
        overwrite_one_byte(dump)
        with pytest.raises(OSError):
            run_pipeline(config, stages=["ingest"])
        assert (manifests / "ingest.json").read_bytes() == old


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

    def test_annotation_skips_logged(self, event_fixture, tmp_path, caplog):
        from datetime import datetime, timezone

        from polarnet.ingest import PostRecord

        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        at = datetime(2025, 1, 5, tzinfo=timezone.utc)
        posts = [PostRecord("at://a/1", "did:plc:a", "a post about ukraine", ("en",), at, 1),
                 PostRecord("at://a/2", "did:plc:a", "", ("en",), at, 1)]
        run_dir = tmp_path / "run"
        pipeline.write_posts(run_dir / "corpus" / "filtered.jsonl", posts)
        pipeline.write_reposts(run_dir / "corpus" / "reposts.jsonl", [])
        with caplog.at_level(logging.WARNING, logger="polarnet"):
            pipeline.stage_annotate(config, run_dir, {})
        [warning] = caplog.messages
        assert warning == ("stage annotate: skipped 1 theme item(s); first at://a/2: "
                           "post at://a/2 has empty text")


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

    @pytest.mark.parametrize("k", [True, 10.9, "12", 0, -3])
    def test_stance_sample_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ConfigError, match="stance_sample_k must be"):
            config_from_dict({"inputs": ["x"], "out_dir": "o", "seed": 1, "stance_sample_k": k})

    @pytest.mark.parametrize("hours", [True, "12", -5, 48])
    def test_observed_hours_must_be_hours_of_a_day(self, hours):
        downtime = [{"date": "2025-01-16", "observed_hours": hours}]
        with pytest.raises(ConfigError, match=r"downtime\[\]\.observed_hours must be"):
            config_from_dict({"inputs": ["x"], "out_dir": "o", "seed": 1, "downtime": downtime})

    def test_stage_seeds_differ_by_stage(self):
        assert stage_seed(42, "ingest.sample") != stage_seed(42, "groups.ai")
        assert stage_seed(42, "groups.ai") == stage_seed(42, "groups.ai")

    def test_config_json_round_trip(self, event_fixture, tmp_path):
        from polarnet.config import config_from_dict, config_to_dict

        event_path, _ = event_fixture
        config = fixture_config(event_path, tmp_path)
        again = config_from_dict(config_to_dict(config))
        assert config_hash(again) == config_hash(config)

    def test_float_field_spelled_as_integer_is_the_same_config(self):
        base = {"inputs": ["x"], "out_dir": "o", "seed": 1}
        one, one_point_zero = (config_from_dict(dict(base, sample={"fraction": value}))
                               for value in (1, 1.0))
        assert config_hash(one) == config_hash(one_point_zero)
        assert (pipeline.stage_key("ingest", pipeline.config_json(one), {})
                == pipeline.stage_key("ingest", pipeline.config_json(one_point_zero), {}))

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
        rows = json.loads((run_dir / "metrics" / "stance_report.json").read_text())["rows"]
        assert len(rows) == 4

    def test_single_topic_crosstopic_skips(self, event_fixture, tmp_path, caplog):
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
        with caplog.at_level(logging.INFO, logger="polarnet"):
            manifests = run_pipeline(config)
        assert "need at least 2 topic networks, have 1" in caplog.text
        assert {m.stage: m.outputs for m in manifests}["crosstopic"] == {}
        run_dir = run_dir_for(config)
        assert not (run_dir / "crosstopic").exists()
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

    def test_report_renders_only_the_inputs_the_runner_verified(self, completed_run, tmp_path,
                                                                stage_opens):
        # without metrics' manifest the scoreboards are not among report's
        # inputs, so report neither opens nor renders them
        config = completed_run[0]
        root = in_root_of(config, tmp_path)
        run_dir = run_dir_for(config, root)
        (run_dir / "manifests" / "metrics.json").unlink()
        [report] = run_pipeline(config, stages=["report"], run_root=root)
        summary = json.loads((run_dir / "report" / "summary.json").read_text())
        assert summary["sections"]["stance"] == summary["sections"]["structural"] == "missing"
        assert summary["sections"]["crosstopic"] == "ok"
        assert not {"report/table4_stance.csv", "report/table5_structural.csv"} & set(
            report.outputs)
        assert not (run_dir / "report" / "table4_stance.csv").exists()
        assert_opens_declared([report], stage_opens, run_dir)


def tree_bytes(run_dir: Path) -> dict:
    return {rel: (run_dir / rel).read_bytes() for rel in walk_files(run_dir)}


def ran(manifests) -> list[str]:
    return [m.stage for m in manifests if not m.cached]


@pytest.fixture(scope="module")
def slice_bases(event_fixture, tmp_path_factory):
    """Finished runs on the first half of the fixture dump with a small
    detection budget, one on the whole corpus and one on a sampled half,
    so each stage-key case is fast."""
    event_path, _ = event_fixture
    work = tmp_path_factory.mktemp("slice")
    lines = event_path.read_text(encoding="utf-8").splitlines()[:5000]
    dump = work / "events.jsonl"
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (work / "copy").mkdir()
    (work / "copy" / "events.jsonl").write_bytes(dump.read_bytes())
    raw = config_to_dict(fixture_config(dump, work / "runs"))
    raw["detection"] = dict(raw["detection"], runs=3, iters=10)
    raw["stance_sample_k"] = 1000  # every user's whole corpus: stances do not read the seed
    bases = {"whole": config_from_dict(raw)}
    raw["sample"] = dict(raw["sample"], fraction=0.5)
    bases["sampled"] = config_from_dict(raw)
    for config in bases.values():
        run_pipeline(config)
    return work, bases


class _OpenLog:
    """Appends every file opened to ``paths`` while it is a list. An audit
    hook cannot be removed, so ``hook`` is installed once per process."""

    paths = None
    installed = False

    @classmethod
    def hook(cls, event, args):
        if event == "open" and cls.paths is not None:
            cls.paths.append(args[0])


@pytest.fixture
def stage_opens(monkeypatch):
    """Every path each stage opens while its ``_STAGE_FNS`` entry runs."""
    if not _OpenLog.installed:
        sys.addaudithook(_OpenLog.hook)
        _OpenLog.installed = True
    opened: dict[str, list] = {}

    def watched(stage, fn):
        def run(config, run_dir, inputs):
            _OpenLog.paths = opened.setdefault(stage, [])
            try:
                return fn(config, run_dir, inputs)
            finally:
                _OpenLog.paths = None
        return run

    for stage, fn in list(pipeline._STAGE_FNS.items()):
        monkeypatch.setitem(pipeline._STAGE_FNS, stage, watched(stage, fn))
    return opened


def opened_in(run_dir: Path, paths: list) -> set[str]:
    """The files under ``run_dir`` among the opened ``paths``, relative to it."""
    root = os.path.realpath(run_dir)
    rels = set()
    for path in paths:
        if isinstance(path, int):
            continue  # a file descriptor: its path was checked when it was opened
        full = os.path.realpath(os.fsdecode(path))
        if os.path.commonpath([full, root]) == root:
            rels.add(os.path.relpath(full, root))
    return rels


def assert_opens_declared(manifests, opened: dict, run_dir: Path) -> None:
    """Each file under ``run_dir`` that a stage which ran opened is one of
    its recorded inputs or outputs."""
    for m in manifests:
        assert not m.cached, m.stage
        for rel in sorted(opened_in(run_dir, opened[m.stage])):
            assert rel in m.inputs or rel in m.outputs, (m.stage, rel)


def test_c8_stages_open_only_what_they_declare(event_fixture, tmp_path, stage_opens):
    event_path, _ = event_fixture
    config = fixture_config(event_path, tmp_path)
    manifests = run_pipeline(config)
    assert_opens_declared(manifests, stage_opens, run_dir_for(config))


# Stage outputs that no later stage opens, each with the reason it is kept.
UNREAD_OUTPUTS = {
    "graphs/*/*/reposts.csv": "the benchmark's tracer wraps pipeline.export_csv by name, "
                              "so the file goes together with that wrapper",
}


def test_c8_every_output_is_opened_by_a_later_stage(event_fixture, tmp_path, stage_opens):
    # an output nothing reads is still written, hashed, linked on reuse and
    # pinned in GOLDEN; only the report's outputs are read by people
    event_path, _ = event_fixture
    config = fixture_config(event_path, tmp_path)
    manifests = run_pipeline(config)
    run_dir = run_dir_for(config)
    opened_later: set[str] = set()
    for m in reversed(manifests):
        if m.stage != "report":
            unread = [rel for rel in m.outputs if rel not in opened_later
                      and not any(fnmatch.fnmatch(rel, p) for p in UNREAD_OUTPUTS)]
            assert not unread, (m.stage, unread)
        opened_later |= opened_in(run_dir, stage_opens[m.stage])
    outputs = [rel for m in manifests for rel in m.outputs]
    for pattern in UNREAD_OUTPUTS:
        assert fnmatch.filter(outputs, pattern), f"{pattern} is no longer written"


def in_root_of(base: PipelineConfig, root: Path) -> Path:
    """A run root holding a copy of ``base``'s finished run directory."""
    shutil.copytree(run_dir_for(base), root / run_dir_for(base).name)
    return root


class TestStageKeys:
    # Each top-level config field and each metrics flag, the base run, a
    # change to it, and the stages that must run again in that base run's
    # root; every other stage is copied from the base run, and must come out
    # as a cold run's: metrics and crosstopic each read only their own
    # metrics flags. Written out by hand, not derived
    # from pipeline._STAGE_READS. Each stage reads only the paths it
    # declares, so a stage whose key changed but whose outputs came out
    # byte-identical, or whose changed outputs no later stage reads, lets
    # later stages be copied: a new window or downtime changes only the
    # activity stats, not the corpus annotation reads ("window",
    # "downtime"); annotation reads the filtered corpus, not the sample
    # ("sample"); a new k changes the stances but not the topic labels that
    # graph reads ("stance_sample_k").
    CASES = {
        "inputs": ("whole", lambda w: [str(w / "copy" / "events.jsonl")], ["ingest", "report"]),
        "out_dir": ("whole", lambda w: str(w / "elsewhere"), []),
        "seed": ("whole", lambda w: 43,
                 ["ingest", "annotate", "groups", "metrics", "crosstopic", "report"]),
        "window": ("whole", lambda w: {"start": "2025-01-01", "end": "2025-02-01"},
                   ["ingest", "graph", "groups", "metrics", "crosstopic", "report"]),
        "filters": ("whole", lambda w: {"min_reposts": 2, "min_chars": 5, "lang": "en"},
                    list(STAGES)),
        "sample": ("whole", lambda w: {"fraction": 0.5, "stratify_by_day": False},
                   ["ingest", "report"]),
        "provider": ("whole", lambda w: {"kind": "mock", "url": "http://127.0.0.1:9/unused"},
                     ["annotate", "report"]),
        "topics": ("whole", lambda w: [dict(t, name=t["name"] + "!") for t in FIXTURE_TOPICS],
                   ["annotate", "graph", "metrics", "crosstopic", "report"]),
        "detection": ("whole", lambda w: {"max_groups": 5, "runs": 4, "iters": 10,
                                          "collapse_multigraph": False},
                      ["groups", "metrics", "crosstopic", "report"]),
        "metrics.include_neutral": ("whole", lambda w: True, ["metrics", "report"]),
        "metrics.simpson_include_neutral": ("whole", lambda w: True, ["metrics", "report"]),
        "metrics.hypergraph_threshold": ("whole", lambda w: 0.5, ["crosstopic", "report"]),
        "metrics.hypergraph_inclusive": ("whole", lambda w: True, ["crosstopic", "report"]),
        "metrics.nmi_normalization": ("whole", lambda w: "min", ["crosstopic", "report"]),
        "stance_sample_k": ("whole", lambda w: 3,
                            ["annotate", "groups", "metrics", "crosstopic", "report"]),
        "annotate_on": ("sampled", lambda w: "sampled", list(STAGES[1:])),
        "downtime": ("whole", lambda w: [], ["ingest", "report"]),
    }

    def test_cases_cover_every_config_field(self, slice_bases):
        _, bases = slice_bases
        raw = config_to_dict(bases["whole"])
        flags = [f"metrics.{flag}" for flag in raw.pop("metrics")]
        assert sorted(self.CASES) == sorted([*raw, *flags])

    def changed_config(self, slice_bases, field):
        """The case's base config and the config with its field changed."""
        work, bases = slice_bases
        base_name, change, _ = self.CASES[field]
        base = bases[base_name]
        raw = config_to_dict(base)
        section, _, name = field.rpartition(".")
        values = dict(raw[section]) if section else raw  # a section is the config's own dict
        assert values[name] != change(work)
        values[name] = change(work)
        if section:
            raw[section] = values
        return base, config_from_dict(raw)

    @pytest.mark.parametrize("field", sorted(CASES))
    def test_change_reruns_exactly_the_stages_that_read_it(self, slice_bases, field, tmp_path):
        base, changed = self.changed_config(slice_bases, field)
        expected = self.CASES[field][2]
        root = in_root_of(base, tmp_path / "root")
        manifests = run_pipeline(changed, run_root=root)
        assert ran(manifests) == expected

        run_pipeline(changed, run_root=tmp_path / "cold")
        assert tree_bytes(run_dir_for(changed, root)) == tree_bytes(
            run_dir_for(changed, tmp_path / "cold"))

    @pytest.mark.parametrize("field", sorted(CASES))
    def test_stages_open_only_what_they_declare(self, slice_bases, field, tmp_path,
                                                stage_opens):
        _, changed = self.changed_config(slice_bases, field)
        manifests = run_pipeline(changed, run_root=tmp_path / "cold")
        assert_opens_declared(manifests, stage_opens, run_dir_for(changed, tmp_path / "cold"))

    def test_reuse_is_logged_and_the_copy_is_then_cached(self, slice_bases, tmp_path, caplog):
        base = slice_bases[1]["whole"]
        root = in_root_of(base, tmp_path / "root")
        changed = replace(base, metrics=replace(base.metrics, hypergraph_threshold=0.5))
        with caplog.at_level(logging.INFO, logger="polarnet"):
            first = run_pipeline(changed, run_root=root)
        assert [m.cached for m in first] == [True] * 5 + [False] * 2
        for stage in STAGES[:5]:
            assert f"stage {stage}: reused from {run_dir_for(base).name}" in caplog.messages
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="polarnet"):
            again = run_pipeline(changed, run_root=root)
        assert all(m.cached for m in again)
        assert caplog.messages == [f"stage {stage}: cached" for stage in STAGES]

    def test_stage_by_stage_calls_match_a_full_run(self, slice_bases, tmp_path):
        # one call per stage, as the traced benchmark runs them
        base = slice_bases[1]["whole"]
        root = tmp_path / "root"
        for stage in STAGES:
            assert ran(run_pipeline(base, stages=[stage], run_root=root)) == [stage]
        run_dir = run_dir_for(base, root)
        assert tree_bytes(run_dir) == tree_bytes(run_dir_for(base))
        assert all(m.cached for m in run_pipeline(base, run_root=root))

        changed = replace(base, metrics=replace(base.metrics, hypergraph_threshold=0.5))
        for stage in STAGES:
            [manifest] = run_pipeline(changed, stages=[stage], run_root=root)
            linked = stage in STAGES[:5]
            assert manifest.cached == linked, stage
            for rel in manifest.outputs:
                assert os.path.samefile(run_dir_for(changed, root) / rel,
                                        run_dir / rel) == linked, rel

    def test_reused_outputs_are_links_to_the_siblings(self, slice_bases, tmp_path):
        base = slice_bases[1]["whole"]
        root = in_root_of(base, tmp_path / "root")
        sibling = run_dir_for(base, root)
        changed = replace(base, metrics=replace(base.metrics, hypergraph_threshold=0.5))
        manifests = run_pipeline(changed, run_root=root)
        run_dir = run_dir_for(changed, root)
        for m in manifests:
            for rel in m.outputs:
                linked = os.path.samefile(run_dir / rel, sibling / rel)
                assert linked == (m.stage in STAGES[:5]), (m.stage, rel)

    def test_writers_replace_linked_outputs(self, slice_bases, tmp_path, monkeypatch):
        # Every stage runs in a directory whose files are all hard links to
        # a sibling's. A writer that wrote into an existing file would keep
        # the link and rewrite the sibling's bytes.
        base = slice_bases[1]["whole"]
        root = in_root_of(base, tmp_path / "root")
        sibling = run_dir_for(base, root)
        changed = replace(base, metrics=replace(base.metrics, hypergraph_threshold=0.5))
        run_dir = run_dir_for(changed, root)
        shutil.copytree(sibling, run_dir, copy_function=os.link,
                        ignore=shutil.ignore_patterns("manifests"))
        monkeypatch.setattr(pipeline, "_reuse", lambda *args: None)
        assert ran(run_pipeline(changed, run_root=root)) == list(STAGES)

        for rel in walk_files(sibling):
            assert not os.path.samefile(run_dir / rel, sibling / rel), rel
        for stage in STAGES:
            manifest = pipeline._load_manifest(sibling, stage)
            assert pipeline._stale_outputs(manifest, sibling) == ([], []), stage
        assert all(m.cached for m in run_pipeline(base, run_root=root))
        run_pipeline(changed, run_root=tmp_path / "cold")
        assert tree_bytes(run_dir) == tree_bytes(run_dir_for(changed, tmp_path / "cold"))

    def test_sibling_with_a_tampered_output_is_not_copied(self, slice_bases, tmp_path):
        base = slice_bases[1]["whole"]
        root = in_root_of(base, tmp_path / "root")
        tampered = run_dir_for(base, root) / "corpus" / "reposts.jsonl"
        tampered.write_bytes(tampered.read_bytes()[:-1])
        changed = replace(base, metrics=replace(base.metrics, hypergraph_threshold=0.5))
        manifests = run_pipeline(changed, run_root=root)
        # ingest runs; annotate's inputs are then the untampered bytes, which
        # the sibling's annotate manifest recorded, so it is copied again
        assert ran(manifests) == ["ingest", "crosstopic", "report"]
        assert tampered.read_bytes() != (run_dir_for(changed, root) / "corpus"
                                         / "reposts.jsonl").read_bytes()
        run_pipeline(changed, run_root=tmp_path / "cold")
        assert tree_bytes(run_dir_for(changed, root)) == tree_bytes(
            run_dir_for(changed, tmp_path / "cold"))

    @pytest.mark.parametrize("escape, expected", [
        ("dotdot", ["ingest", "crosstopic", "report"]),
        ("symlink", ["ingest", "crosstopic", "report"]),
        ("dirlink", ["groups", "crosstopic", "report"]),
    ], ids=["dotdot", "symlink", "dirlink"])
    def test_sibling_output_outside_its_directory_is_not_copied(self, slice_bases, tmp_path,
                                                                escape, expected):
        base = slice_bases[1]["whole"]
        root = in_root_of(base, tmp_path / "root")
        sibling = run_dir_for(base, root)
        outside = tmp_path / "outside"
        outside.mkdir()
        if escape == "dotdot":
            # an extra output two levels up, with its true hash
            (outside / "outside.txt").write_text("not a run output\n", encoding="utf-8")
            path = sibling / "manifests" / "ingest.json"
            manifest = json.loads(path.read_text())
            manifest["outputs"]["../../outside/outside.txt"] = pipeline.file_hash(
                outside / "outside.txt")
            path.write_text(json.dumps(manifest), encoding="utf-8")
        elif escape == "symlink":
            # a recorded output that is a link to identical bytes elsewhere
            linked = sibling / "corpus" / "reposts.jsonl"
            (outside / "reposts.jsonl").write_bytes(linked.read_bytes())
            linked.unlink()
            linked.symlink_to(outside / "reposts.jsonl")
        else:
            # a topic's groups directory that is a link to identical files elsewhere
            linked = sorted((sibling / "groups").iterdir())[0]
            shutil.copytree(linked, outside, dirs_exist_ok=True)
            shutil.rmtree(linked)
            linked.symlink_to(outside)
        before = tree_bytes(outside)
        changed = replace(base, metrics=replace(base.metrics, hypergraph_threshold=0.5))
        manifests = run_pipeline(changed, run_root=root)
        assert ran(manifests) == expected
        assert tree_bytes(outside) == before
        run_dir = run_dir_for(changed, root)
        assert not any(os.path.samefile(run_dir / rel, outside / rel.name)
                       for rel in walk_files(run_dir) if (outside / rel.name).exists())
        run_pipeline(changed, run_root=tmp_path / "cold")
        assert tree_bytes(run_dir) == tree_bytes(run_dir_for(changed, tmp_path / "cold"))

    @pytest.mark.parametrize("escape", ["dotdot", "parent", "dirlink"])
    def test_outputs_outside_the_run_dir_are_not_removed(self, slice_bases, tmp_path, escape):
        # the outputs a manifest lists are removed before its stage runs
        # again, but only those inside the run directory
        base = slice_bases[1]["whole"]
        run_dir = run_dir_for(base, in_root_of(base, tmp_path / "root"))
        manifest = pipeline._load_manifest(run_dir, "groups")
        inside = list(manifest.outputs)
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "partition.tsv").write_text("a\t0\n", encoding="utf-8")
        if escape == "dotdot":
            manifest.outputs["../../outside/partition.tsv"] = "not checked"
        elif escape == "parent":
            manifest.outputs["groups/../.."] = "not checked"  # the run root, a directory
        else:
            (run_dir / "groups" / "linked").symlink_to(outside, target_is_directory=True)
            manifest.outputs["groups/linked/partition.tsv"] = "not checked"
        pipeline._remove_outputs(manifest, run_dir)
        assert (outside / "partition.tsv").read_text(encoding="utf-8") == "a\t0\n"
        assert not any((run_dir / rel).exists() for rel in inside)


def test_writer_creates_the_directory_of_a_new_path(tmp_path):
    write_json(tmp_path / "a" / "b" / "out.json", {"a": 1})
    assert json.loads((tmp_path / "a" / "b" / "out.json").read_text()) == {"a": 1}


def test_writer_follows_a_symbolic_link_the_caller_chose(tmp_path):
    # as for /dev/stdout: only a regular file is replaced, anything else is
    # where the output was sent
    target = tmp_path / "target.json"
    target.write_text("old\n", encoding="utf-8")
    link = tmp_path / "out.json"
    link.symlink_to(target)
    write_json(link, {"a": 1})
    assert link.is_symlink()
    assert json.loads(target.read_text(encoding="utf-8")) == {"a": 1}


# sha256 of every file outside manifests/ for a cold run of the c8 fixture
# config, with paths relative to the working directory so that config.json
# is the same everywhere. A change that alters an output on purpose updates
# this table and says in CHANGES.md which file changed and why.
GOLDEN = {
    "config.json":
        "de1d5c66024a3d2bc347e4297890574c0a19e0d197e2cf043e8500b5de403022",
    "corpus/filtered.jsonl":
        "da8932007071f56905d0cdfb4b8b89bf448f7d34f519cf6b7d05bec71617d576",
    "corpus/reposts.jsonl":
        "6060964c7c2a4d77d93b8170ee214215b979f3ba7bc1a71e1db1c265ede2657a",
    "crosstopic/alignment_content.csv":
        "eddc86a0b8b9fbaa79932ffea6973e42cb338feaf374017ef10ce9ca12ed9506",
    "crosstopic/alignment_structural.csv":
        "78b1627ec3c3e124885c8c4a0111506f7e23b9585cac55e42e167d86ec29a7f6",
    "crosstopic/hyperedges.json":
        "6e8662b13c7bc6720d26950a1269a5a667db8555f44d296bce9a0a0cfc03cd4e",
    "crosstopic/joint_ai__russia_ukraine.csv":
        "eee4ed4f8b28ac71c6985a9d71640c509e2411ed96db7b1ea9401e3d5761c641",
    "crosstopic/joint_ai__tiktok_ban.csv":
        "2027b8526f140fc05652c6c1a06aa5dadd652f9960adc5f14f6fe0899a4e27b7",
    "crosstopic/joint_ai__trump_administration.csv":
        "eee4ed4f8b28ac71c6985a9d71640c509e2411ed96db7b1ea9401e3d5761c641",
    "crosstopic/joint_russia_ukraine__tiktok_ban.csv":
        "eee4ed4f8b28ac71c6985a9d71640c509e2411ed96db7b1ea9401e3d5761c641",
    "crosstopic/joint_russia_ukraine__trump_administration.csv":
        "edab4ef21fd3dcd02a0a94e20b81a7707645810a244a98679fe89dd6454a81d2",
    "crosstopic/joint_tiktok_ban__trump_administration.csv":
        "3deb2c3fe6be81965f946b0e077906ddf4da99bb52a4a741c20bf79431c458fe",
    "crosstopic/overlap.csv":
        "7d2c4f706aedd97e1caf25921424966a2c2f53702cc15649e957f88429b57b46",
    "graphs/ai/2025-01_2025-03/nodes.tsv":
        "2f0c8ab2d28739cd8cf790533d4d000ebe3dad44fc5bf6000d1c2b242ab19db7",
    "graphs/ai/2025-01_2025-03/reposts.csv":
        "3f6c2d444f2ec6fbb1c6e13fcdc52252a01f3158a2b943889d1b93c5bfff4006",
    "graphs/ai/2025-01_2025-03/reposts.graph":
        "125f37614c7f48fbd16443cfd88714f53d8d6e586fcece3a3cf7d1b6fedcdcb1",
    "graphs/russia_ukraine/2025-01_2025-03/nodes.tsv":
        "31db7180619b985c5e68f33cc0d0a122f4ef8d3a12c24ee530fe43e35ed88598",
    "graphs/russia_ukraine/2025-01_2025-03/reposts.csv":
        "e41253ab25a4cf3f5347499c2a1dc7bbf98f737453004db8e84d44f290de2a82",
    "graphs/russia_ukraine/2025-01_2025-03/reposts.graph":
        "e35d010449f10c84a53e6dbb669da17654cdc50aebab7815153de1d545994209",
    "graphs/stats.json":
        "577e7f7503e7539dc46dc4ff1730385c7d5fc38026921811cd6d8858a9c570af",
    "graphs/tiktok_ban/2025-01_2025-03/nodes.tsv":
        "ad8e4d1a7bbf276591d3f20a9198e106daf1f65424ba449f7f38a8b0e5da753d",
    "graphs/tiktok_ban/2025-01_2025-03/reposts.csv":
        "a21b4e5011ded383e128fb2a0092a56666e717e89982a5a42785d256ea8eeec1",
    "graphs/tiktok_ban/2025-01_2025-03/reposts.graph":
        "b3d9647764de01150cb2f83802a7e690bae101300937553aec76e2743ecd3a8d",
    "graphs/trump_administration/2025-01_2025-03/nodes.tsv":
        "e1fd5b83b1bb75266569c9dc4808b14479a4e9490a621962f0a7d1d35da6c6d0",
    "graphs/trump_administration/2025-01_2025-03/reposts.csv":
        "ef93f0bdc778c71946a0b777ecff601a6213d91e3c37999db573429c9d9a3c70",
    "graphs/trump_administration/2025-01_2025-03/reposts.graph":
        "420af5e8f95f09a458edc72cbe0a1c3d4655832f3aa583839b4d545b9934be3c",
    "groups/ai/content.tsv":
        "9af1e2eb29bbef7e6114141f7a15545fae1c302aa539456e902338c3308a5108",
    "groups/ai/partition.json":
        "d2fb2bef0431d85279ac1deb2320b2794303ffc594d56223fe93f82d96ec64fc",
    "groups/ai/partition.tsv":
        "fea55d6c06cd227bc11001223ab67d0ab1f32eaa1cf305a84d816b4a5173dee2",
    "groups/russia_ukraine/content.tsv":
        "47db1362aaef67d9b764a395604937cf1d83afb4a8408e3dc7f7ea1d0b03d7bf",
    "groups/russia_ukraine/partition.json":
        "93089a08e9e3647d8ab023fbf71fe7013402454de3a0df7daa353fd81d9ae6c7",
    "groups/russia_ukraine/partition.tsv":
        "e7c31206ff125f4fae19c72d00e159112a90445c1f50aa34144b75ecfb8f1789",
    "groups/tiktok_ban/content.tsv":
        "8511d0e04ff793ec7a2ba82dfc00c9f9138a9a09f4a3a62f14d0a669ef165174",
    "groups/tiktok_ban/partition.json":
        "eb87f27dd874d42a9d16408fa0f450b713c5afd92de98bcd71132caa9f707bcc",
    "groups/tiktok_ban/partition.tsv":
        "9fbf85147341eb9d9046626a344e069a8b40a407c3fea6ea5b1928432a2e1c45",
    "groups/trump_administration/content.tsv":
        "92ad7242d972c011273621145660c63d2197a3f7e64977f70fe1d260f7a506de",
    "groups/trump_administration/partition.json":
        "0e0c6e7fbb9e7a7bea38139974212b729f3f207093cd8a109ba35b34a55aab99",
    "groups/trump_administration/partition.tsv":
        "df277bc5ee93a501293c4b647637566b296239fc1db2531c26e3ea7338007ebd",
    "labels/stances_ai.jsonl":
        "e1a6655a5478a937b2c72fd77881e596ca82c7fc3c45ea4cb159b3f8054cafa1",
    "labels/stances_russia_ukraine.jsonl":
        "5007ddfc5c94423f397d8a0e9c477c05bc9dbecf4d26a84051880fb6e5b87b31",
    "labels/stances_tiktok_ban.jsonl":
        "c25d7c392d1c7fdfc7e20707c0de84968918bab70920bcbfa464f1f0c801a7ec",
    "labels/stances_trump_administration.jsonl":
        "1ee8e5729b3f189a7492b857b5c5555a1b6e64a56f1ab9901d50a0ed5f04057c",
    "labels/themes.jsonl":
        "42a71c30cb8823a348e7c94b6d849ec9be596e845bbf92fcdedba9187685fdc1",
    "labels/topics.jsonl":
        "79218c9a3136c226cd09df1954df8249cf8e7f20810fec63a8584ee6507151fc",
    "metrics/stance_report.json":
        "3f25066f2c1840d8309c36bec9ebfac47409cddff71dfd25da498dd45a18e4fa",
    "metrics/structural_report.json":
        "3d4cb8316385784c2cb4488c31d938f877b85b67afbe9ae5af5ad2b2929e2153",
    "report/alignment_content.csv":
        "eddc86a0b8b9fbaa79932ffea6973e42cb338feaf374017ef10ce9ca12ed9506",
    "report/alignment_structural.csv":
        "78b1627ec3c3e124885c8c4a0111506f7e23b9585cac55e42e167d86ec29a7f6",
    "report/hyperedges.json":
        "6e8662b13c7bc6720d26950a1269a5a667db8555f44d296bce9a0a0cfc03cd4e",
    "report/joint_ai__russia_ukraine.csv":
        "eee4ed4f8b28ac71c6985a9d71640c509e2411ed96db7b1ea9401e3d5761c641",
    "report/joint_ai__tiktok_ban.csv":
        "2027b8526f140fc05652c6c1a06aa5dadd652f9960adc5f14f6fe0899a4e27b7",
    "report/joint_ai__trump_administration.csv":
        "eee4ed4f8b28ac71c6985a9d71640c509e2411ed96db7b1ea9401e3d5761c641",
    "report/joint_russia_ukraine__tiktok_ban.csv":
        "eee4ed4f8b28ac71c6985a9d71640c509e2411ed96db7b1ea9401e3d5761c641",
    "report/joint_russia_ukraine__trump_administration.csv":
        "edab4ef21fd3dcd02a0a94e20b81a7707645810a244a98679fe89dd6454a81d2",
    "report/joint_tiktok_ban__trump_administration.csv":
        "3deb2c3fe6be81965f946b0e077906ddf4da99bb52a4a741c20bf79431c458fe",
    "report/overlap.csv":
        "7d2c4f706aedd97e1caf25921424966a2c2f53702cc15649e957f88429b57b46",
    "report/report.txt":
        "8bdbce629f92cce373f592cd81dd6a93cdfd7b5ce92fdadbfc675998cccb3ada",
    "report/summary.json":
        "6f4becd90aefe31166bca8752a9de1e0a684c6ee3ec4110a343b5e6a98ee50bf",
    "report/table1_activity.csv":
        "9376dcd605ea81644d94ee7fe3cd0ed105076d073c8eb477df9bd925914d14a4",
    "report/table2_themes.csv":
        "1771933079df24984ed14b5fca6710bcc52cbb44743a369ec0ad706460fda6eb",
    "report/table3_networks.csv":
        "3edeb9d63bd000cd6c1414c5e0ace7e2f34b5055cba7badb862eec9890df54b2",
    "report/table4_stance.csv":
        "01869d1eb17ad31bc38555b8a8aab4f4f5c86d4e25d6b8657cd777dc5194dbb7",
    "report/table5_structural.csv":
        "35dd60b698ccd1c001a165a6e2f81b28cb15c3f76e399e69b46ac08ce1174628",
    "stats/activity_stats.json":
        "b4683bc145e4e855a725be345518c8bc271897a1cfc7490bb5274be3a454979c",
}


def test_golden_digests(event_fixture, tmp_path, monkeypatch):
    event_path, _ = event_fixture
    monkeypatch.chdir(tmp_path)
    Path("events.jsonl").write_bytes(event_path.read_bytes())
    config = fixture_config("events.jsonl", "runs")
    run_pipeline(config)
    run_dir = run_dir_for(config)
    digests = {str(rel): hashlib.sha256((run_dir / rel).read_bytes()).hexdigest()
               for rel in walk_files(run_dir)}
    assert digests == GOLDEN
