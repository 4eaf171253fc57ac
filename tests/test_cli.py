import json
import shutil
import socket

import pytest

from conftest import FIXTURE_TOPICS
from polarnet.cli import main
from polarnet.config import config_from_dict
from polarnet.pipeline import run_dir_for, run_pipeline


@pytest.fixture(scope="module")
def workspace(event_fixture, tmp_path_factory):
    """Event dump plus a config file pointing at it."""
    event_path, _ = event_fixture
    root = tmp_path_factory.mktemp("cli")
    config = {
        "inputs": [str(event_path)],
        "out_dir": str(root / "runs"),
        "seed": 42,
        "window": {"start": "2025-01-01", "end": "2025-04-01"},
        "topics": FIXTURE_TOPICS,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return event_path, config_path, root, config


class TestIngestCommands:
    def test_stats(self, workspace, tmp_path, capsys):
        event_path, _, _, _ = workspace
        assert main(["ingest", "stats", "--input", str(event_path),
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "activity_stats.json").read_text())
        assert payload["per_type"]["post"]["total_actions"] > 0
        daily = (tmp_path / "activity_daily.csv").read_text().splitlines()
        assert daily[0] == "date,action_type,actions,distinct_authors"

    def test_filter_and_sample(self, workspace, tmp_path, capsys):
        event_path, _, _, _ = workspace
        filtered = tmp_path / "filtered.jsonl"
        reposts = tmp_path / "reposts.jsonl"
        assert main(["ingest", "filter", "--input", str(event_path),
                     "--out", str(filtered), "--reposts-out", str(reposts),
                     "--min-reposts", "1", "--min-chars", "5", "--lang", "en"]) == 0
        n_filtered = len(filtered.read_text().splitlines())
        assert n_filtered > 100
        sampled = tmp_path / "sampled.jsonl"
        assert main(["ingest", "sample", "--input", str(filtered),
                     "--out", str(sampled), "--fraction", "0.1", "--seed", "5"]) == 0
        assert len(sampled.read_text().splitlines()) == round(0.1 * n_filtered)

    def test_stats_window_matches_pipeline(self, workspace, tmp_path, capsys):
        event_path, _, _, raw = workspace
        assert main(["ingest", "stats", "--input", str(event_path),
                     "--out", str(tmp_path / "cli"), "--window", "2025-01:2025-03"]) == 0
        config = config_from_dict(raw)
        run_pipeline(config, stages=["ingest"], run_root=tmp_path / "runs")
        run_dir = run_dir_for(config, tmp_path / "runs")
        cli = json.loads((tmp_path / "cli" / "activity_stats.json").read_text())
        ref = json.loads((run_dir / "stats" / "activity_stats.json").read_text())
        assert cli["window"] == ["2025-01-01", "2025-03-31"]
        assert cli == ref

    def test_stats_counts_parse_errors(self, workspace, tmp_path, capsys):
        event_path, _, _, _ = workspace
        lines = event_path.read_text().splitlines()[:200]
        dump = tmp_path / "dump.jsonl"
        dump.write_text("\n".join(lines + ["{not json", '{"action": "create"}']) + "\n")
        assert main(["ingest", "stats", "--input", str(dump),
                     "--out", str(tmp_path / "stats")]) == 0
        payload = json.loads((tmp_path / "stats" / "activity_stats.json").read_text())
        assert payload["parse_errors"] == 2


@pytest.fixture(scope="module")
def corpus_files(workspace, tmp_path_factory):
    event_path, _, _, _ = workspace
    tmp = tmp_path_factory.mktemp("corpus")
    filtered = tmp / "filtered.jsonl"
    reposts = tmp / "reposts.jsonl"
    main(["ingest", "filter", "--input", str(event_path),
          "--out", str(filtered), "--reposts-out", str(reposts)])
    labels = tmp / "labels"
    main(["annotate", "themes", "--input", str(filtered),
          "--provider", "mock", "--out", str(labels)])
    main(["annotate", "topics", "--input", str(filtered),
          "--themes", str(labels / "themes.jsonl"),
          "--provider", "mock", "--out", str(labels)])
    main(["annotate", "stances", "--input", str(filtered),
          "--topic-labels", str(labels / "topics.jsonl"),
          "--reposts", str(reposts),
          "--provider", "mock", "--out", str(labels), "--seed", "3"])
    graphs = tmp / "graphs"
    main(["graph", "build", "--corpus", str(filtered), "--reposts", str(reposts),
          "--topic-labels", str(labels / "topics.jsonl"), "--out", str(graphs),
          "--topics", "all", "--window", "2025-01:2025-03"])
    return tmp


class TestAnnotateAndGraphCommands:
    def test_labels_written(self, corpus_files):
        labels = corpus_files / "labels"
        assert (labels / "themes.jsonl").exists()
        assert (labels / "topics.jsonl").exists()
        assert (labels / "stances_russia_ukraine.jsonl").exists()
        record = json.loads(
            (labels / "stances_russia_ukraine.jsonl").read_text().splitlines()[0]
        )
        assert set(record) == {"user", "topic", "label", "template_hash", "timestamp"}

    def test_graph_files_written(self, corpus_files):
        topic_dir = corpus_files / "graphs" / "russia_ukraine" / "2025-01_2025-03"
        assert (topic_dir / "reposts.graph").exists()
        assert (topic_dir / "reposts.csv").exists()
        assert (topic_dir / "nodes.tsv").exists()

    def test_graph_stats_prints_rows(self, corpus_files, capsys):
        assert main(["graph", "stats", "--graphs", str(corpus_files / "graphs")]) == 0
        out = capsys.readouterr().out
        assert "russia_ukraine" in out
        assert out.splitlines()[0] == "topic,window,nodes,edges,average_degree"

    def test_graph_stats_on_a_misnumbered_nodes_file_exit_code(self, corpus_files, tmp_path,
                                                                capsys):
        graphs = tmp_path / "graphs"
        shutil.copytree(corpus_files / "graphs", graphs)
        nodes = graphs / "russia_ukraine" / "2025-01_2025-03" / "nodes.tsv"
        nodes.write_text("0\ta\n5\tb\n", encoding="utf-8")
        assert main(["graph", "stats", "--graphs", str(graphs)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and "nodes.tsv" in err

    def test_groups_structural_and_content(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "groups"
        assert main(["groups", "structural", "--graphs", str(corpus_files / "graphs"),
                     "--topic", "russia_ukraine", "--out", str(out),
                     "--max-groups", "5", "--runs", "5", "--iters", "20",
                     "--seed", "11"]) == 0
        meta = json.loads((out / "partition.json").read_text())
        assert meta["b"] >= 2
        assert main(["groups", "content", "--graphs", str(corpus_files / "graphs"),
                     "--topic", "russia_ukraine",
                     "--stances", str(corpus_files / "labels" / "stances_russia_ukraine.jsonl"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["groups", "composition", "--partition", str(out / "partition.tsv"),
                     "--content", str(out / "content.tsv")]) == 0
        printed = capsys.readouterr().out
        payload = json.loads(printed[printed.index("{"):])
        assert "max_ds" in payload

    @pytest.mark.parametrize("what", ["themes", "topics"])
    def test_rerun_starts_a_fresh_store(self, corpus_files, tmp_path, capsys, what):
        argv = ["annotate", what, "--input", str(corpus_files / "filtered.jsonl"),
                "--out", str(tmp_path)]
        if what == "topics":
            argv += ["--themes", str(corpus_files / "labels" / "themes.jsonl")]
        for _ in range(2):
            assert main(argv) == 0
        once = corpus_files / "labels" / f"{what}.jsonl"
        assert (tmp_path / f"{what}.jsonl").read_bytes() == once.read_bytes()

    @pytest.mark.parametrize("case", ["custom_label", "unknown_flag"])
    def test_stances_for_topic_without_spec(self, corpus_files, tmp_path, capsys, case):
        filtered = corpus_files / "filtered.jsonl"
        topic_labels = corpus_files / "labels" / "topics.jsonl"
        extra = []
        if case == "custom_label":
            uri = json.loads(filtered.read_text().splitlines()[0])["uri"]
            topic_labels = tmp_path / "topics.jsonl"
            topic_labels.write_text(json.dumps(
                {"post_uri": uri, "label": "custom_topic", "template_hash": "x",
                 "timestamp": "2025-01-02T00:00:00+00:00"}) + "\n")
            missing = "custom_topic"
        else:
            extra = ["--topic", "no_such_topic"]
            missing = "no_such_topic"
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # a provider call would fail with a transport error (exit 3)
        out = tmp_path / "labels"
        assert main(["annotate", "stances", "--input", str(filtered),
                     "--topic-labels", str(topic_labels),
                     "--provider", f"http://127.0.0.1:{port}/annotate",
                     "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert missing in err
        assert "polarnet run --stages annotate" in err
        assert not list(out.glob("stances_*.jsonl"))


class TestRunAndReport:
    def test_run_all_stages(self, workspace, capsys):
        _, config_path, root, raw = workspace
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        for stage in ("ingest", "annotate", "graph", "groups", "metrics",
                      "crosstopic", "report"):
            assert stage in out
        run_dir = run_dir_for(config_from_dict(raw))
        assert (run_dir / "report" / "report.txt").exists()

    def test_rerun_reports_cached(self, workspace, capsys):
        _, config_path, _, _ = workspace
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("cached") == 7

    def test_stage_subset(self, workspace, capsys):
        _, config_path, _, _ = workspace
        assert main(["run", "--config", str(config_path), "--stages", "metrics"]) == 0

    def test_report_command(self, workspace, capsys):
        _, config_path, _, raw = workspace
        run_dir = run_dir_for(config_from_dict(raw))
        assert main(["report", "--out", str(run_dir)]) == 0
        assert (run_dir / "report" / "summary.json").exists()

    def test_report_command_runs_the_report_stage(self, workspace, tmp_path, capsys):
        # in a copy of the finished run directory, so the edit stays there
        _, config_path, _, raw = workspace
        assert main(["run", "--config", str(config_path)]) == 0
        run_dir = tmp_path / run_dir_for(config_from_dict(raw)).name
        shutil.copytree(run_dir_for(config_from_dict(raw)), run_dir)
        assert main(["report", "--out", str(run_dir)]) == 0
        assert main(["report", "--out", str(run_dir)]) == 0
        assert capsys.readouterr().out.splitlines()[-2] == "report: cached"
        with (run_dir / "metrics" / "stance_report.csv").open("a") as fh:
            fh.write("edited,,,,,,,,,\n")
        assert main(["report", "--out", str(run_dir)]) == 3
        err = capsys.readouterr().err
        assert "input hash mismatch: metrics/stance_report.csv: manifest" in err

    def test_report_command_refuses_a_config_of_another_run(self, workspace, tmp_path,
                                                            capsys):
        _, _, _, raw = workspace
        run_dir = tmp_path / "000000000000"
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps(raw))
        assert main(["report", "--out", str(run_dir)]) == 2
        assert "not to the run directory's name '000000000000'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["000000000000"]
        with pytest.raises(SystemExit):  # no --config to render under another config
            main(["report", "--out", str(run_dir), "--config", str(run_dir / "config.json")])

    def test_metrics_report_prints_table(self, workspace, capsys):
        _, config_path, _, _ = workspace
        assert main(["metrics", "report", "--config", str(config_path),
                     "--grouping", "structural"]) == 0
        out = capsys.readouterr().out
        assert "n_groups" in out

    def test_crosstopic_commands(self, workspace, capsys):
        _, config_path, _, _ = workspace
        for what in ("overlap", "hypergraph", "alignment", "joint"):
            assert main(["crosstopic", what, "--config", str(config_path),
                         "--grouping", "content", "--threshold", "0.2"]) == 0

    def test_crosstopic_threshold_runs_in_own_run_dir(self, workspace, capsys):
        _, config_path, _, raw = workspace
        assert main(["crosstopic", "hypergraph", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert main(["crosstopic", "hypergraph", "--config", str(config_path),
                     "--threshold", "0.3"]) == 0
        assert '"threshold": 0.3' in capsys.readouterr().out
        default = run_dir_for(config_from_dict(raw))
        assert json.loads((default / "crosstopic" / "hyperedges.json").read_text()
                          )["threshold"] == 0.2
        # the stages that do not read the threshold were copied, manifest and all
        changed = run_dir_for(config_from_dict(dict(raw, metrics={"hypergraph_threshold": 0.3})))
        for stage, copied in (("groups", True), ("metrics", False), ("crosstopic", False)):
            default_m, changed_m = ((d / "manifests" / f"{stage}.json").read_text()
                                    for d in (default, changed))
            assert (default_m == changed_m) == copied, stage

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["run", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("text, error", [
        (None, "FileNotFoundError"), ("not json\n", "JSONDecodeError"), ("{}\n", "KeyError"),
    ])
    def test_stage_command_on_a_bad_input_file_exit_code(self, tmp_path, capsys, text, error):
        posts = tmp_path / "posts.jsonl"
        if text is not None:
            posts.write_text(text, encoding="utf-8")
        assert main(["annotate", "themes", "--input", str(posts),
                     "--out", str(tmp_path / "labels")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1

    def test_stage_failure_exit_code(self, workspace, tmp_path, capsys):
        _, config_path, _, raw = workspace
        fresh = dict(raw)
        fresh["out_dir"] = str(tmp_path / "fresh")
        config_path2 = tmp_path / "cfg.json"
        config_path2.write_text(json.dumps(fresh))
        assert main(["run", "--config", str(config_path2), "--stages", "metrics"]) == 3
        err = capsys.readouterr().err
        assert "graph" in err

    @pytest.mark.parametrize("change, code", [
        (lambda dumps: {"inputs": str(dumps / "*.jsonl")}, 2),
        (lambda dumps: {"inputs": [str(dumps)]}, 3),
        (lambda dumps: {"downtime": [{"date": "2025-01-02"}]}, 2),
        (lambda dumps: {"window": {"start": "2025-01-01"}}, 2),
        (lambda dumps: {"stance_sample_k": "ten"}, 2),
    ], ids=["inputs-string", "inputs-directory", "downtime-no-hours", "window-no-end",
            "k-not-integer"])
    def test_malformed_config_or_input_exit_code(self, workspace, tmp_path, capsys,
                                                 change, code):
        _, _, _, raw = workspace
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        (dumps / "events.jsonl").write_text("")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(raw, out_dir=str(tmp_path / "runs"),
                                               **change(dumps))))
        assert main(["run", "--config", str(config_path)]) == code
        expected = "config error: " if code == 2 else "error: stage 'ingest'"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("section, field, value", [
        ("sample", "fraction", "half"),
        ("detection", "max_groups", "five"),
    ])
    def test_section_field_of_wrong_type_exit_code(self, workspace, tmp_path, capsys,
                                                   section, field, value):
        # the real dump, so a value that got past the config would reach its stage
        _, _, _, raw = workspace
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(raw, out_dir=str(tmp_path / "runs"),
                                               **{section: {field: value}})))
        assert main(["run", "--config", str(config_path)]) == 2
        assert f"config error: {section}.{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("change, field", [
        ({"metrics": {"nmi_normalization": "median"}}, "metrics.nmi_normalization"),
        ({"metrics": {"hypergraph_threshold": 1}}, "metrics.hypergraph_threshold"),
        ({"provider": {"kind": "mok", "url": "http://127.0.0.1:9/x"}}, "provider.kind"),
        ({"stance_sample_k": 0}, "stance_sample_k"),
        ({"downtime": [{"date": "2025-01-16", "observed_hours": 48}]},
         "downtime[].observed_hours"),
    ], ids=["nmi-normalization", "hypergraph-threshold", "provider-kind", "stance-sample-k",
            "observed-hours"])
    def test_setting_a_stage_would_reject_exit_code(self, workspace, tmp_path, capsys,
                                                    change, field):
        # each was once accepted here and refused, or misread, by a later stage
        _, _, _, raw = workspace
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(raw, out_dir=str(tmp_path / "runs"), **change)))
        assert main(["run", "--config", str(config_path)]) == 2
        assert f"config error: {field} must be" in capsys.readouterr().err
        assert not list(tmp_path.rglob("manifests"))

    def test_crosstopic_threshold_out_of_range_exit_code(self, workspace, tmp_path, capsys):
        _, _, _, raw = workspace
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(raw, out_dir=str(tmp_path / "runs"))))
        assert main(["crosstopic", "hypergraph", "--config", str(config_path),
                     "--threshold", "1"]) == 2
        assert ("config error: metrics.hypergraph_threshold must be"
                in capsys.readouterr().err)
        assert not list(tmp_path.rglob("manifests"))


def _tree(root, patterns):
    return {p.relative_to(root) for pattern in patterns for p in root.glob(pattern)}


def test_stage_commands_match_run(event_fixture, tmp_path, capsys):
    """The stage-command chain and ``polarnet run`` write the same artifacts."""
    event_path, _ = event_fixture
    chain = tmp_path / "chain"
    corpus, labels = chain / "corpus", chain / "labels"
    steps = [
        ["ingest", "stats", "--input", str(event_path), "--out", str(chain / "stats"),
         "--window", "2025-01:2025-03"],
        ["ingest", "filter", "--input", str(event_path),
         "--out", str(corpus / "filtered.jsonl"),
         "--reposts-out", str(corpus / "reposts.jsonl")],
        ["ingest", "sample", "--input", str(corpus / "filtered.jsonl"),
         "--out", str(corpus / "sampled.jsonl"), "--fraction", "0.5", "--seed", "42"],
        ["annotate", "themes", "--input", str(corpus / "filtered.jsonl"),
         "--out", str(labels)],
        ["annotate", "topics", "--input", str(corpus / "filtered.jsonl"),
         "--themes", str(labels / "themes.jsonl"), "--out", str(labels)],
        ["annotate", "stances", "--input", str(corpus / "filtered.jsonl"),
         "--topic-labels", str(labels / "topics.jsonl"),
         "--reposts", str(corpus / "reposts.jsonl"), "--out", str(labels), "--seed", "42"],
        ["graph", "build", "--corpus", str(corpus / "filtered.jsonl"),
         "--reposts", str(corpus / "reposts.jsonl"),
         "--topic-labels", str(labels / "topics.jsonl"), "--out", str(chain / "graphs"),
         "--window", "2025-01:2025-03"],
    ]
    for argv in steps:
        assert main(argv) == 0, argv
    topics = sorted(p.name for p in (chain / "graphs").iterdir())
    assert len(topics) >= 2
    for topic in topics:
        out = str(chain / "groups" / topic)
        assert main(["groups", "structural", "--graphs", str(chain / "graphs"),
                     "--topic", topic, "--out", out, "--seed", "42"]) == 0
        assert main(["groups", "content", "--graphs", str(chain / "graphs"),
                     "--topic", topic, "--stances", str(labels / f"stances_{topic}.jsonl"),
                     "--out", out]) == 0

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "inputs": [str(event_path)],
        "out_dir": str(tmp_path / "runs"),
        "seed": 42,
        "window": {"start": "2025-01-01", "end": "2025-04-01"},
        "sample": {"fraction": 0.5},
    }))
    assert main(["run", "--config", str(config_path)]) == 0
    run_dir = next((tmp_path / "runs").iterdir())

    patterns = ["corpus/*.jsonl", "labels/*.jsonl", "stats/activity_daily.csv",
                "graphs/*/*/nodes.tsv", "graphs/*/*/reposts.graph", "graphs/*/*/reposts.csv",
                "groups/*/partition.tsv", "groups/*/content.tsv"]
    chain_files, run_files = _tree(chain, patterns), _tree(run_dir, patterns)
    # run keeps an empty stance store for every configured topic
    for rel in run_files - chain_files:
        assert rel.name.startswith("stances_") and (run_dir / rel).stat().st_size == 0
    assert chain_files <= run_files
    assert len(chain_files) == 6 + len(topics) * 6
    differing = [str(rel) for rel in sorted(chain_files)
                 if (chain / rel).read_bytes() != (run_dir / rel).read_bytes()]
    assert differing == []
    stats = [json.loads((d / "stats" / "activity_stats.json").read_text())
             for d in (chain, run_dir)]
    assert stats[0] == stats[1]
