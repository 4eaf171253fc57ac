import argparse
import json
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURE_TOPICS
from polarnet.cli import build_parser, main
from polarnet.config import config_from_dict, config_hash
from polarnet.pipeline import read_assignment, run_dir_for, run_pipeline


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


@pytest.fixture(scope="module")
def finished_run(workspace):
    """The workspace config's run directory, after a full run."""
    config = config_from_dict(workspace[3])
    run_pipeline(config)
    return run_dir_for(config)


def _write_config(path, raw, **changes):
    path.write_text(json.dumps(dict(raw, **changes)))
    return str(path)


class TestIngestCommands:
    """Ingest through ``run --stages ingest``."""

    def test_stats(self, finished_run):
        payload = json.loads((finished_run / "stats" / "activity_stats.json").read_text())
        assert payload["per_type"]["post"]["total_actions"] > 0
        assert payload["per_type"]["post"]["daily_average_actions"] > 0

    def test_stats_window_matches_pipeline(self, workspace, tmp_path, capsys):
        _, config_path, _, raw = workspace
        assert main(["run", "--config", str(config_path), "--stages", "ingest",
                     "--out", str(tmp_path / "cli")]) == 0
        config = config_from_dict(raw)
        run_pipeline(config, stages=["ingest"], run_root=tmp_path / "runs")
        cli, ref = (json.loads((run_dir_for(config, tmp_path / root) / "stats"
                                / "activity_stats.json").read_text())
                    for root in ("cli", "runs"))
        assert cli["window"] == ["2025-01-01", "2025-03-31"]  # the config's, inclusive
        assert cli == ref

    def test_filter_and_sample(self, workspace, tmp_path, capsys):
        _, _, _, raw = workspace
        config = _write_config(tmp_path / "cfg.json", raw, sample={"fraction": 0.1})
        assert main(["run", "--config", config, "--stages", "ingest",
                     "--out", str(tmp_path / "runs")]) == 0
        corpus = next((tmp_path / "runs").iterdir()) / "corpus"
        n_filtered = len((corpus / "filtered.jsonl").read_text().splitlines())
        assert n_filtered > 100
        assert len((corpus / "sampled.jsonl").read_text().splitlines()) == round(0.1 * n_filtered)

    def test_stats_counts_parse_errors(self, workspace, tmp_path, capsys):
        event_path, _, _, raw = workspace
        lines = event_path.read_text().splitlines()[:200]
        dump = tmp_path / "dump.jsonl"
        dump.write_text("\n".join(lines + ["{not json", '{"action": "create"}']) + "\n")
        config = _write_config(tmp_path / "cfg.json", raw, inputs=[str(dump)])
        assert main(["run", "--config", config, "--stages", "ingest",
                     "--out", str(tmp_path / "runs")]) == 0
        stats = next((tmp_path / "runs").iterdir()) / "stats" / "activity_stats.json"
        assert json.loads(stats.read_text())["parse_errors"] == 2


class TestAnnotateAndGraphCommands:
    """The label, graph and group files of a full run, and the commands that
    read them."""

    def test_labels_written(self, finished_run):
        labels = finished_run / "labels"
        assert (labels / "themes.jsonl").exists()
        assert (labels / "topics.jsonl").exists()
        assert (labels / "stances_russia_ukraine.jsonl").exists()
        record = json.loads(
            (labels / "stances_russia_ukraine.jsonl").read_text().splitlines()[0]
        )
        assert set(record) == {"user", "topic", "label", "template_hash", "timestamp"}

    def test_graph_files_written(self, finished_run):
        topic_dir = finished_run / "graphs" / "russia_ukraine" / "2025-01_2025-03"
        assert (topic_dir / "reposts.graph").exists()
        assert (topic_dir / "reposts.csv").exists()
        assert (topic_dir / "nodes.tsv").exists()

    def test_graph_stats_prints_rows(self, finished_run, capsys):
        assert main(["graph", "stats", "--graphs", str(finished_run / "graphs")]) == 0
        out = capsys.readouterr().out
        assert "russia_ukraine" in out
        assert out.splitlines()[0] == "topic,window,nodes,edges,average_degree"

    def test_graph_stats_on_a_misnumbered_nodes_file_exit_code(self, finished_run, tmp_path,
                                                                capsys):
        graphs = tmp_path / "graphs"
        shutil.copytree(finished_run / "graphs", graphs)
        nodes = graphs / "russia_ukraine" / "2025-01_2025-03" / "nodes.tsv"
        nodes.write_text("0\ta\n5\tb\n", encoding="utf-8")
        assert main(["graph", "stats", "--graphs", str(graphs)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ") and "nodes.tsv" in err

    def test_groups_structural_and_content(self, finished_run, capsys):
        out = finished_run / "groups" / "russia_ukraine"
        meta = json.loads((out / "partition.json").read_text())
        assert meta["b"] >= 2
        assert set(read_assignment(out / "content.tsv")) <= set(
            read_assignment(out / "partition.tsv"))
        assert main(["groups", "composition", "--partition", str(out / "partition.tsv"),
                     "--content", str(out / "content.tsv")]) == 0
        printed = capsys.readouterr().out
        payload = json.loads(printed[printed.index("{"):])
        assert "max_ds" in payload

    @pytest.mark.parametrize("what", ["themes", "topics"])
    def test_rerun_starts_a_fresh_store(self, workspace, finished_run, tmp_path, capsys, what):
        # annotate runs again over its own stores: without a manifest the
        # runner has no record of them to remove first
        _, config_path, _, _ = workspace
        run_dir = tmp_path / finished_run.name
        shutil.copytree(finished_run, run_dir)
        (run_dir / "manifests" / "annotate.json").unlink()
        assert main(["run", "--config", str(config_path), "--stages", "annotate",
                     "--out", str(tmp_path)]) == 0
        assert "annotate: cached" not in capsys.readouterr().out
        once = finished_run / "labels" / f"{what}.jsonl"
        assert (run_dir / "labels" / f"{what}.jsonl").read_bytes() == once.read_bytes()


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

    def test_rerun_reports_cached(self, workspace, finished_run, capsys):
        _, config_path, _, _ = workspace
        assert main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("cached") == 7

    def test_stage_subset(self, workspace, finished_run, capsys):
        _, config_path, _, _ = workspace
        assert main(["run", "--config", str(config_path), "--stages", "metrics"]) == 0

    def test_report_command(self, workspace, finished_run, capsys):
        _, config_path, _, _ = workspace
        assert main(["report", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"report bundle written to {finished_run / 'report'}")
        assert (finished_run / "report" / "summary.json").exists()

    def test_report_command_runs_the_report_stage(self, workspace, finished_run, tmp_path,
                                                  capsys):
        # in a copy of the finished run directory, so the edit stays there
        _, config_path, _, _ = workspace
        run_dir = tmp_path / finished_run.name
        shutil.copytree(finished_run, run_dir)
        report = ["report", "--config", str(config_path), "--out", str(tmp_path)]
        assert main(report) == 0
        assert main(report) == 0
        assert capsys.readouterr().out.splitlines()[-2] == "report: cached"
        with (run_dir / "metrics" / "stance_report.json").open("a") as fh:
            fh.write("\n")
        assert main(report) == 3
        err = capsys.readouterr().err
        assert "input hash mismatch: metrics/stance_report.json: manifest" in err

    def test_report_command_out_is_the_run_root(self, workspace, tmp_path, capsys):
        # --out means what it means for run: the root that holds the run
        # directory, not the run directory
        _, config_path, _, raw = workspace
        root = tmp_path / "runs"
        assert main(["report", "--config", str(config_path), "--out", str(root)]) == 3
        assert "stage 'ingest' has no manifest" in capsys.readouterr().err
        assert main(["run", "--config", str(config_path), "--out", str(root)]) == 0
        assert main(["report", "--config", str(config_path), "--out", str(root)]) == 0
        run_dir = root / config_hash(config_from_dict(raw))
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "report: cached", f"report bundle written to {run_dir / 'report'}"]
        assert sorted(p.name for p in root.iterdir()) == [run_dir.name]
        with pytest.raises(SystemExit):  # the config is not read from the run directory
            main(["report", "--out", str(root)])

    def test_metrics_report_prints_table(self, workspace, capsys):
        _, config_path, _, _ = workspace
        assert main(["metrics", "report", "--config", str(config_path),
                     "--grouping", "structural"]) == 0
        out = capsys.readouterr().out
        assert "n_groups" in out

    def test_metrics_report_out_is_the_run_root(self, workspace, tmp_path, capsys):
        _, config_path, _, raw = workspace
        assert main(["metrics", "report", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        run_dir = tmp_path / config_hash(config_from_dict(raw))
        assert sorted(p.name for p in tmp_path.iterdir()) == [run_dir.name]
        assert (run_dir / "manifests" / "metrics.json").exists()
        assert capsys.readouterr().out.splitlines()[0].startswith("topic,")

    def test_metrics_report_unknown_topic_exit_code(self, workspace, tmp_path, capsys):
        _, config_path, _, _ = workspace
        root = tmp_path / "runs"
        assert main(["metrics", "report", "--config", str(config_path), "--out", str(root),
                     "--topic", "nope"]) == 2
        assert "'nope'" in capsys.readouterr().err
        assert not root.exists()

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
        for stage, copied in (("groups", True), ("metrics", True), ("crosstopic", False)):
            default_m, changed_m = ((d / "manifests" / f"{stage}.json").read_text()
                                    for d in (default, changed))
            assert (default_m == changed_m) == copied, stage

    def test_config_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["run", "--config", str(missing)]) == 2

    @pytest.mark.parametrize("text, error", [
        (None, "FileNotFoundError"), ("{}\n", "ValueError"), ("a\t0\nb", "ValueError"),
    ], ids=["missing", "not-tsv", "short"])
    def test_groups_composition_on_a_bad_input_file_exit_code(self, tmp_path, capsys, text,
                                                              error):
        partition = tmp_path / "partition.tsv"
        if text is not None:
            partition.write_text(text, encoding="utf-8")
        content = tmp_path / "content.tsv"
        content.write_text("a\tfor\n", encoding="utf-8")
        assert main(["groups", "composition", "--partition", str(partition),
                     "--content", str(content)]) == 3
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

    def test_truncated_manifest_exit_code(self, workspace, tmp_path, capsys):
        _, _, _, raw = workspace
        fresh = dict(raw, out_dir=str(tmp_path / "runs"))
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(fresh))
        assert main(["run", "--config", str(config_path),
                     "--stages", "ingest,annotate,graph"]) == 0
        manifest = run_dir_for(config_from_dict(fresh)) / "manifests" / "graph.json"
        manifest.write_bytes(manifest.read_bytes()[:40])
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'graph': ") and err.count("\n") == 1
        assert str(manifest) in err

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
        ({"provider": {"kind": "http", "url": "ftp://x"}}, "provider.url"),
    ], ids=["nmi-normalization", "hypergraph-threshold", "provider-kind", "stance-sample-k",
            "observed-hours", "provider-url"])
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


def _subcommands(parser) -> dict:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _readme_commands(text: str) -> set:
    """``command`` or ``command subcommand`` of each ``polarnet`` line in a
    fenced code block; ``a|b`` lists alternatives."""
    found, in_code = set(), False
    for line in text.splitlines():
        if line.startswith("```"):
            in_code = not in_code
        elif in_code and line.startswith("polarnet "):
            words = line.split()
            if len(words) > 2 and not words[2].startswith("-"):
                found |= {f"{words[1]} {sub}" for sub in words[2].split("|")}
            else:
                found.add(words[1])
    return found


def test_readme_shows_every_command():
    defined = set()
    for name, command in _subcommands(build_parser()).items():
        defined |= {f"{name} {sub}" for sub in _subcommands(command)} or {name}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Commands\n", 1)[1].split("\n## ", 1)[0]
    assert _readme_commands(section) == defined
    assert _readme_commands(readme) <= defined
