"""Report bundle rendering.

Turns the stage artifacts into the final tables: activity totals, theme
distribution, network properties, per-topic stance scores, structural
scores, and the cross-topic matrices. Indices print with two decimals,
counts with thousands separators, and undefined values as dashes.
"""

from __future__ import annotations

import csv
import json
import shutil
from collections import Counter
from pathlib import Path
from typing import Optional

from .annotate import theme_distribution, theme_store
from .config import config_hash
from .files import open_new

DASH = "--"

TABLE4_HEADER = [
    "topic", "pct_a", "pct_neutral", "pct_b", "simpson", "assortativity",
    "aei", "coleman_a", "coleman_b", "dominant_stance",
]

TABLE5_HEADER = [
    "topic", "mean_aei", "max_aei", "min_aei", "n_groups", "max_ds", "min_ds",
]


def fmt_index(value: Optional[float]) -> str:
    return DASH if value is None else f"{value:.2f}"


def fmt_matrix(value: Optional[float]) -> str:
    return DASH if value is None else f"{value:.6f}"


def fmt_count(value: int) -> str:
    return f"{value:,}"


def block_letter(block) -> str:
    if isinstance(block, int) and 0 <= block < 26:
        return chr(ord("A") + block)
    return str(block)


def table4_row(r) -> list[str]:
    return [
        r.topic,
        fmt_index(r.fraction_a),
        fmt_index(r.fraction_neutral),
        fmt_index(r.fraction_b),
        fmt_index(r.simpson),
        fmt_index(r.assortativity),
        fmt_index(r.aei),
        fmt_index(r.coleman_a),
        fmt_index(r.coleman_b),
        r.dominant_stance,
    ]


def table5_row(r) -> list[str]:
    # a single structural group has no between-group scores and no
    # per-group stance spread: everything but the group count is a dash
    if r.n_groups <= 1:
        return [r.topic, DASH, DASH, DASH, str(r.n_groups), DASH, DASH]
    return [
        r.topic,
        fmt_index(r.mean_aei),
        fmt_index(r.max_aei),
        fmt_index(r.min_aei),
        str(r.n_groups),
        fmt_index(r.max_ds),
        fmt_index(r.min_ds),
    ]


def write_json(path: Path, payload) -> None:
    with open_new(path, encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header: list, rows: list) -> None:
    with open_new(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _copy(src: Path, dst: Path) -> None:
    with src.open("rb") as fsrc, open_new(dst, "xb") as fdst:
        shutil.copyfileobj(fsrc, fdst)


def _pretty_table(title: str, header: list, rows: list) -> str:
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines) + "\n"


def render_report(config, run_dir: Path):
    """Write the report bundle from whatever stage outputs exist.

    Missing upstream sections are skipped and listed in summary.json, so
    a partial pipeline still yields a valid (partial) bundle.
    """
    report_dir = run_dir / "report"
    outputs = []
    sections: dict[str, str] = {}
    pretty: list[str] = []

    # activity (action-count table)
    stats_path = run_dir / "stats" / "activity_stats.json"
    if stats_path.exists():
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
        display = [
            ("like", "Likes"), ("post", "Posts"), ("repost", "Reposts"),
            ("block", "Blocks"), ("follow", "Follows"), ("profile", "Sign-ups"),
        ]
        rows = []
        pretty_rows = []
        for kind, label in display:
            t = stats["per_type"].get(kind)
            if t is None:
                continue
            rows.append([
                label,
                round(t["daily_average_actions"], 1),
                round(t["daily_average_authors"], 1),
                t["total_actions"],
                t["total_author_days"],
            ])
            pretty_rows.append([
                label,
                fmt_count(round(t["daily_average_actions"])),
                fmt_count(round(t["daily_average_authors"])),
                fmt_count(t["total_actions"]),
                fmt_count(t["total_author_days"]),
            ])
        path = report_dir / "table1_activity.csv"
        write_csv(
            path,
            ["action_type", "daily_average_actions", "daily_average_authors",
             "total_actions", "total_authors"],
            rows,
        )
        outputs.append(path)
        pretty.append(_pretty_table(
            "Activity by action type",
            ["Action", "Daily actions", "Daily authors", "Total actions", "Total authors"],
            pretty_rows,
        ))
        sections["activity"] = "ok"
    else:
        sections["activity"] = "missing"

    # theme distribution
    themes_path = run_dir / "labels" / "themes.jsonl"
    if themes_path.exists():
        counts = Counter(theme_store(themes_path).mapping().values())
        if counts:
            dist = theme_distribution(counts)
            rows = []
            for theme in sorted(dist.counts):
                rows.append([
                    theme,
                    f"{dist.share_of_all[theme]:.3f}",
                    f"{dist.share_of_political.get(theme, 0.0):.3f}"
                    if theme in dist.share_of_political else DASH,
                    dist.counts[theme],
                ])
            path = report_dir / "table2_themes.csv"
            write_csv(path, ["theme", "share_of_all", "share_of_political", "posts"], rows)
            outputs.append(path)
            pretty.append(_pretty_table(
                "Posts by political theme",
                ["Theme", "% of all", "% of political", "Posts"],
                [[r[0], r[1], r[2], fmt_count(r[3])] for r in rows],
            ))
            sections["themes"] = "ok"
        else:
            sections["themes"] = "missing"
    else:
        sections["themes"] = "missing"

    # network properties
    gstats_path = run_dir / "graphs" / "stats.json"
    if gstats_path.exists():
        gstats = json.loads(gstats_path.read_text(encoding="utf-8"))
        rows = [
            [topic, s["nodes"], s["edges"], f"{s['average_degree']:.2f}"]
            for topic, s in sorted(gstats["topics"].items())
        ]
        path = report_dir / "table3_networks.csv"
        write_csv(path, ["topic", "nodes", "edges", "average_degree"], rows)
        outputs.append(path)
        pretty.append(_pretty_table(
            "Network properties",
            ["Topic", "Nodes", "Edges", "Avg degree"],
            [[r[0], fmt_count(r[1]), fmt_count(r[2]), r[3]] for r in rows],
        ))
        sections["networks"] = "ok"
    else:
        sections["networks"] = "missing"

    # stance and structural scoreboards
    for name, src, header, title in (
        ("stance", "stance_report.csv", TABLE4_HEADER, "Stance-group scores"),
        ("structural", "structural_report.csv", TABLE5_HEADER, "Structural-group scores"),
    ):
        src_path = run_dir / "metrics" / src
        if src_path.exists():
            dst = report_dir / (
                "table4_stance.csv" if name == "stance" else "table5_structural.csv"
            )
            _copy(src_path, dst)
            outputs.append(dst)
            with src_path.open(encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            pretty.append(_pretty_table(title, header, rows))
            sections[name] = "ok"
        else:
            sections[name] = "missing"

    # cross-topic matrices travel into the bundle unchanged
    cross_dir = run_dir / "crosstopic"
    copied = False
    if cross_dir.exists():
        for src_path in sorted(cross_dir.glob("*.csv")) + sorted(cross_dir.glob("*.json")):
            if src_path.name == "skipped.json":
                continue
            dst = report_dir / src_path.name
            _copy(src_path, dst)
            outputs.append(dst)
            copied = True
    sections["crosstopic"] = "ok" if copied else "missing"

    summary_path = report_dir / "summary.json"
    summary = {
        "config_hash": config_hash(config),
        "sections": sections,
    }
    write_json(summary_path, summary)
    outputs.append(summary_path)

    text_path = report_dir / "report.txt"
    with open_new(text_path, encoding="utf-8") as fh:
        fh.write("\n".join(pretty))
    outputs.append(text_path)
    return outputs
